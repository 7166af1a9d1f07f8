//! The [`CaseStudy`] instance for case study 3 (memory management &
//! polymorphism): the §5 multi-language system, consumed by the
//! `semint-harness` engine and by hand-written programs alike.

use crate::compile::MemGcCompiler;
use crate::convert::MemGcConversions;
use crate::gen::MemGcProgramGen;
use crate::model::{check_transfer_soundness, halt_type_safe, CHECK_FUEL};
use crate::syntax::{L3Expr, L3Type, PolyExpr, PolyType};
use crate::typecheck::{check_l3, check_poly, MemGcCtx};
use lcvm::{Expr, Halt, Machine, RunResult};
use semint_core::case::{CaseStudy, CheckFailure, GenProfile, Scenario, Size};
use semint_core::convert::ConversionScheme;
use semint_core::stats::RunStats;
use semint_core::{Fuel, GlueCacheStats};
use std::fmt;

/// A closed §5 multi-language program, hosted in either language.
#[derive(Debug, Clone, PartialEq)]
pub enum MgProgram {
    /// A MiniML-hosted program.
    Ml(PolyExpr),
    /// An L3-hosted program.
    L3(L3Expr),
}

impl fmt::Display for MgProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MgProgram::Ml(e) => write!(f, "{e}"),
            MgProgram::L3(e) => write!(f, "{e}"),
        }
    }
}

/// A source type of either §5 language.
#[derive(Debug, Clone, PartialEq)]
pub enum MgSourceType {
    /// A MiniML type.
    Ml(PolyType),
    /// An L3 type.
    L3(L3Type),
}

impl fmt::Display for MgSourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MgSourceType::Ml(t) => write!(f, "{t} (MiniML)"),
            MgSourceType::L3(t) => write!(f, "{t} (L3)"),
        }
    }
}

/// The §5 multi-language system: MiniML + L3 + the §5 conversions over LCVM
/// with GC and manual memory.  Its stages type check and compile with that
/// one rule set.
///
/// The `broken` flag simulates broken conversion glue: the compiled program
/// is wrapped in a projection (`fst`), standing in for glue code that treats
/// every converted value as a pair.  Scenarios whose result is not a pair
/// then fail `Type` under the model's safety check.
#[derive(Debug, Clone)]
pub struct MemGcCase {
    conversions: MemGcConversions,
    broken: bool,
}

impl MemGcCase {
    /// The standard (sound) rule set.
    pub fn standard() -> Self {
        MemGcCase {
            conversions: MemGcConversions::standard(),
            broken: false,
        }
    }

    /// The deliberately broken glue (see the type-level docs).
    pub fn broken() -> Self {
        MemGcCase {
            broken: true,
            ..MemGcCase::standard()
        }
    }

    /// The conversion rule set in use.
    pub fn conversions(&self) -> &MemGcConversions {
        &self.conversions
    }
}

fn push_ml(out: &mut Vec<MgProgram>, e: &PolyExpr) {
    out.push(MgProgram::Ml(e.clone()));
}

fn push_l3(out: &mut Vec<MgProgram>, e: &L3Expr) {
    out.push(MgProgram::L3(e.clone()));
}

/// Immediate subterms of a MiniML expression, as candidate shrinks.
fn ml_children(e: &PolyExpr, out: &mut Vec<MgProgram>) {
    match e {
        PolyExpr::Unit | PolyExpr::Int(_) | PolyExpr::Var(_) => {}
        PolyExpr::Fst(a)
        | PolyExpr::Snd(a)
        | PolyExpr::Inl(a, _)
        | PolyExpr::Inr(a, _)
        | PolyExpr::Lam(_, _, a)
        | PolyExpr::TyLam(_, a)
        | PolyExpr::TyApp(a, _)
        | PolyExpr::Ref(a)
        | PolyExpr::Deref(a) => push_ml(out, a),
        PolyExpr::Pair(a, b)
        | PolyExpr::App(a, b)
        | PolyExpr::Assign(a, b)
        | PolyExpr::Add(a, b) => {
            push_ml(out, a);
            push_ml(out, b);
        }
        PolyExpr::Match(s, _, l, _, r) => {
            push_ml(out, s);
            push_ml(out, l);
            push_ml(out, r);
        }
        PolyExpr::Boundary(l3, _) => push_l3(out, l3),
    }
}

/// Immediate subterms of an L3 expression, as candidate shrinks.
fn l3_children(e: &L3Expr, out: &mut Vec<MgProgram>) {
    match e {
        L3Expr::Unit | L3Expr::Bool(_) | L3Expr::Var(_) | L3Expr::UVar(_) => {}
        L3Expr::Lam(_, _, a)
        | L3Expr::Bang(a)
        | L3Expr::Dupl(a)
        | L3Expr::Drop(a)
        | L3Expr::New(a)
        | L3Expr::Free(a)
        | L3Expr::LocLam(_, a)
        | L3Expr::LocApp(a, _)
        | L3Expr::Pack(_, a, _) => push_l3(out, a),
        L3Expr::App(a, b)
        | L3Expr::Pair(a, b)
        | L3Expr::LetPair(_, _, a, b)
        | L3Expr::LetUnit(a, b)
        | L3Expr::LetBang(_, a, b)
        | L3Expr::Unpack(_, _, a, b) => {
            push_l3(out, a);
            push_l3(out, b);
        }
        L3Expr::If(c, t, f) => {
            push_l3(out, c);
            push_l3(out, t);
            push_l3(out, f);
        }
        L3Expr::Swap(a, b, c) => {
            push_l3(out, a);
            push_l3(out, b);
            push_l3(out, c);
        }
        L3Expr::Boundary(ml, _) => push_ml(out, ml),
    }
}

impl CaseStudy for MemGcCase {
    type Program = MgProgram;
    type Ty = MgSourceType;
    type Report = RunResult;
    type Compiled = Expr;
    /// How the checker's own run halted: the `fst`-wrapped artifact's run
    /// for the broken glue, or a copy of the artifact's when the sweep's
    /// fuel falls short of the checker's.
    type Evidence = Option<Halt>;

    fn name(&self) -> &'static str {
        "memgc"
    }

    fn generate(&self, seed: u64, profile: &GenProfile) -> Scenario<MgProgram, MgSourceType> {
        let mut gen = MemGcProgramGen::with_profile(seed, profile);
        // Every fourth scenario is L3-hosted.
        if seed % 4 == 3 {
            let ty = gen.gen_l3_type(profile.type_depth);
            let program = gen.gen_l3(&ty);
            Scenario {
                seed,
                program: MgProgram::L3(program),
                ty: MgSourceType::L3(ty),
            }
        } else {
            let ty = gen.gen_goal_ml_type();
            let program = gen.gen_ml(&ty);
            Scenario {
                seed,
                program: MgProgram::Ml(program),
                ty: MgSourceType::Ml(ty),
            }
        }
    }

    fn typecheck(&self, program: &MgProgram) -> Result<MgSourceType, String> {
        let ctx = MemGcCtx::empty();
        let convertible = |ml: &PolyType, l3: &L3Type| self.conversions.derivable(ml, l3);
        match program {
            MgProgram::Ml(e) => check_poly(&ctx, e, &convertible).map(|(t, _)| MgSourceType::Ml(t)),
            MgProgram::L3(e) => check_l3(&ctx, e, &convertible).map(|(t, _)| MgSourceType::L3(t)),
        }
        .map_err(|e| e.to_string())
    }

    fn compile(&self, program: &MgProgram) -> Result<Expr, String> {
        let compiler = MemGcCompiler::new(&self.conversions);
        match program {
            MgProgram::Ml(e) => compiler.compile_ml_program(e),
            MgProgram::L3(e) => compiler.compile_l3_program(e),
        }
        .map_err(|e| e.to_string())
    }

    fn execute(&self, compiled: Expr, fuel: Fuel) -> RunResult {
        Machine::run_expr(compiled, fuel)
    }

    /// One LCVM machine for the whole batch, reset between programs.
    fn execute_batch(&self, batch: Vec<Expr>, fuel: Fuel) -> Vec<RunResult> {
        Machine::run_batch(batch, fuel)
    }

    fn stats(&self, report: &RunResult) -> RunStats {
        report.stats()
    }

    fn model_budget(&self) -> Fuel {
        CHECK_FUEL
    }

    /// The broken glue projects every result as if it were a pair, so its
    /// check runs a program of its own, `fst` of the artifact.  The
    /// standard check judges the run stage's report, unless the sweep's
    /// fuel falls short of the checker's; then it too runs its own copy.
    fn model_evidence(
        &self,
        _program: &MgProgram,
        _ty: &MgSourceType,
        compiled: &Expr,
        fuel: Fuel,
    ) -> Option<Halt> {
        let budget = self.model_budget();
        let checked = if self.broken {
            Expr::fst(compiled.clone())
        } else if !fuel.covers(budget) {
            compiled.clone()
        } else {
            return None;
        };
        Some(self.execute(checked, budget).halt)
    }

    fn model_judgement(
        &self,
        program: &MgProgram,
        _ty: &MgSourceType,
        own_halt: Option<Halt>,
        report: &RunResult,
        fuel: Fuel,
    ) -> Result<(), CheckFailure> {
        let out_of_fuel = Halt::OutOfFuel;
        let halt = match &own_halt {
            Some(halt) => halt,
            None => report
                .rebudget(fuel, self.model_budget())
                .decide(report)
                .map_or(&out_of_fuel, |run| &run.halt),
        };
        halt_type_safe(halt).map_err(|failure| CheckFailure {
            claim: if self.broken {
                format!("deliberately broken glue: {}", failure.claim)
            } else {
                failure.claim
            },
            witness: program.to_string(),
            reason: failure.reason,
        })
    }

    fn shrink(&self, program: &MgProgram) -> Vec<MgProgram> {
        let mut out = Vec::new();
        match program {
            MgProgram::Ml(e) => ml_children(e, &mut out),
            MgProgram::L3(e) => l3_children(e, &mut out),
        }
        out
    }

    fn measure(&self, program: &MgProgram) -> Size {
        match program {
            MgProgram::Ml(e) => e.measure(),
            MgProgram::L3(e) => e.measure(),
        }
    }

    fn check_conversions(&self) -> Result<(), CheckFailure> {
        // §5's executable conversion check is transfer soundness for the
        // in-place `gcmov` move at representative payload types.  The payload
        // 7 is an integer on which the `int ↦ bool` collapse is not the
        // identity.
        let catalogue = [
            (PolyType::Int, L3Type::Bool, lcvm::Value::Int(0)),
            (PolyType::Int, L3Type::Bool, lcvm::Value::Int(7)),
            (
                PolyType::prod(PolyType::Int, PolyType::Int),
                L3Type::tensor(L3Type::Bool, L3Type::Bool),
                lcvm::Value::Pair(Box::new(lcvm::Value::Int(0)), Box::new(lcvm::Value::Int(1))),
            ),
        ];
        for (ml_payload, l3_payload, initial) in catalogue {
            check_transfer_soundness(&self.conversions, &ml_payload, &l3_payload, initial)?;
        }
        Ok(())
    }

    fn glue_cache_stats(&self) -> Option<GlueCacheStats> {
        Some(self.conversions.glue_cache().stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typecheck::MemGcTypeError;
    use lcvm::{Slot, Value};

    /// Type checks, compiles and runs `program` under the standard rules.
    fn run(program: MgProgram) -> RunResult {
        MemGcCase::standard()
            .run(&program, Fuel::default())
            .unwrap()
    }

    /// The L3 program `new true` packaged for crossing the boundary: it has
    /// type `REF bool`.
    fn l3_new_bool(b: bool) -> L3Expr {
        L3Expr::new(L3Expr::bool_(b))
    }

    #[test]
    fn scenarios_typecheck_at_their_claimed_type() {
        let case = MemGcCase::standard();
        let cfg = GenProfile::standard();
        for seed in 0..40 {
            let scen = case.generate(seed, &cfg);
            let checked = case
                .typecheck(&scen.program)
                .expect("well-typed by construction");
            assert_eq!(checked, scen.ty, "seed {seed}");
        }
    }

    #[test]
    fn model_check_accepts_sound_scenarios() {
        let case = MemGcCase::standard();
        let cfg = GenProfile::standard();
        for seed in 0..12 {
            let scen = case.generate(seed, &cfg);
            case.model_check(&scen.program, &scen.ty)
                .unwrap_or_else(|f| panic!("seed {seed}: {f}"));
        }
    }

    #[test]
    fn the_catalogue_derives_in_the_rule_set_the_case_compiles_with() {
        let case = MemGcCase::standard();
        case.check_conversions()
            .expect("the standard catalogue is sound");
        let stats = case.glue_cache_stats().expect("a glue cache");
        assert!(stats.entries > 0, "no derivation reached the case's cache");
    }

    #[test]
    fn broken_glue_is_refuted_for_some_seed() {
        let case = MemGcCase::broken();
        let cfg = GenProfile::standard();
        let refuted = (0..60).any(|seed| {
            let scen = case.generate(seed, &cfg);
            case.model_check(&scen.program, &scen.ty).is_err()
        });
        assert!(refuted, "no seed in 0..60 refuted the broken glue");
    }

    #[test]
    fn shrink_yields_immediate_subterms() {
        let case = MemGcCase::standard();
        let p = MgProgram::L3(L3Expr::free(L3Expr::new(L3Expr::bool_(true))));
        let shrinks = case.shrink(&p);
        assert_eq!(shrinks.len(), 1);
        assert!(matches!(&shrinks[0], MgProgram::L3(L3Expr::New(_))));
    }

    #[test]
    fn l3_memory_transfers_to_miniml_without_copying() {
        // MiniML: !⦇ new true ⦈(ref int)   — read the transferred reference.
        let e = PolyExpr::deref(PolyExpr::boundary(
            l3_new_bool(true),
            PolyType::ref_(PolyType::Int),
        ));
        let r = run(MgProgram::Ml(e));
        assert_eq!(r.halt, Halt::Value(Value::Int(0)));
        // Exactly one manual allocation happened (inside L3), zero GC
        // allocations: the cell was moved, not copied.
        assert_eq!(r.heap.stats().manual_allocs, 1);
        assert_eq!(r.heap.stats().gc_allocs, 0);
        assert_eq!(r.heap.stats().gcmovs, 1);
        assert_eq!(r.heap.manual_len(), 0, "the cell is now GC-managed");
    }

    #[test]
    fn transferred_memory_is_eventually_collected_not_leaked() {
        // Transfer a cell to MiniML, drop it on the floor, allocate again (via
        // another L3 new, which calls the GC first): the transferred cell is
        // unreachable by then and gets collected.
        let e = PolyExpr::snd(PolyExpr::pair(
            PolyExpr::boundary(l3_new_bool(true), PolyType::ref_(PolyType::Int)),
            PolyExpr::deref(PolyExpr::boundary(
                l3_new_bool(false),
                PolyType::ref_(PolyType::Int),
            )),
        ));
        let r = run(MgProgram::Ml(e));
        assert_eq!(r.halt, Halt::Value(Value::Int(1)));
        assert!(r.heap.stats().gc_runs >= 2);
    }

    #[test]
    fn miniml_reference_crosses_to_l3_as_a_fresh_package() {
        // L3: free ⦇ ref 5 ⦈(REF bool)  — the contents are copied+converted.
        let e = L3Expr::free(L3Expr::boundary(
            PolyExpr::ref_(PolyExpr::int(5)),
            L3Type::ref_like(L3Type::Bool),
        ));
        let r = run(MgProgram::L3(e));
        // 5 collapses to false (1).
        assert_eq!(r.halt, Halt::Value(Value::Int(1)));
        assert_eq!(r.heap.stats().gc_allocs, 1);
        assert_eq!(r.heap.stats().manual_allocs, 1);
        assert_eq!(r.heap.stats().frees, 1);
    }

    #[test]
    fn paper_example_1_polymorphic_instantiation_at_a_foreign_type() {
        // (Λα. λx:α. λy:α. y) [⟨bool⟩] ⦇true⦈⟨bool⟩ ⦇false⦈⟨bool⟩
        let second = PolyExpr::tylam(
            "α",
            PolyExpr::lam(
                "x",
                PolyType::tvar("α"),
                PolyExpr::lam("y", PolyType::tvar("α"), PolyExpr::var("y")),
            ),
        );
        let e = PolyExpr::app(
            PolyExpr::app(
                PolyExpr::tyapp(second, PolyType::foreign(L3Type::Bool)),
                PolyExpr::boundary(L3Expr::bool_(true), PolyType::foreign(L3Type::Bool)),
            ),
            PolyExpr::boundary(L3Expr::bool_(false), PolyType::foreign(L3Type::Bool)),
        );
        let program = MgProgram::Ml(e);
        assert_eq!(
            MemGcCase::standard().typecheck(&program).unwrap(),
            MgSourceType::Ml(PolyType::foreign(L3Type::Bool))
        );
        let r = run(program);
        assert_eq!(
            r.halt,
            Halt::Value(Value::Int(1)),
            "the second argument (false) is returned"
        );
    }

    #[test]
    fn paper_example_2_church_boolean_conversion() {
        // (λx:BOOL. x) ⦇true⦈BOOL  where BOOL ≜ ∀α. α → α → α
        let e = PolyExpr::app(
            PolyExpr::lam("x", PolyType::church_bool(), PolyExpr::var("x")),
            PolyExpr::boundary(L3Expr::bool_(true), PolyType::church_bool()),
        );
        assert_eq!(
            MemGcCase::standard()
                .typecheck(&MgProgram::Ml(e.clone()))
                .unwrap(),
            MgSourceType::Ml(PolyType::church_bool())
        );
        // Use the resulting Church boolean from L3 by converting it back.
        let use_it = L3Expr::if_(
            L3Expr::boundary(e, L3Type::Bool),
            L3Expr::bool_(false),
            L3Expr::bool_(true),
        );
        let r = run(MgProgram::L3(use_it));
        // The boolean was true, so the first branch runs and returns false (1).
        assert_eq!(r.halt, Halt::Value(Value::Int(1)));
    }

    #[test]
    fn miniml_functions_cross_as_banged_lollis() {
        // L3 applies a MiniML increment-ish function to a boolean.
        let ml_fun = PolyExpr::lam(
            "x",
            PolyType::Int,
            PolyExpr::add(PolyExpr::var("x"), PolyExpr::int(0)),
        );
        let l3_ty = L3Type::bang(L3Type::lolli(L3Type::bang(L3Type::Bool), L3Type::Bool));
        let e = L3Expr::let_bang(
            "f",
            L3Expr::boundary(ml_fun, l3_ty),
            L3Expr::app(L3Expr::uvar("f"), L3Expr::bang(L3Expr::bool_(true))),
        );
        let r = run(MgProgram::L3(e));
        assert_eq!(r.halt, Halt::Value(Value::Int(0)));
    }

    #[test]
    fn linear_capabilities_cannot_be_smuggled_through_foreign_types() {
        // ⦇ new true ⦈⟨∃ζ. cap ζ bool ⊗ !ptr ζ⟩ — REF bool is not Duplicable,
        // so the boundary is rejected statically.
        let e = PolyExpr::boundary(
            l3_new_bool(true),
            PolyType::foreign(L3Type::ref_like(L3Type::Bool)),
        );
        let case = MemGcCase::standard();
        let rules = case.conversions();
        assert!(matches!(
            check_poly(&MemGcCtx::empty(), &e, &|m, l| rules.derivable(m, l)),
            Err(MemGcTypeError::NotConvertible { .. })
        ));
        assert!(case.run(&MgProgram::Ml(e), Fuel::default()).is_err());
    }

    #[test]
    fn aliasing_survives_the_transfer_to_miniml() {
        // Transfer a cell to MiniML, then write through the MiniML reference
        // and observe the result through the same reference: a plain sanity
        // check that gcmov preserved identity and mutability.
        let e = PolyExpr::app(
            PolyExpr::lam(
                "r",
                PolyType::ref_(PolyType::Int),
                PolyExpr::snd(PolyExpr::pair(
                    PolyExpr::assign(PolyExpr::var("r"), PolyExpr::int(9)),
                    PolyExpr::deref(PolyExpr::var("r")),
                )),
            ),
            PolyExpr::boundary(l3_new_bool(true), PolyType::ref_(PolyType::Int)),
        );
        let r = run(MgProgram::Ml(e));
        assert_eq!(r.halt, Halt::Value(Value::Int(9)));
    }

    #[test]
    fn well_typed_programs_are_safe() {
        let ml_programs = vec![
            PolyExpr::deref(PolyExpr::boundary(
                l3_new_bool(false),
                PolyType::ref_(PolyType::Int),
            )),
            PolyExpr::boundary(L3Expr::unit(), PolyType::Unit),
            PolyExpr::add(
                PolyExpr::int(1),
                PolyExpr::boundary(L3Expr::bool_(true), PolyType::Int),
            ),
        ];
        for e in ml_programs {
            let r = run(MgProgram::Ml(e.clone()));
            assert!(r.halt.is_safe(), "{e} produced {:?}", r.halt);
        }
        let l3_programs = vec![
            L3Expr::free(L3Expr::boundary(
                PolyExpr::ref_(PolyExpr::int(3)),
                L3Type::ref_like(L3Type::Bool),
            )),
            L3Expr::if_(
                L3Expr::boundary(PolyExpr::int(0), L3Type::Bool),
                L3Expr::unit(),
                L3Expr::unit(),
            ),
        ];
        for e in l3_programs {
            let r = run(MgProgram::L3(e.clone()));
            assert!(r.halt.is_safe(), "{e} produced {:?}", r.halt);
        }
    }

    #[test]
    fn transferred_cell_slot_is_gc_after_the_boundary() {
        let e = PolyExpr::boundary(l3_new_bool(true), PolyType::ref_(PolyType::Int));
        let r = run(MgProgram::Ml(e));
        let loc = r
            .halt
            .value_ref()
            .and_then(|v| v.as_loc())
            .expect("a location");
        assert!(matches!(r.heap.slot(loc), Some(Slot::Gc(Value::Int(0)))));
    }
}
