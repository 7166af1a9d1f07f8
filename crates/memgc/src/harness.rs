//! The [`CaseStudy`] instance for case study 3 (memory management &
//! polymorphism), consumed by the `semint-harness` engine.

use crate::gen::MemGcProgramGen;
use crate::model::{check_transfer_soundness, halt_type_safe, CHECK_FUEL};
use crate::multilang::MemGcMultiLang;
use crate::syntax::{L3Expr, L3Type, PolyExpr, PolyType};
use lcvm::{Expr, Halt, RunResult};
use semint_core::case::{CaseStudy, CheckFailure, GenProfile, Scenario};
use semint_core::stats::RunStats;
use semint_core::{Fuel, GlueCacheStats};

pub use crate::multilang::{MgProgram, MgSourceType};

/// Case study 3 packaged for the harness engine.
///
/// The `broken` flag simulates broken conversion glue: the compiled program
/// is wrapped in a projection (`fst`), standing in for glue code that treats
/// every converted value as a pair.  Scenarios whose result is not a pair
/// then fail `Type` under the model's safety check.
#[derive(Debug, Clone)]
pub struct MemGcCase {
    system: MemGcMultiLang,
    broken: bool,
}

impl MemGcCase {
    /// The standard (sound) rule set.
    pub fn standard() -> Self {
        MemGcCase {
            system: MemGcMultiLang::new(),
            broken: false,
        }
    }

    /// The deliberately broken glue (see the type-level docs).
    pub fn broken() -> Self {
        MemGcCase {
            system: MemGcMultiLang::new(),
            broken: true,
        }
    }
}

impl Default for MemGcCase {
    fn default() -> Self {
        MemGcCase::standard()
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
        self.system.typecheck(program).map_err(|e| e.to_string())
    }

    fn compile(&self, program: &MgProgram) -> Result<Expr, String> {
        self.system.compile_only(program).map_err(|e| e.to_string())
    }

    fn execute(&self, compiled: Expr, fuel: Fuel) -> RunResult {
        self.system.execute(compiled, fuel)
    }

    fn execute_batch(&self, batch: Vec<Expr>, fuel: Fuel) -> Vec<RunResult> {
        self.system.execute_batch(batch, fuel)
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

    fn boundary_count(&self, program: &MgProgram) -> usize {
        match program {
            MgProgram::Ml(e) => e.boundary_count(),
            MgProgram::L3(e) => e.boundary_count(),
        }
    }

    fn program_chars(&self, program: &MgProgram) -> usize {
        match program {
            MgProgram::Ml(e) => e.rendered_chars(),
            MgProgram::L3(e) => e.rendered_chars(),
        }
    }

    fn check_conversions(&self) -> Result<(), CheckFailure> {
        // §5's executable conversion check is transfer soundness for the
        // in-place `gcmov` move at representative payload types.
        let catalogue = [
            (PolyType::Int, L3Type::Bool, lcvm::Value::Int(0)),
            (
                PolyType::prod(PolyType::Int, PolyType::Int),
                L3Type::tensor(L3Type::Bool, L3Type::Bool),
                lcvm::Value::Pair(Box::new(lcvm::Value::Int(0)), Box::new(lcvm::Value::Int(1))),
            ),
        ];
        for (ml_payload, l3_payload, initial) in catalogue {
            check_transfer_soundness(self.system.conversions(), &ml_payload, &l3_payload, initial)?;
        }
        Ok(())
    }

    fn glue_cache_stats(&self) -> Option<GlueCacheStats> {
        Some(self.system.conversions().cache().stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
