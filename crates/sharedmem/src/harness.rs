//! The [`CaseStudy`] instance for case study 1 (shared-memory
//! interoperability): the §3 multi-language system, consumed by the
//! `semint-harness` engine and by hand-written programs alike.

use crate::convert::SharedMemConversions;
use crate::gen::ProgramGen;
use crate::model::{
    check_convertibility, check_direction, outcome_type_safe, run_in, SemType, World,
};
use reflang::compile::{compile_hl, compile_ll};
use reflang::syntax::{HlExpr, HlType, LlExpr, LlType};
use reflang::typecheck::{check_hl, check_ll, TypeCtx};
use semint_core::case::{CaseStudy, CheckFailure, GenProfile, Scenario, Size};
use semint_core::convert::ConversionScheme;
use semint_core::stats::RunStats;
use semint_core::{Fuel, GlueCacheStats};
use stacklang::{Machine, Program, RunResult};
use std::fmt;

/// The step budget of the type-safety check (Theorems 3.3/3.4).
pub const SAFETY_STEPS: u64 = 200_000;

/// The step index `W.k` at which the compiled program must inhabit `E⟦τ⟧`.
pub const STEP_INDEX: u64 = 20_000;

/// A closed §3 multi-language program, hosted in either language.
#[derive(Debug, Clone, PartialEq)]
pub enum SmProgram {
    /// A RefHL-hosted program.
    Hl(HlExpr),
    /// A RefLL-hosted program.
    Ll(LlExpr),
}

impl fmt::Display for SmProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmProgram::Hl(e) => write!(f, "{e}"),
            SmProgram::Ll(e) => write!(f, "{e}"),
        }
    }
}

/// Which language the top-level program was written in, with its type.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceType {
    /// A RefHL program of the given type.
    Hl(HlType),
    /// A RefLL program of the given type.
    Ll(LlType),
}

impl fmt::Display for SourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceType::Hl(t) => write!(f, "{t} (RefHL)"),
            SourceType::Ll(t) => write!(f, "{t} (RefLL)"),
        }
    }
}

/// The §3 multi-language system: RefHL + RefLL + a Fig. 4 rule set over
/// StackLang.  Its stages type check and compile with that one rule set.
///
/// The `broken` flag simulates a designer error: an extra convertibility
/// rule `bool ∼ [int]` whose glue is the identity.  The rule is unsound —
/// booleans compile to bare integers, which are not array values — so every
/// `bool`-typed scenario fails model checking, which is exactly the failure
/// the engine's counterexample shrinker is exercised on.
#[derive(Debug, Clone)]
pub struct SharedMemCase {
    conversions: SharedMemConversions,
    broken: bool,
}

impl SharedMemCase {
    /// The system over the given rule set (the copy-convert ablation passes
    /// [`SharedMemConversions::with_ref_strategy`]).
    pub fn new(conversions: SharedMemConversions) -> Self {
        SharedMemCase {
            conversions,
            broken: false,
        }
    }

    /// The standard (sound) rule set.
    pub fn standard() -> Self {
        SharedMemCase::new(SharedMemConversions::standard())
    }

    /// The deliberately broken rule set (see the type-level docs).
    pub fn broken() -> Self {
        SharedMemCase {
            broken: true,
            ..SharedMemCase::standard()
        }
    }

    /// The conversion rule set in use.
    pub fn conversions(&self) -> &SharedMemConversions {
        &self.conversions
    }

    /// The claimed model type of a scenario, with the broken rule applied.
    fn claimed_sem_type(&self, ty: &SourceType) -> SemType {
        match ty {
            SourceType::Hl(HlType::Bool) if self.broken => SemType::Ll(LlType::array(LlType::Int)),
            SourceType::Hl(t) => SemType::Hl(t.clone()),
            SourceType::Ll(t) => SemType::Ll(t.clone()),
        }
    }
}

fn push_hl(out: &mut Vec<SmProgram>, e: &HlExpr) {
    out.push(SmProgram::Hl(e.clone()));
}

fn push_ll(out: &mut Vec<SmProgram>, e: &LlExpr) {
    out.push(SmProgram::Ll(e.clone()));
}

/// Immediate subterms of a RefHL expression, as candidate shrinks.
fn hl_children(e: &HlExpr, out: &mut Vec<SmProgram>) {
    match e {
        HlExpr::Unit | HlExpr::Bool(_) | HlExpr::Var(_) => {}
        HlExpr::Inl(a, _)
        | HlExpr::Inr(a, _)
        | HlExpr::Fst(a)
        | HlExpr::Snd(a)
        | HlExpr::Ref(a)
        | HlExpr::Deref(a)
        | HlExpr::Lam(_, _, a) => push_hl(out, a),
        HlExpr::Pair(a, b) | HlExpr::App(a, b) | HlExpr::Assign(a, b) => {
            push_hl(out, a);
            push_hl(out, b);
        }
        HlExpr::If(c, t, f) => {
            push_hl(out, c);
            push_hl(out, t);
            push_hl(out, f);
        }
        HlExpr::Match(s, _, l, _, r) => {
            push_hl(out, s);
            push_hl(out, l);
            push_hl(out, r);
        }
        HlExpr::Boundary(ll, _) => push_ll(out, ll),
    }
}

/// Immediate subterms of a RefLL expression, as candidate shrinks.
fn ll_children(e: &LlExpr, out: &mut Vec<SmProgram>) {
    match e {
        LlExpr::Int(_) | LlExpr::Var(_) => {}
        LlExpr::Array(es, _) => {
            for elem in es.iter() {
                push_ll(out, elem);
            }
        }
        LlExpr::Lam(_, _, a) | LlExpr::Ref(a) | LlExpr::Deref(a) => push_ll(out, a),
        LlExpr::Index(a, b) | LlExpr::App(a, b) | LlExpr::Add(a, b) | LlExpr::Assign(a, b) => {
            push_ll(out, a);
            push_ll(out, b);
        }
        LlExpr::If0(c, t, f) => {
            push_ll(out, c);
            push_ll(out, t);
            push_ll(out, f);
        }
        LlExpr::Boundary(hl, _) => push_hl(out, hl),
    }
}

impl CaseStudy for SharedMemCase {
    type Program = SmProgram;
    type Ty = SourceType;
    type Report = RunResult;
    type Compiled = Program;

    fn name(&self) -> &'static str {
        "sharedmem"
    }

    fn generate(&self, seed: u64, profile: &GenProfile) -> Scenario<SmProgram, SourceType> {
        let mut gen = ProgramGen::with_profile(seed, profile);
        // Every fourth scenario is RefLL-hosted so both directions of the
        // boundary get swept.
        if seed % 4 == 3 {
            let ty = gen.gen_ll_type(profile.type_depth);
            let program = gen.gen_ll(&ty);
            Scenario {
                seed,
                program: SmProgram::Ll(program),
                ty: SourceType::Ll(ty),
            }
        } else {
            let ty = gen.gen_goal_hl_type();
            let program = gen.gen_hl(&ty);
            Scenario {
                seed,
                program: SmProgram::Hl(program),
                ty: SourceType::Hl(ty),
            }
        }
    }

    fn typecheck(&self, program: &SmProgram) -> Result<SourceType, String> {
        let ctx = TypeCtx::empty();
        let convertible = |hl: &HlType, ll: &LlType| self.conversions.derivable(hl, ll);
        match program {
            SmProgram::Hl(e) => check_hl(&ctx, e, &convertible).map(SourceType::Hl),
            SmProgram::Ll(e) => check_ll(&ctx, e, &convertible).map(SourceType::Ll),
        }
        .map_err(|e| e.to_string())
    }

    fn compile(&self, program: &SmProgram) -> Result<Program, String> {
        let ctx = TypeCtx::empty();
        match program {
            SmProgram::Hl(e) => compile_hl(&ctx, e, &self.conversions),
            SmProgram::Ll(e) => compile_ll(&ctx, e, &self.conversions),
        }
        .map_err(|e| e.to_string())
    }

    fn execute(&self, compiled: Program, fuel: Fuel) -> RunResult {
        Machine::run_program(compiled, fuel)
    }

    /// One StackLang machine for the whole batch, reset between programs.
    fn execute_batch(&self, batch: Vec<Program>, fuel: Fuel) -> Vec<RunResult> {
        Machine::run_batch(batch, fuel)
    }

    fn stats(&self, report: &RunResult) -> RunStats {
        report.stats()
    }

    fn model_budget(&self) -> Fuel {
        Fuel::steps(SAFETY_STEPS)
    }

    /// The run's report decides both budgets the judgement asks about, the
    /// type-safety budget and the step index.
    fn model_judgement(
        &self,
        program: &SmProgram,
        ty: &SourceType,
        _compiled: &Program,
        run: &RunResult,
        fuel: Fuel,
    ) -> Result<(), CheckFailure> {
        // Theorems 3.3/3.4: no dynamic type errors (a run that outlasts the
        // budget is safe).
        if let Some(run) = run.rebudget(fuel, self.model_budget()).decide(run) {
            outcome_type_safe(&run.outcome).map_err(|failure| CheckFailure {
                witness: program.to_string(),
                ..failure
            })?;
        }

        // The Fundamental Property: the compiled program inhabits E⟦τ⟧ at
        // its claimed type (the *broken* rule set claims bool-typed programs
        // at [int], which is where the sabotage surfaces).  A run that
        // outlasts the step index is in the relation by its escape clause.
        let sem_ty = self.claimed_sem_type(ty);
        let world = World::new(STEP_INDEX);
        let within = run.rebudget(fuel, Fuel::steps(STEP_INDEX)).decide(run);
        if !within.is_none_or(|run| run_in(&world, run, &sem_ty)) {
            return Err(CheckFailure {
                claim: format!("compiled program ∈ E⟦{sem_ty}⟧"),
                witness: program.to_string(),
                reason: "run result is not in the expression relation".into(),
            });
        }
        Ok(())
    }

    fn shrink(&self, program: &SmProgram) -> Vec<SmProgram> {
        let mut out = Vec::new();
        match program {
            SmProgram::Hl(e) => hl_children(e, &mut out),
            SmProgram::Ll(e) => ll_children(e, &mut out),
        }
        out
    }

    fn measure(&self, program: &SmProgram) -> Size {
        match program {
            SmProgram::Hl(e) => e.measure(),
            SmProgram::Ll(e) => e.measure(),
        }
    }

    fn check_conversions(&self) -> Result<(), CheckFailure> {
        let hl_types = [
            HlType::Bool,
            HlType::Unit,
            HlType::ref_(HlType::Bool),
            HlType::sum(HlType::Bool, HlType::Bool),
            HlType::prod(HlType::Bool, HlType::Unit),
        ];
        let ll_types = [
            LlType::Int,
            LlType::ref_(LlType::Int),
            LlType::array(LlType::Int),
        ];
        let conversions = &self.conversions;
        for hl in &hl_types {
            for ll in &ll_types {
                if conversions.derivable(hl, ll) {
                    check_convertibility(conversions, hl, ll)?;
                }
            }
        }
        if self.broken {
            // The sabotaged rule: bool ∼ [int] with identity glue. Lemma 3.1
            // refutes it with a concrete witness.
            check_direction(
                &SemType::Hl(HlType::Bool),
                &SemType::Ll(LlType::array(LlType::Int)),
                &Program::empty(),
            )
            .map_err(|failure| CheckFailure {
                claim: format!("deliberately broken rule: {}", failure.claim),
                ..failure
            })?;
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
    use reflang::typecheck::TypeError;
    use semint_core::{ErrorCode, Outcome};
    use stacklang::Value;

    /// Type checks, compiles and runs `program` under the standard rules.
    fn run(program: SmProgram) -> RunResult {
        SharedMemCase::standard()
            .run(&program, Fuel::default())
            .unwrap()
    }

    #[test]
    fn scenarios_typecheck_at_their_claimed_type() {
        let case = SharedMemCase::standard();
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
    fn standard_catalogue_is_sound_and_broken_catalogue_is_refuted() {
        assert!(SharedMemCase::standard().check_conversions().is_ok());
        let err = SharedMemCase::broken().check_conversions().unwrap_err();
        assert!(
            err.claim.contains("broken"),
            "unexpected claim: {}",
            err.claim
        );
    }

    #[test]
    fn model_check_accepts_sound_scenarios() {
        let case = SharedMemCase::standard();
        let cfg = GenProfile::standard();
        for seed in 0..12 {
            let scen = case.generate(seed, &cfg);
            case.model_check(&scen.program, &scen.ty)
                .unwrap_or_else(|f| {
                    panic!("seed {seed}: {f}");
                });
        }
    }

    #[test]
    fn shrink_yields_immediate_subterms() {
        let case = SharedMemCase::standard();
        let p = SmProgram::Hl(HlExpr::if_(
            HlExpr::bool_(true),
            HlExpr::bool_(false),
            HlExpr::boundary(LlExpr::int(1), HlType::Bool),
        ));
        let shrinks = case.shrink(&p);
        assert_eq!(shrinks.len(), 3);
        assert!(shrinks
            .iter()
            .any(|s| matches!(s, SmProgram::Hl(HlExpr::Bool(true)))));
    }

    #[test]
    fn boundary_count_counts_boundaries() {
        let case = SharedMemCase::standard();
        let p = SmProgram::Hl(HlExpr::boundary(
            LlExpr::add(
                LlExpr::boundary(HlExpr::bool_(true), LlType::Int),
                LlExpr::int(0),
            ),
            HlType::Bool,
        ));
        assert_eq!(case.measure(&p).boundaries, 2);
    }

    #[test]
    fn boundary_free_programs_run_as_usual() {
        let e = HlExpr::if_(
            HlExpr::bool_(true),
            HlExpr::bool_(false),
            HlExpr::bool_(true),
        );
        let r = run(SmProgram::Hl(e));
        assert_eq!(r.outcome, Outcome::Value(Value::Num(1)));

        let e = LlExpr::add(LlExpr::int(40), LlExpr::int(2));
        let r = run(SmProgram::Ll(e));
        assert_eq!(r.outcome, Outcome::Value(Value::Num(2 + 40)));
    }

    #[test]
    fn refll_ints_flow_into_refhl_bools() {
        // if ⦇ 0 ⦈bool then false else true  ==> false is taken as 0 = true.
        let e = HlExpr::if_(
            HlExpr::boundary(LlExpr::int(0), HlType::Bool),
            HlExpr::bool_(false),
            HlExpr::bool_(true),
        );
        assert_eq!(run(SmProgram::Hl(e)).outcome, Outcome::Value(Value::Num(1)));

        // Any non-zero int behaves as false on the RefHL side.
        let e = HlExpr::if_(
            HlExpr::boundary(LlExpr::int(33), HlType::Bool),
            HlExpr::bool_(false),
            HlExpr::bool_(true),
        );
        assert_eq!(run(SmProgram::Hl(e)).outcome, Outcome::Value(Value::Num(0)));
    }

    #[test]
    fn refhl_bools_flow_into_refll_ints() {
        // ⦇ true ⦈int + 5  ==> 0 + 5 = 5.
        let e = LlExpr::add(
            LlExpr::boundary(HlExpr::bool_(true), LlType::Int),
            LlExpr::int(5),
        );
        assert_eq!(run(SmProgram::Ll(e)).outcome, Outcome::Value(Value::Num(5)));
    }

    #[test]
    fn shared_reference_aliases_across_the_boundary() {
        // A RefHL function writes through a reference it received from RefLL,
        // and RefLL observes the write through its own alias:
        //   let r = ref 1 in  (⦇ (λs:ref bool. s := false) ⦈(ref int → int)) r ; !r
        // written as a RefLL program.
        let hl_writer = HlExpr::lam(
            "s",
            HlType::ref_(HlType::Bool),
            HlExpr::boundary(
                LlExpr::boundary(
                    HlExpr::assign(HlExpr::var("s"), HlExpr::bool_(false)),
                    LlType::Int,
                ),
                HlType::Bool,
            ),
        );
        // Give the writer the RefLL type ref int → int via the function-free
        // route: apply it inside RefHL instead, but to a RefLL-created ref.
        // let r = ref 7 in ⦇ (λs. s := false) ⦇r⦈ref bool ⦈int + !r
        let program = LlExpr::app(
            LlExpr::lam(
                "r",
                LlType::ref_(LlType::Int),
                LlExpr::add(
                    LlExpr::boundary(
                        HlExpr::app(
                            hl_writer,
                            HlExpr::boundary(LlExpr::var("r"), HlType::ref_(HlType::Bool)),
                        ),
                        LlType::Int,
                    ),
                    LlExpr::deref(LlExpr::var("r")),
                ),
            ),
            LlExpr::ref_(LlExpr::int(7)),
        );
        let r = run(SmProgram::Ll(program));
        // The write of `false` (= 1) lands in the shared cell; the result is
        // the assignment's unit (0, converted to int) plus the new contents 1.
        assert_eq!(r.outcome, Outcome::Value(Value::Num(1)));
    }

    #[test]
    fn sums_cross_as_int_arrays_with_dynamic_checks() {
        let sum_ty = HlType::sum(HlType::Bool, HlType::Bool);
        // A well-formed array becomes a sum.
        let e = HlExpr::match_(
            HlExpr::boundary(
                LlExpr::array([LlExpr::int(1), LlExpr::int(0)], LlType::Int),
                sum_ty.clone(),
            ),
            "x",
            HlExpr::bool_(false),
            "y",
            HlExpr::var("y"),
        );
        assert_eq!(run(SmProgram::Hl(e)).outcome, Outcome::Value(Value::Num(0)));

        // A malformed tag produces the well-defined Conv failure.
        let e = HlExpr::match_(
            HlExpr::boundary(
                LlExpr::array([LlExpr::int(9), LlExpr::int(0)], LlType::Int),
                sum_ty,
            ),
            "x",
            HlExpr::bool_(false),
            "y",
            HlExpr::var("y"),
        );
        assert_eq!(
            run(SmProgram::Hl(e)).outcome,
            Outcome::Fail(ErrorCode::Conv)
        );
    }

    #[test]
    fn ill_typed_boundaries_are_rejected_statically() {
        // ref (bool+bool) ∼ ref [int] is not derivable under pointer sharing.
        let e = HlExpr::boundary(
            LlExpr::ref_(LlExpr::array([LlExpr::int(0)], LlType::Int)),
            HlType::ref_(HlType::sum(HlType::Bool, HlType::Bool)),
        );
        let case = SharedMemCase::standard();
        let rules = case.conversions();
        let err = check_hl(&TypeCtx::empty(), &e, &|h, l| rules.derivable(h, l)).unwrap_err();
        assert!(matches!(err, TypeError::NotConvertible { .. }));
        assert_eq!(
            case.run(&SmProgram::Hl(e), Fuel::default()).unwrap_err(),
            err.to_string()
        );
    }

    #[test]
    fn well_typed_multi_language_programs_never_fail_type() {
        // Theorem 3.3/3.4 smoke test over the crate's own examples.
        let programs: Vec<HlExpr> = vec![
            HlExpr::boundary(LlExpr::add(LlExpr::int(1), LlExpr::int(2)), HlType::Bool),
            HlExpr::pair(
                HlExpr::boundary(LlExpr::int(0), HlType::Bool),
                HlExpr::deref(HlExpr::ref_(HlExpr::bool_(true))),
            ),
            HlExpr::boundary(
                LlExpr::index(
                    LlExpr::array([LlExpr::int(3), LlExpr::int(4)], LlType::Int),
                    LlExpr::int(1),
                ),
                HlType::Bool,
            ),
        ];
        for e in programs {
            let r = run(SmProgram::Hl(e.clone()));
            assert!(r.outcome.is_safe(), "{e} produced {:?}", r.outcome);
        }
    }

    #[test]
    fn typecheck_reports_the_source_type() {
        let case = SharedMemCase::standard();
        let program = SmProgram::Hl(HlExpr::bool_(true));
        let ty = case.typecheck(&program).unwrap();
        assert_eq!(ty, SourceType::Hl(HlType::Bool));
        assert!(ty.to_string().contains("RefHL"));
        case.compile(&program).unwrap();
        let program = SmProgram::Ll(LlExpr::int(1));
        assert_eq!(
            case.typecheck(&program).unwrap(),
            SourceType::Ll(LlType::Int)
        );
        case.compile(&program).unwrap();
    }
}
