//! The [`CaseStudy`] instance for case study 1 (shared-memory
//! interoperability), consumed by the `semint-harness` engine.

use crate::convert::SharedMemConversions;
use crate::gen::ProgramGen;
use crate::model::{
    check_convertibility, check_direction, outcome_type_safe, run_in, SemType, World,
};
use crate::multilang::{MultiLang, SourceType};
use reflang::syntax::{HlExpr, HlType, LlExpr, LlType};
use semint_core::case::{CaseStudy, CheckFailure, GenProfile, Scenario};
use semint_core::convert::ConversionScheme;
use semint_core::stats::RunStats;
use semint_core::{Fuel, GlueCacheStats};
use stacklang::{Program, RunResult};

pub use crate::multilang::SmProgram;

/// The step budget of the type-safety check (Theorems 3.3/3.4).
pub const SAFETY_STEPS: u64 = 200_000;

/// The step index `W.k` at which the compiled program must inhabit `E⟦τ⟧`.
pub const STEP_INDEX: u64 = 20_000;

/// Case study 1 packaged for the harness engine.
///
/// The `broken` flag simulates a designer error: an extra convertibility
/// rule `bool ∼ [int]` whose glue is the identity.  The rule is unsound —
/// booleans compile to bare integers, which are not array values — so every
/// `bool`-typed scenario fails model checking, which is exactly the failure
/// the engine's counterexample shrinker is exercised on.
#[derive(Debug, Clone)]
pub struct SharedMemCase {
    system: MultiLang,
    broken: bool,
}

impl SharedMemCase {
    /// The standard (sound) rule set.
    pub fn standard() -> Self {
        SharedMemCase {
            system: MultiLang::new(SharedMemConversions::standard()),
            broken: false,
        }
    }

    /// The deliberately broken rule set (see the type-level docs).
    pub fn broken() -> Self {
        SharedMemCase {
            broken: true,
            ..SharedMemCase::standard()
        }
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

impl Default for SharedMemCase {
    fn default() -> Self {
        SharedMemCase::standard()
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
    /// The checker's own run, when the sweep's fuel falls short of
    /// [`SAFETY_STEPS`].
    type Evidence = Option<Box<RunResult>>;

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
        self.system.typecheck(program).map_err(|e| e.to_string())
    }

    fn compile(&self, program: &SmProgram) -> Result<Program, String> {
        self.system.compile_only(program).map_err(|e| e.to_string())
    }

    fn execute(&self, compiled: Program, fuel: Fuel) -> RunResult {
        self.system.execute(compiled, fuel)
    }

    fn execute_batch(&self, batch: Vec<Program>, fuel: Fuel) -> Vec<RunResult> {
        self.system.execute_batch(batch, fuel)
    }

    fn stats(&self, report: &RunResult) -> RunStats {
        report.stats()
    }

    fn model_budget(&self) -> Fuel {
        Fuel::steps(SAFETY_STEPS)
    }

    /// The run stage's report decides both budgets the judgement asks
    /// about, unless the sweep's fuel falls short of the type-safety
    /// budget; then the checker runs a copy of its own.
    fn model_evidence(
        &self,
        _program: &SmProgram,
        _ty: &SourceType,
        compiled: &Program,
        fuel: Fuel,
    ) -> Option<Box<RunResult>> {
        let budget = self.model_budget();
        (!fuel.covers(budget)).then(|| Box::new(self.execute(compiled.clone(), budget)))
    }

    fn model_judgement(
        &self,
        program: &SmProgram,
        ty: &SourceType,
        own_run: Option<Box<RunResult>>,
        report: &RunResult,
        fuel: Fuel,
    ) -> Result<(), CheckFailure> {
        let (run, fuel) = match own_run.as_deref() {
            Some(own) => (own, self.model_budget()),
            None => (report, fuel),
        };

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

    fn boundary_count(&self, program: &SmProgram) -> usize {
        match program {
            SmProgram::Hl(e) => e.boundary_count(),
            SmProgram::Ll(e) => e.boundary_count(),
        }
    }

    fn program_chars(&self, program: &SmProgram) -> usize {
        match program {
            SmProgram::Hl(e) => e.rendered_chars(),
            SmProgram::Ll(e) => e.rendered_chars(),
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
        let conversions = self.system.conversions();
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
        Some(self.system.conversions().cache().stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(case.boundary_count(&p), 2);
    }
}
