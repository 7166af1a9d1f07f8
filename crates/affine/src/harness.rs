//! The [`CaseStudy`] instance for case study 2 (affine ⊸ unrestricted
//! interoperability): the §4 multi-language system, consumed by the
//! `semint-harness` engine and by hand-written programs alike.

use crate::compile::{CompileOutput, Compiler};
use crate::convert::AffineConversions;
use crate::gen::AffineProgramGen;
use crate::model::{
    augmented_run, check_convertibility, halt_in, judge_safety, AffineSemType, CHECK_FUEL,
};
use crate::syntax::{AffiExpr, AffiType, MlExpr, MlType};
use crate::typecheck::{check_affi, check_ml, AffineCtx};
use lcvm::{Halt, Machine, RunResult};
use semint_core::case::{CaseStudy, CheckFailure, GenProfile, Scenario, Size};
use semint_core::convert::ConversionScheme;
use semint_core::stats::RunStats;
use semint_core::{Fuel, GlueCacheStats};
use std::fmt;

/// A closed §4 multi-language program, hosted in either language.
#[derive(Debug, Clone, PartialEq)]
pub enum AffProgram {
    /// An Affi-hosted program.
    Affi(AffiExpr),
    /// A MiniML-hosted program.
    Ml(MlExpr),
}

impl fmt::Display for AffProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffProgram::Affi(e) => write!(f, "{e}"),
            AffProgram::Ml(e) => write!(f, "{e}"),
        }
    }
}

/// A source type of either §4 language.
#[derive(Debug, Clone, PartialEq)]
pub enum AffSourceType {
    /// An Affi type.
    Affi(AffiType),
    /// A MiniML type.
    Ml(MlType),
}

impl fmt::Display for AffSourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffSourceType::Affi(t) => write!(f, "{t} (Affi)"),
            AffSourceType::Ml(t) => write!(f, "{t} (MiniML)"),
        }
    }
}

/// The §4 multi-language system: MiniML + Affi + the Fig. 9 conversions over
/// LCVM, run under the standard semantics.  Its stages type check and
/// compile with that one rule set.
///
/// The `broken` flag simulates an unsound extra rule `int ∼ bool` whose glue
/// forgets to normalise: `int`-typed scenarios are claimed at the boolean
/// relation, which only integers 0/1 inhabit, so most scenarios are refuted.
#[derive(Debug, Clone)]
pub struct AffineCase {
    conversions: AffineConversions,
    broken: bool,
}

impl AffineCase {
    /// The standard (sound) rule set.
    pub fn standard() -> Self {
        AffineCase {
            conversions: AffineConversions::standard(),
            broken: false,
        }
    }

    /// The deliberately broken claim (see the type-level docs).
    pub fn broken() -> Self {
        AffineCase {
            broken: true,
            ..AffineCase::standard()
        }
    }

    /// The conversion rule set in use.
    pub fn conversions(&self) -> &AffineConversions {
        &self.conversions
    }
}

/// What the §4 judgement needs besides the run stage's report.
#[derive(Debug, Clone)]
pub struct AffineEvidence {
    /// How the program halts under the augmented semantics, within the
    /// checker's fuel.
    augmented: Halt,
    /// How the checker's own standard run halted, when the sweep's fuel
    /// falls short of the checker's.
    own_run: Option<Halt>,
}

fn push_affi(out: &mut Vec<AffProgram>, e: &AffiExpr) {
    out.push(AffProgram::Affi(e.clone()));
}

fn push_ml(out: &mut Vec<AffProgram>, e: &MlExpr) {
    out.push(AffProgram::Ml(e.clone()));
}

/// Immediate subterms of an Affi expression, as candidate shrinks.
fn affi_children(e: &AffiExpr, out: &mut Vec<AffProgram>) {
    match e {
        AffiExpr::Unit
        | AffiExpr::Bool(_)
        | AffiExpr::Int(_)
        | AffiExpr::UVar(_)
        | AffiExpr::AVar(_, _) => {}
        AffiExpr::Lam(_, _, _, a) | AffiExpr::Bang(a) | AffiExpr::Proj1(a) | AffiExpr::Proj2(a) => {
            push_affi(out, a)
        }
        AffiExpr::App(a, b) | AffiExpr::WithPair(a, b) | AffiExpr::TensorPair(a, b) => {
            push_affi(out, a);
            push_affi(out, b);
        }
        AffiExpr::LetBang(_, a, b) | AffiExpr::LetTensor(_, _, a, b) => {
            push_affi(out, a);
            push_affi(out, b);
        }
        AffiExpr::Boundary(ml, _) => push_ml(out, ml),
    }
}

/// Immediate subterms of a MiniML expression, as candidate shrinks.
fn ml_children(e: &MlExpr, out: &mut Vec<AffProgram>) {
    match e {
        MlExpr::Unit | MlExpr::Int(_) | MlExpr::Var(_) => {}
        MlExpr::Fst(a)
        | MlExpr::Snd(a)
        | MlExpr::Inl(a, _)
        | MlExpr::Inr(a, _)
        | MlExpr::Lam(_, _, a)
        | MlExpr::Ref(a)
        | MlExpr::Deref(a) => push_ml(out, a),
        MlExpr::Pair(a, b) | MlExpr::App(a, b) | MlExpr::Assign(a, b) | MlExpr::Add(a, b) => {
            push_ml(out, a);
            push_ml(out, b);
        }
        MlExpr::Match(s, _, l, _, r) => {
            push_ml(out, s);
            push_ml(out, l);
            push_ml(out, r);
        }
        MlExpr::Boundary(affi, _) => push_affi(out, affi),
    }
}

impl CaseStudy for AffineCase {
    type Program = AffProgram;
    type Ty = AffSourceType;
    type Report = RunResult;
    type Compiled = CompileOutput;
    type Evidence = AffineEvidence;

    fn name(&self) -> &'static str {
        "affine"
    }

    fn generate(&self, seed: u64, profile: &GenProfile) -> Scenario<AffProgram, AffSourceType> {
        let mut gen = AffineProgramGen::with_profile(seed, profile);
        // Every fourth scenario is MiniML-hosted.
        if seed % 4 == 3 {
            let ty = gen.gen_ml_type(profile.type_depth);
            let program = gen.gen_ml(&ty);
            Scenario {
                seed,
                program: AffProgram::Ml(program),
                ty: AffSourceType::Ml(ty),
            }
        } else {
            let ty = gen.gen_goal_affi_type();
            let program = gen.gen_affi(&ty);
            Scenario {
                seed,
                program: AffProgram::Affi(program),
                ty: AffSourceType::Affi(ty),
            }
        }
    }

    fn typecheck(&self, program: &AffProgram) -> Result<AffSourceType, String> {
        let ctx = AffineCtx::empty();
        let convertible = |affi: &AffiType, ml: &MlType| self.conversions.derivable(affi, ml);
        match program {
            AffProgram::Affi(e) => {
                check_affi(&ctx, e, &convertible).map(|(t, _)| AffSourceType::Affi(t))
            }
            AffProgram::Ml(e) => check_ml(&ctx, e, &convertible).map(|(t, _)| AffSourceType::Ml(t)),
        }
        .map_err(|e| e.to_string())
    }

    fn compile(&self, program: &AffProgram) -> Result<CompileOutput, String> {
        let compiler = Compiler::new(&self.conversions);
        match program {
            AffProgram::Affi(e) => compiler.compile_affi_program(e),
            AffProgram::Ml(e) => compiler.compile_ml_program(e),
        }
        .map_err(|e| e.to_string())
    }

    fn execute(&self, compiled: CompileOutput, fuel: Fuel) -> RunResult {
        Machine::run_expr(compiled.expr, fuel)
    }

    /// One LCVM machine for the whole batch, reset between programs.
    fn execute_batch(&self, batch: Vec<CompileOutput>, fuel: Fuel) -> Vec<RunResult> {
        Machine::run_batch(batch.into_iter().map(|compiled| compiled.expr), fuel)
    }

    fn stats(&self, report: &RunResult) -> RunStats {
        report.stats()
    }

    fn model_budget(&self) -> Fuel {
        CHECK_FUEL
    }

    /// The augmented-semantics run, plus the checker's own standard run
    /// when the sweep's fuel falls short of the checker's.
    fn model_evidence(
        &self,
        _program: &AffProgram,
        _ty: &AffSourceType,
        compiled: &CompileOutput,
        fuel: Fuel,
    ) -> AffineEvidence {
        let budget = self.model_budget();
        AffineEvidence {
            augmented: augmented_run(&compiled.expr, &compiled.static_binders),
            own_run: (!fuel.covers(budget)).then(|| self.execute(compiled.clone(), budget).halt),
        }
    }

    fn model_judgement(
        &self,
        program: &AffProgram,
        ty: &AffSourceType,
        evidence: AffineEvidence,
        report: &RunResult,
        fuel: Fuel,
    ) -> Result<(), CheckFailure> {
        // How the standard run halts within the checker's fuel.
        let out_of_fuel = Halt::OutOfFuel;
        let standard = match &evidence.own_run {
            Some(halt) => halt,
            None => report
                .rebudget(fuel, self.model_budget())
                .decide(report)
                .map_or(&out_of_fuel, |run| &run.halt),
        };

        // Safety under the standard *and* the augmented semantics, plus
        // erasure agreement (the §4 analogue of type safety).
        judge_safety(standard, &evidence.augmented).map_err(|failure| CheckFailure {
            witness: program.to_string(),
            ..failure
        })?;

        // The claimed-type membership check, where the broken rule bites:
        // int-typed programs get claimed at the boolean relation.
        let claimed = match ty {
            AffSourceType::Affi(AffiType::Int) if self.broken => {
                Some(AffineSemType::Affi(AffiType::Bool))
            }
            AffSourceType::Ml(MlType::Int) if self.broken => {
                Some(AffineSemType::Affi(AffiType::Bool))
            }
            _ => None,
        };
        if let Some(sem_ty) = claimed {
            if !halt_in(standard, &sem_ty) {
                return Err(CheckFailure {
                    claim: format!("deliberately broken rule: compiled program ∈ E⟦{sem_ty:?}⟧"),
                    witness: program.to_string(),
                    reason: "run result is not in the expression relation".into(),
                });
            }
        }
        Ok(())
    }

    fn shrink(&self, program: &AffProgram) -> Vec<AffProgram> {
        let mut out = Vec::new();
        match program {
            AffProgram::Affi(e) => affi_children(e, &mut out),
            AffProgram::Ml(e) => ml_children(e, &mut out),
        }
        out
    }

    fn measure(&self, program: &AffProgram) -> Size {
        match program {
            AffProgram::Affi(e) => e.measure(),
            AffProgram::Ml(e) => e.measure(),
        }
    }

    fn check_conversions(&self) -> Result<(), CheckFailure> {
        let conversions = &self.conversions;
        let thunked_int = MlType::fun(MlType::Unit, MlType::Int);
        let catalogue = [
            (AffiType::Bool, MlType::Int),
            (AffiType::Int, MlType::Int),
            (AffiType::Unit, MlType::Unit),
            (
                AffiType::tensor(AffiType::Bool, AffiType::Int),
                MlType::prod(MlType::Int, MlType::Int),
            ),
            (AffiType::bang(AffiType::Bool), MlType::Int),
            (
                AffiType::lolli(AffiType::Int, AffiType::Int),
                MlType::fun(thunked_int, MlType::Int),
            ),
        ];
        for (affi, ml) in &catalogue {
            // Pairs without a registered rule are skipped, matching the
            // sharedmem catalogue walk.
            if conversions.derivable(affi, ml) {
                check_convertibility(conversions, affi, ml)?;
            }
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
    use crate::typecheck::AffineTypeError;
    use lcvm::{PhantomConfig, Value};
    use semint_core::ErrorCode;

    /// Type checks, compiles and runs `program` under the standard rules.
    fn run(program: AffProgram) -> RunResult {
        AffineCase::standard()
            .run(&program, Fuel::default())
            .unwrap()
    }

    /// Type checks and compiles `program`, as the engine's stages do.
    fn compiled(case: &AffineCase, program: AffProgram) -> CompileOutput {
        case.typecheck(&program).unwrap();
        case.compile(&program).unwrap()
    }

    /// Runs an artifact under the augmented (phantom-flag) semantics,
    /// protecting exactly the static binders the compiler reported.
    fn run_phantom(compiled: &CompileOutput) -> RunResult {
        Machine::run_phantom(
            compiled.expr.clone(),
            PhantomConfig::protecting(compiled.static_binders.iter().cloned()),
            Fuel::default(),
        )
    }

    fn ml_thunked_int_fun() -> MlType {
        MlType::fun(MlType::fun(MlType::Unit, MlType::Int), MlType::Int)
    }

    #[test]
    fn scenarios_typecheck_at_their_claimed_type() {
        let case = AffineCase::standard();
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
        let case = AffineCase::standard();
        let cfg = GenProfile::standard();
        for seed in 0..12 {
            let scen = case.generate(seed, &cfg);
            case.model_check(&scen.program, &scen.ty)
                .unwrap_or_else(|f| panic!("seed {seed}: {f}"));
        }
    }

    #[test]
    fn the_catalogue_derives_in_the_rule_set_the_case_compiles_with() {
        let case = AffineCase::standard();
        case.check_conversions()
            .expect("the standard catalogue is sound");
        let stats = case.glue_cache_stats().expect("a glue cache");
        assert!(stats.entries > 0, "no derivation reached the case's cache");
    }

    #[test]
    fn broken_claim_is_refuted_for_some_seed() {
        let case = AffineCase::broken();
        let cfg = GenProfile::standard();
        let refuted = (0..60).any(|seed| {
            let scen = case.generate(seed, &cfg);
            case.model_check(&scen.program, &scen.ty).is_err()
        });
        assert!(
            refuted,
            "no seed in 0..60 refuted the broken int ∼ bool claim"
        );
    }

    #[test]
    fn shrink_yields_immediate_subterms() {
        let case = AffineCase::standard();
        let p = AffProgram::Affi(AffiExpr::app(
            AffiExpr::lam("x", AffiType::Int, AffiExpr::avar("x")),
            AffiExpr::int(3),
        ));
        assert_eq!(case.shrink(&p).len(), 2);
    }

    #[test]
    fn affi_arithmetic_crosses_into_miniml() {
        // 1 + ⦇ if-free Affi: (λa◦:int. a) 41 ⦈int
        let affi = AffiExpr::app(
            AffiExpr::lam("a", AffiType::Int, AffiExpr::avar("a")),
            AffiExpr::int(41),
        );
        let e = MlExpr::add(MlExpr::int(1), MlExpr::boundary(affi, MlType::Int));
        let r = run(AffProgram::Ml(e));
        assert_eq!(r.halt, Halt::Value(Value::Int(42)));
    }

    #[test]
    fn miniml_ints_cross_into_affi_as_booleans() {
        // Affi: if-style use of a MiniML int via bool ∼ int.
        let e = AffiExpr::boundary(MlExpr::int(7), AffiType::Bool);
        let r = run(AffProgram::Affi(e));
        // 7 collapses to the canonical false (1).
        assert_eq!(r.halt, Halt::Value(Value::Int(1)));
    }

    #[test]
    fn affine_function_passed_to_miniml_and_called_once() {
        // let f = ⦇ λa◦:int. a ⦈((unit→int)→int) in f (λ_:unit. 9)
        let affi_fun = AffiExpr::lam("a", AffiType::Int, AffiExpr::avar("a"));
        let e = MlExpr::app(
            MlExpr::boundary(affi_fun, ml_thunked_int_fun()),
            MlExpr::lam("_", MlType::Unit, MlExpr::int(9)),
        );
        assert_eq!(run(AffProgram::Ml(e)).halt, Halt::Value(Value::Int(9)));
    }

    #[test]
    fn miniml_function_that_double_forces_fails_conv_when_used_from_affi() {
        // MiniML gives Affi a function that forces its thunk twice; using it
        // from Affi on an affine argument trips the dynamic guard.
        let rude_ml = MlExpr::lam(
            "t",
            MlType::fun(MlType::Unit, MlType::Int),
            MlExpr::add(
                MlExpr::app(MlExpr::var("t"), MlExpr::unit()),
                MlExpr::app(MlExpr::var("t"), MlExpr::unit()),
            ),
        );
        // Affi: (⦇rude⦈(int ⊸ int)) 21
        let e = AffiExpr::app(
            AffiExpr::boundary(rude_ml, AffiType::lolli(AffiType::Int, AffiType::Int)),
            AffiExpr::int(21),
        );
        let r = run(AffProgram::Affi(e));
        assert_eq!(r.halt, Halt::Fail(ErrorCode::Conv));

        // The polite variant succeeds.
        let polite_ml = MlExpr::lam(
            "t",
            MlType::fun(MlType::Unit, MlType::Int),
            MlExpr::add(
                MlExpr::app(MlExpr::var("t"), MlExpr::unit()),
                MlExpr::int(1),
            ),
        );
        let e = AffiExpr::app(
            AffiExpr::boundary(polite_ml, AffiType::lolli(AffiType::Int, AffiType::Int)),
            AffiExpr::int(21),
        );
        assert_eq!(run(AffProgram::Affi(e)).halt, Halt::Value(Value::Int(22)));
    }

    #[test]
    fn static_arrows_cannot_cross_the_boundary() {
        let affi_fun = AffiExpr::lam_static("a", AffiType::Int, AffiExpr::avar_static("a"));
        let e = MlExpr::boundary(affi_fun, ml_thunked_int_fun());
        let case = AffineCase::standard();
        let rules = case.conversions();
        assert!(matches!(
            check_ml(&AffineCtx::empty(), &e, &|a, m| rules.derivable(a, m)),
            Err(AffineTypeError::NotConvertible { .. })
        ));
        assert!(case.run(&AffProgram::Ml(e), Fuel::default()).is_err());
    }

    #[test]
    fn phantom_run_agrees_with_standard_run_on_well_typed_programs() {
        // A well-typed program with static affine structure: the augmented
        // semantics must agree with the standard one (erasure property) and
        // must not get stuck (Fundamental Property for Affi).
        let e = AffiExpr::let_tensor(
            "x",
            "y",
            AffiExpr::tensor(AffiExpr::int(20), AffiExpr::int(22)),
            AffiExpr::boundary(
                MlExpr::add(
                    MlExpr::boundary(AffiExpr::avar_static("x"), MlType::Int),
                    MlExpr::boundary(AffiExpr::avar_static("y"), MlType::Int),
                ),
                AffiType::Int,
            ),
        );
        let case = AffineCase::standard();
        // This program moves static variables through a MiniML boundary, so
        // the type checker must reject it (no•(Ωe)).
        let rules = case.conversions();
        assert!(check_affi(&AffineCtx::empty(), &e, &|a, m| rules.derivable(a, m)).is_err());

        // A fully Affi-internal use of static resources is fine and the two
        // semantics agree.
        let ok = AffiExpr::let_tensor(
            "x",
            "y",
            AffiExpr::tensor(AffiExpr::int(20), AffiExpr::int(22)),
            AffiExpr::app(
                AffiExpr::lam_static("z", AffiType::Int, AffiExpr::avar_static("z")),
                AffiExpr::avar_static("x"),
            ),
        );
        let compiled = compiled(&case, AffProgram::Affi(ok));
        assert_eq!(compiled.static_binders.len(), 3);
        let phantom = run_phantom(&compiled);
        let standard = case.execute(compiled, Fuel::default());
        assert_eq!(standard.halt, Halt::Value(Value::Int(20)));
        assert_eq!(phantom.halt, Halt::Value(Value::Int(20)));
        assert!(phantom.flags_consumed >= 1);
    }

    #[test]
    fn well_typed_programs_are_safe_under_both_semantics() {
        let case = AffineCase::standard();
        let programs: Vec<AffiExpr> = vec![
            AffiExpr::app(
                AffiExpr::lam("a", AffiType::Int, AffiExpr::avar("a")),
                AffiExpr::boundary(MlExpr::add(MlExpr::int(2), MlExpr::int(3)), AffiType::Int),
            ),
            AffiExpr::let_tensor(
                "p",
                "q",
                AffiExpr::tensor(AffiExpr::bool_(true), AffiExpr::int(3)),
                AffiExpr::avar_static("q"),
            ),
            AffiExpr::proj1(AffiExpr::with_pair(AffiExpr::int(1), AffiExpr::int(2))),
            AffiExpr::let_bang("u", AffiExpr::bang(AffiExpr::int(8)), AffiExpr::uvar("u")),
        ];
        for e in programs {
            let compiled = compiled(&case, AffProgram::Affi(e.clone()));
            assert!(
                run_phantom(&compiled).halt.is_safe(),
                "phantom run unsafe for {e}"
            );
            assert!(
                case.execute(compiled, Fuel::default()).halt.is_safe(),
                "standard run unsafe for {e}"
            );
        }
    }
}
