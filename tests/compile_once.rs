//! Integration tests for the artifact-carrying scenario pipeline (PR 4):
//!
//! * a counting test-double proves a timed, model-checked sweep performs
//!   **exactly one** typecheck, **exactly one** compile and **exactly one**
//!   execution per scenario — the artifact built by the compile stage is
//!   borrowed by the model check's evidence and consumed by execution, whose
//!   report the model check judges; nothing is rebuilt or rerun;
//! * sweep digests under the artifact-threaded pipeline are byte-identical
//!   to a reference runner that recompiles per stage (the pre-PR shape:
//!   run recompiles, model check recompiles, `--time` adds a dedicated
//!   compile), across all three case studies, all four [`GenProfile`]
//!   presets, and every model-check × time flag combination — a perf-only
//!   change: same scenarios, same outcomes, fewer redundant stages.

use proptest::prelude::*;
use semint::harness::cases::{AnyCase, AnyCompiled, AnyEvidence, AnyProgram, AnyReport, AnyTy};
use semint::harness::engine::{run_scenario, sweep_case, SweepConfig};
use semint::harness::source::SeedRange;
use semint::harness::CaseStudy;
use semint_core::case::{CheckFailure, GenProfile, Scenario};
use semint_core::stats::{CaseReport, FailStage, FailureRecord, RunStats, ScenarioRecord};
use semint_core::Fuel;
use std::sync::atomic::{AtomicUsize, Ordering};

// ---------------------------------------------------------------------------
// The counting test-double: a real case study with stage odometers.

struct CountingCase {
    inner: AnyCase,
    typechecks: AtomicUsize,
    compiles: AtomicUsize,
    executes: AtomicUsize,
    evidence: AtomicUsize,
    model_checks: AtomicUsize,
}

impl CountingCase {
    fn new(inner: AnyCase) -> Self {
        CountingCase {
            inner,
            typechecks: AtomicUsize::new(0),
            compiles: AtomicUsize::new(0),
            executes: AtomicUsize::new(0),
            evidence: AtomicUsize::new(0),
            model_checks: AtomicUsize::new(0),
        }
    }

    /// Typechecks, compiles, executions, model-check evidence gathered and
    /// model-check judgements.
    fn counts(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.typechecks.load(Ordering::SeqCst),
            self.compiles.load(Ordering::SeqCst),
            self.executes.load(Ordering::SeqCst),
            self.evidence.load(Ordering::SeqCst),
            self.model_checks.load(Ordering::SeqCst),
        )
    }
}

impl CaseStudy for CountingCase {
    type Program = AnyProgram;
    type Ty = AnyTy;
    type Report = AnyReport;
    type Compiled = AnyCompiled;
    type Evidence = AnyEvidence;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn generate(&self, seed: u64, profile: &GenProfile) -> Scenario<AnyProgram, AnyTy> {
        self.inner.generate(seed, profile)
    }

    fn typecheck(&self, program: &AnyProgram) -> Result<AnyTy, String> {
        self.typechecks.fetch_add(1, Ordering::SeqCst);
        self.inner.typecheck(program)
    }

    fn compile(&self, program: &AnyProgram) -> Result<AnyCompiled, String> {
        self.compiles.fetch_add(1, Ordering::SeqCst);
        self.inner.compile(program)
    }

    fn execute(&self, compiled: AnyCompiled, fuel: Fuel) -> AnyReport {
        self.executes.fetch_add(1, Ordering::SeqCst);
        self.inner.execute(compiled, fuel)
    }

    fn stats(&self, report: &AnyReport) -> RunStats {
        self.inner.stats(report)
    }

    fn model_budget(&self) -> Fuel {
        self.inner.model_budget()
    }

    fn model_evidence(
        &self,
        program: &AnyProgram,
        ty: &AnyTy,
        compiled: &AnyCompiled,
        fuel: Fuel,
    ) -> AnyEvidence {
        self.evidence.fetch_add(1, Ordering::SeqCst);
        self.inner.model_evidence(program, ty, compiled, fuel)
    }

    fn model_judgement(
        &self,
        program: &AnyProgram,
        ty: &AnyTy,
        evidence: AnyEvidence,
        report: &AnyReport,
        fuel: Fuel,
    ) -> Result<(), CheckFailure> {
        self.model_checks.fetch_add(1, Ordering::SeqCst);
        self.inner
            .model_judgement(program, ty, evidence, report, fuel)
    }

    fn shrink(&self, program: &AnyProgram) -> Vec<AnyProgram> {
        self.inner.shrink(program)
    }

    fn boundary_count(&self, program: &AnyProgram) -> usize {
        self.inner.boundary_count(program)
    }

    fn program_chars(&self, program: &AnyProgram) -> usize {
        self.inner.program_chars(program)
    }
}

#[test]
fn timed_model_checked_sweep_typechecks_once_and_compiles_once_per_scenario() {
    for name in ["sharedmem", "affine", "memgc"] {
        let case = CountingCase::new(AnyCase::by_name(name, false).expect("known case"));
        let cfg = SweepConfig {
            jobs: 1,
            profile: GenProfile::standard(),
            model_check: true,
            time: true,
            ..SweepConfig::default()
        };
        const SEEDS: usize = 25;
        for seed in 0..SEEDS as u64 {
            let record = run_scenario(&case, seed, &cfg);
            assert!(record.failure.is_none(), "{name} seed {seed} failed");
        }
        let (typechecks, compiles, executes, evidence, model_checks) = case.counts();
        assert_eq!(typechecks, SEEDS, "{name}: one typecheck per scenario");
        assert_eq!(compiles, SEEDS, "{name}: one compile per scenario");
        assert_eq!(executes, SEEDS, "{name}: one execution per scenario");
        assert_eq!(
            evidence, SEEDS,
            "{name}: one model-check evidence per scenario"
        );
        assert_eq!(model_checks, SEEDS, "{name}: one model check per scenario");
    }
}

#[test]
fn untimed_sweep_also_compiles_exactly_once_and_skipped_model_check_stays_skipped() {
    let case = CountingCase::new(AnyCase::by_name("memgc", false).expect("known case"));
    let cfg = SweepConfig {
        jobs: 1,
        profile: GenProfile::standard(),
        model_check: false,
        time: false,
        ..SweepConfig::default()
    };
    for seed in 0..10u64 {
        let record = run_scenario(&case, seed, &cfg);
        assert!(record.failure.is_none(), "seed {seed} failed");
    }
    let (typechecks, compiles, executes, evidence, model_checks) = case.counts();
    assert_eq!((typechecks, compiles, executes), (10, 10, 10));
    assert_eq!(
        (evidence, model_checks),
        (0, 0),
        "--no-model-check must not pay for the stage"
    );
}

// ---------------------------------------------------------------------------
// The reference runner: a per-stage-recompile pipeline built on the same
// public trait (its run stage and `model_check` compile their own).

fn recompiling_record(case: &AnyCase, seed: u64, cfg: &SweepConfig) -> ScenarioRecord {
    let scenario = case.generate(seed, &cfg.profile);
    let rendered = scenario.program.to_string();
    let mut record = ScenarioRecord {
        seed,
        ty: scenario.ty.to_string(),
        program_chars: rendered.chars().count(),
        boundaries: case.boundary_count(&scenario.program),
        stats: None,
        failure: None,
        timings: None,
    };
    let plain_failure = |stage: FailStage, reason: String| FailureRecord {
        seed,
        stage,
        reason,
        witness: rendered.clone(),
        shrunk: rendered.clone(),
        shrink_steps: 0,
    };

    // Stage 1: typecheck.
    match case.typecheck(&scenario.program) {
        Ok(checked) if checked == scenario.ty => {}
        Ok(checked) => {
            record.failure = Some(plain_failure(
                FailStage::Typecheck,
                format!("claimed {}, checked {}", scenario.ty, checked),
            ));
            return record;
        }
        Err(err) => {
            record.failure = Some(plain_failure(FailStage::Typecheck, err));
            return record;
        }
    }

    // The old timed pipeline's dedicated compile stage (its artifact was
    // dropped on the floor; the run below compiled again).
    if cfg.time {
        if let Err(err) = case.compile(&scenario.program) {
            record.failure = Some(plain_failure(FailStage::Compile, err));
            return record;
        }
    }

    // Run, compiling again.
    let compiled = match case.compile(&scenario.program) {
        Ok(compiled) => compiled,
        Err(err) => {
            record.failure = Some(plain_failure(FailStage::Compile, err));
            return record;
        }
    };
    let stats = case.stats(&case.execute(compiled, cfg.profile.fuel));
    record.stats = Some(stats);
    if !stats.outcome.is_safe() {
        record.failure = Some(plain_failure(
            FailStage::Run,
            format!("unsafe outcome {}", stats.outcome),
        ));
        return record;
    }

    // Model check, compiling yet again.
    if cfg.model_check {
        if let Err(check) = case.model_check(&scenario.program, &scenario.ty) {
            record.failure = Some(plain_failure(FailStage::ModelCheck, check.to_string()));
        }
    }
    record
}

fn recompiling_digest(case: &AnyCase, start: u64, len: u64, cfg: &SweepConfig) -> String {
    let mut report = CaseReport::new(case.name());
    for seed in start..start + len {
        report.absorb(&recompiling_record(case, seed, cfg));
    }
    report.digest()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole's perf-only guarantee: for every case study, every
    /// preset, and every model-check × time combination, the artifact-
    /// threaded engine produces byte-identical digests to the reference
    /// runner that recompiles per stage.
    #[test]
    fn artifact_threaded_digests_equal_per_stage_recompilation(start in 0u64..2_000) {
        const LEN: u64 = 6;
        for profile in GenProfile::presets() {
            for model_check in [false, true] {
                for time in [false, true] {
                    let cfg = SweepConfig { jobs: 2, profile, model_check, time, ..SweepConfig::default() };
                    let source = SeedRange::new(start, start + LEN).expect("non-empty");
                    for case in AnyCase::all(false) {
                        let threaded = sweep_case(&case, &source, &cfg).digest();
                        let reference = recompiling_digest(&case, start, LEN, &cfg);
                        prop_assert_eq!(
                            &threaded,
                            &reference,
                            "{} profile={} model_check={} time={}",
                            case.name(),
                            profile.name,
                            model_check,
                            time
                        );
                    }
                }
            }
        }
    }
}
