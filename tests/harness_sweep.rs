//! Integration tests for the unified scenario engine: a fixed-seed sweep
//! over all three case studies must be deterministic (same seeds → same
//! report, for any thread count) and clean (zero model-check failures), and
//! a deliberately broken conversion must be reported with a shrunk
//! counterexample.

use semint::harness::cases::AnyCase;
use semint::harness::engine::{run_scenario, sweep_all, sweep_case, SweepConfig};
use semint::harness::report::render_sweep;
use semint::harness::source::SeedRange;
use semint::harness::CaseStudy;
use semint_core::stats::{FailStage, SweepReport};

fn fixed_source() -> SeedRange {
    SeedRange::new(0, 60).expect("well-formed")
}

fn fixed_config(jobs: usize) -> SweepConfig {
    SweepConfig {
        jobs,
        ..SweepConfig::default()
    }
}

#[test]
fn fixed_seed_sweep_covers_all_cases_with_zero_failures() {
    let report = sweep_all(&AnyCase::all(false), &fixed_source(), &fixed_config(4));
    assert_eq!(report.cases.len(), 3);
    let names: Vec<&str> = report.cases.iter().map(|c| c.case.as_str()).collect();
    assert_eq!(names, ["sharedmem", "affine", "memgc"]);
    for case in &report.cases {
        assert_eq!(case.scenarios, 60, "{}", case.case);
        assert!(
            case.is_clean(),
            "{} failures: {:?}",
            case.case,
            case.failures
        );
        // Every scenario ran: the histogram accounts for all of them.
        let runs: u64 = case.outcome_histogram.values().sum();
        assert_eq!(runs, 60, "{}", case.case);
        // All outcomes are safe classes (unsafe ones become failures).
        for label in case.outcome_histogram.keys() {
            assert!(
                label == "value" || label == "out-of-fuel" || label.starts_with("fail-"),
                "{label}"
            );
            assert_ne!(label, "fail-Type", "{}", case.case);
        }
        // Boundaries were actually exercised.
        assert!(
            case.total_boundaries > 0,
            "{} swept no boundaries",
            case.case
        );
    }
}

#[test]
fn sweep_is_deterministic_across_runs_and_thread_counts() {
    let digests = |jobs: usize| -> Vec<String> {
        sweep_all(&AnyCase::all(false), &fixed_source(), &fixed_config(jobs))
            .cases
            .iter()
            .map(|c| c.digest())
            .collect()
    };
    let base = digests(4);
    assert_eq!(base, digests(4), "same configuration must reproduce");
    assert_eq!(base, digests(1), "single-threaded sweep must agree");
    assert_eq!(base, digests(9), "oversubscribed sweep must agree");
}

#[test]
fn single_case_sweep_agrees_with_the_combined_sweep() {
    let combined = sweep_all(&AnyCase::all(false), &fixed_source(), &fixed_config(3));
    for case in AnyCase::all(false) {
        let solo = sweep_case(&case, &fixed_source(), &fixed_config(2));
        let from_combined = combined
            .cases
            .iter()
            .find(|c| c.case == case.name())
            .expect("case present");
        assert_eq!(solo.digest(), from_combined.digest());
    }
}

#[test]
fn broken_conversion_is_reported_with_a_shrunk_counterexample() {
    let report = sweep_all(&AnyCase::all(true), &fixed_source(), &fixed_config(4));
    let sharedmem = &report.cases[0];
    assert!(
        !sharedmem.failures.is_empty(),
        "the broken bool ∼ [int] rule must be caught by the model check"
    );
    for failure in &sharedmem.failures {
        assert_eq!(failure.stage, FailStage::ModelCheck);
        assert!(!failure.shrunk.is_empty());
        assert!(
            failure.shrunk.chars().count() <= failure.witness.chars().count(),
            "shrunk witness must not grow: {} vs {}",
            failure.shrunk,
            failure.witness
        );
    }
    // At least one counterexample shrinks to a strict subterm.
    assert!(
        sharedmem.failures.iter().any(|f| f.shrink_steps > 0),
        "no counterexample shrank: {:?}",
        sharedmem.failures
    );
    // The catalogue-level check (Lemma 3.1) also refutes the broken rule.
    let broken_case = AnyCase::by_name("sharedmem", true).expect("known case");
    let err = broken_case
        .check_conversions()
        .expect_err("broken rule must be refuted");
    assert!(err.claim.contains("broken"), "{}", err.claim);
}

#[test]
fn sweeps_reuse_glue_through_the_shared_cache() {
    let cases = AnyCase::all(false);
    let report = sweep_all(&cases, &fixed_source(), &fixed_config(4));
    for case in &report.cases {
        assert!(
            case.glue_hits > 0,
            "{}: repeated boundary crossings must hit the glue cache \
             (hits {}, misses {})",
            case.case,
            case.glue_hits,
            case.glue_misses
        );
        assert!(
            case.glue_misses > 0,
            "{}: a cold cache must record the first derivations",
            case.case
        );
        assert!(
            case.glue_hits > case.glue_misses,
            "{}: the cache should answer most lookups after warm-up \
             (hits {}, misses {})",
            case.case,
            case.glue_hits,
            case.glue_misses
        );
    }
    // A second sweep over the same cases re-uses the warm cache: no new
    // derivations at all.
    let again = sweep_all(&cases, &fixed_source(), &fixed_config(4));
    for case in &again.cases {
        assert_eq!(
            case.glue_misses, 0,
            "{}: warm-cache sweep must not re-derive anything",
            case.case
        );
    }
    // The counters survive the save/report round trip and are rendered.
    let parsed = SweepReport::from_tsv(&report.to_tsv()).expect("tsv round trip");
    for (orig, parsed) in report.cases.iter().zip(&parsed.cases) {
        assert_eq!(orig.glue_hits, parsed.glue_hits);
        assert_eq!(orig.glue_misses, parsed.glue_misses);
    }
    assert!(render_sweep(&parsed).contains("glue cache"));
}

#[test]
fn timed_sweep_reports_per_stage_wall_clock() {
    let cfg = SweepConfig {
        time: true,
        ..fixed_config(2)
    };
    let report = sweep_all(&AnyCase::all(false), &fixed_source(), &cfg);
    for case in &report.cases {
        let timings = case.timings.expect("--time collects stage totals");
        assert!(timings.run_ns > 0, "{}", case.case);
        assert!(timings.compile_ns > 0, "{}", case.case);
        assert!(timings.model_check_ns > 0, "{}", case.case);
        assert!(timings.total_ns() >= timings.run_ns, "{}", case.case);
    }
    // Timed and untimed sweeps agree on everything the digest covers.
    let untimed = sweep_all(&AnyCase::all(false), &fixed_source(), &fixed_config(2));
    let digests = |r: &SweepReport| r.cases.iter().map(|c| c.digest()).collect::<Vec<_>>();
    assert_eq!(digests(&report), digests(&untimed));
}

#[test]
fn run_scenario_records_the_pipeline_outcome() {
    let case = AnyCase::by_name("memgc", false).expect("known case");
    let cfg = fixed_config(1);
    for seed in 0..10 {
        let record = run_scenario(&case, seed, &cfg);
        assert_eq!(record.seed, seed);
        assert!(
            record.failure.is_none(),
            "seed {seed}: {:?}",
            record.failure
        );
        let stats = record.stats.expect("pipeline reached the run stage");
        assert!(stats.outcome.is_safe());
        assert!(record.program_chars > 0);
    }
}
