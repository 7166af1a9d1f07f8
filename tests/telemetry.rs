//! Integration tests for deterministic telemetry:
//!
//! * observation and timing are strictly observational — an observed,
//!   timed sweep's per-case digests, counters and hottest seeds are
//!   byte-identical to a plain sweep's, across all three case studies and
//!   all four [`GenProfile`] presets;
//! * the [`VmCounters`] and hottest seeds are digest-grade facts:
//!   byte-identical across every `--jobs` × `--batch` combination, and they
//!   survive the shard-merge path ([`CaseReport::merge`]) exactly;
//! * a timed sweep's `--save` TSV round-trips, and `semint report` renders
//!   from it the time per layer: stage shares, run ns per retired
//!   instruction and the hottest seeds.

use semint::core::case::GenProfile;
use semint::core::stats::{CaseReport, SweepReport};
use semint::core::VmCounters;
use semint::harness::cases::AnyCase;
use semint::harness::engine::{sweep_all, sweep_all_observed, sweep_case, SweepConfig};
use semint::harness::observe::SweepObserver;
use semint::harness::report::render_sweep;
use semint::harness::source::{SeedRange, Shard};

fn cfg(jobs: usize, batch: usize, profile: GenProfile) -> SweepConfig {
    SweepConfig {
        jobs,
        profile,
        model_check: true,
        time: false,
        batch,
    }
}

// ---------------------------------------------------------------------------
// Telemetry on ≡ telemetry off.

/// The headline guarantee: observing a sweep (as `--progress` does) and
/// timing it changes no digest, counter or hottest seed, for every case
/// study and every generation preset.
#[test]
fn traced_sweeps_produce_byte_identical_digests() {
    let source = SeedRange::new(0, 24).expect("non-empty");
    let cases = AnyCase::all(false);
    for profile in GenProfile::presets() {
        let plain = sweep_all(&cases, &source, &cfg(2, 4, profile));
        let observer = SweepObserver::new(72, false);
        let timed_cfg = SweepConfig {
            time: true,
            ..cfg(2, 4, profile)
        };
        let observed = sweep_all_observed(&cases, &source, &timed_cfg, Some(&observer));
        observer.finish();
        for (a, b) in plain.cases.iter().zip(&observed.cases) {
            assert_eq!(
                a.digest(),
                b.digest(),
                "case {} profile {}: observing changed the digest",
                a.case,
                profile.name
            );
            assert_eq!(
                a.counters, b.counters,
                "case {} profile {}: observing changed the counters",
                a.case, profile.name
            );
            assert_eq!(
                a.hottest, b.hottest,
                "case {} profile {}: observing changed the hottest seeds",
                a.case, profile.name
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Counter determinism across scheduling knobs.

/// Counters are identical across every jobs × batch combination — the
/// aggregation rules (counts add, peaks max) are commutative and
/// associative, so scheduling cannot be observed.
#[test]
fn counters_are_identical_across_jobs_and_batch() {
    let source = SeedRange::new(0, 30).expect("non-empty");
    let cases = AnyCase::all(false);
    let reference = sweep_all(&cases, &source, &cfg(1, 1, GenProfile::standard()));
    assert!(
        reference.cases.iter().any(|c| !c.counters.is_zero()),
        "the reference sweep must retire instructions"
    );
    for jobs in [1, 4] {
        for batch in [1, 8, 64] {
            let swept = sweep_all(&cases, &source, &cfg(jobs, batch, GenProfile::standard()));
            for (a, b) in reference.cases.iter().zip(&swept.cases) {
                assert_eq!(
                    a.counters, b.counters,
                    "case {}: counters drifted at jobs={jobs} batch={batch}",
                    a.case
                );
                assert_eq!(a.digest(), b.digest(), "case {}", a.case);
                assert_eq!(a.hottest, b.hottest, "case {}", a.case);
            }
        }
    }
}

/// Shard reports merged through [`CaseReport::merge`] reproduce the
/// unsharded sweep's counters exactly — including the high-water marks,
/// which take the max rather than adding.
#[test]
fn counters_survive_shard_merge_exactly() {
    let range = SeedRange::new(0, 30).expect("non-empty");
    let cases = AnyCase::all(false);
    let whole = sweep_all(&cases, &range, &cfg(2, 4, GenProfile::standard()));
    let mut merged: Option<Vec<CaseReport>> = None;
    for index in 0..3 {
        let shard = Shard::new(range, index, 3).expect("valid shard");
        let part = sweep_all(&cases, &shard, &cfg(2, 4, GenProfile::standard()));
        match &mut merged {
            None => merged = Some(part.cases),
            Some(acc) => {
                for (a, b) in acc.iter_mut().zip(&part.cases) {
                    a.merge(b);
                }
            }
        }
    }
    let merged = merged.expect("three shards");
    for (whole_case, merged_case) in whole.cases.iter().zip(&merged) {
        assert_eq!(
            whole_case.counters, merged_case.counters,
            "case {}: merge changed the counters",
            whole_case.case
        );
        assert_eq!(whole_case.digest(), merged_case.digest());
        assert_eq!(
            whole_case.hottest, merged_case.hottest,
            "case {}: merge changed the hottest seeds",
            whole_case.case
        );
    }
}

// ---------------------------------------------------------------------------
// Timed sweep → `--save` TSV → `semint report`.

/// A timed sweep's `--save` TSV reads back with the sweep's own counters,
/// stage times and hottest seeds, and `semint report` renders the time per
/// layer from it — the one persisted report loses nothing the retired
/// trace profile printed.
#[test]
fn trace_round_trips_through_profile_aggregation() {
    let source = SeedRange::new(0, 18).expect("non-empty");
    let cases = AnyCase::all(false);
    let swept_cfg = SweepConfig {
        time: true,
        ..cfg(4, 8, GenProfile::standard())
    };
    let report = sweep_all(&cases, &source, &swept_cfg);
    let saved = SweepReport::from_tsv(&report.to_tsv()).expect("well-formed TSV");
    assert_eq!(saved.scenarios(), report.scenarios());
    for (case, read) in report.cases.iter().zip(&saved.cases) {
        assert_eq!(
            read.counters, case.counters,
            "case {}: saved counters diverge from the sweep report",
            case.case
        );
        assert_eq!(read.timings, case.timings, "case {}", case.case);
        assert_eq!(read.hottest, case.hottest, "case {}", case.case);
        assert!(!case.hottest.is_empty(), "case {}", case.case);
        assert!(
            case.timings.is_some_and(|t| t.other_ns > 0),
            "case {}: a timed sweep books the engine's own time",
            case.case
        );
    }
    let rendered = render_sweep(&saved);
    assert_eq!(
        rendered.matches("ns per retired instruction").count(),
        3,
        "{rendered}"
    );
    assert_eq!(rendered.matches("hottest seeds").count(), 3, "{rendered}");
    assert!(
        rendered.contains("stage wall-clock, all cases"),
        "{rendered}"
    );
}

// ---------------------------------------------------------------------------
// The counters themselves are live.

/// Sanity on counter content: one retired instruction per machine step
/// (`total_instrs == total_steps` per case), and the engine stamps boundary
/// crossings from the scenarios' static counts.
#[test]
fn counters_account_for_every_step_and_boundary() {
    let source = SeedRange::new(0, 20).expect("non-empty");
    for case in AnyCase::all(false) {
        let report = sweep_case(&case, &source, &cfg(2, 4, GenProfile::standard()));
        assert_eq!(
            report.counters.total_instrs(),
            report.total_steps,
            "case {}: each machine step retires exactly one classified instruction",
            report.case
        );
        assert_eq!(
            report.counters.boundary_crossings, report.total_boundaries,
            "case {}: boundary crossings come from the static per-scenario counts",
            report.case
        );
    }
}

/// A report absorbed from zero-counter legacy data merges with a live one
/// without disturbing it (absent counters behave as zero everywhere).
#[test]
fn legacy_zero_counters_merge_neutrally() {
    let source = SeedRange::new(0, 10).expect("non-empty");
    let case = AnyCase::by_name("sharedmem", false).expect("known case");
    let live = sweep_case(&case, &source, &cfg(1, 1, GenProfile::standard()));
    let mut merged = live.clone();
    merged.merge(&CaseReport::new("sharedmem"));
    assert_eq!(merged.counters, live.counters);
    let mut from_legacy = CaseReport::new("sharedmem");
    from_legacy.merge(&live);
    assert_eq!(from_legacy.counters, live.counters);
    assert_eq!(VmCounters::default(), CaseReport::new("sharedmem").counters);
}
