//! Golden digests for the four generation presets.
//!
//! Each test sweeps seeds `0..300` of every case study under one preset
//! (one worker, model check off) and compares each case's
//! [`CaseReport::digest`] with a committed literal.  A digest folds in the
//! scenario count, total machine steps, boundary count, program size and
//! outcome histogram, so a change to what the generators emit, what the
//! compilers produce or how the machines run almost always moves one of
//! them.  Only an intended semantics change may update these literals.
//!
//! Beside each digest sit the case's glue-cache hits and misses over the
//! same sweep.  With one worker and a fresh case they are deterministic, and
//! they count every probe the type checkers and compilers make of the rule
//! set, so a change that moves a probe fails here before any benchmark runs.

use semint::harness::cases::AnyCase;
use semint::harness::engine::{sweep_all, SweepConfig};
use semint::harness::source::SeedRange;
use semint_core::case::GenProfile;
use semint_core::stats::CaseReport;

/// `glue` holds each case's glue-cache `(hits, misses)`, in the order of
/// the digests.
fn assert_preset_digests(profile: GenProfile, expected: [&str; 3], glue: [(u64, u64); 3]) {
    let cfg = SweepConfig {
        jobs: 1,
        profile,
        model_check: false,
        time: false,
        batch: 1,
    };
    let source = SeedRange::new(0, 300).expect("well-formed");
    let report = sweep_all(&AnyCase::all(false), &source, &cfg);
    let actual: Vec<String> = report.cases.iter().map(CaseReport::digest).collect();
    assert_eq!(actual, expected, "preset {}", profile.name);
    let probes: Vec<(u64, u64)> = report
        .cases
        .iter()
        .map(|case| (case.glue_hits, case.glue_misses))
        .collect();
    assert_eq!(probes, glue, "preset {} glue (hits, misses)", profile.name);
}

#[test]
fn smoke_preset_digests() {
    assert_preset_digests(
        GenProfile::smoke(),
        [
            "case=sharedmem scenarios=300 steps=2926 boundaries=168 chars=8704 failures=0 fail-Conv=16 value=284",
            "case=affine scenarios=300 steps=6321 boundaries=142 chars=9790 failures=0 value=300",
            "case=memgc scenarios=300 steps=4244 boundaries=187 chars=7197 failures=0 value=300",
        ],
        [(342, 11), (318, 22), (396, 20)],
    );
}

#[test]
fn default_preset_digests() {
    assert_preset_digests(
        GenProfile::standard(),
        [
            "case=sharedmem scenarios=300 steps=5712 boundaries=597 chars=23148 failures=0 fail-Conv=16 value=284",
            "case=affine scenarios=300 steps=12349 boundaries=422 chars=19558 failures=0 value=300",
            "case=memgc scenarios=300 steps=9873 boundaries=444 chars=14891 failures=0 value=300",
        ],
        [(1205, 17), (1208, 99), (1126, 64)],
    );
}

#[test]
fn deep_preset_digests() {
    assert_preset_digests(
        GenProfile::deep(),
        [
            "case=sharedmem scenarios=300 steps=13998 boundaries=1826 chars=86347 failures=0 fail-Conv=23 value=277",
            "case=affine scenarios=300 steps=34210 boundaries=912 chars=63653 failures=0 value=300",
            "case=memgc scenarios=300 steps=29727 boundaries=1042 chars=41426 failures=0 value=300",
        ],
        [(3668, 24), (3734, 923), (2952, 232)],
    );
}

#[test]
fn boundary_heavy_preset_digests() {
    assert_preset_digests(
        GenProfile::boundary_heavy(),
        [
            "case=sharedmem scenarios=300 steps=6864 boundaries=1696 chars=25457 failures=0 fail-Conv=28 value=272",
            "case=affine scenarios=300 steps=18053 boundaries=1282 chars=22005 failures=0 value=300",
            "case=memgc scenarios=300 steps=17124 boundaries=1101 chars=18199 failures=0 value=300",
        ],
        [(3403, 17), (4815, 158), (3913, 81)],
    );
}
