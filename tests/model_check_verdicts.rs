//! Golden model-check verdicts for the four generation presets.
//!
//! `tests/preset_digests.rs` sweeps with the model check off, so it pins
//! what the generators, compilers and machines do but not what the
//! realizability models say about it.  Here each preset sweeps seeds
//! `0..300` of every case study with the model check on, once under the
//! standard rules (every digest must read `failures=0`) and once under the
//! deliberately broken variants.  For the broken sweeps a hash over every
//! [`FailureRecord`] — seed, stage, reason, witness, shrunk witness and
//! shrink steps — pins the counterexamples themselves, shrinking included.
//! Only an intended change to a model check may update these literals.

use semint::harness::cases::AnyCase;
use semint::harness::engine::{sweep_all, SweepConfig};
use semint::harness::fleet::journal::content_digest;
use semint::harness::source::SeedRange;
use semint_core::case::GenProfile;
use semint_core::stats::{CaseReport, SweepReport};

fn checked_sweep(profile: GenProfile, broken: bool) -> SweepReport {
    let cfg = SweepConfig {
        jobs: 2,
        profile,
        model_check: true,
        time: false,
        batch: 1,
    };
    let source = SeedRange::new(0, 300).expect("well-formed");
    sweep_all(&AnyCase::all(broken), &source, &cfg)
}

/// A stable hash over a case's failure records, in report order.
fn failures_hash(case: &CaseReport) -> String {
    let mut text = String::new();
    for f in &case.failures {
        text.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\n",
            f.seed, f.stage, f.reason, f.witness, f.shrunk, f.shrink_steps
        ));
    }
    content_digest(text.as_bytes())
}

fn assert_verdicts(
    profile: GenProfile,
    standard: [&str; 3],
    broken: [&str; 3],
    broken_failures: [&str; 3],
) {
    let report = checked_sweep(profile, false);
    let actual: Vec<String> = report.cases.iter().map(CaseReport::digest).collect();
    assert_eq!(actual, standard, "preset {}, standard rules", profile.name);

    let report = checked_sweep(profile, true);
    let actual: Vec<String> = report.cases.iter().map(CaseReport::digest).collect();
    assert_eq!(actual, broken, "preset {}, broken rules", profile.name);
    let actual: Vec<String> = report.cases.iter().map(failures_hash).collect();
    assert_eq!(
        actual, broken_failures,
        "preset {}, broken failure records",
        profile.name
    );
}

#[test]
fn smoke_preset_verdicts() {
    assert_verdicts(
        GenProfile::smoke(),
        [
            "case=sharedmem scenarios=300 steps=2926 boundaries=168 chars=8704 failures=0 fail-Conv=16 value=284",
            "case=affine scenarios=300 steps=6321 boundaries=142 chars=9790 failures=0 value=300",
            "case=memgc scenarios=300 steps=4244 boundaries=187 chars=7197 failures=0 value=300",
        ],
        [
            "case=sharedmem scenarios=300 steps=2926 boundaries=168 chars=8704 failures=39 fail-Conv=16 value=284",
            "case=affine scenarios=300 steps=6321 boundaries=142 chars=9790 failures=51 value=300",
            "case=memgc scenarios=300 steps=4244 boundaries=187 chars=7197 failures=239 value=300",
        ],
        [
            "fnv1a:37d6f37a5ff756f8",
            "fnv1a:3d0a010304938509",
            "fnv1a:0e0f16d2c7a23989",
        ],
    );
}

#[test]
fn default_preset_verdicts() {
    assert_verdicts(
        GenProfile::standard(),
        [
            "case=sharedmem scenarios=300 steps=5712 boundaries=597 chars=23148 failures=0 fail-Conv=16 value=284",
            "case=affine scenarios=300 steps=12349 boundaries=422 chars=19558 failures=0 value=300",
            "case=memgc scenarios=300 steps=9873 boundaries=444 chars=14891 failures=0 value=300",
        ],
        [
            "case=sharedmem scenarios=300 steps=5712 boundaries=597 chars=23148 failures=39 fail-Conv=16 value=284",
            "case=affine scenarios=300 steps=12349 boundaries=422 chars=19558 failures=46 value=300",
            "case=memgc scenarios=300 steps=9873 boundaries=444 chars=14891 failures=239 value=300",
        ],
        [
            "fnv1a:c76ccd24dfb82c59",
            "fnv1a:100df073a995d32a",
            "fnv1a:83520e48a86e2cd8",
        ],
    );
}

#[test]
fn deep_preset_verdicts() {
    assert_verdicts(
        GenProfile::deep(),
        [
            "case=sharedmem scenarios=300 steps=13998 boundaries=1826 chars=86347 failures=0 fail-Conv=23 value=277",
            "case=affine scenarios=300 steps=34210 boundaries=912 chars=63653 failures=0 value=300",
            "case=memgc scenarios=300 steps=29727 boundaries=1042 chars=41426 failures=0 value=300",
        ],
        [
            "case=sharedmem scenarios=300 steps=13998 boundaries=1826 chars=86347 failures=13 fail-Conv=23 value=277",
            "case=affine scenarios=300 steps=34210 boundaries=912 chars=63653 failures=8 value=300",
            "case=memgc scenarios=300 steps=29727 boundaries=1042 chars=41426 failures=184 value=300",
        ],
        [
            "fnv1a:d4d5c850fe665752",
            "fnv1a:2873dec8835a3f37",
            "fnv1a:f411bcf8048bd972",
        ],
    );
}

#[test]
fn boundary_heavy_preset_verdicts() {
    assert_verdicts(
        GenProfile::boundary_heavy(),
        [
            "case=sharedmem scenarios=300 steps=6864 boundaries=1696 chars=25457 failures=0 fail-Conv=28 value=272",
            "case=affine scenarios=300 steps=18053 boundaries=1282 chars=22005 failures=0 value=300",
            "case=memgc scenarios=300 steps=17124 boundaries=1101 chars=18199 failures=0 value=300",
        ],
        [
            "case=sharedmem scenarios=300 steps=6864 boundaries=1696 chars=25457 failures=39 fail-Conv=28 value=272",
            "case=affine scenarios=300 steps=18053 boundaries=1282 chars=22005 failures=22 value=300",
            "case=memgc scenarios=300 steps=17124 boundaries=1101 chars=18199 failures=239 value=300",
        ],
        [
            "fnv1a:5d1ea7353fa7429e",
            "fnv1a:546a8b14dfcf8831",
            "fnv1a:5ca01a3a66b793d2",
        ],
    );
}
