//! The sweep's model check against its one-shot wrapper.
//!
//! A sweep executes each artifact and, when its fuel covers the checker's
//! budget, judges the run's report with a copy of the artifact
//! ([`CaseStudy::model_judgement`]); otherwise it calls
//! [`CaseStudy::model_check_compiled`], as shrink re-checks and ad-hoc
//! callers do, which runs a copy of the artifact under the checker's own
//! budget.  Both must return exactly the same `Result`, for every case
//! study under both rule sets, under all four presets and under a 30-step
//! fuel that, like `smoke`'s, falls short of every checker's budget.  The
//! runs go through reused machines, eight artifacts each, as a `--batch 8`
//! sweep runs them.
//!
//! The verdicts are also pinned against the checkers as they were when
//! every checker still ran the program itself: per case, a hash over every
//! verdict (claim, witness and reason of each rejection) and the number of
//! rejections.

use semint::harness::cases::AnyCase;
use semint::harness::fleet::journal::content_digest;
use semint::harness::CaseStudy;
use semint_core::case::{CheckFailure, GenProfile};
use semint_core::Fuel;

const SEEDS: u64 = 1_500;

/// Every scenario's verdict through both paths; returns the hash of the
/// verdicts and the number of rejections.
fn verdicts(case: &AnyCase, profile: &GenProfile) -> (String, usize) {
    let mut text = String::new();
    let mut rejected = 0;
    let seeds: Vec<u64> = (0..SEEDS).collect();
    for batch in seeds.chunks(8) {
        let mut checked = Vec::new();
        let mut artifacts = Vec::new();
        for &seed in batch {
            let scenario = case.generate(seed, profile);
            let ty = case.typecheck(&scenario.program).expect("well-typed");
            assert_eq!(ty, scenario.ty, "{} seed {seed}", case.name());
            let compiled = case.compile(&scenario.program).expect("compiles");
            let whole = case.model_check_compiled(&scenario.program, &ty, &compiled);
            artifacts.push(compiled.clone());
            checked.push((scenario, compiled, whole));
        }
        let reports = case.execute_batch(artifacts, profile.fuel);
        for ((scenario, compiled, whole), report) in checked.into_iter().zip(&reports) {
            let judged = if profile.fuel.covers(case.model_budget()) {
                case.model_judgement(
                    &scenario.program,
                    &scenario.ty,
                    &compiled,
                    report,
                    profile.fuel,
                )
            } else {
                case.model_check_compiled(&scenario.program, &scenario.ty, &compiled)
            };
            assert_eq!(
                judged,
                whole,
                "{} seed {} profile {}",
                case.name(),
                scenario.seed,
                profile
            );
            match whole {
                Ok(()) => text.push_str(&format!("{}\tok\n", scenario.seed)),
                Err(CheckFailure {
                    claim,
                    witness,
                    reason,
                }) => {
                    rejected += 1;
                    text.push_str(&format!(
                        "{}\t{claim}\t{witness}\t{reason}\n",
                        scenario.seed
                    ));
                }
            }
        }
    }
    (content_digest(text.as_bytes()), rejected)
}

fn assert_judgements(profile: GenProfile, broken: bool, expected: [(&str, usize); 3]) {
    let actual: Vec<(String, usize)> = AnyCase::all(broken)
        .iter()
        .map(|case| verdicts(case, &profile))
        .collect();
    let expected: Vec<(String, usize)> = expected
        .iter()
        .map(|(hash, rejected)| (hash.to_string(), *rejected))
        .collect();
    assert_eq!(actual, expected, "profile {profile}, broken {broken}");
}

/// The `default` preset with a 30-step fuel: most runs outlast it, so the
/// sweep falls back to `model_check_compiled`'s run under the budget.
fn low_fuel() -> GenProfile {
    GenProfile {
        name: "custom",
        fuel: Fuel::steps(30),
        ..GenProfile::standard()
    }
}

/// Every verdict of the standard rules accepts.
const ALL_ACCEPTED: (&str, usize) = ("fnv1a:3a26ce196494e6dd", 0);

#[test]
fn standard_rules_judge_as_the_wrapper_does() {
    for profile in GenProfile::presets().into_iter().chain([low_fuel()]) {
        assert_judgements(profile, false, [ALL_ACCEPTED; 3]);
    }
}

#[test]
fn broken_rules_judge_as_the_wrapper_does_smoke() {
    assert_judgements(
        GenProfile::smoke(),
        true,
        [
            ("fnv1a:739a65570022c221", 241),
            ("fnv1a:4a4c4017cd24a7b6", 226),
            ("fnv1a:2fec6f16e12e1b20", 1149),
        ],
    );
}

#[test]
fn broken_rules_judge_as_the_wrapper_does_default() {
    assert_judgements(
        GenProfile::standard(),
        true,
        [
            ("fnv1a:b3aafacbaca6aca6", 241),
            ("fnv1a:024e8f853eeb931d", 188),
            ("fnv1a:3e3432b0da07de3c", 1138),
        ],
    );
}

#[test]
fn broken_rules_judge_as_the_wrapper_does_deep() {
    assert_judgements(
        GenProfile::deep(),
        true,
        [
            ("fnv1a:e735bb02d0ba47d2", 75),
            ("fnv1a:361135954ef1bcf0", 47),
            ("fnv1a:2c78ba17fb923f3d", 979),
        ],
    );
}

#[test]
fn broken_rules_judge_as_the_wrapper_does_boundary_heavy() {
    assert_judgements(
        GenProfile::boundary_heavy(),
        true,
        [
            ("fnv1a:427bcf2224ba0d41", 241),
            ("fnv1a:5002463d5bb4e3c2", 73),
            ("fnv1a:0481f80bbefba9bf", 1138),
        ],
    );
}

#[test]
fn broken_rules_judge_as_the_wrapper_does_on_30_steps_of_fuel() {
    // The generators ignore fuel, so the verdicts are the default preset's.
    assert_judgements(
        low_fuel(),
        true,
        [
            ("fnv1a:b3aafacbaca6aca6", 241),
            ("fnv1a:024e8f853eeb931d", 188),
            ("fnv1a:3e3432b0da07de3c", 1138),
        ],
    );
}
