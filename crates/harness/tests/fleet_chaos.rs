//! The deterministic chaos drill as a test: a real supervised sweep is
//! fault-injected (per the seed-derived schedule), SIGKILLed mid-sweep,
//! rerun with `--resume`, and must still produce digests and VM counters
//! byte-identical to an uninterrupted one-shot sweep — without re-running
//! any shard whose checkpoint survived the kill.
//!
//! This is the same machinery `semint chaos` drives from the CLI (and CI
//! drives in release mode); here it runs in-process so a failed invariant
//! points straight at the round's state dir.

use std::collections::BTreeSet;
use std::path::PathBuf;

use semint_harness::fleet::{run_drills, ChaosConfig, FaultKind, SweepSpec};

#[test]
fn killed_and_resumed_sweep_matches_the_uninterrupted_sweep() {
    let state_root = std::env::temp_dir().join(format!("semint-chaos-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_root);
    let cfg = ChaosConfig {
        binary: PathBuf::from(env!("CARGO_BIN_EXE_semint")),
        seed: 1,
        // Four consecutive rounds drill every fault kind once.
        rounds: 4,
        spec: SweepSpec {
            seeds: (0, 24),
            profile: "default".into(),
            case: "all".into(),
            workers: 3,
            jobs: 2,
            batch: 1,
            model_check: false,
            fault: None,
        },
        // Wedge rounds are only caught by this timeout; keep it short but
        // well above an honest shard's runtime.
        worker_timeout_ms: 5_000,
        state_root: state_root.clone(),
        echo: false,
    };
    let outcomes = run_drills(&cfg).expect("the drill runs to completion");
    assert_eq!(outcomes.len(), 4, "one outcome per round");
    let kinds: BTreeSet<&str> = outcomes.iter().map(|o| o.plan.kind.label()).collect();
    assert_eq!(kinds.len(), FaultKind::ALL.len(), "{kinds:?}");
    for outcome in &outcomes {
        assert!(
            outcome.invariant_holds(),
            "round {} violated the crash-safety invariant \
             (digests_match: {}, counters_match: {}, rerun_after_resume: {:?}); \
             post-mortem state in {}",
            outcome.round,
            outcome.digests_match,
            outcome.counters_match,
            outcome.rerun_after_resume,
            outcome.state_dir.display(),
        );
    }
    let _ = std::fs::remove_dir_all(&state_root);
}
