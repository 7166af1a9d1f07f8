//! End-to-end supervision tests for `semint sweep --workers`: a real
//! supervisor process spawning real `semint sweep --shard` worker processes
//! (the binary Cargo built for this test run).
//!
//! The central claim, asserted with no fault and with each fault kind: the
//! supervised sweep's `digest:` lines and its `--save` report — minus the
//! per-process glue-cache lines — are byte-identical to a one-shot sweep's,
//! so every `VmCounters` field survives the shard merge exactly.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

const SEMINT: &str = env!("CARGO_BIN_EXE_semint");

/// The sweep both sides run.  Model checking is off: these tests are about
/// process management, not the model checker's wall-clock.
const SHAPE: [&str; 5] = ["--seeds", "0..30", "--jobs", "2", "--no-model-check"];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("semint-fleet-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn sweep(extra: &[&str], save: &Path) -> Output {
    Command::new(SEMINT)
        .arg("sweep")
        .args(SHAPE)
        .args(extra)
        .arg("--save")
        .arg(save)
        .output()
        .expect("semint runs")
}

fn digest_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|line| line.starts_with("digest: "))
        .map(str::to_string)
        .collect()
}

/// A saved report without the lines that legitimately differ between
/// processes: glue-cache hits/misses are per-process and stage timings are
/// wall-clock.
fn comparable(saved: &Path) -> String {
    std::fs::read_to_string(saved)
        .expect("report saved")
        .lines()
        .filter(|line| !line.starts_with("glue_") && !line.starts_with("stage_ns"))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// The one-shot sweep's digest lines and comparable report, computed once.
fn one_shot() -> &'static (Vec<String>, String) {
    static ONE_SHOT: OnceLock<(Vec<String>, String)> = OnceLock::new();
    ONE_SHOT.get_or_init(|| {
        let dir = scratch("one-shot");
        let saved = dir.join("one-shot.tsv");
        let out = sweep(&[], &saved);
        assert!(out.status.success(), "one-shot sweep failed");
        let expected = (digest_lines(&out), comparable(&saved));
        let _ = std::fs::remove_dir_all(&dir);
        expected
    })
}

/// Runs a 3-worker supervised sweep with `extra` flags, asserts it matches
/// the one-shot sweep byte for byte, and returns its stderr (the
/// supervisor's shard events).
fn assert_supervised_matches_one_shot(name: &str, extra: &[&str]) -> String {
    let dir = scratch(name);
    let saved = dir.join("supervised.tsv");
    let out = sweep(&[&["--workers", "3"][..], extra].concat(), &saved);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "{name}: supervised sweep failed\n{stderr}"
    );
    let (digests, report) = one_shot();
    assert_eq!(
        &digest_lines(&out),
        digests,
        "{name}: digests must equal the one-shot sweep's"
    );
    assert_eq!(
        &comparable(&saved),
        report,
        "{name}: the merged report (VmCounters included) must equal the one-shot sweep's"
    );
    let _ = std::fs::remove_dir_all(&dir);
    stderr
}

#[test]
fn supervised_sweep_matches_the_one_shot_sweep() {
    let stderr = assert_supervised_matches_one_shot("clean", &[]);
    for shard in ["0/3", "1/3", "2/3"] {
        assert!(
            stderr.contains(&format!("shard {shard} attempt 0 saved")),
            "{stderr}"
        );
    }
    assert!(
        !stderr.contains("re-issuing"),
        "no fault was injected\n{stderr}"
    );
}

#[test]
fn crashed_shard_is_reissued_and_digests_still_converge() {
    // Shard 1's first attempt aborts mid-sweep after 3 scenarios, leaving no
    // report — a genuine crash from the supervisor's point of view.
    let stderr = assert_supervised_matches_one_shot(
        "crash",
        &[
            "--fault-shard",
            "1",
            "--fault-after",
            "3",
            "--fault-kind",
            "crash",
        ],
    );
    assert!(stderr.contains("exit code 42"), "{stderr}");
    assert!(stderr.contains("shard 1/3 attempt 1 saved"), "{stderr}");
}

#[test]
fn wedged_shard_is_killed_by_the_heartbeat_timeout_and_reissued() {
    let stderr = assert_supervised_matches_one_shot(
        "wedge",
        &[
            "--fault-shard",
            "2",
            "--fault-after",
            "3",
            "--fault-kind",
            "wedge",
            "--worker-timeout-ms",
            "5000",
        ],
    );
    assert!(stderr.contains("shard 2/3 attempt 0 wedged"), "{stderr}");
    assert!(stderr.contains("shard 2/3 attempt 1 saved"), "{stderr}");
}

#[test]
fn unreadable_reports_are_rejected_and_their_shards_reissued() {
    for kind in ["corrupt-report", "truncate-report"] {
        let stderr = assert_supervised_matches_one_shot(
            kind,
            &[
                "--fault-shard",
                "0",
                "--fault-after",
                "1",
                "--fault-kind",
                kind,
            ],
        );
        assert!(stderr.contains("unreadable report"), "{kind}: {stderr}");
        assert!(
            stderr.contains("shard 0/3 attempt 1 saved"),
            "{kind}: {stderr}"
        );
    }
}
