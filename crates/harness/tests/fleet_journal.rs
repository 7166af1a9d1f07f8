//! Crash-recovery tests for the durable sweep journal and `semint sweep
//! --workers --resume`.
//!
//! Two layers:
//!
//! * a property test that replaying **any prefix** of a valid journal —
//!   cut on a line boundary or at an arbitrary byte, as a crash would —
//!   yields consistent recovered state: no shard double-counted, nothing
//!   lost except the torn tail, and monotone growth along prefixes;
//! * integration tests where a real `semint sweep --resume` picks up a
//!   hand-built state dir and must converge on the uninterrupted one-shot
//!   sweep's digests and counters, reusing verified checkpoints and
//!   re-running corrupted ones — or refuse a state dir it cannot trust.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use proptest::collection;
use proptest::prelude::*;

use semint_core::case::GenProfile;
use semint_core::stats::SweepReport;
use semint_harness::cases::AnyCase;
use semint_harness::engine::{sweep_all, SweepConfig};
use semint_harness::fleet::journal::{
    checkpoint_name, content_digest, parse_event, render_event, replay, Journal, JournalEvent,
};
use semint_harness::fleet::SweepSpec;
use semint_harness::source::Shard;

// ---------------------------------------------------------------------------
// Property: any prefix of a valid journal replays consistently.
// ---------------------------------------------------------------------------

/// The spec the property test journals (seeds/profile are irrelevant to
/// replay structure; only the shard count matters).
fn prop_spec(workers: u64) -> SweepSpec {
    SweepSpec {
        seeds: (0, 24),
        profile: "default".into(),
        case: "all".into(),
        workers,
        jobs: 1,
        batch: 1,
        model_check: false,
        fault: None,
    }
}

/// Decodes one opaque op into the next journal event of a sweep with
/// `workers` shards.
fn decode_op(op: u64, workers: u64) -> JournalEvent {
    let shard = (op / 8) % workers;
    let attempt = (op / 64) % 3;
    match op % 8 {
        0..=2 => JournalEvent::ShardStarted { shard, attempt },
        3 | 4 => JournalEvent::ShardSaved {
            shard,
            attempt,
            path: checkpoint_name(shard),
            digest: content_digest(&op.to_le_bytes()),
        },
        5 | 6 => JournalEvent::ShardDied {
            shard,
            attempt,
            reason: "crashed (exit code 42)".into(),
        },
        _ => JournalEvent::Resumed { adopted: shard },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A crash can leave the journal cut at any line boundary (or torn
    /// mid-line); every such prefix that still holds the spec line must
    /// recover a consistent restriction of the full history.
    #[test]
    fn replaying_any_prefix_of_a_valid_journal_is_consistent(
        workers in 1u64..5,
        ops in collection::vec(any::<u64>(), 0..80),
        cut in any::<u64>(),
    ) {
        let events: Vec<JournalEvent> = std::iter::once(JournalEvent::SweepStarted {
            spec: prop_spec(workers),
        })
        .chain(ops.iter().map(|&op| decode_op(op, workers)))
        .collect();
        let lines: Vec<String> = events.iter().map(render_event).collect();
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let full = replay(&text).expect("the generated journal is valid");
        let full_saved: BTreeSet<u64> = full.saved.keys().copied().collect();

        // Line-boundary prefixes: a crash after any fsync'd append.  Each
        // prefix holding the spec line must replay cleanly and be a
        // restriction of the full state: the same spec, saved-shard sets
        // that are subsets growing monotonically, retries never exceeding
        // the final count, and never a shard outside the partition (no
        // shard is ever double-counted — `saved` is keyed by shard index —
        // and none is lost, because prefixes only ever grow).
        prop_assert!(replay("").is_err(), "an empty journal records no sweep");
        let mut prev_saved = BTreeSet::new();
        for k in 1..=lines.len() {
            let prefix: String = lines[..k].iter().map(|l| format!("{l}\n")).collect();
            let state = replay(&prefix).expect("every line prefix replays");
            prop_assert_eq!(state.torn_lines, 0);
            prop_assert_eq!(&state.spec, &full.spec);
            prop_assert!(state.retries <= full.retries);
            let saved: BTreeSet<u64> = state.saved.keys().copied().collect();
            prop_assert!(saved.iter().all(|&s| s < workers));
            prop_assert!(
                saved.is_subset(&full_saved),
                "prefix {k} saved shards not in the full journal: {saved:?}"
            );
            prop_assert!(
                prev_saved.is_subset(&saved),
                "a longer prefix lost shard checkpoints: {prev_saved:?} vs {saved:?}"
            );
            prev_saved = saved;
        }

        // Arbitrary byte cut: the torn-tail case.  A cut through the spec
        // line leaves no sweep to resume; any later cut loses at most one
        // line, and what remains is still a restriction of the full state.
        let cut_at = (cut as usize) % (text.len() + 1);
        match replay(&text[..cut_at]) {
            Err(e) => prop_assert!(cut_at < lines[0].len(), "cut at {cut_at}: {e}"),
            Ok(state) => {
                prop_assert!(state.torn_lines <= 1, "one crash tears at most one line");
                prop_assert_eq!(&state.spec, &full.spec);
                let saved: BTreeSet<u64> = state.saved.keys().copied().collect();
                prop_assert!(saved.is_subset(&full_saved));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Integration: a real `semint sweep --resume` over a hand-built state dir.
// ---------------------------------------------------------------------------

/// The sweep every resume test journals and resumes (3 shards).
fn spec() -> SweepSpec {
    SweepSpec {
        seeds: (0, 30),
        profile: "default".into(),
        case: "all".into(),
        workers: 3,
        jobs: 2,
        batch: 1,
        model_check: false,
        fault: None,
    }
}

fn sweep_config() -> SweepConfig {
    SweepConfig {
        jobs: 2,
        profile: GenProfile::by_name("default").unwrap(),
        model_check: false,
        ..SweepConfig::default()
    }
}

/// The uninterrupted one-shot sweep.
fn baseline() -> SweepReport {
    sweep_all(&AnyCase::all(false), &spec().range(), &sweep_config())
}

/// Sweeps shard `index` of the spec in-process and returns its report's
/// TSV — exactly the checkpoint a worker would have saved before the
/// "crash".
fn shard_checkpoint_tsv(index: u64) -> String {
    let shard: Shard = spec().shard(index);
    sweep_all(&AnyCase::all(false), &shard, &sweep_config()).to_tsv()
}

fn state_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("semint-resume-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes a state dir whose journal records `spec`, `events` after it, and
/// the given checkpoint files.
fn build_state(dir: &Path, spec: &SweepSpec, events: &[JournalEvent], files: &[(u64, &[u8])]) {
    std::fs::create_dir_all(dir).unwrap();
    for (shard, bytes) in files {
        std::fs::write(dir.join(checkpoint_name(*shard)), bytes).unwrap();
    }
    let text: String = std::iter::once(JournalEvent::SweepStarted { spec: spec.clone() })
        .chain(events.iter().cloned())
        .map(|e| format!("{}\n", render_event(&e)))
        .collect();
    std::fs::write(Journal::path_in(dir), text).unwrap();
}

fn saved_event(shard: u64, tsv: &str) -> JournalEvent {
    JournalEvent::ShardSaved {
        shard,
        attempt: 0,
        path: checkpoint_name(shard),
        digest: content_digest(tsv.as_bytes()),
    }
}

/// Runs `semint sweep --workers W` for `spec` over `dir`, with `extra`
/// flags, saving the merged report into `dir/merged.tsv`.
fn run_sweep(spec: &SweepSpec, dir: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_semint"))
        .arg("sweep")
        .args(spec.sweep_args())
        .args(["--workers", &spec.workers.to_string()])
        .arg("--state-dir")
        .arg(dir)
        .arg("--save")
        .arg(dir.join("merged.tsv"))
        .args(extra)
        .output()
        .expect("semint runs")
}

/// Asserts the run succeeded and its saved report matches the one-shot
/// sweep on digests, scenario counts and every `VmCounters` field.
fn assert_matches_baseline(out: &Output, dir: &Path) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "resumed sweep failed\n{stderr}");
    let text = std::fs::read_to_string(dir.join("merged.tsv")).expect("merged report saved");
    let merged = SweepReport::from_tsv(&text).expect("merged report parses");
    let whole = baseline();
    assert_eq!(merged.cases.len(), whole.cases.len());
    for (got, want) in merged.cases.iter().zip(&whole.cases) {
        assert_eq!(got.digest(), want.digest(), "case {}", want.case);
        assert_eq!(got.scenarios, want.scenarios);
        assert_eq!(got.counters, want.counters, "case {}", want.case);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    for case in &whole.cases {
        assert!(
            stdout.contains(&format!("digest: {}", case.digest())),
            "{stdout}"
        );
    }
}

/// The shard indices of every `shard-started` event after the last
/// `sweep-resumed` marker.
fn started_after_resume(dir: &Path) -> BTreeSet<u64> {
    let text = std::fs::read_to_string(Journal::path_in(dir)).expect("journal exists");
    let events: Vec<JournalEvent> = text.lines().filter_map(|l| parse_event(l).ok()).collect();
    let last_resume = events
        .iter()
        .rposition(|e| matches!(e, JournalEvent::Resumed { .. }))
        .expect("the resumed sweep journaled its marker");
    events[last_resume..]
        .iter()
        .filter_map(|e| match e {
            JournalEvent::ShardStarted { shard, .. } => Some(*shard),
            _ => None,
        })
        .collect()
}

#[test]
fn resume_reuses_verified_checkpoints_and_converges_on_one_shot_digests() {
    let dir = state_dir("ok");
    let tsv = shard_checkpoint_tsv(0);
    let events = [
        JournalEvent::ShardStarted {
            shard: 0,
            attempt: 0,
        },
        saved_event(0, &tsv),
        JournalEvent::ShardStarted {
            shard: 1,
            attempt: 0,
        },
    ];
    build_state(&dir, &spec(), &events, &[(0, tsv.as_bytes())]);
    let out = run_sweep(&spec(), &dir, &["--resume"]);
    assert_matches_baseline(&out, &dir);
    assert_eq!(
        started_after_resume(&dir),
        BTreeSet::from([1, 2]),
        "the verified shard-0 checkpoint is reused; only unaccounted shards run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_a_corrupted_checkpoint_and_reruns_that_shard() {
    let dir = state_dir("bad");
    let tsv = shard_checkpoint_tsv(0);
    // The journal records the digest of the *true* report, but the bytes on
    // disk were damaged after the fsync — resume must notice and re-run.
    let mut damaged = tsv.clone().into_bytes();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0xff;
    build_state(&dir, &spec(), &[saved_event(0, &tsv)], &[(0, &damaged)]);
    let out = run_sweep(&spec(), &dir, &["--resume"]);
    assert_matches_baseline(&out, &dir);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("digest mismatch"),
        "the rejection is reported"
    );
    assert_eq!(
        started_after_resume(&dir),
        BTreeSet::from([0, 1, 2]),
        "the corrupted shard 0 is re-issued along with the unaccounted ones"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resuming_a_finished_sweep_runs_no_shard_and_prints_the_same_digests() {
    let dir = state_dir("done");
    let tsvs: Vec<String> = (0..3).map(shard_checkpoint_tsv).collect();
    let events: Vec<JournalEvent> = (0..3).map(|i| saved_event(i, &tsvs[i as usize])).collect();
    let files: Vec<(u64, &[u8])> = (0..3).map(|i| (i, tsvs[i as usize].as_bytes())).collect();
    build_state(&dir, &spec(), &events, &files);
    let out = run_sweep(&spec(), &dir, &["--resume"]);
    assert_matches_baseline(&out, &dir);
    assert!(started_after_resume(&dir).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs a sweep that must be refused, and returns its error message.
fn refused(spec: &SweepSpec, dir: &Path, extra: &[&str]) -> String {
    let out = run_sweep(spec, dir, extra);
    assert_eq!(out.status.code(), Some(2), "a refusal is a usage error");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn confusable_and_foreign_state_dirs_are_refused() {
    let dir = state_dir("cfg");
    // --resume over a dir with no journal: nothing to recover.
    let err = refused(&spec(), &dir, &["--resume"]);
    assert!(err.contains("no journal"), "{err}");

    // A fresh start over an existing journal would shadow recoverable
    // work: refused, with the fix spelled out.
    build_state(&dir, &spec(), &[], &[]);
    let err = refused(&spec(), &dir, &[]);
    assert!(err.contains("--resume"), "{err}");

    // A command whose spec differs from the journaled one, naming every
    // differing field.
    let other = SweepSpec {
        seeds: (0, 40),
        workers: 2,
        ..spec()
    };
    let err = refused(&other, &dir, &["--resume"]);
    assert!(
        err.contains("seeds: 0..30 vs 0..40") && err.contains("workers: 3 vs 2"),
        "{err}"
    );
    assert!(
        !err.contains("jobs"),
        "only differing fields are named: {err}"
    );

    // A format-1 journal (several daemon jobs) is refused, never misread.
    let journal = Journal::path_in(&dir);
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::write(
        &journal,
        text.replace("\"semint_journal\": 2", "\"semint_journal\": 1"),
    )
    .unwrap();
    let err = refused(&spec(), &dir, &["--resume"]);
    assert!(err.contains("journal format 1"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
