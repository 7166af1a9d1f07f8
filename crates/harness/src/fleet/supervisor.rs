//! The shard-fleet supervisor: drives one sweep's worth of `semint sweep`
//! child processes and keeps the sweep correct when they die.
//!
//! Each shard of the sweep runs as a separate `semint sweep --shard k/n
//! --save` process.  Supervision is the point of the module: a worker that
//! *crashes* (nonzero exit, unreadable report) or *wedges* (no stderr
//! heartbeat within the configured timeout — workers run with `--progress`,
//! whose rolling line doubles as a liveness signal) is killed and its exact
//! seed slice re-issued, up to [`MAX_RETRIES`] times.  Because shards are
//! deterministic slices and the merge is order-insensitive, a re-issued
//! shard reproduces precisely the results the dead worker would have
//! produced, so the final digests are byte-identical to a one-shot sweep no
//! matter how many workers died along the way.
//!
//! The fleet is also *crash-safe against the supervisor itself*: every
//! validated shard report is checkpointed (written and fsync'd) into the
//! state dir **before** its `shard-saved` event is journaled, and only then
//! absorbed into the in-memory merge — the write-ahead discipline that lets
//! `--resume` trust a journaled checkpoint.  A resumed sweep adopts its
//! digest-verified checkpoints and re-runs only the unaccounted shards.
//!
//! The supervisor prints one stderr line per shard event; the journal is
//! the durable record.  Workers deliberately run *without* `--time`: stage
//! wall-clock is nondeterministic and would pollute the saved TSV; the
//! merged report carries only digest-grade facts.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use semint_core::stats::SweepReport;

use super::journal::{self, checkpoint_name, content_digest, Journal, JournalEvent};
use super::merge::RollingMerge;
use super::spec::{FaultKind, SweepSpec};
use crate::cases::AnyCase;

/// Re-issues per shard before the sweep is abandoned.
pub const MAX_RETRIES: u64 = 2;

/// How often the supervisor polls its workers for exits and wedges.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// One unit of fleet work: shard `index` of the sweep, on its
/// `attempt`-th try (0 = first issue, >0 = re-issue after a death).
#[derive(Debug, Clone, Copy)]
struct ShardTask {
    index: u64,
    attempt: u64,
}

/// A live worker process and the supervision state attached to it.
struct Worker {
    task: ShardTask,
    child: Child,
    /// Last time the worker's stderr produced bytes (the `--progress` line).
    heartbeat: Arc<Mutex<Instant>>,
    /// Rolling tail of the worker's stderr, for failure diagnostics.
    tail: Arc<Mutex<String>>,
    out_path: PathBuf,
    reader: Option<JoinHandle<()>>,
}

impl Worker {
    /// Kills the child (best effort), reaps it, and joins the stderr reader.
    fn kill_and_reap(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let _ = std::fs::remove_file(&self.out_path);
    }

    /// The stderr tail, flattened for a one-line message.
    fn stderr_tail(&self) -> String {
        let tail = self.tail.lock().expect("stderr tail poisoned").clone();
        tail.replace(['\r', '\n'], " ").trim().to_string()
    }
}

/// Why a worker's attempt did not produce a mergeable report.
enum Death {
    /// Nonzero exit; carries the stderr tail for diagnostics.
    Crashed(ExitStatus, String),
    Wedged,
    BadReport(String),
}

impl Death {
    fn describe(&self, timeout: Duration) -> String {
        match self {
            Death::Crashed(status, tail) => {
                let how = match status.code() {
                    Some(code) => format!("crashed (exit code {code})"),
                    None => "crashed (killed by signal)".into(),
                };
                if tail.is_empty() {
                    how
                } else {
                    format!("{how}; stderr tail: {tail}")
                }
            }
            Death::Wedged => format!("wedged (no heartbeat for {} ms)", timeout.as_millis()),
            Death::BadReport(e) => format!("produced an unreadable report ({e})"),
        }
    }
}

/// Runs `spec` as a supervised fleet of `binary sweep --shard` workers,
/// journaling and checkpointing into `state_dir`, and returns the merged
/// report once every shard has landed.  With `resume`, the state dir's
/// journal must record this very spec; its digest-verified checkpoints are
/// adopted and only the remaining shards run.
///
/// Refuses the confusable combinations outright: `resume` over a state dir
/// with no journal has nothing to recover, and a fresh start over an
/// existing journal would shadow recoverable work.
pub fn run_sweep(
    binary: &Path,
    spec: &SweepSpec,
    state_dir: &Path,
    resume: bool,
    heartbeat_timeout: Duration,
) -> Result<SweepReport, String> {
    spec.validate()?;
    let (journal, mut merge) = open_state(spec, state_dir, resume)?;
    let fleet = Fleet {
        binary,
        spec,
        state_dir,
        journal,
        heartbeat_timeout,
    };
    let mut running = Vec::new();
    let result = fleet.drive(&mut merge, &mut running);
    // Whatever is still running is now pointless: the sweep failed.
    for worker in running {
        worker.kill_and_reap();
    }
    result?;
    // Completeness check: the merged report must account for every seed of
    // every case before the sweep may call itself done.
    let case_count = if spec.case == "all" {
        AnyCase::all(false).len() as u64
    } else {
        1
    };
    let expected = spec.range().count() * case_count;
    if !merge.is_complete() {
        return Err(format!(
            "fleet drained with only {}/{} shards merged",
            merge.shards_done(),
            merge.shards_total()
        ));
    }
    let merged = merge.report().scenarios();
    if merged != expected {
        return Err(format!(
            "merged report holds {merged} scenarios but the sweep spans {expected}"
        ));
    }
    Ok(merge.report().clone())
}

/// Opens the state dir's journal: a fresh sweep records its spec as the
/// first line; a resumed one replays the journal, checks the spec, and
/// absorbs every checkpoint that still verifies.
fn open_state(
    spec: &SweepSpec,
    state_dir: &Path,
    resume: bool,
) -> Result<(Journal, RollingMerge), String> {
    let journal_path = Journal::path_in(state_dir);
    let has_journal = std::fs::metadata(&journal_path)
        .map(|meta| meta.len() > 0)
        .unwrap_or(false);
    if resume && !has_journal {
        // Before journal format 3 the journal was JSON lines in journal.jsonl.
        let hint = if state_dir.join("journal.jsonl").exists() {
            "; its journal.jsonl is from an older semint, so start the sweep in a fresh --state-dir"
        } else {
            ""
        };
        return Err(format!(
            "--resume found no journal at {}{hint}",
            journal_path.display()
        ));
    }
    if !resume && has_journal {
        return Err(format!(
            "state dir {} already holds a journal; pass --resume to finish its sweep, \
             or point --state-dir somewhere fresh",
            state_dir.display()
        ));
    }
    std::fs::create_dir_all(state_dir)
        .map_err(|e| format!("cannot create state dir {}: {e}", state_dir.display()))?;
    let journal = Journal::open(state_dir)?;
    let mut merge = RollingMerge::new(spec.workers);
    if !resume {
        journal.append(&JournalEvent::SweepStarted { spec: spec.clone() })?;
        return Ok((journal, merge));
    }
    let text = std::fs::read_to_string(journal.path())
        .map_err(|e| format!("cannot read journal {}: {e}", journal.path().display()))?;
    let recovered = journal::replay(&text)
        .map_err(|e| format!("journal {} does not replay: {e}", journal.path().display()))?;
    let differences = recovered.spec.differences(spec);
    if !differences.is_empty() {
        return Err(format!(
            "the journal in {} records a different sweep ({}; journal vs command); \
             rerun the journaled command, or point --state-dir somewhere fresh",
            state_dir.display(),
            differences.join(", ")
        ));
    }
    // Every journaled checkpoint is re-read, digest-verified and re-parsed
    // before it is absorbed; one that fails any of those is re-run.
    for (shard, (name, digest)) in &recovered.saved {
        let verified = std::fs::read(state_dir.join(name))
            .map_err(|e| e.to_string())
            .and_then(|bytes| {
                let actual = content_digest(&bytes);
                if actual != *digest {
                    return Err(format!(
                        "content digest mismatch (journal says {digest}, file has {actual})"
                    ));
                }
                String::from_utf8(bytes).map_err(|_| "checkpoint is not UTF-8".to_string())
            })
            .and_then(|text| SweepReport::from_tsv(&text))
            .and_then(|report| merge.absorb_shard(*shard, &report));
        if let Err(e) = verified {
            eprintln!("[fleet] checkpoint {name} of shard {shard} rejected ({e}); it re-runs");
        }
    }
    // The resume marker must be durable before any shard runs: history is
    // partitioned at the *last* marker.
    journal.append(&JournalEvent::Resumed {
        adopted: merge.shards_done(),
    })?;
    eprintln!(
        "[fleet] resumed {}: adopted {}/{} verified checkpoints ({} torn journal lines skipped)",
        state_dir.display(),
        merge.shards_done(),
        merge.shards_total(),
        recovered.torn_lines
    );
    Ok((journal, merge))
}

/// Everything one sweep's fleet needs, threaded through spawn, settle and
/// re-issue.
struct Fleet<'a> {
    binary: &'a Path,
    spec: &'a SweepSpec,
    state_dir: &'a Path,
    journal: Journal,
    heartbeat_timeout: Duration,
}

impl Fleet<'_> {
    /// Journals one event, best effort: losing a journal entry costs a
    /// redundant (idempotent) shard re-run on resume, which is the right
    /// trade against failing a healthy sweep over a transient disk error.
    fn journal_event(&self, event: &JournalEvent) {
        if let Err(e) = self.journal.append(event) {
            eprintln!("[fleet] {e}");
        }
    }

    fn shard_label(&self, task: ShardTask) -> String {
        format!(
            "shard {} attempt {}",
            self.spec.shard(task.index).spec(),
            task.attempt
        )
    }

    /// Runs every shard `merge` does not hold yet, all at once, until each
    /// has merged or one has exhausted its retries.  Workers still in
    /// `running` on return are the caller's to reap.
    fn drive(&self, merge: &mut RollingMerge, running: &mut Vec<Worker>) -> Result<(), String> {
        for index in (0..self.spec.workers).filter(|&index| !merge.is_done(index)) {
            running.push(self.spawn_worker(ShardTask { index, attempt: 0 })?);
        }
        while !running.is_empty() {
            // Poll the fleet: reap exits, detect wedges, re-issue the dead.
            let mut index = 0;
            while index < running.len() {
                let exited = running[index]
                    .child
                    .try_wait()
                    .map_err(|e| format!("cannot poll a worker: {e}"))?;
                let stale = running[index]
                    .heartbeat
                    .lock()
                    .expect("heartbeat poisoned")
                    .elapsed()
                    > self.heartbeat_timeout;
                let (task, death) = match exited {
                    Some(status) => {
                        let worker = running.swap_remove(index);
                        match self.settle_exit(worker, status, merge) {
                            Ok(()) => continue,
                            Err(dead) => dead,
                        }
                    }
                    None if stale => {
                        let worker = running.swap_remove(index);
                        let task = worker.task;
                        worker.kill_and_reap();
                        (task, Death::Wedged)
                    }
                    None => {
                        index += 1;
                        continue;
                    }
                };
                running.push(self.spawn_worker(self.reissue(task, death)?)?);
            }
            thread::sleep(POLL_INTERVAL);
        }
        Ok(())
    }

    /// Builds the exact `semint sweep` invocation for one shard attempt.
    /// The worker re-derives its slice from `--seeds`/`--shard`, so a
    /// re-issued attempt is the *same* deterministic work, not an
    /// approximation.
    fn worker_command(&self, task: ShardTask) -> (Command, PathBuf) {
        // The pid keeps a worker orphaned by a killed supervisor from
        // writing over the next supervisor's report for the same attempt.
        let out_path = self.state_dir.join(format!(
            "shard{}-attempt{}-{}.part",
            task.index,
            task.attempt,
            std::process::id()
        ));
        let mut cmd = Command::new(self.binary);
        cmd.arg("sweep")
            .args(self.spec.sweep_args())
            .arg("--shard")
            .arg(self.spec.shard(task.index).spec())
            .arg("--save")
            .arg(&out_path)
            // The progress line is the heartbeat.  NOT --time: timings are
            // nondeterministic.
            .arg("--progress");
        if let Some(fault) = self.spec.fault {
            // Only the first attempt is sabotaged: the re-issue must
            // succeed, which is exactly what the recovery tests assert.
            if task.attempt == 0 && fault.shard == task.index {
                let after = fault.after.to_string();
                match fault.kind {
                    FaultKind::Crash => {
                        cmd.arg("--die-after").arg(after);
                    }
                    FaultKind::Wedge => {
                        cmd.arg("--wedge-after").arg(after);
                    }
                    FaultKind::CorruptReport => {
                        cmd.arg("--corrupt-save").arg("garbage");
                    }
                    FaultKind::TruncateReport => {
                        cmd.arg("--corrupt-save").arg("truncate");
                    }
                }
            }
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        (cmd, out_path)
    }

    fn spawn_worker(&self, task: ShardTask) -> Result<Worker, String> {
        let (mut cmd, out_path) = self.worker_command(task);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn worker {}: {e}", self.binary.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let heartbeat = Arc::new(Mutex::new(Instant::now()));
        let tail = Arc::new(Mutex::new(String::new()));
        let beat = Arc::clone(&heartbeat);
        let tail_sink = Arc::clone(&tail);
        let reader = thread::spawn(move || {
            let mut stderr = stderr;
            let mut buf = [0u8; 512];
            loop {
                match stderr.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        *beat.lock().expect("heartbeat poisoned") = Instant::now();
                        let mut tail = tail_sink.lock().expect("stderr tail poisoned");
                        tail.push_str(&String::from_utf8_lossy(&buf[..n]));
                        if tail.chars().count() > 500 {
                            let keep: String = tail
                                .chars()
                                .rev()
                                .take(500)
                                .collect::<Vec<_>>()
                                .iter()
                                .rev()
                                .collect();
                            *tail = keep;
                        }
                    }
                }
            }
        });
        eprintln!("[fleet] {} started", self.shard_label(task));
        self.journal_event(&JournalEvent::ShardStarted {
            shard: task.index,
            attempt: task.attempt,
        });
        Ok(Worker {
            task,
            child,
            heartbeat,
            tail,
            out_path,
            reader: Some(reader),
        })
    }

    /// Handles a worker that exited on its own: validate its report,
    /// checkpoint it (write-ahead: synced to the state dir and journaled
    /// *before* the in-memory merge), or classify the death for re-issue.
    fn settle_exit(
        &self,
        mut worker: Worker,
        status: ExitStatus,
        merge: &mut RollingMerge,
    ) -> Result<(), (ShardTask, Death)> {
        if let Some(reader) = worker.reader.take() {
            let _ = reader.join();
        }
        let task = worker.task;
        // Exit 0 = clean, 1 = sweep completed but found failures — both
        // write the report, and failures must flow into the merge.
        // Anything else (2 = usage, 42 = injected fault, signals) is a
        // crash.
        if !matches!(status.code(), Some(0 | 1)) {
            let tail = worker.stderr_tail();
            let _ = std::fs::remove_file(&worker.out_path);
            return Err((task, Death::Crashed(status, tail)));
        }
        let text = std::fs::read_to_string(&worker.out_path);
        let _ = std::fs::remove_file(&worker.out_path);
        let text = text.map_err(|e| (task, Death::BadReport(e.to_string())))?;
        let report = SweepReport::from_tsv(&text).map_err(|e| (task, Death::BadReport(e)))?;
        // The report parsed: checkpoint it durably before the merge sees
        // it, so a journaled `shard-saved` always points at real bytes.
        let name = checkpoint_name(task.index);
        if let Err(e) = write_synced(&self.state_dir.join(&name), text.as_bytes()) {
            return Err((task, Death::BadReport(format!("checkpoint failed: {e}"))));
        }
        self.journal_event(&JournalEvent::ShardSaved {
            shard: task.index,
            attempt: task.attempt,
            path: name,
            digest: content_digest(text.as_bytes()),
        });
        merge
            .absorb_shard(task.index, &report)
            .expect("the fleet never issues an already-merged shard");
        eprintln!(
            "[fleet] {} saved ({}/{} shards merged)",
            self.shard_label(task),
            merge.shards_done(),
            merge.shards_total()
        );
        Ok(())
    }

    /// Returns the re-issue of a dead worker's slice, or — once the retry
    /// budget is spent — the reason the sweep must be abandoned.
    fn reissue(&self, task: ShardTask, death: Death) -> Result<ShardTask, String> {
        let what = format!(
            "{} {}",
            self.shard_label(task),
            death.describe(self.heartbeat_timeout)
        );
        if task.attempt >= MAX_RETRIES {
            return Err(format!("{what}; retry budget ({MAX_RETRIES}) exhausted"));
        }
        eprintln!("[fleet] {what}; re-issuing");
        // Journaled only on an actual re-issue: abandonment is the sweep's
        // failure, reported to the caller.
        self.journal_event(&JournalEvent::ShardDied {
            shard: task.index,
            attempt: task.attempt,
            reason: what,
        });
        Ok(ShardTask {
            index: task.index,
            attempt: task.attempt + 1,
        })
    }
}

/// Writes `bytes` to `path` and fsyncs before returning: checkpoint files
/// must be durable before the journal references them.
fn write_synced(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}
