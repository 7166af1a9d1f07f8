//! Tier-B telemetry: the `--trace` JSONL event stream and the `--progress`
//! live stderr line.
//!
//! Tier A (the deterministic [`semint_core::VmCounters`]) is digest-grade
//! and always on; this module is the *observational* tier.  A
//! [`SweepObserver`] is handed to the observed sweep entry points
//! ([`crate::engine::sweep_all_observed`]) and receives one callback per
//! finished scenario, from whichever worker finished it.  Observation never
//! feeds back into results: the headline guarantee is that a traced sweep's
//! digests and counters are byte-identical to an untraced one, which the
//! integration suite asserts.
//!
//! The trace is written by a **dedicated writer thread** fed through a
//! bounded channel, so workers never block on disk I/O (they block only on
//! backpressure when the writer falls behind, which bounds memory instead
//! of growing an unbounded queue).  Each event is one self-contained JSON
//! line; event *order across workers* is scheduling-dependent by design —
//! `semint profile` aggregates order-insensitively.

use crate::json::escape_json;
use semint_core::stats::ScenarioRecord;
use semint_core::GlueCacheStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

/// Capacity of the worker → writer-thread channel.  Full means workers
/// briefly block on `send` (backpressure) rather than queueing without
/// bound.
pub const TRACE_CHANNEL_CAPACITY: usize = 1024;

/// A `sweep-progress` heartbeat event is interleaved into the trace every
/// this many finished scenarios.
pub const HEARTBEAT_EVERY: u64 = 64;

/// The `--progress` stderr line redraws at most this often.
const PROGRESS_MIN_INTERVAL_US: u64 = 100_000;

/// Exit code of a process killed by `--die-after` fault injection, chosen to
/// collide with nothing the CLI returns itself (0/1/2).  The `sweep
/// --workers` supervisor treats it like any other crash — that is the
/// point: the flag exists so supervision tests can kill a shard worker
/// mid-sweep deterministically.
pub const FAULT_EXIT_CODE: i32 = 42;

/// The parent process id, which changes when the parent dies and the
/// process is reparented (constant where the platform cannot tell).
#[cfg(unix)]
fn parent_id() -> u32 {
    std::os::unix::process::parent_id()
}

#[cfg(not(unix))]
fn parent_id() -> u32 {
    0
}

/// Shared observation sink for one sweep: counts scenarios as workers
/// finish them, streams JSONL events to the trace writer thread, and
/// renders the rolling progress line.  `Sync` — one instance is shared by
/// every worker in the pool.
pub struct SweepObserver {
    total: u64,
    started: Instant,
    done: AtomicU64,
    safe: AtomicU64,
    glue: Mutex<BTreeMap<String, GlueCacheStats>>,
    trace: Option<TraceWriter>,
    progress: bool,
    last_render_us: AtomicU64,
    /// `--die-after N` fault injection: abort the whole process with
    /// [`FAULT_EXIT_CODE`] once this many scenarios have finished.
    die_after: Option<u64>,
    /// `--wedge-after N` fault injection: the worker thread that finishes
    /// the `n`-th scenario never returns, and this flag mutes all further
    /// progress output so the process as a whole goes silent.
    wedge_after: Option<u64>,
    wedged: AtomicBool,
}

struct TraceWriter {
    /// `SyncSender` is `!Sync`, so the shared observer hands it to workers
    /// through a mutex; the send itself is nearly free (the writer thread
    /// owns all buffering and I/O).
    sender: Mutex<SyncSender<String>>,
    handle: JoinHandle<io::Result<()>>,
}

impl SweepObserver {
    /// Creates an observer for a sweep expected to run `total` scenarios.
    /// `trace_path` opens (truncating) the JSONL trace file and spawns the
    /// writer thread; `progress` enables the rolling stderr line.
    pub fn new(total: u64, trace_path: Option<&Path>, progress: bool) -> io::Result<SweepObserver> {
        let trace = match trace_path {
            None => None,
            Some(path) => {
                let file = File::create(path)?;
                let (sender, receiver) = sync_channel::<String>(TRACE_CHANNEL_CAPACITY);
                let handle = std::thread::spawn(move || -> io::Result<()> {
                    let mut out = BufWriter::new(file);
                    for line in receiver {
                        out.write_all(line.as_bytes())?;
                    }
                    out.flush()
                });
                Some(TraceWriter {
                    sender: Mutex::new(sender),
                    handle,
                })
            }
        };
        Ok(SweepObserver {
            total,
            started: Instant::now(),
            done: AtomicU64::new(0),
            safe: AtomicU64::new(0),
            glue: Mutex::new(BTreeMap::new()),
            trace,
            progress,
            last_render_us: AtomicU64::new(0),
            die_after: None,
            wedge_after: None,
            wedged: AtomicBool::new(false),
        })
    }

    /// Arms `--die-after N` fault injection: the process aborts with
    /// [`FAULT_EXIT_CODE`] the moment the `n`-th scenario finishes, leaving
    /// any `--save` file unwritten — from a supervisor's point of view, a
    /// genuine mid-sweep crash.  `None` disarms (the default).
    pub fn with_fault(mut self, die_after: Option<u64>) -> SweepObserver {
        self.die_after = die_after;
        self
    }

    /// Arms `--wedge-after N` fault injection: the worker thread that
    /// finishes the `n`-th scenario goes silent and never returns, and all
    /// further progress output is muted — the process keeps running but
    /// stops heartbeating, so a supervisor's only remedy is its heartbeat
    /// timeout.  `None` disarms (the default).
    pub fn with_wedge(mut self, wedge_after: Option<u64>) -> SweepObserver {
        self.wedge_after = wedge_after;
        self
    }

    /// Records one finished scenario.  `glue` is the case's *cumulative*
    /// cache snapshot at observation time (observational, not digest-grade:
    /// concurrent workers may interleave between execution and snapshot).
    pub fn scenario(&self, case: &str, record: &ScenarioRecord, glue: Option<GlueCacheStats>) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if self.die_after == Some(done) {
            eprintln!("[fault] --die-after {done}: aborting mid-sweep (injected crash)");
            std::process::exit(FAULT_EXIT_CODE);
        }
        if self.wedge_after == Some(done) {
            // One farewell beat, then total silence: other pool threads
            // keep sweeping but the wedged flag mutes their progress, and
            // this thread never returns — the process cannot finish, write
            // its report, or exit.  Only a heartbeat timeout catches it, or
            // the death of the supervisor that spawned it: a wedged orphan
            // of a SIGKILLed supervisor exits instead of lingering.
            eprintln!("[fault] --wedge-after {done}: worker going silent (injected wedge)");
            self.wedged.store(true, Ordering::SeqCst);
            let parent = parent_id();
            while parent_id() == parent {
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            std::process::exit(FAULT_EXIT_CODE);
        }
        if record.failure.is_none() {
            self.safe.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(snapshot) = glue {
            self.glue
                .lock()
                .expect("glue snapshots poisoned")
                .insert(case.to_string(), snapshot);
        }
        if self.trace.is_some() {
            self.emit(scenario_line(case, record, glue.as_ref()));
            if done.is_multiple_of(HEARTBEAT_EVERY) {
                self.emit(self.progress_line(done));
            }
        }
        if self.progress && !self.wedged.load(Ordering::Relaxed) {
            self.render_progress(done, false);
        }
    }

    /// Finishes the observation: emits the final heartbeat, settles the
    /// progress line, closes the channel, and joins the writer thread,
    /// surfacing any I/O error the writer hit.
    pub fn finish(self) -> io::Result<()> {
        let done = self.done.load(Ordering::Relaxed);
        if self.trace.is_some() {
            self.emit(self.progress_line(done));
        }
        if self.progress {
            self.render_progress(done, true);
            eprintln!();
        }
        if let Some(writer) = self.trace {
            drop(writer.sender.into_inner().expect("trace sender poisoned"));
            return writer.handle.join().expect("trace writer thread panicked");
        }
        Ok(())
    }

    fn emit(&self, line: String) {
        if let Some(writer) = &self.trace {
            // A dead writer thread (e.g. the disk filled up) just drops
            // events; the sweep itself never fails because tracing did.
            let _ = writer
                .sender
                .lock()
                .expect("trace sender poisoned")
                .send(line);
        }
    }

    fn progress_line(&self, done: u64) -> String {
        format!(
            "{{\"event\":\"sweep-progress\",\"done\":{done},\"total\":{},\"safe\":{},\"elapsed_us\":{}}}\n",
            self.total,
            self.safe.load(Ordering::Relaxed),
            self.started.elapsed().as_micros()
        )
    }

    fn render_progress(&self, done: u64, force: bool) {
        let elapsed_us = (self.started.elapsed().as_micros() as u64).max(1);
        if !force {
            let last = self.last_render_us.load(Ordering::Relaxed);
            if elapsed_us.saturating_sub(last) < PROGRESS_MIN_INTERVAL_US
                || self
                    .last_render_us
                    .compare_exchange(last, elapsed_us, Ordering::Relaxed, Ordering::Relaxed)
                    .is_err()
            {
                return;
            }
        }
        let safe = self.safe.load(Ordering::Relaxed);
        let (hits, misses) = {
            let glue = self.glue.lock().expect("glue snapshots poisoned");
            glue.values()
                .fold((0u64, 0u64), |(h, m), s| (h + s.hits, m + s.misses))
        };
        let rate = done as f64 / (elapsed_us as f64 / 1e6);
        let safe_pct = if done > 0 {
            100.0 * safe as f64 / done as f64
        } else {
            100.0
        };
        let hit_pct = if hits + misses > 0 {
            100.0 * hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        let eta_s = if done > 0 && self.total > done {
            (self.total - done) as f64 / rate.max(1e-9)
        } else {
            0.0
        };
        eprint!(
            "\r[sweep] {done}/{} scenarios  {rate:.0}/s  safe {safe_pct:.1}%  glue hit {hit_pct:.1}%  eta {eta_s:.0}s   ",
            self.total
        );
        let _ = io::stderr().flush();
    }
}

/// Renders one finished scenario as a single JSONL `scenario` event.
/// Pre-run rejections (no [`ScenarioRecord::stats`]) report outcome
/// `"rejected"` with zero steps and zero counters; `stage_ns` (exact
/// per-stage nanoseconds) appears only on timed sweeps, `glue` only for
/// cases with a conversion cache.
pub fn scenario_line(case: &str, record: &ScenarioRecord, glue: Option<&GlueCacheStats>) -> String {
    let mut line = String::with_capacity(256);
    let _ = write!(
        line,
        "{{\"event\":\"scenario\",\"case\":\"{}\",\"seed\":{},\"boundaries\":{},\"program_chars\":{}",
        escape_json(case),
        record.seed,
        record.boundaries,
        record.program_chars
    );
    match &record.stats {
        Some(stats) => {
            let _ = write!(
                line,
                ",\"outcome\":\"{}\",\"steps\":{}",
                escape_json(&stats.outcome.to_string()),
                stats.steps
            );
            line.push_str(",\"counters\":{");
            for (i, (key, value)) in stats.counters.fields().iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "\"{key}\":{value}");
            }
            line.push('}');
        }
        None => line.push_str(",\"outcome\":\"rejected\",\"steps\":0,\"counters\":{}"),
    }
    let _ = write!(line, ",\"safe\":{}", record.failure.is_none());
    if let Some(failure) = &record.failure {
        let _ = write!(
            line,
            ",\"fail_stage\":\"{}\"",
            escape_json(&failure.stage.to_string())
        );
    }
    if let Some(timings) = &record.timings {
        line.push_str(",\"stage_ns\":{");
        for (i, (label, ns)) in timings.stages().iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "\"{label}\":{ns}");
        }
        line.push('}');
    }
    if let Some(snapshot) = glue {
        let _ = write!(
            line,
            ",\"glue\":{{\"hits\":{},\"misses\":{}}}",
            snapshot.hits, snapshot.misses
        );
    }
    line.push_str("}\n");
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use semint_core::stats::{OutcomeClass, RunStats, StageTimings};
    use semint_core::VmCounters;

    fn sample_record(seed: u64) -> ScenarioRecord {
        ScenarioRecord {
            seed,
            ty: "bool".into(),
            program_chars: 9,
            boundaries: 2,
            stats: Some(RunStats {
                outcome: OutcomeClass::Value,
                steps: 11,
                counters: VmCounters {
                    instr_data: 7,
                    instr_control: 1,
                    instr_fun: 2,
                    instr_heap: 1,
                    boundary_crossings: 2,
                    heap_allocs: 1,
                    heap_frees: 1,
                    heap_reuses: 0,
                    heap_peak_live: 1,
                    stack_peak: 3,
                },
            }),
            failure: None,
            timings: Some(StageTimings {
                generate_ns: 9_123,
                typecheck_ns: 8_000,
                compile_ns: 7_000,
                run_ns: 6_000,
                model_check_ns: 5_000,
            }),
        }
    }

    #[test]
    fn scenario_lines_are_single_json_lines_with_counters() {
        let glue = GlueCacheStats {
            hits: 4,
            misses: 2,
            entries: 3,
        };
        let line = scenario_line("sharedmem", &sample_record(5), Some(&glue));
        assert!(line.ends_with("}\n"));
        assert_eq!(line.matches('\n').count(), 1, "one event per line");
        assert!(line.contains("\"event\":\"scenario\""));
        assert!(line.contains("\"seed\":5"));
        assert!(line.contains("\"instr_data\":7"));
        assert!(line.contains("\"glue\":{\"hits\":4,\"misses\":2}"));
        // Stage times are exact nanoseconds, not truncated microseconds.
        assert!(line.contains("\"stage_ns\":{\"generate\":9123,\"typecheck\":8000,"));
        assert!(line.contains("\"model-check\":5000}"));
        assert!(line.contains("\"safe\":true"));
    }

    #[test]
    fn rejected_scenarios_trace_with_zero_steps() {
        let mut record = sample_record(3);
        record.stats = None;
        record.timings = None;
        record.failure = Some(semint_core::stats::FailureRecord {
            seed: 3,
            stage: semint_core::stats::FailStage::Typecheck,
            reason: "claimed bool, checked int".into(),
            witness: "w".into(),
            shrunk: "w".into(),
            shrink_steps: 0,
        });
        let line = scenario_line("affine", &record, None);
        assert!(line.contains("\"outcome\":\"rejected\""));
        assert!(line.contains("\"steps\":0"));
        assert!(line.contains("\"safe\":false"));
        assert!(line.contains("\"fail_stage\":\"typecheck\""));
        assert!(!line.contains("stage_ns"));
    }

    #[test]
    fn observer_writes_a_parseable_trace_and_counts_scenarios() {
        let path =
            std::env::temp_dir().join(format!("semint-trace-test-{}.jsonl", std::process::id()));
        let observer = SweepObserver::new(2, Some(&path), false).expect("trace file");
        observer.scenario("sharedmem", &sample_record(0), None);
        observer.scenario("sharedmem", &sample_record(1), None);
        observer.finish().expect("writer thread");
        let text = std::fs::read_to_string(&path).expect("trace written");
        let _ = std::fs::remove_file(&path);
        let events: Vec<&str> = text.lines().collect();
        // Two scenario events plus the final heartbeat.
        assert_eq!(events.len(), 3, "{text}");
        assert!(events[2].contains("\"event\":\"sweep-progress\""));
        assert!(events[2].contains("\"done\":2"));
        assert!(events[2].contains("\"safe\":2"));
    }
}
