//! Sweep observation: the `--progress` live stderr line, and the
//! `--die-after`/`--wedge-after` fault hooks.
//!
//! A [`SweepObserver`] is handed to the observed sweep entry point
//! ([`crate::engine::sweep_all_observed`]) and receives one callback per
//! finished scenario, from whichever worker finished it.  Observation never
//! feeds back into results: an observed sweep's digests, counters and
//! hottest seeds are byte-identical to an unobserved one's, which the
//! integration suite asserts.  Supervised shard workers run with
//! `--progress`, so the rolling line doubles as their heartbeat.

use semint_core::stats::ScenarioRecord;
use semint_core::GlueCacheStats;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

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
/// finish them and renders the rolling progress line.  `Sync` — one
/// instance is shared by every worker in the pool.
pub struct SweepObserver {
    total: u64,
    started: Instant,
    done: AtomicU64,
    safe: AtomicU64,
    /// The latest glue-cache snapshot per case, keyed by
    /// [`semint_core::case::CaseStudy::name`].
    glue: Mutex<BTreeMap<&'static str, GlueCacheStats>>,
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

impl SweepObserver {
    /// Creates an observer for a sweep expected to run `total` scenarios;
    /// `progress` enables the rolling stderr line.
    pub fn new(total: u64, progress: bool) -> SweepObserver {
        SweepObserver {
            total,
            started: Instant::now(),
            done: AtomicU64::new(0),
            safe: AtomicU64::new(0),
            glue: Mutex::new(BTreeMap::new()),
            progress,
            last_render_us: AtomicU64::new(0),
            die_after: None,
            wedge_after: None,
            wedged: AtomicBool::new(false),
        }
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
    pub fn scenario(
        &self,
        case: &'static str,
        record: &ScenarioRecord,
        glue: Option<GlueCacheStats>,
    ) {
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
                .insert(case, snapshot);
        }
        if self.progress && !self.wedged.load(Ordering::Relaxed) {
            self.render_progress(done, false);
        }
    }

    /// Finishes the observation: settles the progress line.
    pub fn finish(self) {
        if self.progress {
            self.render_progress(self.done.load(Ordering::Relaxed), true);
            eprintln!();
        }
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
