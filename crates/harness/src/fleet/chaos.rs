//! `semint chaos` — a deterministic fault-injection drill against a live
//! supervised sweep.
//!
//! Each round derives a [`FaultPlan`] and a kill point from the drill seed
//! (the fault kind cycles through [`FaultKind::ALL`]; shard, trigger and
//! kill point come from splitmix64 over the seed and round — no clocks, no
//! OS randomness).  It spawns a real `semint sweep --workers W --state-dir`
//! process carrying the fault, SIGKILLs it once the journal shows the
//! scheduled number of shard checkpoints, and reruns the same command with
//! `--resume`.  The drill then asserts the fleet's whole point:
//!
//! 1. the resumed sweep's saved per-case digests are byte-identical to an
//!    uninterrupted in-process [`sweep_all`] over the same seeds,
//! 2. its merged [`semint_core::VmCounters`] (and scenario counts) match
//!    that baseline exactly, and
//! 3. no shard that was checkpointed before the kill was started again
//!    after the resume — recovery re-issues only unaccounted slices.
//!
//! Every round gets its own state dir under [`ChaosConfig::state_root`];
//! the journal, the merged report and `sweep.log` (both runs' stdout and
//! stderr) are left behind for post-mortems (CI uploads them as artifacts).

use std::collections::BTreeSet;
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use semint_core::case::GenProfile;
use semint_core::stats::SweepReport;

use super::journal::{self, Journal, JournalEvent};
use super::spec::{FaultKind, FaultPlan, SweepSpec};
use crate::cases::AnyCase;
use crate::engine::{sweep_all, SweepConfig};

/// Everything one chaos run needs: which binary to torture, the sweep
/// every round runs, and where per-round state dirs live.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The `semint` binary to run as the supervised sweep (and,
    /// transitively, as its shard workers) — normally the drill's own
    /// executable.
    pub binary: PathBuf,
    /// Drill seed: the fault schedule is a pure function of this and the
    /// round index.
    pub seed: u64,
    /// How many kill-and-resume rounds to run.
    pub rounds: u64,
    /// The sweep every round runs; each round replaces its fault with the
    /// scheduled one, and the fault shard is picked modulo `workers`.
    pub spec: SweepSpec,
    /// Heartbeat timeout handed to the sweep: how fast wedged workers are
    /// detected.  Keep it well above a shard's honest runtime.
    pub worker_timeout_ms: u64,
    /// Per-round state dirs (`round0`, `round1`, …) are created in here.
    pub state_root: PathBuf,
    /// Print per-round progress to stdout (the CLI mode; tests stay quiet).
    pub echo: bool,
}

/// What one kill-and-resume round observed.  The drill's verdict is
/// [`DrillOutcome::invariant_holds`]; the rest is post-mortem context.
#[derive(Debug, Clone)]
pub struct DrillOutcome {
    /// Round index (0-based).
    pub round: u64,
    /// The fault this round injected.
    pub plan: FaultPlan,
    /// How many shard checkpoints the round waited for before the kill.
    pub kill_after_saves: u64,
    /// Shards the journal showed checkpointed when the sweep was killed.
    pub saved_before_kill: BTreeSet<u64>,
    /// Checkpointed shards the resumed sweep started *again* — must be
    /// empty, or recovery re-ran work it already had.
    pub rerun_after_resume: BTreeSet<u64>,
    /// Shard re-issues across both sweep lives (the injected fault
    /// guarantees at least one unless the kill pre-empted it).
    pub retries: u64,
    /// Resumed per-case digests == uninterrupted baseline digests.
    pub digests_match: bool,
    /// Resumed per-case `VmCounters` and scenario counts == baseline.
    pub counters_match: bool,
    /// This round's state dir (journal + checkpoints + sweep.log).
    pub state_dir: PathBuf,
}

impl DrillOutcome {
    /// The crash-safety invariant: digests and counters byte-identical to
    /// an uninterrupted sweep, with no checkpointed shard re-run.
    pub fn invariant_holds(&self) -> bool {
        self.digests_match && self.counters_match && self.rerun_after_resume.is_empty()
    }
}

/// splitmix64: the standard 64-bit mixer — tiny, seedable, and plenty for
/// deriving fault schedules.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives round `round`'s fault plan and kill point from the drill seed.
/// A pure function: the same `--seed` replays the same schedule, and any
/// run of [`FaultKind::ALL`]`.len()` consecutive rounds drills every kind.
fn schedule(cfg: &ChaosConfig, round: u64) -> (FaultPlan, u64) {
    let kinds = FaultKind::ALL.len() as u64;
    let kind = FaultKind::ALL[(cfg.seed.wrapping_add(round) % kinds) as usize];
    let mut state =
        cfg.seed.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ round.wrapping_add(1);
    let shard = splitmix64(&mut state) % cfg.spec.workers;
    let after = 1 + splitmix64(&mut state) % 5;
    // 0 kills the sweep as soon as its spec is journaled; workers-1 kills
    // it with only one shard outstanding.
    let kill_after_saves = splitmix64(&mut state) % cfg.spec.workers;
    (FaultPlan { shard, after, kind }, kill_after_saves)
}

/// A spawned `semint sweep --workers` process.  Dropping it *is* the
/// chaos: the child is SIGKILLed, never stopped cleanly.
struct SweepProc(Child);

impl Drop for SweepProc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns the round's supervised sweep over `state_dir`, appending its
/// stdout and stderr to the round's `sweep.log`.
fn spawn_sweep(
    cfg: &ChaosConfig,
    spec: &SweepSpec,
    state_dir: &Path,
    resume: bool,
) -> Result<SweepProc, String> {
    let log_path = state_dir.join("sweep.log");
    let log = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log_path)
        .map_err(|e| format!("cannot open {}: {e}", log_path.display()))?;
    let log_err = log
        .try_clone()
        .map_err(|e| format!("cannot share {}: {e}", log_path.display()))?;
    let mut command = Command::new(&cfg.binary);
    command
        .arg("sweep")
        .args(spec.sweep_args())
        .args(["--workers", &spec.workers.to_string()])
        .args(spec.fault.map(|fault| fault.args()).unwrap_or_default())
        .args(["--worker-timeout-ms", &cfg.worker_timeout_ms.to_string()])
        .arg("--state-dir")
        .arg(state_dir)
        .arg("--save")
        .arg(state_dir.join("merged.tsv"))
        .stdin(Stdio::null())
        .stdout(log)
        .stderr(log_err);
    if resume {
        command.arg("--resume");
    }
    command
        .spawn()
        .map(SweepProc)
        .map_err(|e| format!("cannot spawn {} sweep: {e}", cfg.binary.display()))
}

/// Polls the journal until it records the sweep's spec and `want`
/// checkpointed shards.  A sweep that exits first without them failed.
fn wait_for_saves(
    sweep: &mut SweepProc,
    state_dir: &Path,
    want: u64,
    deadline: Duration,
) -> Result<BTreeSet<u64>, String> {
    let path = Journal::path_in(state_dir);
    let start = Instant::now();
    loop {
        // Polled before the journal is read, so a sweep that has exited is
        // judged on its final journal.
        let exited = sweep
            .0
            .try_wait()
            .map_err(|e| format!("cannot poll the sweep: {e}"))?;
        // A concurrent append can leave a torn final line mid-read; replay
        // tolerates exactly that.
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        if let Ok(recovered) = journal::replay(&text) {
            if recovered.saved.len() as u64 >= want {
                return Ok(recovered.saved.keys().copied().collect());
            }
        }
        if let Some(status) = exited {
            return Err(format!(
                "the sweep exited ({status}) before {want} checkpoints (see {}/sweep.log)",
                state_dir.display()
            ));
        }
        if start.elapsed() > deadline {
            return Err(format!(
                "journal {} never showed {want} checkpointed shards",
                path.display()
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Waits for a sweep to finish on its own; `Ok` once it has exited 0 or 1
/// (completed, with or without failures).
fn wait_for_exit(mut sweep: SweepProc, state_dir: &Path, deadline: Duration) -> Result<(), String> {
    let start = Instant::now();
    loop {
        if let Some(status) = sweep
            .0
            .try_wait()
            .map_err(|e| format!("cannot poll the sweep: {e}"))?
        {
            return match status.code() {
                Some(0 | 1) => Ok(()),
                _ => Err(format!(
                    "the resumed sweep failed ({status}; see {}/sweep.log)",
                    state_dir.display()
                )),
            };
        }
        if start.elapsed() > deadline {
            return Err(format!(
                "the resumed sweep did not finish within {deadline:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Partitions the journal at its **last** `sweep-resumed` marker and
/// returns (shards checkpointed before it, checkpointed shards started
/// again after it).  The second set non-empty means recovery re-ran work
/// it had already verified.
fn analyze_journal(text: &str) -> Result<(BTreeSet<u64>, BTreeSet<u64>), String> {
    let events: Vec<JournalEvent> = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .filter_map(|line| journal::parse_event(line).ok())
        .collect();
    let resume_at = events
        .iter()
        .rposition(|event| matches!(event, JournalEvent::Resumed { .. }))
        .ok_or("the journal holds no sweep-resumed marker; did --resume run?")?;
    let saved_before: BTreeSet<u64> = events[..resume_at]
        .iter()
        .filter_map(|event| match event {
            JournalEvent::ShardSaved { shard, .. } => Some(*shard),
            _ => None,
        })
        .collect();
    let started_after: BTreeSet<u64> = events[resume_at..]
        .iter()
        .filter_map(|event| match event {
            JournalEvent::ShardStarted { shard, .. } => Some(*shard),
            _ => None,
        })
        .collect();
    let rerun = saved_before.intersection(&started_after).copied().collect();
    Ok((saved_before, rerun))
}

/// The uninterrupted truth every round is compared against: an in-process
/// one-shot sweep over the drill's spec.
fn baseline_report(spec: &SweepSpec) -> Result<SweepReport, String> {
    let cases =
        match spec.case.as_str() {
            "all" => AnyCase::all(false),
            name => vec![AnyCase::by_name(name, false)
                .ok_or_else(|| format!("unknown case study {name:?}"))?],
        };
    let profile = GenProfile::by_name(&spec.profile)
        .ok_or_else(|| format!("unknown profile {:?} (chaos needs a preset)", spec.profile))?;
    let sweep_cfg = SweepConfig {
        jobs: spec.jobs,
        profile,
        model_check: spec.model_check,
        batch: spec.batch,
        ..SweepConfig::default()
    };
    Ok(sweep_all(&cases, &spec.range(), &sweep_cfg))
}

/// Compares the resumed sweep's saved report against the baseline:
/// per-case digests, scenario counts, and full `VmCounters`.
fn compare(baseline: &SweepReport, saved: &Path) -> Result<(bool, bool), String> {
    let text = std::fs::read_to_string(saved)
        .map_err(|e| format!("cannot read the resumed sweep's report: {e}"))?;
    let merged = SweepReport::from_tsv(&text)
        .map_err(|e| format!("the resumed sweep's report does not parse: {e}"))?;
    let digests = |r: &SweepReport| r.cases.iter().map(|c| c.digest()).collect::<Vec<_>>();
    let counters_match = merged.cases.len() == baseline.cases.len()
        && merged.cases.iter().zip(&baseline.cases).all(|(got, want)| {
            got.case == want.case
                && got.scenarios == want.scenarios
                && got.counters == want.counters
        });
    Ok((digests(&merged) == digests(baseline), counters_match))
}

/// One kill-and-resume round: fresh state dir, one faulted sweep, a
/// SIGKILL at the scheduled checkpoint count, a `--resume` rerun, and the
/// invariance checks.
fn run_round(
    cfg: &ChaosConfig,
    baseline: &SweepReport,
    round: u64,
) -> Result<DrillOutcome, String> {
    let (plan, kill_after_saves) = schedule(cfg, round);
    let state_dir = cfg.state_root.join(format!("round{round}"));
    std::fs::create_dir_all(&state_dir)
        .map_err(|e| format!("cannot create {}: {e}", state_dir.display()))?;
    if cfg.echo {
        println!(
            "chaos round {round}: fault {} on shard {} after {} scenarios, \
             kill after {kill_after_saves} checkpoints",
            plan.kind.label(),
            plan.shard,
            plan.after
        );
    }
    let spec = SweepSpec {
        fault: Some(plan),
        ..cfg.spec.clone()
    };
    let mut sweep = spawn_sweep(cfg, &spec, &state_dir, false)?;
    let saved_before_kill = wait_for_saves(
        &mut sweep,
        &state_dir,
        kill_after_saves,
        Duration::from_secs(240),
    )?;
    // SIGKILL mid-sweep: no cleanup — exactly what crash-safety is
    // supposed to survive.
    drop(sweep);
    if cfg.echo {
        println!(
            "chaos round {round}: sweep killed with shards {saved_before_kill:?} checkpointed; \
             resuming"
        );
    }
    let resumed = spawn_sweep(cfg, &spec, &state_dir, true)?;
    wait_for_exit(resumed, &state_dir, Duration::from_secs(600))?;
    let (digests_match, counters_match) = compare(baseline, &state_dir.join("merged.tsv"))?;

    let text = std::fs::read_to_string(Journal::path_in(&state_dir))
        .map_err(|e| format!("cannot read the round's journal: {e}"))?;
    let (saved_journaled, rerun_after_resume) = analyze_journal(&text)?;
    debug_assert!(saved_journaled.is_superset(&saved_before_kill));
    Ok(DrillOutcome {
        round,
        plan,
        kill_after_saves,
        saved_before_kill,
        rerun_after_resume,
        retries: journal::replay(&text)?.retries,
        digests_match,
        counters_match,
        state_dir,
    })
}

/// Runs `cfg.rounds` kill-and-resume rounds and returns every outcome
/// (pass and fail alike — the caller renders and judges them).  The
/// uninterrupted baseline is swept once, in-process, up front.
pub fn run_drills(cfg: &ChaosConfig) -> Result<Vec<DrillOutcome>, String> {
    if cfg.rounds == 0 {
        return Err("chaos needs at least one round".into());
    }
    cfg.spec.validate()?;
    let baseline = baseline_report(&cfg.spec)?;
    if cfg.echo {
        println!(
            "chaos baseline: {} scenarios over seeds {}",
            baseline.scenarios(),
            cfg.spec.range().spec()
        );
    }
    let mut outcomes = Vec::with_capacity(cfg.rounds as usize);
    for round in 0..cfg.rounds {
        outcomes.push(run_round(cfg, &baseline, round)?);
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ChaosConfig {
        ChaosConfig {
            binary: PathBuf::from("semint"),
            seed: 7,
            rounds: 4,
            spec: SweepSpec {
                seeds: (0, 30),
                profile: "default".into(),
                case: "all".into(),
                workers: 4,
                jobs: 2,
                batch: 4,
                model_check: false,
                fault: None,
            },
            worker_timeout_ms: 4000,
            state_root: PathBuf::from("chaos-state"),
            echo: false,
        }
    }

    #[test]
    fn schedules_are_deterministic_in_bounds_and_seed_sensitive() {
        let cfg = config();
        for round in 0..cfg.rounds {
            let (plan, kill) = schedule(&cfg, round);
            assert_eq!((plan, kill), schedule(&cfg, round), "pure function");
            assert!(plan.shard < cfg.spec.workers);
            assert!((1..=5).contains(&plan.after));
            assert!(kill < cfg.spec.workers);
        }
        let reseeded = ChaosConfig {
            seed: 8,
            ..config()
        };
        assert!(
            (0..cfg.rounds).any(|r| schedule(&cfg, r) != schedule(&reseeded, r)),
            "different seeds must produce different schedules"
        );
    }

    #[test]
    fn any_four_consecutive_rounds_cover_all_four_fault_kinds() {
        for seed in [0, 1, 7, u64::MAX - 2] {
            let cfg = ChaosConfig { seed, ..config() };
            for first in 0..8 {
                let kinds: BTreeSet<&str> = (first..first + 4)
                    .map(|round| schedule(&cfg, round).0.kind.label())
                    .collect();
                assert_eq!(kinds.len(), FaultKind::ALL.len(), "seed {seed}: {kinds:?}");
            }
        }
    }

    #[test]
    fn journal_analysis_partitions_at_the_last_resume() {
        let lines = [
            JournalEvent::SweepStarted {
                spec: SweepSpec {
                    workers: 3,
                    ..config().spec
                },
            },
            JournalEvent::ShardStarted {
                shard: 0,
                attempt: 0,
            },
            JournalEvent::ShardSaved {
                shard: 0,
                attempt: 0,
                path: "shard0.tsv".into(),
                digest: "fnv1a:0".into(),
            },
            JournalEvent::Resumed { adopted: 1 },
            JournalEvent::ShardStarted {
                shard: 1,
                attempt: 0,
            },
            JournalEvent::ShardStarted {
                shard: 0,
                attempt: 1,
            },
        ];
        let text: String = lines
            .iter()
            .map(|e| format!("{}\n", journal::render_event(e)))
            .collect();
        let (saved, rerun) = analyze_journal(&text).expect("analyzes");
        assert_eq!(saved, BTreeSet::from([0]));
        // Shard 0 was checkpointed before the kill yet started again after
        // the resume: the invariant the drill exists to catch.
        assert_eq!(rerun, BTreeSet::from([0]));
        let clean = text.replace(
            &journal::render_event(&JournalEvent::ShardStarted {
                shard: 0,
                attempt: 1,
            }),
            "",
        );
        let (_, rerun) = analyze_journal(&clean).expect("analyzes");
        assert!(rerun.is_empty());
        assert!(analyze_journal("").unwrap_err().contains("sweep-resumed"));
    }

    #[test]
    fn zero_rounds_and_zero_workers_are_rejected_before_any_spawn() {
        let err = run_drills(&ChaosConfig {
            rounds: 0,
            ..config()
        })
        .unwrap_err();
        assert!(err.contains("round"), "{err}");
        let mut cfg = config();
        cfg.spec.workers = 0;
        let err = run_drills(&cfg).unwrap_err();
        assert!(err.contains("shard"), "{err}");
    }

    #[test]
    fn the_invariant_requires_all_three_checks() {
        let outcome = DrillOutcome {
            round: 0,
            plan: FaultPlan {
                shard: 0,
                after: 1,
                kind: FaultKind::Crash,
            },
            kill_after_saves: 1,
            saved_before_kill: BTreeSet::from([2]),
            rerun_after_resume: BTreeSet::new(),
            retries: 1,
            digests_match: true,
            counters_match: true,
            state_dir: PathBuf::from("chaos-state/round0"),
        };
        assert!(outcome.invariant_holds());
        assert!(!DrillOutcome {
            digests_match: false,
            ..outcome.clone()
        }
        .invariant_holds());
        assert!(!DrillOutcome {
            counters_match: false,
            ..outcome.clone()
        }
        .invariant_holds());
        assert!(!DrillOutcome {
            rerun_after_resume: BTreeSet::from([2]),
            ..outcome
        }
        .invariant_holds());
    }
}
