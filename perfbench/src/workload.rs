//! The three workloads: their pipeline shapes, their seed-derived
//! populations, one measured repetition of each, and the reference each
//! repetition is checked against.

use crate::replay::Shape;
use crate::sys;
use semint_core::case::GenProfile;
use semint_core::stats::{CaseReport, SweepReport};
use semint_core::VmCounters;
use semint_harness::engine::{sweep_all, SweepConfig};
use semint_harness::source::Shard;
use semint_harness::{AnyCase, CaseStudy, ScenarioSource, SeedRange};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Instant;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `deep` profile, no model check, `--batch 8`, `--jobs` = cores,
    /// swept in-process through `semint_harness::sweep_all` with freshly
    /// built (cold-cache) case studies on every repetition.
    DeepSweep,
    /// The `boundary-heavy` profile with the model check on, `--batch 1`,
    /// `--jobs 1`, run as one `semint sweep` process per repetition.
    CheckedBoundary,
    /// The `default` profile with `--broken`: one `semint sweep --shard i/N
    /// --save` child per core, merged by `semint report`.
    BrokenSharded,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::DeepSweep,
        Workload::CheckedBoundary,
        Workload::BrokenSharded,
    ];

    /// Looks a workload up by its name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeepSweep => "deep-sweep",
            Workload::CheckedBoundary => "checked-boundary",
            Workload::BrokenSharded => "broken-sharded",
        }
    }

    /// The pipeline configuration the workload sweeps with.
    pub fn shape(self) -> Shape {
        match self {
            Workload::DeepSweep => Shape {
                profile: GenProfile::deep(),
                model_check: false,
                batch: 8,
                broken: false,
            },
            Workload::CheckedBoundary => Shape {
                profile: GenProfile::boundary_heavy(),
                model_check: true,
                batch: 1,
                broken: false,
            },
            Workload::BrokenSharded => Shape {
                profile: GenProfile::standard(),
                model_check: true,
                batch: 1,
                broken: true,
            },
        }
    }

    /// Seeds per case study in one repetition's population, sized so a
    /// repetition takes about a quarter of a second on a 2-core machine and
    /// a run makes a hundred or more.
    pub fn seeds_per_case(self) -> u64 {
        match self {
            Workload::DeepSweep => 1_600,
            Workload::CheckedBoundary => 2_000,
            Workload::BrokenSharded => 4_000,
        }
    }

    /// Processes or threads that run one repetition's scenarios at once.
    pub fn workers(self, jobs: usize) -> usize {
        if self == Workload::CheckedBoundary {
            1
        } else {
            jobs
        }
    }
}

/// The `semint sweep` flags that select a shape (population and
/// scheduling flags excluded).
fn shape_flags(shape: &Shape) -> Vec<String> {
    let mut flags = vec![
        "--profile".to_string(),
        shape.profile.name.to_string(),
        "--batch".to_string(),
        shape.batch.to_string(),
        if shape.model_check {
            "--model-check"
        } else {
            "--no-model-check"
        }
        .to_string(),
    ];
    if shape.broken {
        flags.push("--broken".into());
    }
    flags
}

/// The in-process sweep configuration for a shape.
pub fn sweep_config(shape: &Shape, jobs: usize) -> SweepConfig {
    SweepConfig {
        jobs,
        profile: shape.profile,
        model_check: shape.model_check,
        time: false,
        batch: shape.batch,
    }
}

/// The population a seed selects: `seeds_per_case` consecutive scenario
/// seeds starting at a seed-derived offset below 10^9.
pub fn population(workload: Workload, seed: u64) -> SeedRange {
    // splitmix64, so neighbouring benchmark seeds pick unrelated ranges.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let start = (z ^ (z >> 31)) % 1_000_000_000;
    SeedRange::new(start, start + workload.seeds_per_case()).expect("non-empty range")
}

/// Where repetitions run: the `semint` binary, a scratch directory for
/// saved reports, and the worker count (threads or shard processes).
pub struct Env {
    /// Path of the `semint` binary.
    pub semint: PathBuf,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
    /// `--jobs` for in-process sweeps, shard count for sharded ones.
    pub jobs: usize,
}

impl Env {
    fn semint(&self) -> Command {
        let mut cmd = Command::new(&self.semint);
        cmd.stdin(Stdio::null()).stderr(Stdio::inherit());
        cmd
    }
}

/// One measured repetition of a workload.
#[derive(Debug)]
pub struct Rep {
    /// Wall time of the repetition.
    pub wall_s: f64,
    /// CPU time of the process tree during the repetition.
    pub cpu_s: f64,
    /// Hypervisor steal across all CPUs during the repetition.
    pub steal_s: f64,
    /// The sweep's per-case summaries, or why the repetition produced none.
    pub report: Result<Vec<Summary>, String>,
    /// Wall time of each shard process (sharded workload only).
    pub shard_walls_s: Vec<f64>,
    /// Wall time of the `semint report` merge (sharded workload only).
    pub merge_s: f64,
    /// Bytes of the saved shard reports (sharded workload only).
    pub report_bytes: u64,
    /// Failure witnesses that survived the saved-report merge.
    pub witnesses_kept: u64,
}

/// Runs `shape` over `source` in-process, turning a panic into an error.
fn sweep_in_process(
    shape: &Shape,
    jobs: usize,
    source: &dyn ScenarioSource,
) -> Result<SweepReport, String> {
    let cases = AnyCase::all(shape.broken);
    let cfg = sweep_config(shape, jobs);
    catch_unwind(AssertUnwindSafe(|| sweep_all(&cases, source, &cfg)))
        .map_err(|_| "in-process sweep panicked".to_string())
}

/// The `digest:` lines a `semint sweep` or `semint report` printed.
fn stdout_digests(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.strip_prefix("digest: ").map(str::to_string))
        .collect()
}

/// Exit status 0 (clean) or 1 (failures found) means the process ran to
/// completion; anything else is a crash.
fn completed(what: &str, status: std::process::ExitStatus) -> Result<(), String> {
    match status.code() {
        Some(0 | 1) => Ok(()),
        _ => Err(format!("{what} exited with {status}")),
    }
}

/// Parses a saved report and checks that the digests the process printed
/// match it.
fn saved_report(paths: &[PathBuf], printed: &[String]) -> Result<(SweepReport, u64), String> {
    let mut merged = SweepReport::default();
    let mut bytes = 0;
    for path in paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        bytes += text.len() as u64;
        merged.merge(&SweepReport::from_tsv(&text)?);
    }
    let saved: Vec<String> = merged.cases.iter().map(|c| c.digest()).collect();
    if saved != printed {
        return Err(format!(
            "printed digests {printed:?} disagree with the saved report {saved:?}"
        ));
    }
    Ok((merged, bytes))
}

/// Runs one repetition of `workload` over `range`.
pub fn run_rep(workload: Workload, env: &Env, range: SeedRange) -> Rep {
    let shape = workload.shape();
    let mut rep = Rep {
        wall_s: 0.0,
        cpu_s: 0.0,
        steal_s: 0.0,
        report: Err("not run".into()),
        shard_walls_s: Vec::new(),
        merge_s: 0.0,
        report_bytes: 0,
        witnesses_kept: 0,
    };
    let (cpu0, steal0) = (sys::cpu_s(), sys::steal_s());
    let started = Instant::now();
    rep.report = match workload {
        Workload::DeepSweep => sweep_in_process(&shape, env.jobs, &range),
        Workload::CheckedBoundary => sweep_process(&shape, env, range, 1),
        Workload::BrokenSharded => sharded(&shape, env, range, &mut rep),
    }
    .map(|report| summarize(&report.cases));
    rep.wall_s = started.elapsed().as_secs_f64();
    rep.cpu_s = sys::cpu_s() - cpu0;
    rep.steal_s = sys::steal_s() - steal0;
    rep
}

/// The sharded repetition: `env.jobs` concurrent `semint sweep --shard`
/// processes, then one `semint report` merge of their saved reports.
fn sharded(
    shape: &Shape,
    env: &Env,
    range: SeedRange,
    rep: &mut Rep,
) -> Result<SweepReport, String> {
    let n = env.jobs;
    let paths: Vec<PathBuf> = (0..n)
        .map(|i| env.work.join(format!("shard-{i}.tsv")))
        .collect();
    let shards: Vec<Result<f64, String>> = std::thread::scope(|scope| {
        let waiters: Vec<_> = paths
            .iter()
            .enumerate()
            .map(|(i, path)| {
                scope.spawn(move || {
                    let started = Instant::now();
                    let status = env
                        .semint()
                        .arg("sweep")
                        .args(shape_flags(shape))
                        .args(["--seeds", &range.spec(), "--jobs", "1"])
                        .args(["--shard", &format!("{i}/{n}"), "--save"])
                        .arg(path)
                        .stdout(Stdio::null())
                        .status()
                        .map_err(|e| format!("spawning shard {i}: {e}"))?;
                    completed(&format!("shard {i}"), status)?;
                    Ok(started.elapsed().as_secs_f64())
                })
            })
            .collect();
        waiters
            .into_iter()
            .map(|w| w.join().expect("shard waiter thread"))
            .collect()
    });
    rep.shard_walls_s = shards.into_iter().collect::<Result<_, _>>()?;

    let started = Instant::now();
    let out = env
        .semint()
        .arg("report")
        .args(&paths)
        .output()
        .map_err(|e| format!("spawning semint report: {e}"))?;
    rep.merge_s = started.elapsed().as_secs_f64();
    completed("semint report", out.status)?;
    rep.witnesses_kept = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("witness:"))
        .filter(|w| !w.trim().is_empty())
        .count() as u64;
    let (report, bytes) = saved_report(&paths, &stdout_digests(&out))?;
    rep.report_bytes = bytes;
    Ok(report)
}

/// The reference a workload's repetitions must reproduce, computed through
/// a different route and schedule than the repetitions themselves: the
/// in-process deep sweep is checked against a single-threaded `semint
/// sweep` process, and the process-driven workloads against an in-process
/// sweep at `env.jobs` threads and `--batch 4`.
pub fn reference(workload: Workload, env: &Env, range: SeedRange) -> Result<Vec<Summary>, String> {
    let shape = workload.shape();
    if workload == Workload::DeepSweep {
        sweep_process(&shape, env, range, 1)
    } else {
        sweep_in_process(&Shape { batch: 4, ..shape }, env.jobs, &range)
    }
    .map(|report| summarize(&report.cases))
}

/// Runs `shape` over `range` as one `semint sweep --save` process with
/// `jobs` threads and returns its saved report.
pub fn sweep_process(
    shape: &Shape,
    env: &Env,
    range: SeedRange,
    jobs: usize,
) -> Result<SweepReport, String> {
    let path = env.work.join("sweep.tsv");
    let out = env
        .semint()
        .arg("sweep")
        .args(shape_flags(shape))
        .args([
            "--seeds",
            &range.spec(),
            "--jobs",
            &jobs.to_string(),
            "--save",
        ])
        .arg(&path)
        .output()
        .map_err(|e| format!("spawning semint: {e}"))?;
    completed("semint sweep", out.status)?;
    saved_report(std::slice::from_ref(&path), &stdout_digests(&out)).map(|(report, _)| report)
}

/// What a case report must reproduce: its digest (which counts failures)
/// and every VM counter.  Repetitions keep only this, so the benchmark's
/// own memory stays flat across a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Case-study name.
    pub case: String,
    /// Scenarios swept.
    pub scenarios: u64,
    /// `CaseReport::digest`.
    pub digest: String,
    /// Aggregated VM counters.
    pub counters: VmCounters,
    /// Failed scenarios.
    pub failures: usize,
}

/// The summaries of some case reports.
pub fn summarize<'a>(cases: impl IntoIterator<Item = &'a CaseReport>) -> Vec<Summary> {
    cases
        .into_iter()
        .map(|c| Summary {
            case: c.case.clone(),
            scenarios: c.scenarios,
            digest: c.digest(),
            counters: c.counters,
            failures: c.failures.len(),
        })
        .collect()
}

/// The cases of `got` whose digest or VM counters differ from `want`, as
/// `(scenarios affected, explanation)` pairs.
pub fn mismatches(got: &[Summary], want: &[Summary]) -> Vec<(u64, String)> {
    want.iter()
        .filter_map(|w| match got.iter().find(|g| g.case == w.case) {
            None => Some((w.scenarios, format!("{}: missing from the result", w.case))),
            Some(g) if g.digest != w.digest => Some((
                w.scenarios,
                format!("{}: digest {} != reference {}", w.case, g.digest, w.digest),
            )),
            Some(g) if g.counters != w.counters => Some((
                w.scenarios,
                format!(
                    "{}: counters {:?} != reference {:?}",
                    w.case, g.counters, w.counters
                ),
            )),
            Some(_) => None,
        })
        .collect()
}

/// Builds what a sweep needs before its first scenario — the case
/// studies, the scenario sources with their seed lists, and the batch
/// tasks — and returns the elapsed time.
pub fn setup_once(workload: Workload, jobs: usize, range: SeedRange) -> f64 {
    let shape = workload.shape();
    let started = Instant::now();
    let cases = AnyCase::all(shape.broken);
    let sources: Vec<Box<dyn ScenarioSource>> = if workload == Workload::BrokenSharded {
        (0..jobs as u64)
            .map(|i| {
                Box::new(Shard::new(range, i, jobs as u64).expect("valid shard"))
                    as Box<dyn ScenarioSource>
            })
            .collect()
    } else {
        vec![Box::new(range)]
    };
    let seeds: Vec<Vec<u64>> = sources
        .iter()
        .flat_map(|s| cases.iter().map(move |c| s.seeds(c.name())))
        .collect();
    let tasks: usize = seeds.iter().map(|s| s.chunks(shape.batch).count()).sum();
    std::hint::black_box((&cases, &seeds, tasks));
    started.elapsed().as_secs_f64()
}
