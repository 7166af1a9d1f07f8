//! The `semint` command-line interface.
//!
//! One entry point over all three case studies:
//!
//! ```text
//! semint run   --case sharedmem --seed 42           # one scenario, verbose
//! semint check --case all --seeds 0..50             # model-check a seed range
//! semint sweep --seeds 0..200 --jobs 4              # parallel sweep, aggregate report
//! semint sweep --profile deep                       # deep-type population (glue cache on the hot path)
//! semint sweep --seeds 0..200 --shard 0/2           # this process takes half the range
//! semint sweep --workers 4 --state-dir state        # 4 supervised shard processes, journaled
//! semint sweep --workers 4 --state-dir state --resume  # finish a killed sweep
//! semint sweep --seeds 0..50 --time --save t.tsv    # per-stage wall-clock totals, saved
//! semint report t.tsv                               # time per layer: stage shares, ns/instr
//! semint sweep --seeds 0..500 --progress            # live stderr progress line
//! semint report a.tsv b.tsv                         # merge + re-render saved reports
//! semint chaos --seed 7 --rounds 4                  # deterministic kill-and-resume drill
//! ```
//!
//! Argument parsing is hand-rolled (the workspace is offline; no clap).

use semint_core::case::{CaseStudy, ConstructorWeights, GenProfile};
use semint_core::stats::SweepReport;
use semint_core::Fuel;
use semint_harness::cases::AnyCase;
use semint_harness::engine::{
    run_generated, sweep_all, sweep_all_observed, SweepConfig, MAX_SEEDS_PER_SWEEP,
};
use semint_harness::fleet::{self, ChaosConfig, FaultKind, FaultPlan, SweepSpec};
use semint_harness::observe::SweepObserver;
use semint_harness::report::{population, render_sweep};
use semint_harness::source::{ScenarioSource, SeedRange, Shard};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

const USAGE: &str = "\
semint — unified scenario engine for the PLDI 2022 interoperability case studies

USAGE:
    semint run   [--case NAME] --seed N [options]     run one scenario, verbosely, with per-stage
                                                      wall-clock (where does this seed spend time?)
    semint check [--case NAME] [--seeds A..B] [options]
                                                      Lemma 3.1 catalogue + model-check a seed range
    semint sweep [--case NAME] [--seeds A..B] [--jobs J] [--save PATH] [options]
                                                      parallel sweep with aggregate statistics;
                                                      with --workers N it runs as N supervised
                                                      `semint sweep --shard` processes (crashed or
                                                      wedged workers are re-issued) journaled in a
                                                      state dir, so --resume finishes a killed
                                                      sweep; digests are byte-identical to a
                                                      one-shot sweep
    semint report PATH...                             render (and, for several PATHs, merge) TSV
                                                      reports saved by `sweep --save`, failures and
                                                      their shrunk witnesses and each case's hottest
                                                      seeds by steps included; a `--time` report
                                                      also gives every stage's share and run ns per
                                                      retired instruction; sharded sweeps merge into
                                                      the report of the unsharded sweep, and reports
                                                      of different populations (profile, --broken)
                                                      are refused
    semint chaos  [--seed S] [--rounds N] [options]   deterministic crash drill: per round, derive a
                                                      fault schedule from the seed, run a faulted
                                                      `sweep --workers`, SIGKILL it mid-sweep, rerun
                                                      it with --resume, and assert the merged digests
                                                      and VM counters are byte-identical to an
                                                      uninterrupted one-shot sweep
    semint help                                       this text

    run and check refuse (exit 2) any option they would not honour:
    run takes --case, --seed, the generation profile, --broken,
    --model-check, --no-model-check and --time; check takes --case, the
    scenario supply, the generation profile, --jobs, --batch, --broken,
    --model-check, --time and --save.

SCENARIO SUPPLY:
    --seeds A..B     half-open seed range                    (default: 0..100)
    --shard K/N      take the K-th of N deterministic slices of the seed range;
                     the N shards are disjoint, cover the range, and their saved
                     reports merge (`semint report`) into the unsharded digests

GENERATION PROFILE:
    --profile NAME   smoke | default | deep | boundary-heavy (default: default)
                     deep generates source types of depth >= 4, putting
                     compound-glue derivation on the sweep's critical path
    --type-depth D   max source-type depth                   (overrides profile)
    --depth D        max expression depth                    (overrides profile)
    --boundary-bias P  boundary probability 0-100            (overrides profile)
    --weights L,B,W  leaf,branch,wrap constructor weights    (overrides profile)
    --fuel N         step budget per run                     (overrides profile)

OPTIONS:
    --case NAME      sharedmem | affine | memgc | all        (default: all)
    --seed N         single seed (run only)
    --jobs J         worker threads                          (default: 4)
    --batch N        compiled artifacts executed per reused machine
                     (default: 1 = one machine per scenario); batching
                     amortises machine setup and never changes digests
    --no-model-check skip the realizability-model stage (sweep, run)
    --model-check    run the realizability-model stage (sweep: on by default;
                     chaos rounds skip it unless this is given)
    --time           collect per-stage wall-clock totals
                     (generate/typecheck/compile/run/model-check, and the
                     engine's own time as `other`); deterministic VM counters
                     are always collected, and timed and untimed sweeps agree
                     on digests and counters exactly
    --progress       rolling stderr progress line (scenarios/s, safe-rate,
                     glue hit-rate, ETA)
    --broken         sabotage a conversion rule per case study; failing
                     scenarios are reported with shrunk counterexamples
    --save PATH      save the sweep report, failures included, as TSV; it records
                     the population's flags, and every printed failure ends with
                     the `repro: semint run ...` line that replays it

SUPERVISED SWEEP (sweep --workers, chaos):
    --workers N      split the seed range into N shards and run them as N
                     concurrent `semint sweep --shard` worker processes
                     (chaos default: 4); a shard that dies three times fails
                     the sweep.  Custom profile knobs, --shard, --broken
                     and --time cannot be handed to workers and are refused
    --worker-timeout-ms T  a worker with no heartbeat for T ms is wedged,
                     killed, and its slice re-issued    (default: 30000; chaos: 5000)
    --state-dir DIR  durable state: an fsync'd journal, one tab-separated
                     line per sweep event, plus checkpointed shard reports
                     (default: a fresh temporary dir, removed after a
                     successful sweep and kept, path printed, after a failed
                     one); chaos keeps its per-round dirs in here
    --resume         finish the sweep journaled in --state-dir: the command
                     must match the journaled one, digest-verified checkpoints
                     are adopted, and only unaccounted shards re-run
    --rounds N       (chaos) kill-and-resume rounds to run        (default: 1)

FAULT INJECTION (testing):
    --die-after N    (sweep) abort the process mid-sweep after N scenarios —
                     a deterministic injected crash
    --wedge-after N  (sweep) go silent mid-sweep after N scenarios without
                     exiting — only the heartbeat timeout catches it
    --corrupt-save MODE  (sweep) sabotage the --save report after writing it:
                     `garbage` replaces it wholesale, `truncate` cuts it
                     mid-line so it cannot parse
    --fault-shard K / --fault-after N
                     (sweep --workers) sabotage shard K's first attempt after
                     N scenarios, forcing a supervised re-issue
    --fault-kind KIND  crash | wedge | corrupt-report | truncate-report —
                     how the sabotaged shard misbehaves       (default: crash)

EXIT STATUS: 0 on success, 1 if any scenario or conversion check failed, 2 on usage errors.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match dispatch(command, rest) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// A subcommand: its arguments in, `Ok(clean)` or a usage error out.
type Handler = fn(&[String]) -> Result<bool, String>;

/// Every subcommand: `main` dispatches through this table, the
/// unknown-command hint searches it, and `USAGE` lists exactly these.
const COMMANDS: [(&str, Handler); 6] = [
    ("run", cmd_run),
    ("check", cmd_check),
    ("sweep", cmd_sweep),
    ("report", cmd_report),
    ("chaos", cmd_chaos),
    ("help", cmd_help),
];

/// Runs the subcommand `command` names (`--help`/`-h` mean `help`).
fn dispatch(command: &str, args: &[String]) -> Result<bool, String> {
    let name = match command {
        "--help" | "-h" => "help",
        other => other,
    };
    match COMMANDS.iter().find(|(known, _)| *known == name) {
        Some((_, handler)) => handler(args),
        None => Err(unknown_command(name)),
    }
}

/// `semint help`: the usage text.
fn cmd_help(_args: &[String]) -> Result<bool, String> {
    println!("{USAGE}");
    Ok(true)
}

/// Plain Levenshtein edit distance, small enough to hand-roll (the CLI is
/// dependency-free) and only ever run on two short command words.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            row.push(substitute.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The unknown-command error, with a "did you mean" hint when some known
/// subcommand is plausibly what the user typed.
fn unknown_command(given: &str) -> String {
    let closest = COMMANDS
        .iter()
        .map(|(cmd, _)| (edit_distance(given, cmd), *cmd))
        .min()
        .expect("COMMANDS is nonempty");
    // A hint beyond half the word's length would be noise, not help.
    if closest.0 * 2 <= given.chars().count() {
        format!(
            "unknown command `{given}`; did you mean `{}`? (try `semint help`)",
            closest.1
        )
    } else {
        format!("unknown command `{given}`; try `semint help`")
    }
}

/// Options shared by the scenario-driven subcommands.
#[derive(Debug)]
struct Options {
    case: String,
    range: (u64, u64),
    shard: Option<(u64, u64)>,
    seed: Option<u64>,
    jobs: usize,
    batch: usize,
    profile: GenProfile,
    /// Tri-state so each subcommand picks its own default (`sweep`: on,
    /// `chaos`: off).
    model_check: Option<bool>,
    time: bool,
    broken: bool,
    save: Option<String>,
    progress: bool,
    // sweep --workers / chaos
    /// `--workers N`: run `sweep` as N supervised shard processes (`chaos`:
    /// the fan-out of every round, default 4).
    workers: Option<usize>,
    /// Tri-state so each subcommand picks its own default (`sweep
    /// --workers`: 30000, `chaos`: 5000 — drills want wedges detected fast).
    worker_timeout_ms: Option<u64>,
    /// `--state-dir DIR`: where a supervised sweep's journal and shard
    /// checkpoints live (chaos uses it as the root for per-round state dirs).
    state_dir: Option<String>,
    /// `--resume`: finish the sweep journaled in the state dir.
    resume: bool,
    /// `--rounds N`: how many kill-and-resume rounds `chaos` runs.
    rounds: u64,
    fault_shard: Option<u64>,
    fault_after: Option<u64>,
    /// `--fault-kind`: how the sabotaged shard misbehaves (sweep --workers).
    fault_kind: Option<FaultKind>,
    /// `--die-after N` fault injection (sweep): abort the process after N
    /// scenarios, for supervision tests.
    die_after: Option<u64>,
    /// `--wedge-after N` fault injection (sweep): go silent — alive but
    /// heartbeat-less — after N scenarios, for wedge-detection tests.
    wedge_after: Option<u64>,
    /// `--corrupt-save MODE` fault injection (sweep): sabotage the saved
    /// report after writing it (`garbage` | `truncate`).
    corrupt_save: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            case: "all".into(),
            range: (0, 100),
            shard: None,
            seed: None,
            jobs: 4,
            batch: 1,
            profile: GenProfile::standard(),
            model_check: None,
            time: false,
            broken: false,
            save: None,
            progress: false,
            workers: None,
            worker_timeout_ms: None,
            state_dir: None,
            resume: false,
            rounds: 1,
            fault_shard: None,
            fault_after: None,
            fault_kind: None,
            die_after: None,
            wedge_after: None,
            corrupt_save: None,
        }
    }
}

/// Whether `semint command` honours the option `flag`.  `run` and `check`
/// refuse every option they would otherwise ignore; `sweep` and `chaos`
/// take them all, and [`fleet_spec`] refuses what a supervised sweep
/// cannot hand on.
fn honours(command: &str, flag: &str) -> bool {
    const POPULATION: [&str; 8] = [
        "--case",
        "--profile",
        "--type-depth",
        "--depth",
        "--boundary-bias",
        "--weights",
        "--fuel",
        "--broken",
    ];
    let own: &[&str] = match command {
        "run" => &["--seed", "--model-check", "--no-model-check", "--time"],
        "check" => &[
            "--seeds",
            "--shard",
            "--jobs",
            "--batch",
            "--model-check",
            "--time",
            "--save",
        ],
        _ => return true,
    };
    POPULATION.contains(&flag) || own.contains(&flag)
}

/// Parses the options of `semint command`.
fn parse_options(command: &str, args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    // Profile knob overrides are collected separately and applied on top of
    // whichever preset `--profile` selects, so flag order never matters.
    let mut profile_name: Option<String> = None;
    let mut type_depth: Option<usize> = None;
    let mut max_depth: Option<usize> = None;
    let mut boundary_bias: Option<u32> = None;
    let mut weights: Option<ConstructorWeights> = None;
    let mut fuel: Option<Fuel> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if !honours(command, flag) {
            return Err(format!(
                "`semint {command}` takes no `{flag}` option; try `semint help`"
            ));
        }
        let mut value = |name: &str| {
            iter.next()
                .map(|s| s.as_str())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--case" => opts.case = value("--case")?.to_string(),
            "--seeds" => {
                let spec = value("--seeds")?;
                let (a, b) = spec
                    .split_once("..")
                    .ok_or_else(|| format!("--seeds expects A..B, got `{spec}`"))?;
                let start: u64 = a.parse().map_err(|e| format!("--seeds start: {e}"))?;
                let end: u64 = b.parse().map_err(|e| format!("--seeds end: {e}"))?;
                SeedRange::new(start, end).map_err(|e| format!("--seeds: {e}"))?;
                if end - start > MAX_SEEDS_PER_SWEEP {
                    return Err(format!(
                        "--seeds range `{spec}` has more than {MAX_SEEDS_PER_SWEEP} seeds"
                    ));
                }
                opts.range = (start, end);
            }
            "--shard" => {
                let spec = value("--shard")?;
                let (k, n) = spec
                    .split_once('/')
                    .ok_or_else(|| format!("--shard expects K/N, got `{spec}`"))?;
                let index: u64 = k.parse().map_err(|e| format!("--shard index: {e}"))?;
                let of: u64 = n.parse().map_err(|e| format!("--shard count: {e}"))?;
                if of == 0 {
                    return Err("--shard count must be at least 1".into());
                }
                if index >= of {
                    return Err(format!(
                        "--shard index {index} is out of range for {of} shards (use 0..{of})"
                    ));
                }
                opts.shard = Some((index, of));
            }
            "--seed" => {
                opts.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--jobs" => {
                opts.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if opts.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--batch" => {
                opts.batch = value("--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?;
                // Rejected, never clamped — the same policy as the
                // generation-profile knobs.
                if opts.batch == 0 {
                    return Err(
                        "--batch must be at least 1 (a zero-scenario batch can run nothing)".into(),
                    );
                }
            }
            "--profile" => {
                let name = value("--profile")?;
                GenProfile::by_name(name).ok_or_else(|| {
                    format!(
                        "unknown profile `{name}` (expected one of: {})",
                        GenProfile::PRESET_NAMES.join(" | ")
                    )
                })?;
                profile_name = Some(name.to_string());
            }
            "--type-depth" => {
                type_depth = Some(
                    value("--type-depth")?
                        .parse()
                        .map_err(|e| format!("--type-depth: {e}"))?,
                )
            }
            "--depth" => {
                max_depth = Some(
                    value("--depth")?
                        .parse()
                        .map_err(|e| format!("--depth: {e}"))?,
                )
            }
            "--boundary-bias" => {
                boundary_bias = Some(
                    value("--boundary-bias")?
                        .parse()
                        .map_err(|e| format!("--boundary-bias: {e}"))?,
                )
            }
            "--weights" => {
                let spec = value("--weights")?;
                let mut parts = spec.split(',');
                let mut next = |what: &str| -> Result<u32, String> {
                    parts
                        .next()
                        .ok_or_else(|| format!("--weights expects L,B,W, got `{spec}`"))?
                        .parse::<u32>()
                        .map_err(|e| format!("--weights {what}: {e}"))
                };
                let parsed = ConstructorWeights {
                    leaf: next("leaf")?,
                    branch: next("branch")?,
                    wrap: next("wrap")?,
                };
                if parts.next().is_some() {
                    return Err(format!("--weights expects exactly L,B,W, got `{spec}`"));
                }
                weights = Some(parsed);
            }
            "--fuel" => {
                let steps: u64 = value("--fuel")?
                    .parse()
                    .map_err(|e| format!("--fuel: {e}"))?;
                fuel = Some(Fuel::steps(steps));
            }
            "--no-model-check" => opts.model_check = Some(false),
            "--model-check" => opts.model_check = Some(true),
            "--time" => opts.time = true,
            "--broken" => opts.broken = true,
            "--save" => opts.save = Some(value("--save")?.to_string()),
            "--progress" => opts.progress = true,
            "--workers" => {
                let workers: usize = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
                opts.workers = Some(workers);
            }
            "--worker-timeout-ms" => {
                let ms: u64 = value("--worker-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--worker-timeout-ms: {e}"))?;
                if ms == 0 {
                    return Err("--worker-timeout-ms must be at least 1".into());
                }
                opts.worker_timeout_ms = Some(ms);
            }
            "--state-dir" => opts.state_dir = Some(value("--state-dir")?.to_string()),
            "--resume" => opts.resume = true,
            "--rounds" => {
                opts.rounds = value("--rounds")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?;
                if opts.rounds == 0 {
                    return Err("--rounds must be at least 1".into());
                }
            }
            "--fault-shard" => {
                opts.fault_shard = Some(
                    value("--fault-shard")?
                        .parse()
                        .map_err(|e| format!("--fault-shard: {e}"))?,
                );
            }
            "--fault-after" => {
                opts.fault_after = Some(
                    value("--fault-after")?
                        .parse()
                        .map_err(|e| format!("--fault-after: {e}"))?,
                );
            }
            "--fault-kind" => {
                opts.fault_kind = Some(FaultKind::from_label(value("--fault-kind")?)?);
            }
            "--die-after" => {
                let n: u64 = value("--die-after")?
                    .parse()
                    .map_err(|e| format!("--die-after: {e}"))?;
                if n == 0 {
                    return Err("--die-after must be at least 1 scenario".into());
                }
                opts.die_after = Some(n);
            }
            "--wedge-after" => {
                let n: u64 = value("--wedge-after")?
                    .parse()
                    .map_err(|e| format!("--wedge-after: {e}"))?;
                if n == 0 {
                    return Err("--wedge-after must be at least 1 scenario".into());
                }
                opts.wedge_after = Some(n);
            }
            "--corrupt-save" => {
                let mode = value("--corrupt-save")?;
                if !matches!(mode, "garbage" | "truncate") {
                    return Err(format!(
                        "--corrupt-save expects `garbage` or `truncate`, got `{mode}`"
                    ));
                }
                opts.corrupt_save = Some(mode.to_string());
            }
            other => return Err(format!("unknown option `{other}`; try `semint help`")),
        }
    }
    let mut profile = match &profile_name {
        Some(name) => GenProfile::by_name(name).expect("validated above"),
        None => GenProfile::standard(),
    };
    let customized = type_depth.is_some()
        || max_depth.is_some()
        || boundary_bias.is_some()
        || weights.is_some()
        || fuel.is_some();
    if let Some(d) = type_depth {
        profile.type_depth = d;
    }
    if let Some(d) = max_depth {
        profile.max_depth = d;
    }
    if let Some(b) = boundary_bias {
        profile.boundary_bias = b;
    }
    if let Some(w) = weights {
        profile.weights = w;
    }
    if let Some(f) = fuel {
        profile.fuel = f;
    }
    if customized {
        profile.name = "custom";
    }
    // Reject invalid knob combinations up front with the profile's own
    // complaint — never silently clamp.
    profile.validate()?;
    opts.profile = profile;
    Ok(opts)
}

fn selected_cases(opts: &Options) -> Result<Vec<AnyCase>, String> {
    if opts.case == "all" {
        Ok(AnyCase::all(opts.broken))
    } else {
        AnyCase::by_name(&opts.case, opts.broken)
            .map(|c| vec![c])
            .ok_or_else(|| {
                format!(
                    "unknown case study `{}` (sharedmem | affine | memgc | all)",
                    opts.case
                )
            })
    }
}

/// Builds the scenario source the options describe: a shard of the seed
/// range, or the plain range.
fn build_source(opts: &Options) -> Result<Box<dyn ScenarioSource>, String> {
    let range = SeedRange::new(opts.range.0, opts.range.1).map_err(|e| format!("--seeds: {e}"))?;
    match opts.shard {
        Some((index, of)) => Ok(Box::new(
            Shard::new(range, index, of).map_err(|e| format!("--shard: {e}"))?,
        )),
        None => Ok(Box::new(range)),
    }
}

/// The friendly version of the engine's sweep-size assert: the per-range
/// check in `parse_options` cannot see the case count, so a range below
/// `MAX_SEEDS_PER_SWEEP` can still exceed it once multiplied across cases.
fn check_sweep_size(cases: &[AnyCase], source: &dyn ScenarioSource) -> Result<(), String> {
    let names: Vec<&str> = cases.iter().map(|c| c.name()).collect();
    let total = source.total(&names);
    if total > MAX_SEEDS_PER_SWEEP {
        return Err(format!(
            "{} supplies {total} scenarios across {} case studies, which exceeds the \
             per-sweep limit of {MAX_SEEDS_PER_SWEEP}; narrow the range, shard it, or \
             sweep one case at a time",
            source.describe(),
            cases.len()
        ));
    }
    Ok(())
}

fn sweep_config(opts: &Options, model_check_default: bool) -> SweepConfig {
    SweepConfig {
        jobs: opts.jobs,
        profile: opts.profile,
        model_check: opts.model_check.unwrap_or(model_check_default),
        time: opts.time,
        batch: opts.batch,
    }
}

/// Builds the `--progress` observer when that flag was given (or a
/// `--die-after`/`--wedge-after` fault needs its scenario count).
fn build_observer(
    opts: &Options,
    cases: &[AnyCase],
    source: &dyn ScenarioSource,
) -> Option<SweepObserver> {
    let observed = opts.progress || opts.die_after.is_some() || opts.wedge_after.is_some();
    observed.then(|| {
        let names: Vec<&str> = cases.iter().map(|c| c.name()).collect();
        SweepObserver::new(source.total(&names), opts.progress)
            .with_fault(opts.die_after)
            .with_wedge(opts.wedge_after)
    })
}

/// `semint run`: one scenario, spelled out — always with per-stage
/// wall-clock, so a single-seed investigation shows where the time goes
/// without a timed sweep.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let opts = parse_options("run", args)?;
    let seed = opts.seed.ok_or("`semint run` needs --seed N")?;
    let cases = selected_cases(&opts)?;
    let cfg = SweepConfig {
        time: true,
        ..sweep_config(&opts, true)
    };
    let mut clean = true;
    for case in &cases {
        let scenario = case.generate(seed, &opts.profile);
        println!("case {}", case.name());
        println!("  seed    {seed}");
        println!("  profile {}", opts.profile);
        println!("  type    {}", scenario.ty);
        println!("  program {}", scenario.program);
        let record = run_generated(case, &scenario, &cfg);
        if let Some(stats) = &record.stats {
            println!("  outcome {} after {} steps", stats.outcome, stats.steps);
            let c = &stats.counters;
            println!(
                "  heap    allocs {} · frees {} · reuses {} · peak live {}",
                c.heap_allocs, c.heap_frees, c.heap_reuses, c.heap_peak_live
            );
        }
        println!(
            "  boundaries {} · chars {}",
            record.boundaries, record.program_chars
        );
        if let Some(timings) = &record.timings {
            println!("  stage wall-clock");
            for (label, ns) in timings.stages() {
                println!("    {label:<11} {:.3} ms", ns as f64 / 1_000_000.0);
            }
            println!(
                "    {:<11} {:.3} ms",
                "total",
                timings.total_ns() as f64 / 1_000_000.0
            );
        }
        match &record.failure {
            None => println!("  verdict OK"),
            Some(failure) => {
                clean = false;
                println!("  verdict FAILED [{}] {}", failure.stage, failure.reason);
                println!(
                    "  shrunk counterexample ({} steps): {}",
                    failure.shrink_steps, failure.shrunk
                );
            }
        }
    }
    Ok(clean)
}

/// `semint check`: the conversion catalogue (Lemma 3.1) plus a model-checked
/// scenario set.
fn cmd_check(args: &[String]) -> Result<bool, String> {
    let opts = parse_options("check", args)?;
    let cases = selected_cases(&opts)?;
    let source = build_source(&opts)?;
    let mut cfg = sweep_config(&opts, true);
    cfg.model_check = true;
    let mut clean = true;
    for case in &cases {
        match case.check_conversions() {
            Ok(()) => println!("case {}: conversion catalogue OK", case.name()),
            Err(failure) => {
                clean = false;
                println!("case {}: conversion catalogue FAILED", case.name());
                println!("  {failure}");
            }
        }
    }
    check_sweep_size(&cases, source.as_ref())?;
    let mut report = sweep_all(&cases, source.as_ref(), &cfg);
    report.population = Some(population(&opts.profile, opts.broken));
    print!("{}", render_sweep(&report));
    save_report(&opts, &report)?;
    Ok(clean && report.failure_count() == 0)
}

/// `semint sweep`: the parallel batch run.
fn cmd_sweep(args: &[String]) -> Result<bool, String> {
    let opts = parse_options("sweep", args)?;
    if let Some(workers) = opts.workers {
        return cmd_supervised_sweep(&opts, workers);
    }
    if opts.corrupt_save.is_some() && opts.save.is_none() {
        return Err("--corrupt-save sabotages the --save report; give --save PATH too".into());
    }
    let cases = selected_cases(&opts)?;
    let source = build_source(&opts)?;
    let cfg = sweep_config(&opts, true);
    check_sweep_size(&cases, source.as_ref())?;
    println!("sweep: {} · profile {}", source.describe(), cfg.profile);
    let observer = build_observer(&opts, &cases, source.as_ref());
    let mut report = sweep_all_observed(&cases, source.as_ref(), &cfg, observer.as_ref());
    report.population = Some(population(&opts.profile, opts.broken));
    if let Some(observer) = observer {
        observer.finish();
    }
    print_sweep(&report);
    save_report(&opts, &report)?;
    if let (Some(path), Some(mode)) = (&opts.save, &opts.corrupt_save) {
        corrupt_saved_report(path, mode)?;
    }
    Ok(report.failure_count() == 0)
}

/// The report block and `digest:` lines every sweep-shaped command ends
/// its output with.
fn print_sweep(report: &SweepReport) {
    print!("{}", render_sweep(report));
    for case in &report.cases {
        println!("digest: {}", case.digest());
    }
}

/// Writes the report to `--save PATH`, if one was given, as the TSV that
/// `semint report` reads.
fn save_report(opts: &Options, report: &SweepReport) -> Result<(), String> {
    if let Some(path) = &opts.save {
        std::fs::write(path, report.to_tsv()).map_err(|e| format!("saving {path}: {e}"))?;
        println!("saved: {path}");
    }
    Ok(())
}

/// The one check `sweep --workers` and `chaos` share: whatever a worker
/// process cannot be handed is refused rather than silently dropped, and
/// the rest becomes the sweep's validated spec.
fn fleet_spec(
    opts: &Options,
    workers: usize,
    model_check_default: bool,
) -> Result<SweepSpec, String> {
    if opts.profile.name == "custom" {
        return Err(
            "supervised sweeps pin preset profiles (smoke | default | deep | boundary-heavy); \
             knob overrides like --type-depth cannot be handed to shard workers"
                .into(),
        );
    }
    if opts.shard.is_some() {
        return Err(
            "supervised sweeps shard themselves; use --workers N instead of --shard K/N".into(),
        );
    }
    if opts.broken {
        return Err("--broken is not supported for supervised sweeps".into());
    }
    if opts.time {
        return Err("shard workers run untimed, so --time cannot be honoured".into());
    }
    if opts.die_after.is_some() || opts.wedge_after.is_some() || opts.corrupt_save.is_some() {
        return Err(
            "--die-after, --wedge-after and --corrupt-save sabotage one process; \
                    use --fault-shard, --fault-after and --fault-kind to sabotage a shard"
                .into(),
        );
    }
    let fault = match (opts.fault_shard, opts.fault_after) {
        (None, None) => {
            if opts.fault_kind.is_some() {
                return Err("--fault-kind needs --fault-shard and --fault-after".into());
            }
            None
        }
        (Some(shard), Some(after)) => Some(FaultPlan {
            shard,
            after,
            kind: opts.fault_kind.unwrap_or(FaultKind::Crash),
        }),
        _ => return Err("--fault-shard and --fault-after must be given together".into()),
    };
    let spec = SweepSpec {
        seeds: opts.range,
        profile: opts.profile.name.to_string(),
        case: opts.case.clone(),
        workers: workers as u64,
        jobs: opts.jobs,
        batch: opts.batch,
        model_check: opts.model_check.unwrap_or(model_check_default),
        fault,
    };
    spec.validate()?;
    Ok(spec)
}

/// `semint sweep --workers N`: the same sweep run as N supervised shard
/// processes, journaled and checkpointed in a state dir so that a killed
/// sweep can be finished with `--resume`.  It prints, saves and exits as a
/// one-shot sweep does.
fn cmd_supervised_sweep(opts: &Options, workers: usize) -> Result<bool, String> {
    let spec = fleet_spec(opts, workers, true)?;
    let binary = std::env::current_exe()
        .map_err(|e| format!("cannot locate the semint binary to spawn workers: {e}"))?;
    let (state_dir, temporary) = match &opts.state_dir {
        Some(dir) => (PathBuf::from(dir), false),
        None if opts.resume => {
            return Err("--resume requires --state-dir (the journal lives there)".into())
        }
        None => {
            let nanos = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |since| since.subsec_nanos());
            let name = format!("semint-sweep-{}-{nanos}", std::process::id());
            (std::env::temp_dir().join(name), true)
        }
    };
    println!(
        "sweep: {} · profile {}",
        spec.range().describe(),
        opts.profile
    );
    let timeout = Duration::from_millis(opts.worker_timeout_ms.unwrap_or(30_000));
    let mut report = fleet::run_sweep(&binary, &spec, &state_dir, opts.resume, timeout)
        .inspect_err(|_| {
            if temporary {
                eprintln!(
                    "sweep state kept in {0}; finish it with --state-dir {0} --resume",
                    state_dir.display()
                );
            }
        })?;
    if temporary {
        let _ = std::fs::remove_dir_all(&state_dir);
    }
    report.population = Some(population(&opts.profile, opts.broken));
    print_sweep(&report);
    save_report(opts, &report)?;
    Ok(report.failure_count() == 0)
}

/// `--corrupt-save` fault injection: sabotages an already-saved report so
/// the supervisor's validation (and, for checkpoints, digest verification)
/// has something real to catch.  `garbage` replaces the report wholesale;
/// `truncate` cuts it mid-line — a dangling key with no value — so
/// `SweepReport::from_tsv` reliably *fails* instead of parsing a
/// smaller-but-valid report that would slip past everything except the
/// supervisor's sweep-level completeness check.
fn corrupt_saved_report(path: &str, mode: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("corrupting {path}: {e}"))?;
    let corrupted = match mode {
        "garbage" => "this is not a sweep report\n".to_string(),
        _ => {
            let lines: Vec<&str> = text.lines().collect();
            let mut out = lines[..lines.len() / 2].join("\n");
            out.push_str("\nscenario");
            out
        }
    };
    std::fs::write(path, corrupted).map_err(|e| format!("corrupting {path}: {e}"))?;
    eprintln!("[fault] --corrupt-save {mode}: sabotaged the saved report at {path}");
    Ok(())
}

/// `semint report`: render saved sweeps, merging when several are given
/// (per-shard saves merge into the unsharded report, failures included).
/// Reports of different populations are refused: their digests would add
/// up to no sweep anyone ran, and their failures would replay under no one
/// set of flags.
fn cmd_report(args: &[String]) -> Result<bool, String> {
    if args.is_empty() {
        return Err(
            "`semint report` needs at least one PATH saved by `semint sweep --save`".into(),
        );
    }
    let describe = |population: &Option<String>| {
        population
            .as_deref()
            .map_or("no recorded population".to_string(), |flags| {
                format!("`{flags}`")
            })
    };
    let mut merged: Option<(&str, SweepReport)> = None;
    for path in args {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let report = SweepReport::from_tsv(&text).map_err(|e| format!("{path}: {e}"))?;
        match &mut merged {
            None => merged = Some((path, report)),
            Some((first, acc)) => {
                if acc.population != report.population {
                    return Err(format!(
                        "{first} was swept with {} but {path} with {}; \
                         reports of different populations do not merge",
                        describe(&acc.population),
                        describe(&report.population)
                    ));
                }
                acc.merge(&report)
            }
        }
    }
    let (_, merged) = merged.expect("at least one path");
    print_sweep(&merged);
    Ok(merged.failure_count() == 0)
}

/// `semint chaos`: the deterministic kill-and-resume drill.  Every round
/// derives a fault plan and a kill point from `--seed`, runs a faulted
/// `semint sweep --workers` process, SIGKILLs it once the journal shows the
/// scheduled number of checkpoints, reruns it with `--resume`, and asserts
/// the resumed digests and VM counters are byte-identical to an
/// uninterrupted one-shot sweep — with no checkpointed shard re-run.
fn cmd_chaos(args: &[String]) -> Result<bool, String> {
    let opts = parse_options("chaos", args)?;
    // The drill's rounds are real supervised sweeps (run-only unless
    // --model-check); each round replaces the fault with its scheduled one.
    let spec = fleet_spec(&opts, opts.workers.unwrap_or(4), false)?;
    let binary = std::env::current_exe()
        .map_err(|e| format!("cannot locate the semint binary to drill: {e}"))?;
    let state_root = match &opts.state_dir {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("semint-chaos-{}", std::process::id())),
    };
    let cfg = ChaosConfig {
        binary,
        seed: opts.seed.unwrap_or(0),
        rounds: opts.rounds,
        spec,
        // Drills inject wedges on purpose; detect them fast.
        worker_timeout_ms: opts.worker_timeout_ms.unwrap_or(5_000),
        state_root,
        echo: true,
    };
    println!(
        "chaos: {} rounds · seed {} · seeds {} · profile {} · {} workers · state root {}",
        cfg.rounds,
        cfg.seed,
        cfg.spec.range().spec(),
        cfg.spec.profile,
        cfg.spec.workers,
        cfg.state_root.display()
    );
    let outcomes = fleet::run_drills(&cfg)?;
    let mut clean = true;
    for outcome in &outcomes {
        let held = outcome.invariant_holds();
        clean = clean && held;
        println!(
            "round {}: {} · fault {} on shard {} after {} scenarios · killed after {} \
             checkpoints (shards {:?} saved) · {} re-issues · digests {} · counters {} · \
             re-run after resume {:?} · state {}",
            outcome.round,
            if held { "PASS" } else { "FAIL" },
            outcome.plan.kind.label(),
            outcome.plan.shard,
            outcome.plan.after,
            outcome.kill_after_saves,
            outcome.saved_before_kill,
            outcome.retries,
            if outcome.digests_match {
                "match"
            } else {
                "DIVERGE"
            },
            if outcome.counters_match {
                "match"
            } else {
                "DIVERGE"
            },
            outcome.rerun_after_resume,
            outcome.state_dir.display(),
        );
    }
    if clean {
        println!(
            "chaos: all {} rounds held the crash-safety invariant",
            outcomes.len()
        );
    } else {
        println!("chaos: INVARIANT VIOLATED — post-mortems in the per-round state dirs above");
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_options("sweep", &owned)
    }

    #[test]
    fn reversed_seed_ranges_are_rejected_with_a_friendly_error() {
        let err = parse(&["--seeds", "50..10"]).unwrap_err();
        assert!(err.contains("reversed"), "{err}");
        // No panic (debug-build underflow) either way round.
        let err = parse(&["--seeds", "7..7"]).unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn well_formed_seed_ranges_parse() {
        let opts = parse(&["--seeds", "3..9"]).unwrap();
        assert_eq!(opts.range, (3, 9));
    }

    #[test]
    fn time_flag_enables_stage_timing() {
        assert!(!parse(&[]).unwrap().time);
        let opts = parse(&["--time"]).unwrap();
        assert!(opts.time);
        assert!(sweep_config(&opts, true).time);
    }

    #[test]
    fn unknown_options_are_rejected() {
        assert!(parse(&["--nope"]).unwrap_err().contains("--nope"));
    }

    #[test]
    fn batch_sizes_parse_and_zero_is_rejected_not_clamped() {
        assert_eq!(parse(&[]).unwrap().batch, 1, "default is one per machine");
        let opts = parse(&["--batch", "8"]).unwrap();
        assert_eq!(opts.batch, 8);
        assert_eq!(sweep_config(&opts, true).batch, 8);
        let err = parse(&["--batch", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&["--batch", "many"]).unwrap_err();
        assert!(err.contains("--batch"), "{err}");
        assert!(parse(&["--batch"]).unwrap_err().contains("--batch"));
    }

    #[test]
    fn profiles_parse_and_unknown_profiles_are_rejected() {
        let opts = parse(&["--profile", "deep"]).unwrap();
        assert_eq!(opts.profile, GenProfile::deep());
        let err = parse(&["--profile", "turbo"]).unwrap_err();
        assert!(err.contains("turbo") && err.contains("deep"), "{err}");
    }

    #[test]
    fn knob_overrides_apply_on_top_of_the_profile_in_any_flag_order() {
        let a = parse(&["--profile", "deep", "--boundary-bias", "60"]).unwrap();
        let b = parse(&["--boundary-bias", "60", "--profile", "deep"]).unwrap();
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.profile.boundary_bias, 60);
        assert_eq!(a.profile.type_depth, GenProfile::deep().type_depth);
        assert_eq!(a.profile.name, "custom");
    }

    #[test]
    fn invalid_profile_knobs_are_friendly_errors_not_clamps() {
        let err = parse(&["--boundary-bias", "250"]).unwrap_err();
        assert!(err.contains("0-100"), "{err}");
        let err = parse(&["--fuel", "0"]).unwrap_err();
        assert!(err.contains("fuel"), "{err}");
        let err = parse(&["--type-depth", "0"]).unwrap_err();
        assert!(err.contains("type depth"), "{err}");
        let err = parse(&["--weights", "0,0,0"]).unwrap_err();
        assert!(err.contains("weights"), "{err}");
        let err = parse(&["--weights", "1,2"]).unwrap_err();
        assert!(err.contains("L,B,W"), "{err}");
    }

    #[test]
    fn shards_parse_and_validate() {
        let opts = parse(&["--shard", "1/4"]).unwrap();
        assert_eq!(opts.shard, Some((1, 4)));
        assert!(parse(&["--shard", "4/4"])
            .unwrap_err()
            .contains("out of range"));
        assert!(parse(&["--shard", "0/0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["--shard", "nonsense"]).unwrap_err().contains("K/N"));
    }

    #[test]
    fn oversized_weights_are_rejected_not_overflowed() {
        let err = parse(&["--weights", "3000000000,3000000000,1"]).unwrap_err();
        assert!(err.contains("at or below"), "{err}");
    }

    #[test]
    fn sweeps_larger_than_the_engine_cap_get_a_friendly_error() {
        // 4M seeds pass the per-range CLI check but exceed the cap once
        // multiplied across the three case studies.
        let cases = AnyCase::all(false);
        let source = SeedRange::new(0, 4_000_000).unwrap();
        let err = check_sweep_size(&cases, &source).unwrap_err();
        assert!(err.contains("exceeds the per-sweep limit"), "{err}");
        let small = SeedRange::new(0, 100).unwrap();
        assert!(check_sweep_size(&cases, &small).is_ok());
    }

    #[test]
    fn model_check_flags_parse() {
        assert_eq!(parse(&[]).unwrap().model_check, None);
        let opts = parse(&["--model-check"]).unwrap();
        assert_eq!(opts.model_check, Some(true));
        assert!(
            sweep_config(&opts, false).model_check,
            "overrides chaos's default"
        );
        let opts = parse(&["--no-model-check"]).unwrap();
        assert!(
            !sweep_config(&opts, true).model_check,
            "overrides sweep's default"
        );
    }

    #[test]
    fn trace_and_progress_flags_parse() {
        assert!(!parse(&[]).unwrap().progress);
        assert!(parse(&["--progress"]).unwrap().progress);
    }

    #[test]
    fn supervised_sweep_flags_parse_and_retired_flags_are_unknown() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.workers, None, "no --workers = one-shot sweep");
        assert_eq!(
            opts.worker_timeout_ms, None,
            "tri-state: sweep --workers resolves to 30000, chaos to 5000"
        );
        let opts = parse(&["--workers", "2", "--worker-timeout-ms", "5000"]).unwrap();
        assert_eq!(opts.workers, Some(2));
        assert_eq!(opts.worker_timeout_ms, Some(5000));
        assert!(parse(&["--workers", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["--worker-timeout-ms", "0"])
            .unwrap_err()
            .contains("at least 1"));
        for retired in [
            "--port",
            "--queue-capacity",
            "--max-retries",
            "--log",
            "--shards",
            "--job",
            "--wait",
            "--shutdown",
            "--repeat",
            "--cold",
            "--json",
            "--corpus-load",
            "--corpus-save",
            "--trace",
        ] {
            let err = parse(&[retired, "1"]).unwrap_err();
            assert!(err.contains("unknown option"), "{retired}: {err}");
        }
    }

    #[test]
    fn fault_injection_flags_parse_and_zero_die_after_is_rejected() {
        let opts = parse(&["--fault-shard", "1", "--fault-after", "5"]).unwrap();
        assert_eq!(opts.fault_shard, Some(1));
        assert_eq!(opts.fault_after, Some(5));
        assert_eq!(
            opts.fault_kind, None,
            "sweep --workers defaults the kind to crash"
        );
        let opts = parse(&["--die-after", "3"]).unwrap();
        assert_eq!(opts.die_after, Some(3));
        assert!(parse(&["--die-after", "0"])
            .unwrap_err()
            .contains("at least 1"));
    }

    #[test]
    fn crash_safety_flags_parse_and_validate() {
        let opts = parse(&[]).unwrap();
        assert!(opts.state_dir.is_none() && !opts.resume);
        assert_eq!(opts.rounds, 1);
        assert!(opts.fault_kind.is_none());
        assert!(opts.wedge_after.is_none() && opts.corrupt_save.is_none());
        let opts = parse(&[
            "--state-dir",
            "state",
            "--resume",
            "--rounds",
            "3",
            "--fault-kind",
            "wedge",
            "--wedge-after",
            "4",
            "--corrupt-save",
            "truncate",
        ])
        .unwrap();
        assert_eq!(opts.state_dir.as_deref(), Some("state"));
        assert!(opts.resume);
        assert_eq!(opts.rounds, 3);
        assert_eq!(opts.fault_kind, Some(FaultKind::Wedge));
        assert_eq!(opts.wedge_after, Some(4));
        assert_eq!(opts.corrupt_save.as_deref(), Some("truncate"));
        assert!(parse(&["--rounds", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["--wedge-after", "0"])
            .unwrap_err()
            .contains("at least 1"));
        let err = parse(&["--fault-kind", "segfault"]).unwrap_err();
        assert!(err.contains("fault kind"), "{err}");
        let err = parse(&["--corrupt-save", "zero-out"]).unwrap_err();
        assert!(err.contains("garbage"), "{err}");
    }

    #[test]
    fn supervised_sweep_and_chaos_share_one_refusal_check() {
        // Every refusal fires before any worker, sweep or baseline runs.
        let refusals: [(&[&str], &str); 7] = [
            (&["--type-depth", "5"], "preset"),
            (&["--shard", "0/2"], "--workers N"),
            (&["--broken"], "--broken"),
            (&["--time"], "--time"),
            (&["--die-after", "3"], "--fault-shard"),
            (&["--fault-kind", "wedge"], "--fault-shard"),
            (&["--fault-shard", "1"], "together"),
        ];
        for (flags, needle) in refusals {
            let owned: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
            let mut sweep = vec!["--workers".to_string(), "2".into()];
            sweep.extend(owned.iter().cloned());
            let err = cmd_sweep(&sweep).unwrap_err();
            assert!(err.contains(needle), "sweep --workers 2 {flags:?}: {err}");
            let err = cmd_chaos(&owned).unwrap_err();
            assert!(err.contains(needle), "chaos {flags:?}: {err}");
        }
        let err = cmd_sweep(&["--workers".into(), "2".into(), "--resume".into()]).unwrap_err();
        assert!(err.contains("--state-dir"), "{err}");
        // A one-shot sweep refuses --corrupt-save with nothing to corrupt.
        let err = cmd_sweep(&["--corrupt-save".into(), "garbage".into()]).unwrap_err();
        assert!(err.contains("--save"), "{err}");
    }

    #[test]
    fn run_and_check_take_only_the_options_they_honour() {
        let owned =
            |args: &str| -> Vec<String> { args.split_whitespace().map(str::to_string).collect() };
        // Every flag a `repro:` line prints is one `run` takes.
        let custom = parse(&["--boundary-bias", "90", "--fuel", "30"])
            .unwrap()
            .profile;
        let repro = format!("--case sharedmem --seed 3 {}", population(&custom, true));
        assert!(parse_options("run", &owned(&repro)).is_ok(), "{repro}");
        for (command, flag) in [
            ("run", "--jobs"),
            ("run", "--seeds"),
            ("run", "--progress"),
            ("check", "--seed"),
            ("check", "--no-model-check"),
            ("check", "--progress"),
        ] {
            let err = parse_options(command, &owned(&format!("{flag} 1"))).unwrap_err();
            assert!(
                err.contains(&format!("`semint {command}`")) && err.contains(flag),
                "{err}"
            );
        }
    }

    #[test]
    fn unknown_commands_suggest_the_closest_subcommand() {
        let hint = unknown_command("swep");
        assert!(hint.contains("did you mean `sweep`?"), "{hint}");
        let hint = unknown_command("reprot");
        assert!(hint.contains("did you mean `report`?"), "{hint}");
        let hint = unknown_command("chaso");
        assert!(hint.contains("did you mean `chaos`?"), "{hint}");
        // Gibberish gets the plain error, not a far-fetched hint.
        let hint = unknown_command("xyzzyqwert");
        assert!(!hint.contains("did you mean"), "{hint}");
        assert!(hint.contains("semint help"), "{hint}");
    }

    #[test]
    fn edit_distance_is_the_usual_levenshtein() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("swep", "sweep"), 1);
    }

    #[test]
    fn the_command_table_and_usage_agree() {
        let usage_names: Vec<&str> = USAGE
            .lines()
            .filter_map(|line| line.strip_prefix("    semint "))
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        let table_names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        assert_eq!(usage_names, table_names, "USAGE lists exactly the table");
        for retired in [
            "serve",
            "submit",
            "status",
            "bench",
            "bench-diff",
            "profile",
        ] {
            let err = dispatch(retired, &[]).unwrap_err();
            assert!(err.contains("unknown command"), "{retired}: {err}");
        }
        assert_eq!(dispatch("--help", &[]), Ok(true));
    }

    #[test]
    fn build_source_picks_range_or_shard() {
        let opts = parse(&["--seeds", "0..12"]).unwrap();
        let source = build_source(&opts).unwrap();
        assert_eq!(source.seeds("any").len(), 12);
        let opts = parse(&["--seeds", "0..12", "--shard", "0/3"]).unwrap();
        let source = build_source(&opts).unwrap();
        assert_eq!(source.seeds("any"), vec![0, 3, 6, 9]);
    }
}
