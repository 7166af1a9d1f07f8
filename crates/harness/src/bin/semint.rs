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
//! Argument parsing is hand-rolled (the workspace is offline; no clap):
//! every command parses its arguments against the one [`OPTIONS`] table
//! into a [`Given`], reads the options it honours, and refuses the rest.

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
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
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

    Each command takes the options it honours and refuses (exit 2) every
    other one: `semint COMMAND` takes no `--FLAG` option.  Parentheses below
    name the commands that take an option.  `sweep --workers` takes what
    `sweep` takes, less the options --workers says it refuses, plus the
    SUPERVISED SWEEP options; `report` and `help` take no option at all.

SCENARIO SUPPLY (check, sweep, chaos):
    --seeds A..B     half-open seed range                    (default: 0..100)
    --shard K/N      (check, sweep) take the K-th of N deterministic slices of
                     the seed range; the N shards are disjoint, cover the range,
                     and their saved reports merge (`semint report`) into the
                     unsharded digests

GENERATION PROFILE (run, check, sweep, chaos):
    --profile NAME   smoke | default | deep | boundary-heavy (default: default)
                     deep generates source types of depth >= 4, putting
                     compound-glue derivation on the sweep's critical path
    Knobs override the profile (run, check, sweep; supervised sweeps refuse them):
    --type-depth D   max source-type depth
    --depth D        max expression depth
    --boundary-bias P  boundary probability 0-100
    --weights L,B,W  leaf,branch,wrap constructor weights
    --fuel N         step budget per run

OPTIONS:
    --case NAME      sharedmem | affine | memgc | all        (default: all)
                     (run, check, sweep, chaos)
    --seed N         (run) the one scenario's seed, required;
                     (chaos) the drill seed that derives every round's fault
                     schedule                                (default: 0)
    --jobs J         (check, sweep, chaos) worker threads    (default: 4)
    --batch N        (check, sweep, chaos) compiled artifacts executed per
                     reused machine (default: 1 = one machine per scenario);
                     batching amortises machine setup and never changes digests
    --no-model-check (run, sweep, chaos) skip the realizability-model stage
    --model-check    (run, check, sweep, chaos) run the realizability-model
                     stage (on by default, and always under check; chaos
                     rounds skip it unless this is given); of the two model
                     check flags the last given wins
    --time           (run, check, sweep) collect per-stage wall-clock totals
                     (generate/typecheck/compile/run/model-check, and the
                     engine's own time as `other`; run always collects them);
                     deterministic VM counters are always collected, and timed
                     and untimed sweeps agree on digests and counters exactly
    --progress       (sweep) rolling stderr progress line (scenarios/s,
                     safe-rate, glue hit-rate, ETA)
    --broken         (run, check, sweep) sabotage a conversion rule per case
                     study; failing scenarios are reported with shrunk
                     counterexamples
    --save PATH      (check, sweep) save the sweep report, failures included,
                     as TSV; it records the population's flags, and every
                     printed failure ends with the `repro: semint run ...`
                     line that replays it

SUPERVISED SWEEP (sweep --workers, chaos):
    --workers N      split the seed range into N shards and run them as N
                     concurrent `semint sweep --shard` worker processes
                     (chaos default: 4); a shard that dies three times fails
                     the sweep.  Profile knobs, --shard, --broken, --time,
                     --progress and the one-process faults cannot be handed
                     to workers and are refused
    --worker-timeout-ms T  a worker with no heartbeat for T ms is wedged,
                     killed, and its slice re-issued    (default: 30000; chaos: 5000)
    --state-dir DIR  durable state: an fsync'd journal, one tab-separated
                     line per sweep event, plus checkpointed shard reports
                     (default: a fresh temporary dir, removed after a
                     successful sweep and kept, path printed, after a failed
                     one); chaos keeps its per-round dirs in here
    --resume         (sweep --workers) finish the sweep journaled in
                     --state-dir: the command must match the journaled one,
                     digest-verified checkpoints are adopted, and only
                     unaccounted shards re-run
    --rounds N       (chaos) kill-and-resume rounds to run        (default: 1)

FAULT INJECTION (testing):
    --die-after N    (sweep) abort the process mid-sweep after N scenarios —
                     a deterministic injected crash
    --wedge-after N  (sweep) go silent mid-sweep after N scenarios without
                     exiting — only the heartbeat timeout catches it
    --corrupt-save MODE  (sweep) sabotage the --save report after writing it:
                     `garbage` replaces it wholesale, `truncate` cuts it
                     mid-line so it cannot parse
    --fault-shard K  (sweep --workers) sabotage shard K's first attempt,
                     forcing a supervised re-issue; needs --fault-after
    --fault-after N  (sweep --workers) the sabotage fires after N scenarios
    --fault-kind KIND  (sweep --workers) crash | wedge | corrupt-report |
                     truncate-report — how the sabotaged shard misbehaves
                     (default: crash)

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
fn cmd_help(args: &[String]) -> Result<bool, String> {
    Given::parse("help", args)?.finish(&[])?;
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

/// Every option a command can take, and whether it takes a value.  A command
/// reads from [`Given`] the options it honours; [`Given::finish`] refuses the
/// rest.
const OPTIONS: [(&str, bool); 29] = [
    ("--case", true),
    ("--seeds", true),
    ("--shard", true),
    ("--seed", true),
    ("--jobs", true),
    ("--batch", true),
    ("--profile", true),
    ("--type-depth", true),
    ("--depth", true),
    ("--boundary-bias", true),
    ("--weights", true),
    ("--fuel", true),
    ("--no-model-check", false),
    ("--model-check", false),
    ("--time", false),
    ("--progress", false),
    ("--broken", false),
    ("--save", true),
    ("--workers", true),
    ("--worker-timeout-ms", true),
    ("--state-dir", true),
    ("--resume", false),
    ("--rounds", true),
    ("--fault-shard", true),
    ("--fault-after", true),
    ("--fault-kind", true),
    ("--die-after", true),
    ("--wedge-after", true),
    ("--corrupt-save", true),
];

/// An option group a command refuses, and the hint its refusal gives.
type Hint = (&'static [&'static str], &'static str);

/// The options a supervised sweep cannot hand to its shard workers, with
/// the hint `sweep --workers` and `chaos` give when they refuse one.
const UNSHARDABLE: [Hint; 4] = [
    (
        &[
            "--type-depth",
            "--depth",
            "--boundary-bias",
            "--weights",
            "--fuel",
        ],
        "supervised sweeps pin preset profiles (smoke | default | deep | boundary-heavy), \
         which shard workers rebuild by name",
    ),
    (
        &["--shard"],
        "supervised sweeps shard themselves; use --workers N instead of --shard K/N",
    ),
    (&["--broken"], "supervised sweeps run the sound rules only"),
    (
        &["--time"],
        "shard workers run untimed, so --time cannot be honoured",
    ),
];

/// The hint `sweep --workers` gives when it refuses a one-process fault.
/// `chaos`, which takes none of the `--fault-*` options it names, refuses
/// these faults without a hint.
const ONE_PROCESS_FAULTS: Hint = (
    &["--die-after", "--wedge-after", "--corrupt-save"],
    "it sabotages one process; use --fault-shard, --fault-after and --fault-kind to \
     sabotage a shard",
);

/// The one refusal of an option a command does not take.
fn refusal(command: &str, flag: &str, hint: Option<&str>) -> String {
    let refused = format!("`semint {command}` takes no `{flag}` option");
    match hint {
        Some(hint) => format!("{refused}: {hint}"),
        None => format!("{refused}; try `semint help`"),
    }
}

/// A command line parsed against [`OPTIONS`].  A command reads each option
/// it honours (`text`, `switch`, `parsed`, `count` and the readers built on
/// them), then calls [`Given::finish`], which refuses whatever it left.
struct Given {
    /// What a refusal calls the command (`run`, `sweep --workers`, …).
    command: &'static str,
    /// The options in command-line order, each with its value (none for a
    /// switch); reading an option empties its slots.
    options: Vec<Option<(&'static str, Option<String>)>>,
}

impl Given {
    /// Parses `args` as the options of `semint command`: an argument that is
    /// not an option (`-` starts every option), an option missing from
    /// [`OPTIONS`] or a missing value is an error.
    fn parse(command: &'static str, args: &[String]) -> Result<Given, String> {
        let mut options = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                return Err(format!(
                    "`semint {command}` takes no `{arg}` argument; try `semint help`"
                ));
            }
            let &(flag, takes_value) = OPTIONS
                .iter()
                .find(|(flag, _)| flag == arg)
                .ok_or_else(|| format!("unknown option `{arg}`; try `semint help`"))?;
            let value = if takes_value {
                let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
                Some(value.clone())
            } else {
                None
            };
            options.push(Some((flag, value)));
        }
        Ok(Given { command, options })
    }

    /// Takes every `flag` given: the last one's position and value.
    fn take(&mut self, flag: &'static str) -> Option<(usize, Option<String>)> {
        let mut last = None;
        for (at, slot) in self.options.iter_mut().enumerate() {
            if matches!(slot, Some((given, _)) if *given == flag) {
                last = slot.take().map(|(_, value)| (at, value));
            }
        }
        last
    }

    /// Whether the switch `flag` was given.
    fn switch(&mut self, flag: &'static str) -> bool {
        self.take(flag).is_some()
    }

    /// The value of `flag`; of a repeated option the last one wins.
    fn text(&mut self, flag: &'static str) -> Option<String> {
        self.take(flag).and_then(|(_, value)| value)
    }

    /// The value of `flag`, parsed.
    fn parsed<T: FromStr>(&mut self, flag: &'static str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.text(flag)
            .map(|text| text.parse().map_err(|e| format!("{flag}: {e}")))
            .transpose()
    }

    /// The value of `flag`, a count: zero is refused, never clamped.
    fn count<T>(&mut self, flag: &'static str) -> Result<Option<T>, String>
    where
        T: FromStr + Default + PartialEq,
        T::Err: Display,
    {
        match self.parsed(flag)? {
            Some(n) if n == T::default() => Err(format!("{flag} must be at least 1")),
            n => Ok(n),
        }
    }

    /// Refuses the first option given that the command did not read, with
    /// the hint `hints` gives for it, if any.
    fn finish(self, hints: &[Hint]) -> Result<(), String> {
        let Some((flag, _)) = self.options.into_iter().flatten().next() else {
            return Ok(());
        };
        let hint = hints
            .iter()
            .find(|(refused, _)| refused.contains(&flag))
            .map(|(_, hint)| *hint);
        Err(refusal(self.command, flag, hint))
    }

    /// The case studies `--case` names (default `all`), sabotaged under
    /// `--broken`, and whether they are.
    fn cases(&mut self) -> Result<(Vec<AnyCase>, bool), String> {
        let name = self.text("--case");
        let broken = self.switch("--broken");
        let cases = match name.as_deref() {
            None | Some("all") => AnyCase::all(broken),
            Some(name) => vec![AnyCase::by_name(name, broken).ok_or_else(|| {
                format!("unknown case study `{name}` (sharedmem | affine | memgc | all)")
            })?],
        };
        Ok((cases, broken))
    }

    /// The `--profile` preset (default: `default`).
    fn preset(&mut self) -> Result<GenProfile, String> {
        let Some(name) = self.text("--profile") else {
            return Ok(GenProfile::standard());
        };
        GenProfile::by_name(&name).ok_or_else(|| {
            format!(
                "unknown profile `{name}` (expected one of: {})",
                GenProfile::PRESET_NAMES.join(" | ")
            )
        })
    }

    /// The generation profile: the preset with every knob given applied on
    /// top, whatever the flag order.  Any knob names the profile `custom`,
    /// and invalid knobs are refused with the profile's own complaint,
    /// never clamped.
    fn profile(&mut self) -> Result<GenProfile, String> {
        let mut p = self.preset()?;
        let mut custom = false;
        if let Some(depth) = self.parsed("--type-depth")? {
            (p.type_depth, custom) = (depth, true);
        }
        if let Some(depth) = self.parsed("--depth")? {
            (p.max_depth, custom) = (depth, true);
        }
        if let Some(bias) = self.parsed("--boundary-bias")? {
            (p.boundary_bias, custom) = (bias, true);
        }
        if let Some(spec) = self.text("--weights") {
            (p.weights, custom) = (weights(&spec)?, true);
        }
        if let Some(steps) = self.parsed("--fuel")? {
            (p.fuel, custom) = (Fuel::steps(steps), true);
        }
        if custom {
            p.name = "custom";
        }
        p.validate()?;
        Ok(p)
    }

    /// The `--seeds A..B` range (default `0..100`).
    fn range(&mut self) -> Result<SeedRange, String> {
        let Some(spec) = self.text("--seeds") else {
            return SeedRange::new(0, 100);
        };
        let (a, b) = spec
            .split_once("..")
            .ok_or_else(|| format!("--seeds expects A..B, got `{spec}`"))?;
        let start: u64 = a.parse().map_err(|e| format!("--seeds start: {e}"))?;
        let end: u64 = b.parse().map_err(|e| format!("--seeds end: {e}"))?;
        let range = SeedRange::new(start, end).map_err(|e| format!("--seeds: {e}"))?;
        if range.count() > MAX_SEEDS_PER_SWEEP {
            return Err(format!(
                "--seeds range `{spec}` has more than {MAX_SEEDS_PER_SWEEP} seeds"
            ));
        }
        Ok(range)
    }

    /// The scenarios swept: the seed range, or its `--shard K/N` slice.
    fn source(&mut self) -> Result<Box<dyn ScenarioSource>, String> {
        let range = self.range()?;
        let Some(spec) = self.text("--shard") else {
            return Ok(Box::new(range));
        };
        let (k, n) = spec
            .split_once('/')
            .ok_or_else(|| format!("--shard expects K/N, got `{spec}`"))?;
        let index = k.parse().map_err(|e| format!("--shard index: {e}"))?;
        let of = n.parse().map_err(|e| format!("--shard count: {e}"))?;
        let shard = Shard::new(range, index, of).map_err(|e| format!("--shard: {e}"))?;
        Ok(Box::new(shard))
    }

    /// `--jobs` worker threads (default 4) and `--batch` artifacts per
    /// reused machine (default 1).
    fn jobs_and_batch(&mut self) -> Result<(usize, usize), String> {
        Ok((
            self.count("--jobs")?.unwrap_or(4),
            self.count("--batch")?.unwrap_or(1),
        ))
    }

    /// Whether the model check runs: as the last of `--model-check` and
    /// `--no-model-check` given says, else as the command's `default`.
    fn model_check(&mut self, default: bool) -> bool {
        let on = self.take("--model-check").map(|(at, _)| at);
        let off = self.take("--no-model-check").map(|(at, _)| at);
        match (on, off) {
            (None, None) => default,
            _ => on > off,
        }
    }

    /// The sweep `sweep --workers` and `chaos` split across `workers` shard
    /// processes, with the model check on by `model_check` default.  Its
    /// workers rebuild it from flags, so it takes a preset and no knob; the
    /// options they cannot be handed are refused with [`UNSHARDABLE`]'s hints.
    fn supervised_spec(&mut self, workers: usize, model_check: bool) -> Result<SweepSpec, String> {
        let range = self.range()?;
        let (jobs, batch) = self.jobs_and_batch()?;
        Ok(SweepSpec {
            seeds: (range.start(), range.end()),
            profile: self.preset()?.name.to_string(),
            case: self.text("--case").unwrap_or_else(|| "all".into()),
            workers: workers as u64,
            jobs,
            batch,
            model_check: self.model_check(model_check),
            fault: None,
        })
    }
}

/// Parses `--weights L,B,W`.
fn weights(spec: &str) -> Result<ConstructorWeights, String> {
    let mut parts = spec.split(',');
    let mut next = |what: &str| -> Result<u32, String> {
        parts
            .next()
            .ok_or_else(|| format!("--weights expects L,B,W, got `{spec}`"))?
            .parse::<u32>()
            .map_err(|e| format!("--weights {what}: {e}"))
    };
    let weights = ConstructorWeights {
        leaf: next("leaf")?,
        branch: next("branch")?,
        wrap: next("wrap")?,
    };
    if parts.next().is_some() {
        return Err(format!("--weights expects exactly L,B,W, got `{spec}`"));
    }
    Ok(weights)
}

/// The friendly version of the engine's sweep-size assert, returning the
/// number of scenarios: the per-range check in [`Given::range`] cannot see
/// the case count, so a range below `MAX_SEEDS_PER_SWEEP` can still exceed
/// it once multiplied across cases.
fn check_sweep_size(cases: &[AnyCase], source: &dyn ScenarioSource) -> Result<u64, String> {
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
    Ok(total)
}

/// `semint run`: one scenario, spelled out — always with per-stage
/// wall-clock, so a single-seed investigation shows where the time goes
/// without a timed sweep.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let mut given = Given::parse("run", args)?;
    let (cases, _) = given.cases()?;
    let profile = given.profile()?;
    let seed = given.parsed::<u64>("--seed")?;
    let model_check = given.model_check(true);
    // Taken so that `--time` reads as it does in a sweep: run always times.
    given.switch("--time");
    given.finish(&[])?;
    let seed = seed.ok_or("`semint run` needs --seed N")?;
    let cfg = SweepConfig {
        profile,
        model_check,
        time: true,
        ..SweepConfig::default()
    };
    let mut clean = true;
    for case in &cases {
        let scenario = case.generate(seed, &profile);
        println!("case {}", case.name());
        println!("  seed    {seed}");
        println!("  profile {profile}");
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
    let mut given = Given::parse("check", args)?;
    let (cases, broken) = given.cases()?;
    let profile = given.profile()?;
    let source = given.source()?;
    let (jobs, batch) = given.jobs_and_batch()?;
    // Taken, and changes nothing: check always runs the model check.
    given.switch("--model-check");
    let time = given.switch("--time");
    let save = given.text("--save");
    given.finish(&[])?;
    let cfg = SweepConfig {
        jobs,
        profile,
        model_check: true,
        time,
        batch,
    };
    check_sweep_size(&cases, source.as_ref())?;
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
    let mut report = sweep_all(&cases, source.as_ref(), &cfg);
    report.population = Some(population(&profile, broken));
    print!("{}", render_sweep(&report));
    save_report(save.as_deref(), &report)?;
    Ok(clean && report.failure_count() == 0)
}

/// `semint sweep`: the parallel batch run.
fn cmd_sweep(args: &[String]) -> Result<bool, String> {
    let mut given = Given::parse("sweep", args)?;
    if let Some(workers) = given.count("--workers")? {
        given.command = "sweep --workers";
        return cmd_supervised_sweep(supervised_sweep(given, workers)?);
    }
    let (cases, broken) = given.cases()?;
    let profile = given.profile()?;
    let source = given.source()?;
    let (jobs, batch) = given.jobs_and_batch()?;
    let cfg = SweepConfig {
        jobs,
        profile,
        model_check: given.model_check(true),
        time: given.switch("--time"),
        batch,
    };
    let progress = given.switch("--progress");
    let save = given.text("--save");
    let die_after = given.count("--die-after")?;
    let wedge_after = given.count("--wedge-after")?;
    let corrupt_save = given.text("--corrupt-save");
    given.finish(&[])?;
    if let Some(mode) = &corrupt_save {
        if !matches!(mode.as_str(), "garbage" | "truncate") {
            return Err(format!(
                "--corrupt-save expects `garbage` or `truncate`, got `{mode}`"
            ));
        }
        if save.is_none() {
            return Err("--corrupt-save sabotages the --save report; give --save PATH too".into());
        }
    }
    let total = check_sweep_size(&cases, source.as_ref())?;
    println!("sweep: {} · profile {profile}", source.describe());
    // A `--die-after`/`--wedge-after` fault needs the observer's count too.
    let observer = (progress || die_after.is_some() || wedge_after.is_some()).then(|| {
        SweepObserver::new(total, progress)
            .with_fault(die_after)
            .with_wedge(wedge_after)
    });
    let mut report = sweep_all_observed(&cases, source.as_ref(), &cfg, observer.as_ref());
    report.population = Some(population(&profile, broken));
    if let Some(observer) = observer {
        observer.finish();
    }
    print_sweep(&report);
    save_report(save.as_deref(), &report)?;
    if let (Some(path), Some(mode)) = (&save, &corrupt_save) {
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
fn save_report(save: Option<&str>, report: &SweepReport) -> Result<(), String> {
    if let Some(path) = save {
        std::fs::write(path, report.to_tsv()).map_err(|e| format!("saving {path}: {e}"))?;
        println!("saved: {path}");
    }
    Ok(())
}

/// A `semint sweep --workers N` command line, read.
struct SupervisedSweep {
    /// The sweep its N shard processes run, fault included.
    spec: SweepSpec,
    /// `--state-dir`; without it the sweep runs in a fresh temporary dir.
    state_dir: Option<PathBuf>,
    resume: bool,
    /// A worker with no heartbeat for this long is wedged.
    timeout: Duration,
    save: Option<String>,
}

/// Reads the options of `semint sweep --workers`, split across `workers`
/// shard processes.
fn supervised_sweep(mut given: Given, workers: usize) -> Result<SupervisedSweep, String> {
    let mut spec = given.supervised_spec(workers, true)?;
    let fault_shard = given.parsed("--fault-shard")?;
    let fault_after = given.parsed("--fault-after")?;
    let fault_kind = given.text("--fault-kind");
    let fault_kind = fault_kind.map(|k| FaultKind::from_label(&k)).transpose()?;
    let timeout = Duration::from_millis(given.count("--worker-timeout-ms")?.unwrap_or(30_000));
    let state_dir = given.text("--state-dir").map(PathBuf::from);
    let resume = given.switch("--resume");
    let save = given.text("--save");
    given.finish(&[UNSHARDABLE.as_slice(), &[ONE_PROCESS_FAULTS]].concat())?;
    spec.fault = match (fault_shard, fault_after) {
        (None, None) if fault_kind.is_some() => {
            return Err("--fault-kind needs --fault-shard and --fault-after".into())
        }
        (None, None) => None,
        (Some(shard), Some(after)) => Some(FaultPlan {
            shard,
            after,
            kind: fault_kind.unwrap_or(FaultKind::Crash),
        }),
        _ => return Err("--fault-shard and --fault-after must be given together".into()),
    };
    spec.validate()?;
    if resume && state_dir.is_none() {
        return Err("--resume requires --state-dir (the journal lives there)".into());
    }
    Ok(SupervisedSweep {
        spec,
        state_dir,
        resume,
        timeout,
        save,
    })
}

/// `semint sweep --workers N`: the same sweep run as N supervised shard
/// processes, journaled and checkpointed in a state dir so that a killed
/// sweep can be finished with `--resume`.  It prints, saves and exits as a
/// one-shot sweep does.
fn cmd_supervised_sweep(sweep: SupervisedSweep) -> Result<bool, String> {
    let spec = &sweep.spec;
    let binary = std::env::current_exe()
        .map_err(|e| format!("cannot locate the semint binary to spawn workers: {e}"))?;
    let (state_dir, temporary) = match sweep.state_dir {
        Some(dir) => (dir, false),
        None => {
            let nanos = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |since| since.subsec_nanos());
            let name = format!("semint-sweep-{}-{nanos}", std::process::id());
            (std::env::temp_dir().join(name), true)
        }
    };
    let profile = GenProfile::by_name(&spec.profile).expect("a validated preset");
    println!("sweep: {} · profile {profile}", spec.range().describe());
    let mut report = fleet::run_sweep(&binary, spec, &state_dir, sweep.resume, sweep.timeout)
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
    report.population = Some(population(&profile, false));
    print_sweep(&report);
    save_report(sweep.save.as_deref(), &report)?;
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
    if let Some(flag) = args.iter().find(|arg| arg.starts_with("--")) {
        return Err(refusal("report", flag, None));
    }
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

/// Reads the options of `semint chaos`: the drill's seed and rounds, and
/// the supervised sweep every round runs.
fn chaos_config(args: &[String]) -> Result<ChaosConfig, String> {
    let mut given = Given::parse("chaos", args)?;
    // The drill's rounds are real supervised sweeps (run-only unless
    // --model-check); each round schedules its own fault.
    let workers = given.count("--workers")?.unwrap_or(4);
    let spec = given.supervised_spec(workers, false)?;
    let seed = given.parsed("--seed")?.unwrap_or(0);
    let rounds = given.count("--rounds")?.unwrap_or(1);
    // Drills inject wedges on purpose; detect them fast.
    let worker_timeout_ms = given.count("--worker-timeout-ms")?.unwrap_or(5_000);
    let state_dir = given.text("--state-dir");
    given.finish(&UNSHARDABLE)?;
    spec.validate()?;
    let binary = std::env::current_exe()
        .map_err(|e| format!("cannot locate the semint binary to drill: {e}"))?;
    let state_root = match state_dir {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("semint-chaos-{}", std::process::id())),
    };
    Ok(ChaosConfig {
        binary,
        seed,
        rounds,
        spec,
        worker_timeout_ms,
        state_root,
        echo: true,
    })
}

/// `semint chaos`: the deterministic kill-and-resume drill.  Every round
/// derives a fault plan and a kill point from `--seed`, runs a faulted
/// `semint sweep --workers` process, SIGKILLs it once the journal shows the
/// scheduled number of checkpoints, reruns it with `--resume`, and asserts
/// the resumed digests and VM counters are byte-identical to an
/// uninterrupted one-shot sweep — with no checkpointed shard re-run.
fn cmd_chaos(args: &[String]) -> Result<bool, String> {
    let cfg = chaos_config(args)?;
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

    fn owned(args: &str) -> Vec<String> {
        args.split_whitespace().map(str::to_string).collect()
    }

    /// `args` parsed as `semint sweep` parses them.
    fn given(args: &str) -> Given {
        Given::parse("sweep", &owned(args)).unwrap()
    }

    fn profile(args: &str) -> Result<GenProfile, String> {
        given(args).profile()
    }

    #[test]
    fn reversed_seed_ranges_are_rejected_with_a_friendly_error() {
        let err = given("--seeds 50..10").range().unwrap_err();
        assert!(err.contains("reversed"), "{err}");
        // No panic (debug-build underflow) either way round.
        let err = given("--seeds 7..7").range().unwrap_err();
        assert!(err.contains("empty"), "{err}");
        let err = given("--seeds 7").range().unwrap_err();
        assert!(err.contains("A..B"), "{err}");
    }

    #[test]
    fn well_formed_seed_ranges_parse() {
        let range = given("--seeds 3..9").range().unwrap();
        assert_eq!((range.start(), range.end()), (3, 9));
        let range = given("").range().unwrap();
        assert_eq!((range.start(), range.end()), (0, 100), "the default");
        let err = given("--seeds 0..10000001").range().unwrap_err();
        assert!(err.contains("more than"), "{err}");
    }

    #[test]
    fn switches_and_repeated_options_read_as_given() {
        assert!(!given("").switch("--time"));
        assert!(given("--time").switch("--time"));
        assert!(given("--progress --progress").switch("--progress"));
        assert_eq!(given("").text("--save"), None);
        assert_eq!(
            given("--save a.tsv --save b.tsv").text("--save").as_deref(),
            Some("b.tsv"),
            "the last one wins"
        );
    }

    #[test]
    fn unknown_options_and_arguments_are_rejected() {
        let err = Given::parse("sweep", &owned("--nope")).err().unwrap();
        assert!(err.contains("unknown option `--nope`"), "{err}");
        let err = Given::parse("run", &owned("-h")).err().unwrap();
        assert!(err.contains("unknown option `-h`"), "{err}");
        for (command, args) in [("sweep", "7"), ("run", "--seed 3 7"), ("help", "sweep")] {
            let err = dispatch(command, &owned(args)).unwrap_err();
            let last = args.split_whitespace().last().unwrap();
            let needle = format!("`semint {command}` takes no `{last}` argument");
            assert!(err.contains(&needle), "semint {command} {args}: {err}");
        }
    }

    #[test]
    fn batch_sizes_parse_and_zero_is_rejected_not_clamped() {
        assert_eq!(given("").jobs_and_batch().unwrap(), (4, 1), "the defaults");
        assert_eq!(given("--batch 8").jobs_and_batch().unwrap(), (4, 8));
        let err = given("--batch 0").jobs_and_batch().unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = given("--jobs 0").jobs_and_batch().unwrap_err();
        assert!(err.contains("--jobs must be at least 1"), "{err}");
        let err = given("--batch many").jobs_and_batch().unwrap_err();
        assert!(err.contains("--batch"), "{err}");
        let err = Given::parse("sweep", &owned("--batch")).err().unwrap();
        assert!(err.contains("--batch needs a value"), "{err}");
    }

    #[test]
    fn profiles_parse_and_unknown_profiles_are_rejected() {
        assert_eq!(profile("").unwrap(), GenProfile::standard());
        assert_eq!(profile("--profile deep").unwrap(), GenProfile::deep());
        let err = profile("--profile turbo").unwrap_err();
        assert!(err.contains("turbo") && err.contains("deep"), "{err}");
    }

    #[test]
    fn knob_overrides_apply_on_top_of_the_profile_in_any_flag_order() {
        let a = profile("--profile deep --boundary-bias 60").unwrap();
        let b = profile("--boundary-bias 60 --profile deep").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.boundary_bias, 60);
        assert_eq!(a.type_depth, GenProfile::deep().type_depth);
        assert_eq!(a.name, "custom");
        // Any knob names the profile `custom`, even one equal to the preset's.
        let same = profile("--profile deep --type-depth 4").unwrap();
        assert_eq!(same.type_depth, GenProfile::deep().type_depth);
        assert_eq!(same.name, "custom");
        let all = profile("--type-depth 3 --depth 5 --boundary-bias 10 --weights 1,2,3 --fuel 9")
            .unwrap();
        assert_eq!(
            all.flags(),
            "--type-depth 3 --depth 5 --boundary-bias 10 --weights 1,2,3 --fuel 9"
        );
    }

    #[test]
    fn invalid_profile_knobs_are_friendly_errors_not_clamps() {
        let err = profile("--boundary-bias 250").unwrap_err();
        assert!(err.contains("0-100"), "{err}");
        let err = profile("--fuel 0").unwrap_err();
        assert!(err.contains("fuel"), "{err}");
        let err = profile("--type-depth 0").unwrap_err();
        assert!(err.contains("type depth"), "{err}");
        let err = profile("--weights 0,0,0").unwrap_err();
        assert!(err.contains("weights"), "{err}");
        let err = profile("--weights 1,2").unwrap_err();
        assert!(err.contains("L,B,W"), "{err}");
        let err = profile("--weights 1,2,3,4").unwrap_err();
        assert!(err.contains("exactly L,B,W"), "{err}");
        let err = profile("--depth deep").unwrap_err();
        assert!(err.contains("--depth"), "{err}");
    }

    #[test]
    fn shards_parse_and_validate() {
        let source = given("--seeds 0..12 --shard 1/4").source().unwrap();
        assert_eq!(source.seeds("any"), vec![1, 5, 9]);
        let err = given("--shard 4/4").source().err().unwrap();
        assert!(err.contains("out of range"), "{err}");
        let err = given("--shard 0/0").source().err().unwrap();
        assert!(err.contains("at least 1"), "{err}");
        let err = given("--shard nonsense").source().err().unwrap();
        assert!(err.contains("K/N"), "{err}");
    }

    #[test]
    fn the_source_is_the_range_or_its_shard() {
        let source = given("--seeds 0..12").source().unwrap();
        assert_eq!(source.seeds("any").len(), 12);
        let source = given("--shard 0/3 --seeds 0..12").source().unwrap();
        assert_eq!(source.seeds("any"), vec![0, 3, 6, 9]);
    }

    #[test]
    fn oversized_weights_are_rejected_not_overflowed() {
        let err = profile("--weights 3000000000,3000000000,1").unwrap_err();
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
        assert_eq!(check_sweep_size(&cases, &small), Ok(300));
    }

    #[test]
    fn model_check_flags_parse_and_the_last_given_wins() {
        assert!(given("").model_check(true), "sweep's default");
        assert!(!given("").model_check(false), "chaos's default");
        assert!(given("--model-check").model_check(false));
        assert!(!given("--no-model-check").model_check(true));
        assert!(!given("--model-check --no-model-check").model_check(true));
        assert!(given("--no-model-check --model-check").model_check(false));
        assert!(given("--no-model-check --model-check --jobs 2").model_check(false));
    }

    #[test]
    fn supervised_sweep_flags_parse_and_retired_flags_are_unknown() {
        let err = cmd_sweep(&owned("--workers 0")).unwrap_err();
        assert!(err.contains("--workers must be at least 1"), "{err}");
        let err = cmd_sweep(&owned("--workers 2 --worker-timeout-ms 0")).unwrap_err();
        assert!(
            err.contains("--worker-timeout-ms must be at least 1"),
            "{err}"
        );
        let err = cmd_chaos(&owned("--workers 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let spec = given("--seeds 0..8 --profile smoke --jobs 2 --batch 4 --case affine")
            .supervised_spec(3, false)
            .unwrap();
        assert_eq!(
            spec.sweep_args(),
            owned("--seeds 0..8 --profile smoke --case affine --jobs 2 --batch 4 --no-model-check")
        );
        assert_eq!(spec.workers, 3);
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
            let err = Given::parse("sweep", &owned(&format!("{retired} 1")))
                .err()
                .unwrap();
            assert!(err.contains("unknown option"), "{retired}: {err}");
        }
    }

    #[test]
    fn fault_injection_flags_parse_and_zero_die_after_is_rejected() {
        let mut flags = given("--fault-shard 1 --fault-after 5 --die-after 3");
        assert_eq!(flags.parsed::<u64>("--fault-shard"), Ok(Some(1)));
        assert_eq!(flags.parsed::<u64>("--fault-after"), Ok(Some(5)));
        assert_eq!(flags.count::<u64>("--die-after"), Ok(Some(3)));
        let err = cmd_sweep(&owned("--die-after 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = cmd_sweep(&owned("--workers 2 --fault-shard one")).unwrap_err();
        assert!(err.contains("--fault-shard"), "{err}");
    }

    #[test]
    fn crash_safety_flags_parse_and_validate() {
        let drill = chaos_config(&[]).unwrap();
        assert_eq!((drill.seed, drill.rounds), (0, 1), "chaos's defaults");
        assert_eq!(drill.worker_timeout_ms, 5_000);
        assert_eq!(drill.spec.workers, 4);
        assert!(!drill.spec.model_check && drill.spec.fault.is_none());
        let drill = chaos_config(&owned("--seed 9 --rounds 3 --state-dir state")).unwrap();
        assert_eq!((drill.seed, drill.rounds), (9, 3));
        assert_eq!(drill.state_root, PathBuf::from("state"));
        let sweep = supervised_sweep(given(""), 2).unwrap();
        assert_eq!(sweep.timeout, Duration::from_millis(30_000), "the default");
        assert!(sweep.spec.model_check && sweep.spec.fault.is_none());
        assert!(sweep.state_dir.is_none() && !sweep.resume && sweep.save.is_none());
        let line = "--state-dir state --resume --fault-kind wedge --fault-shard 1 --fault-after 4";
        let sweep = supervised_sweep(given(line), 2).unwrap();
        assert_eq!(sweep.state_dir, Some(PathBuf::from("state")));
        assert!(sweep.resume);
        let fault = FaultPlan {
            shard: 1,
            after: 4,
            kind: FaultKind::Wedge,
        };
        assert_eq!(sweep.spec.fault, Some(fault));
        let mut flags = given("--wedge-after 4 --corrupt-save truncate");
        assert_eq!(flags.count::<u64>("--wedge-after"), Ok(Some(4)));
        assert_eq!(flags.text("--corrupt-save").as_deref(), Some("truncate"));
        for (args, needle) in [
            ("chaos --rounds 0", "at least 1"),
            ("sweep --wedge-after 0", "at least 1"),
            ("sweep --workers 2 --fault-kind segfault", "fault kind"),
            ("sweep --corrupt-save zero-out --save x.tsv", "garbage"),
        ] {
            let args = owned(args);
            let err = dispatch(&args[0], &args[1..]).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn supervised_sweep_and_chaos_share_one_refusal_check() {
        // Every refusal fires before any worker, sweep or baseline runs.
        // The hint on a one-process fault names the --fault-* options,
        // which chaos does not take, so chaos refuses it without one.
        let refusals = [
            ("--type-depth 5", "preset", "preset"),
            ("--shard 0/2", "--workers N", "--workers N"),
            ("--broken", "sound rules", "sound rules"),
            ("--time", "untimed", "untimed"),
            (
                "--die-after 3",
                "--fault-shard",
                "`--die-after` option; try",
            ),
            (
                "--progress",
                "`--progress` option; try",
                "`--progress` option; try",
            ),
        ];
        for (flags, sweep_needle, chaos_needle) in refusals {
            let err = cmd_sweep(&owned(&format!("--workers 2 {flags}"))).unwrap_err();
            assert!(err.contains("`semint sweep --workers` takes no"), "{err}");
            assert!(
                err.contains(sweep_needle),
                "sweep --workers 2 {flags}: {err}"
            );
            let err = cmd_chaos(&owned(flags)).unwrap_err();
            assert!(err.contains("`semint chaos` takes no"), "{err}");
            assert!(err.contains(chaos_needle), "chaos {flags}: {err}");
        }
        // The fault options only a supervised sweep takes.
        for (flags, needle) in [
            ("--fault-kind wedge", "needs --fault-shard"),
            ("--fault-shard 1", "together"),
            ("--fault-shard 2 --fault-after 1", "out of range"),
            ("--resume", "--state-dir"),
        ] {
            let err = cmd_sweep(&owned(&format!("--workers 2 {flags}"))).unwrap_err();
            assert!(err.contains(needle), "sweep --workers 2 {flags}: {err}");
            let err = cmd_chaos(&owned(flags)).unwrap_err();
            let flag = flags.split_whitespace().next().unwrap();
            assert!(
                err.contains(&format!("`semint chaos` takes no `{flag}`")),
                "{err}"
            );
        }
        // A one-shot sweep refuses --corrupt-save with nothing to corrupt.
        let err = cmd_sweep(&owned("--corrupt-save garbage")).unwrap_err();
        assert!(err.contains("--save"), "{err}");
    }

    #[test]
    fn a_refused_option_is_reported_before_a_missing_one() {
        let err = cmd_run(&owned("--seeds 0..3")).unwrap_err();
        assert!(err.contains("`semint run` takes no `--seeds`"), "{err}");
        assert!(cmd_run(&owned("--case sharedmem"))
            .unwrap_err()
            .contains("needs --seed N"));
        let err = cmd_sweep(&owned("--workers 2 --fault-kind crash --seed 1")).unwrap_err();
        assert!(err.contains("takes no `--seed`"), "{err}");
    }

    /// A valid command line fragment giving `flag`.
    fn sample(flag: &str) -> String {
        let value = match flag {
            "--case" => "sharedmem",
            "--seeds" => "0..4",
            "--shard" => "0/2",
            "--profile" => "smoke",
            "--boundary-bias" => "50",
            "--weights" => "1,1,1",
            "--fuel" => "100",
            "--save" | "--state-dir" => "unwritten",
            "--workers" => "2",
            "--fault-shard" => "0",
            "--fault-kind" => "crash",
            "--corrupt-save" => "garbage",
            _ => "1",
        };
        let (_, takes_value) = OPTIONS.iter().find(|(known, _)| *known == flag).unwrap();
        if *takes_value {
            format!("{flag} {value}")
        } else {
            flag.to_string()
        }
    }

    #[test]
    fn each_command_takes_the_options_it_honours_and_refuses_the_rest() {
        const PROFILE: [&str; 6] = [
            "--profile",
            "--type-depth",
            "--depth",
            "--boundary-bias",
            "--weights",
            "--fuel",
        ];
        let modes: [(&str, &str, Vec<&str>); 6] = [
            (
                "run",
                "",
                [
                    "--case",
                    "--seed",
                    "--broken",
                    "--model-check",
                    "--no-model-check",
                    "--time",
                ]
                .into_iter()
                .chain(PROFILE)
                .collect(),
            ),
            (
                "check",
                "",
                [
                    "--case",
                    "--seeds",
                    "--shard",
                    "--jobs",
                    "--batch",
                    "--broken",
                    "--model-check",
                    "--time",
                    "--save",
                ]
                .into_iter()
                .chain(PROFILE)
                .collect(),
            ),
            (
                "sweep",
                "",
                [
                    "--case",
                    "--seeds",
                    "--shard",
                    "--jobs",
                    "--batch",
                    "--broken",
                    "--model-check",
                    "--no-model-check",
                    "--time",
                    "--progress",
                    "--save",
                    "--workers",
                    "--die-after",
                    "--wedge-after",
                    "--corrupt-save",
                ]
                .into_iter()
                .chain(PROFILE)
                .collect(),
            ),
            (
                "sweep",
                "--workers 2",
                vec![
                    "--case",
                    "--seeds",
                    "--profile",
                    "--jobs",
                    "--batch",
                    "--model-check",
                    "--no-model-check",
                    "--save",
                    "--workers",
                    "--worker-timeout-ms",
                    "--state-dir",
                    "--resume",
                    "--fault-shard",
                    "--fault-after",
                    "--fault-kind",
                ],
            ),
            (
                "chaos",
                "",
                vec![
                    "--case",
                    "--seeds",
                    "--profile",
                    "--jobs",
                    "--batch",
                    "--model-check",
                    "--no-model-check",
                    "--workers",
                    "--worker-timeout-ms",
                    "--state-dir",
                    "--seed",
                    "--rounds",
                ],
            ),
            ("help", "", vec![]),
        ];
        let mut taken_somewhere = Vec::new();
        for (command, base, takes) in &modes {
            for (flag, _) in OPTIONS {
                // A refused option after `flag`: the refusal names `flag`
                // if the command refused it, or else this one, and either
                // way the command stops before it runs anything.
                let (last, _) = OPTIONS
                    .iter()
                    .find(|(other, _)| *other != flag && !takes.contains(other))
                    .unwrap();
                let line = format!("{base} {} {}", sample(flag), sample(last));
                let err = dispatch(command, &owned(&line)).unwrap_err();
                let mode = if *command == "sweep" && line.contains("--workers") {
                    "sweep --workers"
                } else {
                    command
                };
                let refused = if takes.contains(&flag) { last } else { flag };
                assert!(
                    err.starts_with(&format!("`semint {mode}` takes no `{refused}` option")),
                    "semint {command} {line}: {err}"
                );
                if takes.contains(&flag) {
                    taken_somewhere.push(flag);
                }
            }
        }
        taken_somewhere.sort_unstable();
        taken_somewhere.dedup();
        assert_eq!(
            taken_somewhere.len(),
            OPTIONS.len(),
            "no option goes unused"
        );
        // `report` takes no option at all, through the same refusal.
        let err = dispatch("report", &owned("--time t.tsv")).unwrap_err();
        assert_eq!(err, refusal("report", "--time", None));
    }

    #[test]
    fn every_flag_a_repro_line_prints_is_one_run_takes() {
        let custom = profile("--boundary-bias 90 --fuel 30").unwrap();
        // The trailing refused option stops `run` before it runs anything.
        let repro = format!(
            "--case sharedmem --seed 3 {} --jobs 1",
            population(&custom, true)
        );
        let err = cmd_run(&owned(&repro)).unwrap_err();
        assert!(err.contains("takes no `--jobs`"), "{repro}: {err}");
    }

    #[test]
    fn the_option_table_and_usage_agree() {
        let mut documented: Vec<&str> = USAGE
            .lines()
            .filter_map(|line| line.strip_prefix("    "))
            .filter(|rest| rest.starts_with("--"))
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        let mut table: Vec<&str> = OPTIONS.iter().map(|(flag, _)| *flag).collect();
        documented.sort_unstable();
        table.sort_unstable();
        assert_eq!(documented, table, "USAGE documents each option once");
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
}
