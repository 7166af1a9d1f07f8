//! The semint benchmark: three sweep workloads measured end to end, and a
//! separate traced run that attributes their time to the pipeline layers.
//!
//! ```text
//! semint-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!                  --semint PATH --work DIR [--jobs J]
//! semint-perfbench --write-anchors PATH --semint PATH --work DIR
//! ```
//!
//! `perfbench/run.py` builds this binary and `semint`, then runs it; see
//! `perfbench/README.md` for the metrics and the reasons behind each
//! workload.  The last line of standard output is the JSON result.

mod anchors;
mod calib;
mod replay;
mod sys;
mod workload;

use replay::{replay_case, CaseReplay, Layer, Tracer};
use semint_core::stats::CaseReport;
use semint_harness::engine::{run_batch, sweep_all};
use semint_harness::{AnyCase, CaseStudy, ScenarioSource};
use std::path::PathBuf;
use std::time::Instant;
use workload::{summarize, Env, Rep, Summary, Workload};

/// Set-ups timed next to each measured repetition (median of all reported).
const SETUPS_PER_REP: usize = 11;
/// The fewest measured repetitions a run makes, however short `--seconds`.
const MIN_REPS: usize = 3;
/// Untraced repetitions the traced run makes for CPU use and shard balance.
const TRACED_REPS: usize = 3;
/// Seeds per case the traced run alternates between its replay and engine
/// timings (a multiple of every workload's batch size).
const CHUNK: usize = 400;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    env: Env,
    write_anchors: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut semint = None;
    let mut work = None;
    let mut jobs = None;
    let mut write_anchors = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => trace = value()? == "1",
            "--semint" => semint = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--jobs" => {
                let j: usize = value()?.parse().map_err(|e| format!("--jobs: {e}"))?;
                jobs = Some(j.max(1));
            }
            "--write-anchors" => write_anchors = Some(value()?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let env = Env {
        semint: semint.ok_or("--semint PATH is required")?,
        work: work.ok_or("--work DIR is required")?,
        jobs: jobs.unwrap_or_else(available),
    };
    if write_anchors.is_none() && workload.is_none() {
        return Err("--workload NAME is required".into());
    }
    Ok(Args {
        workload: workload.unwrap_or(Workload::DeepSweep),
        seed,
        seconds,
        trace,
        env,
        write_anchors,
    })
}

fn available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `q`-quantile of `values` (0 = smallest, 1 = largest), linearly
/// interpolated between neighbouring ranks; 0 for no values.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The run's verdict: how many scenarios were attempted and how many of
/// them disagreed with a reference (or were lost to a crash).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn attempt(&mut self, scenarios: u64, problems: Vec<(u64, String)>) {
        self.attempted += scenarios;
        for (affected, why) in problems {
            println!("MISMATCH: {why}");
            self.failed += affected.min(scenarios);
        }
    }
}

/// One metric of the JSON result.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn print_result(tally: &Tally, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// Checks a repetition against the reference.
fn check_rep(rep: &Rep, want: &Result<Vec<Summary>, String>, scenarios: u64) -> Vec<(u64, String)> {
    match (&rep.report, want) {
        (Ok(got), Ok(want)) => workload::mismatches(got, want),
        (Err(e), _) => vec![(scenarios, format!("repetition failed: {e}"))],
        (_, Err(e)) => vec![(scenarios, format!("reference failed: {e}"))],
    }
}

/// Replays the anchor population and checks it against `anchors.tsv`,
/// printing the deterministic proxies it pins down.
fn check_anchors(wl: Workload, tally: &mut Tally) {
    let replays = anchors::replay_anchor(wl);
    for r in &replays {
        let c = &r.report;
        println!(
            "proxies (anchor seeds {}, {}): instrs {} · heap_allocs {} · glue_probes {} · shrink_checks {} · failures {}",
            anchors::anchor_seeds().spec(),
            c.case,
            c.counters.total_instrs(),
            c.counters.heap_allocs,
            c.glue_hits + c.glue_misses,
            r.shrink_checks,
            c.failures.len()
        );
    }
    let problems = anchors::check(wl, &replays);
    if problems.is_empty() {
        println!("anchors: digests, VM counters, glue probes and shrink checks match anchors.tsv");
    }
    tally.attempt(anchors::anchor_scenarios(), problems);
}

fn header(args: &Args, mode: &str) -> replay::Shape {
    let wl = args.workload;
    let shape = wl.shape();
    let range = workload::population(wl, args.seed);
    println!(
        "perfbench {} ({mode}) · seed {} · seeds {} × 3 cases · profile {} · batch {} · model check {} · jobs {} (available {})",
        wl.name(),
        args.seed,
        range.spec(),
        shape.profile.name,
        shape.batch,
        if shape.model_check { "on" } else { "off" },
        args.env.jobs,
        available()
    );
    if args.env.jobs > available() {
        eprintln!(
            "warning: {} jobs/shards on {} available cores: wall time will include time spent descheduled",
            args.env.jobs,
            available()
        );
    }
    shape
}

/// The untraced run: end-to-end metrics.
fn untraced(args: &Args) -> (Tally, Vec<Metric>) {
    let wl = args.workload;
    header(args, "end to end");
    let range = workload::population(wl, args.seed);
    let scenarios = range.count() * 3;

    // One unmeasured repetition first, so page cache and allocator are warm
    // when the window opens; it is still checked.
    let warmup = workload::run_rep(wl, &args.env, range);

    // Every measured repetition sits between two calibration-kernel calls
    // on as many threads as the workload keeps busy; their mean over
    // `calib::REFERENCE_S` is how much slower than the reference host the
    // machine ran at the time.  Set-ups are timed right after the first.
    let busy = wl.workers(args.env.jobs).min(available());
    let window = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut slowdowns: Vec<f64> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    while reps.len() < MIN_REPS || window.elapsed().as_secs_f64() < args.seconds {
        let before = calib::measure(busy);
        let setup: Vec<f64> = (0..SETUPS_PER_REP)
            .map(|_| workload::setup_once(wl, args.env.jobs, range))
            .collect();
        let rep = workload::run_rep(wl, &args.env, range);
        let slowdown = (before + calib::measure(busy)) / 2.0 / calib::REFERENCE_S;
        println!(
            "rep {:>3}: {scenarios} scenarios in {:.4} s ({:.0}/s) · cpu {:.3} s · steal {:.2} s · host slowdown {slowdown:.3}",
            reps.len() + 1,
            rep.wall_s,
            scenarios as f64 / rep.wall_s,
            rep.cpu_s,
            rep.steal_s,
        );
        setups.extend(setup.iter().map(|s| s / slowdown));
        reps.push(rep);
        slowdowns.push(slowdown);
    }

    // The peak of the largest process that ran the window's sweeps: this
    // one for the in-process workload, a `semint` child otherwise (whose
    // figure also covers this process's image at spawn time).
    let peak_rss = sys::peak_rss_mib().max(sys::children_peak_rss_mib());

    let mut tally = Tally::default();
    let reference = workload::reference(wl, &args.env, range);
    for rep in std::iter::once(&warmup).chain(&reps) {
        tally.attempt(scenarios, check_rep(rep, &reference, scenarios));
    }
    if let Ok(r) = &reference {
        for c in r {
            println!(
                "proxies (population, {}): instrs {} · heap_allocs {} · failures {} — each of the {} reps is checked against these",
                c.case,
                c.counters.total_instrs(),
                c.counters.heap_allocs,
                c.failures,
                reps.len()
            );
        }
    }
    check_anchors(wl, &mut tally);

    // The wall time each repetition had the machine: on a shared virtual
    // machine the hypervisor takes busy vCPUs away ("steal", which idle
    // vCPUs do not accrue), swinging identical runs by a third; each of
    // the workload's busy vCPUs lost its share of the steal.  What is left
    // is scaled to the reference host speed by the repetition's slowdown,
    // and so is its CPU time: the host's speed drifts by a fifth over
    // minutes, CPU time included, and the kernel tracks it.
    let workers = wl.workers(args.env.jobs);
    let per_rep = |f: &dyn Fn(&Rep, f64) -> f64| -> Vec<f64> {
        reps.iter().zip(&slowdowns).map(|(r, &s)| f(r, s)).collect()
    };
    let throughputs = per_rep(&|r, s| scenarios as f64 * s / (r.wall_s - r.steal_s / busy as f64));
    let cpu_per_kscen = per_rep(&|r, s| r.cpu_s / s * 1000.0 / scenarios as f64);
    let raw = per_rep(&|r, _| scenarios as f64 / r.wall_s);
    let raw_cpu = per_rep(&|r, _| r.cpu_s * 1000.0 / scenarios as f64);
    let wall: f64 = reps.iter().map(|r| r.wall_s).sum();
    let cpu: f64 = reps.iter().map(|r| r.cpu_s).sum();
    let steal: f64 = reps.iter().map(|r| r.steal_s).sum();
    println!(
        "descheduled: {cpu:.2} cpu-s over {wall:.2} s × {workers} workers ({:.1}% of worker time not on a CPU); hypervisor steal {steal:.2} s",
        100.0 * (1.0 - ratio(cpu, wall * workers as f64)),
    );
    println!(
        "{} reps, medians: host slowdown {:.3} (p10 {:.3}, p90 {:.3}); as measured {:.0} scenarios/s and {:.5} cpu-s/kscen; at reference speed {:.0} scenarios/s and {:.5} cpu-s/kscen (reported)",
        reps.len(),
        median(&slowdowns),
        quantile(&slowdowns, 0.1),
        quantile(&slowdowns, 0.9),
        median(&raw),
        median(&raw_cpu),
        median(&throughputs),
        median(&cpu_per_kscen),
    );
    let error_rate = ratio(tally.failed as f64, tally.attempted as f64);
    println!("peak_rss_mib {peak_rss:.1} (largest process running the measured sweeps)");
    println!(
        "error_rate {error_rate} ({} of {} scenarios disagree with a reference)",
        tally.failed, tally.attempted
    );
    let metrics = vec![
        metric("scenarios_per_s", median(&throughputs), "1/s"),
        metric("setup_s", median(&setups), "s"),
        metric("cpu_s_per_kscen", median(&cpu_per_kscen), "s"),
        metric("correct_share", 1.0 - error_rate, "ratio"),
        metric("peak_rss_mib", peak_rss, "MiB"),
    ];
    (tally, metrics)
}

/// Folds the engine's own records for `seeds` of one case into a report.
fn engine_case(case: &AnyCase, seeds: &[u64], shape: &replay::Shape) -> CaseReport {
    let cfg = workload::sweep_config(shape, 1);
    let mut report = CaseReport::new(case.name());
    for batch in seeds.chunks(shape.batch) {
        for record in run_batch(case, batch, &cfg) {
            report.absorb(&record);
        }
    }
    report
}

/// Compares two per-case results on digest and counters (and, when both
/// are single-threaded replays, on glue probes and shrink checks).
fn compare_replays(got: &[CaseReplay], want: &[CaseReplay]) -> Vec<(u64, String)> {
    let mut problems = workload::mismatches(&replay_summary(got), &replay_summary(want));
    for (g, w) in got.iter().zip(want) {
        let (gr, wr) = (&g.report, &w.report);
        if (gr.glue_hits, gr.glue_misses, g.shrink_checks)
            != (wr.glue_hits, wr.glue_misses, w.shrink_checks)
        {
            problems.push((
                wr.scenarios,
                format!(
                    "{}: glue probes or shrink checks differ between passes",
                    wr.case
                ),
            ));
        }
    }
    problems
}

fn replay_summary(replays: &[CaseReplay]) -> Vec<Summary> {
    summarize(replays.iter().map(|r| &r.report))
}

/// The traced run: per-layer metrics from spans around each layer's calls.
fn traced(args: &Args) -> (Tally, Vec<Metric>) {
    let wl = args.workload;
    let shape = header(args, "traced");
    let range = workload::population(wl, args.seed);
    let seeds = range.seeds("");
    let per_pass = range.count() * 3;
    let mut tally = Tally::default();

    let mut tracer = Tracer::recording();
    let mut first: Option<Vec<CaseReplay>> = None;
    // Per pass: seconds in layer spans, in the traced replay, in the
    // engine's `run_batch`, and in a whole `sweep_all`.
    let mut books: Vec<[f64; 4]> = Vec::new();
    let window = Instant::now();
    while books.is_empty() || window.elapsed().as_secs_f64() < args.seconds {
        // The traced replay and the engine's own batch runner alternate
        // 400 seeds at a time, each with its own cold case studies, so
        // machine noise affects both alike; then one untraced sweep of the
        // whole population at jobs 1 gives the wall time to balance.
        let spans_before = tracer.spans().len();
        let (replay_cases, engine_cases) = (AnyCase::all(shape.broken), AnyCase::all(shape.broken));
        let mut replays: Vec<CaseReplay> = replay_cases
            .iter()
            .map(|c| CaseReplay::new(c.name()))
            .collect();
        let mut engine: Vec<CaseReport> = engine_cases
            .iter()
            .map(|c| CaseReport::new(c.name()))
            .collect();
        let (mut replay_s, mut engine_s) = (0.0, 0.0);
        for chunk in seeds.chunks(CHUNK) {
            for idx in 0..replay_cases.len() {
                let t = Instant::now();
                let r = replay_case(&replay_cases[idx], idx, chunk, &shape, &mut tracer);
                replay_s += t.elapsed().as_secs_f64();
                replays[idx].merge(&r);

                let t = Instant::now();
                let e = engine_case(&engine_cases[idx], chunk, &shape);
                engine_s += t.elapsed().as_secs_f64();
                engine[idx].merge(&e);
            }
        }
        let layers_s = tracer.spans()[spans_before..]
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum::<f64>();
        let sweep_cases = AnyCase::all(shape.broken);
        let t = Instant::now();
        let swept = sweep_all(&sweep_cases, &range, &workload::sweep_config(&shape, 1));
        books.push([layers_s, replay_s, engine_s, t.elapsed().as_secs_f64()]);

        let reference = first.get_or_insert_with(|| replays.clone());
        tally.attempt(per_pass, compare_replays(&replays, reference));
        let reference = replay_summary(reference);
        tally.attempt(
            per_pass,
            workload::mismatches(&summarize(&engine), &reference),
        );
        tally.attempt(
            per_pass,
            workload::mismatches(&summarize(&swept.cases), &reference),
        );
    }
    let passes = books.len() as u64;
    let replays = first.expect("at least one pass");
    let reference = Ok(replay_summary(&replays));

    let reps: Vec<Rep> = (0..TRACED_REPS)
        .map(|_| workload::run_rep(wl, &args.env, range))
        .collect();
    for rep in &reps {
        tally.attempt(per_pass, check_rep(rep, &reference, per_pass));
    }
    check_anchors(wl, &mut tally);

    let case_names: Vec<&str> = replays.iter().map(|r| r.report.case.as_str()).collect();
    let spans_path = args.env.work.join(format!("spans-{}.tsv", wl.name()));
    match tracer.write(&spans_path, &case_names) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            spans_path.display()
        ),
        Err(e) => eprintln!("warning: could not write spans: {e}"),
    }

    let mut layer_ns = vec![[0u64; 3]; Layer::ALL.len()];
    for s in tracer.spans() {
        layer_ns[s.layer as usize][s.case] += s.end_ns - s.start_ns;
    }
    let ns = |layer: Layer, case: usize| layer_ns[layer as usize][case] as f64 / passes as f64;

    let mut metrics = Vec::new();
    println!("layer self time per scenario (ns), {passes} passes at jobs 1:");
    println!(
        "  {:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "case", "gen", "typecheck", "compile", "model", "run", "shrink/fail"
    );
    for (c, r) in replays.iter().enumerate() {
        let rep = &r.report;
        let name = rep.case.as_str();
        let n = rep.scenarios as f64;
        let boundaries = rep.total_boundaries as f64;
        let instrs = rep.counters.total_instrs() as f64;
        let probes = (rep.glue_hits + rep.glue_misses) as f64;
        let checks = r.shrink_checks as f64;
        let per = |layer| ratio(ns(layer, c), n);
        println!(
            "  {:<10} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>12.0}",
            name,
            per(Layer::Gen),
            per(Layer::Typecheck),
            per(Layer::Compile),
            per(Layer::Model),
            per(Layer::Run),
            ratio(ns(Layer::Shrink, c), r.shrunk as f64)
        );
        metrics.extend([
            metric(format!("gen.ns_per_scenario.{name}"), per(Layer::Gen), "ns"),
            metric(
                format!("gen.chars_per_scenario.{name}"),
                ratio(rep.total_program_chars as f64, n),
                "chars",
            ),
            metric(
                format!("typecheck.ns_per_scenario.{name}"),
                per(Layer::Typecheck),
                "ns",
            ),
            metric(
                format!("compile.ns_per_scenario.{name}"),
                per(Layer::Compile),
                "ns",
            ),
            metric(
                format!("compile.ns_per_boundary.{name}"),
                ratio(ns(Layer::Compile, c), boundaries),
                "ns",
            ),
            metric(
                format!("glue.miss_rate.{name}"),
                ratio(rep.glue_misses as f64, probes),
                "ratio",
            ),
            metric(
                format!("glue.probes_per_boundary.{name}"),
                ratio(probes, boundaries),
                "count",
            ),
            metric(
                format!("model.ns_per_scenario.{name}"),
                per(Layer::Model),
                "ns",
            ),
            metric(
                format!("run.ns_per_instr.{name}"),
                ratio(ns(Layer::Run, c), instrs),
                "ns",
            ),
            metric(format!("run.ns_per_scenario.{name}"), per(Layer::Run), "ns"),
            metric(
                format!("run.instrs_per_scenario.{name}"),
                ratio(instrs, n),
                "count",
            ),
            metric(
                format!("run.heap_allocs_per_scenario.{name}"),
                ratio(rep.counters.heap_allocs as f64, n),
                "count",
            ),
            metric(
                format!("shrink.ns_per_failure.{name}"),
                ratio(ns(Layer::Shrink, c), r.shrunk as f64),
                "ns",
            ),
            metric(
                format!("shrink.checks_per_failure.{name}"),
                ratio(checks, r.shrunk as f64),
                "count",
            ),
        ]);
    }

    // Books: the layers' self time plus the engine's residual make up the
    // engine's batch-runner time by construction; the check is how close
    // that comes to an independently timed whole sweep.  Medians over
    // passes.
    let per_scenario = |f: &dyn Fn(&[f64; 4]) -> f64| {
        median(
            &books
                .iter()
                .map(|b| f(b) * 1e9 / per_pass as f64)
                .collect::<Vec<_>>(),
        )
    };
    let layers_per = per_scenario(&|b| b[0]);
    let other_per = per_scenario(&|b| b[2] - b[0]);
    let wall_per = per_scenario(&|b| b[3]);
    let gap_pct = 100.0 * ratio(wall_per - layers_per - other_per, wall_per);
    let overhead_pct = median(
        &books
            .iter()
            .map(|b| 100.0 * (b[1] - b[2]) / b[2])
            .collect::<Vec<_>>(),
    );
    println!(
        "books ({}): layers {layers_per:.0} + other {other_per:.0} = {:.0} ns/scenario vs sweep wall {wall_per:.0} ns/scenario (gap {gap_pct:.2}%); tracing overhead {overhead_pct:.2}%",
        wl.name(),
        layers_per + other_per,
    );

    let workers = wl.workers(args.env.jobs);
    let util: Vec<f64> = reps
        .iter()
        .map(|r| ratio(r.cpu_s, r.wall_s * workers as f64))
        .collect();
    let imbalance: Vec<f64> = reps
        .iter()
        .map(|r| {
            let walls = &r.shard_walls_s;
            let mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
            ratio(walls.iter().cloned().fold(0.0, f64::max), mean)
        })
        .collect();
    let merge: Vec<f64> = reps.iter().map(|r| r.merge_s).collect();
    let bytes = reps.last().map_or(0, |r| r.report_bytes);
    let kept = reps.last().map_or(0, |r| r.witnesses_kept);
    let failures: usize = replays.iter().map(|r| r.report.failures.len()).sum();
    println!(
        "engine: cpu_util {:.3} over {workers} workers · report: merge {:.4} s, {bytes} bytes, {kept} of {failures} witnesses kept · shard imbalance {:.3}",
        median(&util),
        median(&merge),
        median(&imbalance)
    );
    metrics.extend([
        metric("engine.other_ns_per_scenario", other_per, "ns"),
        metric("engine.cpu_util", median(&util), "ratio"),
        metric("report.merge_s", median(&merge), "s"),
        metric(
            "report.bytes_per_scenario",
            ratio(bytes as f64, per_pass as f64),
            "bytes",
        ),
        metric("report.witnesses_kept", kept as f64, "count"),
        metric("shard.imbalance", median(&imbalance), "ratio"),
        metric("books.gap_pct", gap_pct, "%"),
        metric("trace.overhead_pct", overhead_pct, "%"),
    ]);
    (tally, metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.env.work) {
        eprintln!("perfbench: creating {}: {e}", args.env.work.display());
        std::process::exit(2);
    }
    if let Some(path) = &args.write_anchors {
        if let Err(e) = anchors::write(&args.env, path) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        println!("anchors written to {path}");
        return;
    }
    let (tally, metrics) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    print_result(&tally, &metrics);
    if tally.failed > 0 {
        std::process::exit(1);
    }
}
