//! The parallel batch runner.
//!
//! A sweep groups each case study's seeds into contiguous **batches** of
//! [`SweepConfig::batch`] scenarios (default 1), turns each batch into one
//! task, and drains the tasks through a **work-stealing pool**: every worker
//! owns a deque, pops from its own front, and steals from the backs of the
//! others when it runs dry.  Within a task, every scenario is generated,
//! typechecked and compiled individually — exactly as in a per-scenario
//! sweep — and the model check takes its evidence from the artifact
//! ([`CaseStudy::model_evidence`]).  Then the whole batch of compiled
//! artifacts is executed through [`CaseStudy::execute_batch`], which the
//! case studies implement with **one** reused machine (reset in place
//! between programs) so machine setup is amortised across the batch.
//! Finally each scenario's report is checked for an unsafe outcome and,
//! failing that, judged by the model check ([`CaseStudy::model_judgement`]):
//! the realizability models judge a program by its run, and the run stage
//! has just made it, so no scenario runs twice.
//!
//! Neither scheduling nor batching influences results: each task's
//! generator is seeded purely by its sweep seed, batches preserve per-seed
//! order, batched machines are reset to an observationally fresh state, and
//! records are re-ordered by task index before aggregation — so a sweep is
//! deterministic (digest-identical) for any `--jobs` *and* any `--batch`
//! value, which the integration suite asserts.

use crate::observe::SweepObserver;
use crate::shrink::shrink_failure;
use crate::source::ScenarioSource;
use semint_core::case::{CaseStudy, GenProfile, Scenario};
use semint_core::stats::{
    CaseReport, FailStage, FailureRecord, ScenarioRecord, StageTimings, SweepReport,
};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Configuration for one sweep.  *What* to sweep is no longer in here — the
/// workload is supplied by a [`ScenarioSource`] (a seed range or a shard of
/// one); this struct carries only the *how*.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Worker threads; clamped to the task count and to at least 1.
    pub jobs: usize,
    /// The generation profile every scenario is generated with.
    pub profile: GenProfile,
    /// Whether to run the realizability-model check on every scenario (the
    /// expensive stage; `run`-only sweeps skip it).
    pub model_check: bool,
    /// Whether to collect per-stage wall-clock totals (`semint sweep
    /// --time` and `semint run`): the five stages, plus the engine's own
    /// time in between as the `other` stage, so each batch's records add up
    /// to its wall-clock.
    /// Wall-clock is one of two sweep-time signals: the deterministic
    /// [`semint_core::VmCounters`] (instructions by opcode class,
    /// allocations, high-water marks) are collected unconditionally — they
    /// are digest-grade facts, cheap enough to never switch off.  Timing
    /// changes *measurement only*: every scenario is typechecked once,
    /// compiled once and run once whether or not the stopwatch is on — the
    /// compiled artifact is threaded from the compile stage through the
    /// model check's evidence into execution — so timed and untimed sweeps
    /// of the same seeds agree on digests, counters, and glue-cache hit/miss
    /// figures alike.  The model-check stage's time is its evidence plus its
    /// judgement.
    pub time: bool,
    /// How many same-case compiled artifacts are executed per reused
    /// machine (`--batch N`; must be at least 1).  `1` executes every
    /// scenario on its own machine; larger batches drive contiguous seed
    /// groups through one machine via [`CaseStudy::execute_batch`].
    /// Batching changes *amortisation only*: per-seed report order and all
    /// digests are identical for every batch size.
    pub batch: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            jobs: 4,
            profile: GenProfile::standard(),
            model_check: true,
            time: false,
            batch: 1,
        }
    }
}

/// The largest seed range a single sweep accepts.  Tasks are materialised
/// up front (so the pool can deal them round-robin), and this bound keeps
/// that allocation trivially small while still far exceeding any practical
/// sweep.
pub const MAX_SEEDS_PER_SWEEP: u64 = 10_000_000;

/// Maps `f` over `items` on a work-stealing pool of `jobs` threads,
/// returning results in input order.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, n);
    // Tasks are dealt round-robin so every worker starts with a share;
    // stealing rebalances whatever unevenness the workloads create.
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for idx in 0..n {
        queues[idx % jobs]
            .lock()
            .expect("queue poisoned")
            .push_back(idx);
    }

    let pop_task = |worker: usize| -> Option<usize> {
        // Own queue first (front), then steal from the others (back).
        if let Some(idx) = queues[worker].lock().expect("queue poisoned").pop_front() {
            return Some(idx);
        }
        for offset in 1..queues.len() {
            let victim = (worker + offset) % queues.len();
            if let Some(idx) = queues[victim].lock().expect("queue poisoned").pop_back() {
                return Some(idx);
            }
        }
        None
    };

    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|worker| {
                let f = &f;
                let pop_task = &pop_task;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while let Some(idx) = pop_task(worker) {
                        out.push((idx, f(&items[idx])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|(idx, _)| *idx);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Runs `f`, adding its wall-clock to `slot` when `enabled`.
fn staged<R>(enabled: bool, slot: &mut u64, f: impl FnOnce() -> R) -> R {
    if enabled {
        let started = Instant::now();
        let out = f();
        *slot += started.elapsed().as_nanos() as u64;
        out
    } else {
        f()
    }
}

/// A scenario ready to run: its compiled artifact and, when the sweep
/// model-checks, the model check's evidence.  The evidence is boxed so a
/// scenario holds one pointer, whatever the case study keeps.
type Ready<C> = (
    <C as CaseStudy>::Compiled,
    Option<Box<<C as CaseStudy>::Evidence>>,
);

/// The product of the pre-execution pipeline stages for one scenario:
/// everything the engine needs to finish the record once a machine report
/// is available (the execution itself is left to the caller, so a batch of
/// prepared scenarios can run through one reused machine).
struct Prepared<C: CaseStudy> {
    /// The record so far; `failure` is set when a pre-run stage rejected
    /// the scenario, in which case `ready` is `None`.
    record: ScenarioRecord,
    /// Per-stage wall-clock so far (`generate_ns` is stamped in by the
    /// caller, which owns the generation).
    timings: StageTimings,
    /// What the run needs, when every pre-run stage passed.
    ready: Option<Ready<C>>,
}

/// Stamps the collected timings into the record when the sweep is timed.
fn seal(mut record: ScenarioRecord, timings: StageTimings, time: bool) -> ScenarioRecord {
    if time {
        record.timings = Some(timings);
    }
    record
}

/// Runs the pre-execution pipeline stages on a generated scenario: the one
/// typecheck, the one compile, and the model check's evidence, *borrowing*
/// the artifact (execution consumes it later, so nothing is cloned on the
/// hot path).
///
/// The model check's judgement waits for the run's report: an unsafe run
/// outcome still takes precedence over a model-check rejection, exactly as
/// when the stages ran in pipeline order.
fn prepare_generated<C: CaseStudy>(
    case: &C,
    scenario: &Scenario<C::Program, C::Ty>,
    cfg: &SweepConfig,
) -> Prepared<C> {
    let seed = scenario.seed;
    let mut timings = StageTimings::default();
    let mut record = ScenarioRecord {
        seed,
        ty: scenario.ty.to_string(),
        program_chars: case.program_chars(&scenario.program),
        boundaries: case.boundary_count(&scenario.program),
        stats: None,
        failure: None,
        timings: None,
    };
    // A scenario that fails before it runs is its own shrunk witness: the
    // program is rendered here, once, and only when it failed.
    let plain_failure = |stage: FailStage, reason: String| {
        let rendered = scenario.program.to_string();
        FailureRecord {
            seed,
            stage,
            reason,
            witness: rendered.clone(),
            shrunk: rendered,
            shrink_steps: 0,
        }
    };

    // 1. The generator's type claim must re-check — the only typecheck the
    // scenario will ever get.
    let checked = staged(cfg.time, &mut timings.typecheck_ns, || {
        case.typecheck(&scenario.program)
    });
    match checked {
        Ok(checked) if checked == scenario.ty => {}
        Ok(checked) => {
            record.failure = Some(plain_failure(
                FailStage::Typecheck,
                format!("claimed {}, checked {}", scenario.ty, checked),
            ));
            return Prepared {
                record,
                timings,
                ready: None,
            };
        }
        Err(err) => {
            record.failure = Some(plain_failure(FailStage::Typecheck, err));
            return Prepared {
                record,
                timings,
                ready: None,
            };
        }
    }

    // 2. Compile exactly once; every downstream stage consumes this one
    // artifact (shrink re-checks, which examine *different*, smaller
    // programs, compile their own — also exactly once per candidate).
    let compiled = staged(cfg.time, &mut timings.compile_ns, || {
        case.compile(&scenario.program)
    });
    let compiled = match compiled {
        Ok(compiled) => compiled,
        Err(err) => {
            record.failure = Some(plain_failure(FailStage::Compile, err));
            return Prepared {
                record,
                timings,
                ready: None,
            };
        }
    };

    // 3. The model check's evidence borrows the artifact; its judgement
    // waits for the run's report.
    let evidence = cfg.model_check.then(|| {
        staged(cfg.time, &mut timings.model_check_ns, || {
            Box::new(case.model_evidence(
                &scenario.program,
                &scenario.ty,
                &compiled,
                cfg.profile.fuel,
            ))
        })
    });

    Prepared {
        record,
        timings,
        ready: Some((compiled, evidence)),
    }
}

/// Folds a machine report into a prepared scenario's record: run-stage
/// statistics, the unsafe-outcome check, and the model check's judgement
/// of the report, shrinking any counterexample.
fn finish_executed<C: CaseStudy>(
    case: &C,
    scenario: &Scenario<C::Program, C::Ty>,
    mut record: ScenarioRecord,
    mut timings: StageTimings,
    evidence: Option<Box<C::Evidence>>,
    report: C::Report,
    cfg: &SweepConfig,
) -> ScenarioRecord {
    let mut stats = case.stats(&report);
    // Boundaries are erased by compilation (glue is ordinary target code),
    // so the machines cannot count them; the engine stamps the scenario's
    // static boundary count, which is just as deterministic.
    stats.counters.boundary_crossings = record.boundaries as u64;
    record.stats = Some(stats);
    if !stats.outcome.is_safe() {
        // Shrink candidates are *different* programs, so each takes its own
        // trip through the artifact pipeline: typecheck once, compile once,
        // execute that artifact once.
        let (shrunk, steps) = shrink_failure(case, &scenario.program, |p| {
            case.typecheck(p).is_ok()
                && case
                    .compile(p)
                    .map(|compiled| {
                        !case
                            .stats(&case.execute(compiled, cfg.profile.fuel))
                            .outcome
                            .is_safe()
                    })
                    .unwrap_or(false)
        });
        record.failure = Some(FailureRecord {
            seed: scenario.seed,
            stage: FailStage::Run,
            reason: format!("unsafe outcome {}", stats.outcome),
            witness: scenario.program.to_string(),
            shrunk: shrunk.to_string(),
            shrink_steps: steps,
        });
        return seal(record, timings, cfg.time);
    }

    // The model check judges the run it has just seen.  A counterexample
    // is shrunk with the same one-compile-per-candidate discipline; each
    // candidate is model-checked whole, on its borrowed artifact.  A
    // candidate that typechecks but fails to compile still counts as
    // failing — the semantics the compile-their-own `model_check` default
    // always had (a compile error *is* a refutation of the model claim),
    // preserved so shrunk witnesses are unchanged.
    let Some(evidence) = evidence else {
        return seal(record, timings, cfg.time);
    };
    let verdict = staged(cfg.time, &mut timings.model_check_ns, || {
        case.model_judgement(
            &scenario.program,
            &scenario.ty,
            *evidence,
            &report,
            cfg.profile.fuel,
        )
    });
    if let Err(check) = verdict {
        let (shrunk, steps) = shrink_failure(case, &scenario.program, |p| {
            case.typecheck(p)
                .map(|ty| match case.compile(p) {
                    Ok(compiled) => case.model_check_compiled(p, &ty, &compiled).is_err(),
                    Err(_) => true,
                })
                .unwrap_or(false)
        });
        record.failure = Some(FailureRecord {
            seed: scenario.seed,
            stage: FailStage::ModelCheck,
            reason: check.to_string(),
            witness: scenario.program.to_string(),
            shrunk: shrunk.to_string(),
            shrink_steps: steps,
        });
    }
    seal(record, timings, cfg.time)
}

/// Runs the full pipeline for one seed of one case study: a [`run_batch`]
/// of one.
pub fn run_scenario<C: CaseStudy>(case: &C, seed: u64, cfg: &SweepConfig) -> ScenarioRecord {
    run_batch(case, &[seed], cfg)
        .pop()
        .expect("one record per seed")
}

/// Runs the full pipeline on an already-generated scenario (callers that
/// want to display the program first generate once and reuse it here).
///
/// The pipeline is artifact-threaded: the scenario is typechecked **once**,
/// compiled **once** and run **once**.  The resulting
/// [`CaseStudy::Compiled`] artifact is borrowed by the model check's
/// evidence and then consumed by execution, whose report the model check
/// judges — no stage recompiles, no stage clones, no stage reruns.  Only
/// shrink re-checks (which examine different, smaller programs) compile and
/// run again, once per candidate.  The scenario executes as a batch of one,
/// so its run stage is charged the whole batch wall-clock, and its `other`
/// stage is everything from here on that no stage timed.
pub fn run_generated<C: CaseStudy>(
    case: &C,
    scenario: &Scenario<C::Program, C::Ty>,
    cfg: &SweepConfig,
) -> ScenarioRecord {
    let started = cfg.time.then(Instant::now);
    let prepared = prepare_generated(case, scenario, cfg);
    let mut records = run_prepared(case, std::slice::from_ref(scenario), vec![prepared], cfg);
    book_other(&mut records, started);
    records.pop().expect("one record per scenario")
}

/// Runs the full pipeline for a contiguous group of seeds of one case
/// study, executing the group's compiled artifacts as **one batch** through
/// [`CaseStudy::execute_batch`] (one reused machine in the case-study
/// overrides).
///
/// Every stage — generate, typecheck, compile, the model check's evidence
/// before the run and its judgement after — runs per scenario exactly as in
/// [`run_scenario`], and records
/// come back in seed order with per-scenario statistics split back out, so
/// the result is digest-identical to running the seeds one at a time; only
/// machine setup is amortised.  The batch's run wall-clock cannot be
/// observed per scenario (the whole batch executes in one call), so when
/// the sweep is timed it is apportioned by the machine steps each scenario
/// consumed — a scenario that dominates the batch is charged its share of
/// the wall-clock, not an even split — with the exact-sum share split
/// keeping the per-case run-stage total precise.  What the batch's
/// wall-clock holds beyond the five stages is booked as the `other` stage.
pub fn run_batch<C: CaseStudy>(case: &C, seeds: &[u64], cfg: &SweepConfig) -> Vec<ScenarioRecord> {
    let started = cfg.time.then(Instant::now);
    let mut scenarios = Vec::with_capacity(seeds.len());
    let mut prepared: Vec<Prepared<C>> = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let mut generate_ns = 0;
        let scenario = staged(cfg.time, &mut generate_ns, || {
            case.generate(seed, &cfg.profile)
        });
        let mut p = prepare_generated(case, &scenario, cfg);
        p.timings.generate_ns = generate_ns;
        scenarios.push(scenario);
        prepared.push(p);
    }
    let mut records = run_prepared(case, &scenarios, prepared, cfg);
    book_other(&mut records, started);
    records
}

/// Books the time since `started` that no stage of `records` accounts for
/// as their `other` stage, split evenly so the records sum back to the
/// measured wall-clock exactly.  `started` is `None` when the sweep is
/// untimed, and then nothing is booked.
fn book_other(records: &mut [ScenarioRecord], started: Option<Instant>) {
    let Some(started) = started else { return };
    let wall_ns = started.elapsed().as_nanos() as u64;
    let staged_ns: u64 = records
        .iter()
        .filter_map(|r| r.timings.map(|t| t.total_ns()))
        .sum();
    let shares = weighted_shares(wall_ns.saturating_sub(staged_ns), &vec![0; records.len()]);
    for (record, share) in records.iter_mut().zip(shares) {
        if let Some(timings) = &mut record.timings {
            timings.other_ns = share;
        }
    }
}

/// Finishes prepared scenarios (`prepared[i]` from `scenarios[i]`): their
/// compiled artifacts execute as **one batch** through
/// [`CaseStudy::execute_batch`], and each report is folded into its
/// scenario's record, in input order.
fn run_prepared<C: CaseStudy>(
    case: &C,
    scenarios: &[Scenario<C::Program, C::Ty>],
    mut prepared: Vec<Prepared<C>>,
    cfg: &SweepConfig,
) -> Vec<ScenarioRecord> {
    // Collect the executable artifacts in seed order and run them as one
    // batch; scenarios that failed a pre-run stage simply take no part.
    let mut ready_indices = Vec::with_capacity(prepared.len());
    let mut evidence = Vec::with_capacity(prepared.len());
    let mut artifacts = Vec::with_capacity(prepared.len());
    for (idx, p) in prepared.iter_mut().enumerate() {
        if let Some((compiled, held)) = p.ready.take() {
            ready_indices.push(idx);
            evidence.push(held);
            artifacts.push(compiled);
        }
    }
    let mut batch_run_ns = 0;
    let reports = staged(cfg.time, &mut batch_run_ns, || {
        case.execute_batch(artifacts, cfg.profile.fuel)
    });
    assert_eq!(
        reports.len(),
        ready_indices.len(),
        "execute_batch must return one report per artifact"
    );

    // Charge each executed scenario for the batch wall-clock in proportion
    // to the machine steps it consumed (the semantic clock is the best
    // deterministic proxy for where the time went); the shares sum back to
    // the measured batch wall-clock exactly.
    let shares: Vec<u64> = if cfg.time {
        let steps: Vec<u64> = reports.iter().map(|r| case.stats(r).steps).collect();
        weighted_shares(batch_run_ns, &steps)
    } else {
        vec![0; reports.len()]
    };

    let mut executed = ready_indices
        .into_iter()
        .zip(evidence.into_iter().zip(reports.into_iter().zip(shares)))
        .peekable();
    prepared
        .into_iter()
        .zip(scenarios)
        .enumerate()
        .map(|(idx, (p, scenario))| match executed.peek() {
            Some((ready_idx, _)) if *ready_idx == idx => {
                let (_, (held, (report, run_ns))) = executed.next().expect("peeked entry");
                let mut timings = p.timings;
                timings.run_ns = run_ns;
                finish_executed(case, scenario, p.record, timings, held, report, cfg)
            }
            _ => seal(p.record, p.timings, cfg.time),
        })
        .collect()
}

/// Splits `total_ns` across scenarios proportionally to `weights` (machine
/// steps consumed), handing the rounding remainder to the earliest
/// scenarios one nanosecond at a time so the shares always sum back to
/// `total_ns` exactly.  Falls back to an even split when every weight is
/// zero (e.g. a batch of empty programs).
fn weighted_shares(total_ns: u64, weights: &[u64]) -> Vec<u64> {
    let n = weights.len() as u64;
    if n == 0 {
        return Vec::new();
    }
    let total_weight: u64 = weights.iter().sum();
    if total_weight == 0 {
        return (0..n)
            .map(|i| total_ns / n + u64::from(i < total_ns % n))
            .collect();
    }
    let mut shares: Vec<u64> = weights
        .iter()
        .map(|&w| ((total_ns as u128 * w as u128) / total_weight as u128) as u64)
        .collect();
    let mut remainder = total_ns - shares.iter().sum::<u64>();
    for share in shares.iter_mut() {
        if remainder == 0 {
            break;
        }
        *share += 1;
        remainder -= 1;
    }
    shares
}

fn check_size(source: &(impl ScenarioSource + ?Sized), case_names: &[&str]) {
    let total = source.total(case_names);
    assert!(
        total <= MAX_SEEDS_PER_SWEEP,
        "{} supplies {total} scenarios, exceeding MAX_SEEDS_PER_SWEEP ({MAX_SEEDS_PER_SWEEP})",
        source.describe(),
    );
}

/// Batch sizes are validated, never clamped — the same policy as
/// [`GenProfile::validate`]; the CLI turns `--batch 0` into a usage error
/// before a sweep configuration is ever built.
fn check_batch(cfg: &SweepConfig) {
    assert!(
        cfg.batch >= 1,
        "batch size must be at least 1 (a zero-scenario batch can run nothing)"
    );
}

/// Records the per-sweep glue-cache counters into `report`, as the
/// difference between two snapshots of the case's shared cache.
fn record_glue_stats<C: CaseStudy>(
    case: &C,
    before: Option<semint_core::GlueCacheStats>,
    report: &mut CaseReport,
) {
    if let (Some(before), Some(after)) = (before, case.glue_cache_stats()) {
        let delta = after.since(&before);
        report.glue_hits = delta.hits;
        report.glue_misses = delta.misses;
    }
}

/// Sweeps one case study over the scenarios a [`ScenarioSource`] supplies
/// for it: a [`sweep_all`] of that one case.
pub fn sweep_case<C, S>(case: &C, source: &S, cfg: &SweepConfig) -> CaseReport
where
    C: CaseStudy + Sync,
    S: ScenarioSource + ?Sized,
{
    sweep_all(std::slice::from_ref(case), source, cfg)
        .cases
        .pop()
        .expect("one report per case")
}

/// Sweeps several case studies through **one shared pool**: all
/// (case, batch) tasks are interleaved, so the three case studies genuinely
/// run in parallel rather than back to back.  Batches never mix case
/// studies — each groups contiguous seeds of one case, so its artifacts all
/// fit the one machine that executes them.
///
/// Every worker consults the same per-case [`semint_core::GlueCache`]
/// (conversion schemes share their cache across clones), so compound glue is
/// derived once per type pair per sweep; the per-case hit/miss deltas land in
/// [`CaseReport::glue_hits`] / [`CaseReport::glue_misses`].
pub fn sweep_all<C, S>(cases: &[C], source: &S, cfg: &SweepConfig) -> SweepReport
where
    C: CaseStudy + Sync,
    S: ScenarioSource + ?Sized,
{
    sweep_all_observed(cases, source, cfg, None)
}

/// [`sweep_all`] with an optional [`SweepObserver`]: each worker reports
/// every finished scenario as it completes (the `--progress` line and the
/// `--die-after`/`--wedge-after` fault hooks), in the interleaved
/// completion order across all cases.  Observation is strictly one-way —
/// the returned report is identical to an unobserved sweep's, digests,
/// counters and hottest seeds alike.
pub fn sweep_all_observed<C, S>(
    cases: &[C],
    source: &S,
    cfg: &SweepConfig,
    observer: Option<&SweepObserver>,
) -> SweepReport
where
    C: CaseStudy + Sync,
    S: ScenarioSource + ?Sized,
{
    let case_names: Vec<&str> = cases.iter().map(|c| c.name()).collect();
    check_size(source, &case_names);
    check_batch(cfg);
    let glue_before: Vec<_> = cases.iter().map(|case| case.glue_cache_stats()).collect();
    let per_case_seeds: Vec<Vec<u64>> =
        cases.iter().map(|case| source.seeds(case.name())).collect();
    let tasks: Vec<(usize, &[u64])> = per_case_seeds
        .iter()
        .enumerate()
        .flat_map(|(idx, seeds)| seeds.chunks(cfg.batch).map(move |batch| (idx, batch)))
        .collect();
    let records = parallel_map(&tasks, cfg.jobs, |&(idx, batch)| {
        let records = run_batch(&cases[idx], batch, cfg);
        if let Some(observer) = observer {
            for record in &records {
                observer.scenario(cases[idx].name(), record, cases[idx].glue_cache_stats());
            }
        }
        (idx, records)
    });
    let mut reports: Vec<CaseReport> = cases
        .iter()
        .map(|case| CaseReport::new(case.name()))
        .collect();
    for (idx, batch_records) in &records {
        for record in batch_records {
            reports[*idx].absorb(record);
        }
    }
    for ((case, report), before) in cases.iter().zip(&mut reports).zip(glue_before) {
        record_glue_stats(case, before, report);
    }
    SweepReport {
        cases: reports,
        population: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..250).collect();
        let doubled = parallel_map(&items, 7, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_runs_every_task_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..503).collect();
        let out = parallel_map(&items, 4, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(out.len(), 503);
        assert_eq!(counter.load(Ordering::SeqCst), 503);
    }

    #[test]
    fn parallel_map_handles_empty_and_oversized_jobs() {
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(&empty, 8, |&x| x).is_empty());
        let one = vec![9u64];
        assert_eq!(parallel_map(&one, 64, |&x| x + 1), vec![10]);
    }

    #[test]
    fn run_batch_records_match_per_scenario_records() {
        let case = crate::cases::AnyCase::by_name("memgc", false).expect("known case");
        let cfg = SweepConfig {
            jobs: 1,
            ..SweepConfig::default()
        };
        let seeds: Vec<u64> = (0..12).collect();
        let batched = run_batch(&case, &seeds, &cfg);
        assert_eq!(batched.len(), seeds.len());
        for (record, &seed) in batched.iter().zip(&seeds) {
            let single = run_scenario(&case, seed, &cfg);
            assert_eq!(record.seed, single.seed, "per-seed order is preserved");
            assert_eq!(record.stats, single.stats, "seed {seed}");
            assert_eq!(record.boundaries, single.boundaries, "seed {seed}");
            assert_eq!(record.program_chars, single.program_chars, "seed {seed}");
            assert_eq!(
                record.failure.is_some(),
                single.failure.is_some(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn timed_batches_stamp_timings_into_every_record() {
        let case = crate::cases::AnyCase::by_name("sharedmem", false).expect("known case");
        let cfg = SweepConfig {
            jobs: 1,
            time: true,
            batch: 4,
            ..SweepConfig::default()
        };
        let seeds: Vec<u64> = (0..7).collect();
        let started = Instant::now();
        let records = run_batch(&case, &seeds, &cfg);
        let wall_ns = started.elapsed().as_nanos() as u64;
        assert_eq!(records.len(), 7);
        let timings: Vec<StageTimings> = records.iter().filter_map(|r| r.timings).collect();
        assert_eq!(timings.len(), 7, "every record is stamped");
        // The six stages book the batch's wall-clock and nothing more.
        let booked: u64 = timings.iter().map(StageTimings::total_ns).sum();
        assert!(booked <= wall_ns, "booked {booked} ns of {wall_ns} ns");
        let other: u64 = timings.iter().map(|t| t.other_ns).sum();
        assert!(other > 0, "record building is engine time");
    }

    #[test]
    fn weighted_shares_sum_exactly_and_follow_the_weights() {
        let shares = weighted_shares(1_000_003, &[10, 0, 30, 60]);
        assert_eq!(shares.iter().sum::<u64>(), 1_000_003);
        assert!(
            shares[1] <= 1,
            "a zero-step scenario gets at most a rounding nanosecond"
        );
        assert!(shares[3] > shares[2] && shares[2] > shares[0]);
        // All-zero weights fall back to an even split that still sums back.
        let even = weighted_shares(10, &[0, 0, 0]);
        assert_eq!(even.iter().sum::<u64>(), 10);
        assert!(even.iter().all(|&s| s == 3 || s == 4));
        assert!(weighted_shares(42, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "batch size must be at least 1")]
    fn zero_batch_sweeps_are_rejected() {
        let case = crate::cases::AnyCase::by_name("memgc", false).expect("known case");
        let source = crate::source::SeedRange::new(0, 4).expect("non-empty");
        let cfg = SweepConfig {
            batch: 0,
            ..SweepConfig::default()
        };
        let _ = sweep_case(&case, &source, &cfg);
    }
}
