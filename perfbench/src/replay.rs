//! The layer-by-layer replay: a scenario population pushed through each
//! layer's public function in pipeline order, timed from outside.
//!
//! The replay mirrors `semint_harness::engine::run_batch` step for step —
//! generate, typecheck, compile and model-check every scenario of a batch,
//! execute the batch on one machine, then fold each report into its record
//! and shrink any counterexample — so its per-case digests, VM counters,
//! glue-cache probes and failure counts must equal the engine's exactly.
//! The benchmark checks that equality on every replay.  What the engine does
//! between those calls (rendering, boundary counting, record aggregation)
//! runs here too, outside every span, which is what makes
//! `engine.other_ns_per_scenario` a residual of the engine's own time.

use semint_core::case::{CaseStudy, CheckFailure, GenProfile, Scenario};
use semint_core::stats::{CaseReport, FailStage, FailureRecord, ScenarioRecord};
use semint_harness::shrink::shrink_failure;
use semint_harness::AnyCase;
use std::cell::Cell;
use std::io::Write;
use std::time::Instant;

/// The layers the replay times, named after the modules they call into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `CaseStudy::generate` (each case crate's `gen.rs`).
    Gen,
    /// `CaseStudy::typecheck` (`typecheck.rs`).
    Typecheck,
    /// `CaseStudy::compile` (`compile.rs` with glue emission).
    Compile,
    /// `CaseStudy::model_check_compiled` (`model.rs`).
    Model,
    /// `CaseStudy::execute_batch` (StackLang or LCVM).
    Run,
    /// `semint_harness::shrink::shrink_failure`, re-checks included.
    Shrink,
}

impl Layer {
    /// Every layer, in pipeline order.
    pub const ALL: [Layer; 6] = [
        Layer::Gen,
        Layer::Typecheck,
        Layer::Compile,
        Layer::Model,
        Layer::Run,
        Layer::Shrink,
    ];

    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Gen => "gen",
            Layer::Typecheck => "typecheck",
            Layer::Compile => "compile",
            Layer::Model => "model",
            Layer::Run => "run",
            Layer::Shrink => "shrink",
        }
    }
}

/// One timed call into a layer.  Spans never nest (the replay calls one
/// layer at a time), so a span's self time is its whole duration.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// Index of the case study in the sweep's case list.
    pub case: usize,
    /// The scenario seed (the batch's first seed for `Run` spans).
    pub seed: u64,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Collects spans in memory when tracing; times nothing otherwise.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn recording() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Some(Vec::new()),
        }
    }

    /// A tracer that records nothing (for correctness-only replays).
    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: None,
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or_default()
    }

    fn span<R>(&mut self, layer: Layer, case: usize, seed: u64, f: impl FnOnce() -> R) -> R {
        let Some(spans) = &mut self.spans else {
            return f();
        };
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        spans.push(Span {
            layer,
            case,
            seed,
            start_ns,
            end_ns,
        });
        out
    }

    /// Writes the spans as `layer case seed start_ns end_ns` rows.
    pub fn write(&self, path: &std::path::Path, case_names: &[&str]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "layer\tcase\tseed\tstart_ns\tend_ns")?;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                case_names[s.case],
                s.seed,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What one pipeline configuration runs: the population's profile, whether
/// the model check is on, how many artifacts share a machine, and whether
/// the case studies are the deliberately broken variants.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Generation profile.
    pub profile: GenProfile,
    /// Realizability-model check on every scenario.
    pub model_check: bool,
    /// Artifacts per reused machine (`--batch`).
    pub batch: usize,
    /// Sabotaged case studies (`--broken`).
    pub broken: bool,
}

/// One case study's replay result.
#[derive(Debug, Clone)]
pub struct CaseReplay {
    /// The aggregate, glue hits and misses included.
    pub report: CaseReport,
    /// Counterexamples that went through the shrinker.
    pub shrunk: u64,
    /// Candidate checks the shrinker ran across those counterexamples.
    pub shrink_checks: u64,
}

impl CaseReplay {
    /// An empty result for the named case study.
    pub fn new(case: &str) -> CaseReplay {
        CaseReplay {
            report: CaseReport::new(case),
            shrunk: 0,
            shrink_checks: 0,
        }
    }

    /// Folds another replay of the same case study into this one.
    pub fn merge(&mut self, other: &CaseReplay) {
        self.report.merge(&other.report);
        self.shrunk += other.shrunk;
        self.shrink_checks += other.shrink_checks;
    }
}

/// A failure record of a scenario that failed before it could run, with
/// the rendered program as witness, as the engine records it.
fn plain_failure(seed: u64, stage: FailStage, reason: String, rendered: &str) -> FailureRecord {
    FailureRecord {
        seed,
        stage,
        reason,
        witness: rendered.to_string(),
        shrunk: rendered.to_string(),
        shrink_steps: 0,
    }
}

/// A scenario that passed every pre-run stage, with its deferred
/// model-check verdict.
struct Pending {
    scenario: Scenario<<AnyCase as CaseStudy>::Program, <AnyCase as CaseStudy>::Ty>,
    record: ScenarioRecord,
    verdict: Option<Result<(), CheckFailure>>,
}

/// Replays `seeds` of one case study through the pipeline layers.
pub fn replay_case(
    case: &AnyCase,
    case_idx: usize,
    seeds: &[u64],
    shape: &Shape,
    tracer: &mut Tracer,
) -> CaseReplay {
    let glue_before = case.glue_cache_stats();
    let fuel = shape.profile.fuel;
    let mut out = CaseReplay::new(case.name());
    for batch in seeds.chunks(shape.batch) {
        let mut pending = Vec::with_capacity(batch.len());
        let mut artifacts = Vec::with_capacity(batch.len());
        for &seed in batch {
            let scenario = tracer.span(Layer::Gen, case_idx, seed, || {
                case.generate(seed, &shape.profile)
            });
            let rendered = scenario.program.to_string();
            let mut record = ScenarioRecord {
                seed,
                ty: scenario.ty.to_string(),
                program_chars: rendered.chars().count(),
                boundaries: case.boundary_count(&scenario.program),
                stats: None,
                failure: None,
                timings: None,
            };
            let checked = tracer.span(Layer::Typecheck, case_idx, seed, || {
                case.typecheck(&scenario.program)
            });
            let verdict = match checked {
                Ok(ty) if ty == scenario.ty => {
                    let compiled = tracer.span(Layer::Compile, case_idx, seed, || {
                        case.compile(&scenario.program)
                    });
                    match compiled {
                        Ok(compiled) => {
                            let verdict = if shape.model_check {
                                tracer.span(Layer::Model, case_idx, seed, || {
                                    case.model_check_compiled(&scenario.program, &ty, &compiled)
                                })
                            } else {
                                Ok(())
                            };
                            artifacts.push(compiled);
                            Some(verdict)
                        }
                        Err(err) => {
                            record.failure =
                                Some(plain_failure(seed, FailStage::Compile, err, &rendered));
                            None
                        }
                    }
                }
                Ok(ty) => {
                    let reason = format!("claimed {}, checked {ty}", scenario.ty);
                    record.failure =
                        Some(plain_failure(seed, FailStage::Typecheck, reason, &rendered));
                    None
                }
                Err(err) => {
                    record.failure =
                        Some(plain_failure(seed, FailStage::Typecheck, err, &rendered));
                    None
                }
            };
            pending.push(Pending {
                scenario,
                record,
                verdict,
            });
        }

        let reports = tracer.span(Layer::Run, case_idx, batch[0], || {
            case.execute_batch(artifacts, fuel)
        });
        let mut reports = reports.into_iter();
        for Pending {
            scenario,
            mut record,
            verdict,
        } in pending
        {
            if let Some(verdict) = verdict {
                let report = reports.next().expect("one report per artifact");
                let mut stats = case.stats(&report);
                stats.counters.boundary_crossings = record.boundaries as u64;
                record.stats = Some(stats);
                let checks = Cell::new(0u64);
                let seed = scenario.seed;
                let program = &scenario.program;
                // The same shrink predicates as the engine's, counted.
                let shrunk = if !stats.outcome.is_safe() {
                    Some((
                        FailStage::Run,
                        format!("unsafe outcome {}", stats.outcome),
                        tracer.span(Layer::Shrink, case_idx, seed, || {
                            shrink_failure(case, program, |p| {
                                checks.set(checks.get() + 1);
                                case.typecheck(p).is_ok()
                                    && case
                                        .compile(p)
                                        .map(|c| {
                                            !case.stats(&case.execute(c, fuel)).outcome.is_safe()
                                        })
                                        .unwrap_or(false)
                            })
                        }),
                    ))
                } else if let Err(check) = verdict {
                    Some((
                        FailStage::ModelCheck,
                        check.to_string(),
                        tracer.span(Layer::Shrink, case_idx, seed, || {
                            shrink_failure(case, program, |p| {
                                checks.set(checks.get() + 1);
                                case.typecheck(p)
                                    .map(|ty| match case.compile(p) {
                                        Ok(c) => case.model_check_compiled(p, &ty, &c).is_err(),
                                        Err(_) => true,
                                    })
                                    .unwrap_or(false)
                            })
                        }),
                    ))
                } else {
                    None
                };
                if let Some((stage, reason, (smaller, shrink_steps))) = shrunk {
                    record.failure = Some(FailureRecord {
                        seed,
                        stage,
                        reason,
                        witness: program.to_string(),
                        shrunk: smaller.to_string(),
                        shrink_steps,
                    });
                    out.shrunk += 1;
                    out.shrink_checks += checks.get();
                }
            }
            out.report.absorb(&record);
        }
    }
    if let (Some(before), Some(after)) = (glue_before, case.glue_cache_stats()) {
        let delta = after.since(&before);
        out.report.glue_hits = delta.hits;
        out.report.glue_misses = delta.misses;
    }
    out
}

/// Replays `seeds` for every case study of a freshly built (cold-cache)
/// case list.
pub fn replay(seeds: &[u64], shape: &Shape, tracer: &mut Tracer) -> Vec<CaseReplay> {
    AnyCase::all(shape.broken)
        .iter()
        .enumerate()
        .map(|(idx, case)| replay_case(case, idx, seeds, shape, tracer))
        .collect()
}
