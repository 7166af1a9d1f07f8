//! Shared run/sweep statistics and report types.
//!
//! Every case study's machine reports outcomes in its own shape (StackLang's
//! [`Outcome`](crate::outcome::Outcome) over stack values, LCVM's `Halt`);
//! the harness projects them all into [`OutcomeClass`] so sweeps over
//! different language pairs aggregate into one histogram.  These types live
//! in `semint-core` (not in the engine crate) so the case-study crates can
//! produce them without depending on the engine.

use crate::outcome::ErrorCode;
use crate::telemetry::VmCounters;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt;

/// A machine outcome reduced to its safety-relevant class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OutcomeClass {
    /// Terminated with a value.
    Value,
    /// Exhausted the step budget (the step-index escape clause — benign).
    OutOfFuel,
    /// Terminated with `fail c`.
    Fail(ErrorCode),
    /// Stuck under an augmented semantics (LCVM's phantom-flag mode); never
    /// safe.
    Stuck,
}

impl OutcomeClass {
    /// True if the class is permitted by semantic type safety.
    pub fn is_safe(self) -> bool {
        match self {
            OutcomeClass::Value | OutcomeClass::OutOfFuel => true,
            OutcomeClass::Fail(c) => c.is_benign(),
            OutcomeClass::Stuck => false,
        }
    }

    /// A short stable label, used as histogram key.
    pub fn label(self) -> String {
        match self {
            OutcomeClass::Value => "value".into(),
            OutcomeClass::OutOfFuel => "out-of-fuel".into(),
            OutcomeClass::Fail(c) => format!("fail-{c}"),
            OutcomeClass::Stuck => "stuck".into(),
        }
    }
}

impl fmt::Display for OutcomeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The shared projection of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// How the machine halted.
    pub outcome: OutcomeClass,
    /// Machine steps consumed (== fuel consumed; both machines charge one
    /// fuel unit per step).
    pub steps: u64,
    /// Deterministic VM telemetry for the run: instructions by opcode class,
    /// allocation totals, and high-water marks.
    pub counters: VmCounters,
}

/// Per-stage wall-clock totals for one scenario or one whole sweep, in
/// nanoseconds.  Collected only when the sweep asks for timing (`semint
/// sweep --time`); wall-clock is inherently nondeterministic, so timings are
/// excluded from [`CaseReport::digest`].  The five pipeline stages plus
/// [`StageTimings::other_ns`] add up to the engine's wall-clock for the
/// scenarios, so the books balance in-program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Scenario generation.
    pub generate_ns: u64,
    /// Type checking (including boundary convertibility queries).
    pub typecheck_ns: u64,
    /// Compilation with glue emission (each scenario compiles exactly once;
    /// the artifact is then shared by the model-check and run stages).
    pub compile_ns: u64,
    /// Target-machine execution of the already-compiled artifact.
    pub run_ns: u64,
    /// Realizability-model checking.
    pub model_check_ns: u64,
    /// The engine's own time: a batch's wall-clock minus the five stages
    /// above, split evenly over the batch's scenarios.  It holds rendering
    /// the program, building the record and, on `--broken` sweeps,
    /// counterexample shrinking, which is not timed as a stage of its own.
    pub other_ns: u64,
}

impl StageTimings {
    /// Adds another timing record into this one, stage by stage.
    pub fn absorb(&mut self, other: &StageTimings) {
        self.generate_ns += other.generate_ns;
        self.typecheck_ns += other.typecheck_ns;
        self.compile_ns += other.compile_ns;
        self.run_ns += other.run_ns;
        self.model_check_ns += other.model_check_ns;
        self.other_ns += other.other_ns;
    }

    /// Total wall-clock across all stages, `other` included.
    pub fn total_ns(&self) -> u64 {
        self.stages().iter().map(|(_, ns)| ns).sum()
    }

    /// The stages as `(label, nanoseconds)` pairs, in pipeline order, with
    /// `other` last.
    pub fn stages(&self) -> [(&'static str, u64); 6] {
        [
            ("generate", self.generate_ns),
            ("typecheck", self.typecheck_ns),
            ("compile", self.compile_ns),
            ("run", self.run_ns),
            ("model-check", self.model_check_ns),
            ("other", self.other_ns),
        ]
    }

    /// Sets the stage named `label` (the names from
    /// [`StageTimings::stages`]); unknown labels are rejected.
    pub fn set_stage(&mut self, label: &str, ns: u64) -> Result<(), String> {
        match label {
            "generate" => self.generate_ns = ns,
            "typecheck" => self.typecheck_ns = ns,
            "compile" => self.compile_ns = ns,
            "run" => self.run_ns = ns,
            "model-check" => self.model_check_ns = ns,
            "other" => self.other_ns = ns,
            other => return Err(format!("unknown stage {other:?}")),
        }
        Ok(())
    }
}

/// The full record of one swept scenario.
#[derive(Debug, Clone)]
pub struct ScenarioRecord {
    /// The scenario seed.
    pub seed: u64,
    /// The claimed (and re-checked) source type, rendered.  Nothing reads
    /// it: no digest, report or counter depends on it.  It stays, rendered
    /// for every scenario, only because the benchmark's replay
    /// (`perfbench/src/replay.rs`) builds records field by field, and goes
    /// with the benchmark change that retires that replay.
    pub ty: String,
    /// Length of the program's rendering in characters — the stable size
    /// every digest totals as `chars=`.  The engine counts it structurally
    /// ([`crate::CaseStudy::program_chars`]) and renders nothing for it.
    pub program_chars: usize,
    /// Syntactic language-boundary count of the program.
    pub boundaries: usize,
    /// The run projection, if the pipeline reached the run stage.
    pub stats: Option<RunStats>,
    /// The stage that failed, if any.
    pub failure: Option<FailureRecord>,
    /// Per-stage wall-clock, when the sweep collects timing.
    pub timings: Option<StageTimings>,
}

/// Which pipeline stage rejected a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailStage {
    /// The generator's claimed type did not re-check.
    Typecheck,
    /// Compilation failed.
    Compile,
    /// The run halted unsafely (`fail Type`).
    Run,
    /// The realizability model rejected the program.
    ModelCheck,
}

impl fmt::Display for FailStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailStage::Typecheck => "typecheck",
            FailStage::Compile => "compile",
            FailStage::Run => "run",
            FailStage::ModelCheck => "model-check",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for FailStage {
    type Err = String;

    /// Parses the label [`FailStage`]'s `Display` writes.
    fn from_str(label: &str) -> Result<FailStage, String> {
        match label {
            "typecheck" => Ok(FailStage::Typecheck),
            "compile" => Ok(FailStage::Compile),
            "run" => Ok(FailStage::Run),
            "model-check" => Ok(FailStage::ModelCheck),
            other => Err(format!("unknown failure stage {other:?}")),
        }
    }
}

/// A failed scenario, with its shrunk counterexample when the engine could
/// produce one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// The scenario seed.
    pub seed: u64,
    /// The stage that failed.
    pub stage: FailStage,
    /// Why it failed.
    pub reason: String,
    /// The original failing program, rendered.
    pub witness: String,
    /// The shrunk failing program, rendered (equals `witness` when no
    /// smaller failing program was found).
    pub shrunk: String,
    /// How many shrinking steps were applied.
    pub shrink_steps: usize,
}

impl fmt::Display for FailureRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {}: {} failure: {}\n  witness: {}\n  shrunk ({} steps): {}",
            self.seed, self.stage, self.reason, self.witness, self.shrink_steps, self.shrunk
        )
    }
}

/// How many of a case's hottest seeds a [`CaseReport`] keeps.
pub const HOTTEST_SEEDS: usize = 10;

/// Aggregate report for one case study over one seed range.
#[derive(Debug, Clone, Default)]
pub struct CaseReport {
    /// Case-study name.
    pub case: String,
    /// Number of scenarios swept.
    pub scenarios: u64,
    /// Outcome-class histogram over all runs.
    pub outcome_histogram: BTreeMap<String, u64>,
    /// Total machine steps (== fuel consumed) across all runs.
    pub total_steps: u64,
    /// Total syntactic boundary crossings across all generated programs.
    pub total_boundaries: u64,
    /// Total rendered program size (characters) across all scenarios.
    pub total_program_chars: u64,
    /// Glue-cache hits during the sweep (see
    /// [`crate::convert::GlueCache`]); filled in by the sweep engine.
    pub glue_hits: u64,
    /// Glue-cache misses (full structural derivations) during the sweep.
    pub glue_misses: u64,
    /// Aggregated VM counters across all runs: counts add, high-water marks
    /// take the per-scenario maximum (see [`VmCounters::absorb`]), so shard
    /// merge and batch grouping reproduce the unsharded aggregate exactly.
    /// Zero for reports read from files written before counters existed.
    pub counters: VmCounters,
    /// Per-stage wall-clock totals, when the sweep collected timing.
    pub timings: Option<StageTimings>,
    /// The [`HOTTEST_SEEDS`] scenarios that ran the most machine steps, as
    /// `(seed, steps)`: most steps first, ties to the lower seed.  The
    /// order is total, so every shard split and merge order keeps the same
    /// list.  Empty for reports read from files written before it existed.
    pub hottest: Vec<(u64, u64)>,
    /// Scenarios that failed some pipeline stage.
    pub failures: Vec<FailureRecord>,
}

impl CaseReport {
    /// An empty report for a named case study.
    pub fn new(case: impl Into<String>) -> Self {
        CaseReport {
            case: case.into(),
            ..CaseReport::default()
        }
    }

    /// Folds one scenario record into the aggregate.
    pub fn absorb(&mut self, record: &ScenarioRecord) {
        self.scenarios += 1;
        self.total_boundaries += record.boundaries as u64;
        self.total_program_chars += record.program_chars as u64;
        if let Some(stats) = &record.stats {
            *self
                .outcome_histogram
                .entry(stats.outcome.label())
                .or_insert(0) += 1;
            self.total_steps += stats.steps;
            self.counters.absorb(&stats.counters);
            self.rank_hot(record.seed, stats.steps);
        }
        if let Some(failure) = &record.failure {
            self.failures.push(failure.clone());
        }
        if let Some(timings) = &record.timings {
            self.timings
                .get_or_insert_with(StageTimings::default)
                .absorb(timings);
        }
    }

    /// Merges another report over the *same* case study into this one:
    /// every aggregate folds associatively and commutatively (counts add,
    /// counter high-water marks take the max), so merging the per-shard
    /// reports of a partitioned seed range reproduces the unsharded report
    /// — its [`CaseReport::digest`] *and* its [`VmCounters`] — exactly.
    /// Failures stay in seed order, the order a one-shot sweep lists them.
    pub fn merge(&mut self, other: &CaseReport) {
        debug_assert_eq!(self.case, other.case, "merging reports of different cases");
        self.scenarios += other.scenarios;
        self.total_steps += other.total_steps;
        self.total_boundaries += other.total_boundaries;
        self.total_program_chars += other.total_program_chars;
        self.glue_hits += other.glue_hits;
        self.glue_misses += other.glue_misses;
        self.counters.absorb(&other.counters);
        for (label, count) in &other.outcome_histogram {
            *self.outcome_histogram.entry(label.clone()).or_insert(0) += count;
        }
        self.failures.extend(other.failures.iter().cloned());
        self.failures.sort_by_key(|failure| failure.seed);
        if let Some(timings) = &other.timings {
            self.timings
                .get_or_insert_with(StageTimings::default)
                .absorb(timings);
        }
        for &(seed, steps) in &other.hottest {
            self.rank_hot(seed, steps);
        }
    }

    /// Offers one scenario to [`CaseReport::hottest`], keeping the list
    /// ordered and at most [`HOTTEST_SEEDS`] long.
    fn rank_hot(&mut self, seed: u64, steps: u64) {
        // Most steps first, then the lower seed: a total order on entries.
        let rank = |&(seed, steps): &(u64, u64)| (Reverse(steps), seed);
        let at = self
            .hottest
            .partition_point(|kept| rank(kept) < rank(&(seed, steps)));
        if at < HOTTEST_SEEDS {
            self.hottest.insert(at, (seed, steps));
            self.hottest.truncate(HOTTEST_SEEDS);
        }
    }

    /// Run-stage nanoseconds per retired VM instruction, when the sweep was
    /// timed and the case retired any instruction.
    pub fn run_ns_per_instr(&self) -> Option<f64> {
        let run_ns = self.timings?.run_ns;
        let instrs = self.counters.total_instrs();
        (instrs > 0).then(|| run_ns as f64 / instrs as f64)
    }

    /// Fraction of glue-cache lookups answered from the cache, in `[0, 1]`.
    pub fn glue_hit_rate(&self) -> f64 {
        crate::convert::GlueCacheStats {
            hits: self.glue_hits,
            misses: self.glue_misses,
            entries: 0,
        }
        .hit_rate()
    }

    /// True if no scenario failed any stage.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// A deterministic digest of the aggregate (used by determinism tests
    /// and by `semint sweep` to print a comparable fingerprint).
    pub fn digest(&self) -> String {
        let mut parts: Vec<String> = vec![
            format!("case={}", self.case),
            format!("scenarios={}", self.scenarios),
            format!("steps={}", self.total_steps),
            format!("boundaries={}", self.total_boundaries),
            format!("chars={}", self.total_program_chars),
            format!("failures={}", self.failures.len()),
        ];
        for (label, count) in &self.outcome_histogram {
            parts.push(format!("{label}={count}"));
        }
        parts.join(" ")
    }
}

/// A whole-sweep report: one [`CaseReport`] per case study.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Reports in sweep order.
    pub cases: Vec<CaseReport>,
    /// The `semint` flags that select the swept population (the profile
    /// and whether the case studies were the broken variants), when the
    /// writer recorded them.  Failures replay under exactly these flags.
    pub population: Option<String>,
}

impl SweepReport {
    /// Total scenarios across all cases.
    pub fn scenarios(&self) -> u64 {
        self.cases.iter().map(|c| c.scenarios).sum()
    }

    /// Total failures across all cases.
    pub fn failure_count(&self) -> usize {
        self.cases.iter().map(|c| c.failures.len()).sum()
    }

    /// Merges another sweep report into this one, matching case reports by
    /// name (cases only in `other` are appended).  Sharded sweeps merge
    /// into the digests of the unsharded sweep — the property `semint
    /// report a.tsv b.tsv` and the CI shard smoke rely on.  A report that
    /// recorded no population takes `other`'s; checking that the two agree
    /// is the caller's business.
    pub fn merge(&mut self, other: &SweepReport) {
        if self.population.is_none() {
            self.population.clone_from(&other.population);
        }
        for incoming in &other.cases {
            match self.cases.iter_mut().find(|c| c.case == incoming.case) {
                Some(existing) => existing.merge(incoming),
                None => self.cases.push(incoming.clone()),
            }
        }
    }

    /// Serialises the report to a simple line-oriented `key<TAB>value`
    /// format that [`SweepReport::from_tsv`] reads back; used by `semint
    /// sweep --save` / `semint report` and the supervised sweep's
    /// checkpoints.  A recorded population is the first row.  Each case's
    /// `failures<TAB>N` line is followed by N `failure` rows — seed, stage,
    /// shrink steps, reason, witness, shrunk — whose text fields escape
    /// backslash, tab, newline and carriage return, so a clean case writes
    /// no rows at all.  A case ends with its `outcome` rows and then one
    /// `hot<TAB>SEED<TAB>STEPS` row per entry of [`CaseReport::hottest`].
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        if let Some(population) = &self.population {
            out.push_str(&format!("population\t{population}\n"));
        }
        for case in &self.cases {
            out.push_str(&format!("case\t{}\n", case.case));
            out.push_str(&format!("scenarios\t{}\n", case.scenarios));
            out.push_str(&format!("total_steps\t{}\n", case.total_steps));
            out.push_str(&format!("total_boundaries\t{}\n", case.total_boundaries));
            out.push_str(&format!(
                "total_program_chars\t{}\n",
                case.total_program_chars
            ));
            out.push_str(&format!("glue_hits\t{}\n", case.glue_hits));
            out.push_str(&format!("glue_misses\t{}\n", case.glue_misses));
            for (key, value) in case.counters.fields() {
                out.push_str(&format!("counter\t{key}\t{value}\n"));
            }
            if let Some(timings) = &case.timings {
                for (label, ns) in timings.stages() {
                    out.push_str(&format!("stage_ns\t{label}\t{ns}\n"));
                }
            }
            out.push_str(&format!("failures\t{}\n", case.failures.len()));
            for failure in &case.failures {
                out.push_str(&format!(
                    "failure\t{}\t{}\t{}",
                    failure.seed, failure.stage, failure.shrink_steps
                ));
                for text in [&failure.reason, &failure.witness, &failure.shrunk] {
                    out.push('\t');
                    push_escaped(&mut out, text);
                }
                out.push('\n');
            }
            for (label, count) in &case.outcome_histogram {
                out.push_str(&format!("outcome\t{label}\t{count}\n"));
            }
            for (seed, steps) in &case.hottest {
                out.push_str(&format!("hot\t{seed}\t{steps}\n"));
            }
        }
        out
    }

    /// Parses the format produced by [`SweepReport::to_tsv`], failure
    /// records included.  A case whose `failure` rows do not number exactly
    /// its `failures` count is refused, so a truncated file — or a
    /// count-only one written before failures were persisted — never reads
    /// back as a report with fewer counterexamples.  A file written before
    /// populations were recorded reads back with none, and one written
    /// before `hot` rows existed reads back with an empty
    /// [`CaseReport::hottest`].
    pub fn from_tsv(text: &str) -> Result<SweepReport, String> {
        let mut report = SweepReport::default();
        // The `failures` count each case declared, in case order.
        let mut declared: Vec<u64> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            // A failure row keeps trailing whitespace: it is program text.
            let line = if line.starts_with("failure\t") {
                line
            } else {
                line.trim_end()
            };
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split('\t');
            let key = fields.next().unwrap_or_default();
            let value = fields
                .next()
                .ok_or_else(|| format!("line {}: missing value", lineno + 1))?;
            let parse = |v: &str| -> Result<u64, String> {
                v.parse::<u64>()
                    .map_err(|e| format!("line {}: {e}", lineno + 1))
            };
            match key {
                "population" if report.cases.is_empty() => {
                    report.population = Some(value.to_string());
                }
                "case" => {
                    report.cases.push(CaseReport::new(value));
                    declared.push(0);
                }
                _ => {
                    let case = report
                        .cases
                        .last_mut()
                        .ok_or_else(|| format!("line {}: field before any case", lineno + 1))?;
                    match key {
                        "scenarios" => case.scenarios = parse(value)?,
                        "total_steps" => case.total_steps = parse(value)?,
                        "total_boundaries" => case.total_boundaries = parse(value)?,
                        "total_program_chars" => case.total_program_chars = parse(value)?,
                        "glue_hits" => case.glue_hits = parse(value)?,
                        "glue_misses" => case.glue_misses = parse(value)?,
                        // Counter rows are optional: files written before
                        // telemetry existed simply leave every field zero.
                        "counter" => {
                            let count = fields
                                .next()
                                .ok_or_else(|| format!("line {}: missing count", lineno + 1))?;
                            if !case.counters.set_field(value, parse(count)?) {
                                return Err(format!(
                                    "line {}: unknown counter {value:?}",
                                    lineno + 1
                                ));
                            }
                        }
                        "stage_ns" => {
                            let ns = fields.next().ok_or_else(|| {
                                format!("line {}: missing stage time", lineno + 1)
                            })?;
                            case.timings
                                .get_or_insert_with(StageTimings::default)
                                .set_stage(value, parse(ns)?)
                                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
                        }
                        "failures" => {
                            *declared.last_mut().expect("one count per case") = parse(value)?
                        }
                        "failure" => case.failures.push(
                            parse_failure_row(value, fields)
                                .map_err(|e| format!("line {}: {e}", lineno + 1))?,
                        ),
                        "outcome" => {
                            let count = fields
                                .next()
                                .ok_or_else(|| format!("line {}: missing count", lineno + 1))?;
                            case.outcome_histogram
                                .insert(value.to_string(), parse(count)?);
                        }
                        "hot" => {
                            let steps = fields
                                .next()
                                .ok_or_else(|| format!("line {}: missing steps", lineno + 1))?;
                            case.rank_hot(parse(value)?, parse(steps)?);
                        }
                        other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
                    }
                }
            }
        }
        for (case, declared) in report.cases.iter().zip(declared) {
            let rows = case.failures.len() as u64;
            if rows != declared {
                return Err(format!(
                    "case {}: {declared} failures declared but {rows} failure rows found",
                    case.case
                ));
            }
        }
        Ok(report)
    }
}

/// Parses the fields after the `failure` key of a failure row.
fn parse_failure_row<'a>(
    seed: &str,
    rest: impl Iterator<Item = &'a str>,
) -> Result<FailureRecord, String> {
    let rest: Vec<&str> = rest.collect();
    let [stage, steps, reason, witness, shrunk] = rest[..] else {
        return Err(format!(
            "a failure row has 6 fields (seed, stage, shrink steps, reason, witness, \
             shrunk), found {}",
            rest.len() + 1
        ));
    };
    Ok(FailureRecord {
        seed: seed.parse().map_err(|e| format!("failure seed: {e}"))?,
        stage: stage.parse()?,
        shrink_steps: steps.parse().map_err(|e| format!("shrink steps: {e}"))?,
        reason: unescape_field(reason)?,
        witness: unescape_field(witness)?,
        shrunk: unescape_field(shrunk)?,
    })
}

/// Appends a failure row's text field to `out`, escaping backslash, tab,
/// newline and carriage return so the field stays one field of one line.
/// All four are ASCII, so the scan runs over bytes and copies the runs
/// between them whole.
fn push_escaped(out: &mut String, text: &str) {
    let mut rest = text;
    while let Some(at) = rest
        .bytes()
        .position(|b| matches!(b, b'\\' | b'\t' | b'\n' | b'\r'))
    {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'\\' => "\\\\",
            b'\t' => "\\t",
            b'\n' => "\\n",
            _ => "\\r",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Reverses [`push_escaped`], refusing an escape it never writes.
fn unescape_field(field: &str) -> Result<String, String> {
    let mut out = String::with_capacity(field.len());
    let mut rest = field;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        out.push(match rest.as_bytes().get(at + 1) {
            Some(b'\\') => '\\',
            Some(b't') => '\t',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            _ => return Err(format!("unknown escape in failure field {field:?}")),
        });
        // The escaped byte is ASCII, so the next char starts right after it.
        rest = &rest[at + 2..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64, outcome: OutcomeClass, steps: u64) -> ScenarioRecord {
        ScenarioRecord {
            seed,
            ty: "bool".into(),
            program_chars: 10,
            boundaries: 2,
            stats: Some(RunStats {
                outcome,
                steps,
                counters: VmCounters {
                    instr_data: steps,
                    heap_allocs: 1,
                    heap_peak_live: seed + 1,
                    stack_peak: 2,
                    ..VmCounters::default()
                },
            }),
            failure: None,
            timings: None,
        }
    }

    #[test]
    fn absorb_accumulates() {
        let mut r = CaseReport::new("sharedmem");
        r.absorb(&record(0, OutcomeClass::Value, 5));
        r.absorb(&record(1, OutcomeClass::Fail(ErrorCode::Conv), 7));
        assert_eq!(r.scenarios, 2);
        assert_eq!(r.total_steps, 12);
        assert_eq!(r.total_boundaries, 4);
        assert_eq!(r.outcome_histogram.get("value"), Some(&1));
        assert_eq!(r.outcome_histogram.get("fail-Conv"), Some(&1));
        assert!(r.is_clean());
        assert_eq!(r.counters.instr_data, 12, "counts add across scenarios");
        assert_eq!(r.counters.heap_allocs, 2);
        assert_eq!(r.counters.heap_peak_live, 2, "peaks take the max");
    }

    #[test]
    fn safety_classes() {
        assert!(OutcomeClass::Value.is_safe());
        assert!(OutcomeClass::OutOfFuel.is_safe());
        assert!(OutcomeClass::Fail(ErrorCode::Conv).is_safe());
        assert!(!OutcomeClass::Fail(ErrorCode::Type).is_safe());
    }

    #[test]
    fn tsv_round_trip() {
        let mut case = CaseReport::new("affine");
        case.absorb(&record(3, OutcomeClass::Value, 11));
        case.glue_hits = 9;
        case.glue_misses = 4;
        case.absorb(&record(4, OutcomeClass::Value, 11));
        case.absorb(&record(9, OutcomeClass::OutOfFuel, 30));
        case.timings = Some(StageTimings {
            generate_ns: 1,
            typecheck_ns: 2,
            compile_ns: 3,
            run_ns: 4,
            model_check_ns: 5,
            other_ns: 6,
        });
        let report = SweepReport {
            cases: vec![case],
            population: Some("--profile deep --broken".into()),
        };
        let text = report.to_tsv();
        assert!(
            text.starts_with("population\t--profile deep --broken\n"),
            "{text}"
        );
        let parsed = SweepReport::from_tsv(&text).unwrap();
        assert_eq!(parsed.population, report.population);
        assert_eq!(parsed.cases.len(), 1);
        assert_eq!(parsed.cases[0].case, "affine");
        assert_eq!(parsed.cases[0].scenarios, 3);
        assert_eq!(parsed.cases[0].total_steps, 52);
        assert_eq!(parsed.cases[0].outcome_histogram.get("value"), Some(&2));
        assert_eq!(parsed.cases[0].glue_hits, 9);
        assert_eq!(parsed.cases[0].glue_misses, 4);
        assert_eq!(parsed.cases[0].timings, report.cases[0].timings);
        assert_eq!(parsed.cases[0].counters, report.cases[0].counters);
        assert_eq!(parsed.cases[0].hottest, vec![(9, 30), (3, 11), (4, 11)]);
        assert!(
            text.ends_with("hot\t9\t30\nhot\t3\t11\nhot\t4\t11\n"),
            "{text}"
        );
    }

    #[test]
    fn population_rows_are_optional_and_belong_before_the_cases() {
        let legacy = "case\tsharedmem\nscenarios\t3\n";
        assert_eq!(SweepReport::from_tsv(legacy).unwrap().population, None);
        let late = "case\tsharedmem\npopulation\t--profile smoke\n";
        assert!(SweepReport::from_tsv(late).is_err());
        // Merging keeps a recorded population.
        let mut merged = SweepReport::default();
        merged.merge(&SweepReport {
            cases: vec![],
            population: Some("--profile smoke".into()),
        });
        assert_eq!(merged.population.as_deref(), Some("--profile smoke"));
    }

    #[test]
    fn tsv_without_counter_rows_parses_to_zeroed_counters() {
        // A file written before telemetry existed: no `counter` rows at all.
        let legacy = "case\tsharedmem\nscenarios\t3\ntotal_steps\t7\n";
        let parsed = SweepReport::from_tsv(legacy).unwrap();
        assert_eq!(parsed.cases[0].scenarios, 3);
        assert!(parsed.cases[0].counters.is_zero());
        assert!(parsed.cases[0].hottest.is_empty(), "no `hot` rows yet");
        // Unknown counter names are still rejected, like unknown keys.
        let bad = "case\tsharedmem\ncounter\tnope\t1\n";
        assert!(SweepReport::from_tsv(bad).is_err());
    }

    #[test]
    fn timings_absorb_and_total() {
        let mut report = CaseReport::new("memgc");
        let mut rec = record(0, OutcomeClass::Value, 1);
        rec.timings = Some(StageTimings {
            generate_ns: 10,
            typecheck_ns: 20,
            compile_ns: 30,
            run_ns: 40,
            model_check_ns: 50,
            other_ns: 60,
        });
        report.absorb(&rec);
        report.absorb(&rec);
        let timings = report.timings.expect("collected");
        assert_eq!(timings.generate_ns, 20);
        assert_eq!(timings.other_ns, 120);
        assert_eq!(timings.total_ns(), 420, "the total includes `other`");
        assert_eq!(timings.stages()[5], ("other", 120), "`other` comes last");
        // 80 run ns over the 2 retired instructions of the two scenarios.
        assert_eq!(report.run_ns_per_instr(), Some(40.0));
        assert_eq!(CaseReport::new("memgc").run_ns_per_instr(), None);
        assert!((report.glue_hit_rate() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn merged_shards_reproduce_the_unsharded_digest() {
        let mut whole = CaseReport::new("sharedmem");
        let mut even = CaseReport::new("sharedmem");
        let mut odd = CaseReport::new("sharedmem");
        for seed in 0..24u64 {
            // Steps repeat every 8 seeds, so the hottest list has ties that
            // straddle the two shards.
            let mut rec = record(
                seed,
                if seed % 3 == 0 {
                    OutcomeClass::Value
                } else {
                    OutcomeClass::OutOfFuel
                },
                seed % 8 + 1,
            );
            if seed % 3 != 1 {
                rec.failure = Some(failure(seed, FailStage::Run, "unsafe"));
            }
            whole.absorb(&rec);
            if seed % 2 == 0 {
                even.absorb(&rec);
            } else {
                odd.absorb(&rec);
            }
        }
        // Merge the later shard first: the order must not matter.
        let mut merged = SweepReport {
            cases: vec![odd],
            population: None,
        };
        merged.merge(&SweepReport {
            cases: vec![even],
            population: None,
        });
        assert_eq!(merged.cases.len(), 1);
        assert_eq!(merged.cases[0].digest(), whole.digest());
        assert_eq!(
            merged.cases[0].counters, whole.counters,
            "VmCounters survive shard merge exactly"
        );
        assert_eq!(
            merged.cases[0].failures, whole.failures,
            "failures are listed in seed order, as the unsharded sweep lists them"
        );
        assert_eq!(merged.cases[0].hottest, whole.hottest);
        assert_eq!(whole.hottest.len(), HOTTEST_SEEDS);
        assert_eq!(whole.hottest[..4], [(7, 8), (15, 8), (23, 8), (6, 7)]);
    }

    #[test]
    fn hottest_seeds_rank_by_steps_then_the_lower_seed() {
        let mut report = CaseReport::new("affine");
        // Absorbed out of order: 14 seeds with 20 steps, one with 50.
        for seed in (0..14u64).rev() {
            report.absorb(&record(seed, OutcomeClass::Value, 20));
        }
        report.absorb(&record(99, OutcomeClass::Value, 50));
        // A scenario rejected before the run has no run to rank.
        let mut rejected = record(100, OutcomeClass::Value, 1_000);
        rejected.stats = None;
        rejected.failure = Some(failure(100, FailStage::Typecheck, "claimed bool"));
        report.absorb(&rejected);
        assert_eq!(report.hottest.len(), HOTTEST_SEEDS, "the list stops at 10");
        assert_eq!(report.hottest[0], (99, 50));
        let tied: Vec<u64> = report.hottest[1..].iter().map(|&(seed, _)| seed).collect();
        assert_eq!(
            tied,
            (0..9).collect::<Vec<u64>>(),
            "ties go to the lower seed"
        );
    }

    #[test]
    fn malformed_hot_rows_are_refused() {
        let row = |fields: &str| format!("case\tmemgc\nscenarios\t1\nhot{fields}\n");
        for (fields, needle) in [
            ("", "line 3: missing value"),
            ("\t4", "line 3: missing steps"),
            ("\tfour\t12", "line 3: invalid digit"),
            ("\t4\t1x", "line 3: invalid digit"),
        ] {
            let err = SweepReport::from_tsv(&row(fields)).unwrap_err();
            assert!(err.contains(needle), "hot{fields:?}: {err}");
        }
        let parsed = SweepReport::from_tsv(&row("\t4\t12")).unwrap();
        assert_eq!(parsed.cases[0].hottest, vec![(4, 12)]);
    }

    fn failure(seed: u64, stage: FailStage, text: &str) -> FailureRecord {
        FailureRecord {
            seed,
            stage,
            reason: format!("{stage} rejected it: {text}"),
            witness: format!("witness of {text}"),
            shrunk: text.to_string(),
            shrink_steps: seed as usize,
        }
    }

    #[test]
    fn tsv_round_trips_failures_whose_text_holds_tabs_and_newlines() {
        let mut case = CaseReport::new("affine");
        case.absorb(&record(3, OutcomeClass::Value, 11));
        case.failures = vec![
            failure(3, FailStage::Typecheck, "let x =\t1\nin x"),
            failure(5, FailStage::Compile, "a \\ b\\t \r\n"),
            failure(8, FailStage::Run, "trailing space "),
            failure(13, FailStage::ModelCheck, ""),
        ];
        let text = SweepReport {
            cases: vec![case.clone()],
            population: None,
        }
        .to_tsv();
        let rows: Vec<&str> = text
            .lines()
            .filter(|line| line.starts_with("failure\t"))
            .collect();
        assert_eq!(rows.len(), 4, "one line per failure: {text}");
        assert!(
            rows.iter().all(|row| row.split('\t').count() == 7),
            "{text}"
        );
        let parsed = SweepReport::from_tsv(&text).unwrap();
        assert_eq!(parsed.cases[0].failures, case.failures);
        assert_eq!(parsed.cases[0].digest(), case.digest());
        // A clean case writes no failure rows at all.
        let clean = SweepReport {
            cases: vec![CaseReport::new("memgc")],
            population: None,
        };
        assert!(!clean.to_tsv().contains("failure\t"));
    }

    #[test]
    fn malformed_failure_rows_are_refused() {
        let row = |fields: &str| format!("case\tmemgc\nfailures\t1\nfailure\t{fields}\n");
        let err = SweepReport::from_tsv(&row("4\trun\t0\treason\twitness")).unwrap_err();
        assert!(err.contains("line 3") && err.contains("6 fields"), "{err}");
        let err = SweepReport::from_tsv(&row("4\trun\t0\tr\tw\ts\textra")).unwrap_err();
        assert!(err.contains("6 fields"), "{err}");
        let err = SweepReport::from_tsv(&row("4\tlink\t0\tr\tw\ts")).unwrap_err();
        assert!(err.contains("unknown failure stage"), "{err}");
        let err = SweepReport::from_tsv(&row("4\trun\t0\tr\\q\tw\ts")).unwrap_err();
        assert!(err.contains("unknown escape"), "{err}");
        assert!(SweepReport::from_tsv(&row("4\trun\t0\tr\tw\ts")).is_ok());
    }

    #[test]
    fn failure_counts_must_match_their_rows() {
        // A count-only file, as written before failures were persisted.
        let count_only = "case\taffine\nscenarios\t5\nfailures\t2\n";
        let err = SweepReport::from_tsv(count_only).unwrap_err();
        assert!(
            err.contains("case affine: 2 failures declared but 0"),
            "{err}"
        );
        let uncounted = "case\taffine\nfailure\t1\trun\t0\tr\tw\ts\ncase\tmemgc\n";
        let err = SweepReport::from_tsv(uncounted).unwrap_err();
        assert!(err.contains("0 failures declared but 1"), "{err}");
    }

    #[test]
    fn digest_is_deterministic_and_informative() {
        let mut a = CaseReport::new("memgc");
        a.absorb(&record(0, OutcomeClass::Value, 3));
        let mut b = CaseReport::new("memgc");
        b.absorb(&record(0, OutcomeClass::Value, 3));
        assert_eq!(a.digest(), b.digest());
        assert!(a.digest().contains("case=memgc"));
    }
}
