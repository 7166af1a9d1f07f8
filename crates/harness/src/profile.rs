//! `semint profile`: offline aggregation of `--trace` JSONL streams.
//!
//! Trace files are observational — event order across workers is
//! scheduling-dependent — so everything here aggregates order-insensitively
//! with the same rules the digest-grade counters use (counts add,
//! high-water marks take the max).  A profile over one trace therefore
//! reports the *same* per-case counter totals the sweep's own report did,
//! which the integration suite asserts as the trace round-trip property.

use crate::json::{self, Json};
use semint_core::VmCounters;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How many hottest seeds (by machine steps) a profile keeps.
pub const TOP_SEEDS: usize = 10;

/// Order-insensitive aggregates over one or more trace streams.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceProfile {
    /// `scenario` events seen.
    pub scenarios: u64,
    /// `sweep-progress` heartbeats seen.
    pub heartbeats: u64,
    /// Scenarios that passed every stage (`"safe":true`).
    pub safe: u64,
    /// Per-case aggregates, keyed by case name.
    pub cases: BTreeMap<String, CaseProfile>,
    /// Per-stage nanoseconds summed across all scenario events (present
    /// only when the traced sweep was timed).
    pub stage_ns: BTreeMap<String, u64>,
    /// The [`TOP_SEEDS`] hottest seeds by steps, hottest first.
    pub hottest: Vec<HotSeed>,
}

/// One case study's share of a [`TraceProfile`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CaseProfile {
    /// Scenario events for this case.
    pub scenarios: u64,
    /// Safe scenarios for this case.
    pub safe: u64,
    /// Machine steps summed over the case's scenarios.
    pub steps: u64,
    /// VM counters folded with the digest-grade rules (counts add, peaks
    /// max), so they match the sweep's own [`semint_core::CaseReport`].
    pub counters: VmCounters,
    /// Outcome-class histogram.
    pub outcomes: BTreeMap<String, u64>,
    /// Latest glue-cache snapshot seen for the case (cumulative counters,
    /// so the maximum across events is the end-of-sweep figure).
    pub glue_hits: u64,
    /// See [`CaseProfile::glue_hits`].
    pub glue_misses: u64,
    /// Per-stage nanoseconds summed over the case's scenarios (present only
    /// when the traced sweep was timed).
    pub stage_ns: BTreeMap<String, u64>,
}

impl CaseProfile {
    /// Run-stage nanoseconds per retired VM instruction, when the trace was
    /// timed and the case retired any.
    pub fn run_ns_per_instr(&self) -> Option<f64> {
        let run_ns = *self.stage_ns.get("run")?;
        let instrs = self.counters.total_instrs();
        (instrs > 0).then(|| run_ns as f64 / instrs as f64)
    }
}

/// One entry of the hottest-seeds leaderboard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotSeed {
    /// The case study the seed belongs to.
    pub case: String,
    /// The scenario seed.
    pub seed: u64,
    /// Machine steps the scenario consumed.
    pub steps: u64,
}

/// Folds one trace stream (the text of a `--trace` JSONL file) into
/// `profile`.  Call once per file to aggregate several traces; blank lines
/// are skipped, malformed lines are errors naming the line number.
pub fn absorb_trace(profile: &mut TraceProfile, text: &str) -> Result<(), String> {
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        absorb_event(profile, line).map_err(|e| format!("line {}: {e}", idx + 1))?;
    }
    Ok(())
}

fn absorb_event(profile: &mut TraceProfile, line: &str) -> Result<(), String> {
    let doc = json::parse(line)?;
    match doc.require("event")?.as_str("event")? {
        "sweep-progress" => {
            profile.heartbeats += 1;
            Ok(())
        }
        "scenario" => absorb_scenario(profile, &doc),
        other => Err(format!("unknown event {other:?}")),
    }
}

fn absorb_scenario(profile: &mut TraceProfile, doc: &Json) -> Result<(), String> {
    let case_name = doc.require("case")?.as_str("case")?;
    let seed = doc.require("seed")?.as_u64("seed")?;
    let steps = doc.require("steps")?.as_u64("steps")?;
    let outcome = doc.require("outcome")?.as_str("outcome")?;
    let safe = doc.require("safe")?.as_bool("safe")?;
    let mut counters = VmCounters::new();
    if let Some(Json::Object(fields)) = doc.get("counters") {
        for (key, value) in fields {
            // Unknown counter names are tolerated (a newer writer may know
            // more classes); known ones must be numbers.
            let _ = counters.set_field(key, value.as_u64(key)?);
        }
    }

    profile.scenarios += 1;
    if safe {
        profile.safe += 1;
    }
    let case = profile.cases.entry(case_name.to_string()).or_default();
    case.scenarios += 1;
    if safe {
        case.safe += 1;
    }
    case.steps += steps;
    case.counters.absorb(&counters);
    *case.outcomes.entry(outcome.to_string()).or_insert(0) += 1;
    if let Some(glue) = doc.get("glue") {
        // Snapshots are cumulative; the largest one seen is the latest.
        case.glue_hits = case.glue_hits.max(glue.require("hits")?.as_u64("hits")?);
        case.glue_misses = case
            .glue_misses
            .max(glue.require("misses")?.as_u64("misses")?);
    }
    // Traces written before exact `stage_ns` carried whole microseconds.
    let stages = match (doc.get("stage_ns"), doc.get("stage_us")) {
        (Some(Json::Object(stages)), _) => Some((stages, 1)),
        (None, Some(Json::Object(stages))) => Some((stages, 1_000)),
        _ => None,
    };
    if let Some((stages, scale)) = stages {
        for (label, time) in stages {
            let ns = time
                .as_u64(label)?
                .checked_mul(scale)
                .ok_or_else(|| format!("{label}: stage time out of range"))?;
            *profile.stage_ns.entry(label.clone()).or_insert(0) += ns;
            *case.stage_ns.entry(label.clone()).or_insert(0) += ns;
        }
    }

    let entry = HotSeed {
        case: case_name.to_string(),
        seed,
        steps,
    };
    let leaderboard = &mut profile.hottest;
    leaderboard.push(entry);
    // Steps descending, then (case, seed) ascending, so the leaderboard is
    // identical no matter how worker scheduling ordered the events.
    leaderboard.sort_by(|a, b| {
        b.steps
            .cmp(&a.steps)
            .then_with(|| a.case.cmp(&b.case))
            .then_with(|| a.seed.cmp(&b.seed))
    });
    leaderboard.truncate(TOP_SEEDS);
    Ok(())
}

/// Renders a profile as an aligned plain-text block.
pub fn render_profile(profile: &TraceProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace profile: {} scenarios ({} safe), {} heartbeats",
        profile.scenarios, profile.safe, profile.heartbeats
    );
    if !profile.stage_ns.is_empty() {
        out.push_str("stage totals\n");
        let total: u64 = profile.stage_ns.values().sum();
        for (label, ns) in &profile.stage_ns {
            let pct = if total > 0 {
                100.0 * *ns as f64 / total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {label:<14} {:>10.3} ms  ({pct:>5.1}%)",
                *ns as f64 / 1e6
            );
        }
    }
    for (name, case) in &profile.cases {
        let _ = writeln!(out, "case {name}");
        let _ = writeln!(
            out,
            "  scenarios {}  safe {}  steps {}",
            case.scenarios, case.safe, case.steps
        );
        let c = &case.counters;
        let _ = writeln!(
            out,
            "  opcode classes   data {}  control {}  fun {}  heap {}",
            c.instr_data, c.instr_control, c.instr_fun, c.instr_heap
        );
        let _ = writeln!(
            out,
            "  allocation       allocs {}  frees {}  reuses {}  peak live {}  stack peak {}",
            c.heap_allocs, c.heap_frees, c.heap_reuses, c.heap_peak_live, c.stack_peak
        );
        let _ = writeln!(out, "  boundaries       {}", c.boundary_crossings);
        if !case.stage_ns.is_empty() {
            out.push_str("  stage ms        ");
            for (label, ns) in &case.stage_ns {
                let _ = write!(out, " {label} {:.3}", *ns as f64 / 1e6);
            }
            out.push('\n');
        }
        if let Some(ns) = case.run_ns_per_instr() {
            let _ = writeln!(out, "  run              {ns:.1} ns per retired instruction");
        }
        if case.glue_hits + case.glue_misses > 0 {
            let _ = writeln!(
                out,
                "  glue cache       {} hits / {} misses",
                case.glue_hits, case.glue_misses
            );
        }
        out.push_str("  outcomes        ");
        for (label, count) in &case.outcomes {
            let _ = write!(out, " {label} {count}");
        }
        out.push('\n');
    }
    if !profile.hottest.is_empty() {
        out.push_str("hottest seeds by steps\n");
        for (rank, hot) in profile.hottest.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:>2}. {:<10} seed {:<8} {:>8} steps",
                rank + 1,
                hot.case,
                hot.seed,
                hot.steps
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::scenario_line;
    use semint_core::stats::{OutcomeClass, RunStats, ScenarioRecord, StageTimings};

    fn record(seed: u64, steps: u64) -> ScenarioRecord {
        ScenarioRecord {
            seed,
            ty: "bool".into(),
            program_chars: 4,
            boundaries: 1,
            stats: Some(RunStats {
                outcome: OutcomeClass::Value,
                steps,
                counters: VmCounters {
                    instr_data: steps,
                    boundary_crossings: 1,
                    heap_allocs: 2,
                    heap_peak_live: seed + 1,
                    stack_peak: 3,
                    ..VmCounters::default()
                },
            }),
            failure: None,
            timings: None,
        }
    }

    fn sample_trace() -> String {
        let mut text = String::new();
        text.push_str(&scenario_line("sharedmem", &record(0, 10), None));
        text.push_str(&scenario_line("sharedmem", &record(1, 30), None));
        text.push_str(&scenario_line("memgc", &record(2, 20), None));
        text.push_str(
            "{\"event\":\"sweep-progress\",\"done\":3,\"total\":3,\"safe\":3,\"elapsed_us\":77}\n",
        );
        text
    }

    #[test]
    fn profiles_aggregate_with_the_digest_grade_rules() {
        let mut profile = TraceProfile::default();
        absorb_trace(&mut profile, &sample_trace()).expect("well-formed trace");
        assert_eq!(profile.scenarios, 3);
        assert_eq!(profile.safe, 3);
        assert_eq!(profile.heartbeats, 1);
        let shared = &profile.cases["sharedmem"];
        assert_eq!(shared.scenarios, 2);
        assert_eq!(shared.steps, 40);
        assert_eq!(shared.counters.instr_data, 40, "counts add");
        assert_eq!(shared.counters.heap_peak_live, 2, "peaks take the max");
        assert_eq!(shared.outcomes["value"], 2);
        assert_eq!(profile.hottest[0].steps, 30);
        assert_eq!(profile.hottest[0].case, "sharedmem");
    }

    #[test]
    fn aggregation_is_order_insensitive() {
        let forward = sample_trace();
        let reversed: String = forward.lines().rev().map(|l| format!("{l}\n")).collect();
        let mut a = TraceProfile::default();
        let mut b = TraceProfile::default();
        absorb_trace(&mut a, &forward).unwrap();
        absorb_trace(&mut b, &reversed).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_lines_are_errors_naming_the_line() {
        let mut profile = TraceProfile::default();
        let err = absorb_trace(&mut profile, "{\"event\":\"scenario\"}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = absorb_trace(&mut profile, "{\"event\":\"nope\"}\n").unwrap_err();
        assert!(err.contains("unknown event"), "{err}");
        assert!(absorb_trace(&mut profile, "not json\n").is_err());
    }

    #[test]
    fn stage_times_are_exact_per_case_and_yield_ns_per_instruction() {
        let mut timed = record(4, 40);
        timed.timings = Some(StageTimings {
            generate_ns: 1_500,
            run_ns: 6_543,
            ..StageTimings::default()
        });
        let mut profile = TraceProfile::default();
        absorb_trace(&mut profile, &scenario_line("sharedmem", &timed, None)).unwrap();
        absorb_trace(&mut profile, &scenario_line("memgc", &timed, None)).unwrap();
        assert_eq!(profile.stage_ns["run"], 2 * 6_543, "exact, not truncated");
        let shared = &profile.cases["sharedmem"];
        assert_eq!(shared.stage_ns["generate"], 1_500);
        assert_eq!(shared.stage_ns["run"], 6_543);
        // 40 retired instructions (`record` counts every step as data).
        assert_eq!(shared.run_ns_per_instr(), Some(6_543.0 / 40.0));
        let text = render_profile(&profile);
        assert!(text.contains("163.6 ns per retired instruction"), "{text}");
        // Untimed traces carry no stage times and no per-instruction figure.
        let mut untimed = TraceProfile::default();
        absorb_trace(&mut untimed, &sample_trace()).unwrap();
        assert!(untimed.stage_ns.is_empty());
        assert_eq!(untimed.cases["sharedmem"].run_ns_per_instr(), None);
    }

    #[test]
    fn legacy_microsecond_stage_times_still_aggregate() {
        let line = "{\"event\":\"scenario\",\"case\":\"affine\",\"seed\":1,\"steps\":8,\
            \"outcome\":\"value\",\"safe\":true,\"counters\":{\"instr_data\":8},\
            \"stage_us\":{\"run\":3,\"compile\":2}}\n";
        let mut profile = TraceProfile::default();
        absorb_trace(&mut profile, line).expect("old traces stay readable");
        assert_eq!(profile.stage_ns["run"], 3_000);
        assert_eq!(profile.cases["affine"].stage_ns["compile"], 2_000);
        assert_eq!(profile.cases["affine"].run_ns_per_instr(), Some(375.0));
        let huge = line.replace("\"run\":3", &format!("\"run\":{}", u64::MAX));
        let err = absorb_trace(&mut profile, &huge).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn rendering_names_every_section() {
        let mut profile = TraceProfile::default();
        absorb_trace(&mut profile, &sample_trace()).unwrap();
        let text = render_profile(&profile);
        assert!(text.contains("trace profile: 3 scenarios"), "{text}");
        assert!(text.contains("case sharedmem"), "{text}");
        assert!(text.contains("opcode classes"), "{text}");
        assert!(text.contains("hottest seeds"), "{text}");
    }
}
