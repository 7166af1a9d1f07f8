//! Plain-text rendering of sweep reports for the `semint` CLI.
//!
//! Two kinds of sweep-time signal land here: the optional per-stage
//! wall-clock block (`--time`), and the always-on deterministic VM counters
//! — instructions retired by opcode class, boundary crossings, allocation
//! totals, high-water marks — which are digest-grade facts identical across
//! every `--jobs`/`--batch`/shard combination.
//!
//! Every failure block ends with a `repro:` line, a `semint run` command
//! that replays the failure as it was found.

use semint_core::case::GenProfile;
use semint_core::stats::{CaseReport, SweepReport};
use std::fmt::Write as _;

/// The population a sweep drew from, as the `semint` flags that select it
/// (the profile, and `--broken` for the sabotaged case studies): what
/// [`SweepReport::population`] records.
pub fn population(profile: &GenProfile, broken: bool) -> String {
    let mut flags = profile.flags();
    if broken {
        flags.push_str(" --broken");
    }
    flags
}

/// The `semint run` command that replays seed `seed` of case study `case`
/// drawn from `population` (see [`population`]).
fn repro_line(case: &str, seed: u64, population: Option<&str>) -> String {
    match population {
        Some(flags) => format!("semint run --case {case} --seed {seed} {flags}"),
        None => format!(
            "semint run --case {case} --seed {seed}  \
             # population not recorded: add the sweep's profile flags"
        ),
    }
}

/// Renders one case report as an aligned block; each failure block ends
/// with the `semint run` line that replays it under `population`.
pub fn render_case(report: &CaseReport, population: Option<&str>) -> String {
    let mut out = String::new();
    out.push_str(&format!("case {}\n", report.case));
    out.push_str(&format!("  scenarios        {:>10}\n", report.scenarios));
    out.push_str(&format!("  total steps      {:>10}\n", report.total_steps));
    out.push_str(&format!(
        "  boundaries       {:>10}\n",
        report.total_boundaries
    ));
    let avg_chars = report
        .total_program_chars
        .checked_div(report.scenarios)
        .unwrap_or(0);
    out.push_str(&format!("  avg program size {:>10} chars\n", avg_chars));
    out.push_str(&format!(
        "  glue cache       {:>10} hits / {} misses ({:.1}% hit rate)\n",
        report.glue_hits,
        report.glue_misses,
        report.glue_hit_rate() * 100.0
    ));
    if !report.counters.is_zero() {
        out.push_str("  vm counters\n");
        for (label, value) in report.counters.fields() {
            out.push_str(&format!("    {label:<18} {value:>12}\n"));
        }
        out.push_str(&format!(
            "    {:<18} {:>12}\n",
            "total_instrs",
            report.counters.total_instrs()
        ));
    }
    if let Some(timings) = &report.timings {
        out.push_str("  stage wall-clock\n");
        for (label, ns) in timings.stages() {
            out.push_str(&format!(
                "    {label:<14} {:>10.3} ms\n",
                ns as f64 / 1_000_000.0
            ));
        }
        out.push_str(&format!(
            "    {:<14} {:>10.3} ms\n",
            "total",
            timings.total_ns() as f64 / 1_000_000.0
        ));
    }
    out.push_str("  outcomes\n");
    if report.outcome_histogram.is_empty() {
        out.push_str("    (none)\n");
    }
    for (label, count) in &report.outcome_histogram {
        out.push_str(&format!("    {label:<14} {count:>8}\n"));
    }
    out.push_str(&format!(
        "  failures         {:>10}\n",
        report.failures.len()
    ));
    for failure in &report.failures {
        let _ = write!(
            out,
            "    seed {:>6} [{}] {}\n      witness: {}\n      shrunk ({} steps): {}\n      repro: {}\n",
            failure.seed,
            failure.stage,
            failure.reason,
            truncate(&failure.witness, 120),
            failure.shrink_steps,
            truncate(&failure.shrunk, 120),
            repro_line(&report.case, failure.seed, population),
        );
    }
    out
}

/// Renders a whole sweep report.
pub fn render_sweep(report: &SweepReport) -> String {
    let mut out = String::new();
    for case in &report.cases {
        out.push_str(&render_case(case, report.population.as_deref()));
        out.push('\n');
    }
    out.push_str(&format!(
        "total: {} scenarios, {} failures\n",
        report.scenarios(),
        report.failure_count()
    ));
    out
}

fn truncate(s: &str, max_chars: usize) -> String {
    match s.char_indices().nth(max_chars) {
        None => s.to_string(),
        Some((cut, _)) => format!("{}…", &s[..cut]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semint_core::stats::{FailStage, FailureRecord};

    #[test]
    fn render_includes_failures_and_totals() {
        let mut case = CaseReport::new("sharedmem");
        case.scenarios = 2;
        case.failures.push(FailureRecord {
            seed: 7,
            stage: FailStage::ModelCheck,
            reason: "not in E⟦bool⟧".into(),
            witness: "if true then false else true".into(),
            shrunk: "true".into(),
            shrink_steps: 3,
        });
        let mut report = SweepReport {
            cases: vec![case],
            population: Some(population(&GenProfile::deep(), true)),
        };
        let text = render_sweep(&report);
        assert!(text.contains("case sharedmem"));
        assert!(text.contains("seed      7"));
        assert!(text.contains("shrunk (3 steps): true"));
        assert!(
            text.contains("repro: semint run --case sharedmem --seed 7 --profile deep --broken\n"),
            "{text}"
        );
        assert!(text.contains("total: 2 scenarios, 1 failures"));
        report.population = None;
        assert!(render_sweep(&report).contains("--seed 7  # population not recorded"));
    }

    #[test]
    fn render_includes_glue_cache_and_timings() {
        let mut case = CaseReport::new("memgc");
        case.scenarios = 4;
        case.glue_hits = 30;
        case.glue_misses = 10;
        case.timings = Some(semint_core::StageTimings {
            generate_ns: 2_000_000,
            typecheck_ns: 1_000_000,
            compile_ns: 500_000,
            run_ns: 4_000_000,
            model_check_ns: 0,
        });
        let text = render_case(&case, None);
        assert!(text.contains("glue cache"), "{text}");
        assert!(
            text.contains("30 hits / 10 misses (75.0% hit rate)"),
            "{text}"
        );
        assert!(text.contains("stage wall-clock"), "{text}");
        assert!(text.contains("generate"), "{text}");
        assert!(text.contains("model-check"), "{text}");
        assert!(text.contains("total"), "{text}");
    }

    #[test]
    fn render_includes_vm_counters_when_nonzero() {
        let mut case = CaseReport::new("affine");
        case.scenarios = 2;
        case.counters = semint_core::VmCounters {
            instr_data: 7,
            instr_control: 2,
            instr_fun: 3,
            instr_heap: 1,
            boundary_crossings: 4,
            heap_allocs: 1,
            heap_frees: 1,
            heap_reuses: 0,
            heap_peak_live: 1,
            stack_peak: 5,
        };
        let text = render_case(&case, None);
        assert!(text.contains("vm counters"), "{text}");
        assert!(text.contains("instr_data"), "{text}");
        assert!(text.contains("total_instrs"), "{text}");
        // A pre-counter report (all zero) renders no counter block.
        let legacy = render_case(&CaseReport::new("affine"), None);
        assert!(!legacy.contains("vm counters"), "{legacy}");
    }

    #[test]
    fn truncate_caps_long_witnesses() {
        assert_eq!(truncate("short", 10), "short");
        let long = "x".repeat(200);
        let t = truncate(&long, 120);
        assert_eq!(t.chars().count(), 121);
        assert!(t.ends_with('…'));
    }
}
