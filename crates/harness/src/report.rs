//! Plain-text rendering of sweep reports for the `semint` CLI.
//!
//! Two kinds of sweep-time signal land here.  The always-on deterministic
//! ones — VM counters (instructions retired by opcode class, boundary
//! crossings, allocation totals, high-water marks) and each case's hottest
//! seeds by machine steps — are digest-grade facts, identical across every
//! `--jobs`/`--batch`/shard combination.  A `--time` sweep adds where the
//! time went: per case, and for all cases together when more than one was
//! timed, each stage's wall-clock and share (the engine's own time is the
//! `other` stage), and per case the run stage's nanoseconds per retired
//! instruction.
//!
//! Every failure block ends with a `repro:` line, a `semint run` command
//! that replays the failure as it was found.

use semint_core::case::GenProfile;
use semint_core::stats::{CaseReport, StageTimings, SweepReport};
use std::fmt::{self, Write as _};

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
        render_stages(&mut out, "  stage wall-clock", timings);
    }
    if let Some(ns) = report.run_ns_per_instr() {
        let _ = writeln!(out, "  run              {ns:.1} ns per retired instruction");
    }
    out.push_str("  outcomes\n");
    if report.outcome_histogram.is_empty() {
        out.push_str("    (none)\n");
    }
    for (label, count) in &report.outcome_histogram {
        out.push_str(&format!("    {label:<14} {count:>8}\n"));
    }
    out.push_str("  hottest seeds   ");
    if report.hottest.is_empty() {
        out.push_str(" (none)");
    }
    for (seed, steps) in &report.hottest {
        let _ = write!(out, " {seed}:{steps}");
    }
    out.push('\n');
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
            Truncated(&failure.witness, 120),
            failure.shrink_steps,
            Truncated(&failure.shrunk, 120),
            repro_line(&report.case, failure.seed, population),
        );
    }
    out
}

/// Renders a stage wall-clock block under `heading`: every stage's
/// milliseconds and share of the stage total, then the total.
fn render_stages(out: &mut String, heading: &str, timings: &StageTimings) {
    let total = timings.total_ns();
    let _ = writeln!(out, "{heading}");
    for (label, ns) in timings.stages() {
        let share = 100.0 * ns as f64 / total.max(1) as f64;
        let _ = writeln!(
            out,
            "    {label:<14} {:>10.3} ms  ({share:>5.1}%)",
            ns as f64 / 1e6
        );
    }
    let _ = writeln!(out, "    {:<14} {:>10.3} ms", "total", total as f64 / 1e6);
}

/// Renders a whole sweep report; when more than one case was timed, it
/// ends with the stage block of all cases together.
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
    let timed: Vec<&StageTimings> = report
        .cases
        .iter()
        .filter_map(|c| c.timings.as_ref())
        .collect();
    if timed.len() > 1 {
        let mut all = StageTimings::default();
        for timings in timed {
            all.absorb(timings);
        }
        render_stages(&mut out, "stage wall-clock, all cases", &all);
    }
    out
}

/// Displays its text cut to at most the given number of characters, with
/// `…` marking a cut.
struct Truncated<'a>(&'a str, usize);

impl fmt::Display for Truncated<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Truncated(text, max_chars) = *self;
        // Every character takes at least one byte.
        if text.len() <= max_chars {
            return f.write_str(text);
        }
        match text.char_indices().nth(max_chars) {
            None => f.write_str(text),
            Some((cut, _)) => {
                f.write_str(&text[..cut])?;
                f.write_char('…')
            }
        }
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
        case.counters.instr_data = 40;
        case.hottest = vec![(12, 30), (3, 10)];
        case.timings = Some(StageTimings {
            generate_ns: 2_000_000,
            typecheck_ns: 1_000_000,
            compile_ns: 500_000,
            run_ns: 6_543,
            model_check_ns: 0,
            other_ns: 1_493_457,
        });
        let text = render_case(&case, None);
        assert!(text.contains("glue cache"), "{text}");
        assert!(
            text.contains("30 hits / 10 misses (75.0% hit rate)"),
            "{text}"
        );
        for line in [
            "  stage wall-clock\n",
            "    generate            2.000 ms  ( 40.0%)\n",
            "    model-check         0.000 ms  (  0.0%)\n",
            "    other               1.493 ms  ( 29.9%)\n",
            "    total               5.000 ms\n",
            // 6 543 run ns over 40 retired instructions.
            "  run              163.6 ns per retired instruction\n",
            "  hottest seeds    12:30 3:10\n",
        ] {
            assert!(text.contains(line), "{line:?} in\n{text}");
        }

        // An untimed case has no per-instruction figure, and the all-cases
        // block needs more than one timed case.
        let untimed = CaseReport::new("affine");
        let text = render_case(&untimed, None);
        assert!(!text.contains("per retired instruction"), "{text}");
        assert!(text.contains("  hottest seeds    (none)\n"), "{text}");
        let mut report = SweepReport {
            cases: vec![case.clone(), untimed],
            population: None,
        };
        let text = render_sweep(&report);
        assert!(!text.contains("all cases"), "{text}");
        report.cases[1] = CaseReport {
            case: "sharedmem".into(),
            ..case
        };
        let text = render_sweep(&report);
        let (_, all) = text
            .split_once("stage wall-clock, all cases\n")
            .expect("two timed cases get the all-cases block");
        assert!(
            all.starts_with("    generate            4.000 ms  ( 40.0%)\n"),
            "{text}"
        );
        assert!(
            all.ends_with("    total              10.000 ms\n"),
            "{text}"
        );
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
        let truncate = |text: &str, max_chars| Truncated(text, max_chars).to_string();
        assert_eq!(truncate("short", 10), "short");
        let long = "x".repeat(200);
        let t = truncate(&long, 120);
        assert_eq!(t.chars().count(), 121);
        assert!(t.ends_with('…'));
        // Multi-byte text is measured in characters, not bytes.
        let exact = "⦇".repeat(120);
        assert_eq!(truncate(&exact, 120), exact);
        let over = "⦇".repeat(121);
        assert_eq!(truncate(&over, 120), format!("{exact}…"));
    }
}
