//! Committed reference values for a fixed anchor population per workload.
//!
//! Every run replays seeds `0..1000` of each case study through the
//! workload's pipeline shape and compares the per-case digest, every
//! `VmCounters` field, the glue-cache hits and misses, and the shrinker's
//! candidate checks against `anchors.tsv`.  No change that is not a
//! deliberate semantics change may move these values; one that is
//! regenerates the file with `--write-anchors` and says so.

use crate::replay::{replay, CaseReplay, Tracer};
use crate::workload::{self, Env, Workload};
use semint_harness::SeedRange;

/// The committed reference values.
const ANCHORS: &str = include_str!("../anchors.tsv");

/// The anchor population: seeds `0..1000` of every case study.
pub fn anchor_seeds() -> SeedRange {
    SeedRange::new(0, 1_000).expect("non-empty range")
}

/// The `(case, key, value)` rows that pin one replay down.
fn rows(replays: &[CaseReplay]) -> Vec<(String, String, String)> {
    let mut rows = Vec::new();
    for r in replays {
        let case = &r.report.case;
        let mut push = |key: &str, value: String| rows.push((case.clone(), key.to_string(), value));
        push("digest", r.report.digest());
        push("glue_hits", r.report.glue_hits.to_string());
        push("glue_misses", r.report.glue_misses.to_string());
        push("shrink_checks", r.shrink_checks.to_string());
        for (key, value) in r.report.counters.fields() {
            push(key, value.to_string());
        }
    }
    rows
}

/// Replays the anchor population of `workload` without tracing.
pub fn replay_anchor(workload: Workload) -> Vec<CaseReplay> {
    let seeds: Vec<u64> = (anchor_seeds().start()..anchor_seeds().end()).collect();
    replay(&seeds, &workload.shape(), &mut Tracer::off())
}

/// Scenarios in one workload's anchor population.
pub fn anchor_scenarios() -> u64 {
    anchor_seeds().count() * 3
}

/// Compares a replay of the anchor population with the committed values,
/// returning one `(scenarios affected, explanation)` pair per case that
/// disagrees.
pub fn check(workload: Workload, replays: &[CaseReplay]) -> Vec<(u64, String)> {
    let want: Vec<(&str, &str, &str)> = ANCHORS
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut f = l.splitn(4, '\t');
            let (w, c, k, v) = (f.next()?, f.next()?, f.next()?, f.next()?);
            (w == workload.name()).then_some((c, k, v))
        })
        .collect();
    if want.is_empty() {
        return vec![(
            anchor_scenarios(),
            format!("anchors.tsv has no rows for {}", workload.name()),
        )];
    }
    let got = rows(replays);
    let per_case = anchor_seeds().count();
    let mut bad: Vec<(u64, String)> = Vec::new();
    for (case, key, value) in &want {
        let found = got
            .iter()
            .find(|(c, k, _)| c == case && k == key)
            .map(|(_, _, v)| v.as_str());
        if found != Some(value) && !bad.iter().any(|(_, why)| why.starts_with(case)) {
            bad.push((
                per_case,
                format!("{case}: anchor {key} is {found:?}, reference {value:?}"),
            ));
        }
    }
    bad
}

/// Regenerates the reference rows: the digest, counters and glue figures
/// come from a `semint sweep --jobs 1` process, the shrink-check counts
/// from the replay, and the two routes must agree on everything they share.
pub fn write(env: &Env, path: &str) -> Result<(), String> {
    let mut text = String::from(
        "# Reference values for the anchor population (seeds 0..1000 of every case study).\n\
         # workload\tcase\tkey\tvalue — regenerate only for a deliberate semantics change.\n",
    );
    for workload in Workload::ALL {
        let replays = replay_anchor(workload);
        let from_process = workload::sweep_process(&workload.shape(), env, anchor_seeds(), 1)?;
        for r in &replays {
            let p = from_process
                .cases
                .iter()
                .find(|c| c.case == r.report.case)
                .ok_or("case missing from the semint sweep report")?;
            let replayed = (r.report.digest(), r.report.counters, r.report.glue_hits);
            let swept = (p.digest(), p.counters, p.glue_hits);
            if replayed != swept || r.report.glue_misses != p.glue_misses {
                return Err(format!(
                    "{} {}: replay {replayed:?} disagrees with semint sweep {swept:?}",
                    workload.name(),
                    r.report.case
                ));
            }
        }
        for (case, key, value) in rows(&replays) {
            text.push_str(&format!("{}\t{case}\t{key}\t{value}\n", workload.name()));
        }
    }
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}
