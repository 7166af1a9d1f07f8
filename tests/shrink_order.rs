//! The shrinker examines the candidates its specification names, in its
//! order: every distinct proper subterm met breadth first through
//! `CaseStudy::shrink`, duplicates (equal renderings) dropped unexpanded,
//! cut at `MAX_CANDIDATES` distinct candidates and ordered by
//! `(chars, rendering)`, the `chars` of `CaseStudy::measure`.
//!
//! The oracle below is that specification written the plain way, rendering
//! every candidate into one ordered set; the shrinker renders a candidate
//! only when another has its size.  Both are run on the root program of
//! seeds 0..200 of every case study under all four presets.  None of these
//! roots has `MAX_CANDIDATES` distinct subterms; the shrinker's unit tests
//! cover the cut.

use semint::harness::cases::{AnyCase, AnyProgram};
use semint::harness::shrink::{shrink_failure, MAX_CANDIDATES};
use semint::harness::CaseStudy;
use semint_core::case::GenProfile;
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};

/// The renderings of the candidates one shrink round examines, in order.
fn oracle(case: &AnyCase, program: &AnyProgram) -> Vec<String> {
    let mut queue: VecDeque<AnyProgram> = case.shrink(program).into();
    let mut candidates: BTreeSet<(usize, String)> = BTreeSet::new();
    while let Some(candidate) = queue.pop_front() {
        if candidates.len() >= MAX_CANDIDATES {
            break;
        }
        if candidates.insert((case.measure(&candidate).chars, candidate.to_string())) {
            queue.extend(case.shrink(&candidate));
        }
    }
    candidates
        .into_iter()
        .map(|(_, rendering)| rendering)
        .collect()
}

#[test]
fn shrink_candidates_match_the_rendering_oracle() {
    for profile in GenProfile::presets() {
        for case in AnyCase::all(false) {
            for seed in 0..200 {
                let program = case.generate(seed, &profile).program;
                let seen = RefCell::new(Vec::new());
                let (shrunk, steps) = shrink_failure(&case, &program, |candidate| {
                    seen.borrow_mut().push(candidate.to_string());
                    false
                });
                assert_eq!(steps, 0);
                assert_eq!(shrunk.to_string(), program.to_string());
                let expected = oracle(&case, &program);
                assert!(
                    seen.into_inner() == expected,
                    "{} {} seed {seed}: the shrinker's candidates differ from the oracle's",
                    case.name(),
                    profile.name
                );
            }
        }
    }
}
