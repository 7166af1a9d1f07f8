//! Structural counterexample shrinking.
//!
//! When a scenario fails (an unsafe run, or a model-check rejection), the
//! engine searches for a smaller program with the same failure.  Each case
//! study's [`CaseStudy::shrink`] proposes *immediate* subterms; the shrinker
//! closes them transitively (bounded by [`MAX_CANDIDATES`]), orders them
//! smallest-rendering-first, and replaces the current witness with the first
//! candidate the failing check still rejects.  Going through the transitive
//! closure matters: a failing subterm is often nested under intermediate
//! terms that do not themselves fail (e.g. a failing `bool` expression
//! sitting inside a sound pair), which a purely greedy parent-to-child
//! descent could never reach.

use semint_core::case::CaseStudy;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// Bound on how many distinct subterm candidates one shrink round examines.
pub const MAX_CANDIDATES: usize = 2_000;

/// Bound on accepted replacement rounds (a safety net; with smallest-first
/// ordering a second round almost never finds anything further).
pub const MAX_ROUNDS: usize = 8;

/// All distinct proper subterms of `program`, smallest rendering first.
///
/// One ordered map both deduplicates and orders: it is keyed by size
/// ([`CaseStudy::program_chars`]) and then rendering, so the result is
/// deterministic regardless of traversal order, and the first program met
/// with a given rendering is the one kept.
fn subterm_candidates<C: CaseStudy>(case: &C, program: &C::Program) -> Vec<C::Program> {
    let mut queue: VecDeque<C::Program> = case.shrink(program).into();
    let mut candidates: BTreeMap<(usize, String), C::Program> = BTreeMap::new();
    while let Some(candidate) = queue.pop_front() {
        if candidates.len() >= MAX_CANDIDATES {
            break;
        }
        let key = (case.program_chars(&candidate), candidate.to_string());
        if let Entry::Vacant(slot) = candidates.entry(key) {
            queue.extend(case.shrink(&candidate));
            slot.insert(candidate);
        }
    }
    candidates.into_values().collect()
}

/// Shrinks `program` while `still_fails` holds, returning the smallest
/// failing program found and the number of accepted replacements.
///
/// `still_fails` must treat ill-typed candidates as non-failing (the engine's
/// predicates re-typecheck candidates first), otherwise shrinking could walk
/// out of the well-typed fragment and report an uncheckable witness.
pub fn shrink_failure<C: CaseStudy>(
    case: &C,
    program: &C::Program,
    still_fails: impl Fn(&C::Program) -> bool,
) -> (C::Program, usize) {
    let mut current = program.clone();
    let mut rounds = 0;
    while rounds < MAX_ROUNDS {
        let replacement = subterm_candidates(case, &current)
            .into_iter()
            .find(|candidate| still_fails(candidate));
        match replacement {
            Some(smaller) => {
                current = smaller;
                rounds += 1;
            }
            None => break,
        }
    }
    (current, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semint_core::case::{CheckFailure, GenProfile, Scenario};
    use semint_core::stats::{OutcomeClass, RunStats};
    use semint_core::Fuel;

    /// A toy case study over unary "programs" (`usize` nesting depth) where
    /// every program ≥ its threshold fails; shrinking should land on exactly
    /// the threshold.
    struct Toy {
        threshold: usize,
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Depth(usize);

    impl std::fmt::Display for Depth {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            // Unary rendering so "smaller program" and "smaller depth" agree.
            write!(f, "{}", "s".repeat(self.0))
        }
    }

    impl CaseStudy for Toy {
        type Program = Depth;
        type Ty = Depth;
        type Report = ();
        type Compiled = ();
        type Evidence = ();

        fn name(&self) -> &'static str {
            "toy"
        }
        fn generate(&self, seed: u64, _profile: &GenProfile) -> Scenario<Depth, Depth> {
            Scenario {
                seed,
                program: Depth(seed as usize),
                ty: Depth(seed as usize),
            }
        }
        fn typecheck(&self, p: &Depth) -> Result<Depth, String> {
            Ok(p.clone())
        }
        fn compile(&self, _p: &Depth) -> Result<(), String> {
            Ok(())
        }
        fn execute(&self, _compiled: (), _fuel: Fuel) {}
        fn stats(&self, _r: &()) -> RunStats {
            RunStats {
                outcome: OutcomeClass::Value,
                steps: 0,
                counters: Default::default(),
            }
        }
        fn boundary_count(&self, _p: &Depth) -> usize {
            0
        }
        fn program_chars(&self, p: &Depth) -> usize {
            p.0
        }
        fn model_budget(&self) -> Fuel {
            Fuel::steps(0)
        }
        fn model_evidence(&self, _p: &Depth, _ty: &Depth, _compiled: &(), _fuel: Fuel) {}
        fn model_judgement(
            &self,
            p: &Depth,
            _ty: &Depth,
            _evidence: (),
            _report: &(),
            _fuel: Fuel,
        ) -> Result<(), CheckFailure> {
            if p.0 >= self.threshold {
                Err(CheckFailure {
                    claim: "toy".into(),
                    witness: p.to_string(),
                    reason: "too deep".into(),
                })
            } else {
                Ok(())
            }
        }
        fn shrink(&self, p: &Depth) -> Vec<Depth> {
            if p.0 == 0 {
                Vec::new()
            } else {
                vec![Depth(p.0 - 1)]
            }
        }
    }

    #[test]
    fn shrinks_to_the_minimal_failing_program() {
        let toy = Toy { threshold: 3 };
        let (shrunk, rounds) = shrink_failure(&toy, &Depth(10), |p| toy.model_check(p, p).is_err());
        assert_eq!(shrunk, Depth(3));
        assert_eq!(
            rounds, 1,
            "smallest-first ordering finds the minimum in one round"
        );
    }

    #[test]
    fn no_shrink_when_nothing_smaller_fails() {
        let toy = Toy { threshold: 10 };
        let (shrunk, rounds) = shrink_failure(&toy, &Depth(10), |p| toy.model_check(p, p).is_err());
        assert_eq!(shrunk, Depth(10));
        assert_eq!(rounds, 0);
    }

    #[test]
    fn candidates_are_transitively_closed_and_sorted() {
        let toy = Toy { threshold: 0 };
        let candidates = subterm_candidates(&toy, &Depth(5));
        let depths: Vec<usize> = candidates.into_iter().map(|d| d.0).collect();
        assert_eq!(depths, vec![0, 1, 2, 3, 4]);
    }
}
