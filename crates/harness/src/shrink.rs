//! Structural counterexample shrinking.
//!
//! When a scenario fails (an unsafe run, or a model-check rejection), the
//! engine searches for a smaller program with the same failure.  Each case
//! study's [`CaseStudy::shrink`] proposes *immediate* subterms; the shrinker
//! closes them transitively (bounded by [`MAX_CANDIDATES`]), orders them
//! smallest first by the rendered length that [`CaseStudy::measure`]
//! counts, breaking a size tie by rendering, and replaces the current
//! witness with the first candidate the failing check still rejects.  Going
//! through the transitive closure matters: a failing subterm is often nested
//! under intermediate terms that do not themselves fail (e.g. a failing
//! `bool` expression sitting inside a sound pair), which a purely greedy
//! parent-to-child descent could never reach.
//!
//! The case studies keep expression subtrees behind `Arc`, so a candidate
//! shares its subtrees with the program it came from: proposing, keeping and
//! dropping one is pointer work, as is the clone of the failing program a
//! shrink starts from (`tests/program_sharing.rs`).  What a candidate costs
//! is the one `measure` walk that sizes it and, on a size tie, its
//! rendering.

use semint_core::case::CaseStudy;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// Bound on how many distinct subterm candidates one shrink round collects;
/// a duplicate met on the way does not count towards it.
pub const MAX_CANDIDATES: usize = 2_000;

/// Bound on accepted replacement rounds (a safety net; with smallest-first
/// ordering a second round almost never finds anything further).
pub const MAX_ROUNDS: usize = 8;

/// One distinct shrink candidate.
struct Candidate<P> {
    program: P,
    size: usize,
    /// The program's rendering, made once another candidate ties its size.
    rendering: Option<String>,
    /// The previous distinct candidate of the same size, as an index.
    tied: Option<usize>,
}

/// All distinct proper subterms of `program`, smallest first: ordered by
/// size (the `chars` of [`CaseStudy::measure`]), then by rendering.
///
/// Subterms are met breadth first, and of several with the same rendering
/// only the first met is kept and expanded; the result's order is that of
/// size and rendering, not of meeting.  A size is the length of the
/// rendering, so equal renderings have equal sizes: a candidate is rendered
/// only when another one has its size, to drop a duplicate or to order the
/// tie, and then only once.
fn subterm_candidates<C: CaseStudy>(case: &C, program: &C::Program) -> Vec<C::Program> {
    let mut queue: VecDeque<C::Program> = case.shrink(program).into();
    let mut kept: Vec<Candidate<C::Program>> = Vec::new();
    // The latest kept candidate of each size; `tied` links the earlier ones.
    let mut latest_of_size: BTreeMap<usize, usize> = BTreeMap::new();
    while let Some(program) = queue.pop_front() {
        if kept.len() >= MAX_CANDIDATES {
            break;
        }
        let size = case.measure(&program).chars;
        let (tied, rendering) = match latest_of_size.entry(size) {
            Entry::Vacant(slot) => {
                slot.insert(kept.len());
                (None, None)
            }
            Entry::Occupied(mut slot) => {
                let rendering = program.to_string();
                if renders_as(&mut kept, Some(*slot.get()), &rendering) {
                    continue;
                }
                (Some(slot.insert(kept.len())), Some(rendering))
            }
        };
        queue.extend(case.shrink(&program));
        kept.push(Candidate {
            program,
            size,
            rendering,
            tied,
        });
    }
    kept.sort_unstable_by(|a, b| (a.size, &a.rendering).cmp(&(b.size, &b.rendering)));
    kept.into_iter()
        .map(|candidate| candidate.program)
        .collect()
}

/// Whether a kept candidate on the `tied` chain from `at` renders as
/// `rendering`, rendering each one met for the first time.
///
/// Every candidate on a chain of two or more has been rendered, because
/// adding the second walked past the first; so only a candidate still
/// alone at its size is ever rendered here.
fn renders_as<P: std::fmt::Display>(
    kept: &mut [Candidate<P>],
    mut at: Option<usize>,
    rendering: &str,
) -> bool {
    while let Some(index) = at {
        let other = &mut kept[index];
        let other_rendering = other
            .rendering
            .get_or_insert_with(|| other.program.to_string());
        if other_rendering == rendering {
            return true;
        }
        at = other.tied;
    }
    false
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
    use semint_core::case::{CheckFailure, GenProfile, Scenario, Size};
    use semint_core::stats::{OutcomeClass, RunStats};
    use semint_core::Fuel;

    /// A toy case study over unary "programs" (`usize` nesting depth) where
    /// every program ≥ its threshold fails; shrinking should land on exactly
    /// the threshold.  A program no deeper than `twins_up_to` shrinks to
    /// two equal children.
    struct Toy {
        threshold: usize,
        twins_up_to: usize,
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Depth(usize);

    thread_local! {
        /// The depth of every `Depth` rendered on this thread, in order.
        static RENDERED: std::cell::RefCell<Vec<usize>> = const { std::cell::RefCell::new(Vec::new()) };
    }

    /// The depths rendered on this thread since the last call.
    fn take_rendered() -> Vec<usize> {
        RENDERED.with(|rendered| rendered.take())
    }

    impl std::fmt::Display for Depth {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            RENDERED.with(|rendered| rendered.borrow_mut().push(self.0));
            // Unary rendering so "smaller program" and "smaller depth" agree.
            write!(f, "{}", "s".repeat(self.0))
        }
    }

    impl CaseStudy for Toy {
        type Program = Depth;
        type Ty = Depth;
        type Report = ();
        type Compiled = ();

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
        fn measure(&self, p: &Depth) -> Size {
            Size::chars(p.0)
        }
        fn model_budget(&self) -> Fuel {
            Fuel::steps(0)
        }
        fn model_judgement(
            &self,
            p: &Depth,
            _ty: &Depth,
            _compiled: &(),
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
            match p.0 {
                0 => Vec::new(),
                depth if depth <= self.twins_up_to => vec![Depth(depth - 1), Depth(depth - 1)],
                depth => vec![Depth(depth - 1)],
            }
        }
    }

    #[test]
    fn shrinks_to_the_minimal_failing_program() {
        let toy = Toy {
            threshold: 3,
            twins_up_to: 0,
        };
        let (shrunk, rounds) = shrink_failure(&toy, &Depth(10), |p| toy.model_check(p, p).is_err());
        assert_eq!(shrunk, Depth(3));
        assert_eq!(
            rounds, 1,
            "smallest-first ordering finds the minimum in one round"
        );
    }

    #[test]
    fn no_shrink_when_nothing_smaller_fails() {
        let toy = Toy {
            threshold: 10,
            twins_up_to: 0,
        };
        let (shrunk, rounds) = shrink_failure(&toy, &Depth(10), |p| toy.model_check(p, p).is_err());
        assert_eq!(shrunk, Depth(10));
        assert_eq!(rounds, 0);
    }

    #[test]
    fn candidates_are_transitively_closed_and_sorted() {
        let toy = Toy {
            threshold: 0,
            twins_up_to: 0,
        };
        let candidates = subterm_candidates(&toy, &Depth(5));
        let depths: Vec<usize> = candidates.into_iter().map(|d| d.0).collect();
        assert_eq!(depths, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn candidates_of_distinct_sizes_are_never_rendered() {
        let toy = Toy {
            threshold: 0,
            twins_up_to: 0,
        };
        take_rendered();
        let (shrunk, rounds) = shrink_failure(&toy, &Depth(10), |_| false);
        assert_eq!((shrunk, rounds), (Depth(10), 0));
        assert_eq!(take_rendered(), Vec::<usize>::new(), "ten sizes, no tie");
    }

    #[test]
    fn a_size_tie_renders_each_tied_candidate_once_and_keeps_the_first() {
        let toy = Toy {
            threshold: 0,
            twins_up_to: 2,
        };
        take_rendered();
        let candidates = subterm_candidates(&toy, &Depth(3));
        assert_eq!(candidates, vec![Depth(0), Depth(1), Depth(2)]);
        // Met breadth first: 2, then 1 and 1 (a duplicate, dropped
        // unexpanded), then 0 and 0 (a duplicate).  Each duplicate renders,
        // then the candidate it ties; 2 ties with nothing.
        assert_eq!(take_rendered(), vec![1, 1, 0, 0]);
    }

    #[test]
    fn the_cut_counts_distinct_candidates() {
        let toy = Toy {
            threshold: 0,
            twins_up_to: usize::MAX,
        };
        let candidates = subterm_candidates(&toy, &Depth(MAX_CANDIDATES + 100));
        let depths: Vec<usize> = candidates.into_iter().map(|d| d.0).collect();
        assert_eq!(depths, (100..MAX_CANDIDATES + 100).collect::<Vec<_>>());
    }
}
