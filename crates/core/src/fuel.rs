//! Step budgets ("fuel") for executable step-indexed reasoning.
//!
//! The paper's realizability models are *step-indexed*: the expression
//! relation `E⟦τ⟧` only constrains executions of length `j < W.k`.  To make
//! the models executable we run every interpreter with an explicit budget.
//! Running out of budget is *not* an error — it corresponds exactly to the
//! "runs longer than the step index accounts for" escape clause of the
//! expression relations (Fig. 5, Fig. 10, Fig. 14).
//!
//! Both target machines check for a terminal state before they spend a
//! step, and spend exactly one unit of fuel per step, so one run answers
//! for other budgets too ([`Fuel::rebudget`]): a run that halted after `s`
//! steps ends the same way under any budget of at least `s` steps and runs
//! out of fuel under any smaller one, and a run that ran out of fuel after
//! `F` steps runs out under every budget up to `F`.  That is what lets a
//! model check judge the sweep's own run instead of running the program
//! again under its step index.

/// A finite or infinite supply of evaluation steps.
///
/// ```
/// use semint_core::Fuel;
/// let mut fuel = Fuel::steps(2);
/// assert!(fuel.consume());
/// assert!(fuel.consume());
/// assert!(!fuel.consume());          // exhausted
/// assert!(Fuel::unlimited().consume());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fuel {
    /// A bounded budget of machine steps.
    Bounded {
        /// Steps remaining before the machine must stop.
        remaining: u64,
    },
    /// No bound; evaluation runs until it finishes or fails.
    Unlimited,
}

impl Fuel {
    /// A bounded budget of `n` steps.
    pub const fn steps(n: u64) -> Self {
        Fuel::Bounded { remaining: n }
    }

    /// An unbounded budget.
    pub fn unlimited() -> Self {
        Fuel::Unlimited
    }

    /// Consumes one step. Returns `false` if the budget was already exhausted
    /// (in which case nothing is consumed and the machine must stop).
    pub fn consume(&mut self) -> bool {
        match self {
            Fuel::Unlimited => true,
            Fuel::Bounded { remaining } => {
                if *remaining == 0 {
                    false
                } else {
                    *remaining -= 1;
                    true
                }
            }
        }
    }

    /// Steps remaining, if bounded.
    pub fn remaining(&self) -> Option<u64> {
        match self {
            Fuel::Bounded { remaining } => Some(*remaining),
            Fuel::Unlimited => None,
        }
    }

    /// True if no further step may be taken.
    pub fn is_exhausted(&self) -> bool {
        matches!(self, Fuel::Bounded { remaining: 0 })
    }

    /// True if a run under this fuel decides how the run ends under
    /// `budget` ([`Fuel::rebudget`] is never [`Rebudgeted::Unknown`] for
    /// it): this fuel is at least `budget`.
    pub fn covers(self, budget: Fuel) -> bool {
        match (self, budget) {
            (Fuel::Unlimited, _) => true,
            (Fuel::Bounded { .. }, Fuel::Unlimited) => false,
            (Fuel::Bounded { remaining: fuel }, Fuel::Bounded { remaining: budget }) => {
                fuel >= budget
            }
        }
    }

    /// The budget rule: how a run made under this fuel ends under
    /// `budget`.  `halted` says whether the run ended before its fuel ran
    /// out, and `steps` how many steps it took.
    ///
    /// ```
    /// use semint_core::fuel::{Fuel, Rebudgeted};
    /// let fuel = Fuel::steps(100);
    /// assert_eq!(fuel.rebudget(true, 40, Fuel::steps(40)), Rebudgeted::Same);
    /// assert_eq!(fuel.rebudget(true, 40, Fuel::steps(39)), Rebudgeted::OutOfFuel);
    /// assert_eq!(fuel.rebudget(false, 100, Fuel::steps(100)), Rebudgeted::OutOfFuel);
    /// assert_eq!(fuel.rebudget(false, 100, Fuel::steps(101)), Rebudgeted::Unknown);
    /// ```
    pub fn rebudget(self, halted: bool, steps: u64, budget: Fuel) -> Rebudgeted {
        match budget {
            Fuel::Unlimited if halted => Rebudgeted::Same,
            Fuel::Bounded { remaining } if halted => {
                if steps <= remaining {
                    Rebudgeted::Same
                } else {
                    Rebudgeted::OutOfFuel
                }
            }
            _ if self.covers(budget) => Rebudgeted::OutOfFuel,
            _ => Rebudgeted::Unknown,
        }
    }
}

/// How a finished run ends under another step budget ([`Fuel::rebudget`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rebudgeted {
    /// Exactly as it did: same outcome, same steps, same final state.
    Same,
    /// It runs out of fuel before it ends.
    OutOfFuel,
    /// The run ran out of fuel before the other budget would have, so only
    /// a run under that budget can tell how it ends.
    Unknown,
}

impl Rebudgeted {
    /// `Some(run)` when the run ends the same under the other budget,
    /// `None` when it runs out of fuel there.
    ///
    /// # Panics
    ///
    /// On [`Rebudgeted::Unknown`]: whoever re-budgets a run must hold one
    /// whose fuel [covers](Fuel::covers) the budget.
    pub fn decide<T>(self, run: T) -> Option<T> {
        match self {
            Rebudgeted::Same => Some(run),
            Rebudgeted::OutOfFuel => None,
            Rebudgeted::Unknown => {
                panic!("the run ran out of fuel before the budget did, so it cannot decide it")
            }
        }
    }
}

impl Default for Fuel {
    /// A generous default budget suitable for tests and examples.
    fn default() -> Self {
        Fuel::steps(1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_fuel_counts_down() {
        let mut f = Fuel::steps(3);
        assert_eq!(f.remaining(), Some(3));
        assert!(f.consume());
        assert!(f.consume());
        assert!(f.consume());
        assert!(f.is_exhausted());
        assert!(!f.consume());
        assert_eq!(f.remaining(), Some(0));
    }

    #[test]
    fn unlimited_never_exhausts() {
        let mut f = Fuel::unlimited();
        for _ in 0..10_000 {
            assert!(f.consume());
        }
        assert!(!f.is_exhausted());
        assert_eq!(f.remaining(), None);
    }

    #[test]
    fn a_halted_run_ends_the_same_within_its_steps_and_runs_out_below_them() {
        let fuel = Fuel::steps(1_000);
        for budget in [7, 8, 500, 1_000, 5_000] {
            assert_eq!(
                fuel.rebudget(true, 7, Fuel::steps(budget)),
                Rebudgeted::Same
            );
        }
        for budget in [0, 1, 6] {
            assert_eq!(
                fuel.rebudget(true, 7, Fuel::steps(budget)),
                Rebudgeted::OutOfFuel
            );
        }
        assert_eq!(fuel.rebudget(true, 7, Fuel::unlimited()), Rebudgeted::Same);
    }

    #[test]
    fn a_run_out_of_fuel_decides_only_budgets_up_to_its_fuel() {
        let fuel = Fuel::steps(300);
        for budget in [0, 1, 299, 300] {
            assert_eq!(
                fuel.rebudget(false, 300, Fuel::steps(budget)),
                Rebudgeted::OutOfFuel
            );
        }
        for budget in [301, 200_000] {
            assert_eq!(
                fuel.rebudget(false, 300, Fuel::steps(budget)),
                Rebudgeted::Unknown
            );
        }
        assert_eq!(
            fuel.rebudget(false, 300, Fuel::unlimited()),
            Rebudgeted::Unknown
        );
    }

    #[test]
    fn unlimited_fuel_covers_every_budget() {
        let fuel = Fuel::unlimited();
        assert!(fuel.covers(Fuel::unlimited()) && fuel.covers(Fuel::steps(u64::MAX)));
        assert_eq!(fuel.rebudget(true, 9, Fuel::steps(9)), Rebudgeted::Same);
        assert_eq!(
            fuel.rebudget(true, 9, Fuel::steps(8)),
            Rebudgeted::OutOfFuel
        );
        assert_eq!(fuel.rebudget(true, 9, Fuel::unlimited()), Rebudgeted::Same);
        assert!(!Fuel::steps(5).covers(Fuel::unlimited()));
        assert!(Fuel::steps(5).covers(Fuel::steps(5)) && !Fuel::steps(5).covers(Fuel::steps(6)));
    }

    #[test]
    fn decide_keeps_the_run_or_says_it_ran_out() {
        assert_eq!(Rebudgeted::Same.decide(3), Some(3));
        assert_eq!(Rebudgeted::OutOfFuel.decide(3), None);
        let unknown = std::panic::catch_unwind(|| Rebudgeted::Unknown.decide(3));
        assert!(unknown.is_err());
    }

    #[test]
    fn default_is_bounded_and_large() {
        assert!(Fuel::default().remaining().unwrap() >= 100_000);
    }
}
