//! The phantom-flag *augmented* semantics of §4.
//!
//! The paper enforces Affi's static affine arrows (`⊸•`) not with runtime
//! checks but with reasoning "that exists only in the model": an augmented
//! operational semantics carrying a set `Φ` of phantom flags.  Binding a
//! static affine variable mints a fresh flag and wraps the bound value in
//! `protect(v, f)`; forcing a protected value consumes the flag; forcing it
//! again finds no flag and the augmented machine is *stuck* (not a dynamic
//! error), which excludes the program from the logical relation by
//! construction.
//!
//! The machine implements this as an optional mode: a [`PhantomConfig`] lists
//! the target variables that came from static affine binders (the Affi
//! compiler reports them), and the machine tracks the flag set `Φ`.
//! Erasing `protect(·)` (see [`crate::syntax::Expr::erase_protect`]) recovers
//! a program of the standard semantics, and the two agree on every program
//! that does not get stuck — exactly the paper's erasure property.  Values
//! agree up to that erasure ([`crate::Value::agrees_erased`]).
//!
//! A flag is minted only where a protected binder is bound and consumed only
//! where a protected value or a `protect` node is forced.  With no protected
//! binder and no `protect` node the augmented machine is the standard
//! machine: it takes the same steps to the same halt.

use semint_core::Var;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A phantom flag `f` (only meaningful in the augmented semantics).
pub type FlagId = u64;

/// Configuration for the augmented (phantom-flag) semantics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhantomConfig {
    /// Target variables whose bindings are treated as static-affine binders
    /// (`a•` in the paper): binding them mints a phantom flag and wraps the
    /// value in `protect`.  Shared, so a configuration can hold the set a
    /// compiler reported without copying it.
    pub protected_binders: Arc<BTreeSet<Var>>,
}

impl PhantomConfig {
    /// A configuration protecting the given binders.
    pub fn protecting(binders: impl IntoIterator<Item = Var>) -> Self {
        PhantomConfig {
            protected_binders: Arc::new(binders.into_iter().collect()),
        }
    }

    /// True if `x` should be protected when bound.
    pub fn protects(&self, x: &Var) -> bool {
        self.protected_binders.contains(x)
    }
}

/// The mutable phantom-flag state `Φ` carried by an augmented machine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhantomState {
    flags: BTreeSet<FlagId>,
    next: FlagId,
    consumed: u64,
}

impl PhantomState {
    /// An empty flag store.
    pub fn new() -> Self {
        PhantomState::default()
    }

    /// Mints a fresh flag, adds it to `Φ`, and returns it.
    pub fn mint(&mut self) -> FlagId {
        let f = self.next;
        self.next += 1;
        self.flags.insert(f);
        f
    }

    /// Attempts to consume flag `f`. Returns `false` (leaving the store
    /// unchanged) if the flag is not present — the augmented machine is then
    /// stuck.
    pub fn consume(&mut self, f: FlagId) -> bool {
        let present = self.flags.remove(&f);
        if present {
            self.consumed += 1;
        }
        present
    }

    /// How many flags have been consumed so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }
}

impl fmt::Display for PhantomState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Φ = {{")?;
        for (i, fl) in self.flags.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fl}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_flags_are_distinct_and_live() {
        let mut st = PhantomState::new();
        let a = st.mint();
        let b = st.mint();
        assert_ne!(a, b);
        // Both are live: each can be consumed.
        assert!(st.consume(a));
        assert!(st.consume(b));
    }

    #[test]
    fn a_flag_can_be_consumed_exactly_once() {
        let mut st = PhantomState::new();
        let f = st.mint();
        assert!(st.consume(f));
        assert!(!st.consume(f), "second consumption is a stuck state");
        assert_eq!(st.consumed(), 1);
    }

    #[test]
    fn config_reports_protected_binders() {
        let cfg = PhantomConfig::protecting([Var::new("a"), Var::new("b")]);
        assert!(cfg.protects(&Var::new("a")));
        assert!(!cfg.protects(&Var::new("x")));
    }

    #[test]
    fn display_lists_live_flags() {
        let mut st = PhantomState::new();
        st.mint();
        st.mint();
        assert_eq!(st.to_string(), "Φ = {0, 1}");
    }
}
