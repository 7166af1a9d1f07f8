//! Variables and symbols shared by every language in the workspace.
//!
//! All five source languages and both target languages use the same notion of
//! variable: an interned, human-readable name.  Keeping a single type here
//! means compilers can pass source variable names straight through to the
//! target (as the paper's compilers do, e.g. Fig. 3 and Fig. 8) without any
//! conversion layer.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A variable name.
///
/// `Var` is a thin wrapper over an [`Arc<str>`] so that cloning during
/// substitution-heavy interpretation is cheap and the type stays `Send + Sync`.
///
/// ```
/// use semint_core::Var;
/// let x = Var::new("x");
/// assert_eq!(x.as_str(), "x");
/// assert_eq!(x, Var::from("x"));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(Arc<str>);

impl Var {
    /// Creates a variable with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Var(Arc::from(name.as_ref()))
    }

    /// The variable's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The length of the variable's rendering in characters, not bytes
    /// (`ζ` counts one): what every syntax tree's `rendered_chars` walk adds
    /// for a name.
    pub fn rendered_chars(&self) -> usize {
        self.0.chars().count()
    }
}

/// The length of an integer literal's rendering in characters: its decimal
/// digits, plus one for the sign of a negative number (`i64::MIN` included).
///
/// ```
/// assert_eq!(semint_core::int_chars(-120), 4);
/// assert_eq!(semint_core::int_chars(i64::MIN), i64::MIN.to_string().len());
/// ```
pub fn int_chars(n: i64) -> usize {
    let digits = n
        .unsigned_abs()
        .checked_ilog10()
        .map_or(1, |log| log as usize + 1);
    digits + usize::from(n < 0)
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var({})", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

impl From<String> for Var {
    fn from(s: String) -> Self {
        Var::new(s)
    }
}

impl Borrow<str> for Var {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Var {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_is_by_name() {
        assert_eq!(Var::new("x"), Var::new("x"));
        assert_ne!(Var::new("x"), Var::new("y"));
    }

    #[test]
    fn display_is_bare_name() {
        assert_eq!(Var::new("foo").to_string(), "foo");
    }

    #[test]
    fn rendered_lengths_count_characters() {
        assert_eq!(Var::new("ζ").rendered_chars(), 1);
        assert_eq!(Var::new("x12").rendered_chars(), 3);
        for n in [0, 7, 9, 10, 99, 100, -1, -9, -10, -120, i64::MAX, i64::MIN] {
            assert_eq!(int_chars(n), n.to_string().chars().count(), "{n}");
        }
    }

    #[test]
    fn usable_as_hash_set_element_and_str_borrow() {
        let mut set = HashSet::new();
        set.insert(Var::new("a"));
        assert!(set.contains("a"));
        assert!(!set.contains("b"));
    }

    #[test]
    fn send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Var>();
    }
}
