//! Scopes: every context that grows one binder at a time, the typing
//! contexts of `Δ; Γ; Γ̄; Ω ⊢ e : τ` and the machines' environments alike.

use crate::Var;
use std::fmt;
use std::sync::Arc;

/// A persistent map from variables to `V`, innermost binding first.
///
/// [`Scope::extend`] allocates one node, shadows any outer binding of the
/// same variable and shares the rest, so cloning copies a pointer: a closure
/// captures its environment, and a typing rule passes its context on, for
/// free.  Equality is structural (the same bindings in the same order).
///
/// ```
/// use semint_core::{Scope, Var};
/// let (x, y) = (Var::new("x"), Var::new("y"));
/// let outer = Scope::empty().extend(x.clone(), 1).extend(y.clone(), 2);
/// let inner = outer.extend(x.clone(), 3);
/// assert_eq!(inner.lookup(&x), Some(&3));
/// assert_eq!(outer.lookup(&x), Some(&1), "extending leaves the original as it was");
/// let names: Vec<&str> = inner.iter().map(|(v, _)| v.as_str()).collect();
/// assert_eq!(names, ["x", "y", "x"]);
/// assert!(inner.lookup(&Var::new("z")).is_none());
/// ```
#[derive(PartialEq, Eq)]
pub struct Scope<V>(Option<Arc<Node<V>>>);

#[derive(PartialEq, Eq)]
struct Node<V> {
    var: Var,
    val: V,
    next: Scope<V>,
}

impl<V> Scope<V> {
    /// The scope that binds nothing.
    pub const fn empty() -> Scope<V> {
        Scope(None)
    }

    /// True if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// `self` extended with `var ↦ val`, shadowing any outer `var`.
    pub fn extend(&self, var: Var, val: V) -> Scope<V> {
        Scope(Some(Arc::new(Node {
            var,
            val,
            next: self.clone(),
        })))
    }

    /// The value of the innermost binding of `var`.
    pub fn lookup(&self, var: &Var) -> Option<&V> {
        let mut cur = self;
        while let Some(node) = &cur.0 {
            if node.var == *var {
                return Some(&node.val);
            }
            cur = &node.next;
        }
        None
    }

    /// The bindings, innermost first, shadowed ones included.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &V)> {
        std::iter::successors(self.0.as_deref(), |node| node.next.0.as_deref())
            .map(|node| (&node.var, &node.val))
    }
}

impl<V> Clone for Scope<V> {
    fn clone(&self) -> Scope<V> {
        Scope(self.0.clone())
    }
}

impl<V> Default for Scope<V> {
    fn default() -> Scope<V> {
        Scope::empty()
    }
}

impl<V: fmt::Debug> fmt::Debug for Scope<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(name: &str) -> Var {
        Var::new(name)
    }

    #[test]
    fn the_innermost_binding_shadows() {
        let scope = Scope::empty()
            .extend(var("x"), 1)
            .extend(var("y"), 2)
            .extend(var("x"), 3);
        assert_eq!(scope.lookup(&var("x")), Some(&3));
        assert_eq!(scope.lookup(&var("y")), Some(&2));
        assert_eq!(scope.lookup(&var("z")), None);
        assert!(!scope.is_empty());
        assert!(Scope::<i64>::empty().is_empty());
        assert!(Scope::<()>::default().is_empty());
    }

    #[test]
    fn extending_leaves_the_original_unchanged() {
        let base = Scope::empty().extend(var("x"), 1);
        let extended = base.extend(var("x"), 2).extend(var("y"), 3);
        assert_eq!(base.lookup(&var("x")), Some(&1));
        assert_eq!(base.lookup(&var("y")), None);
        assert_eq!(base.iter().count(), 1);
        assert_eq!(extended.lookup(&var("x")), Some(&2));
    }

    #[test]
    fn iteration_is_innermost_first() {
        let scope = Scope::empty()
            .extend(var("a"), 'a')
            .extend(var("b"), 'b')
            .extend(var("a"), 'c');
        let bindings: Vec<(&str, char)> = scope.iter().map(|(x, v)| (x.as_str(), *v)).collect();
        assert_eq!(bindings, [("a", 'c'), ("b", 'b'), ("a", 'a')]);
        assert_eq!(
            format!("{scope:?}"),
            "[(Var(a), 'c'), (Var(b), 'b'), (Var(a), 'a')]"
        );
    }

    #[test]
    fn equality_is_structural() {
        let one = Scope::empty().extend(var("x"), 1).extend(var("y"), 2);
        let built_apart = Scope::empty().extend(var("x"), 1).extend(var("y"), 2);
        assert_eq!(one, built_apart, "separate nodes, same bindings");
        assert_eq!(one.clone(), one);
        let reordered = Scope::empty().extend(var("y"), 2).extend(var("x"), 1);
        assert_ne!(one, reordered, "order is part of a scope");
        assert_ne!(one, one.extend(var("x"), 1), "so are shadowed bindings");
        assert_ne!(one, Scope::empty().extend(var("x"), 1).extend(var("y"), 3));
        assert_eq!(Scope::<i64>::empty(), Scope::default());
    }
}
