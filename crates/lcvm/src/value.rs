//! LCVM runtime values and environments.
//!
//! The paper presents LCVM with substitution (`[x ↦ v]e`); the machine here
//! uses environments and closures instead, which is observationally
//! equivalent and lets the garbage collector enumerate its roots precisely
//! (every live value is either in the current environment, in a continuation
//! frame, or in the heap).

use crate::heap::Loc;
use crate::phantom::FlagId;
use crate::syntax::Expr;
use semint_core::Var;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// LCVM runtime values.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `()`.
    Unit,
    /// An integer (recall 0 encodes true).
    Int(i64),
    /// A heap location (GC'd or manual).
    Loc(Loc),
    /// A pair of values.
    Pair(Box<Value>, Box<Value>),
    /// A left injection.
    Inl(Box<Value>),
    /// A right injection.
    Inr(Box<Value>),
    /// A function closure.
    Closure {
        /// The parameter.
        param: Var,
        /// The body, shared so cloning closures is cheap.
        body: Arc<Expr>,
        /// The captured environment.
        env: Env,
    },
    /// A value protected by a phantom flag — **augmented semantics only**
    /// (§4). Forcing it (by looking up the variable it is bound to) consumes
    /// the flag; a second forcing makes the augmented machine stuck.
    Protected(Box<Value>, FlagId),
}

impl Value {
    /// The location carried by a `Loc`, if any.
    pub fn as_loc(&self) -> Option<Loc> {
        match self {
            Value::Loc(l) => Some(*l),
            _ => None,
        }
    }

    /// Collects every heap location reachable from this value (through pairs,
    /// sums, closures' environments and protected wrappers).
    pub fn collect_locs(&self, acc: &mut BTreeSet<Loc>) {
        match self {
            Value::Unit | Value::Int(_) => {}
            Value::Loc(l) => {
                acc.insert(*l);
            }
            Value::Pair(a, b) => {
                a.collect_locs(acc);
                b.collect_locs(acc);
            }
            Value::Inl(v) | Value::Inr(v) | Value::Protected(v, _) => v.collect_locs(acc),
            Value::Closure { env, .. } => env.collect_locs(acc),
        }
    }

    /// Pushes every heap location reachable from this value onto `acc`, with
    /// duplicates.  The allocation-free variant of [`Value::collect_locs`]
    /// used on GC hot paths (the collector's own mark stamps deduplicate).
    pub fn collect_locs_into(&self, acc: &mut Vec<Loc>) {
        match self {
            Value::Unit | Value::Int(_) => {}
            Value::Loc(l) => acc.push(*l),
            Value::Pair(a, b) => {
                a.collect_locs_into(acc);
                b.collect_locs_into(acc);
            }
            Value::Inl(v) | Value::Inr(v) | Value::Protected(v, _) => v.collect_locs_into(acc),
            Value::Closure { env, .. } => env.collect_locs_into(acc),
        }
    }

    /// True if the two values are equal once every `protect(·)` wrapper is
    /// erased from both, inside pairs, sums and closure environments too: the
    /// erasure of [`Expr::erase_protect`] on values.  A standard run and an
    /// augmented run of one program agree this way, while `==` tells a
    /// closure that captured a static binder from its protected twin.
    /// Closure bodies come from the program and are compared as written.
    pub fn agrees_erased(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Protected(a, _), b) | (b, Value::Protected(a, _)) => a.agrees_erased(b),
            (Value::Pair(a1, b1), Value::Pair(a2, b2)) => {
                a1.agrees_erased(a2) && b1.agrees_erased(b2)
            }
            (Value::Inl(a), Value::Inl(b)) | (Value::Inr(a), Value::Inr(b)) => a.agrees_erased(b),
            (
                Value::Closure { param, body, env },
                Value::Closure {
                    param: param2,
                    body: body2,
                    env: env2,
                },
            ) => param == param2 && body == body2 && env.agrees_erased(env2),
            (a, b) => a == b,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Loc(l) => write!(f, "{l}"),
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
            Value::Inl(v) => write!(f, "inl {v}"),
            Value::Inr(v) => write!(f, "inr {v}"),
            Value::Closure { param, .. } => write!(f, "λ{param}{{…}}"),
            Value::Protected(v, fl) => write!(f, "protect({v}, {fl})"),
        }
    }
}

/// A persistent environment mapping variables to values.
///
/// Extension is O(1) and shares the tail, which keeps closure capture cheap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Env(Option<Arc<EnvNode>>);

#[derive(Debug, PartialEq)]
struct EnvNode {
    var: Var,
    val: Value,
    parent: Env,
}

impl Env {
    /// The empty environment.
    pub fn empty() -> Env {
        Env(None)
    }

    /// Extends the environment with `var ↦ val` (shadowing any previous
    /// binding of `var`).
    pub fn extend(&self, var: Var, val: Value) -> Env {
        Env(Some(Arc::new(EnvNode {
            var,
            val,
            parent: self.clone(),
        })))
    }

    /// Looks a variable up.
    pub fn lookup(&self, var: &Var) -> Option<&Value> {
        let mut cur = self;
        while let Some(node) = &cur.0 {
            if &node.var == var {
                return Some(&node.val);
            }
            cur = &node.parent;
        }
        None
    }

    /// True if the environment has no bindings.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Number of (possibly shadowed) bindings.
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut cur = self;
        while let Some(node) = &cur.0 {
            n += 1;
            cur = &node.parent;
        }
        n
    }

    /// Collects every heap location reachable from the environment.
    pub fn collect_locs(&self, acc: &mut BTreeSet<Loc>) {
        let mut cur = self;
        while let Some(node) = &cur.0 {
            node.val.collect_locs(acc);
            cur = &node.parent;
        }
    }

    /// Pushes every heap location reachable from the environment onto `acc`,
    /// with duplicates (see [`Value::collect_locs_into`]).
    pub fn collect_locs_into(&self, acc: &mut Vec<Loc>) {
        let mut cur = self;
        while let Some(node) = &cur.0 {
            node.val.collect_locs_into(acc);
            cur = &node.parent;
        }
    }

    /// True if the two environments bind the same variables in the same
    /// order to values that agree up to erasure ([`Value::agrees_erased`]).
    pub fn agrees_erased(&self, other: &Env) -> bool {
        let (mut a, mut b) = (self, other);
        loop {
            match (&a.0, &b.0) {
                (None, None) => return true,
                (Some(x), Some(y)) if x.var == y.var && x.val.agrees_erased(&y.val) => {
                    (a, b) = (&x.parent, &y.parent);
                }
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_lookup_and_shadowing() {
        let env = Env::empty()
            .extend(Var::new("x"), Value::Int(1))
            .extend(Var::new("y"), Value::Int(2))
            .extend(Var::new("x"), Value::Int(3));
        assert_eq!(env.lookup(&Var::new("x")), Some(&Value::Int(3)));
        assert_eq!(env.lookup(&Var::new("y")), Some(&Value::Int(2)));
        assert_eq!(env.lookup(&Var::new("z")), None);
        assert_eq!(env.len(), 3);
        assert!(!env.is_empty());
        assert!(Env::empty().is_empty());
    }

    #[test]
    fn extension_does_not_mutate_the_original() {
        let base = Env::empty().extend(Var::new("x"), Value::Int(1));
        let _ext = base.extend(Var::new("x"), Value::Int(2));
        assert_eq!(base.lookup(&Var::new("x")), Some(&Value::Int(1)));
    }

    #[test]
    fn loc_collection_traverses_structure() {
        let v = Value::Pair(
            Box::new(Value::Loc(Loc(3))),
            Box::new(Value::Inl(Box::new(Value::Loc(Loc(5))))),
        );
        let mut locs = BTreeSet::new();
        v.collect_locs(&mut locs);
        assert_eq!(locs, BTreeSet::from([Loc(3), Loc(5)]));
        let mut none = BTreeSet::new();
        Value::Int(0).collect_locs(&mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn values_agree_up_to_erased_protection() {
        let closure = |x: Value| Value::Closure {
            param: Var::new("a"),
            body: Arc::new(Expr::var("a")),
            env: Env::empty().extend(Var::new("x"), x),
        };
        let protected = |v: Value, f| Value::Protected(Box::new(v), f);
        let plain = closure(Value::Int(20));
        let guarded = closure(protected(Value::Int(20), 0));
        assert_ne!(plain, guarded, "`==` looks inside the environment");
        assert!(plain.agrees_erased(&guarded) && guarded.agrees_erased(&plain));
        assert!(protected(protected(Value::Unit, 1), 2).agrees_erased(&Value::Unit));
        let pair = |a, b| Value::Pair(Box::new(a), Box::new(b));
        assert!(pair(protected(Value::Int(1), 3), Value::Unit)
            .agrees_erased(&pair(Value::Int(1), Value::Unit)));
        assert!(!plain.agrees_erased(&closure(protected(Value::Int(21), 0))));
        assert!(
            !Value::Inl(Box::new(Value::Unit)).agrees_erased(&Value::Inr(Box::new(Value::Unit)))
        );
        let longer = Value::Closure {
            param: Var::new("a"),
            body: Arc::new(Expr::var("a")),
            env: Env::empty()
                .extend(Var::new("y"), Value::Unit)
                .extend(Var::new("x"), Value::Int(20)),
        };
        assert!(
            !plain.agrees_erased(&longer),
            "environments agree binding by binding"
        );
    }

    #[test]
    fn closure_roots_include_captured_environment() {
        let env = Env::empty().extend(Var::new("r"), Value::Loc(Loc(9)));
        let clo = Value::Closure {
            param: Var::new("x"),
            body: Arc::new(Expr::unit()),
            env,
        };
        let mut locs = BTreeSet::new();
        clo.collect_locs(&mut locs);
        assert!(locs.contains(&Loc(9)));
    }
}
