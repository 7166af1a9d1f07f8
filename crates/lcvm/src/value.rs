//! LCVM runtime values and environments.
//!
//! The paper presents LCVM with substitution (`[x ↦ v]e`); the machine here
//! uses environments and closures instead, which is observationally
//! equivalent and lets the garbage collector enumerate its roots precisely
//! (every live value is either in the current environment, in a continuation
//! frame, or in the heap).  An environment is a [`Scope`] of values, the
//! persistent binding list the typecheckers' contexts use too.

use crate::heap::Loc;
use crate::phantom::FlagId;
use crate::syntax::Expr;
use semint_core::{Scope, Var};
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

    /// Pushes every heap location reachable from this value (through pairs,
    /// sums, closures' environments and protected wrappers) onto `acc`, with
    /// duplicates: the collector's mark stamps deduplicate.
    pub fn collect_locs_into(&self, acc: &mut Vec<Loc>) {
        match self {
            Value::Unit | Value::Int(_) => {}
            Value::Loc(l) => acc.push(*l),
            Value::Pair(a, b) => {
                a.collect_locs_into(acc);
                b.collect_locs_into(acc);
            }
            Value::Inl(v) | Value::Inr(v) | Value::Protected(v, _) => v.collect_locs_into(acc),
            Value::Closure { env, .. } => env.iter().for_each(|(_, v)| v.collect_locs_into(acc)),
        }
    }

    /// `Ok` if the two values are equal once every `protect(·)` wrapper is
    /// erased from both, inside pairs, sums and closure environments too: the
    /// erasure of [`Expr::erase_protect`] on values.  A standard run and an
    /// augmented run of one program agree this way, while `==` tells a
    /// closure that captured a static binder from its protected twin.
    /// Closure bodies are compared as written and environments binding by
    /// binding; the error names the first binding of the (outermost) closure
    /// environment at which the values differ, if they differ in one.
    pub fn agrees_erased<'a>(&'a self, other: &'a Value) -> Result<(), Option<&'a Var>> {
        match (self, other) {
            (Value::Protected(a, _), b) | (b, Value::Protected(a, _)) => a.agrees_erased(b),
            (Value::Pair(a1, b1), Value::Pair(a2, b2)) => {
                a1.agrees_erased(a2)?;
                b1.agrees_erased(b2)
            }
            (Value::Inl(a), Value::Inl(b)) | (Value::Inr(a), Value::Inr(b)) => a.agrees_erased(b),
            (
                Value::Closure { param, body, env },
                Value::Closure {
                    param: param2,
                    body: body2,
                    env: env2,
                },
            ) if param == param2 && body == body2 => {
                let (mut left, mut right) = (env.iter(), env2.iter());
                loop {
                    match (left.next(), right.next()) {
                        (None, None) => return Ok(()),
                        (Some((x, v)), Some((y, w))) if x == y && v.agrees_erased(w).is_ok() => {}
                        (Some((x, _)), _) | (None, Some((x, _))) => return Err(Some(x)),
                    }
                }
            }
            (a, b) if a == b => Ok(()),
            _ => Err(None),
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

/// An environment: the values of the enclosing binders, innermost first.
///
/// A [`Scope`], so extension is O(1) and shares the tail, which keeps
/// closure capture cheap.
pub type Env = Scope<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_collection_traverses_structure() {
        let v = Value::Pair(
            Box::new(Value::Loc(Loc(3))),
            Box::new(Value::Inl(Box::new(Value::Loc(Loc(5))))),
        );
        let mut locs = Vec::new();
        v.collect_locs_into(&mut locs);
        assert_eq!(locs, [Loc(3), Loc(5)]);
        let mut none = Vec::new();
        Value::Int(0).collect_locs_into(&mut none);
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
        assert!(plain.agrees_erased(&guarded).is_ok() && guarded.agrees_erased(&plain).is_ok());
        assert!(protected(protected(Value::Unit, 1), 2)
            .agrees_erased(&Value::Unit)
            .is_ok());
        let pair = |a, b| Value::Pair(Box::new(a), Box::new(b));
        assert!(pair(protected(Value::Int(1), 3), Value::Unit)
            .agrees_erased(&pair(Value::Int(1), Value::Unit))
            .is_ok());
        assert!(plain
            .agrees_erased(&closure(protected(Value::Int(21), 0)))
            .is_err());
        assert_eq!(
            Value::Inl(Box::new(Value::Unit)).agrees_erased(&Value::Inr(Box::new(Value::Unit))),
            Err(None)
        );
        let longer = Value::Closure {
            param: Var::new("a"),
            body: Arc::new(Expr::var("a")),
            env: Env::empty()
                .extend(Var::new("y"), Value::Unit)
                .extend(Var::new("x"), Value::Int(20)),
        };
        assert!(
            plain.agrees_erased(&longer).is_err(),
            "environments agree binding by binding"
        );
    }

    #[test]
    fn a_disagreement_names_the_first_differing_binding() {
        let closure = |y: i64| Value::Closure {
            param: Var::new("a"),
            body: Arc::new(Expr::var("a")),
            env: Env::empty()
                .extend(Var::new("y"), Value::Int(y))
                .extend(Var::new("x"), Value::Protected(Box::new(Value::Int(20)), 0)),
        };
        assert_eq!(closure(22).agrees_erased(&closure(22)), Ok(()));
        assert_eq!(
            closure(22).agrees_erased(&closure(23)),
            Err(Some(&Var::new("y")))
        );
        let capturing = |inner: Value| Value::Closure {
            param: Var::new("b"),
            body: Arc::new(Expr::var("b")),
            env: Env::empty().extend(Var::new("f"), inner),
        };
        assert_eq!(
            capturing(closure(22)).agrees_erased(&capturing(closure(23))),
            Err(Some(&Var::new("f"))),
            "nested closures report the outermost binding"
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
        let mut locs = Vec::new();
        clo.collect_locs_into(&mut locs);
        assert!(locs.contains(&Loc(9)));
    }
}
