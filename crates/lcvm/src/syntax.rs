//! LCVM expressions (Fig. 6, plus the Fig. 12 memory-management forms).
//!
//! The only additions relative to the paper's grammar are primitive
//! arithmetic/comparison operators ([`PrimOp`]) — the paper's MiniML has
//! integers and its examples use `x + 1`, so its (elided) full target must
//! have them too — and `seq`, which is sugar for `let _ = e1 in e2` used
//! heavily by the compilers.

use semint_core::{ErrorCode, Var};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Primitive binary operators over integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// `0` (true) if the left operand is strictly less than the right, else `1`.
    Less,
    /// `0` (true) if the operands are equal integers, else `1`.
    Eq,
}

impl fmt::Display for PrimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PrimOp::Add => "+",
            PrimOp::Sub => "-",
            PrimOp::Mul => "*",
            PrimOp::Less => "<",
            PrimOp::Eq => "==",
        };
        write!(f, "{s}")
    }
}

/// LCVM expressions.
///
/// Note on booleans: following the paper's compilers (Fig. 8), **0 is true**
/// and any non-zero integer is false; `if e {e1} {e2}` takes the first branch
/// when `e` evaluates to `0`.
///
/// Subexpressions are [`Arc`]-shared, so cloning an expression — which the
/// machine does once per β-reduction when it enters a closure body — is a
/// reference-count bump, not a deep copy.  Expressions are immutable after
/// construction, so the sharing is unobservable.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `()`.
    Unit,
    /// An integer literal `n`.
    Int(i64),
    /// A heap location literal `ℓ` (only appears at runtime / in tests).
    Loc(crate::heap::Loc),
    /// A variable `x`.
    Var(Var),
    /// A pair `(e1, e2)`.
    Pair(Arc<Expr>, Arc<Expr>),
    /// `fst e`.
    Fst(Arc<Expr>),
    /// `snd e`.
    Snd(Arc<Expr>),
    /// `inl e`.
    Inl(Arc<Expr>),
    /// `inr e`.
    Inr(Arc<Expr>),
    /// `if e { e1 } { e2 }` — first branch when `e` is `0`.
    If(Arc<Expr>, Arc<Expr>, Arc<Expr>),
    /// `match e x { e1 } y { e2 }` — case analysis on `inl`/`inr`.
    Match(Arc<Expr>, Var, Arc<Expr>, Var, Arc<Expr>),
    /// `let x = e1 in e2`.
    Let(Var, Arc<Expr>, Arc<Expr>),
    /// `λx { e }`.
    Lam(Var, Arc<Expr>),
    /// Application `e1 e2`.
    App(Arc<Expr>, Arc<Expr>),
    /// `ref e`: allocate a garbage-collected cell.
    Ref(Arc<Expr>),
    /// `!e`: dereference.
    Deref(Arc<Expr>),
    /// `e1 := e2`: assignment; evaluates to `()`.
    Assign(Arc<Expr>, Arc<Expr>),
    /// `fail c`: abort with a dynamic error.
    Fail(ErrorCode),
    /// Primitive operator application `e1 ⊕ e2`.
    Prim(PrimOp, Arc<Expr>, Arc<Expr>),
    /// `alloc e`: allocate a manually-managed cell (Fig. 12).
    Alloc(Arc<Expr>),
    /// `free e`: deallocate a manually-managed cell (Fig. 12).
    Free(Arc<Expr>),
    /// `gcmov e`: hand a manually-managed cell to the garbage collector,
    /// keeping its identity (Fig. 12).
    Gcmov(Arc<Expr>),
    /// `callgc`: explicitly invoke the garbage collector (Fig. 12).
    Callgc,
    /// `protect(e, f)` — **augmented semantics only** (§4): evaluating this
    /// consumes phantom flag `f`; it never appears in compiled code and its
    /// erasure is `e`.
    Protect(Arc<Expr>, crate::phantom::FlagId),
}

impl Expr {
    /// A variable expression.
    pub fn var(x: impl Into<Var>) -> Expr {
        Expr::Var(x.into())
    }

    /// An integer literal.
    pub fn int(n: i64) -> Expr {
        Expr::Int(n)
    }

    /// The unit literal.
    pub fn unit() -> Expr {
        Expr::Unit
    }

    /// `λx { body }`.
    pub fn lam(x: impl Into<Var>, body: Expr) -> Expr {
        Expr::Lam(x.into(), Arc::new(body))
    }

    /// `e1 e2`.
    pub fn app(f: Expr, a: Expr) -> Expr {
        Expr::App(Arc::new(f), Arc::new(a))
    }

    /// `let x = bound in body`.
    pub fn let_(x: impl Into<Var>, bound: Expr, body: Expr) -> Expr {
        Expr::Let(x.into(), Arc::new(bound), Arc::new(body))
    }

    /// `let _ = e1 in e2` (sequencing).
    pub fn seq(e1: Expr, e2: Expr) -> Expr {
        Expr::let_("_", e1, e2)
    }

    /// `(e1, e2)`.
    pub fn pair(e1: Expr, e2: Expr) -> Expr {
        Expr::Pair(Arc::new(e1), Arc::new(e2))
    }

    /// `fst e`.
    pub fn fst(e: Expr) -> Expr {
        Expr::Fst(Arc::new(e))
    }

    /// `snd e`.
    pub fn snd(e: Expr) -> Expr {
        Expr::Snd(Arc::new(e))
    }

    /// `inl e`.
    pub fn inl(e: Expr) -> Expr {
        Expr::Inl(Arc::new(e))
    }

    /// `inr e`.
    pub fn inr(e: Expr) -> Expr {
        Expr::Inr(Arc::new(e))
    }

    /// `if cond { then } { els }` (0 is true).
    pub fn if_(cond: Expr, then: Expr, els: Expr) -> Expr {
        Expr::If(Arc::new(cond), Arc::new(then), Arc::new(els))
    }

    /// `match e x { left } y { right }`.
    pub fn match_(e: Expr, x: impl Into<Var>, left: Expr, y: impl Into<Var>, right: Expr) -> Expr {
        Expr::Match(
            Arc::new(e),
            x.into(),
            Arc::new(left),
            y.into(),
            Arc::new(right),
        )
    }

    /// `ref e`.
    pub fn ref_(e: Expr) -> Expr {
        Expr::Ref(Arc::new(e))
    }

    /// `!e`.
    pub fn deref(e: Expr) -> Expr {
        Expr::Deref(Arc::new(e))
    }

    /// `e1 := e2`.
    pub fn assign(e1: Expr, e2: Expr) -> Expr {
        Expr::Assign(Arc::new(e1), Arc::new(e2))
    }

    /// `e1 + e2`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(e1: Expr, e2: Expr) -> Expr {
        Expr::Prim(PrimOp::Add, Arc::new(e1), Arc::new(e2))
    }

    /// `e1 - e2`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(e1: Expr, e2: Expr) -> Expr {
        Expr::Prim(PrimOp::Sub, Arc::new(e1), Arc::new(e2))
    }

    /// `e1 * e2`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(e1: Expr, e2: Expr) -> Expr {
        Expr::Prim(PrimOp::Mul, Arc::new(e1), Arc::new(e2))
    }

    /// `e1 < e2` (0 when true).
    pub fn less(e1: Expr, e2: Expr) -> Expr {
        Expr::Prim(PrimOp::Less, Arc::new(e1), Arc::new(e2))
    }

    /// `e1 == e2` (0 when true).
    pub fn eq(e1: Expr, e2: Expr) -> Expr {
        Expr::Prim(PrimOp::Eq, Arc::new(e1), Arc::new(e2))
    }

    /// `alloc e`.
    pub fn alloc(e: Expr) -> Expr {
        Expr::Alloc(Arc::new(e))
    }

    /// `free e`.
    pub fn free(e: Expr) -> Expr {
        Expr::Free(Arc::new(e))
    }

    /// `gcmov e`.
    pub fn gcmov(e: Expr) -> Expr {
        Expr::Gcmov(Arc::new(e))
    }

    /// The compiled representation of a source boolean: 0 for true, 1 for
    /// false (Fig. 8).
    pub fn bool_lit(b: bool) -> Expr {
        Expr::Int(if b { 0 } else { 1 })
    }

    /// The free variables of the expression.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut acc = BTreeSet::new();
        let mut bound = Vec::new();
        free_vars(self, &mut bound, &mut acc);
        acc
    }

    /// True if the expression has no free variables.
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// Erases the augmented-semantics `protect(·)` wrappers (the paper's
    /// erasure from the phantom semantics back to the standard one).
    pub fn erase_protect(&self) -> Expr {
        self.map_subexprs(&|e| match e {
            Expr::Protect(inner, _) => inner.erase_protect(),
            other => other.clone(),
        })
    }

    /// Structure-preserving map over immediate subexpressions, applying `f`
    /// at every node bottom-up.
    fn map_subexprs(&self, f: &impl Fn(&Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::Unit
            | Expr::Int(_)
            | Expr::Loc(_)
            | Expr::Var(_)
            | Expr::Fail(_)
            | Expr::Callgc => self.clone(),
            Expr::Pair(a, b) => {
                Expr::Pair(Arc::new(a.map_subexprs(f)), Arc::new(b.map_subexprs(f)))
            }
            Expr::Fst(a) => Expr::Fst(Arc::new(a.map_subexprs(f))),
            Expr::Snd(a) => Expr::Snd(Arc::new(a.map_subexprs(f))),
            Expr::Inl(a) => Expr::Inl(Arc::new(a.map_subexprs(f))),
            Expr::Inr(a) => Expr::Inr(Arc::new(a.map_subexprs(f))),
            Expr::If(c, t, e) => Expr::If(
                Arc::new(c.map_subexprs(f)),
                Arc::new(t.map_subexprs(f)),
                Arc::new(e.map_subexprs(f)),
            ),
            Expr::Match(s, x, l, y, r) => Expr::Match(
                Arc::new(s.map_subexprs(f)),
                x.clone(),
                Arc::new(l.map_subexprs(f)),
                y.clone(),
                Arc::new(r.map_subexprs(f)),
            ),
            Expr::Let(x, a, b) => Expr::Let(
                x.clone(),
                Arc::new(a.map_subexprs(f)),
                Arc::new(b.map_subexprs(f)),
            ),
            Expr::Lam(x, b) => Expr::Lam(x.clone(), Arc::new(b.map_subexprs(f))),
            Expr::App(a, b) => Expr::App(Arc::new(a.map_subexprs(f)), Arc::new(b.map_subexprs(f))),
            Expr::Ref(a) => Expr::Ref(Arc::new(a.map_subexprs(f))),
            Expr::Deref(a) => Expr::Deref(Arc::new(a.map_subexprs(f))),
            Expr::Assign(a, b) => {
                Expr::Assign(Arc::new(a.map_subexprs(f)), Arc::new(b.map_subexprs(f)))
            }
            Expr::Prim(op, a, b) => Expr::Prim(
                *op,
                Arc::new(a.map_subexprs(f)),
                Arc::new(b.map_subexprs(f)),
            ),
            Expr::Alloc(a) => Expr::Alloc(Arc::new(a.map_subexprs(f))),
            Expr::Free(a) => Expr::Free(Arc::new(a.map_subexprs(f))),
            Expr::Gcmov(a) => Expr::Gcmov(Arc::new(a.map_subexprs(f))),
            Expr::Protect(a, fl) => Expr::Protect(Arc::new(a.map_subexprs(f)), *fl),
        };
        f(&rebuilt)
    }
}

fn free_vars(e: &Expr, bound: &mut Vec<Var>, acc: &mut BTreeSet<Var>) {
    match e {
        Expr::Var(x) => {
            if !bound.contains(x) {
                acc.insert(x.clone());
            }
        }
        Expr::Unit | Expr::Int(_) | Expr::Loc(_) | Expr::Fail(_) | Expr::Callgc => {}
        Expr::Pair(a, b) | Expr::App(a, b) | Expr::Assign(a, b) | Expr::Prim(_, a, b) => {
            free_vars(a, bound, acc);
            free_vars(b, bound, acc);
        }
        Expr::Fst(a)
        | Expr::Snd(a)
        | Expr::Inl(a)
        | Expr::Inr(a)
        | Expr::Ref(a)
        | Expr::Deref(a)
        | Expr::Alloc(a)
        | Expr::Free(a)
        | Expr::Gcmov(a)
        | Expr::Protect(a, _) => free_vars(a, bound, acc),
        Expr::If(c, t, e2) => {
            free_vars(c, bound, acc);
            free_vars(t, bound, acc);
            free_vars(e2, bound, acc);
        }
        Expr::Match(s, x, l, y, r) => {
            free_vars(s, bound, acc);
            bound.push(x.clone());
            free_vars(l, bound, acc);
            bound.pop();
            bound.push(y.clone());
            free_vars(r, bound, acc);
            bound.pop();
        }
        Expr::Let(x, a, b) => {
            free_vars(a, bound, acc);
            bound.push(x.clone());
            free_vars(b, bound, acc);
            bound.pop();
        }
        Expr::Lam(x, b) => {
            bound.push(x.clone());
            free_vars(b, bound, acc);
            bound.pop();
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Unit => write!(f, "()"),
            Expr::Int(n) => write!(f, "{n}"),
            Expr::Loc(l) => write!(f, "{l}"),
            Expr::Var(x) => write!(f, "{x}"),
            Expr::Pair(a, b) => write!(f, "({a}, {b})"),
            Expr::Fst(a) => write!(f, "fst {a}"),
            Expr::Snd(a) => write!(f, "snd {a}"),
            Expr::Inl(a) => write!(f, "inl {a}"),
            Expr::Inr(a) => write!(f, "inr {a}"),
            Expr::If(c, t, e) => write!(f, "if {c} {{{t}}} {{{e}}}"),
            Expr::Match(s, x, l, y, r) => write!(f, "match {s} {x}{{{l}}} {y}{{{r}}}"),
            Expr::Let(x, a, b) => write!(f, "let {x} = {a} in {b}"),
            Expr::Lam(x, b) => write!(f, "λ{x}{{{b}}}"),
            Expr::App(a, b) => write!(f, "({a}) ({b})"),
            Expr::Ref(a) => write!(f, "ref {a}"),
            Expr::Deref(a) => write!(f, "!{a}"),
            Expr::Assign(a, b) => write!(f, "{a} := {b}"),
            Expr::Fail(c) => write!(f, "fail {c}"),
            Expr::Prim(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::Alloc(a) => write!(f, "alloc {a}"),
            Expr::Free(a) => write!(f, "free {a}"),
            Expr::Gcmov(a) => write!(f, "gcmov {a}"),
            Expr::Callgc => write!(f, "callgc"),
            Expr::Protect(a, fl) => write!(f, "protect({a}, {fl})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_vars_respect_binders() {
        let e = Expr::lam("x", Expr::add(Expr::var("x"), Expr::var("y")));
        let fv = e.free_vars();
        assert!(fv.contains(&Var::new("y")));
        assert!(!fv.contains(&Var::new("x")));
        assert!(!e.is_closed());
        assert!(Expr::lam("x", Expr::var("x")).is_closed());
    }

    #[test]
    fn match_binders_scope_only_their_branch() {
        let e = Expr::match_(
            Expr::inl(Expr::int(1)),
            "a",
            Expr::var("a"),
            "b",
            Expr::var("a"),
        );
        // The second branch's `a` is free: only `b` is bound there.
        assert!(e.free_vars().contains(&Var::new("a")));
    }

    #[test]
    fn erase_protect_removes_wrappers_recursively() {
        let inner = Expr::add(Expr::int(1), Expr::int(2));
        let e = Expr::Protect(
            Arc::new(Expr::pair(
                Expr::Protect(Arc::new(inner.clone()), 7),
                Expr::unit(),
            )),
            3,
        );
        assert_eq!(e.erase_protect(), Expr::pair(inner, Expr::unit()));
    }

    #[test]
    fn bool_literal_encoding_follows_fig8() {
        assert_eq!(Expr::bool_lit(true), Expr::Int(0));
        assert_eq!(Expr::bool_lit(false), Expr::Int(1));
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::let_("x", Expr::int(1), Expr::add(Expr::var("x"), Expr::int(2)));
        assert_eq!(e.to_string(), "let x = 1 in (x + 2)");
    }
}
