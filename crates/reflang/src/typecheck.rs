//! Static semantics of RefHL and RefLL, including the boundary typing rules.
//!
//! The typing rules are entirely standard except for boundaries (paper §3):
//!
//! ```text
//! Γ; Γ̄ ⊢ ē : 𝜏     τ ∼ 𝜏                Γ; Γ̄ ⊢ e : τ     τ ∼ 𝜏
//! ───────────────────────               ───────────────────────
//! Γ; Γ̄ ⊢ ⦇ē⦈τ : τ                        Γ; Γ̄ ⊢ ⦇e⦈𝜏 : 𝜏
//! ```
//!
//! Because open terms may cross boundaries, a single [`TypeCtx`] carries both
//! languages' environments (`Γ` for RefHL, `Γ̄` for RefLL).  The convertibility
//! judgment `τ ∼ 𝜏` is supplied by a [`ConvertOracle`] — the §3 case-study
//! crate registers the paper's rules (Fig. 4); tests can plug in anything.

use crate::syntax::{HlExpr, HlType, LlExpr, LlType};
use semint_core::Var;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The convertibility judgment `τ ∼ 𝜏` as seen by the type checkers.
pub trait ConvertOracle {
    /// Is RefHL type `hl` interconvertible with RefLL type `ll`?
    fn convertible(&self, hl: &HlType, ll: &LlType) -> bool;
}

/// An oracle that rejects every conversion — programs without boundaries
/// type-check against it.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenyAllConversions;

impl ConvertOracle for DenyAllConversions {
    fn convertible(&self, _hl: &HlType, _ll: &LlType) -> bool {
        false
    }
}

impl<F> ConvertOracle for F
where
    F: Fn(&HlType, &LlType) -> bool,
{
    fn convertible(&self, hl: &HlType, ll: &LlType) -> bool {
        self(hl, ll)
    }
}

/// Typing context carrying both languages' environments (`Γ; Γ̄`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeCtx {
    hl: HashMap<Var, HlType>,
    ll: HashMap<Var, LlType>,
}

impl TypeCtx {
    /// The empty context.
    pub fn empty() -> TypeCtx {
        TypeCtx::default()
    }

    /// Extends the RefHL environment.
    pub fn with_hl(&self, x: Var, ty: HlType) -> TypeCtx {
        let mut ctx = self.clone();
        ctx.hl.insert(x, ty);
        ctx
    }

    /// Extends the RefLL environment.
    pub fn with_ll(&self, x: Var, ty: LlType) -> TypeCtx {
        let mut ctx = self.clone();
        ctx.ll.insert(x, ty);
        ctx
    }

    /// Looks up a RefHL variable.
    pub fn hl(&self, x: &Var) -> Option<&HlType> {
        self.hl.get(x)
    }

    /// Looks up a RefLL variable.
    pub fn ll(&self, x: &Var) -> Option<&LlType> {
        self.ll.get(x)
    }
}

/// Type errors raised by either checker.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeError {
    /// A variable was not in scope.
    UnboundVariable(Var),
    /// Two types that had to match did not.
    Mismatch {
        /// What the context required.
        expected: String,
        /// What the expression actually had.
        found: String,
        /// Where (a short description of the construct).
        context: &'static str,
    },
    /// A boundary was used at a type pair with no convertibility rule.
    NotConvertible {
        /// The RefHL side.
        hl: HlType,
        /// The RefLL side.
        ll: LlType,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnboundVariable(x) => write!(f, "unbound variable {x}"),
            TypeError::Mismatch {
                expected,
                found,
                context,
            } => {
                write!(
                    f,
                    "type mismatch in {context}: expected {expected}, found {found}"
                )
            }
            TypeError::NotConvertible { hl, ll } => {
                write!(f, "no convertibility rule {hl} ∼ {ll}")
            }
        }
    }
}

impl std::error::Error for TypeError {}

fn mismatch(
    expected: impl fmt::Display,
    found: impl fmt::Display,
    context: &'static str,
) -> TypeError {
    TypeError::Mismatch {
        expected: expected.to_string(),
        found: found.to_string(),
        context,
    }
}

/// Checks a RefHL expression, returning its type.
pub fn check_hl(
    ctx: &TypeCtx,
    e: &HlExpr,
    oracle: &dyn ConvertOracle,
) -> Result<HlType, TypeError> {
    match e {
        HlExpr::Unit => Ok(HlType::Unit),
        HlExpr::Bool(_) => Ok(HlType::Bool),
        HlExpr::Var(x) => ctx
            .hl(x)
            .cloned()
            .ok_or_else(|| TypeError::UnboundVariable(x.clone())),
        HlExpr::Inl(e1, ty) => match ty {
            HlType::Sum(l, _) => {
                let t = check_hl(ctx, e1, oracle)?;
                if &t == l.as_ref() {
                    Ok(ty.clone())
                } else {
                    Err(mismatch(l, t, "inl"))
                }
            }
            other => Err(mismatch("a sum type", other, "inl annotation")),
        },
        HlExpr::Inr(e1, ty) => match ty {
            HlType::Sum(_, r) => {
                let t = check_hl(ctx, e1, oracle)?;
                if &t == r.as_ref() {
                    Ok(ty.clone())
                } else {
                    Err(mismatch(r, t, "inr"))
                }
            }
            other => Err(mismatch("a sum type", other, "inr annotation")),
        },
        HlExpr::Pair(a, b) => {
            let ta = check_hl(ctx, a, oracle)?;
            let tb = check_hl(ctx, b, oracle)?;
            Ok(HlType::prod(ta, tb))
        }
        HlExpr::Fst(e1) => match check_hl(ctx, e1, oracle)? {
            HlType::Prod(a, _) => Ok(Arc::unwrap_or_clone(a)),
            other => Err(mismatch("a product type", other, "fst")),
        },
        HlExpr::Snd(e1) => match check_hl(ctx, e1, oracle)? {
            HlType::Prod(_, b) => Ok(Arc::unwrap_or_clone(b)),
            other => Err(mismatch("a product type", other, "snd")),
        },
        HlExpr::If(c, t, f) => {
            let tc = check_hl(ctx, c, oracle)?;
            if tc != HlType::Bool {
                return Err(mismatch(HlType::Bool, tc, "if condition"));
            }
            let tt = check_hl(ctx, t, oracle)?;
            let tf = check_hl(ctx, f, oracle)?;
            if tt == tf {
                Ok(tt)
            } else {
                Err(mismatch(tt, tf, "if branches"))
            }
        }
        HlExpr::Match(s, x, l, y, r) => match check_hl(ctx, s, oracle)? {
            HlType::Sum(tl, tr) => {
                let t1 = check_hl(&ctx.with_hl(x.clone(), Arc::unwrap_or_clone(tl)), l, oracle)?;
                let t2 = check_hl(&ctx.with_hl(y.clone(), Arc::unwrap_or_clone(tr)), r, oracle)?;
                if t1 == t2 {
                    Ok(t1)
                } else {
                    Err(mismatch(t1, t2, "match branches"))
                }
            }
            other => Err(mismatch("a sum type", other, "match scrutinee")),
        },
        HlExpr::Lam(x, ty, body) => {
            let tb = check_hl(&ctx.with_hl(x.clone(), ty.clone()), body, oracle)?;
            Ok(HlType::fun(ty.clone(), tb))
        }
        HlExpr::App(f, a) => match check_hl(ctx, f, oracle)? {
            HlType::Fun(dom, cod) => {
                let ta = check_hl(ctx, a, oracle)?;
                if ta == *dom {
                    Ok(Arc::unwrap_or_clone(cod))
                } else {
                    Err(mismatch(dom, ta, "application argument"))
                }
            }
            other => Err(mismatch("a function type", other, "application head")),
        },
        HlExpr::Ref(e1) => Ok(HlType::ref_(check_hl(ctx, e1, oracle)?)),
        HlExpr::Deref(e1) => match check_hl(ctx, e1, oracle)? {
            HlType::Ref(t) => Ok(Arc::unwrap_or_clone(t)),
            other => Err(mismatch("a reference type", other, "dereference")),
        },
        HlExpr::Assign(a, b) => match check_hl(ctx, a, oracle)? {
            HlType::Ref(t) => {
                let tb = check_hl(ctx, b, oracle)?;
                if tb == *t {
                    Ok(HlType::Unit)
                } else {
                    Err(mismatch(t, tb, "assignment"))
                }
            }
            other => Err(mismatch("a reference type", other, "assignment target")),
        },
        HlExpr::Boundary(ll, ty) => {
            let tll = check_ll(ctx, ll, oracle)?;
            if oracle.convertible(ty, &tll) {
                Ok(ty.clone())
            } else {
                Err(TypeError::NotConvertible {
                    hl: ty.clone(),
                    ll: tll,
                })
            }
        }
    }
}

/// Checks a RefLL expression, returning its type.
pub fn check_ll(
    ctx: &TypeCtx,
    e: &LlExpr,
    oracle: &dyn ConvertOracle,
) -> Result<LlType, TypeError> {
    match e {
        LlExpr::Int(_) => Ok(LlType::Int),
        LlExpr::Var(x) => ctx
            .ll(x)
            .cloned()
            .ok_or_else(|| TypeError::UnboundVariable(x.clone())),
        LlExpr::Array(es, elem) => {
            for e1 in es {
                let t = check_ll(ctx, e1, oracle)?;
                if &t != elem {
                    return Err(mismatch(elem, t, "array element"));
                }
            }
            Ok(LlType::array(elem.clone()))
        }
        LlExpr::Index(a, i) => {
            let ta = check_ll(ctx, a, oracle)?;
            let ti = check_ll(ctx, i, oracle)?;
            if ti != LlType::Int {
                return Err(mismatch(LlType::Int, ti, "array index"));
            }
            match ta {
                LlType::Array(t) => Ok(Arc::unwrap_or_clone(t)),
                other => Err(mismatch("an array type", other, "indexing")),
            }
        }
        LlExpr::Lam(x, ty, body) => {
            let tb = check_ll(&ctx.with_ll(x.clone(), ty.clone()), body, oracle)?;
            Ok(LlType::fun(ty.clone(), tb))
        }
        LlExpr::App(f, a) => match check_ll(ctx, f, oracle)? {
            LlType::Fun(dom, cod) => {
                let ta = check_ll(ctx, a, oracle)?;
                if ta == *dom {
                    Ok(Arc::unwrap_or_clone(cod))
                } else {
                    Err(mismatch(dom, ta, "application argument"))
                }
            }
            other => Err(mismatch("a function type", other, "application head")),
        },
        LlExpr::Add(a, b) => {
            let ta = check_ll(ctx, a, oracle)?;
            let tb = check_ll(ctx, b, oracle)?;
            if ta != LlType::Int {
                return Err(mismatch(LlType::Int, ta, "addition"));
            }
            if tb != LlType::Int {
                return Err(mismatch(LlType::Int, tb, "addition"));
            }
            Ok(LlType::Int)
        }
        LlExpr::If0(c, t, f) => {
            let tc = check_ll(ctx, c, oracle)?;
            if tc != LlType::Int {
                return Err(mismatch(LlType::Int, tc, "if0 condition"));
            }
            let tt = check_ll(ctx, t, oracle)?;
            let tf = check_ll(ctx, f, oracle)?;
            if tt == tf {
                Ok(tt)
            } else {
                Err(mismatch(tt, tf, "if0 branches"))
            }
        }
        LlExpr::Ref(e1) => Ok(LlType::ref_(check_ll(ctx, e1, oracle)?)),
        LlExpr::Deref(e1) => match check_ll(ctx, e1, oracle)? {
            LlType::Ref(t) => Ok(Arc::unwrap_or_clone(t)),
            other => Err(mismatch("a reference type", other, "dereference")),
        },
        LlExpr::Assign(a, b) => match check_ll(ctx, a, oracle)? {
            LlType::Ref(t) => {
                let tb = check_ll(ctx, b, oracle)?;
                if tb == *t {
                    // Assignments evaluate to 0 in RefLL, so give them int.
                    Ok(LlType::Int)
                } else {
                    Err(mismatch(t, tb, "assignment"))
                }
            }
            other => Err(mismatch("a reference type", other, "assignment target")),
        },
        LlExpr::Boundary(hl, ty) => {
            let thl = check_hl(ctx, hl, oracle)?;
            if oracle.convertible(&thl, ty) {
                Ok(ty.clone())
            } else {
                Err(TypeError::NotConvertible {
                    hl: thl,
                    ll: ty.clone(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allow_bool_int(hl: &HlType, ll: &LlType) -> bool {
        matches!((hl, ll), (HlType::Bool, LlType::Int))
    }

    #[test]
    fn hl_basic_typing() {
        let oracle = DenyAllConversions;
        let ctx = TypeCtx::empty();
        assert_eq!(check_hl(&ctx, &HlExpr::unit(), &oracle), Ok(HlType::Unit));
        assert_eq!(
            check_hl(&ctx, &HlExpr::bool_(true), &oracle),
            Ok(HlType::Bool)
        );
        let pair = HlExpr::pair(HlExpr::bool_(true), HlExpr::unit());
        assert_eq!(
            check_hl(&ctx, &pair, &oracle),
            Ok(HlType::prod(HlType::Bool, HlType::Unit))
        );
        assert_eq!(
            check_hl(&ctx, &HlExpr::fst(pair.clone()), &oracle),
            Ok(HlType::Bool)
        );
        assert_eq!(
            check_hl(&ctx, &HlExpr::snd(pair), &oracle),
            Ok(HlType::Unit)
        );
    }

    #[test]
    fn hl_functions_and_applications() {
        let oracle = DenyAllConversions;
        let ctx = TypeCtx::empty();
        // λx:bool. if x then () else ()
        let f = HlExpr::lam(
            "x",
            HlType::Bool,
            HlExpr::if_(HlExpr::var("x"), HlExpr::unit(), HlExpr::unit()),
        );
        assert_eq!(
            check_hl(&ctx, &f, &oracle),
            Ok(HlType::fun(HlType::Bool, HlType::Unit))
        );
        let app = HlExpr::app(f.clone(), HlExpr::bool_(false));
        assert_eq!(check_hl(&ctx, &app, &oracle), Ok(HlType::Unit));
        let bad = HlExpr::app(f, HlExpr::unit());
        assert!(matches!(
            check_hl(&ctx, &bad, &oracle),
            Err(TypeError::Mismatch { .. })
        ));
    }

    #[test]
    fn hl_sums_and_match() {
        let oracle = DenyAllConversions;
        let ctx = TypeCtx::empty();
        let sum_ty = HlType::sum(HlType::Bool, HlType::Unit);
        let v = HlExpr::inl(HlExpr::bool_(true), sum_ty.clone());
        assert_eq!(check_hl(&ctx, &v, &oracle), Ok(sum_ty.clone()));
        let m = HlExpr::match_(v, "x", HlExpr::var("x"), "y", HlExpr::bool_(false));
        assert_eq!(check_hl(&ctx, &m, &oracle), Ok(HlType::Bool));
        // Wrong payload for inr.
        let bad = HlExpr::inr(HlExpr::bool_(true), sum_ty);
        assert!(check_hl(&ctx, &bad, &oracle).is_err());
    }

    #[test]
    fn hl_references() {
        let oracle = DenyAllConversions;
        let ctx = TypeCtx::empty();
        let r = HlExpr::ref_(HlExpr::bool_(true));
        assert_eq!(check_hl(&ctx, &r, &oracle), Ok(HlType::ref_(HlType::Bool)));
        assert_eq!(
            check_hl(&ctx, &HlExpr::deref(r.clone()), &oracle),
            Ok(HlType::Bool)
        );
        assert_eq!(
            check_hl(
                &ctx,
                &HlExpr::assign(r.clone(), HlExpr::bool_(false)),
                &oracle
            ),
            Ok(HlType::Unit)
        );
        assert!(check_hl(&ctx, &HlExpr::assign(r, HlExpr::unit()), &oracle).is_err());
    }

    #[test]
    fn ll_basic_typing() {
        let oracle = DenyAllConversions;
        let ctx = TypeCtx::empty();
        assert_eq!(check_ll(&ctx, &LlExpr::int(3), &oracle), Ok(LlType::Int));
        let arr = LlExpr::array([LlExpr::int(1), LlExpr::int(2)], LlType::Int);
        assert_eq!(
            check_ll(&ctx, &arr, &oracle),
            Ok(LlType::array(LlType::Int))
        );
        assert_eq!(
            check_ll(&ctx, &LlExpr::index(arr, LlExpr::int(0)), &oracle),
            Ok(LlType::Int)
        );
        let add = LlExpr::add(LlExpr::int(1), LlExpr::int(2));
        assert_eq!(check_ll(&ctx, &add, &oracle), Ok(LlType::Int));
        let if0 = LlExpr::if0(LlExpr::int(0), LlExpr::int(1), LlExpr::int(2));
        assert_eq!(check_ll(&ctx, &if0, &oracle), Ok(LlType::Int));
    }

    #[test]
    fn ll_heterogeneous_array_rejected() {
        let oracle = DenyAllConversions;
        let arr = LlExpr::Array(
            vec![
                LlExpr::int(1),
                LlExpr::lam("x", LlType::Int, LlExpr::var("x")),
            ],
            LlType::Int,
        );
        assert!(check_ll(&TypeCtx::empty(), &arr, &oracle).is_err());
    }

    #[test]
    fn boundary_requires_convertibility() {
        let ctx = TypeCtx::empty();
        // ⦇ 1 ⦈bool needs bool ∼ int.
        let e = HlExpr::boundary(LlExpr::int(1), HlType::Bool);
        assert!(matches!(
            check_hl(&ctx, &e, &DenyAllConversions),
            Err(TypeError::NotConvertible { .. })
        ));
        assert_eq!(check_hl(&ctx, &e, &allow_bool_int), Ok(HlType::Bool));

        // The other direction: ⦇ true ⦈int needs bool ∼ int.
        let e = LlExpr::boundary(HlExpr::bool_(true), LlType::Int);
        assert!(check_ll(&ctx, &e, &DenyAllConversions).is_err());
        assert_eq!(check_ll(&ctx, &e, &allow_bool_int), Ok(LlType::Int));
    }

    #[test]
    fn environments_of_both_languages_are_threaded() {
        let ctx = TypeCtx::empty()
            .with_hl(Var::new("h"), HlType::Bool)
            .with_ll(Var::new("l"), LlType::Int);
        // A RefHL term containing a RefLL boundary that uses the RefLL
        // variable `l`, and vice versa.
        let e = HlExpr::if_(
            HlExpr::var("h"),
            HlExpr::boundary(LlExpr::var("l"), HlType::Bool),
            HlExpr::bool_(false),
        );
        assert_eq!(check_hl(&ctx, &e, &allow_bool_int), Ok(HlType::Bool));

        let e = LlExpr::add(
            LlExpr::var("l"),
            LlExpr::boundary(HlExpr::var("h"), LlType::Int),
        );
        assert_eq!(check_ll(&ctx, &e, &allow_bool_int), Ok(LlType::Int));
    }

    #[test]
    fn unbound_variables_are_reported() {
        let err = check_hl(
            &TypeCtx::empty(),
            &HlExpr::var("ghost"),
            &DenyAllConversions,
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "unbound variable ghost");
    }

    #[test]
    fn error_display_mentions_context() {
        let err = check_hl(
            &TypeCtx::empty(),
            &HlExpr::if_(HlExpr::unit(), HlExpr::unit(), HlExpr::unit()),
            &DenyAllConversions,
        )
        .unwrap_err();
        assert!(err.to_string().contains("if condition"));
    }
}
