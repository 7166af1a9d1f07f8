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
//! judgment `τ ∼ 𝜏` is a predicate the caller passes: the §3 case study passes
//! its rule set's `derivable` (Fig. 4); tests can pass any function.

use crate::syntax::{HlExpr, HlType, LlExpr, LlType};
use semint_core::Var;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

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

/// Checks a RefHL expression, returning its type.  A boundary `⦇ē⦈τ` is
/// accepted when `convertible(τ, 𝜏)` holds for the type `𝜏` of `ē`.
pub fn check_hl(
    ctx: &TypeCtx,
    e: &HlExpr,
    convertible: &dyn Fn(&HlType, &LlType) -> bool,
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
                let t = check_hl(ctx, e1, convertible)?;
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
                let t = check_hl(ctx, e1, convertible)?;
                if &t == r.as_ref() {
                    Ok(ty.clone())
                } else {
                    Err(mismatch(r, t, "inr"))
                }
            }
            other => Err(mismatch("a sum type", other, "inr annotation")),
        },
        HlExpr::Pair(a, b) => {
            let ta = check_hl(ctx, a, convertible)?;
            let tb = check_hl(ctx, b, convertible)?;
            Ok(HlType::prod(ta, tb))
        }
        HlExpr::Fst(e1) => match check_hl(ctx, e1, convertible)? {
            HlType::Prod(a, _) => Ok(Arc::unwrap_or_clone(a)),
            other => Err(mismatch("a product type", other, "fst")),
        },
        HlExpr::Snd(e1) => match check_hl(ctx, e1, convertible)? {
            HlType::Prod(_, b) => Ok(Arc::unwrap_or_clone(b)),
            other => Err(mismatch("a product type", other, "snd")),
        },
        HlExpr::If(c, t, f) => {
            let tc = check_hl(ctx, c, convertible)?;
            if tc != HlType::Bool {
                return Err(mismatch(HlType::Bool, tc, "if condition"));
            }
            let tt = check_hl(ctx, t, convertible)?;
            let tf = check_hl(ctx, f, convertible)?;
            if tt == tf {
                Ok(tt)
            } else {
                Err(mismatch(tt, tf, "if branches"))
            }
        }
        HlExpr::Match(s, x, l, y, r) => match check_hl(ctx, s, convertible)? {
            HlType::Sum(tl, tr) => {
                let t1 = check_hl(
                    &ctx.with_hl(x.clone(), Arc::unwrap_or_clone(tl)),
                    l,
                    convertible,
                )?;
                let t2 = check_hl(
                    &ctx.with_hl(y.clone(), Arc::unwrap_or_clone(tr)),
                    r,
                    convertible,
                )?;
                if t1 == t2 {
                    Ok(t1)
                } else {
                    Err(mismatch(t1, t2, "match branches"))
                }
            }
            other => Err(mismatch("a sum type", other, "match scrutinee")),
        },
        HlExpr::Lam(x, ty, body) => {
            let tb = check_hl(&ctx.with_hl(x.clone(), ty.clone()), body, convertible)?;
            Ok(HlType::fun(ty.clone(), tb))
        }
        HlExpr::App(f, a) => match check_hl(ctx, f, convertible)? {
            HlType::Fun(dom, cod) => {
                let ta = check_hl(ctx, a, convertible)?;
                if ta == *dom {
                    Ok(Arc::unwrap_or_clone(cod))
                } else {
                    Err(mismatch(dom, ta, "application argument"))
                }
            }
            other => Err(mismatch("a function type", other, "application head")),
        },
        HlExpr::Ref(e1) => Ok(HlType::ref_(check_hl(ctx, e1, convertible)?)),
        HlExpr::Deref(e1) => match check_hl(ctx, e1, convertible)? {
            HlType::Ref(t) => Ok(Arc::unwrap_or_clone(t)),
            other => Err(mismatch("a reference type", other, "dereference")),
        },
        HlExpr::Assign(a, b) => match check_hl(ctx, a, convertible)? {
            HlType::Ref(t) => {
                let tb = check_hl(ctx, b, convertible)?;
                if tb == *t {
                    Ok(HlType::Unit)
                } else {
                    Err(mismatch(t, tb, "assignment"))
                }
            }
            other => Err(mismatch("a reference type", other, "assignment target")),
        },
        HlExpr::Boundary(ll, ty) => {
            let tll = check_ll(ctx, ll, convertible)?;
            if convertible(ty, &tll) {
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

/// Checks a RefLL expression, returning its type.  A boundary `⦇e⦈𝜏` is
/// accepted when `convertible(τ, 𝜏)` holds for the type `τ` of `e`.
pub fn check_ll(
    ctx: &TypeCtx,
    e: &LlExpr,
    convertible: &dyn Fn(&HlType, &LlType) -> bool,
) -> Result<LlType, TypeError> {
    match e {
        LlExpr::Int(_) => Ok(LlType::Int),
        LlExpr::Var(x) => ctx
            .ll(x)
            .cloned()
            .ok_or_else(|| TypeError::UnboundVariable(x.clone())),
        LlExpr::Array(es, elem) => {
            for e1 in es.iter() {
                let t = check_ll(ctx, e1, convertible)?;
                if &t != elem {
                    return Err(mismatch(elem, t, "array element"));
                }
            }
            Ok(LlType::array(elem.clone()))
        }
        LlExpr::Index(a, i) => {
            let ta = check_ll(ctx, a, convertible)?;
            let ti = check_ll(ctx, i, convertible)?;
            if ti != LlType::Int {
                return Err(mismatch(LlType::Int, ti, "array index"));
            }
            match ta {
                LlType::Array(t) => Ok(Arc::unwrap_or_clone(t)),
                other => Err(mismatch("an array type", other, "indexing")),
            }
        }
        LlExpr::Lam(x, ty, body) => {
            let tb = check_ll(&ctx.with_ll(x.clone(), ty.clone()), body, convertible)?;
            Ok(LlType::fun(ty.clone(), tb))
        }
        LlExpr::App(f, a) => match check_ll(ctx, f, convertible)? {
            LlType::Fun(dom, cod) => {
                let ta = check_ll(ctx, a, convertible)?;
                if ta == *dom {
                    Ok(Arc::unwrap_or_clone(cod))
                } else {
                    Err(mismatch(dom, ta, "application argument"))
                }
            }
            other => Err(mismatch("a function type", other, "application head")),
        },
        LlExpr::Add(a, b) => {
            let ta = check_ll(ctx, a, convertible)?;
            let tb = check_ll(ctx, b, convertible)?;
            if ta != LlType::Int {
                return Err(mismatch(LlType::Int, ta, "addition"));
            }
            if tb != LlType::Int {
                return Err(mismatch(LlType::Int, tb, "addition"));
            }
            Ok(LlType::Int)
        }
        LlExpr::If0(c, t, f) => {
            let tc = check_ll(ctx, c, convertible)?;
            if tc != LlType::Int {
                return Err(mismatch(LlType::Int, tc, "if0 condition"));
            }
            let tt = check_ll(ctx, t, convertible)?;
            let tf = check_ll(ctx, f, convertible)?;
            if tt == tf {
                Ok(tt)
            } else {
                Err(mismatch(tt, tf, "if0 branches"))
            }
        }
        LlExpr::Ref(e1) => Ok(LlType::ref_(check_ll(ctx, e1, convertible)?)),
        LlExpr::Deref(e1) => match check_ll(ctx, e1, convertible)? {
            LlType::Ref(t) => Ok(Arc::unwrap_or_clone(t)),
            other => Err(mismatch("a reference type", other, "dereference")),
        },
        LlExpr::Assign(a, b) => match check_ll(ctx, a, convertible)? {
            LlType::Ref(t) => {
                let tb = check_ll(ctx, b, convertible)?;
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
            let thl = check_hl(ctx, hl, convertible)?;
            if convertible(&thl, ty) {
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

    fn deny_all(_: &HlType, _: &LlType) -> bool {
        false
    }

    fn allow_bool_int(hl: &HlType, ll: &LlType) -> bool {
        matches!((hl, ll), (HlType::Bool, LlType::Int))
    }

    #[test]
    fn hl_basic_typing() {
        let ctx = TypeCtx::empty();
        assert_eq!(check_hl(&ctx, &HlExpr::unit(), &deny_all), Ok(HlType::Unit));
        assert_eq!(
            check_hl(&ctx, &HlExpr::bool_(true), &deny_all),
            Ok(HlType::Bool)
        );
        let pair = HlExpr::pair(HlExpr::bool_(true), HlExpr::unit());
        assert_eq!(
            check_hl(&ctx, &pair, &deny_all),
            Ok(HlType::prod(HlType::Bool, HlType::Unit))
        );
        assert_eq!(
            check_hl(&ctx, &HlExpr::fst(pair.clone()), &deny_all),
            Ok(HlType::Bool)
        );
        assert_eq!(
            check_hl(&ctx, &HlExpr::snd(pair), &deny_all),
            Ok(HlType::Unit)
        );
    }

    #[test]
    fn hl_functions_and_applications() {
        let ctx = TypeCtx::empty();
        // λx:bool. if x then () else ()
        let f = HlExpr::lam(
            "x",
            HlType::Bool,
            HlExpr::if_(HlExpr::var("x"), HlExpr::unit(), HlExpr::unit()),
        );
        assert_eq!(
            check_hl(&ctx, &f, &deny_all),
            Ok(HlType::fun(HlType::Bool, HlType::Unit))
        );
        let app = HlExpr::app(f.clone(), HlExpr::bool_(false));
        assert_eq!(check_hl(&ctx, &app, &deny_all), Ok(HlType::Unit));
        let bad = HlExpr::app(f, HlExpr::unit());
        assert!(matches!(
            check_hl(&ctx, &bad, &deny_all),
            Err(TypeError::Mismatch { .. })
        ));
    }

    #[test]
    fn hl_sums_and_match() {
        let ctx = TypeCtx::empty();
        let sum_ty = HlType::sum(HlType::Bool, HlType::Unit);
        let v = HlExpr::inl(HlExpr::bool_(true), sum_ty.clone());
        assert_eq!(check_hl(&ctx, &v, &deny_all), Ok(sum_ty.clone()));
        let m = HlExpr::match_(v, "x", HlExpr::var("x"), "y", HlExpr::bool_(false));
        assert_eq!(check_hl(&ctx, &m, &deny_all), Ok(HlType::Bool));
        // Wrong payload for inr.
        let bad = HlExpr::inr(HlExpr::bool_(true), sum_ty);
        assert!(check_hl(&ctx, &bad, &deny_all).is_err());
    }

    #[test]
    fn hl_references() {
        let ctx = TypeCtx::empty();
        let r = HlExpr::ref_(HlExpr::bool_(true));
        assert_eq!(
            check_hl(&ctx, &r, &deny_all),
            Ok(HlType::ref_(HlType::Bool))
        );
        assert_eq!(
            check_hl(&ctx, &HlExpr::deref(r.clone()), &deny_all),
            Ok(HlType::Bool)
        );
        assert_eq!(
            check_hl(
                &ctx,
                &HlExpr::assign(r.clone(), HlExpr::bool_(false)),
                &deny_all
            ),
            Ok(HlType::Unit)
        );
        assert!(check_hl(&ctx, &HlExpr::assign(r, HlExpr::unit()), &deny_all).is_err());
    }

    #[test]
    fn ll_basic_typing() {
        let ctx = TypeCtx::empty();
        assert_eq!(check_ll(&ctx, &LlExpr::int(3), &deny_all), Ok(LlType::Int));
        let arr = LlExpr::array([LlExpr::int(1), LlExpr::int(2)], LlType::Int);
        assert_eq!(
            check_ll(&ctx, &arr, &deny_all),
            Ok(LlType::array(LlType::Int))
        );
        assert_eq!(
            check_ll(&ctx, &LlExpr::index(arr, LlExpr::int(0)), &deny_all),
            Ok(LlType::Int)
        );
        let add = LlExpr::add(LlExpr::int(1), LlExpr::int(2));
        assert_eq!(check_ll(&ctx, &add, &deny_all), Ok(LlType::Int));
        let if0 = LlExpr::if0(LlExpr::int(0), LlExpr::int(1), LlExpr::int(2));
        assert_eq!(check_ll(&ctx, &if0, &deny_all), Ok(LlType::Int));
    }

    #[test]
    fn ll_heterogeneous_array_rejected() {
        let arr = LlExpr::Array(
            vec![
                LlExpr::int(1),
                LlExpr::lam("x", LlType::Int, LlExpr::var("x")),
            ]
            .into(),
            LlType::Int,
        );
        assert!(check_ll(&TypeCtx::empty(), &arr, &deny_all).is_err());
    }

    #[test]
    fn boundary_requires_convertibility() {
        let ctx = TypeCtx::empty();
        // ⦇ 1 ⦈bool needs bool ∼ int.
        let e = HlExpr::boundary(LlExpr::int(1), HlType::Bool);
        assert!(matches!(
            check_hl(&ctx, &e, &deny_all),
            Err(TypeError::NotConvertible { .. })
        ));
        assert_eq!(check_hl(&ctx, &e, &allow_bool_int), Ok(HlType::Bool));

        // The other direction: ⦇ true ⦈int needs bool ∼ int.
        let e = LlExpr::boundary(HlExpr::bool_(true), LlType::Int);
        assert!(check_ll(&ctx, &e, &deny_all).is_err());
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
        let err = check_hl(&TypeCtx::empty(), &HlExpr::var("ghost"), &deny_all).unwrap_err();
        assert_eq!(err.to_string(), "unbound variable ghost");
    }

    #[test]
    fn error_display_mentions_context() {
        let err = check_hl(
            &TypeCtx::empty(),
            &HlExpr::if_(HlExpr::unit(), HlExpr::unit(), HlExpr::unit()),
            &deny_all,
        )
        .unwrap_err();
        assert!(err.to_string().contains("if condition"));
    }
}
