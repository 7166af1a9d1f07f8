//! Static semantics of the §5 languages.
//!
//! MiniML is checked with standard polymorphic typing rules (plus the foreign
//! type `⟨𝜏⟩`, which has no introduction or elimination forms of its own).
//! L3 is checked linearly: every variable bound linearly must be used exactly
//! once, capabilities convey ownership, and the `Duplicable` subset may be
//! duplicated/dropped explicitly.  As in the other case studies, usage
//! accounting makes the declarative environment-splitting rules algorithmic,
//! and both checkers thread both environments because open terms may cross
//! boundaries.  The convertibility judgment `τ ∼ 𝜏` that a boundary consults
//! is a predicate the caller passes: the §5 case study passes its rule set's
//! `derivable`.

use crate::syntax::{L3Expr, L3Type, LocVar, PolyExpr, PolyType, TyVar};
use semint_core::Var;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Linear-variable usage.
pub type Usage = BTreeSet<Var>;

/// The combined typing context `Δ; Γ; Γ̄; Ω`.
#[derive(Debug, Clone, Default)]
pub struct MemGcCtx {
    ml: HashMap<Var, PolyType>,
    tyvars: BTreeSet<TyVar>,
    locvars: BTreeSet<LocVar>,
    l3_unrestricted: HashMap<Var, L3Type>,
    l3_linear: HashMap<Var, L3Type>,
}

impl MemGcCtx {
    /// The empty context.
    pub fn empty() -> Self {
        MemGcCtx::default()
    }
    /// Extends the MiniML environment.
    pub fn with_ml(&self, x: Var, ty: PolyType) -> Self {
        let mut c = self.clone();
        c.ml.insert(x, ty);
        c
    }
    /// Brings a type variable into scope.
    pub fn with_tyvar(&self, a: TyVar) -> Self {
        let mut c = self.clone();
        c.tyvars.insert(a);
        c
    }
    /// Brings a location variable into scope.
    pub fn with_locvar(&self, z: LocVar) -> Self {
        let mut c = self.clone();
        c.locvars.insert(z);
        c
    }
    /// Extends L3's unrestricted environment.
    pub fn with_l3_unrestricted(&self, x: Var, ty: L3Type) -> Self {
        let mut c = self.clone();
        c.l3_unrestricted.insert(x, ty);
        c
    }
    /// Extends L3's linear environment.
    pub fn with_l3_linear(&self, x: Var, ty: L3Type) -> Self {
        let mut c = self.clone();
        c.l3_linear.insert(x, ty);
        c
    }
}

/// Type errors for the §5 languages.
#[derive(Debug, Clone, PartialEq)]
pub enum MemGcTypeError {
    /// A variable, type variable or location variable was not in scope.
    Unbound(String),
    /// Two types that had to match did not.
    Mismatch {
        /// What the context required.
        expected: String,
        /// What was found.
        found: String,
        /// A short description of the construct.
        context: &'static str,
    },
    /// A linear variable was used more than once.
    LinearReuse(Var),
    /// A linear variable was never used (L3 is linear, not affine).
    LinearUnused(Var),
    /// `dupl`/`drop`/foreign embedding applied to a non-`Duplicable` type.
    NotDuplicable(L3Type),
    /// `!e` captured a linear resource.
    BangCapturesLinear(Var),
    /// A boundary was used at a type pair with no convertibility rule.
    NotConvertible {
        /// The MiniML side.
        ml: PolyType,
        /// The L3 side.
        l3: L3Type,
    },
}

impl fmt::Display for MemGcTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemGcTypeError::Unbound(x) => write!(f, "unbound {x}"),
            MemGcTypeError::Mismatch {
                expected,
                found,
                context,
            } => {
                write!(
                    f,
                    "type mismatch in {context}: expected {expected}, found {found}"
                )
            }
            MemGcTypeError::LinearReuse(x) => write!(f, "linear variable {x} used more than once"),
            MemGcTypeError::LinearUnused(x) => write!(f, "linear variable {x} is never used"),
            MemGcTypeError::NotDuplicable(t) => write!(f, "type {t} is not Duplicable"),
            MemGcTypeError::BangCapturesLinear(x) => {
                write!(f, "!-value captures linear variable {x}")
            }
            MemGcTypeError::NotConvertible { ml, l3 } => {
                write!(f, "no convertibility rule {ml} ∼ {l3}")
            }
        }
    }
}

impl std::error::Error for MemGcTypeError {}

fn mismatch(
    expected: impl fmt::Display,
    found: impl fmt::Display,
    context: &'static str,
) -> MemGcTypeError {
    MemGcTypeError::Mismatch {
        expected: expected.to_string(),
        found: found.to_string(),
        context,
    }
}

fn split(u1: &Usage, u2: &Usage) -> Result<Usage, MemGcTypeError> {
    if let Some(x) = u1.intersection(u2).next() {
        return Err(MemGcTypeError::LinearReuse(x.clone()));
    }
    Ok(u1.union(u2).cloned().collect())
}

/// Removes a linear binder from the usage set, insisting it was used.
fn consume_binder(mut usage: Usage, x: &Var) -> Result<Usage, MemGcTypeError> {
    if !usage.remove(x) {
        return Err(MemGcTypeError::LinearUnused(x.clone()));
    }
    Ok(usage)
}

fn does_loc_occur(ty: &L3Type, z: &LocVar) -> bool {
    match ty {
        L3Type::Unit | L3Type::Bool => false,
        L3Type::Tensor(a, b) | L3Type::Lolli(a, b) => does_loc_occur(a, z) || does_loc_occur(b, z),
        L3Type::Bang(a) => does_loc_occur(a, z),
        L3Type::Ptr(w) => w == z,
        L3Type::Cap(w, t) => w == z || does_loc_occur(t, z),
        L3Type::ForallLoc(w, t) | L3Type::ExistsLoc(w, t) => w != z && does_loc_occur(t, z),
    }
}

/// Checks a MiniML expression, returning its type and the linear usage of any
/// L3 resources reached through boundaries.
pub fn check_poly(
    ctx: &MemGcCtx,
    e: &PolyExpr,
    convertible: &dyn Fn(&PolyType, &L3Type) -> bool,
) -> Result<(PolyType, Usage), MemGcTypeError> {
    match e {
        PolyExpr::Unit => Ok((PolyType::Unit, Usage::new())),
        PolyExpr::Int(_) => Ok((PolyType::Int, Usage::new())),
        PolyExpr::Var(x) => ctx
            .ml
            .get(x)
            .cloned()
            .map(|t| (t, Usage::new()))
            .ok_or_else(|| MemGcTypeError::Unbound(x.to_string())),
        PolyExpr::Pair(a, b) => {
            let (ta, ua) = check_poly(ctx, a, convertible)?;
            let (tb, ub) = check_poly(ctx, b, convertible)?;
            Ok((PolyType::prod(ta, tb), split(&ua, &ub)?))
        }
        PolyExpr::Fst(e1) => match check_poly(ctx, e1, convertible)? {
            (PolyType::Prod(a, _), u) => Ok((Arc::unwrap_or_clone(a), u)),
            (other, _) => Err(mismatch("a product type", other, "fst")),
        },
        PolyExpr::Snd(e1) => match check_poly(ctx, e1, convertible)? {
            (PolyType::Prod(_, b), u) => Ok((Arc::unwrap_or_clone(b), u)),
            (other, _) => Err(mismatch("a product type", other, "snd")),
        },
        PolyExpr::Inl(e1, ty) => match ty {
            PolyType::Sum(l, _) => {
                let (t, u) = check_poly(ctx, e1, convertible)?;
                if &t == l.as_ref() {
                    Ok((ty.clone(), u))
                } else {
                    Err(mismatch(l, t, "inl"))
                }
            }
            other => Err(mismatch("a sum type", other, "inl annotation")),
        },
        PolyExpr::Inr(e1, ty) => match ty {
            PolyType::Sum(_, r) => {
                let (t, u) = check_poly(ctx, e1, convertible)?;
                if &t == r.as_ref() {
                    Ok((ty.clone(), u))
                } else {
                    Err(mismatch(r, t, "inr"))
                }
            }
            other => Err(mismatch("a sum type", other, "inr annotation")),
        },
        PolyExpr::Match(s, x, l, y, r) => {
            let (ts, us) = check_poly(ctx, s, convertible)?;
            match ts {
                PolyType::Sum(tl, tr) => {
                    let (t1, u1) = check_poly(
                        &ctx.with_ml(x.clone(), Arc::unwrap_or_clone(tl)),
                        l,
                        convertible,
                    )?;
                    let (t2, u2) = check_poly(
                        &ctx.with_ml(y.clone(), Arc::unwrap_or_clone(tr)),
                        r,
                        convertible,
                    )?;
                    if t1 != t2 {
                        return Err(mismatch(t1, t2, "match branches"));
                    }
                    let branches: Usage = u1.union(&u2).cloned().collect();
                    Ok((t1, split(&us, &branches)?))
                }
                other => Err(mismatch("a sum type", other, "match scrutinee")),
            }
        }
        PolyExpr::Lam(x, ty, body) => {
            let (tb, ub) = check_poly(&ctx.with_ml(x.clone(), ty.clone()), body, convertible)?;
            // A MiniML function may be applied many times, so it must not
            // close over linear L3 resources.
            if let Some(a) = ub.iter().next() {
                return Err(MemGcTypeError::LinearReuse(a.clone()));
            }
            Ok((PolyType::fun(ty.clone(), tb), Usage::new()))
        }
        PolyExpr::App(f, a) => {
            let (tf, uf) = check_poly(ctx, f, convertible)?;
            let (ta, ua) = check_poly(ctx, a, convertible)?;
            match tf {
                PolyType::Fun(dom, cod) => {
                    if *dom != ta {
                        return Err(mismatch(dom, ta, "application argument"));
                    }
                    Ok((Arc::unwrap_or_clone(cod), split(&uf, &ua)?))
                }
                other => Err(mismatch("a function type", other, "application head")),
            }
        }
        PolyExpr::TyLam(a, body) => {
            let (tb, ub) = check_poly(&ctx.with_tyvar(a.clone()), body, convertible)?;
            Ok((PolyType::forall(a.clone(), tb), ub))
        }
        PolyExpr::TyApp(e1, ty) => {
            let (t, u) = check_poly(ctx, e1, convertible)?;
            match t {
                PolyType::Forall(a, body) => Ok((body.subst(&a, ty), u)),
                other => Err(mismatch("a ∀-type", other, "type application")),
            }
        }
        PolyExpr::Ref(e1) => {
            let (t, u) = check_poly(ctx, e1, convertible)?;
            Ok((PolyType::ref_(t), u))
        }
        PolyExpr::Deref(e1) => match check_poly(ctx, e1, convertible)? {
            (PolyType::Ref(t), u) => Ok((Arc::unwrap_or_clone(t), u)),
            (other, _) => Err(mismatch("a reference type", other, "dereference")),
        },
        PolyExpr::Assign(a, b) => {
            let (ta, ua) = check_poly(ctx, a, convertible)?;
            let (tb, ub) = check_poly(ctx, b, convertible)?;
            match ta {
                PolyType::Ref(inner) => {
                    if *inner != tb {
                        return Err(mismatch(inner, tb, "assignment"));
                    }
                    Ok((PolyType::Unit, split(&ua, &ub)?))
                }
                other => Err(mismatch("a reference type", other, "assignment target")),
            }
        }
        PolyExpr::Add(a, b) => {
            let (ta, ua) = check_poly(ctx, a, convertible)?;
            let (tb, ub) = check_poly(ctx, b, convertible)?;
            if ta != PolyType::Int || tb != PolyType::Int {
                return Err(mismatch(
                    PolyType::Int,
                    if ta != PolyType::Int { ta } else { tb },
                    "addition",
                ));
            }
            Ok((PolyType::Int, split(&ua, &ub)?))
        }
        PolyExpr::Boundary(l3, ty) => {
            let (tl, ul) = check_l3(ctx, l3, convertible)?;
            if convertible(ty, &tl) {
                Ok((ty.clone(), ul))
            } else {
                Err(MemGcTypeError::NotConvertible {
                    ml: ty.clone(),
                    l3: tl,
                })
            }
        }
    }
}

/// Checks an L3 expression, returning its type and linear usage.
pub fn check_l3(
    ctx: &MemGcCtx,
    e: &L3Expr,
    convertible: &dyn Fn(&PolyType, &L3Type) -> bool,
) -> Result<(L3Type, Usage), MemGcTypeError> {
    match e {
        L3Expr::Unit => Ok((L3Type::Unit, Usage::new())),
        L3Expr::Bool(_) => Ok((L3Type::Bool, Usage::new())),
        L3Expr::Var(x) => ctx
            .l3_linear
            .get(x)
            .cloned()
            .map(|t| (t, Usage::from([x.clone()])))
            .ok_or_else(|| MemGcTypeError::Unbound(x.to_string())),
        L3Expr::UVar(x) => ctx
            .l3_unrestricted
            .get(x)
            .cloned()
            .map(|t| (t, Usage::new()))
            .ok_or_else(|| MemGcTypeError::Unbound(x.to_string())),
        L3Expr::Lam(x, ty, body) => {
            let (tb, ub) = check_l3(
                &ctx.with_l3_linear(x.clone(), ty.clone()),
                body,
                convertible,
            )?;
            let used = consume_binder(ub, x)?;
            Ok((L3Type::lolli(ty.clone(), tb), used))
        }
        L3Expr::App(f, a) => {
            let (tf, uf) = check_l3(ctx, f, convertible)?;
            let (ta, ua) = check_l3(ctx, a, convertible)?;
            match tf {
                L3Type::Lolli(dom, cod) => {
                    if *dom != ta {
                        return Err(mismatch(dom, ta, "application argument"));
                    }
                    Ok((Arc::unwrap_or_clone(cod), split(&uf, &ua)?))
                }
                other => Err(mismatch("a ⊸-type", other, "application head")),
            }
        }
        L3Expr::Pair(a, b) => {
            let (ta, ua) = check_l3(ctx, a, convertible)?;
            let (tb, ub) = check_l3(ctx, b, convertible)?;
            Ok((L3Type::tensor(ta, tb), split(&ua, &ub)?))
        }
        L3Expr::LetPair(x, y, e1, body) => {
            let (t, u1) = check_l3(ctx, e1, convertible)?;
            match t {
                L3Type::Tensor(t1, t2) => {
                    let inner = ctx
                        .with_l3_linear(x.clone(), Arc::unwrap_or_clone(t1))
                        .with_l3_linear(y.clone(), Arc::unwrap_or_clone(t2));
                    let (tb, ub) = check_l3(&inner, body, convertible)?;
                    let ub = consume_binder(ub, x)?;
                    let ub = consume_binder(ub, y)?;
                    Ok((tb, split(&u1, &ub)?))
                }
                other => Err(mismatch("a ⊗-type", other, "let (x, y)")),
            }
        }
        L3Expr::LetUnit(e1, body) => {
            let (t, u1) = check_l3(ctx, e1, convertible)?;
            if t != L3Type::Unit {
                return Err(mismatch(L3Type::Unit, t, "let ()"));
            }
            let (tb, ub) = check_l3(ctx, body, convertible)?;
            Ok((tb, split(&u1, &ub)?))
        }
        L3Expr::If(c, t, f) => {
            let (tc, uc) = check_l3(ctx, c, convertible)?;
            if tc != L3Type::Bool {
                return Err(mismatch(L3Type::Bool, tc, "if condition"));
            }
            let (tt, ut) = check_l3(ctx, t, convertible)?;
            let (tf, uf) = check_l3(ctx, f, convertible)?;
            if tt != tf {
                return Err(mismatch(tt, tf, "if branches"));
            }
            // Branches must use the *same* linear resources (only one runs);
            // the conservative algorithmic reading requires equal usage sets.
            if ut != uf {
                let diff: Vec<_> = ut.symmetric_difference(&uf).cloned().collect();
                return Err(MemGcTypeError::LinearUnused(diff[0].clone()));
            }
            Ok((tt, split(&uc, &ut)?))
        }
        L3Expr::Bang(e1) => {
            let (t, u) = check_l3(ctx, e1, convertible)?;
            if let Some(x) = u.iter().next() {
                return Err(MemGcTypeError::BangCapturesLinear(x.clone()));
            }
            Ok((L3Type::bang(t), Usage::new()))
        }
        L3Expr::LetBang(x, e1, body) => {
            let (t, u1) = check_l3(ctx, e1, convertible)?;
            match t {
                L3Type::Bang(inner) => {
                    let (tb, ub) = check_l3(
                        &ctx.with_l3_unrestricted(x.clone(), Arc::unwrap_or_clone(inner)),
                        body,
                        convertible,
                    )?;
                    Ok((tb, split(&u1, &ub)?))
                }
                other => Err(mismatch("a !-type", other, "let !")),
            }
        }
        L3Expr::Dupl(e1) => {
            let (t, u) = check_l3(ctx, e1, convertible)?;
            if !t.is_duplicable() {
                return Err(MemGcTypeError::NotDuplicable(t));
            }
            Ok((L3Type::tensor(t.clone(), t), u))
        }
        L3Expr::Drop(e1) => {
            let (t, u) = check_l3(ctx, e1, convertible)?;
            if !t.is_duplicable() {
                return Err(MemGcTypeError::NotDuplicable(t));
            }
            Ok((L3Type::Unit, u))
        }
        L3Expr::New(e1) => {
            let (t, u) = check_l3(ctx, e1, convertible)?;
            Ok((L3Type::ref_like(t), u))
        }
        L3Expr::Free(e1) => {
            let (t, u) = check_l3(ctx, e1, convertible)?;
            match ref_like_payload(&t) {
                Some(inner) => Ok((inner, u)),
                None => Err(mismatch("∃ζ. cap ζ 𝜏 ⊗ !ptr ζ", t, "free")),
            }
        }
        L3Expr::Swap(ec, ep, ev) => {
            let (tc, uc) = check_l3(ctx, ec, convertible)?;
            let (tp, up) = check_l3(ctx, ep, convertible)?;
            let (tv, uv) = check_l3(ctx, ev, convertible)?;
            let (z, stored) = match tc {
                L3Type::Cap(z, stored) => (z, Arc::unwrap_or_clone(stored)),
                other => return Err(mismatch("a capability", other, "swap capability")),
            };
            let ptr_ok = matches!(&tp, L3Type::Ptr(w) if *w == z)
                || matches!(&tp, L3Type::Bang(inner) if matches!(inner.as_ref(), L3Type::Ptr(w) if *w == z));
            if !ptr_ok {
                return Err(mismatch(format!("ptr {z}"), tp, "swap pointer"));
            }
            let usage = split(&split(&uc, &up)?, &uv)?;
            Ok((L3Type::tensor(L3Type::cap(z, tv), stored), usage))
        }
        L3Expr::LocLam(z, body) => {
            let (tb, ub) = check_l3(&ctx.with_locvar(z.clone()), body, convertible)?;
            Ok((L3Type::forall_loc(z.clone(), tb), ub))
        }
        L3Expr::LocApp(e1, z) => {
            if !ctx.locvars.contains(z) {
                return Err(MemGcTypeError::Unbound(format!("location variable {z}")));
            }
            let (t, u) = check_l3(ctx, e1, convertible)?;
            match t {
                L3Type::ForallLoc(w, body) => Ok((body.subst_loc(&w, z), u)),
                other => Err(mismatch("a ∀ζ-type", other, "location application")),
            }
        }
        L3Expr::Pack(z, e1, annot) => match annot {
            L3Type::ExistsLoc(w, body) => {
                let expected = body.subst_loc(w, z);
                let (t, u) = check_l3(ctx, e1, convertible)?;
                if t != expected {
                    return Err(mismatch(expected, t, "pack"));
                }
                Ok((annot.clone(), u))
            }
            other => Err(mismatch("an ∃ζ-type", other, "pack annotation")),
        },
        L3Expr::Unpack(z, x, e1, body) => {
            let (t, u1) = check_l3(ctx, e1, convertible)?;
            match t {
                L3Type::ExistsLoc(w, inner) => {
                    let opened = inner.subst_loc(&w, z);
                    let inner_ctx = ctx.with_locvar(z.clone()).with_l3_linear(x.clone(), opened);
                    let (tb, ub) = check_l3(&inner_ctx, body, convertible)?;
                    let ub = consume_binder(ub, x)?;
                    if does_loc_occur(&tb, z) {
                        return Err(mismatch(
                            "a type not mentioning the opened location",
                            tb,
                            "unpack body",
                        ));
                    }
                    Ok((tb, split(&u1, &ub)?))
                }
                other => Err(mismatch("an ∃ζ-type", other, "unpack")),
            }
        }
        L3Expr::Boundary(ml, ty) => {
            let (tm, um) = check_poly(ctx, ml, convertible)?;
            if convertible(&tm, ty) {
                Ok((ty.clone(), um))
            } else {
                Err(MemGcTypeError::NotConvertible {
                    ml: tm,
                    l3: ty.clone(),
                })
            }
        }
    }
}

/// Matches `∃ζ. cap ζ 𝜏 ⊗ !ptr ζ` (or the un-banged pointer variant) and
/// returns the payload `𝜏`.
pub fn ref_like_payload(t: &L3Type) -> Option<L3Type> {
    if let L3Type::ExistsLoc(z, body) = t {
        if let L3Type::Tensor(cap, ptr) = body.as_ref() {
            if let L3Type::Cap(w, stored) = cap.as_ref() {
                let ptr_matches = matches!(ptr.as_ref(), L3Type::Ptr(p) if p == z)
                    || matches!(ptr.as_ref(), L3Type::Bang(inner) if matches!(inner.as_ref(), L3Type::Ptr(p) if p == z));
                if w == z && ptr_matches {
                    return Some((**stored).clone());
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deny_all(_: &PolyType, _: &L3Type) -> bool {
        false
    }

    fn check(e: &L3Expr) -> Result<L3Type, MemGcTypeError> {
        check_l3(&MemGcCtx::empty(), e, &deny_all).map(|(t, _)| t)
    }

    #[test]
    fn linear_lambda_must_use_its_argument_exactly_once() {
        let ok = L3Expr::lam("x", L3Type::Bool, L3Expr::var("x"));
        assert_eq!(
            check(&ok).unwrap(),
            L3Type::lolli(L3Type::Bool, L3Type::Bool)
        );

        let unused = L3Expr::lam("x", L3Type::Bool, L3Expr::bool_(true));
        assert_eq!(
            check(&unused).unwrap_err(),
            MemGcTypeError::LinearUnused(Var::new("x"))
        );

        let reused = L3Expr::lam(
            "x",
            L3Type::Bool,
            L3Expr::pair(L3Expr::var("x"), L3Expr::var("x")),
        );
        assert_eq!(
            check(&reused).unwrap_err(),
            MemGcTypeError::LinearReuse(Var::new("x"))
        );
    }

    #[test]
    fn dupl_and_drop_require_duplicable_types() {
        let ok = L3Expr::lam(
            "x",
            L3Type::bang(L3Type::Bool),
            L3Expr::dupl(L3Expr::var("x")),
        );
        assert_eq!(
            check(&ok).unwrap(),
            L3Type::lolli(
                L3Type::bang(L3Type::Bool),
                L3Type::tensor(L3Type::bang(L3Type::Bool), L3Type::bang(L3Type::Bool))
            )
        );
        let bad = L3Expr::lam(
            "x",
            L3Type::cap("ζ", L3Type::Bool),
            L3Expr::dupl(L3Expr::var("x")),
        );
        assert!(matches!(check(&bad), Err(MemGcTypeError::NotDuplicable(_))));
        // drop of a bool is fine.
        let ok = L3Expr::drop_(L3Expr::bool_(true));
        assert_eq!(check(&ok).unwrap(), L3Type::Unit);
    }

    #[test]
    fn new_free_round_trip_types() {
        let e = L3Expr::free(L3Expr::new(L3Expr::bool_(true)));
        assert_eq!(check(&e).unwrap(), L3Type::Bool);
        let e = L3Expr::new(L3Expr::bool_(true));
        assert_eq!(check(&e).unwrap(), L3Type::ref_like(L3Type::Bool));
    }

    #[test]
    fn swap_performs_a_strong_update_at_the_type_level() {
        // let ⌜ζ, pkg⌝ = new true in
        // let (c, p) = pkg in let !q = p in
        // let (c2, old) = swap c q false in
        // let () = drop old in
        // free ⌜ζ, (c2, !q)⌝
        let e = L3Expr::unpack(
            "ζ",
            "pkg",
            L3Expr::new(L3Expr::bool_(true)),
            L3Expr::let_pair(
                "c",
                "p",
                L3Expr::var("pkg"),
                L3Expr::let_bang(
                    "q",
                    L3Expr::var("p"),
                    L3Expr::let_pair(
                        "c2",
                        "old",
                        L3Expr::swap(L3Expr::var("c"), L3Expr::uvar("q"), L3Expr::bool_(false)),
                        L3Expr::let_unit(
                            L3Expr::drop_(L3Expr::var("old")),
                            L3Expr::free(L3Expr::pack(
                                "ζ",
                                L3Expr::pair(L3Expr::var("c2"), L3Expr::bang(L3Expr::uvar("q"))),
                                L3Type::ref_like(L3Type::Bool),
                            )),
                        ),
                    ),
                ),
            ),
        );
        let (ty, _) = check_l3(&MemGcCtx::empty(), &e, &deny_all)
            .unwrap_or_else(|err| panic!("swap round trip should typecheck: {err}"));
        assert_eq!(ty, L3Type::Bool);
    }

    #[test]
    fn capabilities_cannot_be_discarded_silently() {
        // new true; () — the capability package is never consumed.
        let e = L3Expr::let_pair(
            "c",
            "p",
            L3Expr::free(L3Expr::new(L3Expr::pair(
                L3Expr::bool_(true),
                L3Expr::bool_(false),
            ))),
            L3Expr::var("c"),
        );
        // 'p' (the second bool) is unused → linear error.
        assert!(matches!(check(&e), Err(MemGcTypeError::LinearUnused(_))));
    }

    #[test]
    fn location_polymorphism_packs_and_unpacks() {
        // Λζ. λp: !ptr ζ. drop-style: use let ! to consume.
        let e = L3Expr::loclam(
            "ζ",
            L3Expr::lam(
                "p",
                L3Type::bang(L3Type::ptr("ζ")),
                L3Expr::let_bang("q", L3Expr::var("p"), L3Expr::unit()),
            ),
        );
        let ty = check(&e).unwrap();
        assert_eq!(
            ty,
            L3Type::forall_loc(
                "ζ",
                L3Type::lolli(L3Type::bang(L3Type::ptr("ζ")), L3Type::Unit)
            )
        );
    }

    #[test]
    fn poly_side_polymorphism_and_foreign_types() {
        // Λα. λx:α. λy:α. y — the paper's example (1) shape.
        let second = PolyExpr::tylam(
            "α",
            PolyExpr::lam(
                "x",
                PolyType::tvar("α"),
                PolyExpr::lam("y", PolyType::tvar("α"), PolyExpr::var("y")),
            ),
        );
        let (ty, _) = check_poly(&MemGcCtx::empty(), &second, &deny_all).unwrap();
        assert_eq!(
            ty,
            PolyType::forall(
                "α",
                PolyType::fun(
                    PolyType::tvar("α"),
                    PolyType::fun(PolyType::tvar("α"), PolyType::tvar("α"))
                )
            )
        );
        // Instantiating at a foreign type substitutes it straight in.
        let inst = PolyExpr::tyapp(second, PolyType::foreign(L3Type::Bool));
        let (ty, _) = check_poly(&MemGcCtx::empty(), &inst, &deny_all).unwrap();
        assert_eq!(
            ty,
            PolyType::fun(
                PolyType::foreign(L3Type::Bool),
                PolyType::fun(
                    PolyType::foreign(L3Type::Bool),
                    PolyType::foreign(L3Type::Bool)
                )
            )
        );
    }

    #[test]
    fn boundaries_require_convertibility_rules() {
        let e = PolyExpr::boundary(L3Expr::bool_(true), PolyType::foreign(L3Type::Bool));
        assert!(check_poly(&MemGcCtx::empty(), &e, &deny_all).is_err());
        let allow = |ml: &PolyType, l3: &L3Type| matches!((ml, l3), (PolyType::Foreign(inner), t) if inner.as_ref() == t);
        let (ty, _) = check_poly(&MemGcCtx::empty(), &e, &allow).unwrap();
        assert_eq!(ty, PolyType::foreign(L3Type::Bool));
    }

    #[test]
    fn unpack_cannot_leak_its_location_variable() {
        // let ⌜ζ, x⌝ = new true in x  — the body's type mentions ζ.
        let e = L3Expr::unpack("ζ", "x", L3Expr::new(L3Expr::bool_(true)), L3Expr::var("x"));
        assert!(matches!(
            check(&e),
            Err(MemGcTypeError::Mismatch {
                context: "unpack body",
                ..
            })
        ));
    }
}
