//! Static semantics of MiniML and Affi (Fig. 7).
//!
//! The affine discipline is implemented with *usage accounting*: each checker
//! returns, along with the type, the set of affine variables the expression
//! uses.  Environment splitting (`Ω = Ω1 ⊎ Ω2`) then becomes a disjointness
//! check on the returned sets, and the `no•(Ω)` side conditions become "the
//! used set contains no static variables".  This is the standard algorithmic
//! reading of the declarative rules.
//!
//! Because affine resources can appear inside MiniML terms (through
//! boundaries), the MiniML rules also thread and split the affine usage sets,
//! exactly as the paper notes.  The convertibility judgment `𝜏 ∼ τ` that a
//! boundary consults is a predicate the caller passes: the §4 case study
//! passes its rule set's `derivable` (Fig. 9).

use crate::syntax::{AffiExpr, AffiType, MlExpr, MlType, Mode};
use semint_core::{Scope, Var};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// The set of affine variables an expression uses.
pub type Usage = BTreeSet<Var>;

/// Typing context: `Δ; Γ; Γ̄; Ω` (minus `Δ`, as the §4 MiniML instance here is
/// monomorphic — polymorphism is exercised in the §5 crate), each part a
/// [`Scope`]: extending one allocates a node and shares the rest.
#[derive(Debug, Clone, Default)]
pub struct AffineCtx {
    ml: Scope<MlType>,
    affi_unrestricted: Scope<AffiType>,
    omega: Scope<(Mode, AffiType)>,
}

impl AffineCtx {
    /// The empty context.
    pub fn empty() -> Self {
        AffineCtx::default()
    }

    /// Extends the MiniML environment `Γ`.
    pub fn with_ml(&self, x: Var, ty: MlType) -> Self {
        let mut c = self.clone();
        c.ml = self.ml.extend(x, ty);
        c
    }

    /// Extends Affi's unrestricted environment `Γ̄`.
    pub fn with_unrestricted(&self, x: Var, ty: AffiType) -> Self {
        let mut c = self.clone();
        c.affi_unrestricted = self.affi_unrestricted.extend(x, ty);
        c
    }

    /// Extends the affine environment `Ω`.
    pub fn with_affine(&self, x: Var, mode: Mode, ty: AffiType) -> Self {
        let mut c = self.clone();
        c.omega = self.omega.extend(x, (mode, ty));
        c
    }

    /// The mode of an affine variable currently in `Ω`, if any.
    pub fn affine_mode(&self, x: &Var) -> Option<Mode> {
        self.omega.lookup(x).map(|(m, _)| *m)
    }
}

/// Type errors for the §4 languages.
#[derive(Debug, Clone, PartialEq)]
pub enum AffineTypeError {
    /// A variable was not in scope (or was used at the wrong mode).
    Unbound(Var),
    /// Two types that had to match did not.
    Mismatch {
        /// What the context required.
        expected: String,
        /// What was found.
        found: String,
        /// A short description of the construct.
        context: &'static str,
    },
    /// An affine variable was needed by two disjoint parts of the program.
    AffineReuse(Var),
    /// A static affine variable would escape through a dynamic function or a
    /// boundary.
    StaticEscape(Var),
    /// `!e` captured an affine resource.
    BangCapturesAffine(Var),
    /// A boundary was used at a type pair with no convertibility rule.
    NotConvertible {
        /// The Affi side.
        affi: AffiType,
        /// The MiniML side.
        ml: MlType,
    },
}

impl fmt::Display for AffineTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffineTypeError::Unbound(x) => write!(f, "unbound variable {x}"),
            AffineTypeError::Mismatch {
                expected,
                found,
                context,
            } => {
                write!(
                    f,
                    "type mismatch in {context}: expected {expected}, found {found}"
                )
            }
            AffineTypeError::AffineReuse(x) => write!(f, "affine variable {x} used more than once"),
            AffineTypeError::StaticEscape(x) => {
                write!(
                    f,
                    "static affine variable {x} would escape its enforcement scope"
                )
            }
            AffineTypeError::BangCapturesAffine(x) => {
                write!(f, "!-value captures affine variable {x}")
            }
            AffineTypeError::NotConvertible { affi, ml } => {
                write!(f, "no convertibility rule {affi} ∼ {ml}")
            }
        }
    }
}

impl std::error::Error for AffineTypeError {}

fn mismatch(
    expected: impl fmt::Display,
    found: impl fmt::Display,
    context: &'static str,
) -> AffineTypeError {
    AffineTypeError::Mismatch {
        expected: expected.to_string(),
        found: found.to_string(),
        context,
    }
}

/// Requires two usage sets to be disjoint (the `Ω = Ω1 ⊎ Ω2` split).
fn split(u1: &Usage, u2: &Usage) -> Result<Usage, AffineTypeError> {
    if let Some(x) = u1.intersection(u2).next() {
        return Err(AffineTypeError::AffineReuse(x.clone()));
    }
    Ok(u1.union(u2).cloned().collect())
}

/// Requires a usage set to contain no *static* affine variables (`no•`).
fn no_static(ctx: &AffineCtx, usage: &Usage) -> Result<(), AffineTypeError> {
    for x in usage {
        if ctx.affine_mode(x) == Some(Mode::Static) {
            return Err(AffineTypeError::StaticEscape(x.clone()));
        }
    }
    Ok(())
}

/// Checks a MiniML expression, returning its type and affine usage.
pub fn check_ml(
    ctx: &AffineCtx,
    e: &MlExpr,
    convertible: &dyn Fn(&AffiType, &MlType) -> bool,
) -> Result<(MlType, Usage), AffineTypeError> {
    match e {
        MlExpr::Unit => Ok((MlType::Unit, Usage::new())),
        MlExpr::Int(_) => Ok((MlType::Int, Usage::new())),
        MlExpr::Var(x) => ctx
            .ml
            .lookup(x)
            .cloned()
            .map(|t| (t, Usage::new()))
            .ok_or_else(|| AffineTypeError::Unbound(x.clone())),
        MlExpr::Pair(a, b) => {
            let (ta, ua) = check_ml(ctx, a, convertible)?;
            let (tb, ub) = check_ml(ctx, b, convertible)?;
            Ok((MlType::prod(ta, tb), split(&ua, &ub)?))
        }
        MlExpr::Fst(e1) => {
            let (t, u) = check_ml(ctx, e1, convertible)?;
            match t {
                MlType::Prod(a, _) => Ok((Arc::unwrap_or_clone(a), u)),
                other => Err(mismatch("a product type", other, "fst")),
            }
        }
        MlExpr::Snd(e1) => {
            let (t, u) = check_ml(ctx, e1, convertible)?;
            match t {
                MlType::Prod(_, b) => Ok((Arc::unwrap_or_clone(b), u)),
                other => Err(mismatch("a product type", other, "snd")),
            }
        }
        MlExpr::Inl(e1, ty) => match ty {
            MlType::Sum(l, _) => {
                let (t, u) = check_ml(ctx, e1, convertible)?;
                if &t == l.as_ref() {
                    Ok((ty.clone(), u))
                } else {
                    Err(mismatch(l, t, "inl"))
                }
            }
            other => Err(mismatch("a sum type", other, "inl annotation")),
        },
        MlExpr::Inr(e1, ty) => match ty {
            MlType::Sum(_, r) => {
                let (t, u) = check_ml(ctx, e1, convertible)?;
                if &t == r.as_ref() {
                    Ok((ty.clone(), u))
                } else {
                    Err(mismatch(r, t, "inr"))
                }
            }
            other => Err(mismatch("a sum type", other, "inr annotation")),
        },
        MlExpr::Match(s, x, l, y, r) => {
            let (ts, us) = check_ml(ctx, s, convertible)?;
            match ts {
                MlType::Sum(tl, tr) => {
                    let (t1, u1) = check_ml(
                        &ctx.with_ml(x.clone(), Arc::unwrap_or_clone(tl)),
                        l,
                        convertible,
                    )?;
                    let (t2, u2) = check_ml(
                        &ctx.with_ml(y.clone(), Arc::unwrap_or_clone(tr)),
                        r,
                        convertible,
                    )?;
                    if t1 != t2 {
                        return Err(mismatch(t1, t2, "match branches"));
                    }
                    // Branches are additive (only one runs): they may share
                    // affine resources with each other but not with the
                    // scrutinee.
                    let branches: Usage = u1.union(&u2).cloned().collect();
                    Ok((t1, split(&us, &branches)?))
                }
                other => Err(mismatch("a sum type", other, "match scrutinee")),
            }
        }
        MlExpr::Lam(x, ty, body) => {
            let (tb, ub) = check_ml(&ctx.with_ml(x.clone(), ty.clone()), body, convertible)?;
            // A MiniML function may be applied many times.  Capturing a
            // *dynamic* affine variable is fine — its runtime guard turns a
            // second evaluation into `fail Conv` — but a *static* one has no
            // guard, so it must not be captured.
            no_static(ctx, &ub)?;
            Ok((MlType::fun(ty.clone(), tb), ub))
        }
        MlExpr::App(f, a) => {
            let (tf, uf) = check_ml(ctx, f, convertible)?;
            let (ta, ua) = check_ml(ctx, a, convertible)?;
            match tf {
                MlType::Fun(dom, cod) => {
                    if *dom != ta {
                        return Err(mismatch(dom, ta, "application argument"));
                    }
                    Ok((Arc::unwrap_or_clone(cod), split(&uf, &ua)?))
                }
                other => Err(mismatch("a function type", other, "application head")),
            }
        }
        MlExpr::Ref(e1) => {
            let (t, u) = check_ml(ctx, e1, convertible)?;
            Ok((MlType::ref_(t), u))
        }
        MlExpr::Deref(e1) => {
            let (t, u) = check_ml(ctx, e1, convertible)?;
            match t {
                MlType::Ref(inner) => Ok((Arc::unwrap_or_clone(inner), u)),
                other => Err(mismatch("a reference type", other, "dereference")),
            }
        }
        MlExpr::Assign(a, b) => {
            let (ta, ua) = check_ml(ctx, a, convertible)?;
            let (tb, ub) = check_ml(ctx, b, convertible)?;
            match ta {
                MlType::Ref(inner) => {
                    if *inner != tb {
                        return Err(mismatch(inner, tb, "assignment"));
                    }
                    Ok((MlType::Unit, split(&ua, &ub)?))
                }
                other => Err(mismatch("a reference type", other, "assignment target")),
            }
        }
        MlExpr::Add(a, b) => {
            let (ta, ua) = check_ml(ctx, a, convertible)?;
            let (tb, ub) = check_ml(ctx, b, convertible)?;
            if ta != MlType::Int {
                return Err(mismatch(MlType::Int, ta, "addition"));
            }
            if tb != MlType::Int {
                return Err(mismatch(MlType::Int, tb, "addition"));
            }
            Ok((MlType::Int, split(&ua, &ub)?))
        }
        MlExpr::Boundary(affi, ty) => {
            let (ta, ua) = check_affi(ctx, affi, convertible)?;
            // The embedded Affi term crosses into unrestricted territory: it
            // must not close over statically-enforced resources (no•(Ωe)).
            no_static(ctx, &ua)?;
            if convertible(&ta, ty) {
                Ok((ty.clone(), ua))
            } else {
                Err(AffineTypeError::NotConvertible {
                    affi: ta,
                    ml: ty.clone(),
                })
            }
        }
    }
}

/// Checks an Affi expression, returning its type and affine usage.
pub fn check_affi(
    ctx: &AffineCtx,
    e: &AffiExpr,
    convertible: &dyn Fn(&AffiType, &MlType) -> bool,
) -> Result<(AffiType, Usage), AffineTypeError> {
    match e {
        AffiExpr::Unit => Ok((AffiType::Unit, Usage::new())),
        AffiExpr::Bool(_) => Ok((AffiType::Bool, Usage::new())),
        AffiExpr::Int(_) => Ok((AffiType::Int, Usage::new())),
        AffiExpr::UVar(x) => ctx
            .affi_unrestricted
            .lookup(x)
            .cloned()
            .map(|t| (t, Usage::new()))
            .ok_or_else(|| AffineTypeError::Unbound(x.clone())),
        AffiExpr::AVar(mode, x) => match ctx.omega.lookup(x) {
            Some((m, t)) if m == mode => Ok((t.clone(), Usage::from([x.clone()]))),
            _ => Err(AffineTypeError::Unbound(x.clone())),
        },
        AffiExpr::Lam(mode, x, ty, body) => {
            let (tb, ub) = check_affi(
                &ctx.with_affine(x.clone(), *mode, ty.clone()),
                body,
                convertible,
            )?;
            let mut used: Usage = ub;
            used.remove(x);
            if *mode == Mode::Dynamic {
                // A dynamic function may be duplicated once it crosses the
                // boundary, so it must not close over static resources.
                no_static(ctx, &used)?;
            }
            Ok((
                AffiType::Lolli(*mode, Arc::new(ty.clone()), Arc::new(tb)),
                used,
            ))
        }
        AffiExpr::App(f, a) => {
            let (tf, uf) = check_affi(ctx, f, convertible)?;
            let (ta, ua) = check_affi(ctx, a, convertible)?;
            match tf {
                AffiType::Lolli(_, dom, cod) => {
                    if *dom != ta {
                        return Err(mismatch(dom, ta, "application argument"));
                    }
                    Ok((Arc::unwrap_or_clone(cod), split(&uf, &ua)?))
                }
                other => Err(mismatch(
                    "an affine function type",
                    other,
                    "application head",
                )),
            }
        }
        AffiExpr::Bang(e1) => {
            let (t, u) = check_affi(ctx, e1, convertible)?;
            if let Some(x) = u.iter().next() {
                return Err(AffineTypeError::BangCapturesAffine(x.clone()));
            }
            Ok((AffiType::bang(t), Usage::new()))
        }
        AffiExpr::LetBang(x, e1, body) => {
            let (t, u1) = check_affi(ctx, e1, convertible)?;
            match t {
                AffiType::Bang(inner) => {
                    let (tb, u2) = check_affi(
                        &ctx.with_unrestricted(x.clone(), Arc::unwrap_or_clone(inner)),
                        body,
                        convertible,
                    )?;
                    Ok((tb, split(&u1, &u2)?))
                }
                other => Err(mismatch("a !-type", other, "let !")),
            }
        }
        AffiExpr::WithPair(a, b) => {
            // Additive: both components may mention the same resources.
            let (ta, ua) = check_affi(ctx, a, convertible)?;
            let (tb, ub) = check_affi(ctx, b, convertible)?;
            Ok((AffiType::with(ta, tb), ua.union(&ub).cloned().collect()))
        }
        AffiExpr::Proj1(e1) => {
            let (t, u) = check_affi(ctx, e1, convertible)?;
            match t {
                AffiType::With(a, _) => Ok((Arc::unwrap_or_clone(a), u)),
                other => Err(mismatch("a &-type", other, "projection .1")),
            }
        }
        AffiExpr::Proj2(e1) => {
            let (t, u) = check_affi(ctx, e1, convertible)?;
            match t {
                AffiType::With(_, b) => Ok((Arc::unwrap_or_clone(b), u)),
                other => Err(mismatch("a &-type", other, "projection .2")),
            }
        }
        AffiExpr::TensorPair(a, b) => {
            let (ta, ua) = check_affi(ctx, a, convertible)?;
            let (tb, ub) = check_affi(ctx, b, convertible)?;
            Ok((AffiType::tensor(ta, tb), split(&ua, &ub)?))
        }
        AffiExpr::LetTensor(a, b, e1, body) => {
            let (t, u1) = check_affi(ctx, e1, convertible)?;
            match t {
                AffiType::Tensor(t1, t2) => {
                    let inner_ctx = ctx
                        .with_affine(a.clone(), Mode::Static, Arc::unwrap_or_clone(t1))
                        .with_affine(b.clone(), Mode::Static, Arc::unwrap_or_clone(t2));
                    let (tb, mut u2) = check_affi(&inner_ctx, body, convertible)?;
                    u2.remove(a);
                    u2.remove(b);
                    Ok((tb, split(&u1, &u2)?))
                }
                other => Err(mismatch("a ⊗-type", other, "let (a, b)")),
            }
        }
        AffiExpr::Boundary(ml, ty) => {
            let (tm, um) = check_ml(ctx, ml, convertible)?;
            if convertible(ty, &tm) {
                Ok((ty.clone(), um))
            } else {
                Err(AffineTypeError::NotConvertible {
                    affi: ty.clone(),
                    ml: tm,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deny_all(_: &AffiType, _: &MlType) -> bool {
        false
    }

    fn allow_int_bool(affi: &AffiType, ml: &MlType) -> bool {
        matches!((affi, ml), (AffiType::Bool, MlType::Int))
            || matches!((affi, ml), (AffiType::Int, MlType::Int))
    }

    #[test]
    fn affine_variable_single_use_is_accepted() {
        let f = AffiExpr::lam("a", AffiType::Int, AffiExpr::avar("a"));
        let (ty, used) = check_affi(&AffineCtx::empty(), &f, &deny_all).unwrap();
        assert_eq!(ty, AffiType::lolli(AffiType::Int, AffiType::Int));
        assert!(used.is_empty());
    }

    #[test]
    fn affine_variable_double_use_is_rejected() {
        // λa◦:int. (a, a) — the tensor pair needs the variable twice.
        let f = AffiExpr::lam(
            "a",
            AffiType::Int,
            AffiExpr::tensor(AffiExpr::avar("a"), AffiExpr::avar("a")),
        );
        let err = check_affi(&AffineCtx::empty(), &f, &deny_all).unwrap_err();
        assert_eq!(err, AffineTypeError::AffineReuse(Var::new("a")));
    }

    #[test]
    fn affine_variable_can_be_dropped() {
        // λa◦:int. 7 — affine (not linear): dropping is fine.
        let f = AffiExpr::lam("a", AffiType::Int, AffiExpr::int(7));
        assert!(check_affi(&AffineCtx::empty(), &f, &deny_all).is_ok());
    }

    #[test]
    fn with_pairs_share_but_tensor_pairs_split() {
        // λa•:int. ⟨a, a⟩ is fine (only one side will be used)…
        let ok = AffiExpr::lam_static(
            "a",
            AffiType::Int,
            AffiExpr::with_pair(AffiExpr::avar_static("a"), AffiExpr::avar_static("a")),
        );
        assert!(check_affi(&AffineCtx::empty(), &ok, &deny_all).is_ok());
        // …and projecting gives the component type.
        let p = AffiExpr::proj2(AffiExpr::with_pair(AffiExpr::int(1), AffiExpr::bool_(true)));
        let (ty, _) = check_affi(&AffineCtx::empty(), &p, &deny_all).unwrap();
        assert_eq!(ty, AffiType::Bool);
    }

    #[test]
    fn dynamic_lambdas_cannot_close_over_static_resources() {
        // λa•:int. λb◦:unit. a  — the inner dynamic lambda closes over a•.
        let bad = AffiExpr::lam_static(
            "a",
            AffiType::Int,
            AffiExpr::lam("b", AffiType::Unit, AffiExpr::avar_static("a")),
        );
        let err = check_affi(&AffineCtx::empty(), &bad, &deny_all).unwrap_err();
        assert_eq!(err, AffineTypeError::StaticEscape(Var::new("a")));

        // A *static* inner lambda may close over it.
        let ok = AffiExpr::lam_static(
            "a",
            AffiType::Int,
            AffiExpr::lam_static("b", AffiType::Unit, AffiExpr::avar_static("a")),
        );
        assert!(check_affi(&AffineCtx::empty(), &ok, &deny_all).is_ok());
    }

    #[test]
    fn bang_requires_no_affine_capture() {
        let bad = AffiExpr::lam("a", AffiType::Int, AffiExpr::bang(AffiExpr::avar("a")));
        assert!(matches!(
            check_affi(&AffineCtx::empty(), &bad, &deny_all),
            Err(AffineTypeError::BangCapturesAffine(_))
        ));
        let ok = AffiExpr::bang(AffiExpr::int(3));
        let (ty, _) = check_affi(&AffineCtx::empty(), &ok, &deny_all).unwrap();
        assert_eq!(ty, AffiType::bang(AffiType::Int));
    }

    #[test]
    fn let_bang_binds_unrestrictedly() {
        // let !x = !5 in x + via tensor using x twice is fine: x is unrestricted.
        let e = AffiExpr::let_bang(
            "x",
            AffiExpr::bang(AffiExpr::int(5)),
            AffiExpr::tensor(AffiExpr::uvar("x"), AffiExpr::uvar("x")),
        );
        let (ty, _) = check_affi(&AffineCtx::empty(), &e, &deny_all).unwrap();
        assert_eq!(ty, AffiType::tensor(AffiType::Int, AffiType::Int));
    }

    #[test]
    fn let_tensor_binds_two_static_affine_variables() {
        let e = AffiExpr::let_tensor(
            "a",
            "b",
            AffiExpr::tensor(AffiExpr::int(1), AffiExpr::int(2)),
            AffiExpr::tensor(AffiExpr::avar_static("a"), AffiExpr::avar_static("b")),
        );
        let (ty, _) = check_affi(&AffineCtx::empty(), &e, &deny_all).unwrap();
        assert_eq!(ty, AffiType::tensor(AffiType::Int, AffiType::Int));

        // Using one of them twice is rejected.
        let bad = AffiExpr::let_tensor(
            "a",
            "b",
            AffiExpr::tensor(AffiExpr::int(1), AffiExpr::int(2)),
            AffiExpr::tensor(AffiExpr::avar_static("a"), AffiExpr::avar_static("a")),
        );
        assert!(matches!(
            check_affi(&AffineCtx::empty(), &bad, &deny_all),
            Err(AffineTypeError::AffineReuse(_))
        ));
    }

    #[test]
    fn miniml_lambdas_may_capture_dynamic_but_not_static_affine_variables() {
        // A MiniML lambda whose body mentions a *dynamic* affine variable is
        // fine: the runtime guard turns a second evaluation into fail Conv.
        let ml_lam = MlExpr::lam(
            "y",
            MlType::Unit,
            MlExpr::boundary(AffiExpr::avar("a"), MlType::Int),
        );
        let dyn_ctx = AffineCtx::empty().with_affine(Var::new("a"), Mode::Dynamic, AffiType::Int);
        let (_, used) = check_ml(&dyn_ctx, &ml_lam, &allow_int_bool).unwrap();
        assert!(used.contains(&Var::new("a")));

        // The same capture of a *static* affine variable has no guard and is
        // rejected.
        let ml_lam_static = MlExpr::lam(
            "y",
            MlType::Unit,
            MlExpr::boundary(AffiExpr::avar_static("a"), MlType::Int),
        );
        let static_ctx = AffineCtx::empty().with_affine(Var::new("a"), Mode::Static, AffiType::Int);
        let err = check_ml(&static_ctx, &ml_lam_static, &allow_int_bool).unwrap_err();
        assert!(matches!(err, AffineTypeError::StaticEscape(_)));
    }

    #[test]
    fn boundaries_check_convertibility() {
        // ⦇ true ⦈int : Affi bool used as MiniML int.
        let e = MlExpr::boundary(AffiExpr::bool_(true), MlType::Int);
        assert!(check_ml(&AffineCtx::empty(), &e, &deny_all).is_err());
        let (ty, _) = check_ml(&AffineCtx::empty(), &e, &allow_int_bool).unwrap();
        assert_eq!(ty, MlType::Int);

        // ⦇ 3 ⦈int : MiniML int used as Affi int.
        let e = AffiExpr::boundary(MlExpr::int(3), AffiType::Int);
        let (ty, _) = check_affi(&AffineCtx::empty(), &e, &allow_int_bool).unwrap();
        assert_eq!(ty, AffiType::Int);
    }

    #[test]
    fn static_resources_cannot_cross_into_miniml() {
        // λa•:int. ⦇ ⦇a•⦈int ⦈int : the embedded Affi term uses a static
        // variable, so the MiniML-side boundary must reject it.
        let bad = AffiExpr::lam_static(
            "a",
            AffiType::Int,
            AffiExpr::boundary(
                MlExpr::boundary(AffiExpr::avar_static("a"), MlType::Int),
                AffiType::Int,
            ),
        );
        let err = check_affi(&AffineCtx::empty(), &bad, &allow_int_bool).unwrap_err();
        assert_eq!(err, AffineTypeError::StaticEscape(Var::new("a")));

        // The same shape with a dynamic variable is fine (the runtime guard
        // takes over).
        let ok = AffiExpr::lam(
            "a",
            AffiType::Int,
            AffiExpr::boundary(
                MlExpr::boundary(AffiExpr::avar("a"), MlType::Int),
                AffiType::Int,
            ),
        );
        assert!(check_affi(&AffineCtx::empty(), &ok, &allow_int_bool).is_ok());
    }

    #[test]
    fn miniml_application_splits_affine_usage() {
        // (λx:int. x) applied in a context where both the function and the
        // argument mention the same affine variable through boundaries.
        let ctx = AffineCtx::empty().with_affine(Var::new("a"), Mode::Dynamic, AffiType::Int);
        let use_a = MlExpr::boundary(AffiExpr::avar("a"), MlType::Int);
        let e = MlExpr::add(use_a.clone(), use_a);
        assert!(matches!(
            check_ml(&ctx, &e, &allow_int_bool),
            Err(AffineTypeError::AffineReuse(_))
        ));
    }

    #[test]
    fn error_messages_render() {
        assert!(AffineTypeError::AffineReuse(Var::new("a"))
            .to_string()
            .contains("more than once"));
        assert!(AffineTypeError::NotConvertible {
            affi: AffiType::Bool,
            ml: MlType::Unit
        }
        .to_string()
        .contains("∼"));
    }
}
