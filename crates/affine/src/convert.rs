//! The §4 convertibility rules and their LCVM glue code (Fig. 9).
//!
//! Glue code here is *ordinary target code*: each direction of a conversion
//! is an LCVM function (a `λ`), and a boundary compiles to an application of
//! that function to the compiled term.  The rules are derived recursively:
//!
//! * `unit ∼ unit`, `int ∼ int` — identities;
//! * `bool ∼ int` — Affi booleans are already 0/1; the other direction
//!   collapses every integer with `if e {0} {1}` (Fig. 9);
//! * `!𝜏 ∼ τ` when `𝜏 ∼ τ` — the exponential is erased by compilation;
//! * `𝜏1 ⊗ 𝜏2 ∼ τ1 × τ2` when the components are convertible;
//! * `𝜏1 ⊸ 𝜏2 ∼ (unit → τ1) → τ2` when the components are convertible — the
//!   centrepiece of the case study: an affine function is exposed to MiniML
//!   as a function expecting a *thunked* argument, and a MiniML function is
//!   exposed to Affi by re-protecting the argument with the `thunk(·)` guard
//!   (Fig. 9, both directions);
//! * there is **no** rule for the static arrow `⊸•` — it cannot cross the
//!   boundary soundly, and the test suite checks that it is rejected.
//!
//! The binder names (`cv%fun`, `cv%thnk`, …) and every closed subterm of
//! the glue (`xthnk ()`, `thunk(xconv)`, `x xacc`, the identity and
//! `int ↦ bool` collapse functions, and the fixed parts of the
//! [`thunk_guard`]) are built once per process and shared by `Arc`.  Each
//! direction of a glue pair is an `Arc<Expr>` too, so a compound rule
//! points at its memoized sub-glue: a derivation allocates only the nodes
//! on the path from its root to its sub-glue, root included, and the glue
//! is the same term, names included, that building it afresh would give.

use crate::compile::thunk_guard;
use crate::syntax::{AffiType, MlType, Mode};
use lcvm::Expr;
use semint_core::convert::{ConversionPair, ConversionScheme, GlueCache};
use semint_core::Var;
use std::sync::{Arc, OnceLock};

/// The §4 conversion rule set, memoized through a shared
/// [`GlueCache`] (clones share the cache).
#[derive(Debug, Clone, Default)]
pub struct AffineConversions {
    cache: GlueCache<AffiType, MlType, Arc<Expr>>,
}

impl AffineConversions {
    /// A fresh rule set with a cold glue cache (this mirrors the other case
    /// studies' constructors).
    pub fn standard() -> Self {
        AffineConversions::default()
    }

    /// Derives `𝜏 ∼ τ` (memoized), returning `(C_{𝜏↦τ}, C_{τ↦𝜏})` as LCVM
    /// functions (their roots copied out of the cache's `Arc`s).
    pub fn derive(&self, affi: &AffiType, ml: &MlType) -> Option<(Expr, Expr)> {
        self.derive_pair(affi, ml)
            .map(|p| (Expr::clone(&p.a_to_b), Expr::clone(&p.b_to_a)))
    }
}

impl ConversionScheme for AffineConversions {
    type TyA = AffiType;
    type TyB = MlType;
    type Glue = Arc<Expr>;

    fn glue_cache(&self) -> &GlueCache<AffiType, MlType, Arc<Expr>> {
        &self.cache
    }

    /// One Fig. 9 derivation step; sub-derivations recurse through the
    /// memoized [`ConversionScheme::derive_pair`], and compound glue points
    /// at their glue.
    fn derive_uncached(&self, affi: &AffiType, ml: &MlType) -> Option<ConversionPair<Arc<Expr>>> {
        let pair = match (affi, ml) {
            (AffiType::Unit, MlType::Unit) => Some((identity(), identity())),
            (AffiType::Int, MlType::Int) => Some((identity(), identity())),
            // C_{bool↦int}(e) ≜ e        C_{int↦bool}(e) ≜ if e 0 1
            (AffiType::Bool, MlType::Int) => Some((identity(), collapse_to_bool())),
            // !𝜏 is erased by compilation, so it converts exactly when 𝜏 does.
            (AffiType::Bang(inner), _) => {
                let c = self.derive_pair(inner, ml)?;
                Some((Arc::clone(&c.a_to_b), Arc::clone(&c.b_to_a)))
            }
            // 𝜏1 ⊗ 𝜏2 ∼ τ1 × τ2: componentwise.
            (AffiType::Tensor(a1, a2), MlType::Prod(m1, m2)) => {
                let c1 = self.derive_pair(a1, m1)?;
                let c2 = self.derive_pair(a2, m2)?;
                Some((
                    pair_map(&c1.a_to_b, &c2.a_to_b),
                    pair_map(&c1.b_to_a, &c2.b_to_a),
                ))
            }
            // 𝜏1 ⊸ 𝜏2 ∼ (unit → τ1) → τ2 (dynamic arrows only).
            (AffiType::Lolli(Mode::Dynamic, a1, a2), MlType::Fun(thunk_ty, m2)) => {
                let m1 = match thunk_ty.as_ref() {
                    MlType::Fun(u, m1) if **u == MlType::Unit => m1,
                    _ => return None,
                };
                let arg = self.derive_pair(a1, m1)?;
                let res = self.derive_pair(a2, m2)?;
                Some((
                    lolli_to_ml(&arg.b_to_a, &res.a_to_b),
                    ml_to_lolli(&arg.a_to_b, &res.b_to_a),
                ))
            }
            _ => None,
        };
        pair.map(|(to_ml, to_affi)| ConversionPair::new(to_ml, to_affi))
    }
}

/// The binder names and closed subterms of the §4 glue, built once per
/// process and shared by every derivation, as `stacklang::builder` shares
/// `SWAP` and `DROP`.  A derivation allocates only the nodes on the path
/// from its root to its sub-glue; the set is fixed and does not grow with
/// the population.
struct Parts {
    /// `λx. x`.
    identity: Arc<Expr>,
    /// `λx. if x { 0 } { 1 }`.
    collapse_to_bool: Arc<Expr>,
    /// The binder of [`pair_map`], and its `fst p` and `snd p`.
    p: Var,
    fst_p: Arc<Expr>,
    snd_p: Arc<Expr>,
    /// The binders of the `⊸` wrappers.
    fun: Var,
    thnk: Var,
    conv: Var,
    acc: Var,
    /// `xthnk ()`, `thunk(xconv)` and `x xacc`.
    force_thnk: Arc<Expr>,
    guard_conv: Arc<Expr>,
    call_fun: Arc<Expr>,
}

fn parts() -> &'static Parts {
    static PARTS: OnceLock<Parts> = OnceLock::new();
    PARTS.get_or_init(|| {
        let x = Var::new("cv%x");
        let p = Var::new("cv%p");
        let [fun, thnk, conv, acc] = ["cv%fun", "cv%thnk", "cv%conv", "cv%acc"].map(Var::new);
        Parts {
            identity: Arc::new(Expr::lam(x.clone(), Expr::Var(x.clone()))),
            collapse_to_bool: Arc::new(Expr::lam(
                x.clone(),
                Expr::if_(Expr::Var(x), Expr::int(0), Expr::int(1)),
            )),
            fst_p: Arc::new(Expr::fst(Expr::Var(p.clone()))),
            snd_p: Arc::new(Expr::snd(Expr::Var(p.clone()))),
            p,
            force_thnk: Arc::new(Expr::app(Expr::Var(thnk.clone()), Expr::unit())),
            guard_conv: Arc::new(thunk_guard(Expr::Var(conv.clone()))),
            call_fun: Arc::new(Expr::app(Expr::Var(fun.clone()), Expr::Var(acc.clone()))),
            fun,
            thnk,
            conv,
            acc,
        }
    })
}

fn identity() -> Arc<Expr> {
    Arc::clone(&parts().identity)
}

/// `λx. if x { 0 } { 1 }`: collapses an arbitrary MiniML integer into an Affi
/// boolean (0 stays true, everything else becomes the canonical false).
fn collapse_to_bool() -> Arc<Expr> {
    Arc::clone(&parts().collapse_to_bool)
}

/// `λp. (c1 (fst p), c2 (snd p))`.
fn pair_map(c1: &Arc<Expr>, c2: &Arc<Expr>) -> Arc<Expr> {
    let parts = parts();
    Arc::new(Expr::Lam(
        parts.p.clone(),
        Arc::new(Expr::Pair(
            Arc::new(Expr::App(Arc::clone(c1), Arc::clone(&parts.fst_p))),
            Arc::new(Expr::App(Arc::clone(c2), Arc::clone(&parts.snd_p))),
        )),
    ))
}

/// `C_{𝜏1⊸𝜏2 ↦ (unit→τ1)→τ2}` (Fig. 9):
///
/// ```text
/// λx. λxthnk. let xconv = C_{τ1↦𝜏1}(xthnk ()) in
///             let xacc  = thunk(xconv) in
///             C_{𝜏2↦τ2}(x xacc)
/// ```
///
/// The MiniML caller provides a `unit → τ1` thunk; it is forced exactly once
/// here, converted, and re-protected with the one-shot guard that the
/// compiled affine function expects.
fn lolli_to_ml(c_arg_to_affi: &Arc<Expr>, c_res_to_ml: &Arc<Expr>) -> Arc<Expr> {
    let parts = parts();
    let convert_arg = Expr::App(Arc::clone(c_arg_to_affi), Arc::clone(&parts.force_thnk));
    let convert_res = Expr::App(Arc::clone(c_res_to_ml), Arc::clone(&parts.call_fun));
    let body = Expr::Let(
        parts.conv.clone(),
        Arc::new(convert_arg),
        Arc::new(Expr::Let(
            parts.acc.clone(),
            Arc::clone(&parts.guard_conv),
            Arc::new(convert_res),
        )),
    );
    Arc::new(Expr::lam(
        parts.fun.clone(),
        Expr::lam(parts.thnk.clone(), body),
    ))
}

/// `C_{(unit→τ1)→τ2 ↦ 𝜏1⊸𝜏2}` (Fig. 9):
///
/// ```text
/// λx. λxthnk. let xacc = thunk(C_{𝜏1↦τ1}(xthnk ())) in C_{τ2↦𝜏2}(x xacc)
/// ```
///
/// The Affi caller passes a guarded thunk; the wrapper repackages it as the
/// `unit → τ1` thunk the MiniML function expects, converting the payload on
/// first (and only) forcing.
fn ml_to_lolli(c_arg_to_ml: &Arc<Expr>, c_res_to_affi: &Arc<Expr>) -> Arc<Expr> {
    let parts = parts();
    let convert_arg = Expr::App(Arc::clone(c_arg_to_ml), Arc::clone(&parts.force_thnk));
    let convert_res = Expr::App(Arc::clone(c_res_to_affi), Arc::clone(&parts.call_fun));
    let body = Expr::let_(parts.acc.clone(), thunk_guard(convert_arg), convert_res);
    Arc::new(Expr::lam(
        parts.fun.clone(),
        Expr::lam(parts.thnk.clone(), body),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcvm::{Halt, Machine, Value};
    use semint_core::{ErrorCode, Fuel};

    fn run(e: Expr) -> Halt {
        Machine::run_expr(e, Fuel::default()).halt
    }

    fn conv() -> AffineConversions {
        AffineConversions::standard()
    }

    #[test]
    fn base_rules_exist_and_static_arrow_is_rejected() {
        assert!(conv().derivable(&AffiType::Unit, &MlType::Unit));
        assert!(conv().derivable(&AffiType::Bool, &MlType::Int));
        assert!(conv().derivable(&AffiType::Int, &MlType::Int));
        assert!(conv().derivable(
            &AffiType::lolli(AffiType::Int, AffiType::Int),
            &MlType::fun(MlType::fun(MlType::Unit, MlType::Int), MlType::Int)
        ));
        // ⊸ does NOT convert to a plain τ1 → τ2 (the thunking is essential)…
        assert!(!conv().derivable(
            &AffiType::lolli(AffiType::Int, AffiType::Int),
            &MlType::fun(MlType::Int, MlType::Int)
        ));
        // …and the static arrow cannot cross at all.
        assert!(!conv().derivable(
            &AffiType::lolli_static(AffiType::Int, AffiType::Int),
            &MlType::fun(MlType::fun(MlType::Unit, MlType::Int), MlType::Int)
        ));
        assert!(!conv().derivable(&AffiType::Bool, &MlType::Unit));
    }

    #[test]
    fn int_to_bool_collapses_all_nonzero_values() {
        let (_, to_affi) = conv().derive(&AffiType::Bool, &MlType::Int).unwrap();
        assert_eq!(
            run(Expr::app(to_affi.clone(), Expr::int(0))),
            Halt::Value(Value::Int(0))
        );
        assert_eq!(
            run(Expr::app(to_affi.clone(), Expr::int(5))),
            Halt::Value(Value::Int(1))
        );
        assert_eq!(
            run(Expr::app(to_affi, Expr::int(-3))),
            Halt::Value(Value::Int(1))
        );
    }

    #[test]
    fn tensor_prod_conversion_is_componentwise() {
        let affi = AffiType::tensor(AffiType::Bool, AffiType::Int);
        let ml = MlType::prod(MlType::Int, MlType::Int);
        let (to_ml, to_affi) = conv().derive(&affi, &ml).unwrap();
        let pair = Expr::pair(Expr::int(0), Expr::int(7));
        assert_eq!(
            run(Expr::app(to_ml, pair.clone())),
            Halt::Value(Value::Pair(
                Box::new(Value::Int(0)),
                Box::new(Value::Int(7))
            ))
        );
        // Going to Affi collapses the first component to a boolean.
        let noisy = Expr::pair(Expr::int(9), Expr::int(7));
        assert_eq!(
            run(Expr::app(to_affi, noisy)),
            Halt::Value(Value::Pair(
                Box::new(Value::Int(1)),
                Box::new(Value::Int(7))
            ))
        );
    }

    #[test]
    fn bang_erases_to_the_underlying_conversion() {
        let (to_ml, _) = conv()
            .derive(&AffiType::bang(AffiType::Bool), &MlType::Int)
            .unwrap();
        assert_eq!(
            run(Expr::app(to_ml, Expr::int(1))),
            Halt::Value(Value::Int(1))
        );
    }

    #[test]
    fn affine_function_exposed_to_miniml_can_be_called_once() {
        // The compiled Affi identity of type int ⊸ int: expects a guarded
        // thunk and forces it once.
        let affi_identity = Expr::lam("a", Expr::app(Expr::var("a"), Expr::unit()));
        let affi_ty = AffiType::lolli(AffiType::Int, AffiType::Int);
        let ml_ty = MlType::fun(MlType::fun(MlType::Unit, MlType::Int), MlType::Int);
        let (to_ml, _) = conv().derive(&affi_ty, &ml_ty).unwrap();
        // MiniML sees a ((unit → int) → int) and calls it with a thunk.
        let prog = Expr::app(
            Expr::app(to_ml, affi_identity),
            Expr::lam("_", Expr::int(11)),
        );
        assert_eq!(run(prog), Halt::Value(Value::Int(11)));
    }

    #[test]
    fn miniml_function_exposed_to_affi_fails_conv_if_it_forces_twice() {
        // A MiniML function (unit → int) → int that rudely forces its thunk
        // twice; converted to int ⊸ int and called from Affi with a guarded
        // argument, the second force hits the guard.
        let rude = Expr::lam(
            "t",
            Expr::add(
                Expr::app(Expr::var("t"), Expr::unit()),
                Expr::app(Expr::var("t"), Expr::unit()),
            ),
        );
        let affi_ty = AffiType::lolli(AffiType::Int, AffiType::Int);
        let ml_ty = MlType::fun(MlType::fun(MlType::Unit, MlType::Int), MlType::Int);
        let (_, to_affi) = conv().derive(&affi_ty, &ml_ty).unwrap();
        // The Affi caller passes a guarded thunk (as the compiler would).
        let prog = Expr::app(Expr::app(to_affi, rude), thunk_guard(Expr::int(4)));
        assert_eq!(run(prog), Halt::Fail(ErrorCode::Conv));

        // A polite MiniML function that forces once works fine.
        let polite = Expr::lam(
            "t",
            Expr::add(Expr::app(Expr::var("t"), Expr::unit()), Expr::int(1)),
        );
        let (_, to_affi) = conv().derive(&affi_ty, &ml_ty).unwrap();
        let prog = Expr::app(Expr::app(to_affi, polite), thunk_guard(Expr::int(4)));
        assert_eq!(run(prog), Halt::Value(Value::Int(5)));
    }

    #[test]
    fn repeated_derivations_hit_the_glue_cache() {
        let c = conv();
        let affi = AffiType::lolli(
            AffiType::tensor(AffiType::Bool, AffiType::Int),
            AffiType::tensor(AffiType::Int, AffiType::Bool),
        );
        let ml = MlType::fun(
            MlType::fun(MlType::Unit, MlType::prod(MlType::Int, MlType::Int)),
            MlType::prod(MlType::Int, MlType::Int),
        );
        let first = c.derive(&affi, &ml);
        assert!(first.is_some());
        let after_first = c.glue_cache().stats();
        let second = c.derive(&affi, &ml);
        assert_eq!(first, second, "cached result is observably identical");
        let after_second = c.glue_cache().stats();
        assert_eq!(after_second.misses, after_first.misses);
        assert_eq!(after_second.hits, after_first.hits + 1);
        assert_eq!(first, AffineConversions::standard().derive(&affi, &ml));
    }

    #[test]
    fn higher_order_conversion_round_trip() {
        // Convert an Affi function to MiniML and back, then call it from Affi:
        // the double wrapping must still compute the right answer.
        let affi_ty = AffiType::lolli(AffiType::Int, AffiType::Int);
        let ml_ty = MlType::fun(MlType::fun(MlType::Unit, MlType::Int), MlType::Int);
        let (to_ml, _) = conv().derive(&affi_ty, &ml_ty).unwrap();
        let (_, to_affi) = conv().derive(&affi_ty, &ml_ty).unwrap();
        let affi_inc = Expr::lam(
            "a",
            Expr::add(Expr::app(Expr::var("a"), Expr::unit()), Expr::int(1)),
        );
        let round_tripped = Expr::app(to_affi, Expr::app(to_ml, affi_inc));
        let prog = Expr::app(round_tripped, thunk_guard(Expr::int(10)));
        assert_eq!(run(prog), Halt::Value(Value::Int(11)));
    }
}
