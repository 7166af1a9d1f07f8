//! The §5 convertibility rules and their LCVM glue code.
//!
//! * `ref τ ∼ REF 𝜏` (where `REF 𝜏 ≜ ∃ζ. cap ζ 𝜏 ⊗ !ptr ζ`) when `τ ∼ 𝜏`:
//!
//!   ```text
//!   C_{REF 𝜏 ↦ ref τ}(e) ≜ let x = snd e in let _ = (x := C_{𝜏↦τ}(!x)) in gcmov x
//!   C_{ref τ ↦ REF 𝜏}(e) ≜ let x = alloc C_{τ↦𝜏}(!e) in ((), x)
//!   ```
//!
//!   Going from L3 to MiniML the capability certifies unique ownership, so
//!   the contents are converted **in place** and the very same location is
//!   handed to the GC (`gcmov`) — no copy.  Going the other way aliases may
//!   exist, so the contents are copied into a fresh manual cell.
//!
//! * `⟨𝜏⟩ ∼ 𝜏` for `𝜏 ∈ Duplicable`: both directions are the identity — this
//!   is what lets L3 values flow through MiniML generics.
//!
//! * `∀α. α → α → α ∼ bool` (Church booleans, the paper's example (2)):
//!
//!   ```text
//!   C_{BOOL↦bool}(e) ≜ e [] () 0 1       C_{bool↦BOOL}(e) ≜ if0 e {Λα.λx.λy.x} {Λα.λx.λy.y}
//!   ```
//!
//! * `τ1 → τ2 ∼ !(!𝜏1 ⊸ 𝜏2)` when the components are convertible: plain
//!   function wrapping (L3's linearity is static, so no runtime guards are
//!   needed, unlike §4).
//!
//! * `unit ∼ unit` and `int ∼ int`-style base identities.
//!
//! The binder names (`cv%pkg`, `cv%loc`, `cv%f`, …) and every closed
//! subterm of the glue (`snd pkg`, `!loc`, `gcmov loc`, `((), new)`, the
//! identity, the `int ↦ bool` collapse and both Church-boolean functions)
//! are built once per process and shared by `Arc`.  A derivation allocates
//! only the nodes on the path from its root to its sub-glue, and the glue
//! is the same term, names included, that building it afresh would give.

use crate::syntax::{L3Type, PolyType};
use crate::typecheck::ref_like_payload;
use lcvm::Expr;
use semint_core::convert::{ConversionPair, ConversionScheme, GlueCache};
use semint_core::Var;
use std::sync::{Arc, OnceLock};

/// The §5 conversion rule set, memoized through a shared
/// [`GlueCache`] (clones share the cache).
#[derive(Debug, Clone, Default)]
pub struct MemGcConversions {
    cache: GlueCache<PolyType, L3Type, Expr>,
}

impl MemGcConversions {
    /// The standard rule set with a cold glue cache.
    pub fn standard() -> Self {
        MemGcConversions::default()
    }

    /// Derives `τ ∼ 𝜏` (memoized), returning `(C_{τ↦𝜏}, C_{𝜏↦τ})`.
    pub fn derive(&self, ml: &PolyType, l3: &L3Type) -> Option<(Expr, Expr)> {
        self.derive_pair(ml, l3)
            .map(|p| (p.a_to_b.clone(), p.b_to_a.clone()))
    }
}

impl ConversionScheme for MemGcConversions {
    type TyA = PolyType;
    type TyB = L3Type;
    type Glue = Expr;

    fn glue_cache(&self) -> &GlueCache<PolyType, L3Type, Expr> {
        &self.cache
    }

    /// One §5 derivation step; sub-derivations recurse through the memoized
    /// [`MemGcConversions::derive`].
    fn derive_uncached(&self, ml: &PolyType, l3: &L3Type) -> Option<ConversionPair<Expr>> {
        // Foreign embedding: ⟨𝜏⟩ ∼ 𝜏 for Duplicable 𝜏, no runtime consequence.
        if let PolyType::Foreign(inner) = ml {
            if inner.as_ref() == l3 && l3.is_duplicable() {
                return Some(ConversionPair::new(identity(), identity()));
            }
            return None;
        }
        let pair = match (ml, l3) {
            (PolyType::Unit, L3Type::Unit) => Some((identity(), identity())),
            // MiniML int ∼ L3 bool: ints collapse onto 0/1.
            (PolyType::Int, L3Type::Bool) => Some((collapse_to_bool(), identity())),
            // Church booleans ∼ L3 booleans (paper example (2)).
            (ml_ty, L3Type::Bool) if *ml_ty == PolyType::church_bool() => {
                Some((church_to_bool(), bool_to_church()))
            }
            // ref τ ∼ REF 𝜏 when τ ∼ 𝜏.
            (PolyType::Ref(t), l3_ref) => {
                let payload = ref_like_payload(l3_ref)?;
                let (c_ml_to_l3, c_l3_to_ml) = self.derive(t, &payload)?;
                Some((gc_ref_to_l3(c_ml_to_l3), l3_ref_to_gc(c_l3_to_ml)))
            }
            // τ1 → τ2 ∼ !(!𝜏1 ⊸ 𝜏2) when the pieces are convertible.
            (PolyType::Fun(m1, m2), L3Type::Bang(inner)) => {
                if let L3Type::Lolli(a1, a2) = inner.as_ref() {
                    if let L3Type::Bang(a1_inner) = a1.as_ref() {
                        let (c_arg_ml_to_l3, c_arg_l3_to_ml) = self.derive(m1, a1_inner)?;
                        let (c_res_ml_to_l3, c_res_l3_to_ml) = self.derive(m2, a2)?;
                        return Some(ConversionPair::new(
                            wrap_fun(c_arg_l3_to_ml, c_res_ml_to_l3),
                            wrap_fun(c_arg_ml_to_l3, c_res_l3_to_ml),
                        ));
                    }
                }
                None
            }
            // Pairs, componentwise.
            (PolyType::Prod(m1, m2), L3Type::Tensor(a1, a2)) => {
                let (c1_to, c1_from) = self.derive(m1, a1)?;
                let (c2_to, c2_from) = self.derive(m2, a2)?;
                Some((pair_map(c1_to, c2_to), pair_map(c1_from, c2_from)))
            }
            _ => None,
        };
        pair.map(|(to_l3, from_l3)| ConversionPair::new(to_l3, from_l3))
    }
}

/// The binder names and closed subterms of the §5 glue, built once per
/// process and shared by every derivation, as `stacklang::builder` shares
/// `SWAP` and `DROP`.  A derivation allocates only the nodes on the path
/// from its root to its sub-glue; the set is fixed and does not grow with
/// the population.
struct Parts {
    /// The closed rules: `int ∼ bool`, Church booleans and the identity.
    identity: Expr,
    collapse_to_bool: Expr,
    church_to_bool: Expr,
    bool_to_church: Expr,
    /// The binder of [`pair_map`], and its `fst p` and `snd p`.
    p: Var,
    fst_p: Arc<Expr>,
    snd_p: Arc<Expr>,
    /// [`l3_ref_to_gc`]'s binders, `snd pkg`, `loc`, `!loc` and `gcmov loc`.
    pkg: Var,
    loc: Var,
    wildcard: Var,
    snd_pkg: Arc<Expr>,
    loc_var: Arc<Expr>,
    deref_loc: Arc<Expr>,
    gcmov_loc: Arc<Expr>,
    /// [`gc_ref_to_l3`]'s binders, `!ref` and `((), new)`.
    gc_ref: Var,
    new_cell: Var,
    deref_gc_ref: Arc<Expr>,
    package_new: Arc<Expr>,
    /// [`wrap_fun`]'s binders and their variables.
    f: Var,
    a: Var,
    f_var: Arc<Expr>,
    a_var: Arc<Expr>,
}

fn parts() -> &'static Parts {
    static PARTS: OnceLock<Parts> = OnceLock::new();
    PARTS.get_or_init(|| {
        let x = Var::new("cv%x");
        let b = Var::new("cv%b");
        let p = Var::new("cv%p");
        let [pkg, loc, gc_ref, new_cell] = ["cv%pkg", "cv%loc", "cv%ref", "cv%new"].map(Var::new);
        let [f, a] = ["cv%f", "cv%a"].map(Var::new);
        // C_{BOOL↦bool}(e) ≜ e () 0 1: instantiate the Church boolean (type
        // application compiles to application to `()`) and select 0 or 1.
        let church_to_bool = Expr::lam(
            b.clone(),
            Expr::app(
                Expr::app(Expr::app(Expr::Var(b.clone()), Expr::unit()), Expr::int(0)),
                Expr::int(1),
            ),
        );
        // C_{bool↦BOOL}(e): branch on the boolean and return the matching
        // compiled Church constant `Λα. λx. λy. x/y`.
        let tru = Expr::lam("_", Expr::lam("x", Expr::lam("y", Expr::var("x"))));
        let fls = Expr::lam("_", Expr::lam("x", Expr::lam("y", Expr::var("y"))));
        Parts {
            identity: Expr::lam(x.clone(), Expr::Var(x.clone())),
            collapse_to_bool: Expr::lam(
                x.clone(),
                Expr::if_(Expr::Var(x), Expr::int(0), Expr::int(1)),
            ),
            church_to_bool,
            bool_to_church: Expr::lam(b.clone(), Expr::if_(Expr::Var(b), tru, fls)),
            fst_p: Arc::new(Expr::fst(Expr::Var(p.clone()))),
            snd_p: Arc::new(Expr::snd(Expr::Var(p.clone()))),
            p,
            snd_pkg: Arc::new(Expr::snd(Expr::Var(pkg.clone()))),
            loc_var: Arc::new(Expr::Var(loc.clone())),
            deref_loc: Arc::new(Expr::deref(Expr::Var(loc.clone()))),
            gcmov_loc: Arc::new(Expr::gcmov(Expr::Var(loc.clone()))),
            pkg,
            loc,
            wildcard: Var::new("_"),
            deref_gc_ref: Arc::new(Expr::deref(Expr::Var(gc_ref.clone()))),
            package_new: Arc::new(Expr::pair(Expr::Unit, Expr::Var(new_cell.clone()))),
            gc_ref,
            new_cell,
            f_var: Arc::new(Expr::Var(f.clone())),
            a_var: Arc::new(Expr::Var(a.clone())),
            f,
            a,
        }
    })
}

fn identity() -> Expr {
    parts().identity.clone()
}

/// `λx. if x {0} {1}`.
fn collapse_to_bool() -> Expr {
    parts().collapse_to_bool.clone()
}

/// `λp. (c1 (fst p), c2 (snd p))`.
fn pair_map(c1: Expr, c2: Expr) -> Expr {
    let parts = parts();
    Expr::Lam(
        parts.p.clone(),
        Arc::new(Expr::Pair(
            Arc::new(Expr::App(Arc::new(c1), Arc::clone(&parts.fst_p))),
            Arc::new(Expr::App(Arc::new(c2), Arc::clone(&parts.snd_p))),
        )),
    )
}

/// `C_{REF 𝜏 ↦ ref τ}`: convert the contents in place, then `gcmov` the very
/// same location into the GC'd heap.
///
/// ```text
/// λpkg. let loc = snd pkg in let _ = (loc := c (!loc)) in gcmov loc
/// ```
fn l3_ref_to_gc(c_payload_l3_to_ml: Expr) -> Expr {
    let parts = parts();
    let convert = Expr::App(Arc::new(c_payload_l3_to_ml), Arc::clone(&parts.deref_loc));
    let store = Expr::Assign(Arc::clone(&parts.loc_var), Arc::new(convert));
    let body = Expr::Let(
        parts.wildcard.clone(),
        Arc::new(store),
        Arc::clone(&parts.gcmov_loc),
    );
    let unpack = Expr::Let(
        parts.loc.clone(),
        Arc::clone(&parts.snd_pkg),
        Arc::new(body),
    );
    Expr::lam(parts.pkg.clone(), unpack)
}

/// `C_{ref τ ↦ REF 𝜏}`: copy the (possibly aliased) GC'd contents into a
/// fresh manual cell.
///
/// ```text
/// λref. let new = alloc (c (!ref)) in ((), new)
/// ```
fn gc_ref_to_l3(c_payload_ml_to_l3: Expr) -> Expr {
    let parts = parts();
    let convert = Expr::App(
        Arc::new(c_payload_ml_to_l3),
        Arc::clone(&parts.deref_gc_ref),
    );
    let copy = Expr::Let(
        parts.new_cell.clone(),
        Arc::new(Expr::alloc(convert)),
        Arc::clone(&parts.package_new),
    );
    Expr::lam(parts.gc_ref.clone(), copy)
}

/// `C_{BOOL↦bool}(e) ≜ e () 0 1`.
fn church_to_bool() -> Expr {
    parts().church_to_bool.clone()
}

/// `C_{bool↦BOOL}(e) ≜ if0 e {Λα.λx.λy.x} {Λα.λx.λy.y}`.
fn bool_to_church() -> Expr {
    parts().bool_to_church.clone()
}

/// `λf. λx. c_res (f (c_arg x))`: plain function wrapping (no guards — L3's
/// linearity is enforced statically).
fn wrap_fun(c_arg: Expr, c_res: Expr) -> Expr {
    let parts = parts();
    let convert_arg = Expr::App(Arc::new(c_arg), Arc::clone(&parts.a_var));
    let call = Expr::App(Arc::clone(&parts.f_var), Arc::new(convert_arg));
    let convert_res = Expr::App(Arc::new(c_res), Arc::new(call));
    Expr::lam(parts.f.clone(), Expr::lam(parts.a.clone(), convert_res))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcvm::Env;
    use lcvm::{Halt, Heap, Machine, MachineConfig, Slot, Value};
    use semint_core::Fuel;

    fn conv() -> MemGcConversions {
        MemGcConversions::standard()
    }

    fn run(e: Expr) -> Halt {
        Machine::run_expr(e, Fuel::default()).halt
    }

    #[test]
    fn rule_coverage() {
        let c = conv();
        assert!(c.derivable(&PolyType::Unit, &L3Type::Unit));
        assert!(c.derivable(&PolyType::Int, &L3Type::Bool));
        assert!(c.derivable(&PolyType::foreign(L3Type::Bool), &L3Type::Bool));
        assert!(c.derivable(&PolyType::foreign(L3Type::ptr("ζ")), &L3Type::ptr("ζ")));
        assert!(
            !c.derivable(
                &PolyType::foreign(L3Type::cap("ζ", L3Type::Bool)),
                &L3Type::cap("ζ", L3Type::Bool)
            ),
            "capabilities are linear, hence not Duplicable, hence not foreign-embeddable"
        );
        assert!(c.derivable(
            &PolyType::ref_(PolyType::Int),
            &L3Type::ref_like(L3Type::Bool)
        ));
        assert!(c.derivable(&PolyType::church_bool(), &L3Type::Bool));
        assert!(c.derivable(
            &PolyType::fun(PolyType::Int, PolyType::Int),
            &L3Type::bang(L3Type::lolli(L3Type::bang(L3Type::Bool), L3Type::Bool))
        ));
        assert!(!c.derivable(&PolyType::Int, &L3Type::Unit));
    }

    #[test]
    fn l3_to_miniml_reference_transfer_moves_without_copying() {
        // Build an L3 package ((), ℓ) with ℓ a manual cell holding true (0).
        let mut heap = Heap::new();
        let loc = heap.alloc_manual(Value::Int(0));
        let (_, glue) = conv()
            .derive(
                &PolyType::ref_(PolyType::Int),
                &L3Type::ref_like(L3Type::Bool),
            )
            .unwrap();
        let prog = Expr::app(glue, Expr::pair(Expr::Unit, Expr::Loc(loc)));
        let machine = Machine::with_state(heap, Env::empty(), prog, MachineConfig::default());
        let r = machine.run(Fuel::default());
        // The result is the *same* location, now GC-managed, contents intact.
        assert_eq!(r.halt, Halt::Value(Value::Loc(loc)));
        assert!(matches!(r.heap.slot(loc), Some(Slot::Gc(Value::Int(0)))));
        assert_eq!(r.heap.stats().gcmovs, 1);
        // The only manual allocation is the set-up one; the conversion itself
        // allocated nothing (no copy, no fresh GC cell).
        assert_eq!(r.heap.stats().manual_allocs, 1);
        assert_eq!(r.heap.stats().gc_allocs, 0);
    }

    #[test]
    fn miniml_to_l3_reference_conversion_copies_into_fresh_manual_cell() {
        let mut heap = Heap::new();
        let loc = heap.alloc_gc(Value::Int(7));
        let (glue, _) = conv()
            .derive(
                &PolyType::ref_(PolyType::Int),
                &L3Type::ref_like(L3Type::Bool),
            )
            .unwrap();
        let prog = Expr::app(glue, Expr::Loc(loc));
        let machine = Machine::with_state(heap, Env::empty(), prog, MachineConfig::default());
        let r = machine.run(Fuel::default());
        match r.halt {
            Halt::Value(Value::Pair(cap, ptr)) => {
                assert_eq!(*cap, Value::Unit);
                let new_loc = ptr.as_loc().unwrap();
                assert_ne!(new_loc, loc, "a fresh cell must be allocated");
                assert!(matches!(r.heap.slot(new_loc), Some(Slot::Manual(_))));
                // The original GC'd cell is untouched (aliases remain valid).
                assert!(matches!(r.heap.slot(loc), Some(Slot::Gc(Value::Int(7)))));
                // The payload was converted int → bool (7 collapses to 1).
                assert_eq!(r.heap.slot(new_loc).unwrap().value(), &Value::Int(1));
            }
            other => panic!("expected a package, got {other:?}"),
        }
    }

    #[test]
    fn church_boolean_conversions_round_trip() {
        let (to_l3, to_ml) = conv()
            .derive(&PolyType::church_bool(), &L3Type::Bool)
            .unwrap();
        // Church true (compiled) → L3 true (0).
        let church_true = Expr::lam("_", Expr::lam("x", Expr::lam("y", Expr::var("x"))));
        assert_eq!(
            run(Expr::app(to_l3.clone(), church_true)),
            Halt::Value(Value::Int(0))
        );
        // L3 false (1) → Church boolean → back to 1.
        let round = Expr::app(to_l3, Expr::app(to_ml, Expr::int(1)));
        assert_eq!(run(round), Halt::Value(Value::Int(1)));
    }

    #[test]
    fn function_conversion_wraps_argument_and_result() {
        // MiniML (int → int) as L3 !(!bool ⊸ bool): feeding it L3 true (0)
        // converts to an int, applies, converts back to a bool.
        let ml_ty = PolyType::fun(PolyType::Int, PolyType::Int);
        let l3_ty = L3Type::bang(L3Type::lolli(L3Type::bang(L3Type::Bool), L3Type::Bool));
        let (to_l3, _) = conv().derive(&ml_ty, &l3_ty).unwrap();
        // λx. x + 3 : int → int; applied via the wrapper to true (0) yields 3,
        // which collapses to false (1) on the way back to L3.
        let ml_fun = Expr::lam("x", Expr::add(Expr::var("x"), Expr::int(3)));
        let prog = Expr::app(Expr::app(to_l3, ml_fun), Expr::int(0));
        assert_eq!(run(prog), Halt::Value(Value::Int(1)));
    }

    #[test]
    fn repeated_derivations_hit_the_glue_cache() {
        let c = conv();
        let ml = PolyType::fun(
            PolyType::prod(PolyType::Int, PolyType::Int),
            PolyType::prod(PolyType::Int, PolyType::Int),
        );
        let l3 = L3Type::bang(L3Type::lolli(
            L3Type::bang(L3Type::tensor(L3Type::Bool, L3Type::Bool)),
            L3Type::tensor(L3Type::Bool, L3Type::Bool),
        ));
        let first = c.derive(&ml, &l3);
        assert!(first.is_some());
        let after_first = c.glue_cache().stats();
        let second = c.derive(&ml, &l3);
        assert_eq!(first, second, "cached result is observably identical");
        let after_second = c.glue_cache().stats();
        assert_eq!(after_second.misses, after_first.misses);
        assert_eq!(after_second.hits, after_first.hits + 1);
        assert_eq!(first, MemGcConversions::standard().derive(&ml, &l3));
    }

    #[test]
    fn foreign_embedding_is_free() {
        let (to_l3, to_ml) = conv()
            .derive(&PolyType::foreign(L3Type::Bool), &L3Type::Bool)
            .unwrap();
        // Both directions are the identity λ.
        assert_eq!(
            run(Expr::app(to_l3, Expr::int(0))),
            Halt::Value(Value::Int(0))
        );
        assert_eq!(
            run(Expr::app(to_ml, Expr::int(1))),
            Halt::Value(Value::Int(1))
        );
    }
}
