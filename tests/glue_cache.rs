//! Properties of the shared conversion layer: memoized glue derivation
//! must be **observably identical** to cold derivation for deep compound
//! types in all three case studies, a type pair built afresh must hit the
//! entry an equal pair stored, two pairs share an entry exactly when they
//! are equal, and the glue text of every rule, names included, is pinned by
//! one hash.

use proptest::prelude::*;
use semint::affine::convert::AffineConversions;
use semint::affine::{AffiType, MlType};
use semint::core::convert::{encode_key, ConversionScheme};
use semint::memgc::convert::MemGcConversions;
use semint::memgc::{L3Type, PolyType};
use semint::reflang::syntax::{HlType, LlType};
use semint::sharedmem::convert::SharedMemConversions;
use semint::sharedmem::RefStrategy;
use std::collections::HashMap;
use std::fmt::{Display, Write};
use std::hash::Hash;

/// A §3 type pair that is derivable at any nesting depth: products (and,
/// innermost, optionally a sum) over the base rules `bool ∼ int` /
/// `unit ∼ int`.  Sums require their payloads to convert to `int`, so the
/// sum sits at the innermost wrap only.
fn sharedmem_pair(depth: u8, use_sum: bool) -> (HlType, LlType) {
    let (mut hl, mut ll) = (HlType::Bool, LlType::Int);
    for level in 0..depth {
        if level == 0 && use_sum {
            hl = HlType::sum(hl, HlType::Unit);
        } else {
            hl = HlType::prod(hl.clone(), hl);
        }
        ll = LlType::array(ll);
    }
    (hl, ll)
}

/// A §4 type pair derivable at any depth: tensors/lollis over `int ∼ int`.
fn affine_pair(depth: u8, lolli: bool) -> (AffiType, MlType) {
    let mut affi = AffiType::Int;
    let mut ml = MlType::Int;
    for level in 0..depth {
        if lolli && level == depth - 1 {
            ml = MlType::fun(MlType::fun(MlType::Unit, ml.clone()), ml);
            affi = AffiType::lolli(affi.clone(), affi);
        } else {
            affi = AffiType::tensor(affi.clone(), affi);
            ml = MlType::prod(ml.clone(), ml);
        }
    }
    (affi, ml)
}

/// A §5 type pair derivable at any depth: products/functions over
/// `int ∼ bool`.
fn memgc_pair(depth: u8, fun: bool) -> (PolyType, L3Type) {
    let mut ml = PolyType::Int;
    let mut l3 = L3Type::Bool;
    for level in 0..depth {
        if fun && level == depth - 1 {
            l3 = L3Type::bang(L3Type::lolli(L3Type::bang(l3.clone()), l3));
            ml = PolyType::fun(ml.clone(), ml);
        } else {
            ml = PolyType::prod(ml.clone(), ml);
            l3 = L3Type::tensor(l3.clone(), l3);
        }
    }
    (ml, l3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharedmem_cached_derivation_is_identical_to_cold(
        depth in 0u8..6,
        use_unit in any::<bool>(),
    ) {
        let (hl, ll) = sharedmem_pair(depth, use_unit);
        let warm = SharedMemConversions::standard();
        let first = warm.derive(&hl, &ll);
        prop_assert!(first.is_some(), "{hl} ∼ {ll} must be derivable");
        // Asking again, with a pair built afresh so that it shares no
        // subtree with the stored key, answers from the cache: keys hash
        // and compare by structure, not by pointer…
        let misses_after_first = warm.glue_cache().stats().misses;
        let (hl_again, ll_again) = sharedmem_pair(depth, use_unit);
        let second = warm.derive(&hl_again, &ll_again);
        prop_assert_eq!(warm.glue_cache().stats().misses, misses_after_first);
        // …and both the cached and a cold derivation agree, glue for glue.
        let cold = SharedMemConversions::standard().derive(&hl, &ll);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&first, &cold);
    }

    #[test]
    fn affine_cached_derivation_is_identical_to_cold(
        depth in 1u8..6,
        lolli in any::<bool>(),
    ) {
        let (affi, ml) = affine_pair(depth, lolli);
        let warm = AffineConversions::standard();
        let first = warm.derive(&affi, &ml);
        prop_assert!(first.is_some(), "{affi} ∼ {ml} must be derivable");
        let misses_after_first = warm.glue_cache().stats().misses;
        let (affi_again, ml_again) = affine_pair(depth, lolli);
        let second = warm.derive(&affi_again, &ml_again);
        prop_assert_eq!(warm.glue_cache().stats().misses, misses_after_first);
        let cold = AffineConversions::standard().derive(&affi, &ml);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&first, &cold);
    }

    #[test]
    fn memgc_cached_derivation_is_identical_to_cold(
        depth in 1u8..6,
        fun in any::<bool>(),
    ) {
        let (ml, l3) = memgc_pair(depth, fun);
        let warm = MemGcConversions::standard();
        let first = warm.derive(&ml, &l3);
        prop_assert!(first.is_some(), "{ml} ∼ {l3} must be derivable");
        let misses_after_first = warm.glue_cache().stats().misses;
        let (ml_again, l3_again) = memgc_pair(depth, fun);
        let second = warm.derive(&ml_again, &l3_again);
        prop_assert_eq!(warm.glue_cache().stats().misses, misses_after_first);
        let cold = MemGcConversions::standard().derive(&ml, &l3);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&first, &cold);
    }
}

/// The §4 higher-order wrapper is the most allocation-heavy glue; make sure
/// the cache returns the same wrapper the cold path builds even when the
/// sub-derivations were cached in a different order.
#[test]
fn affine_out_of_order_subderivations_agree_with_cold() {
    let warm = AffineConversions::standard();
    let (inner_affi, inner_ml) = affine_pair(2, false);
    // Warm the cache bottom-up first…
    let _ = warm.derive(&inner_affi, &inner_ml);
    // …then derive a lolli over the warmed components.
    let affi = AffiType::lolli(inner_affi.clone(), inner_affi.clone());
    let ml = MlType::fun(
        MlType::fun(MlType::Unit, inner_ml.clone()),
        inner_ml.clone(),
    );
    let warm_result = warm.derive(&affi, &ml);
    let cold_result = AffineConversions::standard().derive(&affi, &ml);
    assert_eq!(warm_result, cold_result);
    assert!(warm_result.is_some());
}

/// Type variables and location variables of the enumerated types: in each
/// kind one name is a prefix of the other, so a key that wrote a name
/// without closing it would give `a` followed by `b…` the key of `ab`
/// followed by `…`.
const TYPE_VARS: [&str; 2] = ["a", "ab"];
const LOC_VARS: [&str; 2] = ["ζ", "ζ1"];

/// Every `HlType` of depth at most `depth` (a leaf has depth 0), once.
fn hl_types(depth: u32) -> Vec<HlType> {
    let mut types = vec![HlType::Unit, HlType::Bool];
    if depth > 0 {
        let below = hl_types(depth - 1);
        for a in &below {
            types.push(HlType::ref_(a.clone()));
            for b in &below {
                types.push(HlType::sum(a.clone(), b.clone()));
                types.push(HlType::prod(a.clone(), b.clone()));
                types.push(HlType::fun(a.clone(), b.clone()));
            }
        }
    }
    types
}

/// Every `LlType` of depth at most `depth`, once.
fn ll_types(depth: u32) -> Vec<LlType> {
    let mut types = vec![LlType::Int];
    if depth > 0 {
        let below = ll_types(depth - 1);
        for a in &below {
            types.push(LlType::array(a.clone()));
            types.push(LlType::ref_(a.clone()));
            for b in &below {
                types.push(LlType::fun(a.clone(), b.clone()));
            }
        }
    }
    types
}

/// Every `AffiType` of depth at most `depth`, both arrow modes, once.
fn affi_types(depth: u32) -> Vec<AffiType> {
    let mut types = vec![AffiType::Unit, AffiType::Bool, AffiType::Int];
    if depth > 0 {
        let below = affi_types(depth - 1);
        for a in &below {
            types.push(AffiType::bang(a.clone()));
            for b in &below {
                types.push(AffiType::lolli(a.clone(), b.clone()));
                types.push(AffiType::lolli_static(a.clone(), b.clone()));
                types.push(AffiType::with(a.clone(), b.clone()));
                types.push(AffiType::tensor(a.clone(), b.clone()));
            }
        }
    }
    types
}

/// Every `MlType` of depth at most `depth`, once.
fn ml_types(depth: u32) -> Vec<MlType> {
    let mut types = vec![MlType::Unit, MlType::Int];
    if depth > 0 {
        let below = ml_types(depth - 1);
        for a in &below {
            types.push(MlType::ref_(a.clone()));
            for b in &below {
                types.push(MlType::prod(a.clone(), b.clone()));
                types.push(MlType::sum(a.clone(), b.clone()));
                types.push(MlType::fun(a.clone(), b.clone()));
            }
        }
    }
    types
}

/// Every `PolyType` of depth at most `depth` over [`TYPE_VARS`], once; a
/// foreign type embeds every `L3Type` one level down.
fn poly_types(depth: u32) -> Vec<PolyType> {
    let mut types = vec![PolyType::Unit, PolyType::Int];
    types.extend(TYPE_VARS.map(PolyType::tvar));
    if depth > 0 {
        let below = poly_types(depth - 1);
        types.extend(l3_types(depth - 1).into_iter().map(PolyType::foreign));
        for a in &below {
            types.push(PolyType::ref_(a.clone()));
            types.extend(TYPE_VARS.map(|v| PolyType::forall(v, a.clone())));
            for b in &below {
                types.push(PolyType::prod(a.clone(), b.clone()));
                types.push(PolyType::sum(a.clone(), b.clone()));
                types.push(PolyType::fun(a.clone(), b.clone()));
            }
        }
    }
    types
}

/// Every `L3Type` of depth at most `depth` over [`LOC_VARS`], once.
fn l3_types(depth: u32) -> Vec<L3Type> {
    let mut types = vec![L3Type::Unit, L3Type::Bool];
    types.extend(LOC_VARS.map(L3Type::ptr));
    if depth > 0 {
        let below = l3_types(depth - 1);
        for a in &below {
            types.push(L3Type::bang(a.clone()));
            for z in LOC_VARS {
                types.push(L3Type::cap(z, a.clone()));
                types.push(L3Type::forall_loc(z, a.clone()));
                types.push(L3Type::exists_loc(z, a.clone()));
            }
            for b in &below {
                types.push(L3Type::tensor(a.clone(), b.clone()));
                types.push(L3Type::lolli(a.clone(), b.clone()));
            }
        }
    }
    types
}

/// The bytes `value` contributes to a glue-table key.
fn key_of(value: &impl Hash) -> Vec<u8> {
    let mut key = Vec::new();
    encode_key(value, &mut key);
    key
}

/// Asserts that on `types`, each listed once, keys are equal exactly when
/// the types are `==` and no key is a proper prefix of another; `again`
/// holds the same types built afresh, sharing no node with `types`.
fn assert_keys_prefix_free<T: Hash + Eq + Display>(types: &[T], again: &[T]) {
    let mut keys: Vec<(Vec<u8>, &T)> = types
        .iter()
        .zip(again)
        .map(|(ty, same)| {
            let key = key_of(ty);
            assert!(ty == same && key == key_of(same), "{ty} built afresh");
            (key, ty)
        })
        .collect();
    // A key that is a prefix of another sorts right before the keys that
    // extend it, so neighbours are the only candidates.
    keys.sort_unstable_by(|x, y| x.0.cmp(&y.0));
    for neighbours in keys.windows(2) {
        let [(k1, t1), (k2, t2)] = neighbours else {
            unreachable!("windows of two")
        };
        assert!(
            !k2.starts_with(k1) || (k1 == k2 && t1 == t2),
            "the key of {t1} is a prefix of the key of {t2}"
        );
    }
}

/// Asserts that two pairs of `side_a × side_b` (each side listed once) get
/// the same glue-table key, one side's bytes followed by the other's,
/// exactly when they are `==`.
fn assert_pair_keys_distinct<A: Hash + Eq + Display, B: Hash + Eq + Display>(
    side_a: &[A],
    side_b: &[B],
) {
    let mut seen: HashMap<Vec<u8>, (&A, &B)> = HashMap::new();
    for a in side_a {
        for b in side_b {
            let mut key = key_of(a);
            encode_key(b, &mut key);
            if let Some((a0, b0)) = seen.insert(key, (a, b)) {
                assert!(
                    a0 == a && b0 == b,
                    "({a0}, {b0}) and ({a}, {b}) share a key"
                );
            }
        }
    }
}

/// The key invariant of every rule set's glue cache: two type pairs share
/// an entry, and so its glue, exactly when they are `==`.  Over every type
/// of the six source-type enums up to depth 2, each side's keys are
/// injective and prefix-free, which makes a pair's key (the `TyA` bytes,
/// then the `TyB` bytes) injective on every pair of them; the products of
/// depth-2 types with leaves, and of depth-1 types with each other, check
/// the pair keys directly.  A change to a type's `Hash` or to the encoder
/// that let two pairs meet in one entry fails here.
#[test]
fn pairs_share_an_entry_exactly_when_equal() {
    /// Checks one rule set's pairs and returns how many types of depth at
    /// most 2 each side has.
    fn check<A, B>(side_a: fn(u32) -> Vec<A>, side_b: fn(u32) -> Vec<B>) -> [usize; 2]
    where
        A: Hash + Eq + Display,
        B: Hash + Eq + Display,
    {
        let (deep_a, deep_b) = (side_a(2), side_b(2));
        assert_keys_prefix_free(&deep_a, &side_a(2));
        assert_keys_prefix_free(&deep_b, &side_b(2));
        assert_pair_keys_distinct(&deep_a, &side_b(0));
        assert_pair_keys_distinct(&side_a(0), &deep_b);
        assert_pair_keys_distinct(&side_a(1), &side_b(1));
        [deep_a.len(), deep_b.len()]
    }
    assert_eq!(check(hl_types, ll_types), [786, 25], "sharedmem");
    assert_eq!(check(affi_types, ml_types), [7101, 786], "affine");
    assert_eq!(check(poly_types, l3_types), [14144, 8644], "memgc");
}

/// FNV-1a over `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Appends `a ∼ b` and both directions of its glue, rendered, to `out`.
fn render_glue(
    out: &mut String,
    a: impl Display,
    b: impl Display,
    glue: Option<(impl Display, impl Display)>,
) {
    let (to, from) = glue.unwrap_or_else(|| panic!("{a} ∼ {b} must be derivable"));
    writeln!(out, "{a} ∼ {b}\n  {to}\n  {from}").expect("writing to a String");
}

/// Both directions of the glue for every base rule, and for the three
/// families above at depths 1–5, render to the text they rendered to
/// before the glue builders shared their fixed parts: the same nodes and
/// the same binder names, checked on the text itself rather than only
/// through what the glue computes.
#[test]
fn glue_text_is_pinned() {
    let mut text = String::new();

    let share = SharedMemConversions::standard();
    let copy = SharedMemConversions::with_ref_strategy(RefStrategy::Copy);
    for (hl, ll) in [
        (HlType::Bool, LlType::Int),
        (HlType::Unit, LlType::Int),
        (HlType::ref_(HlType::Bool), LlType::ref_(LlType::Int)),
        (
            HlType::sum(HlType::Bool, HlType::Unit),
            LlType::array(LlType::Int),
        ),
        (
            HlType::prod(HlType::Bool, HlType::Unit),
            LlType::array(LlType::Int),
        ),
    ] {
        render_glue(&mut text, &hl, &ll, share.derive(&hl, &ll));
        render_glue(&mut text, &hl, &ll, copy.derive(&hl, &ll));
    }
    let affine = AffineConversions::standard();
    for (affi, ml) in [
        (AffiType::Unit, MlType::Unit),
        (AffiType::Int, MlType::Int),
        (AffiType::Bool, MlType::Int),
        (AffiType::bang(AffiType::Bool), MlType::Int),
        (
            AffiType::tensor(AffiType::Bool, AffiType::Int),
            MlType::prod(MlType::Int, MlType::Int),
        ),
        (
            AffiType::lolli(AffiType::Bool, AffiType::Int),
            MlType::fun(MlType::fun(MlType::Unit, MlType::Int), MlType::Int),
        ),
    ] {
        render_glue(&mut text, &affi, &ml, affine.derive(&affi, &ml));
    }
    let memgc = MemGcConversions::standard();
    for (ml, l3) in [
        (PolyType::Unit, L3Type::Unit),
        (PolyType::Int, L3Type::Bool),
        (PolyType::church_bool(), L3Type::Bool),
        (PolyType::foreign(L3Type::Bool), L3Type::Bool),
        (
            PolyType::ref_(PolyType::Int),
            L3Type::ref_like(L3Type::Bool),
        ),
        (
            PolyType::fun(PolyType::Int, PolyType::Int),
            L3Type::bang(L3Type::lolli(L3Type::bang(L3Type::Bool), L3Type::Bool)),
        ),
        (
            PolyType::prod(PolyType::Int, PolyType::Int),
            L3Type::tensor(L3Type::Bool, L3Type::Bool),
        ),
    ] {
        render_glue(&mut text, &ml, &l3, memgc.derive(&ml, &l3));
    }

    for depth in 1..=5 {
        for variant in [false, true] {
            let (hl, ll) = sharedmem_pair(depth, variant);
            render_glue(&mut text, &hl, &ll, share.derive(&hl, &ll));
            let (affi, ml) = affine_pair(depth, variant);
            render_glue(&mut text, &affi, &ml, affine.derive(&affi, &ml));
            let (ml, l3) = memgc_pair(depth, variant);
            render_glue(&mut text, &ml, &l3, memgc.derive(&ml, &l3));
        }
    }
    assert_eq!(
        (text.lines().count(), fnv1a(&text)),
        (159, 0x3ed8_494b_c210_8011),
        "the rendered glue changed:\n{text}"
    );
}
