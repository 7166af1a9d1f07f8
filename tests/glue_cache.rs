//! Properties of the shared conversion layer: memoized glue derivation
//! must be **observably identical** to cold derivation for deep compound
//! types in all three case studies, a type pair built afresh must hit the
//! entry an equal pair stored, the compilers' lookups in either
//! direction must hand out the matching half of one derivation, and the
//! glue text of every rule, names included, is pinned by one hash.

use proptest::prelude::*;
use semint::affine::compile::AffineConversionEmitter;
use semint::affine::convert::AffineConversions;
use semint::affine::{AffiType, MlType};
use semint::memgc::compile::MemGcConversionEmitter;
use semint::memgc::convert::MemGcConversions;
use semint::memgc::{L3Type, PolyType};
use semint::reflang::syntax::{HlType, LlType};
use semint::reflang::ConversionEmitter;
use semint::sharedmem::convert::SharedMemConversions;
use semint::sharedmem::RefStrategy;
use std::fmt::{Display, Write};

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
        let misses_after_first = warm.cache().stats().misses;
        let (hl_again, ll_again) = sharedmem_pair(depth, use_unit);
        let second = warm.derive(&hl_again, &ll_again);
        prop_assert_eq!(warm.cache().stats().misses, misses_after_first);
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
        let misses_after_first = warm.cache().stats().misses;
        let (affi_again, ml_again) = affine_pair(depth, lolli);
        let second = warm.derive(&affi_again, &ml_again);
        prop_assert_eq!(warm.cache().stats().misses, misses_after_first);
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
        let misses_after_first = warm.cache().stats().misses;
        let (ml_again, l3_again) = memgc_pair(depth, fun);
        let second = warm.derive(&ml_again, &l3_again);
        prop_assert_eq!(warm.cache().stats().misses, misses_after_first);
        let cold = MemGcConversions::standard().derive(&ml, &l3);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&first, &cold);
    }

    #[test]
    fn registry_flipped_lookup_is_symmetric(depth in 0u8..5, variant in any::<bool>()) {
        // A boundary in either direction looks its glue up under the one
        // `(τA, τB)` key: the B-to-A lookup is the `b_to_a` half of the
        // derivation and the A-to-B lookup is its `a_to_b` half.
        let (hl, ll) = sharedmem_pair(depth, variant);
        let rules = SharedMemConversions::standard();
        let (to_ll, to_hl) = rules.derive(&hl, &ll).expect("derivable");
        prop_assert_eq!(rules.ll_to_hl(&ll, &hl), Some(to_hl));
        prop_assert_eq!(rules.hl_to_ll(&hl, &ll), Some(to_ll));

        let (affi, ml) = affine_pair(depth, variant);
        let rules = AffineConversions::standard();
        let (to_ml, to_affi) = rules.derive(&affi, &ml).expect("derivable");
        prop_assert_eq!(rules.ml_to_affi(&ml, &affi), Some(to_affi));
        prop_assert_eq!(rules.affi_to_ml(&affi, &ml), Some(to_ml));

        let (ml, l3) = memgc_pair(depth, variant);
        let rules = MemGcConversions::standard();
        let (to_l3, to_ml) = rules.derive(&ml, &l3).expect("derivable");
        prop_assert_eq!(rules.l3_to_ml(&l3, &ml), Some(to_ml));
        prop_assert_eq!(rules.ml_to_l3(&ml, &l3), Some(to_l3));
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
