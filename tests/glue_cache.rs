//! Properties of the shared conversion layer: memoized glue derivation
//! must be **observably identical** to cold derivation for deep compound
//! types in all three case studies, and the compilers' lookups in either
//! direction must hand out the matching half of one derivation.

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
        // Asking again answers from the cache…
        let misses_after_first = warm.cache().stats().misses;
        let second = warm.derive(&hl, &ll);
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
        let second = warm.derive(&affi, &ml);
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
        let second = warm.derive(&ml, &l3);
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
