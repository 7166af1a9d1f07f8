//! Cross-cutting framework properties (paper §2) exercised across all three
//! case studies at once: the convertibility judgment as a conversion scheme,
//! world laws, the `interp_equal` decision procedure, and the uniform
//! treatment of dynamic error codes.

use proptest::prelude::*;
use semint::core::convert::ConversionScheme;
use semint::core::{ErrorCode, Fuel, Outcome};
use semint::reflang::syntax::{HlType, LlType};
use semint::sharedmem::convert::SharedMemConversions;
use semint::sharedmem::model::{interp_equal, SemType, World};
use semint::stacklang::Loc;

#[test]
fn the_generic_registry_can_host_the_fig4_rules() {
    // The paper's step 2.2 describes a declarative rule table.  Each case
    // study states it as one `ConversionScheme`, which answers the two
    // questions such a table would: which pairs convert, and with what glue.
    let rules = SharedMemConversions::standard();
    let fig4 = [
        (HlType::Bool, LlType::Int),
        (HlType::Unit, LlType::Int),
        (HlType::ref_(HlType::Bool), LlType::ref_(LlType::Int)),
        (
            HlType::sum(HlType::Bool, HlType::Bool),
            LlType::array(LlType::Int),
        ),
    ];
    for (hl, ll) in &fig4 {
        assert!(rules.derivable(hl, ll), "{hl} ∼ {ll} must be derivable");
        assert!(rules.derive(hl, ll).is_some(), "{hl} ∼ {ll} must have glue");
    }
    let int_array = LlType::array(LlType::Int);
    assert!(!rules.derivable(&HlType::Bool, &int_array));
    assert!(rules.derive(&HlType::Bool, &int_array).is_none());
    // The no-op rules really are no-ops.
    let (to_ll, to_hl) = rules.derive(&HlType::Bool, &LlType::Int).unwrap();
    assert!(to_ll.is_empty() && to_hl.is_empty());
}

#[test]
fn all_case_study_worlds_satisfy_the_world_laws() {
    // §3 world.
    let w = World::new(64)
        .with_loc(Loc(0), HlType::Bool)
        .with_loc(Loc(1), LlType::Int);
    // Extension is reflexive, and lowering the index is an extension.
    assert!(w.extended_by(&w));
    assert!(w.extended_by(&World {
        k: 10,
        heap_typing: w.heap_typing.clone()
    }));
    // Raising the index is not, and neither is forgetting a location.
    assert!(!w.extended_by(&World {
        k: 65,
        heap_typing: w.heap_typing.clone()
    }));
    assert!(!w.extended_by(&World::new(64)));
}

#[test]
fn error_codes_have_a_consistent_benignness_story_across_targets() {
    // The type-safety theorems allow exactly the non-Type codes.
    for code in [ErrorCode::Idx, ErrorCode::Conv, ErrorCode::Ptr] {
        assert!(code.is_benign());
        assert!(Outcome::<i32>::Fail(code).is_safe());
        assert!(lcvm::Halt::Fail(code).is_safe());
    }
    assert!(!ErrorCode::Type.is_benign());
    assert!(!Outcome::<i32>::Fail(ErrorCode::Type).is_safe());
    assert!(!lcvm::Halt::Fail(ErrorCode::Type).is_safe());
}

fn hl_type_strategy() -> impl Strategy<Value = HlType> {
    let leaf = prop_oneof![Just(HlType::Bool), Just(HlType::Unit)];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| HlType::sum(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| HlType::prod(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| HlType::fun(a, b)),
            inner.prop_map(HlType::ref_),
        ]
    })
}

fn ll_type_strategy() -> impl Strategy<Value = LlType> {
    let leaf = Just(LlType::Int);
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(LlType::array),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| LlType::fun(a, b)),
            inner.prop_map(LlType::ref_),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `interp_equal` is reflexive on both languages' types.
    #[test]
    fn interp_equal_is_reflexive(hl in hl_type_strategy(), ll in ll_type_strategy()) {
        prop_assert!(interp_equal(&SemType::Hl(hl.clone()), &SemType::Hl(hl)));
        prop_assert!(interp_equal(&SemType::Ll(ll.clone()), &SemType::Ll(ll)));
    }

    /// `interp_equal` is symmetric across the two languages.
    #[test]
    fn interp_equal_is_symmetric(hl in hl_type_strategy(), ll in ll_type_strategy()) {
        let a = SemType::Hl(hl);
        let b = SemType::Ll(ll);
        prop_assert_eq!(interp_equal(&a, &b), interp_equal(&b, &a));
    }

    /// Pointer sharing is admitted exactly when the interpretations are equal
    /// — the derivation rule and the model-level question coincide.
    #[test]
    fn sharing_iff_equal_interpretations(hl in hl_type_strategy(), ll in ll_type_strategy()) {
        let conv = SharedMemConversions::standard();
        let shared_ref_rule = conv.derive(&HlType::ref_(hl.clone()), &LlType::ref_(ll.clone()));
        let equal = interp_equal(&SemType::Hl(hl.clone()), &SemType::Ll(ll.clone()));
        match shared_ref_rule {
            Some((to_ll, to_hl)) => {
                prop_assert!(to_ll.is_empty() && to_hl.is_empty(), "sharing glue must be a no-op");
                prop_assert!(equal, "sharing admitted although interpretations differ");
            }
            None => prop_assert!(!equal || conv.derive(&hl, &ll).is_none(),
                "equal interpretations with a derivable payload rule should allow sharing"),
        }
    }

    /// Fuel is well-behaved: consuming never increases the remaining budget
    /// and unlimited fuel never exhausts.
    #[test]
    fn fuel_accounting(n in 0u64..10_000) {
        let mut fuel = Fuel::steps(n);
        let mut consumed = 0;
        while fuel.consume() {
            consumed += 1;
            prop_assert!(consumed <= n);
        }
        prop_assert_eq!(consumed, n);
        prop_assert!(fuel.is_exhausted() || n == 0);
    }
}
