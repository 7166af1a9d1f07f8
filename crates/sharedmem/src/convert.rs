//! The §3 convertibility rules and their StackLang glue code (Fig. 4).
//!
//! The rule set is *derivation based*: a query `τ ∼ 𝜏` is answered by
//! recursively deriving it from the base rules, mirroring the inference-rule
//! presentation of the paper:
//!
//! * `bool ∼ int` — both compile to target integers, so both conversions are
//!   no-ops (empty instruction sequences);
//! * `unit ∼ int` — `unit` compiles to `0`; converting an `int` back to
//!   `unit` collapses it to `0` (a designer choice the framework permits);
//! * `ref bool ∼ ref int` — no-ops, justified because `V⟦bool⟧ = V⟦int⟧`;
//!   more generally `ref τ ∼ ref 𝜏` is admitted **only** when the `τ ∼ 𝜏`
//!   conversions are themselves no-ops (the paper's "inhabited by the very
//!   same set of target terms" requirement);
//! * `τ1 + τ2 ∼ [int]` when `τ1 ∼ int` and `τ2 ∼ int` — tag-and-payload
//!   encoding with a dynamic `Conv` failure for malformed arrays;
//! * `τ1 × τ2 ∼ [𝜏]` when `τ1 ∼ 𝜏` and `τ2 ∼ 𝜏` (elided in the paper's
//!   figure) — component-wise conversion with a length check.
//!
//! The paper's Discussion contrasts pointer sharing with two alternatives.
//! [`RefStrategy::Copy`] converts reference contents into a *fresh* location
//! on every crossing (no aliasing).  Per-access conversion, the cost model of
//! guard/proxy-style interoperation, needs no rule of its own: a program gets
//! it by converting the contents around every access.

use reflang::syntax::{HlType, LlType};
use semint_core::convert::{ConversionPair, ConversionScheme, GlueCache};
use semint_core::ErrorCode;
use stacklang::builder::{dup, pack, swap};
use stacklang::{Instr, Program};

/// How reference types are converted across the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefStrategy {
    /// Pass the pointer itself (the paper's chosen strategy): requires the
    /// pointed-to types to have identical interpretations, costs nothing, and
    /// preserves aliasing.
    #[default]
    Share,
    /// Copy the contents into a fresh location, converting them: allows more
    /// type pairs but breaks aliasing (paper §3 Discussion, option 1).
    Copy,
}

/// The §3 conversion rule set, memoized through a shared
/// [`GlueCache`] (clones share the cache, so the type checker, compiler and
/// model checker of one system all reuse each other's derivations).
#[derive(Debug, Clone, Default)]
pub struct SharedMemConversions {
    ref_strategy: RefStrategy,
    cache: GlueCache<HlType, LlType, Program>,
}

impl SharedMemConversions {
    /// The paper's rule set: pointer-sharing references.
    pub fn standard() -> Self {
        SharedMemConversions::with_ref_strategy(RefStrategy::Share)
    }

    /// The copy-convert ablation from the Discussion.
    pub fn with_ref_strategy(strategy: RefStrategy) -> Self {
        SharedMemConversions {
            ref_strategy: strategy,
            cache: GlueCache::new(),
        }
    }

    /// Derives `τ ∼ 𝜏` (memoized) and returns the conversion pair
    /// `(C_{τ↦𝜏}, C_{𝜏↦τ})`, or `None` if the judgment is not derivable.
    pub fn derive(&self, hl: &HlType, ll: &LlType) -> Option<(Program, Program)> {
        self.derive_pair(hl, ll)
            .map(|p| (p.a_to_b.clone(), p.b_to_a.clone()))
    }
}

impl ConversionScheme for SharedMemConversions {
    type TyA = HlType;
    type TyB = LlType;
    type Glue = Program;

    fn glue_cache(&self) -> &GlueCache<HlType, LlType, Program> {
        &self.cache
    }

    /// One Fig. 4 derivation step; sub-derivations recurse through the
    /// memoized [`SharedMemConversions::derive`].
    fn derive_uncached(&self, hl: &HlType, ll: &LlType) -> Option<ConversionPair<Program>> {
        let pair = match (hl, ll) {
            // bool ∼ int: both are target integers already.
            (HlType::Bool, LlType::Int) => Some((Program::empty(), Program::empty())),
            // unit ∼ int: unit compiles to 0; the other direction collapses
            // every integer to 0 (the canonical inhabitant of V⟦unit⟧).
            (HlType::Unit, LlType::Int) => Some((
                Program::empty(),
                Program::from(vec![stacklang::builder::drop_top(), Instr::push_num(0)]),
            )),
            // ref τ ∼ ref 𝜏: only when the payload conversions are no-ops, in
            // which case the pointer can be passed directly.
            (HlType::Ref(t), LlType::Ref(u)) => {
                let sub = self.derive_pair(t, u)?;
                match self.ref_strategy {
                    RefStrategy::Share => {
                        if sub.a_to_b.is_empty() && sub.b_to_a.is_empty() {
                            Some((Program::empty(), Program::empty()))
                        } else {
                            None
                        }
                    }
                    RefStrategy::Copy => Some((copy_ref(&sub.a_to_b), copy_ref(&sub.b_to_a))),
                }
            }
            // τ1 + τ2 ∼ [int] when τ1 ∼ int and τ2 ∼ int.
            (HlType::Sum(t1, t2), LlType::Array(elem)) if **elem == LlType::Int => {
                let c1 = self.derive_pair(t1, &LlType::Int)?;
                let c2 = self.derive_pair(t2, &LlType::Int)?;
                Some((
                    sum_to_array(&c1.a_to_b, &c2.a_to_b),
                    array_to_sum(&c1.b_to_a, &c2.b_to_a),
                ))
            }
            // τ1 × τ2 ∼ [𝜏] when τ1 ∼ 𝜏 and τ2 ∼ 𝜏 (elided in Fig. 4).
            (HlType::Prod(t1, t2), LlType::Array(elem)) => {
                let c1 = self.derive_pair(t1, elem)?;
                let c2 = self.derive_pair(t2, elem)?;
                Some((
                    prod_to_array(&c1.a_to_b, &c2.a_to_b),
                    array_to_prod(&c1.b_to_a, &c2.b_to_a),
                ))
            }
            _ => None,
        };
        pair.map(|(to_ll, from_ll)| ConversionPair::new(to_ll, from_ll))
    }
}

/// `C_{τ1+τ2 ↦ [int]}` (Fig. 4): convert the payload with the appropriate
/// component conversion and rebuild the `[tag, payload]` array.
fn sum_to_array(c1: &Program, c2: &Program) -> Program {
    // Stack: [s] with s = [tag, payload].
    Program::from(vec![
        dup(),
        Instr::push_num(1),
        Instr::Idx, // [s, payload]
        swap(),
        Instr::push_num(0),
        Instr::Idx, // [payload, tag]
        dup(),      // [payload, tag, tag]
        Instr::If0(
            Program::single(swap()).then(c1.clone()), // [tag, payload']
            Program::single(swap()).then(c2.clone()),
        ),
    ])
    .then_instr(repack_tagged())
}

/// `C_{[int] ↦ τ1+τ2}` (Fig. 4): check the array is long enough, check the
/// tag is 0 or 1 (else `fail Conv`), convert the payload.
fn array_to_sum(c1: &Program, c2: &Program) -> Program {
    Program::from(vec![
        // Length check: fail Conv unless len ≥ 2.
        dup(),
        Instr::Len,
        Instr::push_num(2),
        Instr::Less, // pops 2, len: 0 (true) iff len < 2
        Instr::If0(
            Program::single(Instr::Fail(ErrorCode::Conv)),
            Program::from(vec![
                dup(),
                Instr::push_num(1),
                Instr::Idx, // [a, payload]
                swap(),
                Instr::push_num(0),
                Instr::Idx, // [payload, tag]
                dup(),
                Instr::If0(
                    Program::single(swap()).then(c1.clone()),
                    Program::from(vec![
                        dup(),
                        Instr::push_num(-1),
                        Instr::Add,
                        Instr::If0(
                            Program::single(swap()).then(c2.clone()),
                            Program::single(Instr::Fail(ErrorCode::Conv)),
                        ),
                    ]),
                ),
                repack_tagged(),
            ]),
        ),
    ])
}

/// `lam xv, xt. push [xt, xv]`: rebuilds a `[tag, payload]` array from a
/// stack holding `tag` below `payload`.
fn repack_tagged() -> Instr {
    let xv = semint_core::Var::new("conv%xv");
    let xt = semint_core::Var::new("conv%xt");
    Instr::lam(
        [xv.clone(), xt.clone()],
        Program::single(Instr::Push(stacklang::Operand::Array(
            [stacklang::Operand::Var(xt), stacklang::Operand::Var(xv)].into(),
        ))),
    )
}

/// `C_{τ1×τ2 ↦ [𝜏]}`: convert both components.
fn prod_to_array(c1: &Program, c2: &Program) -> Program {
    convert_two_elements(c1, c2)
}

/// `C_{[𝜏] ↦ τ1×τ2}`: length-check, then convert both components.
fn array_to_prod(c1: &Program, c2: &Program) -> Program {
    Program::from(vec![
        dup(),
        Instr::Len,
        Instr::push_num(2),
        Instr::Less,
        Instr::If0(
            Program::single(Instr::Fail(ErrorCode::Conv)),
            convert_two_elements(c1, c2),
        ),
    ])
}

/// Shared shape of the binary-array conversions: apply `c1` to element 0 and
/// `c2` to element 1, rebuilding a two-element array.
fn convert_two_elements(c1: &Program, c2: &Program) -> Program {
    // Stack: [p] with p a 2-element array.
    Program::from(vec![dup(), Instr::push_num(0), Instr::Idx]) // [p, v1]
        .then(c1.clone()) // [p, v1']
        .then_instr(swap()) // [v1', p]
        .then_instr(Instr::push_num(1))
        .then_instr(Instr::Idx) // [v1', v2]
        .then(c2.clone()) // [v1', v2']
        .then_instr(pack(2)) // [[v1', v2']]
}

/// The copy-convert reference strategy: read the contents, convert them with
/// `payload_conv`, and allocate a fresh location (paper §3 Discussion).
fn copy_ref(payload_conv: &Program) -> Program {
    Program::single(Instr::Read)
        .then(payload_conv.clone())
        .then_instr(Instr::Alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{check_direction, SemType};
    use semint_core::Fuel;
    use stacklang::{Machine, Outcome, Value};

    fn run_conv(value: Value, conv: &Program) -> Outcome<Value> {
        let p = Program::single(Instr::push_val(value)).then(conv.clone());
        Machine::run_program(p, Fuel::default()).outcome
    }

    #[test]
    fn bool_int_conversions_are_noops() {
        let c = SharedMemConversions::standard();
        let (to_ll, from_ll) = c.derive(&HlType::Bool, &LlType::Int).unwrap();
        assert!(to_ll.is_empty());
        assert!(from_ll.is_empty());
        assert!(c.derivable(&HlType::Bool, &LlType::Int));
    }

    #[test]
    fn ref_bool_ref_int_shares_the_pointer() {
        let c = SharedMemConversions::standard();
        let (to_ll, from_ll) = c
            .derive(&HlType::ref_(HlType::Bool), &LlType::ref_(LlType::Int))
            .unwrap();
        assert!(to_ll.is_empty(), "sharing a pointer must be free");
        assert!(from_ll.is_empty());
    }

    #[test]
    fn ref_of_non_identical_types_is_rejected_under_sharing() {
        let c = SharedMemConversions::standard();
        // ref (bool + bool) ∼ ref [int] would let RefLL write arbitrary-length
        // arrays into a location RefHL still reads at a sum type: unsound, so
        // the derivation must fail.
        let hl = HlType::ref_(HlType::sum(HlType::Bool, HlType::Bool));
        let ll = LlType::ref_(LlType::array(LlType::Int));
        assert!(c.derive(&hl, &ll).is_none());
        assert!(!c.derivable(&hl, &ll));
        // The copy strategy, which breaks aliasing, does allow it.
        let copy = SharedMemConversions::with_ref_strategy(RefStrategy::Copy);
        assert!(copy.derivable(&hl, &ll));
    }

    #[test]
    fn nested_ref_of_identical_types_is_allowed() {
        let c = SharedMemConversions::standard();
        let hl = HlType::ref_(HlType::ref_(HlType::Bool));
        let ll = LlType::ref_(LlType::ref_(LlType::Int));
        let (a, b) = c.derive(&hl, &ll).unwrap();
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn sum_to_int_array_and_back() {
        let c = SharedMemConversions::standard();
        let hl = HlType::sum(HlType::Bool, HlType::Bool);
        let ll = LlType::array(LlType::Int);
        let (to_ll, from_ll) = c.derive(&hl, &ll).unwrap();

        // Compiled inl true = [0, 0]; converting to [int] keeps the shape.
        let inl_true = Value::array([Value::Num(0), Value::Num(0)]);
        assert_eq!(
            run_conv(inl_true.clone(), &to_ll),
            Outcome::Value(inl_true.clone())
        );

        // Converting back succeeds on well-formed arrays…
        assert_eq!(
            run_conv(inl_true.clone(), &from_ll),
            Outcome::Value(inl_true)
        );
        let inr_x = Value::array([Value::Num(1), Value::Num(42)]);
        assert_eq!(run_conv(inr_x.clone(), &from_ll), Outcome::Value(inr_x));

        // …fails Conv on a tag outside {0, 1}…
        let bad_tag = Value::array([Value::Num(7), Value::Num(42)]);
        assert_eq!(run_conv(bad_tag, &from_ll), Outcome::Fail(ErrorCode::Conv));

        // …and fails Conv on arrays that are too short.
        let too_short = Value::array([Value::Num(0)]);
        assert_eq!(
            run_conv(too_short, &from_ll),
            Outcome::Fail(ErrorCode::Conv)
        );
    }

    #[test]
    fn prod_to_array_converts_componentwise() {
        let c = SharedMemConversions::standard();
        let hl = HlType::prod(HlType::Unit, HlType::Bool);
        let ll = LlType::array(LlType::Int);
        let (to_ll, from_ll) = c.derive(&hl, &ll).unwrap();

        let pair = Value::array([Value::Num(0), Value::Num(1)]);
        assert_eq!(run_conv(pair.clone(), &to_ll), Outcome::Value(pair));

        // Converting [7, 9] to unit × bool collapses the unit component to 0.
        let arr = Value::array([Value::Num(7), Value::Num(9)]);
        assert_eq!(
            run_conv(arr, &from_ll),
            Outcome::Value(Value::array([Value::Num(0), Value::Num(9)]))
        );

        let short = Value::array([Value::Num(7)]);
        assert_eq!(run_conv(short, &from_ll), Outcome::Fail(ErrorCode::Conv));
    }

    #[test]
    fn unit_int_collapses_to_zero() {
        let c = SharedMemConversions::standard();
        let (_, from_ll) = c.derive(&HlType::Unit, &LlType::Int).unwrap();
        assert_eq!(
            run_conv(Value::Num(17), &from_ll),
            Outcome::Value(Value::Num(0))
        );
    }

    /// Lemma 3.1 samples `[int]` with tag 1 too, so the `inr` arm of
    /// `C_{[int] ↦ τ1+τ2}` is checked: glue whose unit arm collapses every
    /// integer to 1 instead of 0 is refuted by `[1, 0]`.
    #[test]
    fn lemma_3_1_checks_the_inr_arm_of_array_to_sum() {
        let unit_to_one = Program::from(vec![stacklang::builder::drop_top(), Instr::push_num(1)]);
        let failure = check_direction(
            &SemType::Ll(LlType::array(LlType::Int)),
            &SemType::Hl(HlType::sum(HlType::Bool, HlType::Unit)),
            &array_to_sum(&Program::empty(), &unit_to_one),
        )
        .unwrap_err();
        assert_eq!(failure.witness, "[1, 0]");
    }

    #[test]
    fn copy_strategy_creates_a_fresh_location() {
        let c = SharedMemConversions::with_ref_strategy(RefStrategy::Copy);
        let hl = HlType::ref_(HlType::Bool);
        let ll = LlType::ref_(LlType::Int);
        let (to_ll, _) = c.derive(&hl, &ll).unwrap();
        // Allocate a location holding 1, then convert it: the result must be
        // a *different* location with the same contents.
        let p = Program::from(vec![Instr::push_num(1), Instr::Alloc]).then(to_ll);
        let r = Machine::run_program(p, Fuel::default());
        let loc = r
            .outcome
            .value()
            .and_then(|v| v.as_loc())
            .expect("a location");
        assert_eq!(r.heap.read(loc), Some(&Value::Num(1)));
        assert_eq!(r.heap.len(), 2, "copying allocates a second cell");
    }

    #[test]
    fn repeated_derivations_hit_the_glue_cache() {
        let c = SharedMemConversions::standard();
        let hl = HlType::prod(
            HlType::sum(HlType::Bool, HlType::Unit),
            HlType::sum(HlType::Unit, HlType::Bool),
        );
        let ll = LlType::array(LlType::array(LlType::Int));
        let first = c.derive(&hl, &ll);
        let after_first = c.glue_cache().stats();
        assert!(
            after_first.misses > 0,
            "first derivation populates the cache"
        );
        let second = c.derive(&hl, &ll);
        assert_eq!(first, second, "cached result is observably identical");
        let after_second = c.glue_cache().stats();
        assert_eq!(
            after_second.misses, after_first.misses,
            "second derivation derives nothing"
        );
        assert_eq!(after_second.hits, after_first.hits + 1);
        // A fresh (cold-cache) rule set derives the very same glue.
        let fresh = SharedMemConversions::standard().derive(&hl, &ll);
        assert_eq!(first, fresh);
    }

    #[test]
    fn unrelated_types_are_not_convertible() {
        let c = SharedMemConversions::standard();
        assert!(!c.derivable(&HlType::Bool, &LlType::array(LlType::Int)));
        assert!(!c.derivable(&HlType::fun(HlType::Bool, HlType::Bool), &LlType::Int));
        assert!(!c.derivable(&HlType::Unit, &LlType::fun(LlType::Int, LlType::Int)));
    }
}
