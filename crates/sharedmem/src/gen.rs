//! Random generation of well-typed multi-language programs.
//!
//! The fundamental property (Theorem 3.2) and the type-safety theorems
//! (3.3/3.4) quantify over *all* well-typed programs; the executable test
//! suite instantiates them over a large randomized sample.  The generator is
//! type-directed: [`ProgramGen::gen_hl`] produces a RefHL expression of a requested type,
//! [`ProgramGen::gen_ll`] a RefLL expression, and both freely insert boundaries at
//! convertible types so the generated programs exercise the glue code.
//!
//! The generator reads the [`GenProfile`] it is given, the same profile
//! the sweep engine hands every case study.
//!
//! Boundary types come from structural candidates that are sound by
//! construction: every candidate pair is derivable under the standard
//! Fig. 4 rules, so the generator never derives glue itself (the test
//! `candidates_are_derivable_under_the_standard_rules` pins this).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reflang::syntax::{HlExpr, HlType, LlExpr, LlType};
use semint_core::case::{ConstructorClass, GenProfile};

/// A deterministic program generator seeded by a `u64`, so property tests can
/// shrink on the seed.  It reads its knobs from the [`GenProfile`] it is
/// given: expression depth, goal-type depth, boundary bias and constructor
/// weights.
#[derive(Debug)]
pub struct ProgramGen {
    rng: StdRng,
    profile: GenProfile,
}

impl ProgramGen {
    /// A generator under the standard profile.
    pub fn new(seed: u64) -> Self {
        ProgramGen::with_profile(seed, &GenProfile::standard())
    }

    /// A generator under the given profile.
    pub fn with_profile(seed: u64, profile: &GenProfile) -> Self {
        ProgramGen {
            rng: StdRng::seed_from_u64(seed),
            profile: *profile,
        }
    }

    /// Generates a closed, well-typed RefHL expression of type `ty`.
    pub fn gen_hl(&mut self, ty: &HlType) -> HlExpr {
        self.hl(ty, self.profile.max_depth)
    }

    /// Generates a closed, well-typed RefLL expression of type `ty`.
    pub fn gen_ll(&mut self, ty: &LlType) -> LlExpr {
        self.ll(ty, self.profile.max_depth)
    }

    /// Generates a random RefHL type of bounded size (used to vary the goal
    /// type itself in property tests and by [`ProgramGen::gen_goal_hl_type`]
    /// at the profile's type depth).  Constructor classes are drawn from
    /// the profile's constructor weights, so branch-heavy profiles
    /// recurse most of the time and reach their full depth budget.
    pub fn gen_hl_type(&mut self, depth: usize) -> HlType {
        if depth == 0 {
            return if self.rng.gen_bool(0.5) {
                HlType::Bool
            } else {
                HlType::Unit
            };
        }
        match self.pick_class() {
            ConstructorClass::Leaf => {
                if self.rng.gen_bool(0.5) {
                    HlType::Bool
                } else {
                    HlType::Unit
                }
            }
            ConstructorClass::Branch => match self.rng.gen_range(0..3) {
                0 => HlType::sum(self.gen_hl_type(depth - 1), self.gen_hl_type(depth - 1)),
                1 => HlType::prod(self.gen_hl_type(depth - 1), self.gen_hl_type(depth - 1)),
                _ => HlType::fun(self.gen_hl_type(depth - 1), self.gen_hl_type(depth - 1)),
            },
            ConstructorClass::Wrap => HlType::ref_(self.gen_hl_type(depth - 1)),
        }
    }

    /// A goal type at the profile's type depth.
    pub fn gen_goal_hl_type(&mut self) -> HlType {
        self.gen_hl_type(self.profile.type_depth)
    }

    /// Generates a random RefLL goal type of bounded size (deep arrays and
    /// shared references for the RefLL-hosted scenarios).
    pub fn gen_ll_type(&mut self, depth: usize) -> LlType {
        if depth == 0 {
            return LlType::Int;
        }
        match self.pick_class() {
            ConstructorClass::Leaf => LlType::Int,
            ConstructorClass::Branch => LlType::array(self.gen_ll_type(depth - 1)),
            ConstructorClass::Wrap => LlType::ref_(self.gen_ll_type(depth - 1)),
        }
    }

    fn pick_class(&mut self) -> ConstructorClass {
        let total = self.profile.weights.total().max(1);
        self.profile.weights.class_for(self.rng.gen_range(0..total))
    }

    fn boundary_here(&mut self) -> bool {
        self.rng.gen_range(0u32..100) < self.profile.boundary_bias
    }

    fn hl(&mut self, ty: &HlType, depth: usize) -> HlExpr {
        // Possibly detour through RefLL when a conversion exists.
        if depth > 0 && self.boundary_here() {
            if let Some(ll_ty) = ll_candidate_for(ty) {
                let inner = self.ll(&ll_ty, depth - 1);
                return HlExpr::boundary(inner, ty.clone());
            }
        }
        if depth == 0 {
            return self.hl_leaf(ty);
        }
        match self.rng.gen_range(0..4) {
            // A leaf / canonical constructor.
            0 => self.hl_leaf_deep(ty, depth),
            // if
            1 => HlExpr::if_(
                self.hl(&HlType::Bool, depth - 1),
                self.hl(ty, depth - 1),
                self.hl(ty, depth - 1),
            ),
            // Projection from a pair containing the goal type.
            2 => {
                if self.rng.gen_bool(0.5) {
                    HlExpr::fst(HlExpr::pair(
                        self.hl(ty, depth - 1),
                        self.hl(&HlType::Unit, 0),
                    ))
                } else {
                    HlExpr::snd(HlExpr::pair(
                        self.hl(&HlType::Bool, 0),
                        self.hl(ty, depth - 1),
                    ))
                }
            }
            // Immediate application of a lambda.
            _ => {
                let arg_ty = if self.rng.gen_bool(0.5) {
                    HlType::Bool
                } else {
                    HlType::Unit
                };
                let var = format!("x{}", self.rng.gen_range(0..1000));
                HlExpr::app(
                    HlExpr::lam(var.as_str(), arg_ty.clone(), self.hl(ty, depth - 1)),
                    self.hl(&arg_ty, depth - 1),
                )
            }
        }
    }

    fn hl_leaf(&mut self, ty: &HlType) -> HlExpr {
        self.hl_leaf_deep(ty, 1)
    }

    fn hl_leaf_deep(&mut self, ty: &HlType, depth: usize) -> HlExpr {
        let d = depth.saturating_sub(1);
        match ty {
            HlType::Unit => HlExpr::unit(),
            HlType::Bool => HlExpr::bool_(self.rng.gen_bool(0.5)),
            HlType::Sum(a, b) => {
                if self.rng.gen_bool(0.5) {
                    HlExpr::inl(self.hl(a, d), ty.clone())
                } else {
                    HlExpr::inr(self.hl(b, d), ty.clone())
                }
            }
            HlType::Prod(a, b) => HlExpr::pair(self.hl(a, d), self.hl(b, d)),
            HlType::Fun(a, b) => {
                let var = format!("f{}", self.rng.gen_range(0..1000));
                HlExpr::lam(var.as_str(), (**a).clone(), self.hl(b, d))
            }
            HlType::Ref(a) => HlExpr::ref_(self.hl(a, d)),
        }
    }

    fn ll(&mut self, ty: &LlType, depth: usize) -> LlExpr {
        if depth > 0 && self.boundary_here() {
            if let Some(hl_ty) = self.convertible_hl_for(ty) {
                let inner = self.hl(&hl_ty, depth - 1);
                return LlExpr::boundary(inner, ty.clone());
            }
        }
        if depth == 0 {
            return self.ll_leaf(ty);
        }
        match ty {
            LlType::Int => match self.rng.gen_range(0..4) {
                0 => LlExpr::int(self.rng.gen_range(-5..50)),
                1 => LlExpr::add(
                    self.ll(&LlType::Int, depth - 1),
                    self.ll(&LlType::Int, depth - 1),
                ),
                2 => LlExpr::if0(
                    self.ll(&LlType::Int, depth - 1),
                    self.ll(&LlType::Int, depth - 1),
                    self.ll(&LlType::Int, depth - 1),
                ),
                _ => LlExpr::index(
                    LlExpr::array(
                        (0..self.rng.gen_range(1..4)).map(|_| self.ll(&LlType::Int, 0)),
                        LlType::Int,
                    ),
                    LlExpr::int(0),
                ),
            },
            LlType::Array(elem) => LlExpr::array(
                (0..self.rng.gen_range(0..4)).map(|_| self.ll(elem, depth - 1)),
                (**elem).clone(),
            ),
            LlType::Fun(a, b) => {
                let var = format!("g{}", self.rng.gen_range(0..1000));
                LlExpr::lam(var.as_str(), (**a).clone(), self.ll(b, depth - 1))
            }
            LlType::Ref(a) => LlExpr::ref_(self.ll(a, depth - 1)),
        }
    }

    fn ll_leaf(&mut self, ty: &LlType) -> LlExpr {
        match ty {
            LlType::Int => LlExpr::int(self.rng.gen_range(-5..50)),
            LlType::Array(elem) => LlExpr::array(
                (0..self.rng.gen_range(0..3)).map(|_| self.ll_leaf(elem)),
                (**elem).clone(),
            ),
            LlType::Fun(a, b) => {
                let var = format!("g{}", self.rng.gen_range(0..1000));
                let body = self.ll_leaf(b);
                LlExpr::lam(var.as_str(), (**a).clone(), body)
            }
            LlType::Ref(a) => LlExpr::ref_(self.ll_leaf(a)),
        }
    }

    /// Picks a RefHL type convertible with `ty`, if the rule set has one.
    /// `int` and `[int]` each have two candidates; one random draw picks
    /// which, and both are derivable, so the pick is the answer.
    fn convertible_hl_for(&mut self, ty: &LlType) -> Option<HlType> {
        match ty {
            LlType::Int => Some(if self.rng.gen_bool(0.5) {
                HlType::Bool
            } else {
                HlType::Unit
            }),
            // Pointer sharing needs no-op payload glue, so the payload
            // candidate chain bottoms out at `bool ∼ int`.
            LlType::Ref(inner) => hl_ref_payload_for(inner).map(HlType::ref_),
            LlType::Array(inner) => match inner.as_ref() {
                LlType::Int => Some(if self.rng.gen_bool(0.5) {
                    HlType::sum(HlType::Bool, HlType::Bool)
                } else {
                    HlType::prod(HlType::Bool, HlType::Unit)
                }),
                // Deep arrays become nested products whose components all
                // convert to the element type.
                elem => self
                    .convertible_hl_for(elem)
                    .map(|c| HlType::prod(c.clone(), c)),
            },
            LlType::Fun(_, _) => None,
        }
    }
}

/// The structural RefLL candidate for a RefHL type, built so boundaries
/// appear under *deep* compound types: `bool`/`unit` go to `int`, sums of
/// int-convertible arms go to `[int]`, products go to an array of their
/// (shared) component candidate, and reference chains pass the pointer
/// when the payload glue is a no-op.  Every candidate is derivable under
/// the standard rules, so no glue is derived to confirm it.
fn ll_candidate_for(ty: &HlType) -> Option<LlType> {
    match ty {
        HlType::Bool | HlType::Unit => Some(LlType::Int),
        HlType::Ref(inner) => ll_ref_payload_for(inner).map(LlType::ref_),
        HlType::Sum(t1, t2) => {
            let int_arm = |t: &HlType| ll_candidate_for(t) == Some(LlType::Int);
            (int_arm(t1) && int_arm(t2)).then(|| LlType::array(LlType::Int))
        }
        HlType::Prod(t1, t2) => {
            let c1 = ll_candidate_for(t1)?;
            let c2 = ll_candidate_for(t2)?;
            (c1 == c2).then(|| LlType::array(c1))
        }
        HlType::Fun(_, _) => None,
    }
}

/// The RefLL payload for a shared reference: only no-op glue chains
/// (`bool ∼ int` under any number of `ref`s) qualify under the paper's
/// pointer-sharing strategy.
fn ll_ref_payload_for(ty: &HlType) -> Option<LlType> {
    match ty {
        HlType::Bool => Some(LlType::Int),
        HlType::Ref(inner) => ll_ref_payload_for(inner).map(LlType::ref_),
        _ => None,
    }
}

/// The RefHL payload candidate for a RefLL reference, mirroring
/// [`ll_ref_payload_for`].
fn hl_ref_payload_for(ty: &LlType) -> Option<HlType> {
    match ty {
        LlType::Int => Some(HlType::Bool),
        LlType::Ref(inner) => hl_ref_payload_for(inner).map(HlType::ref_),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::SharedMemConversions;
    use reflang::typecheck::{check_hl, check_ll, TypeCtx};
    use semint_core::convert::ConversionScheme;
    use std::collections::HashSet;

    /// The standard profile at expression depth 5, the population these
    /// tests were written against.
    fn depth_5() -> GenProfile {
        GenProfile {
            max_depth: 5,
            ..GenProfile::standard()
        }
    }

    #[test]
    fn generated_hl_programs_typecheck_at_the_requested_type() {
        let rules = SharedMemConversions::standard();
        for seed in 0..60 {
            let mut gen = ProgramGen::with_profile(seed, &depth_5());
            let ty = gen.gen_hl_type(2);
            let e = gen.gen_hl(&ty);
            let checked = check_hl(&TypeCtx::empty(), &e, &|h, l| rules.derivable(h, l))
                .unwrap_or_else(|err| {
                    panic!("seed {seed}: generated program {e} does not typecheck: {err}")
                });
            assert_eq!(checked, ty, "seed {seed}");
        }
    }

    #[test]
    fn generated_ll_programs_typecheck() {
        let rules = SharedMemConversions::standard();
        for seed in 0..60 {
            let mut gen = ProgramGen::with_profile(seed, &depth_5());
            let e = gen.gen_ll(&LlType::Int);
            let ty = check_ll(&TypeCtx::empty(), &e, &|h, l| rules.derivable(h, l))
                .expect("generated RefLL program typechecks");
            assert_eq!(ty, LlType::Int);
        }
    }

    #[test]
    fn generator_is_deterministic_in_its_seed() {
        let mut a = ProgramGen::with_profile(7, &depth_5());
        let mut b = ProgramGen::with_profile(7, &depth_5());
        assert_eq!(a.gen_hl(&HlType::Bool), b.gen_hl(&HlType::Bool));
    }

    #[test]
    fn boundary_bias_zero_generates_single_language_programs() {
        let profile = GenProfile {
            boundary_bias: 0,
            ..GenProfile::standard()
        };
        for seed in 0..20 {
            let mut gen = ProgramGen::with_profile(seed, &profile);
            let e = gen.gen_hl(&HlType::Bool);
            assert!(!format!("{e}").contains('⦇'), "no boundaries expected: {e}");
        }
    }

    fn hl_type_depth(ty: &HlType) -> usize {
        match ty {
            HlType::Bool | HlType::Unit => 0,
            HlType::Sum(a, b) | HlType::Prod(a, b) | HlType::Fun(a, b) => {
                1 + hl_type_depth(a).max(hl_type_depth(b))
            }
            HlType::Ref(a) => 1 + hl_type_depth(a),
        }
    }

    #[test]
    fn deep_profile_types_reach_depth_four_and_programs_typecheck() {
        let rules = SharedMemConversions::standard();
        let mut max_depth_seen = 0;
        for seed in 0..40 {
            let mut gen = ProgramGen::with_profile(seed, &GenProfile::deep());
            let ty = gen.gen_goal_hl_type();
            max_depth_seen = max_depth_seen.max(hl_type_depth(&ty));
            let e = gen.gen_hl(&ty);
            let checked = check_hl(&TypeCtx::empty(), &e, &|h, l| rules.derivable(h, l))
                .unwrap_or_else(|err| panic!("seed {seed}: {e} does not typecheck: {err}"));
            assert_eq!(checked, ty, "seed {seed}");
        }
        assert!(
            max_depth_seen >= 4,
            "deep profile never generated a depth-4 goal type (max {max_depth_seen})"
        );
    }

    #[test]
    fn deep_compound_types_still_get_boundaries() {
        // A depth-3 all-products type converts to nested int arrays, so the
        // recursive candidate construction must find glue for it.
        let ty = HlType::prod(
            HlType::prod(HlType::Bool, HlType::Bool),
            HlType::prod(HlType::Bool, HlType::Bool),
        );
        let profile = GenProfile {
            boundary_bias: 100,
            ..depth_5()
        };
        let mut gen = ProgramGen::with_profile(11, &profile);
        let e = gen.gen_hl(&ty);
        assert!(
            format!("{e}").contains('⦇'),
            "bias 100 over a convertible deep type must cross a boundary: {e}"
        );
    }

    /// Every RefHL type of depth ≤ `depth`, over every constructor
    /// (including functions and references of compound types, which the
    /// generator never proposes a candidate for).
    fn all_hl_types(depth: usize) -> Vec<HlType> {
        let mut out = vec![HlType::Bool, HlType::Unit];
        if depth == 0 {
            return out;
        }
        let smaller = all_hl_types(depth - 1);
        out.extend(smaller.iter().cloned().map(HlType::ref_));
        for a in &smaller {
            for b in &smaller {
                out.push(HlType::sum(a.clone(), b.clone()));
                out.push(HlType::prod(a.clone(), b.clone()));
                out.push(HlType::fun(a.clone(), b.clone()));
            }
        }
        out
    }

    /// Every RefLL type of depth ≤ `depth`, over every constructor.
    fn all_ll_types(depth: usize) -> Vec<LlType> {
        let mut out = vec![LlType::Int];
        if depth == 0 {
            return out;
        }
        let smaller = all_ll_types(depth - 1);
        out.extend(smaller.iter().cloned().map(LlType::array));
        out.extend(smaller.iter().cloned().map(LlType::ref_));
        for a in &smaller {
            for b in &smaller {
                out.push(LlType::fun(a.clone(), b.clone()));
            }
        }
        out
    }

    /// The generator derives no glue: each boundary type it proposes must
    /// be derivable under the standard Fig. 4 rules.  Covers every type of
    /// depth ≤ 2 in both directions plus deep-profile random types of depth
    /// ≤ 6, and every candidate the random draw in `convertible_hl_for` can
    /// pick.
    #[test]
    fn candidates_are_derivable_under_the_standard_rules() {
        let rules = SharedMemConversions::standard();
        let mut random = ProgramGen::with_profile(0, &GenProfile::deep());
        let mut hl_types = all_hl_types(2);
        let mut ll_types = all_ll_types(2);
        for _ in 0..20_000 {
            hl_types.push(random.gen_hl_type(6));
            ll_types.push(random.gen_ll_type(6));
        }
        for ty in &hl_types {
            if let Some(ll) = ll_candidate_for(ty) {
                assert!(rules.derivable(ty, &ll), "unsound candidate {ty} ∼ {ll}");
            }
        }
        let mut picked = HashSet::new();
        for ty in &ll_types {
            for _ in 0..8 {
                if let Some(hl) = random.convertible_hl_for(ty) {
                    assert!(rules.derivable(&hl, ty), "unsound candidate {hl} ∼ {ty}");
                    picked.insert((hl, ty.clone()));
                }
            }
        }
        for (hl, ll) in [
            (HlType::Bool, LlType::Int),
            (HlType::Unit, LlType::Int),
            (
                HlType::sum(HlType::Bool, HlType::Bool),
                LlType::array(LlType::Int),
            ),
            (
                HlType::prod(HlType::Bool, HlType::Unit),
                LlType::array(LlType::Int),
            ),
        ] {
            assert!(
                picked.contains(&(hl.clone(), ll.clone())),
                "never picked {hl} ∼ {ll}"
            );
        }
    }

    /// `τ1 + τ2 ∼ [int]` needs both arms to convert to `int`; a sum with a
    /// reference arm has no array candidate.
    #[test]
    fn sums_with_a_non_int_arm_get_no_candidate() {
        let ty = HlType::sum(HlType::Bool, HlType::ref_(HlType::Bool));
        assert_eq!(ll_candidate_for(&ty), None);
        assert!(!SharedMemConversions::standard().derivable(&ty, &LlType::array(LlType::Int)));
        let both_int = HlType::sum(HlType::Bool, HlType::Unit);
        assert_eq!(
            ll_candidate_for(&both_int),
            Some(LlType::array(LlType::Int))
        );
    }
}
