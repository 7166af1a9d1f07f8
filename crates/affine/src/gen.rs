//! Random generation of well-typed §4 programs.
//!
//! The generator is type-directed and *usage-aware*: every affine binder it
//! introduces is used exactly once or explicitly discarded, dynamic and
//! static arrows are chosen at random, and boundaries are inserted wherever a
//! conversion exists.  The §4 instantiations of the Fundamental Property and
//! the type-safety theorems quantify over all well-typed programs; the test
//! suites sample that space through this module.
//!
//! The generator reads the [`GenProfile`] it is given, the same profile
//! the sweep engine hands every case study.
//!
//! Boundary types come from structural candidates that are sound by
//! construction: every candidate pair is derivable under the standard
//! Fig. 9 rules, so the generator never derives glue itself (the test
//! `candidates_are_derivable_under_the_standard_rules` pins this).

use crate::syntax::{AffiExpr, AffiType, MlExpr, MlType, Mode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semint_core::case::{ConstructorClass, GenProfile};

/// Probability (0–100) of choosing the static arrow over the dynamic one
/// when introducing an affine function.
const STATIC_BIAS: u32 = 50;

/// A deterministic, seed-driven generator of closed well-typed Affi and
/// MiniML programs.  It reads its knobs from the [`GenProfile`] it is
/// given: expression depth, goal-type depth, boundary bias and constructor
/// weights.
#[derive(Debug)]
pub struct AffineProgramGen {
    rng: StdRng,
    profile: GenProfile,
    fresh: u64,
}

impl AffineProgramGen {
    /// A generator under the standard profile.
    pub fn new(seed: u64) -> Self {
        Self::with_profile(seed, &GenProfile::standard())
    }

    /// A generator under the given profile.
    pub fn with_profile(seed: u64, profile: &GenProfile) -> Self {
        AffineProgramGen {
            rng: StdRng::seed_from_u64(seed),
            profile: *profile,
            fresh: 0,
        }
    }

    fn fresh_name(&mut self, hint: &str) -> String {
        let n = self.fresh;
        self.fresh += 1;
        format!("{hint}{n}")
    }

    /// Generates a random Affi goal type, drawing constructor classes from
    /// the profile's weights: base types (`leaf`), tensors and dynamic
    /// lollis (`branch`, so deep pairs *and functions* sit under glue), and
    /// `!` wrappers (`wrap`).
    pub fn gen_affi_type(&mut self, depth: usize) -> AffiType {
        if depth == 0 {
            return match self.rng.gen_range(0..3) {
                0 => AffiType::Int,
                1 => AffiType::Bool,
                _ => AffiType::Unit,
            };
        }
        match self.pick_class() {
            ConstructorClass::Leaf => match self.rng.gen_range(0..3) {
                0 => AffiType::Int,
                1 => AffiType::Bool,
                _ => AffiType::Unit,
            },
            ConstructorClass::Branch => match self.rng.gen_range(0..3) {
                0 | 1 => {
                    AffiType::tensor(self.gen_affi_type(depth - 1), self.gen_affi_type(depth - 1))
                }
                _ => AffiType::lolli(self.gen_affi_type(depth - 1), self.gen_affi_type(depth - 1)),
            },
            ConstructorClass::Wrap => AffiType::bang(self.gen_affi_type(depth - 1)),
        }
    }

    /// A goal type at the profile's type depth.
    pub fn gen_goal_affi_type(&mut self) -> AffiType {
        self.gen_affi_type(self.profile.type_depth)
    }

    /// Generates a random MiniML goal type of bounded size (for the
    /// MiniML-hosted scenarios, which used to be pinned at `int`).
    pub fn gen_ml_type(&mut self, depth: usize) -> MlType {
        if depth == 0 {
            return if self.rng.gen_bool(0.5) {
                MlType::Int
            } else {
                MlType::Unit
            };
        }
        match self.pick_class() {
            ConstructorClass::Leaf => {
                if self.rng.gen_bool(0.5) {
                    MlType::Int
                } else {
                    MlType::Unit
                }
            }
            ConstructorClass::Branch => match self.rng.gen_range(0..3) {
                0 => MlType::prod(self.gen_ml_type(depth - 1), self.gen_ml_type(depth - 1)),
                1 => MlType::sum(self.gen_ml_type(depth - 1), self.gen_ml_type(depth - 1)),
                _ => MlType::fun(self.gen_ml_type(depth - 1), self.gen_ml_type(depth - 1)),
            },
            ConstructorClass::Wrap => MlType::ref_(self.gen_ml_type(depth - 1)),
        }
    }

    fn pick_class(&mut self) -> ConstructorClass {
        let total = self.profile.weights.total().max(1);
        self.profile.weights.class_for(self.rng.gen_range(0..total))
    }

    /// Generates a closed, well-typed Affi expression of type `ty`.
    pub fn gen_affi(&mut self, ty: &AffiType) -> AffiExpr {
        self.affi(ty, self.profile.max_depth)
    }

    /// Generates a closed, well-typed MiniML expression of type `ty`.
    pub fn gen_ml(&mut self, ty: &MlType) -> MlExpr {
        self.ml(ty, self.profile.max_depth)
    }

    fn boundary_here(&mut self) -> bool {
        self.rng.gen_range(0u32..100) < self.profile.boundary_bias
    }

    fn affi(&mut self, ty: &AffiType, depth: usize) -> AffiExpr {
        // Possibly detour through MiniML when a conversion exists.
        if depth > 0 && self.boundary_here() {
            if let Some(ml_ty) = ml_type_convertible_to(ty) {
                return AffiExpr::boundary(self.ml(&ml_ty, depth - 1), ty.clone());
            }
        }
        if depth == 0 {
            return self.affi_leaf(ty);
        }
        match self.rng.gen_range(0..4) {
            // Canonical constructor one level deep.
            0 => self.affi_constructor(ty, depth),
            // Apply an affine identity (fresh binder, used exactly once).
            1 => {
                let name = self.fresh_name("a");
                let arg = self.affi(ty, depth - 1);
                if self.rng.gen_range(0u32..100) < STATIC_BIAS {
                    AffiExpr::app(
                        AffiExpr::lam_static(
                            name.as_str(),
                            ty.clone(),
                            AffiExpr::avar_static(name.as_str()),
                        ),
                        arg,
                    )
                } else {
                    AffiExpr::app(
                        AffiExpr::lam(name.as_str(), ty.clone(), AffiExpr::avar(name.as_str())),
                        arg,
                    )
                }
            }
            // Destructure a tensor whose second component is the goal; the
            // first is dropped (affine, not linear, so that is allowed).
            2 => {
                let left = self.fresh_name("l");
                let right = self.fresh_name("r");
                let other = self.gen_affi_type(1);
                AffiExpr::let_tensor(
                    left.as_str(),
                    right.as_str(),
                    AffiExpr::tensor(self.affi(&other, 0), self.affi(ty, depth - 1)),
                    AffiExpr::avar_static(right.as_str()),
                )
            }
            // Project out of an additive pair (the unused side may share
            // nothing or everything; here both sides are independent).
            _ => {
                let other = self.gen_affi_type(1);
                if self.rng.gen_bool(0.5) {
                    AffiExpr::proj1(AffiExpr::with_pair(
                        self.affi(ty, depth - 1),
                        self.affi(&other, 0),
                    ))
                } else {
                    AffiExpr::proj2(AffiExpr::with_pair(
                        self.affi(&other, 0),
                        self.affi(ty, depth - 1),
                    ))
                }
            }
        }
    }

    fn affi_constructor(&mut self, ty: &AffiType, depth: usize) -> AffiExpr {
        let d = depth.saturating_sub(1);
        match ty {
            AffiType::Unit => AffiExpr::unit(),
            AffiType::Bool => AffiExpr::bool_(self.rng.gen_bool(0.5)),
            AffiType::Int => AffiExpr::int(self.rng.gen_range(-20..20)),
            AffiType::Tensor(a, b) => AffiExpr::tensor(self.affi(a, d), self.affi(b, d)),
            AffiType::With(a, b) => AffiExpr::with_pair(self.affi(a, d), self.affi(b, d)),
            AffiType::Bang(inner) => AffiExpr::bang(self.affi_leaf(inner)),
            AffiType::Lolli(mode, a, b) => {
                let name = self.fresh_name("f");
                // The body ignores the argument (affine drop) and produces a
                // value of the result type, so it is well-typed for either
                // mode without tracking usage of the binder.
                let body = self.affi(b, d);
                match mode {
                    crate::syntax::Mode::Static => {
                        AffiExpr::lam_static(name.as_str(), (**a).clone(), body)
                    }
                    crate::syntax::Mode::Dynamic => {
                        AffiExpr::lam(name.as_str(), (**a).clone(), body)
                    }
                }
            }
        }
    }

    fn affi_leaf(&mut self, ty: &AffiType) -> AffiExpr {
        match ty {
            AffiType::Unit => AffiExpr::unit(),
            AffiType::Bool => AffiExpr::bool_(self.rng.gen_bool(0.5)),
            AffiType::Int => AffiExpr::int(self.rng.gen_range(-20..20)),
            AffiType::Tensor(a, b) => AffiExpr::tensor(self.affi_leaf(a), self.affi_leaf(b)),
            AffiType::With(a, b) => AffiExpr::with_pair(self.affi_leaf(a), self.affi_leaf(b)),
            AffiType::Bang(inner) => AffiExpr::bang(self.affi_leaf(inner)),
            AffiType::Lolli(mode, a, b) => {
                let name = self.fresh_name("f");
                let body = self.affi_leaf(b);
                match mode {
                    crate::syntax::Mode::Static => {
                        AffiExpr::lam_static(name.as_str(), (**a).clone(), body)
                    }
                    crate::syntax::Mode::Dynamic => {
                        AffiExpr::lam(name.as_str(), (**a).clone(), body)
                    }
                }
            }
        }
    }

    fn ml(&mut self, ty: &MlType, depth: usize) -> MlExpr {
        if depth > 0 && self.boundary_here() {
            if let Some(affi_ty) = self.affi_type_convertible_to(ty) {
                return MlExpr::boundary(self.affi(&affi_ty, depth - 1), ty.clone());
            }
        }
        if depth == 0 {
            return self.ml_leaf(ty);
        }
        match self.rng.gen_range(0..3) {
            0 => self.ml_constructor(ty, depth),
            // Immediate application of a lambda (MiniML is unrestricted, so
            // the binder may be used any number of times; keep it to one).
            1 => {
                let name = self.fresh_name("x");
                MlExpr::app(
                    MlExpr::lam(name.as_str(), MlType::Int, self.ml(ty, depth - 1)),
                    self.ml(&MlType::Int, depth - 1),
                )
            }
            _ => {
                // Projection out of a pair containing the goal type.
                if self.rng.gen_bool(0.5) {
                    MlExpr::fst(MlExpr::pair(
                        self.ml(ty, depth - 1),
                        self.ml_leaf(&MlType::Unit),
                    ))
                } else {
                    MlExpr::snd(MlExpr::pair(
                        self.ml_leaf(&MlType::Int),
                        self.ml(ty, depth - 1),
                    ))
                }
            }
        }
    }

    fn ml_constructor(&mut self, ty: &MlType, depth: usize) -> MlExpr {
        let d = depth.saturating_sub(1);
        match ty {
            MlType::Unit => MlExpr::unit(),
            MlType::Int => {
                if d > 0 && self.rng.gen_bool(0.5) {
                    MlExpr::add(self.ml(&MlType::Int, d), self.ml(&MlType::Int, d))
                } else {
                    MlExpr::int(self.rng.gen_range(-20..20))
                }
            }
            MlType::Prod(a, b) => MlExpr::pair(self.ml(a, d), self.ml(b, d)),
            MlType::Sum(a, b) => {
                if self.rng.gen_bool(0.5) {
                    MlExpr::inl(self.ml(a, d), ty.clone())
                } else {
                    MlExpr::inr(self.ml(b, d), ty.clone())
                }
            }
            MlType::Fun(a, b) => {
                let name = self.fresh_name("x");
                MlExpr::lam(name.as_str(), (**a).clone(), self.ml(b, d))
            }
            MlType::Ref(a) => MlExpr::ref_(self.ml(a, d)),
        }
    }

    fn ml_leaf(&mut self, ty: &MlType) -> MlExpr {
        match ty {
            MlType::Unit => MlExpr::unit(),
            MlType::Int => MlExpr::int(self.rng.gen_range(-20..20)),
            MlType::Prod(a, b) => MlExpr::pair(self.ml_leaf(a), self.ml_leaf(b)),
            MlType::Sum(a, _) => MlExpr::inl(self.ml_leaf(a), ty.clone()),
            MlType::Fun(a, b) => {
                let name = self.fresh_name("x");
                MlExpr::lam(name.as_str(), (**a).clone(), self.ml_leaf(b))
            }
            MlType::Ref(a) => MlExpr::ref_(self.ml_leaf(a)),
        }
    }

    /// Picks an Affi type convertible with the MiniML goal type, if any
    /// (the mirror image of [`ml_type_convertible_to`]; `int` has two
    /// candidates and one random draw picks which).
    fn affi_type_convertible_to(&mut self, ty: &MlType) -> Option<AffiType> {
        match ty {
            MlType::Unit => Some(AffiType::Unit),
            MlType::Int => Some(if self.rng.gen_bool(0.5) {
                AffiType::Int
            } else {
                AffiType::Bool
            }),
            MlType::Prod(a, b) => Some(AffiType::tensor(
                self.affi_type_convertible_to(a)?,
                self.affi_type_convertible_to(b)?,
            )),
            MlType::Fun(thunk, b) => {
                let m1 = match thunk.as_ref() {
                    MlType::Fun(u, m1) if **u == MlType::Unit => m1,
                    _ => return None,
                };
                Some(AffiType::lolli(
                    self.affi_type_convertible_to(m1)?,
                    self.affi_type_convertible_to(b)?,
                ))
            }
            MlType::Sum(_, _) | MlType::Ref(_) => None,
        }
    }
}

/// Picks a MiniML type convertible with the Affi goal type, if any.
/// Recursion covers tensors, `!` and dynamic lollis (`𝜏1 ⊸ 𝜏2 ∼
/// (unit → τ1) → τ2`), so boundaries appear under deep pairs and
/// functions, not only at base types.  Every candidate is derivable under
/// the standard rules, so no glue is derived to confirm it.
fn ml_type_convertible_to(ty: &AffiType) -> Option<MlType> {
    match ty {
        AffiType::Unit => Some(MlType::Unit),
        AffiType::Bool | AffiType::Int => Some(MlType::Int),
        AffiType::Bang(inner) => ml_type_convertible_to(inner),
        AffiType::Tensor(a, b) => Some(MlType::prod(
            ml_type_convertible_to(a)?,
            ml_type_convertible_to(b)?,
        )),
        AffiType::Lolli(Mode::Dynamic, a, b) => Some(MlType::fun(
            MlType::fun(MlType::Unit, ml_type_convertible_to(a)?),
            ml_type_convertible_to(b)?,
        )),
        AffiType::Lolli(Mode::Static, _, _) | AffiType::With(_, _) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::AffineConversions;
    use crate::harness::{AffProgram, AffineCase};
    use crate::typecheck::{check_affi, check_ml, AffineCtx};
    use lcvm::{Machine, PhantomConfig};
    use semint_core::case::CaseStudy;
    use semint_core::convert::ConversionScheme;
    use semint_core::Fuel;
    use std::collections::HashSet;

    #[test]
    fn generated_affi_programs_typecheck_at_the_requested_type() {
        let rules = AffineConversions::standard();
        for seed in 0..80 {
            let mut gen = AffineProgramGen::new(seed);
            let ty = gen.gen_affi_type(2);
            let e = gen.gen_affi(&ty);
            let (checked, _) = check_affi(&AffineCtx::empty(), &e, &rules)
                .unwrap_or_else(|err| panic!("seed {seed}: {e} does not typecheck: {err}"));
            assert_eq!(checked, ty, "seed {seed}");
        }
    }

    #[test]
    fn generated_ml_programs_typecheck() {
        let rules = AffineConversions::standard();
        for seed in 0..80 {
            let mut gen = AffineProgramGen::new(seed);
            let e = gen.gen_ml(&MlType::Int);
            let (ty, _) = check_ml(&AffineCtx::empty(), &e, &rules)
                .unwrap_or_else(|err| panic!("seed {seed}: {e} does not typecheck: {err}"));
            assert_eq!(ty, MlType::Int);
        }
    }

    #[test]
    fn generated_programs_run_safely_under_both_semantics() {
        let case = AffineCase::standard();
        for seed in 0..60 {
            let mut gen = AffineProgramGen::new(seed);
            let ty = gen.gen_affi_type(1);
            let program = AffProgram::Affi(gen.gen_affi(&ty));
            case.typecheck(&program).expect("typechecks");
            let compiled = case.compile(&program).expect("compiles");
            let phantom = Machine::run_phantom(
                compiled.expr.clone(),
                PhantomConfig::protecting(compiled.static_binders.iter().cloned()),
                Fuel::default(),
            );
            assert!(
                phantom.halt.is_safe(),
                "seed {seed}: phantom run unsafe for {program}"
            );
            assert!(
                case.execute(compiled, Fuel::default()).halt.is_safe(),
                "seed {seed}: standard run unsafe for {program}"
            );
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = AffineProgramGen::new(11);
        let mut b = AffineProgramGen::new(11);
        assert_eq!(a.gen_affi(&AffiType::Int), b.gen_affi(&AffiType::Int));
    }

    #[test]
    fn boundary_bias_zero_keeps_programs_single_language() {
        let profile = GenProfile {
            boundary_bias: 0,
            ..GenProfile::standard()
        };
        for seed in 0..20 {
            let mut gen = AffineProgramGen::with_profile(seed, &profile);
            let e = gen.gen_affi(&AffiType::Int);
            assert!(!format!("{e}").contains('⦇'), "unexpected boundary in {e}");
        }
    }

    fn affi_type_depth(ty: &AffiType) -> usize {
        match ty {
            AffiType::Int | AffiType::Bool | AffiType::Unit => 0,
            AffiType::Tensor(a, b) | AffiType::With(a, b) | AffiType::Lolli(_, a, b) => {
                1 + affi_type_depth(a).max(affi_type_depth(b))
            }
            AffiType::Bang(a) => 1 + affi_type_depth(a),
        }
    }

    #[test]
    fn deep_profile_types_reach_depth_four_and_programs_typecheck() {
        let rules = AffineConversions::standard();
        let mut max_depth_seen = 0;
        for seed in 0..40 {
            let mut gen = AffineProgramGen::with_profile(seed, &GenProfile::deep());
            let ty = gen.gen_goal_affi_type();
            max_depth_seen = max_depth_seen.max(affi_type_depth(&ty));
            let e = gen.gen_affi(&ty);
            let (checked, _) = check_affi(&AffineCtx::empty(), &e, &rules)
                .unwrap_or_else(|err| panic!("seed {seed}: {e} does not typecheck: {err}"));
            assert_eq!(checked, ty, "seed {seed}");
        }
        assert!(
            max_depth_seen >= 4,
            "deep profile never generated a depth-4 goal type (max {max_depth_seen})"
        );
    }

    #[test]
    fn deep_ml_goal_types_typecheck_too() {
        let rules = AffineConversions::standard();
        let deep = GenProfile::deep();
        for seed in 0..40 {
            let mut gen = AffineProgramGen::with_profile(seed, &deep);
            let ty = gen.gen_ml_type(deep.type_depth);
            let e = gen.gen_ml(&ty);
            let (checked, _) = check_ml(&AffineCtx::empty(), &e, &rules)
                .unwrap_or_else(|err| panic!("seed {seed}: {e} does not typecheck: {err}"));
            assert_eq!(checked, ty, "seed {seed}");
        }
    }

    #[test]
    fn dynamic_lolli_goals_can_cross_the_boundary() {
        // 𝜏 ⊸ 𝜏 ∼ (unit → τ) → τ is derivable, so bias 100 must produce a
        // boundary at a lolli goal type for some seed.
        let profile = GenProfile {
            boundary_bias: 100,
            ..GenProfile::standard()
        };
        let goal = AffiType::lolli(AffiType::Int, AffiType::Int);
        let crossed = (0..20).any(|seed| {
            let mut gen = AffineProgramGen::with_profile(seed, &profile);
            format!("{}", gen.gen_affi(&goal)).contains('⦇')
        });
        assert!(crossed, "no seed crossed a boundary at {goal}");
    }

    /// Every Affi type of depth ≤ `depth`, over every constructor
    /// (including `&` and the static arrow `⊸•`, which the generator never
    /// builds as goal types).
    fn all_affi_types(depth: usize) -> Vec<AffiType> {
        let mut out = vec![AffiType::Int, AffiType::Bool, AffiType::Unit];
        if depth == 0 {
            return out;
        }
        let smaller = all_affi_types(depth - 1);
        out.extend(smaller.iter().cloned().map(AffiType::bang));
        for a in &smaller {
            for b in &smaller {
                out.push(AffiType::tensor(a.clone(), b.clone()));
                out.push(AffiType::with(a.clone(), b.clone()));
                out.push(AffiType::lolli(a.clone(), b.clone()));
                out.push(AffiType::lolli_static(a.clone(), b.clone()));
            }
        }
        out
    }

    /// Every MiniML type of depth ≤ `depth`, over every constructor.
    fn all_ml_types(depth: usize) -> Vec<MlType> {
        let mut out = vec![MlType::Unit, MlType::Int];
        if depth == 0 {
            return out;
        }
        let smaller = all_ml_types(depth - 1);
        out.extend(smaller.iter().cloned().map(MlType::ref_));
        for a in &smaller {
            for b in &smaller {
                out.push(MlType::prod(a.clone(), b.clone()));
                out.push(MlType::sum(a.clone(), b.clone()));
                out.push(MlType::fun(a.clone(), b.clone()));
            }
        }
        out
    }

    /// The generator derives no glue: each boundary type it proposes must
    /// be derivable under the standard Fig. 9 rules.  Covers every type of
    /// depth ≤ 2 in both directions plus deep-profile random types of depth
    /// ≤ 6, and both candidates the random draw in
    /// `affi_type_convertible_to` can pick for `int`.
    #[test]
    fn candidates_are_derivable_under_the_standard_rules() {
        let rules = AffineConversions::standard();
        let mut random = AffineProgramGen::with_profile(0, &GenProfile::deep());
        let mut affi_types = all_affi_types(2);
        let mut ml_types = all_ml_types(2);
        // Deep lolli glue is large, so 5 000 draws keep this under a
        // second in a debug build.
        for _ in 0..5_000 {
            affi_types.push(random.gen_affi_type(6));
            ml_types.push(random.gen_ml_type(6));
        }
        for ty in &affi_types {
            if let Some(ml) = ml_type_convertible_to(ty) {
                assert!(rules.derivable(ty, &ml), "unsound candidate {ty} ∼ {ml}");
            }
        }
        let mut picked = HashSet::new();
        for ty in &ml_types {
            for _ in 0..4 {
                if let Some(affi) = random.affi_type_convertible_to(ty) {
                    assert!(
                        rules.derivable(&affi, ty),
                        "unsound candidate {affi} ∼ {ty}"
                    );
                    picked.insert((affi, ty.clone()));
                }
            }
        }
        for affi in [AffiType::Int, AffiType::Bool] {
            assert!(
                picked.contains(&(affi.clone(), MlType::Int)),
                "never picked {affi} ∼ int"
            );
        }
    }
}
