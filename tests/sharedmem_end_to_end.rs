//! Cross-crate integration tests for case study 1 (§3), including the
//! randomized instantiations of the Fundamental Property (Thm 3.2) and the
//! type-safety theorems (Thm 3.3/3.4).

use proptest::prelude::*;
use semint::core::{CaseStudy, Fuel, GenProfile};
use semint::reflang::syntax::{HlExpr, HlType, LlExpr, LlType};
use semint::sharedmem::convert::{RefStrategy, SharedMemConversions};
use semint::sharedmem::gen::ProgramGen;
use semint::sharedmem::model::{check_convertibility, expr_in, SemType, World};
use semint::sharedmem::{SharedMemCase, SmProgram, SourceType};
use semint::stacklang::Value;

/// The step budget of every run here but the copy-convert ones.
const FUEL: Fuel = Fuel::steps(200_000);

/// The copy-convert ablation of the paper's Discussion.
fn copying() -> SharedMemCase {
    SharedMemCase::new(SharedMemConversions::with_ref_strategy(RefStrategy::Copy))
}

/// The standard generation profile with the given expression depth and
/// boundary bias.
fn profile(max_depth: usize, boundary_bias: u32) -> GenProfile {
    GenProfile {
        max_depth,
        boundary_bias,
        ..GenProfile::standard()
    }
}

#[test]
fn the_paper_running_example_bool_int_roundtrip() {
    // RefHL booleans cross into RefLL, get arithmetic applied, and come back.
    let case = SharedMemCase::standard();
    let e = HlExpr::if_(
        HlExpr::boundary(
            LlExpr::add(
                LlExpr::boundary(HlExpr::bool_(true), LlType::Int),
                LlExpr::int(0),
            ),
            HlType::Bool,
        ),
        HlExpr::bool_(false),
        HlExpr::bool_(true),
    );
    // true compiles to 0; 0 + 0 = 0; 0 is true; so the first branch (false) runs.
    let r = case.run(&SmProgram::Hl(e), FUEL).unwrap();
    assert_eq!(r.outcome.value(), Some(Value::Num(1)));
}

#[test]
fn aliasing_through_nested_boundaries_is_preserved() {
    // A RefLL reference crosses into RefHL, gets written, and the update is
    // observed by RefLL through the original alias — with zero copies.
    let case = SharedMemCase::standard();
    let program = LlExpr::app(
        LlExpr::lam(
            "cell",
            LlType::ref_(LlType::Int),
            LlExpr::add(
                LlExpr::boundary(
                    HlExpr::assign(
                        HlExpr::boundary(LlExpr::var("cell"), HlType::ref_(HlType::Bool)),
                        HlExpr::bool_(false),
                    ),
                    LlType::Int,
                ),
                LlExpr::deref(LlExpr::var("cell")),
            ),
        ),
        LlExpr::ref_(LlExpr::int(0)),
    );
    let r = case.run(&SmProgram::Ll(program), FUEL).unwrap();
    // assignment contributes 0 (unit), the cell now holds false = 1.
    assert_eq!(r.outcome.value(), Some(Value::Num(1)));
    assert_eq!(r.heap.len(), 1, "sharing allocates exactly one cell");
}

#[test]
fn convertibility_soundness_holds_for_every_derivable_rule_in_a_catalogue() {
    let hl_types = [
        HlType::Bool,
        HlType::Unit,
        HlType::ref_(HlType::Bool),
        HlType::ref_(HlType::ref_(HlType::Bool)),
        HlType::sum(HlType::Bool, HlType::Bool),
        HlType::sum(HlType::Unit, HlType::Bool),
        HlType::prod(HlType::Bool, HlType::Unit),
        HlType::prod(HlType::Bool, HlType::Bool),
    ];
    let ll_types = [
        LlType::Int,
        LlType::ref_(LlType::Int),
        LlType::ref_(LlType::ref_(LlType::Int)),
        LlType::array(LlType::Int),
    ];
    let conversions = SharedMemConversions::standard();
    let mut derivable = 0;
    for hl in &hl_types {
        for ll in &ll_types {
            if conversions.derive(hl, ll).is_some() {
                derivable += 1;
                check_convertibility(&conversions, hl, ll)
                    .unwrap_or_else(|ce| panic!("Lemma 3.1 failed for {hl} ∼ {ll}: {ce}"));
            }
        }
    }
    assert!(
        derivable >= 8,
        "the catalogue should exercise plenty of rules, got {derivable}"
    );
}

#[test]
fn copy_strategy_breaks_aliasing_but_stays_sound() {
    let copy = copying();
    let program = LlExpr::app(
        LlExpr::lam(
            "cell",
            LlType::ref_(LlType::Int),
            LlExpr::add(
                LlExpr::boundary(
                    HlExpr::assign(
                        HlExpr::boundary(LlExpr::var("cell"), HlType::ref_(HlType::Bool)),
                        HlExpr::bool_(false),
                    ),
                    LlType::Int,
                ),
                LlExpr::deref(LlExpr::var("cell")),
            ),
        ),
        LlExpr::ref_(LlExpr::int(0)),
    );
    let r = copy.run(&SmProgram::Ll(program), Fuel::default()).unwrap();
    // The write went to the copy: RefLL still sees 0 — different behaviour,
    // still type safe.
    assert_eq!(r.outcome.value(), Some(Value::Num(0)));
    assert_eq!(r.heap.len(), 2, "the copy strategy allocates a second cell");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Theorem 3.4 (type safety for RefHL), instantiated on random well-typed
    /// multi-language programs: they compile, and running the compiled code
    /// never reaches `fail Type`.
    #[test]
    fn generated_refhl_programs_are_type_safe(seed in any::<u64>()) {
        let case = SharedMemCase::standard();
        let mut generator = ProgramGen::with_profile(seed, &profile(5, 35));
        let ty = generator.gen_hl_type(2);
        let program = SmProgram::Hl(generator.gen_hl(&ty));
        let checked = case.typecheck(&program).expect("generated programs typecheck");
        prop_assert_eq!(checked, SourceType::Hl(ty));
        let result = case.run(&program, FUEL).expect("generated programs compile");
        prop_assert!(result.outcome.is_safe(), "unsafe outcome {:?} for {}", result.outcome, program);
    }

    /// Theorem 3.3 for RefLL programs.
    #[test]
    fn generated_refll_programs_are_type_safe(seed in any::<u64>()) {
        let case = SharedMemCase::standard();
        let mut generator = ProgramGen::with_profile(seed, &profile(5, 35));
        let program = SmProgram::Ll(generator.gen_ll(&LlType::Int));
        case.typecheck(&program).expect("generated programs typecheck");
        let result = case.run(&program, FUEL).expect("generated programs compile");
        prop_assert!(result.outcome.is_safe(), "unsafe outcome {:?} for {}", result.outcome, program);
    }

    /// The Fundamental Property, executably: compiled well-typed programs
    /// inhabit the expression relation at their own type.
    #[test]
    fn generated_programs_inhabit_their_expression_relation(seed in any::<u64>()) {
        let case = SharedMemCase::standard();
        let mut generator = ProgramGen::with_profile(seed, &profile(4, 30));
        let ty = generator.gen_hl_type(1);
        let program = SmProgram::Hl(generator.gen_hl(&ty));
        case.typecheck(&program).expect("typechecks");
        let compiled = case.compile(&program).expect("compiles");
        let world = World::new(20_000);
        prop_assert!(
            expr_in(&world, semint::stacklang::Heap::new(), &compiled, &SemType::Hl(ty.clone())),
            "compiled program not in E⟦{}⟧: {}", ty, program
        );
    }

    /// Boundary-free generated programs behave identically under the sharing
    /// and copying rule sets (the strategies only differ at boundaries).
    #[test]
    fn conversion_strategy_is_unobservable_without_boundaries(seed in any::<u64>()) {
        let mut g1 = ProgramGen::with_profile(seed, &profile(4, 0));
        let ty = g1.gen_hl_type(2);
        let program = SmProgram::Hl(g1.gen_hl(&ty));
        let share = SharedMemCase::standard();
        let r1 = share.run(&program, Fuel::default()).expect("runs");
        let r2 = copying().run(&program, Fuel::default()).expect("runs");
        prop_assert_eq!(r1.outcome, r2.outcome);
    }
}
