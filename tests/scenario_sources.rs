//! Integration tests for the first-class scenario-supply API (PR 3):
//!
//! * every generation profile — including `deep` — produces 100%-well-typed
//!   scenarios in all three case studies (proptest over seeds);
//! * the `deep` profile actually reaches source types of depth ≥ 4 in every
//!   case study, and its sweeps stay deterministic across thread counts;
//! * [`Shard`] sources partition a seed range exactly (disjoint, covering),
//!   and the merged per-shard reports reproduce the unsharded digests.
//! * the two sizes every digest totals, `boundaries=` and `chars=`, are
//!   structural counts that agree with the rendered program.

use proptest::prelude::*;
use semint::affine::harness::AffSourceType;
use semint::affine::{AffiType, MlType};
use semint::harness::cases::{AnyCase, AnyProgram, AnyTy};
use semint::harness::engine::{sweep_all, SweepConfig};
use semint::harness::source::{ScenarioSource, SeedRange, Shard};
use semint::harness::CaseStudy;
use semint::memgc::harness::MgSourceType;
use semint::memgc::{L3Type, PolyType};
use semint::reflang::syntax::{HlType, LlType};
use semint::sharedmem::harness::SourceType;
use semint_core::case::{GenProfile, Size};
use semint_core::stats::SweepReport;

// ---------------------------------------------------------------------------
// Source-type depth measures (one per source language).

fn hl_depth(ty: &HlType) -> usize {
    match ty {
        HlType::Bool | HlType::Unit => 0,
        HlType::Sum(a, b) | HlType::Prod(a, b) | HlType::Fun(a, b) => {
            1 + hl_depth(a).max(hl_depth(b))
        }
        HlType::Ref(a) => 1 + hl_depth(a),
    }
}

fn ll_depth(ty: &LlType) -> usize {
    match ty {
        LlType::Int => 0,
        LlType::Array(a) | LlType::Ref(a) => 1 + ll_depth(a),
        LlType::Fun(a, b) => 1 + ll_depth(a).max(ll_depth(b)),
    }
}

fn affi_depth(ty: &AffiType) -> usize {
    match ty {
        AffiType::Int | AffiType::Bool | AffiType::Unit => 0,
        AffiType::Tensor(a, b) | AffiType::With(a, b) | AffiType::Lolli(_, a, b) => {
            1 + affi_depth(a).max(affi_depth(b))
        }
        AffiType::Bang(a) => 1 + affi_depth(a),
    }
}

fn ml_depth(ty: &MlType) -> usize {
    match ty {
        MlType::Unit | MlType::Int => 0,
        MlType::Prod(a, b) | MlType::Sum(a, b) | MlType::Fun(a, b) => {
            1 + ml_depth(a).max(ml_depth(b))
        }
        MlType::Ref(a) => 1 + ml_depth(a),
    }
}

fn poly_depth(ty: &PolyType) -> usize {
    match ty {
        PolyType::Unit | PolyType::Int | PolyType::Var(_) | PolyType::Foreign(_) => 0,
        PolyType::Prod(a, b) | PolyType::Sum(a, b) | PolyType::Fun(a, b) => {
            1 + poly_depth(a).max(poly_depth(b))
        }
        PolyType::Ref(a) | PolyType::Forall(_, a) => 1 + poly_depth(a),
    }
}

fn l3_depth(ty: &L3Type) -> usize {
    match ty {
        L3Type::Bool | L3Type::Unit => 0,
        L3Type::Tensor(a, b) | L3Type::Lolli(a, b) => 1 + l3_depth(a).max(l3_depth(b)),
        L3Type::Bang(a) => 1 + l3_depth(a),
        other => match semint::memgc::typecheck::ref_like_payload(other) {
            Some(payload) => 1 + l3_depth(&payload),
            None => 0,
        },
    }
}

fn any_ty_depth(ty: &AnyTy) -> usize {
    match ty {
        AnyTy::SharedMem(SourceType::Hl(t)) => hl_depth(t),
        AnyTy::SharedMem(SourceType::Ll(t)) => ll_depth(t),
        AnyTy::Affine(AffSourceType::Affi(t)) => affi_depth(t),
        AnyTy::Affine(AffSourceType::Ml(t)) => ml_depth(t),
        AnyTy::MemGc(MgSourceType::Ml(t)) => poly_depth(t),
        AnyTy::MemGc(MgSourceType::L3(t)) => l3_depth(t),
    }
}

// ---------------------------------------------------------------------------
// Profiles generate well-typed scenarios, at their advertised depth.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every preset profile generates scenarios whose claimed type
    /// re-checks, in all three case studies, at any seed.
    #[test]
    fn every_profile_generates_well_typed_scenarios(
        seed in 0u64..5_000,
        profile_idx in 0usize..GenProfile::PRESET_NAMES.len(),
    ) {
        let profile = GenProfile::by_name(GenProfile::PRESET_NAMES[profile_idx])
            .expect("preset");
        for case in AnyCase::all(false) {
            let scenario = case.generate(seed, &profile);
            let checked = case.typecheck(&scenario.program);
            prop_assert!(
                checked.is_ok(),
                "{} seed {} profile {}: ill-typed: {:?}",
                case.name(), seed, profile.name, checked
            );
            prop_assert_eq!(
                checked.unwrap(), scenario.ty,
                "{} seed {} profile {}: claimed type does not re-check",
                case.name(), seed, profile.name
            );
        }
    }

    /// Shards of any range are pairwise disjoint and jointly covering.
    #[test]
    fn shards_partition_any_range_exactly(
        start in 0u64..10_000,
        len in 1u64..300,
        of in 1u64..9,
    ) {
        let range = SeedRange::new(start, start + len).expect("non-empty");
        let mut combined = Vec::new();
        for index in 0..of {
            let shard = Shard::new(range, index, of).expect("valid shard");
            for seed in shard.seeds("any") {
                prop_assert!(
                    !combined.contains(&seed),
                    "seed {} appears in two shards", seed
                );
                combined.push(seed);
            }
        }
        combined.sort_unstable();
        prop_assert_eq!(combined, range.seeds("any"), "shards must cover the range");
    }
}

/// The acceptance bar for the `deep` profile: source types of depth ≥ 4
/// appear in all three case studies.
#[test]
fn deep_profile_reaches_type_depth_four_in_every_case_study() {
    let profile = GenProfile::deep();
    for case in AnyCase::all(false) {
        let max_depth = (0..80)
            .map(|seed| any_ty_depth(&case.generate(seed, &profile).ty))
            .max()
            .expect("non-empty seed range");
        assert!(
            max_depth >= 4,
            "{}: deep profile peaked at type depth {max_depth} over 80 seeds",
            case.name()
        );
    }
}

fn digests(report: &SweepReport) -> Vec<String> {
    report.cases.iter().map(|c| c.digest()).collect()
}

/// Deep-profile sweeps are deterministic for any thread count (the
/// acceptance criterion extends PR 1's determinism guarantee to the new
/// profiles).
#[test]
fn deep_profile_sweeps_are_deterministic_across_jobs() {
    let source = SeedRange::new(0, 24).unwrap();
    let sweep = |jobs: usize| {
        let cfg = SweepConfig {
            jobs,
            profile: GenProfile::deep(),
            ..SweepConfig::default()
        };
        sweep_all(&AnyCase::all(false), &source, &cfg)
    };
    let base = sweep(4);
    assert_eq!(base.failure_count(), 0, "deep sweep must stay clean");
    assert_eq!(digests(&base), digests(&sweep(1)));
    assert_eq!(digests(&base), digests(&sweep(7)));
}

/// Merging the reports of a full shard partition reproduces the unsharded
/// sweep digests — the property that makes cross-process sweeps compose.
#[test]
fn sharded_sweeps_merge_into_the_unsharded_digests() {
    let cases = AnyCase::all(false);
    let range = SeedRange::new(0, 45).unwrap();
    let cfg = SweepConfig {
        jobs: 3,
        model_check: false,
        ..SweepConfig::default()
    };
    let whole = sweep_all(&cases, &range, &cfg);
    let mut merged: Option<SweepReport> = None;
    for index in 0..3 {
        let shard = Shard::new(range, index, 3).unwrap();
        let part = sweep_all(&cases, &shard, &cfg);
        match &mut merged {
            None => merged = Some(part),
            Some(acc) => acc.merge(&part),
        }
    }
    let merged = merged.expect("three shards");
    assert_eq!(digests(&whole), digests(&merged));
}

/// The sizes a sweep digests (`boundaries=` and `chars=`) come from one
/// structural walk, `CaseStudy::measure`; both agree with the rendering — the `⦇`
/// half-brackets and the character count — on every generated program
/// under every preset and on every shrink candidate below it, which reaches
/// every subterm in both host languages.
#[test]
fn structural_boundary_counts_agree_with_the_rendering() {
    fn check(case: &AnyCase, program: &AnyProgram, seed: u64, profile: &str) {
        let rendered = program.to_string();
        let Size { boundaries, chars } = case.measure(program);
        assert_eq!(
            (boundaries, chars),
            (rendered.matches('⦇').count(), rendered.chars().count()),
            "{} {profile} seed {seed}: structural (boundaries, chars) disagree with {rendered}",
            case.name()
        );
    }
    for profile in GenProfile::presets() {
        for case in AnyCase::all(false) {
            for seed in 0..200 {
                let scenario = case.generate(seed, &profile);
                check(&case, &scenario.program, seed, profile.name);
                let mut candidates = case.shrink(&scenario.program);
                while let Some(candidate) = candidates.pop() {
                    check(&case, &candidate, seed, profile.name);
                    candidates.extend(case.shrink(&candidate));
                }
            }
        }
    }
}
