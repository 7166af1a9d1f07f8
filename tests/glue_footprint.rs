//! What a glue derivation costs in host allocations, and what a memoized
//! pair keeps alive.
//!
//! The glue table keys a pair by its encoded bytes, so a cold derivation
//! of one rule over components already in the cache allocates its key and
//! only the nodes on the path from its root to its sub-glue: the §4 and §5
//! glue points at its memoized sub-glue by `Arc`, and the binder names and
//! the closed subterms of their wrappers are built once per process and
//! shared.  A warm `derive_pair` or `derivable` encodes its query into a
//! buffer the thread keeps, probes the flat glue table and allocates
//! nothing.  After a sweep, dropping a case study frees what its glue cache
//! retained: per memoized pair, the key, the shared pair and the pair's own
//! glue nodes.  A counting global allocator measures each call on the
//! calling thread.

use semint::affine::convert::AffineConversions;
use semint::affine::{AffiType, MlType};
use semint::harness::cases::AnyCase;
use semint::harness::engine::{sweep_all, SweepConfig};
use semint::harness::source::SeedRange;
use semint::memgc::convert::MemGcConversions;
use semint::memgc::{L3Type, PolyType};
use semint::reflang::syntax::{HlType, LlType};
use semint::sharedmem::convert::SharedMemConversions;
use semint_core::case::{CaseStudy, GenProfile};
use semint_core::convert::{ConversionScheme, GlueCache};
use std::hint::black_box;

mod counting_alloc;
use counting_alloc::counted;

/// The allocations one cold derivation of `(a, b)` makes once its
/// components `(inner_a, inner_b)` are in the cache.  The thread's query
/// buffer is first grown to hold the pair's key, as it grows once per
/// thread to a sweep's longest key, not once per level.
fn cold_level<S: ConversionScheme>(
    scheme: &S,
    (inner_a, inner_b): (S::TyA, S::TyB),
    (a, b): (S::TyA, S::TyB),
) -> u64 {
    assert!(
        scheme.derivable(&inner_a, &inner_b),
        "the components derive"
    );
    GlueCache::<S::TyA, S::TyB, ()>::new().is_derivable(&a, &b, || None);
    let misses = scheme.glue_cache().stats().misses;
    let (allocs, _) = counted(|| assert!(black_box(scheme.derive_pair(&a, &b)).is_some()));
    assert_eq!(
        scheme.glue_cache().stats().misses,
        misses + 1,
        "one level over warm components is one miss"
    );
    allocs
}

/// A warm `derive_pair` (with the drop of its answer) and a warm
/// `derivable` of `(a, b)` make no allocation and no free, whether the
/// pair derives or is refuted.
fn assert_warm_probes_allocate_nothing<S: ConversionScheme>(scheme: &S, a: &S::TyA, b: &S::TyB) {
    let derives = scheme.derivable(a, b);
    let hits = scheme.glue_cache().stats().hits;
    let probes = counted(|| {
        assert_eq!(black_box(scheme.derive_pair(a, b)).is_some(), derives);
        assert_eq!(black_box(scheme.derivable(a, b)), derives);
    });
    assert_eq!(probes, (0, 0), "(allocations, frees) of two warm probes");
    assert_eq!(scheme.glue_cache().stats().hits, hits + 2);
}

/// `𝜏 ⊗ 𝜏 ∼ τ × τ` over `(𝜏, τ)`.
fn tensor((affi, ml): (AffiType, MlType)) -> (AffiType, MlType) {
    (
        AffiType::tensor(affi.clone(), affi),
        MlType::prod(ml.clone(), ml),
    )
}

/// `𝜏 ⊸ 𝜏 ∼ (unit → τ) → τ` over `(𝜏, τ)`.
fn lolli((affi, ml): (AffiType, MlType)) -> (AffiType, MlType) {
    (
        AffiType::lolli(affi.clone(), affi),
        MlType::fun(MlType::fun(MlType::Unit, ml.clone()), ml),
    )
}

/// `τ × τ ∼ 𝜏 ⊗ 𝜏` over `(τ, 𝜏)`.
fn product((ml, l3): (PolyType, L3Type)) -> (PolyType, L3Type) {
    (
        PolyType::prod(ml.clone(), ml),
        L3Type::tensor(l3.clone(), l3),
    )
}

/// `τ → τ ∼ !(!𝜏 ⊸ 𝜏)` over `(τ, 𝜏)`.
fn function((ml, l3): (PolyType, L3Type)) -> (PolyType, L3Type) {
    (
        PolyType::fun(ml.clone(), ml),
        L3Type::bang(L3Type::lolli(L3Type::bang(l3.clone()), l3)),
    )
}

#[test]
fn the_allocator_counts_this_thread() {
    assert_eq!(counted(|| drop(black_box(vec![0u8; 8]))), (1, 1));
}

#[test]
fn a_cold_affine_level_allocates_only_its_own_path() {
    // One `⊸` level makes 17 allocations (6 nodes to the Affi-to-MiniML
    // wrapper's sub-glue, 9 to the other direction's, each counting its
    // root, then the shared pair and the key) and one `⊗` level 10 (4 per
    // direction, the pair and the key); an insert that grows the table
    // makes one more.  Before the glue shared its sub-glue by pointer and
    // the key was bytes they made 18 and 11, and before the fixed parts
    // were shared 65 and 26.
    let base = (AffiType::Int, MlType::Int);
    let mut inner = base.clone();
    for depth in 0..4 {
        let rules = AffineConversions::standard();
        let lolli_allocs = cold_level(&rules, inner.clone(), lolli(inner.clone()));
        assert!(lolli_allocs <= 18, "⊸ at depth {depth}: {lolli_allocs}");
        let tensor_allocs = cold_level(&rules, inner.clone(), tensor(inner.clone()));
        assert!(tensor_allocs <= 11, "⊗ at depth {depth}: {tensor_allocs}");
        inner = tensor(inner);
    }
}

#[test]
fn a_cold_memgc_level_allocates_only_its_own_path() {
    // One function level makes 12 allocations (5 nodes per direction,
    // each counting its root, the shared pair and the key) and one product
    // level 10 (4 per direction, the pair and the key); an insert that
    // grows the table makes one more.  Before the glue shared its sub-glue
    // by pointer and the key was bytes they made 13 and 11, and before the
    // fixed parts were shared 26 and 26.
    let base = (PolyType::Int, L3Type::Bool);
    let mut inner = base.clone();
    for depth in 0..4 {
        let rules = MemGcConversions::standard();
        let fun_allocs = cold_level(&rules, inner.clone(), function(inner.clone()));
        assert!(fun_allocs <= 13, "→ at depth {depth}: {fun_allocs}");
        let prod_allocs = cold_level(&rules, inner.clone(), product(inner.clone()));
        assert!(prod_allocs <= 11, "× at depth {depth}: {prod_allocs}");
        inner = product(inner);
    }
}

#[test]
fn a_memoized_pair_retains_few_allocations() {
    // After `deep` seeds 0..200 at one worker, dropping sharedmem, affine
    // and memgc frees 7.55, 11.07 and 10.58 allocations per memoized pair
    // (151 for 20 pairs, 7 176 for 648 and 1 925 for 182): the key, the
    // shared pair and the pair's own glue nodes, plus the table.  With keys
    // that held a clone of each type and glue that copied each sub-glue's
    // root they freed 11.85, 19.12 and 22.60.
    let bounds = [("sharedmem", 7.6), ("affine", 11.1), ("memgc", 10.6)];
    let cfg = SweepConfig {
        jobs: 1,
        profile: GenProfile::deep(),
        model_check: false,
        time: false,
        batch: 1,
    };
    let source = SeedRange::new(0, 200).expect("well-formed");
    let cases = AnyCase::all(false);
    sweep_all(&cases, &source, &cfg);
    for (case, (name, bound)) in cases.into_iter().zip(bounds) {
        assert_eq!(case.name(), name);
        let entries = case
            .glue_cache_stats()
            .expect("every case caches glue")
            .entries;
        let (_, frees) = counted(|| drop(case));
        let per_pair = frees as f64 / entries as f64;
        assert!(
            per_pair <= bound,
            "{name}: {frees} frees for {entries} pairs, {per_pair:.2} per pair"
        );
    }
}

#[test]
fn warm_probes_allocate_nothing() {
    let rules = AffineConversions::standard();
    let (affi, ml) = lolli(tensor((AffiType::Bool, MlType::Int)));
    assert_warm_probes_allocate_nothing(&rules, &affi, &ml);

    let rules = MemGcConversions::standard();
    let (ml, l3) = function(product((PolyType::Int, L3Type::Bool)));
    assert_warm_probes_allocate_nothing(&rules, &ml, &l3);
    let (ml, l3) = (
        PolyType::ref_(PolyType::Int),
        L3Type::ref_like(L3Type::Bool),
    );
    assert_warm_probes_allocate_nothing(&rules, &ml, &l3);

    let rules = SharedMemConversions::standard();
    let hl = HlType::prod(HlType::Bool, HlType::Unit);
    assert_warm_probes_allocate_nothing(&rules, &hl, &LlType::array(LlType::Int));
    // A refutation: `bool ≁ [int]`, although the sum component derives.
    let hl = HlType::prod(HlType::sum(HlType::Bool, HlType::Unit), HlType::Bool);
    let ll = LlType::array(LlType::array(LlType::Int));
    assert!(!rules.derivable(&hl, &ll));
    assert_warm_probes_allocate_nothing(&rules, &hl, &ll);
}
