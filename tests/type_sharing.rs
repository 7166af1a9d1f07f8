//! A source type's clone is a pointer copy, and so is a typing context's.
//!
//! The six source-type enums keep their children behind `Arc`, so cloning a
//! generated scenario's type copies its root node and bumps the reference
//! counts of its children: it must neither allocate nor free.  A counting
//! global allocator measures each clone-and-drop on the calling thread, for
//! every preset and seeds `0..200` of each case study.
//!
//! The three checkers' contexts keep each environment in a persistent
//! `semint_core::Scope`: extending one allocates one node and shares the
//! rest, and a clone copies pointers.

use semint::affine::typecheck::AffineCtx;
use semint::affine::{AffiType, AffineCase, MlType, Mode};
use semint::harness::CaseStudy;
use semint::memgc::typecheck::MemGcCtx;
use semint::memgc::{L3Type, MemGcCase, PolyType};
use semint::reflang::{HlType, LlType, TypeCtx};
use semint::sharedmem::SharedMemCase;
use semint_core::case::GenProfile;
use semint_core::Var;
use std::hint::black_box;

mod counting_alloc;
use counting_alloc::counted;

fn assert_type_clones_allocate_nothing<C: CaseStudy>(case: &C) {
    assert_eq!(
        counted(|| drop(black_box(vec![0u8; 8]))),
        (1, 1),
        "the allocator counts this thread's allocations"
    );
    for profile in GenProfile::presets() {
        for seed in 0..200 {
            let scenario = case.generate(seed, &profile);
            let moved = counted(|| drop(black_box(scenario.ty.clone())));
            assert_eq!(
                moved,
                (0, 0),
                "{} {} seed {seed}: cloning and dropping `{}` made (allocations, frees)",
                case.name(),
                profile.name,
                scenario.ty
            );
        }
    }
}

#[test]
fn sharedmem_type_clones_allocate_nothing() {
    assert_type_clones_allocate_nothing(&SharedMemCase::standard());
}

#[test]
fn affine_type_clones_allocate_nothing() {
    assert_type_clones_allocate_nothing(&AffineCase::standard());
}

#[test]
fn memgc_type_clones_allocate_nothing() {
    assert_type_clones_allocate_nothing(&MemGcCase::standard());
}

/// Cloning and dropping a context makes no allocation and no free.
fn assert_clone_allocates_nothing<Ctx: Clone>(ctx: &Ctx) {
    assert_eq!(
        counted(|| drop(black_box(ctx.clone()))),
        (0, 0),
        "cloning and dropping the context made (allocations, frees)"
    );
}

/// Extending a context that binds something in every scope, and dropping
/// the result, makes exactly one allocation and one free: the new node.
fn assert_one_node<Ctx>(ctx: &Ctx, name: &str, extend: impl Fn(&Ctx) -> Ctx) {
    assert_eq!(
        counted(|| drop(black_box(extend(ctx)))),
        (1, 1),
        "`{name}` and its drop made (allocations, frees)"
    );
}

#[test]
fn sharedmem_context_extensions_allocate_one_node() {
    let (x, hl, ll) = (Var::new("x"), HlType::ref_(HlType::Bool), LlType::Int);
    let ctx = TypeCtx::empty()
        .with_hl(x.clone(), hl.clone())
        .with_ll(x.clone(), ll.clone());
    assert_clone_allocates_nothing(&ctx);
    assert_one_node(&ctx, "with_hl", |c| c.with_hl(x.clone(), hl.clone()));
    assert_one_node(&ctx, "with_ll", |c| c.with_ll(x.clone(), ll.clone()));
}

#[test]
fn affine_context_extensions_allocate_one_node() {
    let x = Var::new("x");
    let ml = MlType::fun(MlType::Int, MlType::Unit);
    let affi = AffiType::lolli(AffiType::Int, AffiType::Bool);
    let ctx = AffineCtx::empty()
        .with_ml(x.clone(), ml.clone())
        .with_unrestricted(x.clone(), affi.clone())
        .with_affine(x.clone(), Mode::Static, affi.clone());
    assert_clone_allocates_nothing(&ctx);
    assert_one_node(&ctx, "with_ml", |c| c.with_ml(x.clone(), ml.clone()));
    assert_one_node(&ctx, "with_unrestricted", |c| {
        c.with_unrestricted(x.clone(), affi.clone())
    });
    assert_one_node(&ctx, "with_affine", |c| {
        c.with_affine(x.clone(), Mode::Dynamic, affi.clone())
    });
}

#[test]
fn memgc_context_extensions_allocate_one_node() {
    let (x, a, z) = (Var::new("x"), Var::new("α"), Var::new("ζ"));
    let ml = PolyType::forall("α", PolyType::tvar("α"));
    let l3 = L3Type::ref_like(L3Type::Bool);
    let ctx = MemGcCtx::empty()
        .with_ml(x.clone(), ml.clone())
        .with_tyvar(a.clone())
        .with_locvar(z.clone())
        .with_l3_unrestricted(x.clone(), l3.clone())
        .with_l3_linear(x.clone(), l3.clone());
    assert_clone_allocates_nothing(&ctx);
    assert_one_node(&ctx, "with_ml", |c| c.with_ml(x.clone(), ml.clone()));
    assert_one_node(&ctx, "with_tyvar", |c| c.with_tyvar(a.clone()));
    assert_one_node(&ctx, "with_locvar", |c| c.with_locvar(z.clone()));
    assert_one_node(&ctx, "with_l3_unrestricted", |c| {
        c.with_l3_unrestricted(x.clone(), l3.clone())
    });
    assert_one_node(&ctx, "with_l3_linear", |c| {
        c.with_l3_linear(x.clone(), l3.clone())
    });
}
