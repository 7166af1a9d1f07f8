//! A source type's clone is a pointer copy.
//!
//! The six source-type enums keep their children behind `Arc`, so cloning a
//! generated scenario's type copies its root node and bumps the reference
//! counts of its children: it must neither allocate nor free.  A counting
//! global allocator measures each clone-and-drop on the calling thread, for
//! every preset and seeds `0..200` of each case study.

use semint::affine::AffineCase;
use semint::harness::CaseStudy;
use semint::memgc::MemGcCase;
use semint::sharedmem::SharedMemCase;
use semint_core::case::GenProfile;
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
