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
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// The system allocator, counting each thread's allocations and frees.
struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

thread_local! {
    /// `(allocations, frees)` made by this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn bump(allocs: u64, frees: u64) {
    // A thread tearing down may have no slot left; it is not measured.
    let _ = COUNTS.try_with(|c| {
        let (a, f) = c.get();
        c.set((a + allocs, f + frees));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; counting touches only a const-initialized
// thread-local `Cell`, which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(1, 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(1, 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(0, 1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(1, 1);
        System.realloc(ptr, layout, new_size)
    }
}

/// The allocations and frees `f` makes on this thread.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (a0, f0) = COUNTS.with(Cell::get);
    f();
    let (a1, f1) = COUNTS.with(Cell::get);
    (a1 - a0, f1 - f0)
}

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
