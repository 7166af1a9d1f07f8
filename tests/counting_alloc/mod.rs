//! A global allocator that counts each thread's allocations and frees.
//!
//! A test binary that declares `mod counting_alloc;` installs it as its
//! global allocator and measures a closure with [`counted`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
pub fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (a0, f0) = COUNTS.with(Cell::get);
    f();
    let (a1, f1) = COUNTS.with(Cell::get);
    (a1 - a0, f1 - f0)
}
