//! A per-thread counting global allocator for allocation-regression tests.
//!
//! An integration-test binary includes this file as a module, which
//! installs the allocator for the whole binary:
//!
//! ```ignore
//! #[path = "../../../tests/support/counting_alloc.rs"]
//! mod counting_alloc;
//! use counting_alloc::allocations;
//! ```
//!
//! Counting is per thread, so tests running in parallel in one binary do
//! not see each other's allocations; a measured window is
//! `allocations()` before and after, on the thread doing the work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

/// Allocations made by the current thread so far.
pub fn allocations() -> usize {
    COUNT.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot is gone while the thread tears down.
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;
