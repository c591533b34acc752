//! Debug-only allocation counter (feature `alloc-count`).
//!
//! Installs a [`GlobalAlloc`] wrapper around the system allocator that
//! counts every `alloc`/`alloc_zeroed`/`realloc` call per thread. The
//! zero-allocation regression tests snapshot [`allocation_count`] around
//! a warmed-up training step to prove the workspace hot loop stays off
//! the heap; see `network::tests` and DESIGN.md's memory-model section.
//! The count is per thread because the test harness runs tests on
//! parallel threads: a process-wide count would charge one test with
//! another's allocations.
//!
//! Deliberately minimal: a single thread-local increment per
//! allocation, no per-size histograms, no deallocation tracking — the
//! tests only need "did this thread allocate between these two
//! points".

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and without `Drop`, so reading it never
    // allocates — the allocator itself may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` only fails once the thread is being torn down; such
    // late allocations belong to no measured region.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// System allocator wrapper counting allocation calls.
///
/// Installed as the `#[global_allocator]` whenever the `alloc-count`
/// feature is enabled, so any binary or test linking this crate with the
/// feature gets counting for free.
pub struct CountingAllocator;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter increment has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that grows may touch the heap even when it resizes in
        // place; count it as an allocation event so the tests stay strict.
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocation events (alloc + alloc_zeroed + realloc) on the calling
/// thread since it started. Monotonically increasing; diff two snapshots
/// to count the allocations a code region performed on this thread.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_heap_allocations() {
        let before = allocation_count();
        let v: Vec<u64> = Vec::with_capacity(32);
        let after = allocation_count();
        assert!(after > before, "Vec::with_capacity must be counted");
        drop(v);
        // Dealloc is not counted.
        let freed = allocation_count();
        assert_eq!(freed, after);
    }
}
