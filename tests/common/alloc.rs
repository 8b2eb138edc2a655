//! A counting global allocator for the allocation gates. Including this
//! module installs it: every allocation, zeroed allocation and
//! reallocation bumps a per-thread counter, which [`thread_allocs`]
//! reads. Counts are per thread, so tests running in parallel do not
//! see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Global allocator that counts allocations per thread. The thread-local
/// is const-initialized (no lazy init, no destructor), so reading it
/// from inside the allocator cannot recurse into the allocator.
pub struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation events on the calling thread since it started.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

fn bump() {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's; the count lives in a
// const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;
