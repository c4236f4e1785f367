//! A counting global allocator for heap-traffic checks.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation into a process-wide atomic. Binaries opt in with
//! `#[global_allocator]`; library code then reads the counter through
//! [`allocations`] regardless of which binary installed it. Without an
//! installed `CountingAlloc` the counter simply stays at zero.
//!
//! This is the measurement behind the zero-allocation regression test,
//! which asserts that a warmed-up detailed-mode pipeline ticks without
//! touching the heap.
//!
//! The counter uses relaxed atomics: it is a total, not an ordering
//! protocol, and the extra relaxed `fetch_add` is noise next to the
//! allocation itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Total heap allocations since process start (0 unless a
/// [`CountingAlloc`] is installed as the global allocator).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The counting allocator. Install with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: regshare::CountingAlloc = regshare::CountingAlloc::new();
/// ```
#[derive(Debug, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// A new counting allocator (const so it can be a `static`).
    pub const fn new() -> Self {
        CountingAlloc
    }
}

// SAFETY: defers every operation to `System`; the counter updates have
// no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a fresh allocation from the hot loop's perspective.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
