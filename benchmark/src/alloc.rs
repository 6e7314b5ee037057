//! Counting global allocator: calls and live bytes, always on.
//!
//! The only module of the benchmark that contains `unsafe`. Every
//! allocator entry point forwards to [`System`] and bumps relaxed atomic
//! counters — they are statistics and publish no other data. The
//! benchmark drives the middleware from one thread, so the counts of a
//! fixed-work segment repeat exactly from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus counters; installed as the global allocator by the
/// crate root.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter updates touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, which
        // guarantees `ptr` came from this allocator with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`; both are passed through as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) since process start.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Bytes currently allocated.
pub fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}

/// Highest [`live_bytes`] since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Restarts the high-water mark from the current live size (once per
/// workload, so one workload's peak cannot hide in another's).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
