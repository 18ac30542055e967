//! A counting global allocator for the traced run.
//!
//! It wraps the system allocator and counts allocations (and the bytes
//! they ask for) only while [`set_counting`] is on, so an untraced run
//! pays one relaxed load per allocation and nothing else. Counts are
//! process-wide: on the wire workloads they include the server thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

// Statistics only: no other memory is published through these.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed while counting was on.
static LIVE: AtomicI64 = AtomicI64::new(0);

pub struct Counting;

fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        LIVE.fetch_add(size as i64, Ordering::Relaxed);
    }
}

fn note_free(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` and `layout` come from a matching `alloc` above,
        // which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        note_free(layout.size());
        // SAFETY: `ptr` and `layout` come from a matching `alloc` above,
        // and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turn counting on or off (the traced run turns it on around traced
/// operations and probes).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn counted() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Net bytes allocated and not yet freed while counting was on. Read it
/// twice around a region to see what the region still holds.
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}
