//! A counting wrapper around the system allocator, so a sweep's peak live
//! heap can be read directly. The resident set is no substitute: glibc
//! keeps freed memory in per-thread arenas, so it grows with how long the
//! process has run, not with what a sweep needs.
//!
//! Counting is off unless a measurement is in progress; while off, each
//! call costs one relaxed load of a flag that is never written.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        let bytes = isize::try_from(bytes).unwrap_or(isize::MAX);
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        LIVE.fetch_sub(
            isize::try_from(bytes).unwrap_or(isize::MAX),
            Ordering::Relaxed,
        );
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}

/// Starts counting from zero live bytes.
pub fn start() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::SeqCst);
}

/// Stops counting and returns the peak live bytes since [`start`], in MiB.
/// Blocks freed during the window but allocated before it lower the count,
/// so callers start after dropping the previous sweep's data.
pub fn stop_mb() -> f64 {
    ON.store(false, Ordering::SeqCst);
    #[allow(clippy::cast_precision_loss)]
    let peak = PEAK.load(Ordering::Relaxed).max(0) as f64;
    peak / (1024.0 * 1024.0)
}
