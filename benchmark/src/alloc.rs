//! A counting global allocator: allocation calls, live heap bytes, and
//! the peak of live bytes since the last [`reset_peak`].
//!
//! The counters are process-wide, so a pass that spawns threads (the
//! stream pipeline) is measured whole. They are statistics only — no
//! other data is published through them — hence `Relaxed` throughout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// [`System`] plus three counters.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe
// sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `realloc` obligations pass through as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Allocation calls (alloc, alloc_zeroed, realloc) so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Live heap bytes now.
pub fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// Restart peak tracking at the current live level and return it.
fn reset_peak() -> u64 {
    let now = live();
    PEAK.store(now, Relaxed);
    now
}

/// Highest live level since the last [`reset_peak`].
fn peak() -> u64 {
    PEAK.load(Relaxed)
}

/// What a closure cost the heap: allocation calls and the peak of live
/// bytes above the level it started at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapCost {
    pub allocs: u64,
    pub peak_bytes: u64,
}

/// Run `f` and measure its [`HeapCost`]. Other threads allocating at
/// the same time are counted too.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, HeapCost) {
    let base = reset_peak();
    let before = allocs();
    let out = f();
    let cost = HeapCost {
        allocs: allocs() - before,
        peak_bytes: peak().saturating_sub(base),
    };
    (out, cost)
}
