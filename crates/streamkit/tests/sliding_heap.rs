//! Peak heap of a long sliding time window over sparse traffic.
//!
//! A window of `L/S` stride buckets holds `L/S` flow tables at once.
//! Pre-sizing every bucket's table for a busy bucket (4,096 flows, about
//! 470 KB) would make a 100-bucket window cost about 47 MB however few
//! flows it saw. Each bucket's table starts at the flow count of the
//! bucket that closed before it, and the empty buckets that bridge an
//! idle gap hold none.
//!
//! The counting allocator is process-wide, so this file holds one test.

use nettrace::{Micros, PacketRecord};
use sampling::{MethodSpec, Target};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use streamkit::{StreamMethod, WindowSpec, Windower};

/// [`System`] plus a live-bytes counter and its high-water mark.
struct Counting;

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
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
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
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn sparse_sliding_windows_hold_only_the_flows_they_see() {
    // Ten packets a second from eight flows for 300 s, then 500 s of
    // silence (longer than the window, so the ring is rebuilt from
    // empty buckets), then 300 s more.
    let packets: Vec<PacketRecord> = (0..6_000u64)
        .map(|i| {
            let ts = i * 100_000 + if i >= 3_000 { 500_000_000 } else { 0 };
            PacketRecord::new(Micros(ts), 552).with_flow((i % 8) as u32 + 1, i < 8)
        })
        .collect();
    let sampler = StreamMethod::Spec(MethodSpec::Systematic { interval: 50 })
        .build(Micros::ZERO, None, 0, 1993)
        .expect("valid stream method");
    // A 100 s window sliding by 1 s: 100 buckets live at once.
    let mut w = Windower::new(
        Target::PacketSize,
        WindowSpec::Time(Micros(100_000_000)),
        Some(WindowSpec::Time(Micros(1_000_000))),
        sampler,
    );
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let mut windows = 0;
    for chunk in packets.chunks(500) {
        windows += w.offer_slice(chunk).len();
    }
    windows += w.finish().len();
    let peak = PEAK.load(Relaxed) - base;
    assert!(windows > 400, "{windows} windows");
    assert!(
        peak < 4 << 20,
        "peak live heap {peak} B over 100 buckets of at most 8 flows each"
    );
}
