//! Live heap of a long-running collector.
//!
//! Each round reduces its lane windows to tenant reports at the round
//! barrier, so between rounds the collector holds its lanes' state, the
//! finished reports and running totals, and nothing else that grows
//! with the rounds run: no lane window and no sampled flow size outlive
//! their round.
//!
//! The counting allocator is process-wide, so this file holds one test.

use collectd::{Collector, CollectorConfig, LaneSource};
use netstat_sim::Fleet;
use netsynth::FlowSizeDist;
use parkit::Pool;
use sampling::{MethodSpec, Target};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use streamkit::StreamMethod;

/// [`System`] plus a live-bytes counter.
struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter only observes
// sizes and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as u64, Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as u64, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `realloc` obligations pass through as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                LIVE.fetch_add((new_size - layout.size()) as u64, Relaxed);
            } else {
                LIVE.fetch_sub((layout.size() - new_size) as u64, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const TENANTS: u32 = 2;
/// Heap one tenant report may add: the report, its tenant id, and the
/// report vector's spare room after doubling.
const REPORT_BYTES: u64 = 512;

#[test]
fn rounds_keep_only_reports_and_totals() {
    let cfg = CollectorConfig {
        fleet: Fleet::anonymous(TENANTS, 3).expect("small fleet"),
        shards: 2,
        method: StreamMethod::Spec(MethodSpec::Systematic { interval: 10 }),
        target: Target::PacketSize,
        windows: 40,
        window_packets: 5_000,
        lane_queue: 5_000,
        lane_flow_budget: 200,
        seed: 1993,
        source: LaneSource::Synth {
            flows_per_window: 250,
            size_dist: FlowSizeDist::Zipf {
                max_size: 2_000,
                alpha: 1.2,
            },
            mean_gap_us: 20,
        },
    };
    let pool = Pool::serial();
    let mut collector = Collector::new(cfg).expect("valid collector config");
    let mut live_after = Vec::new();
    for _ in 0..40 {
        collector.run_round(&pool).expect("round runs");
        live_after.push(LIVE.load(Relaxed));
    }
    // Rounds 1-10 warm the lanes' flow tables and the metric registry;
    // rounds 11-40 add 30 rounds of reports.
    let growth = live_after[39] as i64 - live_after[9] as i64;
    let bound = 30 * u64::from(TENANTS) * REPORT_BYTES;
    assert!(
        growth <= bound as i64,
        "live heap grew {growth} B over rounds 11-40, more than {bound} B for their reports"
    );
    let out = collector.finish().expect("collector finishes");
    assert_eq!(out.reports.len(), 40 * TENANTS as usize);
}
