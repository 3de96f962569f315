//! Peak and kept heap of whole-capture reads.
//!
//! `read_capture` of an in-order capture grows one `Vec` and hands it
//! over shrunk to its length. An unsorted capture (pcapng sections
//! whose clocks restart) is collected in fixed-size blocks and merged
//! into a second, exact-size `Vec`, so its read holds at most the
//! packets twice, plus a block.
//!
//! The counting allocator is process-wide, so this file holds one test.

use faultkit::corpus::{pcap_corpus, pcapng_sections_corpus};
use nettrace::{CaptureStream, PacketRecord, Trace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

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

/// Bytes of one packet record.
const RECORD: u64 = std::mem::size_of::<PacketRecord>() as u64;
/// Packets in one of the reader's blocks.
const BLOCK: u64 = 8 * 1024;
/// The decoder's read buffer (16 KiB for records this small), live
/// through the whole read at the parent too.
const READ_BUFFER: u64 = 17 * 1024;

/// Strict-read `image`: the trace, then the peak and the end live heap
/// of the read, each above what was live before it.
fn measured_read(image: &[u8]) -> (Trace, u64, u64) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let trace = nettrace::read_capture(image).expect("valid corpus");
    (trace, PEAK.load(Relaxed) - base, LIVE.load(Relaxed) - base)
}

#[test]
fn whole_capture_reads_hold_at_most_two_copies() {
    let in_order = pcap_corpus(1993, 50_000);
    let unsorted = pcapng_sections_corpus(1993, 12_500, 8);
    let stamps: Vec<u64> = CaptureStream::new(unsorted.bytes.as_slice())
        .expect("pcapng header")
        .map(|p| p.expect("valid corpus").timestamp.as_u64())
        .collect();
    assert!(!stamps.is_sorted(), "the sections restart their clocks");
    // Both formats' metrics and spans are registered before counting.
    for image in [pcap_corpus(7, 10), pcapng_sections_corpus(7, 10, 2)] {
        nettrace::read_capture(image.bytes.as_slice()).expect("valid corpus");
    }

    let n = in_order.packets as u64;
    let (trace, peak, kept) = measured_read(&in_order.bytes);
    assert_eq!(trace.len() as u64, n);
    assert!(
        peak <= n.next_power_of_two() * RECORD + READ_BUFFER,
        "in-order read of {n} packets peaked at {peak} B"
    );
    assert!(
        (n * RECORD..=n * RECORD + 1024).contains(&kept),
        "in-order read of {n} packets keeps {kept} B"
    );
    drop(trace);

    let n = unsorted.packets as u64;
    let (trace, peak, _) = measured_read(&unsorted.bytes);
    assert_eq!(trace.len() as u64, n);
    assert!(
        peak <= (2 * n + BLOCK) * RECORD,
        "unsorted read of {n} packets peaked at {peak} B"
    );
}
