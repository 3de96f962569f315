//! Pins the counting allocator on a known allocation pattern. This is
//! the only test in its binary, so no other test thread allocates while
//! it measures and the counts are exact.

use netbench::alloc;
use std::hint::black_box;

#[test]
fn counts_a_known_allocation_pattern() {
    let ((), cost) = alloc::measure(|| {
        // Ten 1 KiB boxes held at once (11 calls with their Vec), then
        // freed; then a 64 KiB vector grown once to 128 KiB (2 calls).
        let boxes: Vec<Box<[u8; 1024]>> = (0..10).map(|_| Box::new([7u8; 1024])).collect();
        black_box(&boxes);
        drop(boxes);
        let mut v: Vec<u8> = Vec::with_capacity(64 * 1024);
        v.resize(64 * 1024, 1);
        v.reserve_exact(64 * 1024);
        black_box(&v);
    });
    assert_eq!(cost.allocs, 13);
    assert_eq!(cost.peak_bytes, 128 * 1024);
}
