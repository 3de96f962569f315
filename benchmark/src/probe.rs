//! The machine-speed probe.
//!
//! On the reference machine, a 2-vCPU Xeon VM shared with other
//! tenants, the neighbours slow cache- and memory-bound code by 20–60%
//! for seconds to minutes at a time, and the two vCPUs are often slowed
//! unequally. A pure-ALU loop keeps its speed, so this is neither steal
//! nor clock scaling, and raw wall times move with the neighbours rather
//! than with the code. The probe measures that slowdown as it happens:
//! it sorts a 2 MiB array (the size of a core's L2) and then reads a
//! 16 MiB one, so it slows with contention for the shared cache and for
//! memory bandwidth. A timed section is scaled by `NOMINAL_S / probe`,
//! with the probe taken right before and right after it, which
//! estimates its time on the machine at rest.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The probe's time on the reference VM at rest (2-vCPU Xeon): about
/// 4.6 ms for the sort and 1.8 ms for the read.
pub const NOMINAL_S: f64 = 6.4e-3;

const SORT_WORDS: usize = 1 << 18;
const READ_WORDS: usize = 1 << 21;

fn sort_data() -> &'static [u64] {
    static DATA: OnceLock<Vec<u64>> = OnceLock::new();
    DATA.get_or_init(|| {
        let mut z = 0u64;
        (0..SORT_WORDS)
            .map(|_| {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let x = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^ (x >> 31)
            })
            .collect()
    })
}

fn read_data() -> &'static [u64] {
    static DATA: OnceLock<Vec<u64>> = OnceLock::new();
    DATA.get_or_init(|| (0..READ_WORDS as u64).collect())
}

fn probe_once() -> f64 {
    let (sort, read) = (sort_data(), read_data());
    let started = Instant::now();
    let mut v = sort.to_vec();
    v.sort_unstable();
    black_box(&v);
    black_box(read.iter().fold(0u64, |acc, &x| acc.wrapping_add(x)));
    started.elapsed().as_secs_f64()
}

/// One probe reading in seconds. With `threads` > 1 the probe runs on
/// that many threads at once, so a workload that keeps both vCPUs busy
/// is probed on both; the reading is their mean, because the workload's
/// own threads land on either vCPU.
pub fn probe(threads: usize) -> f64 {
    if threads <= 1 {
        return probe_once();
    }
    std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads).map(|_| s.spawn(probe_once)).collect();
        let sum: f64 = runs
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .sum();
        sum / threads as f64
    })
}

/// Run `f` between two probe readings. Returns its output, its wall
/// time in seconds, and the factor that scales a time measured inside
/// it to the machine at rest.
pub fn bracket<T>(threads: usize, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = probe(threads);
    let started = Instant::now();
    let out = f();
    let wall = started.elapsed().as_secs_f64();
    let after = probe(threads);
    (out, wall, 2.0 * NOMINAL_S / (before + after))
}
