//! Stratified random sampling over packet-count buckets.
//!
//! "Stratified random sampling is similar to systematic sampling, except
//! that rather than selecting the first packet from each bucket, a packet
//! is selected randomly from each bucket" (paper §4). Selection is still
//! streaming and O(1) per packet: at each bucket boundary the sampler
//! pre-draws the index to select within the coming bucket.

use crate::sampler::{BuildError, Sampler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One uniform pick from every bucket of `bucket` consecutive packets.
#[derive(Debug)]
pub struct StratifiedSampler {
    bucket: usize,
    rng: StdRng,
    /// Position within the current bucket (0-based).
    pos: usize,
    /// The pre-drawn index to select in the current bucket.
    target: usize,
}

impl StratifiedSampler {
    /// Create with bucket size `bucket` and a deterministic seed.
    ///
    /// # Panics
    /// Panics if `bucket` is zero.
    #[must_use]
    pub fn new(bucket: usize, seed: u64) -> Self {
        match Self::try_new(bucket, seed) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`StratifiedSampler::new`].
    ///
    /// # Errors
    /// [`BuildError::ZeroBucket`] if `bucket` is zero.
    pub fn try_new(bucket: usize, seed: u64) -> Result<Self, BuildError> {
        if bucket == 0 {
            return Err(BuildError::ZeroBucket);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let target = rng.random_range(0..bucket);
        Ok(StratifiedSampler {
            bucket,
            rng,
            pos: 0,
            target,
        })
    }
}

impl Sampler for StratifiedSampler {
    /// Bucket-jump: advance bucket by bucket instead of packet by
    /// packet. Each bucket costs one range check, at most one push, and
    /// one RNG draw at its boundary to place the next bucket's pick.
    fn offer_ts_batch(&mut self, base: usize, ts: &[u64], out: &mut Vec<usize>) {
        let n = ts.len();
        let mut i = 0;
        while i < n {
            // Run length inside the current bucket.
            let step = (self.bucket - self.pos).min(n - i);
            if self.target >= self.pos && self.target < self.pos + step {
                out.push(base + i + (self.target - self.pos));
            }
            self.pos += step;
            i += step;
            if self.pos == self.bucket {
                self.pos = 0;
                self.target = self.rng.random_range(0..self.bucket);
            }
        }
    }

    fn method_name(&self) -> &'static str {
        "stratified"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::select_indices;
    use nettrace::{Micros, PacketRecord};

    fn packets(n: usize) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::new(Micros(i as u64), 40))
            .collect()
    }

    #[test]
    fn exactly_one_per_full_bucket() {
        let pkts = packets(100);
        for seed in 0..20 {
            let mut s = StratifiedSampler::new(10, seed);
            let sel = select_indices(&mut s, &pkts);
            assert_eq!(sel.len(), 10, "seed {seed}");
            for (b, &i) in sel.iter().enumerate() {
                assert!(
                    (b * 10..(b + 1) * 10).contains(&i),
                    "seed {seed}: index {i} outside bucket {b}"
                );
            }
        }
    }

    #[test]
    fn partial_final_bucket_selects_at_most_one() {
        let pkts = packets(25);
        for seed in 0..50 {
            let mut s = StratifiedSampler::new(10, seed);
            let sel = select_indices(&mut s, &pkts);
            let in_last = sel.iter().filter(|&&i| i >= 20).count();
            assert!(in_last <= 1);
            assert!(sel.len() == 2 || sel.len() == 3);
        }
    }

    #[test]
    fn selection_is_uniform_within_bucket() {
        // Over many seeds, each in-bucket position should be picked
        // approximately equally often.
        let pkts = packets(10);
        let mut counts = [0u32; 10];
        let trials = 20_000;
        for seed in 0..trials {
            let mut s = StratifiedSampler::new(10, seed);
            let sel = select_indices(&mut s, &pkts);
            assert_eq!(sel.len(), 1);
            counts[sel[0]] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let p = f64::from(c) / trials as f64;
            assert!((p - 0.1).abs() < 0.012, "position {i}: {p}");
        }
    }

    #[test]
    fn bucket_one_selects_everything() {
        let pkts = packets(9);
        let mut s = StratifiedSampler::new(1, 7);
        assert_eq!(select_indices(&mut s, &pkts).len(), 9);
    }

    #[test]
    fn different_seeds_differ() {
        let pkts = packets(1000);
        let a = select_indices(&mut StratifiedSampler::new(10, 1), &pkts);
        let b = select_indices(&mut StratifiedSampler::new(10, 2), &pkts);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "bucket size must be positive")]
    fn zero_bucket_panics() {
        let _ = StratifiedSampler::new(0, 0);
    }
}
