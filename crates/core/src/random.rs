//! Simple random sampling: exactly `n` of `N`, uniformly, in one
//! streaming pass.
//!
//! "Simple random sampling uniformly selects n packets from the total
//! population at random" (paper §4). The classic way to do this without
//! materializing the population is Knuth's *selection sampling*
//! (Algorithm S, TAOCP vol. 2 §3.4.2): when `m` packets are still needed
//! out of `r` remaining, select the next packet with probability `m/r`.
//! Every `N choose n` subset is equally likely, and the pass is O(1) per
//! packet.
//!
//! Algorithm S needs the population size `N` up front — fine for trace
//! replay and for packet-count windows of `N` packets; every further
//! block of `N` offers is a fresh n-of-N draw on the same RNG stream.
//! For windows of unknown length use `streamkit::ReservoirStream`.

use crate::sampler::{BuildError, Sampler};
use nettrace::PacketRecord;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Exact n-of-N uniform sampling (Knuth Algorithm S), repeated per
/// block of `N` offers: offers `jN .. (j+1)N` select exactly `n`.
#[derive(Debug)]
pub struct SimpleRandomSampler {
    population: usize,
    sample: usize,
    seed: u64,
    rng: StdRng,
    remaining_pop: usize,
    remaining_sample: usize,
}

impl SimpleRandomSampler {
    /// Select exactly `sample` of the next `population` packets.
    ///
    /// # Panics
    /// Panics if `sample > population` or `population` is zero.
    #[must_use]
    pub fn new(population: usize, sample: usize, seed: u64) -> Self {
        match Self::try_new(population, sample, seed) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`SimpleRandomSampler::new`].
    ///
    /// # Errors
    /// [`BuildError::EmptyPopulation`] if `population` is zero,
    /// [`BuildError::SampleExceedsPopulation`] if `sample > population`.
    pub fn try_new(population: usize, sample: usize, seed: u64) -> Result<Self, BuildError> {
        if population == 0 {
            return Err(BuildError::EmptyPopulation);
        }
        if sample > population {
            return Err(BuildError::SampleExceedsPopulation { sample, population });
        }
        Ok(SimpleRandomSampler {
            population,
            sample,
            seed,
            rng: StdRng::seed_from_u64(seed),
            remaining_pop: population,
            remaining_sample: sample,
        })
    }

    /// The configured population size `N`.
    #[must_use]
    pub fn population(&self) -> usize {
        self.population
    }

    /// The configured sample size `n`.
    #[must_use]
    pub fn sample_size(&self) -> usize {
        self.sample
    }

    /// Start the next block's n-of-N draw; the RNG stream continues.
    fn next_block(&mut self) {
        self.remaining_pop = self.population;
        self.remaining_sample = self.sample;
    }
}

impl Sampler for SimpleRandomSampler {
    fn offer(&mut self, _pkt: &PacketRecord) -> bool {
        if self.remaining_pop == 0 {
            self.next_block();
        }
        // Select with probability remaining_sample / remaining_pop; a
        // block whose sample is complete rejects without a draw.
        let selected = self.remaining_sample > 0
            && (self.rng.random::<f64>() * self.remaining_pop as f64)
                < self.remaining_sample as f64;
        self.remaining_pop -= 1;
        if selected {
            self.remaining_sample -= 1;
        }
        selected
    }

    /// Tight-loop override: the same Algorithm S recurrence — one draw
    /// per offer while the block still needs selections, in the same
    /// stream positions — minus the per-packet dispatch. Once a block's
    /// sample is complete, the rest of that block is rejected in O(1).
    fn offer_ts_batch(&mut self, base: usize, ts: &[u64], out: &mut Vec<usize>) {
        let n = ts.len();
        let mut i = 0;
        while i < n {
            if self.remaining_pop == 0 {
                self.next_block();
            }
            if self.remaining_sample == 0 {
                let skip = self.remaining_pop.min(n - i);
                self.remaining_pop -= skip;
                i += skip;
                continue;
            }
            let selected = (self.rng.random::<f64>() * self.remaining_pop as f64)
                < self.remaining_sample as f64;
            self.remaining_pop -= 1;
            if selected {
                self.remaining_sample -= 1;
                out.push(base + i);
            }
            i += 1;
        }
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.remaining_pop = self.population;
        self.remaining_sample = self.sample;
    }

    fn method_name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::select_indices;
    use nettrace::Micros;

    fn packets(n: usize) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::new(Micros(i as u64), 40))
            .collect()
    }

    #[test]
    fn selects_exactly_n() {
        let pkts = packets(1000);
        for seed in 0..50 {
            let mut s = SimpleRandomSampler::new(1000, 37, seed);
            assert_eq!(select_indices(&mut s, &pkts).len(), 37, "seed {seed}");
        }
    }

    #[test]
    fn n_equals_population_selects_all() {
        let pkts = packets(25);
        let mut s = SimpleRandomSampler::new(25, 25, 1);
        assert_eq!(select_indices(&mut s, &pkts).len(), 25);
    }

    #[test]
    fn n_zero_selects_none() {
        let pkts = packets(25);
        let mut s = SimpleRandomSampler::new(25, 0, 1);
        assert!(select_indices(&mut s, &pkts).is_empty());
    }

    #[test]
    fn uniform_inclusion_probability() {
        // Each of N=20 positions should be included with probability
        // n/N = 0.25, estimated over many seeds.
        let pkts = packets(20);
        let mut counts = [0u32; 20];
        let trials = 20_000u32;
        for seed in 0..u64::from(trials) {
            let mut s = SimpleRandomSampler::new(20, 5, seed);
            for i in select_indices(&mut s, &pkts) {
                counts[i] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let p = f64::from(c) / f64::from(trials);
            assert!((p - 0.25).abs() < 0.015, "position {i}: p = {p}");
        }
    }

    #[test]
    fn no_order_bias_in_pairs() {
        // P(both of two fixed positions included) should be
        // n(n-1)/(N(N-1)) regardless of their distance.
        let pkts = packets(10);
        let (mut both_adjacent, mut both_far) = (0u32, 0u32);
        let trials = 30_000u64;
        for seed in 0..trials {
            let mut s = SimpleRandomSampler::new(10, 4, seed);
            let sel = select_indices(&mut s, &pkts);
            if sel.contains(&0) && sel.contains(&1) {
                both_adjacent += 1;
            }
            if sel.contains(&0) && sel.contains(&9) {
                both_far += 1;
            }
        }
        let expected = 4.0 * 3.0 / (10.0 * 9.0);
        let pa = f64::from(both_adjacent) / trials as f64;
        let pf = f64::from(both_far) / trials as f64;
        assert!((pa - expected).abs() < 0.01, "adjacent {pa}");
        assert!((pf - expected).abs() < 0.01, "far {pf}");
    }

    #[test]
    fn each_block_of_n_offers_is_a_fresh_n_of_n_draw() {
        // 20 of 100, offered 3.5 blocks: every full block selects
        // exactly 20 inside itself, and the half block at most 20.
        let pkts = packets(350);
        for seed in 0..20 {
            let sel = select_indices(&mut SimpleRandomSampler::new(100, 20, seed), &pkts);
            for block in 0..4 {
                let inside = sel.iter().filter(|&&i| i / 100 == block).count();
                assert!(inside == 20 || (block == 3 && inside <= 20), "seed {seed}");
            }
        }
        // The first block is the single n-of-N draw, bit for bit as
        // before blocks repeated (indices recorded from that code).
        let sel = select_indices(&mut SimpleRandomSampler::new(100, 20, 3), &pkts);
        let want = [
            0, 5, 6, 9, 14, 22, 23, 35, 42, 49, 52, 53, 54, 63, 65, 67, 70, 80, 81, 92,
        ];
        assert_eq!(sel[..20], want);
    }

    #[test]
    fn batch_path_matches_per_packet_across_blocks() {
        let pkts = packets(1_000);
        let ts: Vec<u64> = pkts.iter().map(|p| p.timestamp.as_u64()).collect();
        for (population, sample) in [(37, 5), (100, 100), (64, 0), (1, 1)] {
            let mut s = SimpleRandomSampler::new(population, sample, 11);
            let want: Vec<usize> = (0..pkts.len()).filter(|&i| s.offer(&pkts[i])).collect();
            for chunk in [1usize, 7, 100] {
                s.reset();
                let mut got = Vec::new();
                for (c, part) in ts.chunks(chunk).enumerate() {
                    s.offer_ts_batch(c * chunk, part, &mut got);
                }
                assert_eq!(got, want, "N={population} n={sample} chunk {chunk}");
            }
        }
    }

    #[test]
    fn reset_reproduces() {
        let pkts = packets(100);
        let mut s = SimpleRandomSampler::new(100, 10, 9);
        let a = select_indices(&mut s, &pkts);
        s.reset();
        assert_eq!(a, select_indices(&mut s, &pkts));
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn oversample_panics() {
        let _ = SimpleRandomSampler::new(5, 6, 0);
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn empty_population_panics() {
        let _ = SimpleRandomSampler::new(0, 0, 0);
    }
}
