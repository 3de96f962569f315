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
//! replay; for unbounded streams use `streamkit::ReservoirStream`.

use crate::sampler::{BuildError, Sampler};
use nettrace::PacketRecord;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Exact n-of-N uniform sampling (Knuth Algorithm S).
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
}

impl Sampler for SimpleRandomSampler {
    fn offer(&mut self, _pkt: &PacketRecord) -> bool {
        if self.remaining_pop == 0 || self.remaining_sample == 0 {
            // Offers beyond the declared population are never selected.
            self.remaining_pop = self.remaining_pop.saturating_sub(1);
            return false;
        }
        // Select with probability remaining_sample / remaining_pop.
        let selected =
            (self.rng.random::<f64>() * self.remaining_pop as f64) < self.remaining_sample as f64;
        self.remaining_pop -= 1;
        if selected {
            self.remaining_sample -= 1;
        }
        selected
    }

    /// Tight-loop override: the same Algorithm S recurrence — one draw
    /// per in-population element, in the same stream positions — minus
    /// the per-packet dispatch. Once the sample or the population is
    /// exhausted, the rest of the run is rejected in O(1) (the
    /// per-packet path's chain of `saturating_sub(1)` collapses to one
    /// saturating subtraction of the remaining run length).
    fn offer_ts_batch(&mut self, base: usize, ts: &[u64], out: &mut Vec<usize>) {
        let n = ts.len();
        let mut i = 0;
        while i < n {
            if self.remaining_pop == 0 || self.remaining_sample == 0 {
                self.remaining_pop = self.remaining_pop.saturating_sub(n - i);
                return;
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
    fn offers_beyond_population_are_ignored() {
        let pkts = packets(30);
        let mut s = SimpleRandomSampler::new(20, 20, 3);
        let sel = select_indices(&mut s, &pkts);
        assert_eq!(sel.len(), 20);
        assert!(sel.iter().all(|&i| i < 20));
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
