//! Geometric-skip (i.i.d. Bernoulli) 1-in-k sampling.
//!
//! An operational descendant of the paper's methods: instead of a strict
//! every-k-th count (systematic) or one-per-bucket (stratified), each
//! packet is selected independently with probability `1/k`. Implemented,
//! as production samplers do (sFlow, RFC 3176), by drawing the *skip
//! count* to the next selection from the geometric distribution — one
//! random draw per selection instead of one per packet.

use crate::sampler::{BuildError, Sampler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Geometric skip: the number of failures before the first success in
/// Bernoulli trials of success probability `p`, by inversion of one
/// uniform draw.
///
/// A `p` so small that `1 - p` rounds to 1.0 (below about 2⁻⁵⁴) has no
/// representable skip distribution: the skip is `u64::MAX` and no draw
/// is spent, which parks the caller's schedule. Dividing by `ln(1.0)`
/// instead would turn the skip into 0 and select every packet.
pub fn draw_skip(rng: &mut StdRng, p: f64) -> u64 {
    let denom = (1.0 - p).ln();
    if denom == 0.0 {
        return u64::MAX;
    }
    let u: f64 = 1.0 - rng.random::<f64>(); // (0,1]
    (u.ln() / denom).floor() as u64
}

/// i.i.d. 1-in-k sampling via geometric skips.
#[derive(Debug)]
pub struct GeometricSkipSampler {
    mean_interval: usize,
    rng: StdRng,
    /// Packets still to skip before the next selection.
    skip: u64,
}

impl GeometricSkipSampler {
    /// Select each packet independently with probability
    /// `1 / mean_interval`.
    ///
    /// # Panics
    /// Panics if `mean_interval` is zero.
    #[must_use]
    pub fn new(mean_interval: usize, seed: u64) -> Self {
        match Self::try_new(mean_interval, seed) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`GeometricSkipSampler::new`].
    ///
    /// # Errors
    /// [`BuildError::ZeroMeanInterval`] if `mean_interval` is zero.
    pub fn try_new(mean_interval: usize, seed: u64) -> Result<Self, BuildError> {
        if mean_interval == 0 {
            return Err(BuildError::ZeroMeanInterval);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let skip = Self::next_skip(&mut rng, mean_interval);
        Ok(GeometricSkipSampler {
            mean_interval,
            rng,
            skip,
        })
    }

    /// The skip to the next selection at probability `1/k`; `k = 1`
    /// selects every packet without a draw.
    fn next_skip(rng: &mut StdRng, k: usize) -> u64 {
        if k == 1 {
            return 0;
        }
        draw_skip(rng, 1.0 / k as f64)
    }
}

impl Sampler for GeometricSkipSampler {
    /// Skip-jump: hop straight from selection to selection, one RNG draw
    /// per selected packet; skipped packets cost nothing.
    fn offer_ts_batch(&mut self, base: usize, ts: &[u64], out: &mut Vec<usize>) {
        let n = ts.len() as u64;
        let mut i = 0u64;
        loop {
            let remaining = n - i;
            if self.skip >= remaining {
                self.skip -= remaining;
                return;
            }
            i += self.skip;
            out.push(base + i as usize);
            self.skip = Self::next_skip(&mut self.rng, self.mean_interval);
            i += 1;
        }
    }

    fn method_name(&self) -> &'static str {
        "geometric"
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
    fn selection_rate_matches_one_over_k() {
        let pkts = packets(200_000);
        let mut s = GeometricSkipSampler::new(50, 42);
        let sel = select_indices(&mut s, &pkts);
        let rate = sel.len() as f64 / pkts.len() as f64;
        assert!((rate - 0.02).abs() < 0.002, "rate {rate}");
    }

    #[test]
    fn interval_one_selects_all() {
        let pkts = packets(100);
        let mut s = GeometricSkipSampler::new(1, 0);
        assert_eq!(select_indices(&mut s, &pkts).len(), 100);
    }

    #[test]
    fn skips_are_geometric() {
        // Gaps between selections should have mean k and variance
        // ~ k(k-1) (geometric on {1,2,...} shifted).
        let pkts = packets(500_000);
        let mut s = GeometricSkipSampler::new(20, 7);
        let sel = select_indices(&mut s, &pkts);
        let gaps: Vec<f64> = sel.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let m = statkit::Moments::from_values(gaps.iter().copied());
        assert!((m.mean() - 20.0).abs() < 0.5, "mean gap {}", m.mean());
        let expected_var = 20.0 * 19.0;
        assert!(
            (m.variance() - expected_var).abs() / expected_var < 0.1,
            "var {}",
            m.variance()
        );
    }

    #[test]
    fn independence_no_periodicity() {
        // Unlike systematic sampling, selection positions mod k are
        // uniform, not constant.
        let pkts = packets(100_000);
        let mut s = GeometricSkipSampler::new(10, 3);
        let sel = select_indices(&mut s, &pkts);
        let mut residues = [0u32; 10];
        for i in &sel {
            residues[i % 10] += 1;
        }
        let total: u32 = residues.iter().sum();
        for (r, &c) in residues.iter().enumerate() {
            let p = f64::from(c) / f64::from(total);
            assert!((p - 0.1).abs() < 0.02, "residue {r}: {p}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let pkts = packets(10_000);
        let run = || select_indices(&mut GeometricSkipSampler::new(13, 11), &pkts);
        assert_eq!(run(), run());
    }

    #[test]
    fn skip_probability_below_f64_resolution_parks() {
        // From k = 2^54 on, 1 - 1/k rounds to 1.0: the skip draw divided
        // by ln(1.0) = 0 and selected every packet.
        let pkts = packets(1_000);
        for k in [1usize << 54, usize::MAX] {
            let mut s = GeometricSkipSampler::new(k, 42);
            assert!(select_indices(&mut s, &pkts).is_empty(), "k = {k}");
        }
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(draw_skip(&mut rng, 0.0), u64::MAX);
        assert_eq!(draw_skip(&mut rng, 1e-17), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "mean interval must be positive")]
    fn zero_interval_panics() {
        let _ = GeometricSkipSampler::new(0, 0);
    }
}
