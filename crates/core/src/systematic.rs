//! Systematic (every k-th packet) sampling.
//!
//! The method deployed operationally on both NSFNET backbones: the T1
//! statistics processor and the T3 forwarding firmware each select one
//! packet in fifty (paper §2). Deterministic, counter-based, O(1) per
//! packet, no random state — which is exactly why router firmware likes
//! it, and why the paper asks whether its determinism distorts samples
//! relative to simple random sampling (§4: it doesn't, measurably, on
//! this traffic).

use crate::sampler::{BuildError, Sampler};

/// Selects every `interval`-th packet, starting at `offset`
/// (`offset < interval`): packets with 0-based arrival number
/// `offset, offset + k, offset + 2k, …` enter the sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystematicSampler {
    interval: usize,
    offset: usize,
    count: usize,
}

impl SystematicSampler {
    /// Every `interval`-th packet starting with the first.
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn new(interval: usize) -> Self {
        Self::with_offset(interval, 0)
    }

    /// Every `interval`-th packet starting at `offset`.
    ///
    /// Varying the offset is how the paper generates replications of this
    /// deterministic method ("we varied the point within the data set at
    /// which to begin the sampling procedure", §7.2); there are exactly
    /// `interval` distinct replications.
    ///
    /// # Panics
    /// Panics if `interval` is zero or `offset >= interval`.
    #[must_use]
    pub fn with_offset(interval: usize, offset: usize) -> Self {
        match Self::try_with_offset(interval, offset) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`SystematicSampler::new`].
    ///
    /// # Errors
    /// [`BuildError::ZeroInterval`] if `interval` is zero.
    pub fn try_new(interval: usize) -> Result<Self, BuildError> {
        Self::try_with_offset(interval, 0)
    }

    /// Fallible [`SystematicSampler::with_offset`]: untrusted
    /// configuration (CLI flags, fuzzed specs) gets a typed error
    /// instead of an abort.
    ///
    /// # Errors
    /// [`BuildError::ZeroInterval`] if `interval` is zero,
    /// [`BuildError::OffsetNotBelowInterval`] if `offset >= interval`.
    pub fn try_with_offset(interval: usize, offset: usize) -> Result<Self, BuildError> {
        if interval == 0 {
            return Err(BuildError::ZeroInterval);
        }
        if offset >= interval {
            return Err(BuildError::OffsetNotBelowInterval { offset, interval });
        }
        Ok(SystematicSampler {
            interval,
            offset,
            count: 0,
        })
    }
}

impl Sampler for SystematicSampler {
    /// Strided: the selected arrival numbers in
    /// `[count, count + n)` are the solutions of
    /// `c ≡ offset (mod interval)`, so selection is pure index math —
    /// O(selected) pushes, no per-packet work at all.
    fn offer_ts_batch(&mut self, base: usize, ts: &[u64], out: &mut Vec<usize>) {
        let r = self.count % self.interval;
        // First in-run position whose arrival number hits the offset
        // (phrased overflow-free for arbitrarily large intervals).
        let mut j = if self.offset >= r {
            self.offset - r
        } else {
            self.interval - r + self.offset
        };
        while j < ts.len() {
            out.push(base + j);
            j += self.interval;
        }
        self.count += ts.len();
    }

    fn reset(&mut self) {
        self.count = 0;
    }

    fn method_name(&self) -> &'static str {
        "systematic"
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
    fn selects_every_kth() {
        let pkts = packets(20);
        let mut s = SystematicSampler::new(5);
        assert_eq!(select_indices(&mut s, &pkts), vec![0, 5, 10, 15]);
    }

    #[test]
    fn offset_shifts_selection() {
        let pkts = packets(20);
        let mut s = SystematicSampler::with_offset(5, 3);
        assert_eq!(select_indices(&mut s, &pkts), vec![3, 8, 13, 18]);
    }

    #[test]
    fn interval_one_selects_all() {
        let pkts = packets(7);
        let mut s = SystematicSampler::new(1);
        assert_eq!(select_indices(&mut s, &pkts).len(), 7);
    }

    #[test]
    fn sample_size_is_ceil_formula() {
        // |sample| = ceil((N - offset) / k) for offset < min(N, k).
        for n in [1usize, 7, 50, 99, 100, 101] {
            for k in [1usize, 2, 7, 50] {
                for offset in 0..k.min(n) {
                    let pkts = packets(n);
                    let mut s = SystematicSampler::with_offset(k, offset);
                    let got = select_indices(&mut s, &pkts).len();
                    let expected = (n - offset).div_ceil(k);
                    assert_eq!(got, expected, "n={n} k={k} offset={offset}");
                }
            }
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let pkts = packets(10);
        let mut s = SystematicSampler::with_offset(3, 1);
        let first = select_indices(&mut s, &pkts);
        s.reset();
        let second = select_indices(&mut s, &pkts);
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        let _ = SystematicSampler::new(0);
    }

    #[test]
    #[should_panic(expected = "must be below interval")]
    fn oversized_offset_panics() {
        let _ = SystematicSampler::with_offset(5, 5);
    }
}
