//! Population estimation from samples.
//!
//! Beyond scoring distributions, an operator uses samples to *estimate*
//! population quantities: total traffic (the billing example of §5.2)
//! and class proportions (protocol/port mix, §8). This module provides
//! the standard simple-random-sampling estimators, with the
//! finite-population correction on the proportion's standard error —
//! the paper's populations are finite and fully known, so the
//! correction is observable in experiments.

use statkit::special::normal_quantile;

/// Horvitz–Thompson style total estimate: scale the sampled count/bytes
/// by the inverse sampling fraction.
///
/// # Panics
/// Panics unless `fraction` is in (0, 1].
#[must_use]
pub fn estimated_total(sampled_value: f64, fraction: f64) -> f64 {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0,1], got {fraction}"
    );
    sampled_value / fraction
}

/// A proportion estimate with its sampling error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionEstimate {
    /// The sample proportion.
    pub p: f64,
    /// Standard error (with finite-population correction).
    pub std_error: f64,
    /// Sample size.
    pub n: usize,
}

impl ProportionEstimate {
    /// Two-sided (Wald) confidence interval, clamped to [0, 1].
    ///
    /// # Panics
    /// Panics unless `confidence` is in (0, 1).
    #[must_use]
    pub fn confidence_interval(&self, confidence: f64) -> (f64, f64) {
        let z = normal_quantile(1.0 - (1.0 - confidence) / 2.0);
        (
            (self.p - z * self.std_error).max(0.0),
            (self.p + z * self.std_error).min(1.0),
        )
    }
}

/// Estimate a class proportion (e.g. "fraction of packets that are UDP")
/// from `hits` successes in a sample of `n`, drawn from a population of
/// `population_len`.
///
/// # Panics
/// Panics if `n` is zero or `hits > n`.
#[must_use]
pub fn proportion(hits: usize, n: usize, population_len: usize) -> ProportionEstimate {
    assert!(n > 0, "cannot estimate a proportion from an empty sample");
    assert!(hits <= n, "hits cannot exceed sample size");
    let p = hits as f64 / n as f64;
    let fpc = if population_len > 0 {
        (1.0 - n as f64 / population_len as f64).max(0.0)
    } else {
        1.0
    };
    let var = p * (1.0 - p) / n as f64 * fpc;
    ProportionEstimate {
        p,
        std_error: var.sqrt(),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimated_total_scales_by_inverse_fraction() {
        assert!((estimated_total(100.0, 0.02) - 5000.0).abs() < 1e-9);
        assert!((estimated_total(7.0, 1.0) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn proportion_estimate_basics() {
        let est = proportion(25, 100, 100_000);
        assert!((est.p - 0.25).abs() < 1e-12);
        let (lo, hi) = est.confidence_interval(0.95);
        assert!(lo < 0.25 && 0.25 < hi);
        assert!(lo >= 0.0 && hi <= 1.0);
        // Degenerate proportions clamp cleanly.
        let zero = proportion(0, 50, 1000);
        assert_eq!(zero.confidence_interval(0.95).0, 0.0);
        let one = proportion(50, 50, 1000);
        assert_eq!(one.confidence_interval(0.95).1, 1.0);
    }

    #[test]
    fn proportion_error_shrinks_with_n() {
        let small = proportion(10, 40, 1_000_000);
        let large = proportion(1000, 4000, 1_000_000);
        assert!(large.std_error < small.std_error);
    }

    #[test]
    fn fpc_reduces_error() {
        let infinite = proportion(50, 200, usize::MAX);
        let finite = proportion(50, 200, 400); // half the population sampled
        assert!(finite.std_error < infinite.std_error * 0.8);
    }

    #[test]
    #[should_panic(expected = "hits cannot exceed")]
    fn bad_hits_panics() {
        let _ = proportion(5, 4, 100);
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0,1]")]
    fn bad_fraction_panics() {
        let _ = estimated_total(1.0, 0.0);
    }
}
