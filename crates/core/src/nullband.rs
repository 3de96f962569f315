//! A Monte-Carlo sampling distribution for φ — closing the paper's
//! stated gap.
//!
//! §5.2: "Unlike the χ² statistic, which uses the associated χ²
//! distribution for hypothesis testing, we are aware of no such
//! corresponding distribution for the φ metric", and §6: "we do not
//! offer a precise threshold below which all φ-values are acceptable."
//!
//! Both gaps close with one observation: under the null hypothesis that
//! a size-`n` sample is drawn uniformly at random from the (fully known)
//! parent population, the sample's bin counts are multinomial with the
//! population's proportions — so φ's null distribution can simply be
//! *simulated*. [`phi_null_band`] returns the quantiles of that
//! distribution; a measured φ above the 95th-percentile band indicates a
//! *biased* sampling method (timer-driven methods, in the paper's data),
//! not mere sampling noise.

use nettrace::Histogram;
use rand::rngs::StdRng;
use rand::SeedableRng;
use statkit::chi2::chi2_quantile;
use statkit::rand_ext::multinomial;

/// Quantiles of φ's null distribution for a given population and sample
/// size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhiNullBand {
    /// Median of the null φ distribution.
    pub median: f64,
    /// 95th percentile: the paper's missing "acceptable φ" threshold at
    /// the conventional level.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Sample size the band is for.
    pub n: u64,
    /// Monte-Carlo draws used.
    pub draws: u32,
}

impl PhiNullBand {
    /// Whether a measured φ is consistent with unbiased random sampling
    /// at the 5% level.
    #[must_use]
    pub fn consistent_at_95(&self, phi: f64) -> bool {
        phi <= self.p95
    }
}

/// Simulate φ's null distribution: `draws` multinomial samples of size
/// `n` from the population's bin proportions, each scored against the
/// population's counts with the paired-χ² φ kernel
/// [`obskit::paired_phi`] (`φ = sqrt(χ²ₚ/n)` with
/// `χ²ₚ = Σ (Eᵢ−Oᵢ)²/(Eᵢ+Oᵢ)`), the one [`crate::metrics::disparity`]
/// calls.
///
/// ```
/// use nettrace::{BinSpec, Histogram};
/// use sampling::nullband::phi_null_band;
/// let pop = Histogram::from_values(
///     BinSpec::paper_packet_size(),
///     (0..1000).map(|i| if i % 2 == 0 { 40 } else { 552 }),
/// );
/// let band = phi_null_band(&pop, 500, 500, 42);
/// // An unbiased sample's phi at n = 500 is typically well under ~0.07.
/// assert!(band.p95 > 0.0 && band.p95 < 0.12);
/// assert!(band.consistent_at_95(band.median));
/// ```
///
/// # Panics
/// Panics if the population is empty, `n` is zero, or `draws` is zero.
#[must_use]
pub fn phi_null_band(population: &Histogram, n: u64, draws: u32, seed: u64) -> PhiNullBand {
    assert!(population.total() > 0, "population must be nonempty");
    assert!(n > 0, "sample size must be positive");
    assert!(draws > 0, "need at least one Monte-Carlo draw");
    let props = population.proportions();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut phis: Vec<f64> = Vec::with_capacity(draws as usize);
    for _ in 0..draws {
        let counts = multinomial(&mut rng, n, &props);
        phis.push(
            obskit::paired_phi(population.counts(), &counts)
                .expect("population and sample are nonempty"),
        );
    }
    phis.sort_by(f64::total_cmp);
    let q = |p: f64| statkit::quantile_sorted(&phis, p);
    PhiNullBand {
        median: q(0.5),
        p95: q(0.95),
        p99: q(0.99),
        n,
        draws,
    }
}

/// The closed-form large-`n` approximation of the null band: under the
/// null every observed count tracks its expectation, so the paired χ²
/// is ≈ half the goodness-of-fit χ², which is `~ χ²(B−1)`; hence
/// `φ_q ≈ sqrt(χ²_q(B−1) / 2n)`. Cheap, and a cross-check on the
/// Monte-Carlo band (they agree when every expected bin count is
/// comfortably large).
///
/// # Panics
/// Panics if `bins < 2`, `n` is zero, or `q` is outside (0, 1).
#[must_use]
pub fn phi_null_quantile_asymptotic(bins: u32, n: u64, q: f64) -> f64 {
    assert!(bins >= 2, "need at least two bins");
    assert!(n > 0, "sample size must be positive");
    (chi2_quantile(bins - 1, q) / (2.0 * n as f64)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::BinSpec;

    fn population() -> Histogram {
        let mut h = Histogram::new(BinSpec::paper_packet_size());
        // Roughly the study population's proportions.
        for _ in 0..403 {
            h.observe(40);
        }
        for _ in 0..199 {
            h.observe(100);
        }
        for _ in 0..398 {
            h.observe(552);
        }
        h
    }

    #[test]
    fn band_shrinks_with_sample_size() {
        let pop = population();
        let small = phi_null_band(&pop, 100, 2000, 1);
        let large = phi_null_band(&pop, 10_000, 2000, 1);
        assert!(
            large.p95 < small.p95 / 5.0,
            "{} vs {}",
            large.p95,
            small.p95
        );
        // sqrt scaling: factor 100 in n -> factor 10 in phi.
        assert!((small.p95 / large.p95 - 10.0).abs() < 2.0);
    }

    #[test]
    fn band_is_ordered_and_positive() {
        let b = phi_null_band(&population(), 500, 2000, 2);
        assert!(b.median > 0.0);
        assert!(b.median < b.p95);
        assert!(b.p95 < b.p99);
        assert_eq!(b.n, 500);
    }

    #[test]
    fn monte_carlo_agrees_with_asymptotic() {
        let pop = population();
        let mc = phi_null_band(&pop, 5_000, 5_000, 3);
        let asym = phi_null_quantile_asymptotic(3, 5_000, 0.95);
        assert!(
            (mc.p95 / asym - 1.0).abs() < 0.08,
            "MC {} vs asymptotic {asym}",
            mc.p95
        );
    }

    #[test]
    fn unbiased_samples_fall_inside_the_band() {
        // Draw real multinomial samples and check ~95% fall under p95.
        use rand::{rngs::StdRng, SeedableRng};
        use statkit::rand_ext::multinomial;
        let pop = population();
        let band = phi_null_band(&pop, 1000, 4000, 4);
        let props = pop.proportions();
        let mut rng = StdRng::seed_from_u64(99);
        let mut inside = 0;
        let trials = 1000;
        for _ in 0..trials {
            let counts = multinomial(&mut rng, 1000, &props);
            let phi = obskit::paired_phi(pop.counts(), &counts).unwrap();
            if band.consistent_at_95(phi) {
                inside += 1;
            }
        }
        let rate = f64::from(inside) / f64::from(trials);
        assert!((rate - 0.95).abs() < 0.03, "coverage {rate}");
    }

    #[test]
    fn biased_sample_is_flagged() {
        // A sample with systematically shifted proportions exceeds the
        // band even though its size matches.
        let pop = population();
        let band = phi_null_band(&pop, 2_000, 2000, 5);
        // Sample proportions (0.55, 0.10, 0.35) vs (0.403, 0.199, 0.398).
        let counts = [1100u64, 200, 700];
        let phi = obskit::paired_phi(pop.counts(), &counts).unwrap();
        assert!(
            !band.consistent_at_95(phi),
            "phi {phi} vs band {}",
            band.p95
        );
    }

    #[test]
    #[should_panic(expected = "sample size must be positive")]
    fn zero_n_panics() {
        let _ = phi_null_band(&population(), 0, 10, 0);
    }
}
