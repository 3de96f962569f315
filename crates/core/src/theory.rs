//! Empirical verification of the classical efficiency theory (paper §5).
//!
//! Cochran's comparative analysis ranks sampling methods by the variance
//! of their mean estimator:
//!
//! * randomly ordered population → all methods equivalent;
//! * linear trend → `Var(stratified) ≤ Var(systematic) ≤ Var(random)`;
//! * periodic correlation resonant with the sampling interval →
//!   systematic sampling is far worse than either random method.
//!
//! [`estimator_variance`] measures those variances by replication over a
//! concrete population (the `netsynth::canonical` generators build the
//! three structures); `repro_all --only theory` and the integration
//! tests confirm the orderings.

use crate::experiment::{mean_pps, MethodFamily};
use crate::sampler::select_indices_ts;
use nettrace::PacketRecord;
use statkit::Moments;

/// Replication statistics of a method's mean-packet-size estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorStats {
    /// The population's true mean packet size.
    pub true_mean: f64,
    /// Mean of the replicated estimates.
    pub mean_of_estimates: f64,
    /// Variance of the replicated estimates (the efficiency criterion).
    pub variance: f64,
    /// Number of scored replications.
    pub replications: usize,
}

impl EstimatorStats {
    /// Absolute bias of the estimator across replications.
    #[must_use]
    pub fn bias(&self) -> f64 {
        self.mean_of_estimates - self.true_mean
    }
}

/// Measure the replication variance of `family`'s mean-size estimator at
/// granularity `k` over a fixed population.
///
/// Systematic sampling is replicated over all `min(replications, k)`
/// distinct offsets; randomized methods over `replications` seeds.
///
/// # Panics
/// Panics if the population is empty, `k` is zero, or no replication
/// produced a nonempty sample.
#[must_use]
pub fn estimator_variance(
    packets: &[PacketRecord],
    family: MethodFamily,
    k: usize,
    replications: u32,
    seed: u64,
) -> EstimatorStats {
    assert!(!packets.is_empty(), "population must be nonempty");
    assert!(k > 0, "granularity must be positive");
    let true_mean = packets.iter().map(|p| f64::from(p.size)).sum::<f64>() / packets.len() as f64;

    let reps = family.replication_cap(k, replications);
    let spec = family.at_granularity(k, mean_pps(packets));
    let ts: Vec<u64> = packets.iter().map(|p| p.timestamp.as_u64()).collect();
    let mut estimates = Moments::new();
    for rep in 0..u64::from(reps) {
        let mut sampler = spec.build(packets.len(), packets[0].timestamp, rep, seed);
        let selected = select_indices_ts(sampler.as_mut(), &ts);
        if selected.is_empty() {
            continue;
        }
        let est = selected
            .iter()
            .map(|&i| f64::from(packets[i].size))
            .sum::<f64>()
            / selected.len() as f64;
        estimates.push(est);
    }
    assert!(
        estimates.count() > 0,
        "no replication produced a nonempty sample"
    );
    EstimatorStats {
        true_mean,
        mean_of_estimates: estimates.mean(),
        variance: estimates.variance(),
        replications: estimates.count() as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::Micros;

    /// Randomly ordered population (sizes i.i.d.; a multiplicative-hash
    /// sequence would be quasirandom and make systematic sampling
    /// unrealistically perfect, so a real RNG is required here).
    fn flat_population(n: usize) -> Vec<PacketRecord> {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xF1A7);
        (0..n)
            .map(|i| {
                let size: u16 = rng.random_range(40..=552);
                PacketRecord::new(Micros(i as u64 * 1000), size)
            })
            .collect()
    }

    /// Sizes rise linearly.
    fn trend_population(n: usize) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| {
                let size = 40 + (512 * i / (n - 1)) as u16;
                PacketRecord::new(Micros(i as u64 * 1000), size)
            })
            .collect()
    }

    /// Sizes cycle with the given period.
    fn periodic_population(n: usize, period: usize) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| {
                let phase = (i % period) as f64 / period as f64;
                let size = (296.0 + 256.0 * (2.0 * std::f64::consts::PI * phase).sin()) as u16;
                PacketRecord::new(Micros(i as u64 * 1000), size)
            })
            .collect()
    }

    #[test]
    fn estimators_are_unbiased_on_flat_population() {
        let pop = flat_population(50_000);
        for family in [
            MethodFamily::Systematic,
            MethodFamily::StratifiedRandom,
            MethodFamily::SimpleRandom,
        ] {
            let s = estimator_variance(&pop, family, 100, 100, 1);
            assert!(s.bias().abs() < 3.0, "{}: bias {}", family.name(), s.bias());
        }
    }

    #[test]
    fn flat_population_methods_equivalent() {
        // §5: "If the populations are randomly ordered, we expect all
        // three methods to be equivalent." Variances within a small
        // factor of each other.
        let pop = flat_population(100_000);
        let sys = estimator_variance(&pop, MethodFamily::Systematic, 100, 100, 2).variance;
        let strat = estimator_variance(&pop, MethodFamily::StratifiedRandom, 100, 100, 2).variance;
        let rand = estimator_variance(&pop, MethodFamily::SimpleRandom, 100, 100, 2).variance;
        let max = sys.max(strat).max(rand);
        let min = sys.min(strat).min(rand);
        assert!(max / min < 3.0, "sys {sys} strat {strat} rand {rand}");
    }

    #[test]
    fn linear_trend_ordering() {
        // §5: stratified < systematic < random on a linear trend.
        let pop = trend_population(100_000);
        let sys = estimator_variance(&pop, MethodFamily::Systematic, 1000, 1000, 3).variance;
        let strat = estimator_variance(&pop, MethodFamily::StratifiedRandom, 1000, 300, 3).variance;
        let rand = estimator_variance(&pop, MethodFamily::SimpleRandom, 1000, 300, 3).variance;
        assert!(strat < rand, "stratified {strat} should beat random {rand}");
        assert!(sys < rand, "systematic {sys} should beat random {rand}");
        assert!(
            strat < sys * 1.2,
            "stratified {strat} should be no worse than systematic {sys}"
        );
    }

    #[test]
    fn periodic_resonance_destroys_systematic() {
        // Sampling interval == period: every systematic sample sees one
        // phase only.
        let pop = periodic_population(100_000, 100);
        let sys = estimator_variance(&pop, MethodFamily::Systematic, 100, 100, 4).variance;
        let strat = estimator_variance(&pop, MethodFamily::StratifiedRandom, 100, 100, 4).variance;
        let rand = estimator_variance(&pop, MethodFamily::SimpleRandom, 100, 100, 4).variance;
        assert!(
            sys > 10.0 * strat,
            "systematic {sys} should collapse vs stratified {strat}"
        );
        assert!(
            sys > 10.0 * rand,
            "systematic {sys} should collapse vs random {rand}"
        );
    }

    #[test]
    fn periodic_bias_of_resonant_systematic() {
        // Each resonant systematic replication is biased to its phase.
        let pop = periodic_population(10_000, 50);
        let s = estimator_variance(&pop, MethodFamily::Systematic, 50, 50, 5);
        // Across ALL offsets the phases average out...
        assert!(s.bias().abs() < 5.0);
        // ...but the per-replication spread is enormous (≈ amplitude²/2).
        assert!(s.variance > 10_000.0, "variance {}", s.variance);
    }

    #[test]
    #[should_panic(expected = "population must be nonempty")]
    fn empty_population_panics() {
        let _ = estimator_variance(&[], MethodFamily::Systematic, 10, 5, 0);
    }
}
