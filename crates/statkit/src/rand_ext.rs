//! Seeded random distributions for workload synthesis.
//!
//! Implemented on top of `rand`'s uniform primitives only, so the whole
//! workspace stays within its small dependency budget. Every sampler is a
//! plain value type; randomness always flows through an explicit `&mut R:
//! Rng`, keeping generation deterministic under a fixed seed (a hard
//! requirement for reproducible experiments).

use rand::{Rng, RngExt};

/// Exponential distribution with the given mean (`rate = 1/mean`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Create with the given mean.
    ///
    /// # Panics
    /// Panics unless `mean > 0`.
    #[must_use]
    pub fn new(mean: f64) -> Self {
        assert!(mean > 0.0, "exponential mean must be positive");
        Exponential { mean }
    }

    /// Draw one value by inversion.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 - U is in (0, 1]; ln of it is finite.
        let u: f64 = rng.random();
        -self.mean * (1.0 - u).ln()
    }

    /// The configured mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

/// Log-normal distribution parameterized by the *underlying normal's*
/// `mu` and `sigma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// From the underlying normal parameters.
    ///
    /// # Panics
    /// Panics unless `sigma >= 0`.
    #[must_use]
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "lognormal sigma must be nonnegative");
        LogNormal { mu, sigma }
    }

    /// Construct so the *lognormal itself* has the given mean and
    /// standard deviation.
    ///
    /// # Panics
    /// Panics unless both are positive.
    #[must_use]
    pub fn from_mean_std(mean: f64, std: f64) -> Self {
        assert!(
            mean > 0.0 && std > 0.0,
            "lognormal mean/std must be positive"
        );
        let cv2 = (std / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        LogNormal {
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    /// Draw one value (Box–Muller on the underlying normal).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// Theoretical mean of the lognormal.
    #[must_use]
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// One draw from the standard normal (Box–Muller, one branch).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0,1] to keep ln finite.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// One draw from Poisson(λ) by summing unit exponentials until they
/// exceed λ. O(λ) per draw but free of the `exp(−λ)` underflow of the
/// classic Knuth product method, and the workload generator only draws a
/// few thousand per trace.
///
/// # Panics
/// Panics if `lambda` is negative or non-finite.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "poisson rate must be finite and nonnegative"
    );
    if lambda == 0.0 {
        return 0;
    }
    let mut sum = 0.0;
    let mut k: u64 = 0;
    loop {
        let u: f64 = rng.random();
        sum += -(1.0 - u).ln();
        if sum >= lambda {
            return k;
        }
        k += 1;
    }
}

/// One draw from Binomial(n, p).
///
/// Exact inversion for small `n·p`, normal approximation with continuity
/// correction (clamped to `[0, n]`) for large — accurate enough for the
/// Monte-Carlo null bands it serves.
///
/// # Panics
/// Panics unless `0 <= p <= 1`.
pub fn binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    if n == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    // Exploit symmetry so the exact branch covers p near 1 too.
    if p > 0.5 {
        return n - binomial(rng, n, 1.0 - p);
    }
    let np = n as f64 * p;
    if np < 30.0 && n < 100_000 {
        // Exact: inversion through the CDF via the recurrence
        // P(k+1) = P(k) · (n-k)/(k+1) · p/(1-p).
        let mut u: f64 = rng.random();
        let ratio = p / (1.0 - p);
        let mut prob = (1.0 - p).powf(n as f64);
        let mut k = 0u64;
        loop {
            if u < prob || k >= n {
                return k;
            }
            u -= prob;
            prob *= (n - k) as f64 / (k + 1) as f64 * ratio;
            k += 1;
        }
    }
    // Normal approximation with continuity correction.
    let sigma = (np * (1.0 - p)).sqrt();
    let x = np + sigma * standard_normal(rng);
    x.round().clamp(0.0, n as f64) as u64
}

/// One multinomial draw: counts over `proportions` summing to `n`
/// (sequential conditional binomials).
///
/// # Panics
/// Panics if the proportions are empty, negative, or do not sum to ~1.
pub fn multinomial<R: Rng + ?Sized>(rng: &mut R, n: u64, proportions: &[f64]) -> Vec<u64> {
    assert!(!proportions.is_empty(), "need at least one category");
    let total: f64 = proportions.iter().sum();
    assert!(
        proportions.iter().all(|&p| p >= 0.0) && (total - 1.0).abs() < 1e-6,
        "proportions must be nonnegative and sum to 1"
    );
    let mut counts = Vec::with_capacity(proportions.len());
    let mut remaining_n = n;
    let mut remaining_p = 1.0f64;
    for (i, &p) in proportions.iter().enumerate() {
        if i == proportions.len() - 1 {
            counts.push(remaining_n);
            break;
        }
        let cond = if remaining_p > 1e-12 {
            (p / remaining_p).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let c = binomial(rng, remaining_n, cond);
        counts.push(c);
        remaining_n -= c;
        remaining_p -= p;
    }
    counts
}

/// Pareto (type I) distribution with scale `x_min` and shape `alpha`.
///
/// Used for heavy-tailed flow sizes; WAN traffic studies since the early
/// 1990s (including Paxson's, which the paper cites) found heavy tails in
/// connection sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Create with scale `x_min > 0` and shape `alpha > 0`.
    ///
    /// # Panics
    /// Panics on nonpositive parameters.
    #[must_use]
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(
            x_min > 0.0 && alpha > 0.0,
            "pareto parameters must be positive"
        );
        Pareto { x_min, alpha }
    }

    /// Draw one value by inversion.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.random::<f64>(); // (0, 1]
        self.x_min / u.powf(1.0 / self.alpha)
    }
}

/// A discrete distribution over arbitrary items with explicit weights,
/// sampled by binary search on the cumulative weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete<T: Clone> {
    items: Vec<T>,
    cumulative: Vec<f64>,
    total: f64,
}

impl<T: Clone> Discrete<T> {
    /// Build from `(item, weight)` pairs.
    ///
    /// # Panics
    /// Panics if no pair has positive weight or any weight is negative.
    #[must_use]
    pub fn new(pairs: &[(T, f64)]) -> Self {
        let mut items = Vec::with_capacity(pairs.len());
        let mut cumulative = Vec::with_capacity(pairs.len());
        let mut total = 0.0;
        for (item, w) in pairs {
            assert!(*w >= 0.0, "weights must be nonnegative");
            if *w > 0.0 {
                total += w;
                items.push(item.clone());
                cumulative.push(total);
            }
        }
        assert!(total > 0.0, "at least one positive weight required");
        Discrete {
            items,
            cumulative,
            total,
        }
    }

    /// Draw one item.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &T {
        let u: f64 = rng.random::<f64>() * self.total;
        let idx = self.cumulative.partition_point(|&c| c <= u);
        // partition_point can return len() only if u == total exactly
        // (probability ~0 but floats); clamp defensively.
        &self.items[idx.min(self.items.len() - 1)]
    }

    /// The probability assigned to index `i` (post-filtering of zero
    /// weights).
    #[must_use]
    pub fn probability(&self, i: usize) -> f64 {
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        (self.cumulative[i] - prev) / self.total
    }

    /// Items with positive weight, in insertion order.
    #[must_use]
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

/// Zipf distribution over `{1, …, n}` with exponent `alpha`:
/// `P(X = i) ∝ i^(-alpha)`. Sampled by binary search on the cumulative
/// table, so draws cost O(log n) and are exact.
///
/// Flow-size distributions in measured traffic are famously Zipf-like;
/// this is the generator behind the heavy-tailed flow packs the
/// inversion estimators are scored against.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cumulative: Vec<f64>,
    total: f64,
}

impl Zipf {
    /// Build over support `{1, …, n}` with exponent `alpha > 0`.
    ///
    /// # Panics
    /// Panics when `n == 0` or `alpha` is not a positive finite number.
    #[must_use]
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "zipf support must be nonempty");
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "zipf exponent must be positive"
        );
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 1..=n {
            total += (i as f64).powf(-alpha);
            cumulative.push(total);
        }
        Zipf { cumulative, total }
    }

    /// Draw one rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.random::<f64>() * self.total;
        let idx = self.cumulative.partition_point(|&c| c <= u);
        (idx.min(self.cumulative.len() - 1) + 1) as u64
    }

    /// The probability of rank `i` (1-based).
    #[must_use]
    pub fn probability(&self, i: u64) -> f64 {
        let i = i as usize;
        if i == 0 || i > self.cumulative.len() {
            return 0.0;
        }
        let prev = if i == 1 { 0.0 } else { self.cumulative[i - 2] };
        (self.cumulative[i - 1] - prev) / self.total
    }
}

/// Geometric distribution on `{1, 2, …}` with success probability `p`:
/// `P(X = s) = (1-p)^(s-1) · p`, mean `1/p`. Drawn by inversion.
///
/// The calibration battery leans on this one: a geometric parent
/// flow-size distribution has closed-form sampled-size expectations
/// under 1-in-k thinning, so estimator error is measurable exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// Create with success probability `0 < p <= 1`.
    ///
    /// # Panics
    /// Panics when `p` is outside `(0, 1]` or not finite.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(
            p.is_finite() && p > 0.0 && p <= 1.0,
            "geometric p must be in (0, 1]"
        );
        Geometric { p }
    }

    /// The distribution mean, `1/p`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        1.0 / self.p
    }

    /// `P(X = s)` for `s >= 1`.
    #[must_use]
    pub fn pmf(&self, s: u64) -> f64 {
        if s == 0 {
            return 0.0;
        }
        (1.0 - self.p).powi((s - 1) as i32) * self.p
    }

    /// Draw one value in `{1, 2, …}` by inversion.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        let u: f64 = 1.0 - rng.random::<f64>(); // (0, 1]
        let s = (u.ln() / (1.0 - self.p).ln()).ceil();
        if s < 1.0 {
            1
        } else {
            s as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::Moments;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::new(2358.0);
        let mut r = rng(1);
        let m = Moments::from_values((0..200_000).map(|_| d.sample(&mut r)));
        assert!(
            (m.mean() - 2358.0).abs() / 2358.0 < 0.02,
            "mean {}",
            m.mean()
        );
        // Exponential: std == mean.
        assert!((m.std_dev() - 2358.0).abs() / 2358.0 < 0.02);
        assert!(m.min() >= 0.0);
    }

    #[test]
    fn exponential_median_is_mean_ln2() {
        let d = Exponential::new(1.0);
        let mut r = rng(2);
        let mut v: Vec<f64> = (0..100_000).map(|_| d.sample(&mut r)).collect();
        v.sort_by(f64::total_cmp);
        let med = v[v.len() / 2];
        assert!((med - std::f64::consts::LN_2).abs() < 0.02, "median {med}");
    }

    #[test]
    fn lognormal_from_mean_std_matches() {
        let d = LogNormal::from_mean_std(424.0, 85.0);
        assert!((d.mean() - 424.0).abs() < 1e-9);
        let mut r = rng(3);
        let m = Moments::from_values((0..200_000).map(|_| d.sample(&mut r)));
        assert!((m.mean() - 424.0).abs() / 424.0 < 0.02, "mean {}", m.mean());
        assert!(
            (m.std_dev() - 85.0).abs() / 85.0 < 0.05,
            "std {}",
            m.std_dev()
        );
        // Lognormal is right-skewed.
        assert!(m.skewness() > 0.0);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng(4);
        let m = Moments::from_values((0..200_000).map(|_| standard_normal(&mut r)));
        assert!(m.mean().abs() < 0.02);
        assert!((m.std_dev() - 1.0).abs() < 0.02);
        assert!(m.skewness().abs() < 0.05);
        assert!((m.kurtosis() - 3.0).abs() < 0.1);
    }

    #[test]
    fn poisson_moments() {
        let mut r = rng(12);
        let m = Moments::from_values((0..20_000).map(|_| poisson(&mut r, 424.2) as f64));
        assert!((m.mean() - 424.2).abs() / 424.2 < 0.01, "mean {}", m.mean());
        // Poisson: var == mean.
        assert!(
            (m.variance() - 424.2).abs() / 424.2 < 0.05,
            "var {}",
            m.variance()
        );
    }

    #[test]
    fn poisson_edge_cases() {
        let mut r = rng(13);
        assert_eq!(poisson(&mut r, 0.0), 0);
        // Tiny rate: overwhelmingly zero.
        let zeros = (0..10_000).filter(|_| poisson(&mut r, 1e-4) == 0).count();
        assert!(zeros > 9_990);
    }

    #[test]
    fn binomial_moments_exact_branch() {
        let mut r = rng(21);
        let m = Moments::from_values((0..50_000).map(|_| binomial(&mut r, 40, 0.3) as f64));
        assert!((m.mean() - 12.0).abs() < 0.1, "mean {}", m.mean());
        assert!((m.variance() - 8.4).abs() < 0.3, "var {}", m.variance());
    }

    #[test]
    fn binomial_moments_normal_branch() {
        let mut r = rng(22);
        let m = Moments::from_values((0..20_000).map(|_| binomial(&mut r, 1_000_000, 0.4) as f64));
        assert!((m.mean() - 400_000.0).abs() < 300.0, "mean {}", m.mean());
        let expected_var = 240_000.0;
        assert!(
            (m.variance() - expected_var).abs() / expected_var < 0.05,
            "var {}",
            m.variance()
        );
    }

    #[test]
    fn binomial_edge_cases() {
        let mut r = rng(23);
        assert_eq!(binomial(&mut r, 0, 0.5), 0);
        assert_eq!(binomial(&mut r, 10, 0.0), 0);
        assert_eq!(binomial(&mut r, 10, 1.0), 10);
        for _ in 0..1000 {
            let x = binomial(&mut r, 7, 0.9);
            assert!(x <= 7);
        }
    }

    #[test]
    fn multinomial_counts_sum_and_track_proportions() {
        let mut r = rng(24);
        let props = [0.403, 0.199, 0.398];
        let mut totals = [0u64; 3];
        let draws = 2_000;
        let n = 1_000u64;
        for _ in 0..draws {
            let c = multinomial(&mut r, n, &props);
            assert_eq!(c.iter().sum::<u64>(), n);
            for (t, x) in totals.iter_mut().zip(&c) {
                *t += x;
            }
        }
        for (t, p) in totals.iter().zip(&props) {
            let emp = *t as f64 / (draws as f64 * n as f64);
            assert!((emp - p).abs() < 0.005, "{emp} vs {p}");
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_multinomial_panics() {
        let mut r = rng(25);
        let _ = multinomial(&mut r, 10, &[0.5, 0.2]);
    }

    #[test]
    fn pareto_respects_minimum() {
        let d = Pareto::new(5.0, 1.5);
        let mut r = rng(5);
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 5.0);
        }
    }

    #[test]
    fn pareto_tail_heavier_than_exponential() {
        let p = Pareto::new(1.0, 1.2);
        let e = Exponential::new(6.0); // same order of mean
        let mut r = rng(6);
        let p_big = (0..100_000).filter(|_| p.sample(&mut r) > 100.0).count();
        let e_big = (0..100_000).filter(|_| e.sample(&mut r) > 100.0).count();
        assert!(p_big > e_big * 5, "pareto {p_big} vs exp {e_big}");
    }

    #[test]
    fn discrete_matches_weights() {
        let d = Discrete::new(&[("a", 1.0), ("b", 3.0), ("c", 0.0), ("d", 6.0)]);
        assert_eq!(d.items(), &["a", "b", "d"]); // zero weight dropped
        assert!((d.probability(0) - 0.1).abs() < 1e-12);
        assert!((d.probability(1) - 0.3).abs() < 1e-12);
        assert!((d.probability(2) - 0.6).abs() < 1e-12);
        let mut r = rng(7);
        let mut counts = [0usize; 3];
        for _ in 0..60_000 {
            match *d.sample(&mut r) {
                "a" => counts[0] += 1,
                "b" => counts[1] += 1,
                "d" => counts[2] += 1,
                _ => unreachable!(),
            }
        }
        assert!((counts[0] as f64 / 60_000.0 - 0.1).abs() < 0.01);
        assert!((counts[1] as f64 / 60_000.0 - 0.3).abs() < 0.01);
        assert!((counts[2] as f64 / 60_000.0 - 0.6).abs() < 0.01);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let d = Exponential::new(10.0);
        let a: Vec<f64> = {
            let mut r = rng(42);
            (0..10).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng(42);
            (0..10).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn all_zero_weights_panic() {
        let _ = Discrete::new(&[("a", 0.0)]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_exponential_panics() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn zipf_ranks_follow_power_law() {
        let z = Zipf::new(100, 1.0);
        // P(1)/P(2) = 2 for alpha = 1.
        assert!((z.probability(1) / z.probability(2) - 2.0).abs() < 1e-9);
        assert_eq!(z.probability(0), 0.0);
        assert_eq!(z.probability(101), 0.0);
        let mut r = rng(11);
        let mut ones = 0usize;
        let mut total = 0usize;
        for _ in 0..50_000 {
            let s = z.sample(&mut r);
            assert!((1..=100).contains(&s));
            if s == 1 {
                ones += 1;
            }
            total += 1;
        }
        let expect = z.probability(1);
        assert!((ones as f64 / total as f64 - expect).abs() < 0.01);
    }

    #[test]
    fn geometric_mean_and_pmf_match() {
        let g = Geometric::new(0.02);
        assert!((g.mean() - 50.0).abs() < 1e-12);
        // PMF sums to ~1 over a long prefix.
        let head: f64 = (1..=2000).map(|s| g.pmf(s)).sum();
        assert!((head - 1.0).abs() < 1e-9, "{head}");
        let mut r = rng(12);
        let mean = (0..200_000).map(|_| g.sample(&mut r) as f64).sum::<f64>() / 200_000.0;
        assert!((mean - 50.0).abs() < 1.0, "{mean}");
        // p = 1 is the degenerate point mass at 1.
        assert_eq!(Geometric::new(1.0).sample(&mut r), 1);
    }

    #[test]
    #[should_panic(expected = "zipf exponent")]
    fn bad_zipf_panics() {
        let _ = Zipf::new(10, 0.0);
    }

    #[test]
    #[should_panic(expected = "geometric p")]
    fn bad_geometric_panics() {
        let _ = Geometric::new(0.0);
    }
}
