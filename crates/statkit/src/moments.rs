//! Streaming central moments: mean, variance, skewness, kurtosis.
//!
//! One numerically stable pass (Welford/Pébay updates) produces every
//! moment the paper's Table 2 reports — mean, standard deviation,
//! skewness, and (plain, non-excess) kurtosis. Accumulators can be merged,
//! which the per-window experiment runner uses to combine partial scans.

/// Accumulator of the first four central moments.
///
/// ```
/// use statkit::Moments;
/// let m = Moments::from_values([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert_eq!(m.mean(), 5.0);
/// assert!((m.std_dev() - 2.0).abs() < 1e-12); // population convention
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Moments {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            m4: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Accumulate from an iterator.
    #[must_use]
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut m = Moments::new();
        for v in values {
            m.push(v);
        }
        m
    }

    /// Add one observation (Pébay's single-pass update).
    pub fn push(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merge another accumulator into this one (Chan/Pébay pairwise
    /// combination). The result is identical (up to rounding) to having
    /// pushed all observations into one accumulator.
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let na = self.n as f64;
        let nb = other.n as f64;
        let n = na + nb;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let delta3 = delta2 * delta;
        let delta4 = delta2 * delta2;

        let m4 = self.m4
            + other.m4
            + delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * delta2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;
        let m3 = self.m3
            + other.m3
            + delta3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m2 = self.m2 + other.m2 + delta2 * na * nb / n;
        let mean = self.mean + delta * nb / n;

        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; NaN when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Minimum observation; NaN when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum observation; NaN when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Population variance (divides by n); NaN when empty.
    ///
    /// The paper treats its one-hour trace as the *complete parent
    /// population* (§4) and uses population parameters directly, so
    /// this is the only variance here.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Skewness `g1 = sqrt(n)·m3 / m2^(3/2)`; NaN when undefined
    /// (fewer than 2 points or zero variance).
    #[must_use]
    pub fn skewness(&self) -> f64 {
        if self.n < 2 || self.m2 <= 0.0 {
            return f64::NAN;
        }
        (self.n as f64).sqrt() * self.m3 / self.m2.powf(1.5)
    }

    /// Plain (non-excess) kurtosis `b2 = n·m4 / m2²`; 3 for a normal
    /// population. The paper's Table 2 reports this convention
    /// (packet-rate kurtosis 4.95, i.e. heavier-tailed than normal).
    #[must_use]
    pub fn kurtosis(&self) -> f64 {
        if self.n < 2 || self.m2 <= 0.0 {
            return f64::NAN;
        }
        self.n as f64 * self.m4 / (self.m2 * self.m2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn empty_accumulator_is_nan() {
        let m = Moments::new();
        assert_eq!(m.count(), 0);
        assert!(m.mean().is_nan());
        assert!(m.variance().is_nan());
        assert!(m.min().is_nan());
        assert!(m.skewness().is_nan());
    }

    #[test]
    fn single_value() {
        let m = Moments::from_values([5.0]);
        assert_eq!(m.count(), 1);
        close(m.mean(), 5.0, 1e-15);
        close(m.variance(), 0.0, 1e-15);
        assert_eq!(m.min(), 5.0);
        assert_eq!(m.max(), 5.0);
    }

    #[test]
    fn known_small_set() {
        // 2, 4, 4, 4, 5, 5, 7, 9: classic example with pop std = 2.
        let m = Moments::from_values([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        close(m.mean(), 5.0, 1e-12);
        close(m.variance(), 4.0, 1e-12);
        close(m.std_dev(), 2.0, 1e-12);
    }

    #[test]
    fn symmetric_data_has_zero_skew() {
        let m = Moments::from_values([-2.0, -1.0, 0.0, 1.0, 2.0]);
        close(m.skewness(), 0.0, 1e-12);
    }

    #[test]
    fn uniform_kurtosis() {
        // Discrete uniform on many points approaches kurtosis 1.8.
        let vals: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let m = Moments::from_values(vals);
        close(m.kurtosis(), 1.8, 1e-3);
    }

    #[test]
    fn constant_data_has_nan_shape_stats() {
        let m = Moments::from_values([3.0; 10]);
        close(m.variance(), 0.0, 1e-12);
        assert!(m.skewness().is_nan());
        assert!(m.kurtosis().is_nan());
    }

    #[test]
    fn right_skewed_data_positive_skew() {
        let m = Moments::from_values([1.0, 1.0, 1.0, 1.0, 10.0]);
        assert!(m.skewness() > 1.0);
    }

    #[test]
    fn merge_equals_single_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        let whole = Moments::from_values(xs.iter().copied());
        let mut a = Moments::from_values(xs[..300].iter().copied());
        let b = Moments::from_values(xs[300..].iter().copied());
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        close(a.mean(), whole.mean(), 1e-9);
        close(a.variance(), whole.variance(), 1e-9);
        close(a.skewness(), whole.skewness(), 1e-9);
        close(a.kurtosis(), whole.kurtosis(), 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Moments::from_values([1.0, 2.0, 3.0]);
        let before = a;
        a.merge(&Moments::new());
        assert_eq!(a, before);
        let mut e = Moments::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn numerical_stability_large_offset() {
        // Same spread around a huge mean: naive sum-of-squares would
        // catastrophically cancel.
        let m = Moments::from_values([1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0]);
        close(m.mean(), 1e9 + 10.0, 1e-3);
        close(m.variance(), 22.5, 1e-3);
    }
}
