//! The χ² distribution: CDF, survival function and quantile.
//!
//! The paper's §5.2 reads a sample's significance level from the χ²
//! distribution with `bins − 1` degrees of freedom. The Pearson
//! statistic itself is computed by `sampling::disparity`, which calls
//! [`chi2_sf`] for the p-value; the §6 1-in-50 decision is
//! `DisparityReport::rejects_at`.

use crate::special::{gamma_p, gamma_q};

/// χ² cumulative distribution function with `df` degrees of freedom.
///
/// # Panics
/// Panics if `df` is zero or `x` is negative.
#[must_use]
pub fn chi2_cdf(df: u32, x: f64) -> f64 {
    assert!(df > 0, "chi-square requires df >= 1");
    assert!(x >= 0.0, "chi-square statistic cannot be negative");
    gamma_p(f64::from(df) / 2.0, x / 2.0)
}

/// χ² survival function (upper tail): the p-value of a χ² statistic.
///
/// # Panics
/// Panics if `df` is zero or `x` is negative.
#[must_use]
pub fn chi2_sf(df: u32, x: f64) -> f64 {
    assert!(df > 0, "chi-square requires df >= 1");
    assert!(x >= 0.0, "chi-square statistic cannot be negative");
    let _span = obskit::span("statkit_chi2_sf");
    gamma_q(f64::from(df) / 2.0, x / 2.0)
}

/// χ² quantile (inverse CDF) by bisection; accurate to ~1e-10.
///
/// # Panics
/// Panics unless `0 < p < 1` and `df >= 1`.
#[must_use]
pub fn chi2_quantile(df: u32, p: f64) -> f64 {
    assert!(df > 0, "chi-square requires df >= 1");
    assert!(p > 0.0 && p < 1.0, "quantile requires 0 < p < 1");
    let mut lo = 0.0;
    let mut hi = f64::from(df).max(1.0);
    while chi2_cdf(df, hi) < p {
        hi *= 2.0;
        assert!(hi.is_finite(), "chi2_quantile bracket failed");
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if chi2_cdf(df, mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * hi.max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn cdf_reference_values() {
        // chi2 with 2 df is Exp(1/2): CDF(x) = 1 - exp(-x/2).
        for x in [0.5, 1.0, 2.0, 5.0] {
            close(chi2_cdf(2, x), 1.0 - (-x / 2.0).exp(), 1e-12);
        }
        // Known upper critical value: P(chi2_1 > 3.841) ~ 0.05.
        close(chi2_sf(1, 3.841_458_820_694_124), 0.05, 1e-9);
        // P(chi2_4 > 9.487729) ~ 0.05 (df for the 5 interarrival bins).
        close(chi2_sf(4, 9.487_729_036_781_154), 0.05, 1e-9);
        // P(chi2_2 > 5.991465) ~ 0.05 (df for the 3 packet-size bins).
        close(chi2_sf(2, 5.991_464_547_107_979), 0.05, 1e-9);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for df in [1u32, 2, 4, 10, 49] {
            for p in [0.01, 0.05, 0.5, 0.95, 0.99] {
                let x = chi2_quantile(df, p);
                close(chi2_cdf(df, x), p, 1e-9);
            }
        }
    }
}
