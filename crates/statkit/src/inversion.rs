//! Flow-statistics inversion: recover the **parent** flow-size
//! distribution from flows observed through deterministic 1-in-k packet
//! sampling.
//!
//! The sampling model is the classical Poisson-thinning approximation
//! for interleaved flows (Chabchoub et al., "Inference of Flow
//! Statistics via Packet Sampling"; Clegg et al., "Towards Informative
//! Statistical Flow Inversion"): a parent flow of `s` packets
//! contributes `J ~ Poisson(s/k)` sampled packets, and is *detected*
//! (seen at all) with probability `p_d(s) = 1 − e^(−s/k)`. Every
//! estimator here consumes the sampled flow sizes (packets per flow
//! *after* sampling, each ≥ 1) plus the interval `k`, and returns a
//! weighted parent-size estimate:
//!
//! * [`naive_scaling`] — each sampled flow of `j` packets becomes one
//!   parent flow of `j·k` packets. Ignores missed flows entirely; the
//!   baseline every other estimator must beat.
//! * [`tail_rescale`] — same `j·k` support, but each flow is
//!   up-weighted by `1/p_d(j·k)` to repair the detection bias, so the
//!   estimated *totals* (and the small-size end of the shape) recover
//!   the flows sampling missed.
//! * [`syn_flow_count`] — SYN-marked packets appear once per flow, so
//!   `syn_sampled · k` estimates the parent flow **count** without any
//!   size model at all.
//! * [`em_invert`] — zero-truncated Poisson-mixture EM over a parent
//!   -size grid: iteratively reallocates each observed `j` across the
//!   parent sizes that could have produced it, then divides out
//!   `p_d(s)`. The only estimator able to place mass *below* `k`.
//!
//! All estimators are pure functions of their arguments (fixed
//! iteration counts, no RNG), so equal inputs give bit-identical
//! estimates — the property the CI determinism stage byte-diffs.

use crate::special::ln_gamma;
use std::collections::BTreeMap;
use std::fmt;

/// Why an inversion could not run. Every degenerate input maps to a
/// typed error — the estimators never panic (the state-fuzz arm pins
/// this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InversionError {
    /// `k == 0`: not a sampling process.
    ZeroInterval,
    /// No sampled flows to invert.
    Empty,
    /// A sampled flow with zero packets — an aggregation bug upstream;
    /// a flow that was never sampled must not appear at all.
    ZeroSize,
    /// `j · k` overflowed `u64`; the named sampled size is the culprit.
    SizeOverflow {
        /// The sampled flow size whose rescaling overflowed.
        size: u64,
    },
    /// An internal weight computation left the finite range.
    NonFinite,
}

impl fmt::Display for InversionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InversionError::ZeroInterval => write!(f, "sampling interval k must be positive"),
            InversionError::Empty => write!(f, "no sampled flows to invert"),
            InversionError::ZeroSize => write!(f, "sampled flow with zero packets"),
            InversionError::SizeOverflow { size } => {
                write!(f, "sampled size {size} times k overflows u64")
            }
            InversionError::NonFinite => write!(f, "inversion produced a non-finite weight"),
        }
    }
}

impl std::error::Error for InversionError {}

/// A weighted estimate of the parent flow-size distribution: support
/// points `(parent_size, estimated_flows)` in increasing size order,
/// plus the estimated total parent flow count.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEstimate {
    /// `(parent flow size in packets, estimated number of such flows)`,
    /// strictly increasing in size, weights positive and finite.
    pub points: Vec<(u64, f64)>,
    /// Estimated total number of parent flows (the sum of the weights).
    pub total_flows: f64,
}

impl FlowEstimate {
    /// Estimated mean parent flow size (packets), `None` when the
    /// estimate carries no mass.
    #[must_use]
    pub fn mean_size(&self) -> Option<f64> {
        if self.total_flows <= 0.0 {
            return None;
        }
        let weighted: f64 = self.points.iter().map(|&(s, w)| s as f64 * w).sum();
        Some(weighted / self.total_flows)
    }
}

/// Shared input validation for the size-based estimators.
fn validate(sampled: &[u64], k: u64) -> Result<(), InversionError> {
    if k == 0 {
        return Err(InversionError::ZeroInterval);
    }
    if sampled.is_empty() {
        return Err(InversionError::Empty);
    }
    for &j in sampled {
        if j == 0 {
            return Err(InversionError::ZeroSize);
        }
        if j.checked_mul(k).is_none() {
            return Err(InversionError::SizeOverflow { size: j });
        }
    }
    Ok(())
}

/// Group sampled sizes into `(j, count)` pairs, ascending in `j`.
fn group(sampled: &[u64]) -> BTreeMap<u64, u64> {
    let mut counts = BTreeMap::new();
    for &j in sampled {
        *counts.entry(j).or_insert(0u64) += 1;
    }
    counts
}

/// Detection probability of a parent flow of `s` packets under 1-in-k
/// Poisson thinning: `1 − e^(−s/k)`.
#[must_use]
pub fn detection_probability(s: u64, k: u64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    -(-(s as f64) / k as f64).exp_m1()
}

/// Naive scaling: each sampled flow of `j` packets is reported as one
/// parent flow of `j·k` packets. `total_flows` is exactly the detected
/// flow count — everything sampling missed stays missing.
///
/// # Errors
/// [`InversionError`] on `k == 0`, empty input, a zero sampled size, or
/// `j·k` overflow.
pub fn naive_scaling(sampled: &[u64], k: u64) -> Result<FlowEstimate, InversionError> {
    validate(sampled, k)?;
    let points: Vec<(u64, f64)> = group(sampled)
        .into_iter()
        .map(|(j, c)| (j * k, c as f64))
        .collect();
    Ok(FlowEstimate {
        total_flows: sampled.len() as f64,
        points,
    })
}

/// Tail rescaling (Chabchoub): like [`naive_scaling`], but each
/// detected flow is weighted by `1 / p_d(j·k)` so the flows that
/// sampling missed are restored to the estimate — mostly at the small
/// -size end, where detection is rare.
///
/// # Errors
/// [`InversionError`] on `k == 0`, empty input, a zero sampled size,
/// `j·k` overflow, or a non-finite weight.
pub fn tail_rescale(sampled: &[u64], k: u64) -> Result<FlowEstimate, InversionError> {
    validate(sampled, k)?;
    let mut points = Vec::new();
    let mut total = 0.0f64;
    for (j, c) in group(sampled) {
        let s = j * k;
        let p = detection_probability(s, k);
        let w = c as f64 / p;
        if !w.is_finite() {
            return Err(InversionError::NonFinite);
        }
        total += w;
        points.push((s, w));
    }
    if !total.is_finite() {
        return Err(InversionError::NonFinite);
    }
    Ok(FlowEstimate {
        points,
        total_flows: total,
    })
}

/// SYN-based flow counting: SYN-marked packets occur exactly once per
/// flow, so under 1-in-k sampling the parent flow count is estimated as
/// `sampled_syn_packets · k`. No size model, no shape — just the count.
///
/// # Errors
/// [`InversionError::ZeroInterval`] on `k == 0`.
pub fn syn_flow_count(sampled_syn_packets: u64, k: u64) -> Result<f64, InversionError> {
    if k == 0 {
        return Err(InversionError::ZeroInterval);
    }
    Ok(sampled_syn_packets as f64 * k as f64)
}

/// Tuning for [`em_invert`]; [`EmConfig::default`] matches what the
/// experiment grid and perf cells run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmConfig {
    /// Maximum number of parent-size grid points.
    pub grid_points: usize,
    /// Fixed EM iteration count (no data-dependent stopping, so equal
    /// inputs give bit-identical output).
    pub iterations: usize,
    /// Smooth θ with a `[¼, ½, ¼]` kernel after each M-step (EMS,
    /// Silverman et al.). The unsmoothed mixture NPMLE is ill-posed: it
    /// degenerates to a few spikes — in particular a spike at the
    /// smallest parent size, which the `1/p_d` inversion then amplifies
    /// into a wildly wrong small-flow count. Smoothing regularizes
    /// toward the smooth parent distributions real traffic has.
    pub smooth: bool,
}

impl Default for EmConfig {
    fn default() -> Self {
        EmConfig {
            grid_points: 192,
            iterations: 60,
            smooth: true,
        }
    }
}

/// EM/scaling inversion (Clegg): fit a zero-truncated Poisson mixture
/// over a parent-size grid to the observed sampled sizes, then divide
/// out the detection probability per grid point. Runs
/// [`EmConfig::default`]'s fixed iteration budget.
///
/// # Errors
/// [`InversionError`] on `k == 0`, empty input, a zero sampled size,
/// `j·k` overflow, or non-finite weights.
pub fn em_invert(sampled: &[u64], k: u64) -> Result<FlowEstimate, InversionError> {
    em_invert_with(sampled, k, EmConfig::default())
}

/// [`em_invert`] with explicit tuning.
///
/// # Errors
/// As [`em_invert`].
pub fn em_invert_with(
    sampled: &[u64],
    k: u64,
    cfg: EmConfig,
) -> Result<FlowEstimate, InversionError> {
    validate(sampled, k)?;
    let cfg = EmConfig {
        grid_points: cfg.grid_points.max(2),
        iterations: cfg.iterations.max(1),
        ..cfg
    };
    let counts = group(sampled);
    let n = sampled.len() as f64;
    let j_max = *counts.keys().next_back().expect("nonempty after validate");

    // Parent-size grid: 1 … ~1.5·j_max·k in `grid_points` uniform steps.
    // j_max·k cannot overflow (validated); the 1.5 headroom is saturating.
    let s_max = (j_max * k).saturating_add((j_max * k) / 2).max(2);
    let step = s_max.div_ceil(cfg.grid_points as u64).max(1);
    // Clamp every product into [1, s_max]: with j_max near u64::MAX
    // (k == 1 passes validation) the later products saturate, and the
    // old `take_while` predicate both admitted points past s_max and
    // cut the grid short at the first saturated product. Clamping and
    // deduping the collapsed tail keeps the grid strictly increasing
    // and never past the ceiling.
    let mut grid: Vec<u64> = (1..=cfg.grid_points as u64)
        .map(|i| i.saturating_mul(step).min(s_max))
        .collect();
    grid.dedup();
    let m = grid.len();

    // Per-grid-point constants: λ_s = s/k, log p_d, and the
    // zero-truncated log-pmf offset.
    let lambdas: Vec<f64> = grid.iter().map(|&s| s as f64 / k as f64).collect();
    let ln_pd: Vec<f64> = lambdas.iter().map(|&l| (-(-l).exp_m1()).ln()).collect();

    // log P(J = j | parent λ, detected) = j·lnλ − λ − lnΓ(j+1) − ln p_d.
    let distinct: Vec<(u64, f64)> = counts.iter().map(|(&j, &c)| (j, c as f64)).collect();
    let mut ln_q = vec![0.0f64; distinct.len() * m];
    for (ji, &(j, _)) in distinct.iter().enumerate() {
        let jf = j as f64;
        let ln_fact = ln_gamma(jf + 1.0);
        for (si, &l) in lambdas.iter().enumerate() {
            ln_q[ji * m + si] = jf * l.ln() - l - ln_fact - ln_pd[si];
        }
    }

    // EM on the mixture weights θ over detected flows.
    let mut theta = vec![1.0 / m as f64; m];
    let mut ln_theta = vec![0.0f64; m];
    let mut next = vec![0.0f64; m];
    let mut resp = vec![0.0f64; m];
    for _ in 0..cfg.iterations {
        // θ moves once per iteration: take its logs here, once, for
        // every distinct size's E-step row.
        for (lt, &t) in ln_theta.iter_mut().zip(&theta) {
            *lt = t.ln();
        }
        next.iter_mut().for_each(|x| *x = 0.0);
        for (ji, &(_, c)) in distinct.iter().enumerate() {
            let row = &ln_q[ji * m..(ji + 1) * m];
            let mut best = f64::NEG_INFINITY;
            for si in 0..m {
                let v = if theta[si] > 0.0 {
                    ln_theta[si] + row[si]
                } else {
                    f64::NEG_INFINITY
                };
                resp[si] = v;
                if v > best {
                    best = v;
                }
            }
            if !best.is_finite() {
                // Every component assigns this j probability zero
                // (deep underflow); spread it uniformly.
                resp.iter_mut().for_each(|x| *x = 1.0 / m as f64);
            } else {
                let mut z = 0.0;
                for r in resp.iter_mut().take(m) {
                    *r = (*r - best).exp();
                    z += *r;
                }
                resp.iter_mut().for_each(|x| *x /= z);
            }
            for si in 0..m {
                next[si] += c * resp[si];
            }
        }
        for si in 0..m {
            theta[si] = next[si] / n;
        }
        if cfg.smooth && m >= 2 {
            // Mass-preserving [¼, ½, ¼] scatter; the boundary share that
            // would fall off the grid stays on its source point.
            next.iter_mut().for_each(|x| *x = 0.0);
            for si in 0..m {
                let w = theta[si];
                let (left, right) = (0.25 * w, 0.25 * w);
                next[si] += 0.5 * w;
                if si > 0 {
                    next[si - 1] += left;
                } else {
                    next[si] += left;
                }
                if si + 1 < m {
                    next[si + 1] += right;
                } else {
                    next[si] += right;
                }
            }
            theta.copy_from_slice(&next);
        }
    }

    // Divide out detection probability to recover the parent counts.
    let mut points = Vec::with_capacity(m);
    let mut total = 0.0f64;
    for si in 0..m {
        let pd = detection_probability(grid[si], k);
        let w = n * theta[si] / pd;
        if !w.is_finite() {
            return Err(InversionError::NonFinite);
        }
        if w > 1e-9 {
            points.push((grid[si], w));
            total += w;
        }
    }
    if !total.is_finite() || total <= 0.0 {
        return Err(InversionError::NonFinite);
    }
    Ok(FlowEstimate {
        points,
        total_flows: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_scales_sizes_by_k() {
        let est = naive_scaling(&[1, 1, 2, 5], 50).unwrap();
        assert_eq!(est.points, vec![(50, 2.0), (100, 1.0), (250, 1.0)]);
        assert_eq!(est.total_flows, 4.0);
        assert!((est.mean_size().unwrap() - 112.5).abs() < 1e-12);
    }

    #[test]
    fn tail_rescale_upweights_small_flows() {
        let est = tail_rescale(&[1, 1, 2, 5], 50).unwrap();
        // Every weight exceeds its naive counterpart (p_d < 1)…
        assert!(est.total_flows > 4.0);
        // …and the smallest size gets the largest correction.
        let w_small = est.points[0].1 / 2.0; // per-flow weight at s = 50
        let w_large = est.points[2].1;
        assert!(w_small > w_large);
    }

    #[test]
    fn syn_count_scales_by_k() {
        assert_eq!(syn_flow_count(12, 50).unwrap(), 600.0);
        assert_eq!(syn_flow_count(0, 50).unwrap(), 0.0);
        assert_eq!(syn_flow_count(5, 0), Err(InversionError::ZeroInterval));
    }

    #[test]
    fn typed_errors_on_degenerate_inputs() {
        for f in [naive_scaling, tail_rescale, em_invert] {
            assert_eq!(f(&[1, 2], 0), Err(InversionError::ZeroInterval));
            assert_eq!(f(&[], 10), Err(InversionError::Empty));
            assert_eq!(f(&[3, 0], 10), Err(InversionError::ZeroSize));
            assert_eq!(
                f(&[u64::MAX / 2], 10),
                Err(InversionError::SizeOverflow { size: u64::MAX / 2 })
            );
        }
    }

    /// Regression: the grid builder's old `take_while` predicate could
    /// admit points past `s_max` and cut the grid at the first
    /// saturated product. At `k == 1` with a sampled size near
    /// `u64::MAX` (which passes overflow validation), later grid
    /// products saturate; the estimate must still come back with
    /// strictly increasing support bounded by the grid ceiling.
    #[test]
    fn em_grid_survives_saturating_sizes_at_k_one() {
        let j_max = u64::MAX;
        let est = em_invert(&[1, 5, j_max], 1).unwrap();
        // s_max = saturating 1.5 · j_max · k.
        let s_max = j_max.saturating_add(j_max / 2);
        assert!(!est.points.is_empty());
        for pair in est.points.windows(2) {
            assert!(pair[0].0 < pair[1].0, "grid support must strictly increase");
        }
        for &(s, w) in &est.points {
            assert!(
                (1..=s_max).contains(&s),
                "support point {s} outside [1, s_max]"
            );
            assert!(w.is_finite() && w > 0.0);
        }
        assert!(est.total_flows.is_finite() && est.total_flows > 0.0);
    }

    #[test]
    fn single_flow_inputs_invert_cleanly() {
        for f in [naive_scaling, tail_rescale, em_invert] {
            let est = f(&[3], 10).unwrap();
            assert!(est.total_flows >= 1.0);
            assert!(est.points.iter().all(|&(s, w)| s > 0 && w.is_finite()));
        }
        // Extreme but representable sampled size: must not panic.
        let est = em_invert(&[u64::from(u32::MAX)], 100).unwrap();
        assert!(est.total_flows.is_finite());
    }

    #[test]
    fn em_places_mass_below_k() {
        // Many 1-packet sampled flows: the parent population must
        // contain flows smaller than k, which naive scaling cannot
        // represent but EM can.
        let sampled: Vec<u64> = std::iter::repeat_n(1, 400).chain([2, 2, 3]).collect();
        let k = 50;
        let em = em_invert(&sampled, k).unwrap();
        let below: f64 = em
            .points
            .iter()
            .filter(|&&(s, _)| s < k)
            .map(|&(_, w)| w)
            .sum();
        assert!(below > 0.0, "EM should place mass below k, got {em:?}");
        let naive = naive_scaling(&sampled, k).unwrap();
        assert!(naive.points.iter().all(|&(s, _)| s >= k));
    }

    #[test]
    fn estimates_are_deterministic() {
        let sampled: Vec<u64> = (1..=40).flat_map(|j| std::iter::repeat_n(j, 5)).collect();
        let a = em_invert(&sampled, 10).unwrap();
        let b = em_invert(&sampled, 10).unwrap();
        assert_eq!(a, b);
        for (&(sa, wa), &(sb, wb)) in a.points.iter().zip(&b.points) {
            assert_eq!(sa, sb);
            assert_eq!(wa.to_bits(), wb.to_bits());
        }
    }

    /// `em_invert`'s output bits on two fixed sampled-size vectors of a
    /// few hundred distinct sizes each: `(vector, k, total_flows bits,
    /// FNV-1a digest of every point's size and weight bits)`, recorded
    /// when the test was written. A change here means EM rounds
    /// differently.
    const EM_GOLDEN: [(&str, u64, u64, u64); 4] = [
        ("decaying", 10, 0x40cb_b82c_cab3_c9a3, 0x6544_86be_f91a_31a1),
        (
            "decaying",
            100,
            0x40cb_ba18_bd54_089c,
            0x2f75_7d46_4e2a_af82,
        ),
        ("spread", 10, 0x40ad_71ff_ffff_fffb, 0x1bc9_eaaf_bfc6_7899),
        ("spread", 100, 0x40ad_71ff_ffff_fff4, 0x465e_1ce8_940b_5216),
    ];

    /// Sizes 1…300, the count of size `j` falling as `1 + 4000/(j+9)`.
    fn decaying_sizes() -> Vec<u64> {
        (1..=300u64)
            .flat_map(|j| std::iter::repeat_n(j, (1 + 4_000 / (j + 9)) as usize))
            .collect()
    }

    /// 250 distinct sizes spread quadratically up to about 9,200, one to
    /// a few hundred flows each.
    fn spread_sizes() -> Vec<u64> {
        (1..=250u64)
            .flat_map(|i| {
                let j = i + i * i / 7;
                std::iter::repeat_n(j, (1 + 30_000 / (j * 7 + 100)) as usize)
            })
            .collect()
    }

    #[test]
    fn em_output_bits_are_pinned() {
        let got: Vec<(&str, u64, u64, u64)> = EM_GOLDEN
            .iter()
            .map(|&(name, k, _, _)| {
                let sampled = match name {
                    "decaying" => decaying_sizes(),
                    _ => spread_sizes(),
                };
                let est = em_invert(&sampled, k).unwrap();
                let digest = est
                    .points
                    .iter()
                    .fold(0xcbf2_9ce4_8422_2325u64, |h, &(s, w)| {
                        [s, w.to_bits()]
                            .iter()
                            .flat_map(|x| x.to_le_bytes())
                            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
                    });
                (name, k, est.total_flows.to_bits(), digest)
            })
            .collect();
        assert_eq!(got, EM_GOLDEN);
    }

    #[test]
    fn detection_probability_is_monotone() {
        let k = 50;
        let mut last = 0.0;
        for s in [1u64, 5, 25, 50, 100, 500, 5_000] {
            let p = detection_probability(s, k);
            assert!(p > last && p <= 1.0, "p_d({s}) = {p}");
            last = p;
        }
        assert!((detection_probability(50, 50) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }
}
