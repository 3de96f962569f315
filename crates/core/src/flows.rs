//! Flow-inversion experiments: score the `statkit::inversion`
//! estimators with φ against the true parent flow-size distribution.
//!
//! This module is the bridge between three substrates: the flow-carrying
//! packet model ([`nettrace::FlowTable`] aggregates sampled packets into
//! sampled flow sizes), the inversion estimators
//! ([`statkit::inversion`] turns sampled sizes into a parent-size
//! estimate), and the paper's φ disparity machinery
//! ([`crate::metrics::disparity`] scores binned distributions). A
//! [`FlowExperiment`] fixes a flow-carrying packet window, precomputes
//! the *true* flow-size histogram from the full population, and then
//! scores estimator runs over deterministic 1-in-k systematic samples —
//! replication `r` uses starting offset `r mod k`, exactly like the
//! packet-level experiments cap systematic replications at `k`.
//!
//! Estimates carry fractional flow weights; the φ machinery bins integer
//! counts. [`estimate_histogram`] reconciles the two by scaling every
//! weight by a common factor before rounding — a uniform scale changes
//! no proportion, and φ (like every [`DisparityReport`] shape metric) is
//! invariant to it.

use crate::metrics::{disparity, DisparityReport};
use nettrace::{BinSpec, FlowTable, Histogram, PacketRecord};
use parkit::Pool;
use statkit::inversion::{em_invert, naive_scaling, syn_flow_count, tail_rescale};
use statkit::{FlowEstimate, InversionError};

/// Fixed-point scale applied to fractional flow weights before binning.
/// Uniform across all bins, so binned *proportions* — and therefore φ —
/// are unaffected; 1024 keeps three decimal digits of weight resolution.
const WEIGHT_SCALE: f64 = 1024.0;

/// Power-of-two flow-size bins: `[0,2) [2,4) … [4096,∞)` packets — the
/// standard presentation for heavy-tailed flow-size distributions, and
/// wide enough at the tail that the EM grid's discretization does not
/// split hairs with bin edges.
#[must_use]
pub fn flow_size_bins() -> BinSpec {
    BinSpec::Edges(vec![2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096])
}

/// The flow-size inversion estimators under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowEstimator {
    /// `j → j·k`, detected flows only ([`naive_scaling`]).
    Naive,
    /// `j → j·k` up-weighted by `1/p_d` ([`tail_rescale`]).
    TailRescale,
    /// Zero-truncated Poisson-mixture EM ([`em_invert`]).
    Em,
}

impl FlowEstimator {
    /// All estimators, baseline first.
    #[must_use]
    pub fn all() -> [FlowEstimator; 3] {
        [
            FlowEstimator::Naive,
            FlowEstimator::TailRescale,
            FlowEstimator::Em,
        ]
    }

    /// Short display name (perf cells, CLI output, figure legends).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FlowEstimator::Naive => "naive",
            FlowEstimator::TailRescale => "tail",
            FlowEstimator::Em => "em",
        }
    }

    /// Run this estimator on sampled flow sizes.
    ///
    /// # Errors
    /// Propagates the estimator's [`InversionError`] on degenerate
    /// input (`k == 0`, empty, zero size, overflow, non-finite weight).
    pub fn estimate(&self, sampled: &[u64], k: u64) -> Result<FlowEstimate, InversionError> {
        match self {
            FlowEstimator::Naive => naive_scaling(sampled, k),
            FlowEstimator::TailRescale => tail_rescale(sampled, k),
            FlowEstimator::Em => em_invert(sampled, k),
        }
    }
}

impl std::fmt::Display for FlowEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Bin a weighted parent-size estimate under `spec`, scaling fractional
/// weights by a uniform fixed-point factor (see module docs — φ is
/// scale-invariant, so the factor never changes a score).
#[must_use]
pub fn estimate_histogram(estimate: &FlowEstimate, spec: &BinSpec) -> Histogram {
    let mut h = Histogram::new(spec.clone());
    for &(s, w) in &estimate.points {
        h.observe_weighted(s, (w * WEIGHT_SCALE).round() as u64);
    }
    h
}

/// One scored inversion replication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowReplication {
    /// Replication index (systematic offset `replication mod k`).
    pub replication: u64,
    /// Flows detected in the sampled stream.
    pub sampled_flows: u64,
    /// Packets selected by the sampler.
    pub sampled_packets: u64,
    /// Estimated total parent flows from the size estimator.
    pub estimated_flows: f64,
    /// SYN-based parent flow count (`sampled SYNs · k`).
    pub syn_estimate: f64,
    /// φ suite of the binned estimate against the true flow histogram.
    pub report: DisparityReport,
}

/// All replications of one `(estimator, k)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowExperimentResult {
    /// The estimator that was run.
    pub estimator: FlowEstimator,
    /// Deterministic sampling interval.
    pub k: u64,
    /// Scored replications, in replication order.
    pub replications: Vec<FlowReplication>,
    /// Replications with no scorable estimate (empty sample, inversion
    /// error, or all-zero binned weight).
    pub unscored: u32,
}

impl FlowExperimentResult {
    /// φ of each scored replication.
    #[must_use]
    pub fn phi_values(&self) -> Vec<f64> {
        self.replications.iter().map(|r| r.report.phi).collect()
    }

    /// Mean φ across scored replications; `None` if none scored.
    #[must_use]
    pub fn mean_phi(&self) -> Option<f64> {
        if self.replications.is_empty() {
            return None;
        }
        Some(self.phi_values().iter().sum::<f64>() / self.replications.len() as f64)
    }

    /// Mean estimated parent flow count across scored replications.
    #[must_use]
    pub fn mean_estimated_flows(&self) -> Option<f64> {
        if self.replications.is_empty() {
            return None;
        }
        Some(
            self.replications
                .iter()
                .map(|r| r.estimated_flows)
                .sum::<f64>()
                / self.replications.len() as f64,
        )
    }

    /// Mean SYN-based parent flow count across scored replications.
    #[must_use]
    pub fn mean_syn_estimate(&self) -> Option<f64> {
        if self.replications.is_empty() {
            return None;
        }
        Some(
            self.replications
                .iter()
                .map(|r| r.syn_estimate)
                .sum::<f64>()
                / self.replications.len() as f64,
        )
    }
}

/// A fixed flow-carrying packet window with its precomputed truth,
/// ready to score inversion estimators.
#[derive(Debug, Clone)]
pub struct FlowExperiment<'a> {
    packets: &'a [PacketRecord],
    spec: BinSpec,
    truth: FlowTable,
    truth_hist: Histogram,
}

impl<'a> FlowExperiment<'a> {
    /// Set up over a packet window with the standard power-of-two bins.
    ///
    /// # Panics
    /// Panics if the window is empty.
    #[must_use]
    pub fn new(packets: &'a [PacketRecord]) -> Self {
        Self::with_bins(packets, flow_size_bins())
    }

    /// Set up with explicit flow-size bins.
    ///
    /// # Panics
    /// Panics if the window is empty.
    #[must_use]
    pub fn with_bins(packets: &'a [PacketRecord], spec: BinSpec) -> Self {
        assert!(!packets.is_empty(), "flow experiment needs packets");
        let truth = FlowTable::from_packets(packets);
        let truth_hist = truth.size_histogram(&spec);
        FlowExperiment {
            packets,
            spec,
            truth,
            truth_hist,
        }
    }

    /// The true parent flow count.
    #[must_use]
    pub fn true_flows(&self) -> u64 {
        self.truth.len() as u64
    }

    /// The true mean parent flow size, packets.
    #[must_use]
    pub fn true_mean_size(&self) -> f64 {
        self.truth.live_packets() as f64 / self.truth.len() as f64
    }

    /// The precomputed true flow-size histogram.
    #[must_use]
    pub fn truth_histogram(&self) -> &Histogram {
        &self.truth_hist
    }

    /// One replication: take the systematic 1-in-k sample at offset
    /// `rep mod k`, aggregate it into sampled flows, invert, bin, score.
    /// Pure in its arguments plus precomputed state.
    fn replicate(&self, estimator: FlowEstimator, k: u64, rep: u64) -> Option<FlowReplication> {
        let offset = (rep % k) as usize;
        let mut table = FlowTable::unbounded();
        let mut sampled_packets = 0u64;
        for p in self.packets.iter().skip(offset).step_by(k as usize) {
            table.offer(p);
            sampled_packets += 1;
        }
        let sizes = table.sizes();
        let estimate = estimator.estimate(&sizes, k).ok()?;
        let syn_estimate = syn_flow_count(table.syn_flows(), k).ok()?;
        let sample = estimate_histogram(&estimate, &self.spec);
        disparity(&self.truth_hist, &sample).map(|report| FlowReplication {
            replication: rep,
            sampled_flows: sizes.len() as u64,
            sampled_packets,
            estimated_flows: estimate.total_flows,
            syn_estimate,
            report,
        })
    }

    /// Score one estimator at interval `k` over `replications` runs
    /// (capped at `k` — systematic offsets repeat past that) on the
    /// session-default pool.
    ///
    /// # Panics
    /// Panics if `k == 0` or a worker panicked.
    pub fn run(&self, estimator: FlowEstimator, k: u64, replications: u32) -> FlowExperimentResult {
        self.run_with(&Pool::with_default_jobs(), estimator, k, replications)
    }

    /// [`FlowExperiment::run`] on an explicit pool. Replications are
    /// independent tasks reassembled in order: bit-identical to serial.
    ///
    /// # Panics
    /// Panics if `k == 0` or a worker panicked.
    pub fn run_with(
        &self,
        pool: &Pool,
        estimator: FlowEstimator,
        k: u64,
        replications: u32,
    ) -> FlowExperimentResult {
        self.run_grid_with(pool, &[(estimator, k)], replications)
            .pop()
            .expect("one cell in, one result out")
    }

    /// Score a whole `(estimator, k)` grid on `pool`, flattening every
    /// `(cell, replication)` pair into one task list. Results come back
    /// in `cells` order, each cell's replications in replication order —
    /// bit-identical to running serially.
    ///
    /// # Panics
    /// Panics if any cell has `k == 0` or a worker panicked.
    pub fn run_grid_with(
        &self,
        pool: &Pool,
        cells: &[(FlowEstimator, u64)],
        replications: u32,
    ) -> Vec<FlowExperimentResult> {
        let _grid = obskit::span("flow_experiment_grid");
        assert!(
            cells.iter().all(|&(_, k)| k > 0),
            "sampling interval must be positive"
        );
        let tasks: Vec<(usize, u64)> = cells
            .iter()
            .enumerate()
            .flat_map(|(ci, &(_, k))| (0..u64::from(replications).min(k)).map(move |rep| (ci, rep)))
            .collect();
        let scored = pool
            .run(tasks.len(), |i| {
                let (ci, rep) = tasks[i];
                let (estimator, k) = cells[ci];
                self.replicate(estimator, k, rep)
            })
            .unwrap_or_else(|e| panic!("flow experiment pool failed: {e}"));
        let mut out: Vec<FlowExperimentResult> = cells
            .iter()
            .map(|&(estimator, k)| FlowExperimentResult {
                estimator,
                k,
                replications: Vec::new(),
                unscored: 0,
            })
            .collect();
        for (&(ci, _), r) in tasks.iter().zip(scored) {
            match r {
                Some(rep) => out[ci].replications.push(rep),
                None => out[ci].unscored += 1,
            }
        }
        if obskit::recording_enabled() {
            obskit::counter("flow_experiment_cells_total").add(cells.len() as u64);
            obskit::counter("flow_experiment_replications_total").add(tasks.len() as u64);
            obskit::counter("flow_experiment_unscored_total")
                .add(out.iter().map(|r| u64::from(r.unscored)).sum());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsynth::{generate_flow_pack, FlowPackConfig, FlowSizeDist};

    fn pack() -> nettrace::Trace {
        generate_flow_pack(
            &FlowPackConfig {
                flows: 600,
                size_dist: FlowSizeDist::Geometric { p: 0.02 },
                duration_secs: 20,
                ..FlowPackConfig::default()
            },
            1993,
        )
    }

    #[test]
    fn truth_counts_every_flow() {
        let t = pack();
        let exp = FlowExperiment::new(t.packets());
        assert_eq!(exp.true_flows(), 600);
        assert_eq!(exp.truth_histogram().total(), 600);
        assert!(exp.true_mean_size() > 30.0 && exp.true_mean_size() < 70.0);
    }

    #[test]
    fn estimators_score_and_em_beats_naive() {
        let t = pack();
        let exp = FlowExperiment::new(t.packets());
        let pool = Pool::new(2);
        let results = exp.run_grid_with(
            &pool,
            &[
                (FlowEstimator::Naive, 10),
                (FlowEstimator::TailRescale, 10),
                (FlowEstimator::Em, 10),
            ],
            5,
        );
        for r in &results {
            assert_eq!(r.replications.len(), 5, "{}", r.estimator);
        }
        let phi = |i: usize| results[i].mean_phi().unwrap();
        assert!(
            phi(2) <= phi(0),
            "EM φ {} should not exceed naive φ {}",
            phi(2),
            phi(0)
        );
    }

    #[test]
    fn replications_are_distinct_offsets_and_capped() {
        let t = pack();
        let exp = FlowExperiment::new(t.packets());
        let r = exp.run(FlowEstimator::Naive, 3, 50);
        assert_eq!(r.replications.len(), 3); // capped at k
        let phis = r.phi_values();
        assert!(
            phis.windows(2).any(|w| w[0] != w[1]) || phis.len() == 1,
            "offsets should differ: {phis:?}"
        );
    }

    #[test]
    fn grid_is_deterministic_across_pool_widths() {
        let t = pack();
        let exp = FlowExperiment::new(t.packets());
        let cells = [(FlowEstimator::Em, 10), (FlowEstimator::Naive, 50)];
        let serial = exp.run_grid_with(&Pool::new(1), &cells, 3);
        let wide = exp.run_grid_with(&Pool::new(4), &cells, 3);
        assert_eq!(serial, wide);
    }

    #[test]
    fn syn_estimate_tracks_true_flow_count() {
        let t = pack();
        let exp = FlowExperiment::new(t.packets());
        let r = exp.run(FlowEstimator::Naive, 10, 10);
        let syn = r.mean_syn_estimate().unwrap();
        let truth = exp.true_flows() as f64;
        assert!(
            (syn - truth).abs() / truth < 0.35,
            "syn estimate {syn} vs {truth}"
        );
    }

    #[test]
    fn estimate_histogram_preserves_proportions() {
        let est = FlowEstimate {
            points: vec![(1, 1.0), (100, 3.0)],
            total_flows: 4.0,
        };
        let h = estimate_histogram(&est, &flow_size_bins());
        let p = h.proportions();
        assert!((p[0] - 0.25).abs() < 1e-9, "{p:?}");
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_k_panics() {
        let t = pack();
        let exp = FlowExperiment::new(t.packets());
        let _ = exp.run(FlowEstimator::Naive, 0, 1);
    }
}
