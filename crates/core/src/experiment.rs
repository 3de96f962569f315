//! The replication/sweep experiment framework (paper §6–7).
//!
//! An [`Experiment`] fixes a population window and a characterization
//! target, precomputes the population's binned distribution, and then
//! scores replicated runs of any sampling method against it with the φ
//! metric suite. "We ran five replications for each method to avoid
//! misleading outlying samples" (§7); systematic replications vary the
//! starting offset, randomized replications vary the seed.
//!
//! The free functions [`granularity_sweep`] and [`interval_sweep`]
//! produce the two figure families of the paper: φ versus sampling
//! fraction (Figures 6–9) and φ versus interval length (Figures 10–11).
//!
//! ## Parallel execution
//!
//! Every replication is a pure function of `(method, replication index,
//! base seed)` against the precomputed population histogram, so cells
//! are embarrassingly parallel. The `_with` variants ([`Experiment::run_with`],
//! [`Experiment::run_grid_with`], [`granularity_sweep_with`],
//! [`interval_sweep_with`]) take a [`parkit::Pool`] and fan the
//! flattened (cell × replication) task list across its workers; results
//! land in slot vectors by task index, so **parallel output is
//! bit-identical to serial** regardless of worker count or scheduling.
//! The plain entry points delegate to [`parkit::Pool::with_default_jobs`]
//! (the `--jobs` flag / `NETSAMPLE_JOBS`).

use crate::metrics::{disparity, DisparityReport};
use crate::sampler::{select_indices_ts, MethodSpec};
use crate::targets::Target;
use nettrace::{Histogram, Micros, PacketRecord, Trace};
use parkit::Pool;
use statkit::Boxplot;

/// A family of sampling methods parameterized by granularity, used for
/// sweeps where every method is run at the same sampling fraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodFamily {
    /// Every k-th packet.
    Systematic,
    /// One random pick per k-packet bucket.
    StratifiedRandom,
    /// Uniform n-of-N with n = N/k.
    SimpleRandom,
    /// Timer-driven systematic at the rate-equivalent period.
    SystematicTimer,
    /// Timer-driven stratified at the rate-equivalent period.
    StratifiedTimer,
    /// i.i.d. 1-in-k via geometric skips (extension).
    GeometricSkip,
}

impl MethodFamily {
    /// The paper's five families, in its order of presentation.
    #[must_use]
    pub fn paper_five() -> [MethodFamily; 5] {
        [
            MethodFamily::Systematic,
            MethodFamily::StratifiedRandom,
            MethodFamily::SimpleRandom,
            MethodFamily::SystematicTimer,
            MethodFamily::StratifiedTimer,
        ]
    }

    /// The concrete method at packet granularity `k`, with timer periods
    /// chosen so the *expected* sampling fraction matches (`k / mean_pps`
    /// seconds per selection).
    ///
    /// # Panics
    /// Panics if `k` is zero or `mean_pps` is nonpositive.
    #[must_use]
    pub fn at_granularity(&self, k: usize, mean_pps: f64) -> MethodSpec {
        assert!(k > 0, "granularity must be positive");
        assert!(mean_pps > 0.0, "mean packet rate must be positive");
        let period = Micros(((k as f64 / mean_pps) * 1e6).round().max(1.0) as u64);
        match self {
            MethodFamily::Systematic => MethodSpec::Systematic { interval: k },
            MethodFamily::StratifiedRandom => MethodSpec::StratifiedRandom { bucket: k },
            MethodFamily::SimpleRandom => MethodSpec::SimpleRandom {
                fraction: 1.0 / k as f64,
            },
            MethodFamily::SystematicTimer => MethodSpec::SystematicTimer { period },
            MethodFamily::StratifiedTimer => MethodSpec::StratifiedTimer { period },
            MethodFamily::GeometricSkip => MethodSpec::GeometricSkip { mean_interval: k },
        }
    }

    /// Short display name matching the paper's figure legends.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            MethodFamily::Systematic => "systematic",
            MethodFamily::StratifiedRandom => "stratified",
            MethodFamily::SimpleRandom => "random",
            MethodFamily::SystematicTimer => "sys-timer",
            MethodFamily::StratifiedTimer => "strat-timer",
            MethodFamily::GeometricSkip => "geometric",
        }
    }

    /// Whether the family is timer-triggered.
    #[must_use]
    pub fn is_timer_driven(&self) -> bool {
        matches!(
            self,
            MethodFamily::SystematicTimer | MethodFamily::StratifiedTimer
        )
    }

    /// The effective replication count at granularity `k`: a systematic
    /// sample has only `k` distinct starting offsets, so requesting more
    /// replications than that would just repeat samples.
    #[must_use]
    pub fn replication_cap(&self, k: usize, replications: u32) -> u32 {
        if *self == MethodFamily::Systematic {
            replications.min(k as u32)
        } else {
            replications
        }
    }
}

/// One scored replication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Replication {
    /// Replication index.
    pub replication: u64,
    /// Full disparity metric suite for this sample.
    pub report: DisparityReport,
}

/// All replications of one method on one window/target.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// The method that was run.
    pub method: MethodSpec,
    /// The characterization target.
    pub target: Target,
    /// Scored replications (empty samples are counted separately).
    pub replications: Vec<Replication>,
    /// Replications whose sample was empty (unscorable).
    pub empty_samples: u32,
}

impl ExperimentResult {
    /// The φ score of each scored replication.
    #[must_use]
    pub fn phi_values(&self) -> Vec<f64> {
        self.replications.iter().map(|r| r.report.phi).collect()
    }

    /// Mean φ across replications; `None` if none were scorable.
    #[must_use]
    pub fn mean_phi(&self) -> Option<f64> {
        if self.replications.is_empty() {
            return None;
        }
        Some(self.phi_values().iter().sum::<f64>() / self.replications.len() as f64)
    }

    /// Boxplot of the φ scores (Figure 6's presentation); `None` if no
    /// replication was scorable.
    #[must_use]
    pub fn phi_boxplot(&self) -> Option<Boxplot> {
        let v = self.phi_values();
        if v.is_empty() {
            None
        } else {
            Some(Boxplot::from_data(&v))
        }
    }

    /// Mean sample size across scored replications.
    #[must_use]
    pub fn mean_sample_size(&self) -> Option<f64> {
        if self.replications.is_empty() {
            return None;
        }
        Some(
            self.replications
                .iter()
                .map(|r| r.report.sample_size as f64)
                .sum::<f64>()
                / self.replications.len() as f64,
        )
    }

    /// How many scored replications reject the population hypothesis at
    /// `alpha` under the χ² test (the paper's §6 experiment).
    #[must_use]
    pub fn rejections_at(&self, alpha: f64) -> usize {
        self.replications
            .iter()
            .filter(|r| r.report.rejects_at(alpha))
            .count()
    }
}

/// Sentinel bin code for "this packet contributes no observation" (the
/// first packet of an interarrival window has no population gap).
const NO_BIN: u32 = u32::MAX;

/// A fixed population window + target, ready to score methods.
///
/// Construction projects the window into flat columns — timestamp, bin
/// index, bin weight — once. Each replication then runs entirely over
/// those columns: batch selection on the timestamp column, then a flat
/// `counts[bin[i]] += weight[i]` accumulation. The per-row
/// `Target::value`/`BinSpec::bin_index` work is paid once per window
/// instead of once per (replication × packet), and the result is
/// bit-identical to binning `PacketRecord`s one at a time.
#[derive(Debug, Clone)]
pub struct Experiment<'a> {
    packets: &'a [PacketRecord],
    target: Target,
    population: Histogram,
    window_start: Micros,
    /// Timestamp column (µs), driving batch selection.
    ts: Vec<u64>,
    /// Precomputed bin index per packet; [`NO_BIN`] when the packet
    /// contributes no observation to this target.
    bin: Vec<u32>,
    /// Precomputed bin weight per packet (1 for count targets, bytes for
    /// volume targets; 0 when the bin is [`NO_BIN`]).
    weight: Vec<u64>,
}

impl<'a> Experiment<'a> {
    /// Set up over a packet window.
    ///
    /// # Panics
    /// Panics if the window is empty: an experiment needs a parent
    /// population.
    #[must_use]
    pub fn new(packets: &'a [PacketRecord], target: Target) -> Self {
        assert!(!packets.is_empty(), "experiment needs a nonempty window");
        let population = target.population_histogram(packets);
        let spec = target.bins();
        let mut ts = Vec::with_capacity(packets.len());
        let mut bin = Vec::with_capacity(packets.len());
        let mut weight = Vec::with_capacity(packets.len());
        let mut prev_ts: Option<u64> = None;
        for p in packets {
            let t = p.timestamp.as_u64();
            let gap = prev_ts.map(|q| t.saturating_sub(q));
            prev_ts = Some(t);
            ts.push(t);
            match target.value(p, gap) {
                Some(v) => {
                    bin.push(spec.bin_index(v) as u32);
                    weight.push(target.weight(p));
                }
                None => {
                    bin.push(NO_BIN);
                    weight.push(0);
                }
            }
        }
        Experiment {
            packets,
            target,
            population,
            window_start: packets[0].timestamp,
            ts,
            bin,
            weight,
        }
    }

    /// Set up over a trace's `[from, to)` window.
    ///
    /// # Panics
    /// Panics if the window holds no packets.
    #[must_use]
    pub fn over_window(trace: &'a Trace, from: Micros, to: Micros, target: Target) -> Self {
        Self::new(trace.window(from, to), target)
    }

    /// The window's packet count (population size `N`).
    #[must_use]
    pub fn population_len(&self) -> usize {
        self.packets.len()
    }

    /// The window's mean packet rate, packets/second (used to convert
    /// packet granularities into rate-equivalent timer periods).
    #[must_use]
    pub fn mean_pps(&self) -> f64 {
        let dur = self
            .packets
            .last()
            .expect("nonempty")
            .timestamp
            .saturating_sub(self.window_start)
            .as_secs_f64();
        if dur > 0.0 {
            self.packets.len() as f64 / dur
        } else {
            self.packets.len() as f64
        }
    }

    /// The precomputed population histogram.
    #[must_use]
    pub fn population_histogram(&self) -> &Histogram {
        &self.population
    }

    /// One replication: build the sampler for `(rep, seed)`, select over
    /// the timestamp column, accumulate the precomputed bin/weight
    /// columns, score. Pure in its arguments plus the experiment's
    /// precomputed state — the unit of work the pool schedules.
    ///
    /// Equivalent (bit for bit) to the per-packet
    /// `select_indices` + `Target::sample_histogram` pipeline: batch
    /// selection preserves each sampler's decision and RNG schedule, and
    /// the column accumulation replays exactly the
    /// `observe_weighted(value, weight)` calls the pull path makes.
    fn replicate(&self, method: MethodSpec, rep: u64, seed: u64) -> Option<Replication> {
        let mut sampler = method.build(self.packets.len(), self.window_start, rep, seed);
        let selected = select_indices_ts(sampler.as_mut(), &self.ts);
        let mut counts = vec![0u64; self.population.spec().bin_count()];
        for &i in &selected {
            let b = self.bin[i];
            if b != NO_BIN {
                counts[b as usize] += self.weight[i];
            }
        }
        let sample = Histogram::from_bin_counts(self.population.spec().clone(), counts);
        disparity(&self.population, &sample).map(|report| Replication {
            replication: rep,
            report,
        })
    }

    /// Score one concrete method over `replications` runs on the
    /// session-default pool (`--jobs` / `NETSAMPLE_JOBS`).
    pub fn run(&self, method: MethodSpec, replications: u32, seed: u64) -> ExperimentResult {
        self.run_with(&Pool::with_default_jobs(), method, replications, seed)
    }

    /// Score one concrete method over `replications` runs on `pool`.
    ///
    /// Replications are independent tasks; their outputs are reassembled
    /// in replication order, so the result is bit-identical to a serial
    /// run for any pool width.
    ///
    /// # Panics
    /// Propagates a panic if any replication panicked on a worker.
    pub fn run_with(
        &self,
        pool: &Pool,
        method: MethodSpec,
        replications: u32,
        seed: u64,
    ) -> ExperimentResult {
        let method_label = method.to_string();
        let target_label = self.target.to_string();
        let _cell = obskit::span_labeled(
            "experiment_cell",
            &[("method", &method_label), ("target", &target_label)],
        );
        let scored = pool
            .run(replications as usize, |rep| {
                self.replicate(method, rep as u64, seed)
            })
            .unwrap_or_else(|e| panic!("experiment pool failed: {e}"));
        let mut result = ExperimentResult {
            method,
            target: self.target,
            replications: Vec::with_capacity(replications as usize),
            empty_samples: 0,
        };
        for r in scored {
            match r {
                Some(rep) => result.replications.push(rep),
                None => result.empty_samples += 1,
            }
        }
        if obskit::recording_enabled() {
            obskit::counter("experiment_cells_total").inc();
            obskit::counter("experiment_replications_total").add(u64::from(replications));
            obskit::counter("experiment_empty_samples_total").add(u64::from(result.empty_samples));
        }
        result
    }

    /// Score a method family at packet granularity `k` (timer periods
    /// rate-equivalent for this window) on the session-default pool.
    pub fn run_family(
        &self,
        family: MethodFamily,
        k: usize,
        replications: u32,
        seed: u64,
    ) -> ExperimentResult {
        self.run_family_with(&Pool::with_default_jobs(), family, k, replications, seed)
    }

    /// Score a method family at packet granularity `k` on `pool`.
    pub fn run_family_with(
        &self,
        pool: &Pool,
        family: MethodFamily,
        k: usize,
        replications: u32,
        seed: u64,
    ) -> ExperimentResult {
        let reps = family.replication_cap(k, replications);
        self.run_with(pool, family.at_granularity(k, self.mean_pps()), reps, seed)
    }

    /// Score a whole grid of `(family, granularity)` cells on `pool`,
    /// flattening every `(cell, replication)` pair into one task list so
    /// parallelism spans the grid, not just a single cell's replications.
    ///
    /// Results come back in `cells` order, each cell's replications in
    /// replication order — bit-identical to running the cells serially.
    ///
    /// # Panics
    /// Propagates a panic if any replication panicked on a worker.
    pub fn run_grid_with(
        &self,
        pool: &Pool,
        cells: &[(MethodFamily, usize)],
        replications: u32,
        seed: u64,
    ) -> Vec<ExperimentResult> {
        let _grid = obskit::span("experiment_grid");
        let mean_pps = self.mean_pps();
        let specs: Vec<(MethodSpec, u32)> = cells
            .iter()
            .map(|&(family, k)| {
                (
                    family.at_granularity(k, mean_pps),
                    family.replication_cap(k, replications),
                )
            })
            .collect();
        let tasks: Vec<(usize, u64)> = specs
            .iter()
            .enumerate()
            .flat_map(|(ci, &(_, reps))| (0..u64::from(reps)).map(move |rep| (ci, rep)))
            .collect();
        let scored = pool
            .run(tasks.len(), |i| {
                let (ci, rep) = tasks[i];
                self.replicate(specs[ci].0, rep, seed)
            })
            .unwrap_or_else(|e| panic!("experiment pool failed: {e}"));
        let mut out: Vec<ExperimentResult> = specs
            .iter()
            .map(|&(method, reps)| ExperimentResult {
                method,
                target: self.target,
                replications: Vec::with_capacity(reps as usize),
                empty_samples: 0,
            })
            .collect();
        for (&(ci, _), r) in tasks.iter().zip(scored) {
            match r {
                Some(rep) => out[ci].replications.push(rep),
                None => out[ci].empty_samples += 1,
            }
        }
        if obskit::recording_enabled() {
            obskit::counter("experiment_cells_total").add(specs.len() as u64);
            obskit::counter("experiment_replications_total")
                .add(specs.iter().map(|&(_, r)| u64::from(r)).sum());
            obskit::counter("experiment_empty_samples_total")
                .add(out.iter().map(|r| u64::from(r.empty_samples)).sum());
        }
        out
    }
}

/// φ versus sampling granularity: run `family` at each granularity in
/// `ks` over the window, `replications` runs each (Figures 6–9), on the
/// session-default pool.
pub fn granularity_sweep(
    packets: &[PacketRecord],
    target: Target,
    family: MethodFamily,
    ks: &[usize],
    replications: u32,
    seed: u64,
) -> Vec<(usize, ExperimentResult)> {
    granularity_sweep_with(
        &Pool::with_default_jobs(),
        packets,
        target,
        family,
        ks,
        replications,
        seed,
    )
}

/// [`granularity_sweep`] on an explicit pool: the whole `ks × replications`
/// grid is one flattened task list, reassembled in `ks` order.
#[allow(clippy::too_many_arguments)] // a sweep is inherently a full parameter tuple
pub fn granularity_sweep_with(
    pool: &Pool,
    packets: &[PacketRecord],
    target: Target,
    family: MethodFamily,
    ks: &[usize],
    replications: u32,
    seed: u64,
) -> Vec<(usize, ExperimentResult)> {
    let exp = Experiment::new(packets, target);
    let cells: Vec<(MethodFamily, usize)> = ks.iter().map(|&k| (family, k)).collect();
    ks.iter()
        .copied()
        .zip(exp.run_grid_with(pool, &cells, replications, seed))
        .collect()
}

/// φ versus interval length: run `family` at fixed granularity `k` over
/// each window `[start, start + len)` for the lengths given
/// (Figures 10–11), on the session-default pool.
#[allow(clippy::too_many_arguments)] // a sweep is inherently a full parameter tuple
pub fn interval_sweep(
    trace: &Trace,
    target: Target,
    family: MethodFamily,
    k: usize,
    start: Micros,
    lengths: &[Micros],
    replications: u32,
    seed: u64,
) -> Vec<(Micros, Option<ExperimentResult>)> {
    interval_sweep_with(
        &Pool::with_default_jobs(),
        trace,
        target,
        family,
        k,
        start,
        lengths,
        replications,
        seed,
    )
}

/// [`interval_sweep`] on an explicit pool.
///
/// Windows and their population histograms are precomputed serially, in
/// `lengths` order; only the replications fan out, flattened across all
/// nonempty windows, so results are bit-identical to a serial sweep.
///
/// # Panics
/// Propagates a panic if any replication panicked on a worker.
#[allow(clippy::too_many_arguments)] // a sweep is inherently a full parameter tuple
pub fn interval_sweep_with(
    pool: &Pool,
    trace: &Trace,
    target: Target,
    family: MethodFamily,
    k: usize,
    start: Micros,
    lengths: &[Micros],
    replications: u32,
    seed: u64,
) -> Vec<(Micros, Option<ExperimentResult>)> {
    let _grid = obskit::span("experiment_grid");
    let exps: Vec<(Micros, Option<Experiment>)> = lengths
        .iter()
        .map(|&len| {
            let window = trace.window(start, start + len);
            if window.is_empty() {
                (len, None)
            } else {
                (len, Some(Experiment::new(window, target)))
            }
        })
        .collect();
    let reps = family.replication_cap(k, replications);
    // Timer periods are rate-equivalent *per window*, so specs differ
    // across windows of the same sweep.
    let specs: Vec<Option<MethodSpec>> = exps
        .iter()
        .map(|(_, e)| e.as_ref().map(|e| family.at_granularity(k, e.mean_pps())))
        .collect();
    let tasks: Vec<(usize, u64)> = exps
        .iter()
        .enumerate()
        .filter(|(_, (_, e))| e.is_some())
        .flat_map(|(wi, _)| (0..u64::from(reps)).map(move |rep| (wi, rep)))
        .collect();
    let scored = pool
        .run(tasks.len(), |i| {
            let (wi, rep) = tasks[i];
            let exp = exps[wi]
                .1
                .as_ref()
                .expect("tasks only cover nonempty windows");
            exp.replicate(
                specs[wi].expect("spec exists for nonempty window"),
                rep,
                seed,
            )
        })
        .unwrap_or_else(|e| panic!("experiment pool failed: {e}"));
    let mut out: Vec<(Micros, Option<ExperimentResult>)> = exps
        .iter()
        .zip(&specs)
        .map(|((len, e), spec)| {
            (
                *len,
                e.as_ref().map(|_| ExperimentResult {
                    method: spec.expect("spec exists for nonempty window"),
                    target,
                    replications: Vec::with_capacity(reps as usize),
                    empty_samples: 0,
                }),
            )
        })
        .collect();
    for (&(wi, _), r) in tasks.iter().zip(scored) {
        let cell = out[wi]
            .1
            .as_mut()
            .expect("tasks only cover nonempty windows");
        match r {
            Some(rep) => cell.replications.push(rep),
            None => cell.empty_samples += 1,
        }
    }
    if obskit::recording_enabled() {
        let cells = out.iter().filter(|(_, r)| r.is_some()).count() as u64;
        obskit::counter("experiment_cells_total").add(cells);
        obskit::counter("experiment_replications_total").add(cells * u64::from(reps));
        obskit::counter("experiment_empty_samples_total").add(
            out.iter()
                .filter_map(|(_, r)| r.as_ref().map(|r| u64::from(r.empty_samples)))
                .sum(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::PacketRecord;

    /// A deterministic bimodal window: sizes alternate irregularly, gaps
    /// vary.
    fn window(n: usize) -> Vec<PacketRecord> {
        let mut t = 0u64;
        (0..n)
            .map(|i| {
                t += 400 + (i as u64 * 179) % 4400;
                let size = if (i * 7919) % 10 < 4 { 40 } else { 552 };
                PacketRecord::new(Micros(t), size)
            })
            .collect()
    }

    #[test]
    fn full_sampling_scores_zero_phi() {
        let w = window(5000);
        let exp = Experiment::new(&w, Target::PacketSize);
        let r = exp.run(MethodSpec::Systematic { interval: 1 }, 1, 0);
        assert_eq!(r.replications.len(), 1);
        assert_eq!(r.replications[0].report.phi, 0.0);
    }

    #[test]
    fn phi_grows_with_granularity() {
        let w = window(20_000);
        let sweep = granularity_sweep(
            &w,
            Target::PacketSize,
            MethodFamily::StratifiedRandom,
            &[4, 64, 1024],
            10,
            42,
        );
        let phis: Vec<f64> = sweep
            .iter()
            .map(|(_, r)| r.mean_phi().expect("scorable"))
            .collect();
        assert!(
            phis[0] < phis[1] && phis[1] < phis[2],
            "phi not monotone: {phis:?}"
        );
    }

    #[test]
    fn systematic_replications_capped_at_k() {
        let w = window(1000);
        let exp = Experiment::new(&w, Target::PacketSize);
        let r = exp.run_family(MethodFamily::Systematic, 3, 50, 0);
        assert_eq!(r.replications.len(), 3);
    }

    #[test]
    fn replication_variance_grows_with_granularity() {
        let w = window(20_000);
        let exp = Experiment::new(&w, Target::PacketSize);
        let fine = exp.run_family(MethodFamily::SimpleRandom, 8, 20, 1);
        let coarse = exp.run_family(MethodFamily::SimpleRandom, 512, 20, 1);
        let var = |r: &ExperimentResult| {
            let b = r.phi_boxplot().unwrap();
            b.iqr()
        };
        assert!(
            var(&coarse) > var(&fine),
            "IQR fine {} coarse {}",
            var(&fine),
            var(&coarse)
        );
    }

    #[test]
    fn empty_samples_are_counted_not_scored() {
        let w = window(10);
        let exp = Experiment::new(&w, Target::PacketSize);
        // Granularity far above the population: offset 0 still catches
        // packet 0 (scored); later offsets catch nothing.
        let r = exp.run(MethodSpec::Systematic { interval: 1000 }, 1, 0);
        assert_eq!(r.replications.len(), 1);
        let r2 = exp.run(
            MethodSpec::SystematicTimer {
                period: Micros(1 << 40),
            },
            1,
            0,
        );
        // Timer anchored at first packet fires immediately -> selects
        // packet 0; the subsequent schedule never fires again.
        assert!(r2.replications.len() + r2.empty_samples as usize == 1);
    }

    #[test]
    fn interval_sweep_improves_with_length() {
        let w = window(50_000);
        let trace = Trace::new(w).unwrap();
        let dur = trace.duration();
        let lengths = [
            Micros(dur.as_u64() / 64),
            Micros(dur.as_u64() / 8),
            Micros(dur.as_u64()),
        ];
        let sweep = interval_sweep(
            &trace,
            Target::PacketSize,
            MethodFamily::StratifiedRandom,
            64,
            Micros(0),
            &lengths,
            10,
            7,
        );
        let phis: Vec<f64> = sweep
            .iter()
            .map(|(_, r)| r.as_ref().unwrap().mean_phi().unwrap())
            .collect();
        assert!(
            phis[2] < phis[0],
            "longer interval should score better: {phis:?}"
        );
    }

    #[test]
    fn deterministic_experiments() {
        let w = window(5000);
        let exp = Experiment::new(&w, Target::Interarrival);
        for family in MethodFamily::paper_five() {
            let a = exp.run_family(family, 16, 5, 99);
            let b = exp.run_family(family, 16, 5, 99);
            assert_eq!(a, b, "{}", family.name());
        }
    }

    #[test]
    fn family_names_and_flags() {
        assert_eq!(MethodFamily::paper_five().len(), 5);
        assert_eq!(
            MethodFamily::paper_five()
                .iter()
                .filter(|f| f.is_timer_driven())
                .count(),
            2
        );
        assert_eq!(MethodFamily::Systematic.name(), "systematic");
        // Timer period: 50 packets at 424.2 pps is ≈ 117,869 µs.
        assert_eq!(
            MethodFamily::SystematicTimer.at_granularity(50, 424.2),
            MethodSpec::SystematicTimer {
                period: Micros(117_869)
            }
        );
    }

    /// The sampler's metric label and the family's name are one
    /// spelling, so `/metrics` and the sweep table agree.
    #[test]
    fn samplers_report_their_family_name() {
        let mut families = MethodFamily::paper_five().to_vec();
        families.push(MethodFamily::GeometricSkip);
        for family in families {
            let sampler = family
                .at_granularity(50, 424.2)
                .build(1_000, Micros(0), 0, 1);
            assert_eq!(sampler.method_name(), family.name());
        }
    }

    #[test]
    fn mean_pps_is_sane() {
        let w = window(1000);
        let exp = Experiment::new(&w, Target::PacketSize);
        // Mean gap ~ 400 + avg(i*179 % 4400) ~ 2600us -> ~385 pps.
        let pps = exp.mean_pps();
        assert!(pps > 200.0 && pps < 800.0, "pps {pps}");
    }

    #[test]
    #[should_panic(expected = "nonempty window")]
    fn empty_window_panics() {
        let _ = Experiment::new(&[], Target::PacketSize);
    }

    /// A window with protocol/port variety so the categorical targets
    /// exercise more than one bin.
    fn varied_window(n: usize) -> Vec<PacketRecord> {
        use nettrace::Protocol;
        window(n)
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let proto = match i % 5 {
                    0 | 1 => Protocol::Tcp,
                    2 => Protocol::Udp,
                    3 => Protocol::Icmp,
                    _ => Protocol::Other(89),
                };
                let dst = [20, 23, 25, 53, 119, 8080][i % 6];
                p.with_protocol(proto).with_ports(1024, dst)
            })
            .collect()
    }

    /// The columnar replicate must reproduce, bit for bit, the original
    /// per-packet pipeline (`select_indices` over `PacketRecord`s, then
    /// `Target::sample_histogram`) for every family × target.
    #[test]
    fn columnar_replicate_matches_pull_path() {
        let w = varied_window(4000);
        let families = [
            MethodFamily::Systematic,
            MethodFamily::StratifiedRandom,
            MethodFamily::SimpleRandom,
            MethodFamily::SystematicTimer,
            MethodFamily::StratifiedTimer,
            MethodFamily::GeometricSkip,
        ];
        for target in Target::all_extended() {
            let exp = Experiment::new(&w, target);
            for family in families {
                let spec = family.at_granularity(13, exp.mean_pps());
                for rep in 0..3u64 {
                    let mut sampler = spec.build(w.len(), w[0].timestamp, rep, 77);
                    let selected = crate::sampler::select_indices(sampler.as_mut(), &w);
                    let sample = target.sample_histogram(&w, &selected);
                    let reference = disparity(&exp.population, &sample).map(|report| Replication {
                        replication: rep,
                        report,
                    });
                    assert_eq!(
                        exp.replicate(spec, rep, 77),
                        reference,
                        "{} / {target} / rep {rep}",
                        family.name()
                    );
                }
            }
        }
    }

    /// φ output is bit-identical across pool widths: batch selection and
    /// column binning change nothing about per-replication results, and
    /// the pool reassembles by task index.
    #[test]
    fn results_are_bit_identical_across_jobs() {
        let w = window(5000);
        for target in [Target::PacketSize, Target::Interarrival] {
            let exp = Experiment::new(&w, target);
            for family in MethodFamily::paper_five() {
                let spec = family.at_granularity(16, exp.mean_pps());
                let serial = exp.run_with(&Pool::new(1), spec, 10, 1993);
                for jobs in [4, 8] {
                    assert_eq!(
                        serial,
                        exp.run_with(&Pool::new(jobs), spec, 10, 1993),
                        "{} / {target} @ {jobs} jobs",
                        family.name()
                    );
                }
            }
        }
    }
}
