//! The [`Sampler`] trait and the [`MethodSpec`] configuration type.
//!
//! A sampler is an event-driven decision machine: for each arriving
//! packet it answers, in O(1) and without buffering, whether that packet
//! enters the sample. This is the deployment shape of the paper's §2 —
//! the T3 backbone's forwarding firmware selects "currently every
//! fiftieth" packet header and forwards it to the characterization
//! processor.

use crate::geometric::GeometricSkipSampler;
use crate::random::SimpleRandomSampler;
use crate::stratified::StratifiedSampler;
use crate::systematic::SystematicSampler;
use crate::timer::{StratifiedTimerSampler, SystematicTimerSampler};
use nettrace::{Micros, PacketRecord};
use std::fmt;

/// A degenerate sampler configuration, reported instead of panicking by
/// the `try_*` constructors and [`MethodSpec::try_build`].
///
/// The `Display` messages match the panic messages of the original
/// asserting constructors, so `build` (which delegates here and panics
/// on error) is behavior-compatible with the pre-fallible API.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BuildError {
    /// A packet-count interval of zero (systematic sampling).
    ZeroInterval,
    /// A systematic start offset at or past the interval.
    OffsetNotBelowInterval {
        /// The rejected offset.
        offset: usize,
        /// The interval it must stay below.
        interval: usize,
    },
    /// A stratification bucket of zero packets.
    ZeroBucket,
    /// A timer period of zero microseconds.
    ZeroPeriod,
    /// A sampling fraction outside `(0, 1]` (NaN included).
    FractionOutOfRange(f64),
    /// A geometric mean interval of zero.
    ZeroMeanInterval,
    /// An empty population where the method needs `N` up front.
    EmptyPopulation,
    /// Asking simple random sampling for more packets than exist.
    SampleExceedsPopulation {
        /// Requested sample size.
        sample: usize,
        /// Available population.
        population: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BuildError::ZeroInterval => write!(f, "interval must be positive"),
            BuildError::OffsetNotBelowInterval { offset, interval } => {
                write!(f, "offset {offset} must be below interval {interval}")
            }
            BuildError::ZeroBucket => write!(f, "bucket size must be positive"),
            BuildError::ZeroPeriod => write!(f, "timer period must be positive"),
            BuildError::FractionOutOfRange(fr) => {
                write!(f, "fraction must be in (0,1], got {fr}")
            }
            BuildError::ZeroMeanInterval => write!(f, "mean interval must be positive"),
            BuildError::EmptyPopulation => write!(f, "population must be positive"),
            BuildError::SampleExceedsPopulation { sample, population } => {
                write!(f, "cannot select {sample} from {population}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// An event-driven packet sampler. `Send` is a supertrait so boxed
/// samplers can live inside per-shard state handed to worker pools
/// (every in-tree sampler is plain owned data).
///
/// A sampler decides from the arrival schedule alone, never from packet
/// contents (the paper's §4 methods are content-blind by construction),
/// so its one decision method takes a run of arrival timestamps.
pub trait Sampler: Send {
    /// Offer a run of packets by their arrival timestamps, appending
    /// `base + i` to `out` for every selected element `i`. Packets must
    /// be offered in arrival order; a run continues the state the
    /// previous run left, so the selection does not depend on how the
    /// stream is cut into runs.
    fn offer_ts_batch(&mut self, base: usize, ts: &[u64], out: &mut Vec<usize>);

    /// Offer one arriving packet, a run of one; returns `true` if it is
    /// selected.
    fn offer(&mut self, pkt: &PacketRecord) -> bool {
        let mut picked = Vec::new();
        self.offer_ts_batch(0, &[pkt.timestamp.as_u64()], &mut picked);
        !picked.is_empty()
    }

    /// Stable short name used as the `method` label on metrics: the
    /// [`MethodFamily::name`](crate::experiment::MethodFamily::name)
    /// spelling where the sampler has a family.
    fn method_name(&self) -> &'static str;
}

/// Run a sampler over a packet slice, returning the *indices* of selected
/// packets: [`select_indices_ts`] over the slice's timestamp column.
///
/// Indices (rather than copies) let characterization targets look up
/// per-packet attributes computed in the parent population — in
/// particular each packet's interarrival time to its *population*
/// predecessor, which is how the interarrival distribution is sampled
/// (see [`crate::targets::Target::Interarrival`]).
pub fn select_indices<S: Sampler + ?Sized>(
    sampler: &mut S,
    packets: &[PacketRecord],
) -> Vec<usize> {
    let ts: Vec<u64> = packets.iter().map(|p| p.timestamp.as_u64()).collect();
    select_indices_ts(sampler, &ts)
}

/// Run a sampler over a flat timestamp column (one element per packet,
/// arrival order), returning the indices of selected packets.
///
/// Dispatches once into [`Sampler::offer_ts_batch`], so the strided and
/// skip-jump families run a tight loop over a dense `&[u64]`.
pub fn select_indices_ts<S: Sampler + ?Sized>(sampler: &mut S, ts: &[u64]) -> Vec<usize> {
    let span = obskit::span_labeled("sampling_select", &[("method", sampler.method_name())]);
    let mut selected = Vec::new();
    sampler.offer_ts_batch(0, ts, &mut selected);
    // Metrics are flushed once per batch, not per packet, so the batch
    // hot loop stays free of atomic traffic.
    let labels = [("method", sampler.method_name())];
    obskit::counter_labeled("sampling_packets_examined_total", &labels).add(ts.len() as u64);
    obskit::counter_labeled("sampling_packets_selected_total", &labels).add(selected.len() as u64);
    drop(span);
    selected
}

/// A fully specified sampling method: class × trigger × granularity.
///
/// `MethodSpec` is configuration; [`MethodSpec::build`] instantiates the
/// concrete sampler for a particular population window and replication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MethodSpec {
    /// Every `interval`-th packet (1-in-k), deterministic.
    Systematic {
        /// Selection interval `k` (the T3 backbone ran `k = 50`).
        interval: usize,
    },
    /// One uniform pick from each bucket of `bucket` consecutive packets.
    StratifiedRandom {
        /// Bucket size `k` (the sampling fraction is `1/k`).
        bucket: usize,
    },
    /// `n ≈ N·fraction` packets drawn uniformly from the population
    /// (Knuth's sequential Algorithm S; needs the window's packet count).
    SimpleRandom {
        /// Target sampling fraction in `(0, 1]`.
        fraction: f64,
    },
    /// Timer-driven systematic: when the periodic timer has expired,
    /// select the next packet to arrive.
    SystematicTimer {
        /// Timer period.
        period: Micros,
    },
    /// Timer-driven stratified: one uniformly-placed firing time per
    /// period; the next packet at/after it is selected.
    StratifiedTimer {
        /// Stratum length.
        period: Micros,
    },
    /// i.i.d. 1-in-k selection via geometric skip counts (the sFlow
    /// lineage of this paper's method; an extension beyond the paper's
    /// five).
    GeometricSkip {
        /// Mean selection interval `k`.
        mean_interval: usize,
    },
}

/// The seed a randomized sampler draws from in replication
/// `replication` of a run with base seed `seed`: the batch experiments'
/// and the stream engine's one seed protocol.
#[must_use]
pub fn replication_seed(seed: u64, replication: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(replication)
}

impl MethodSpec {
    /// Build the concrete sampler for one replication.
    ///
    /// * `population_len` — packet count of the window (used by simple
    ///   random sampling's exact n-of-N algorithm);
    /// * `window_start` — first timestamp of the window (anchors timer
    ///   schedules);
    /// * `replication` — replication index; deterministic methods vary
    ///   their start offset with it (the paper "varied the point within
    ///   the data set at which to begin the sampling procedure"),
    ///   randomized methods fold it into their seed;
    /// * `seed` — base random seed.
    ///
    /// # Panics
    /// Panics on degenerate configuration (zero interval/bucket/period,
    /// fraction outside `(0, 1]`).
    #[must_use]
    pub fn build(
        &self,
        population_len: usize,
        window_start: Micros,
        replication: u64,
        seed: u64,
    ) -> Box<dyn Sampler> {
        match self.try_build(population_len, window_start, replication, seed) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`MethodSpec::build`]: the same construction, but a
    /// degenerate configuration (zero interval/bucket/period, fraction
    /// outside `(0, 1]`, empty population for simple random sampling)
    /// comes back as a typed [`BuildError`] instead of a panic — the
    /// variant CLI front ends need to turn bad `--interval 0`-style
    /// flags into usage errors.
    ///
    /// # Errors
    /// Returns the first [`BuildError`] the configuration trips.
    pub fn try_build(
        &self,
        population_len: usize,
        window_start: Micros,
        replication: u64,
        seed: u64,
    ) -> Result<Box<dyn Sampler>, BuildError> {
        let seed = replication_seed(seed, replication);
        match *self {
            MethodSpec::Systematic { interval } => {
                if interval == 0 {
                    return Err(BuildError::ZeroInterval);
                }
                let offset = (replication as usize) % interval;
                Ok(Box::new(SystematicSampler::try_with_offset(
                    interval, offset,
                )?))
            }
            MethodSpec::StratifiedRandom { bucket } => {
                Ok(Box::new(StratifiedSampler::try_new(bucket, seed)?))
            }
            MethodSpec::SimpleRandom { fraction } => {
                if !(fraction > 0.0 && fraction <= 1.0) {
                    return Err(BuildError::FractionOutOfRange(fraction));
                }
                if population_len == 0 {
                    return Err(BuildError::EmptyPopulation);
                }
                let n =
                    ((population_len as f64 * fraction).round() as usize).clamp(1, population_len);
                Ok(Box::new(SimpleRandomSampler::try_new(
                    population_len,
                    n,
                    seed,
                )?))
            }
            MethodSpec::SystematicTimer { period } => {
                if period.as_u64() == 0 {
                    return Err(BuildError::ZeroPeriod);
                }
                // Spread replication start phases across the period.
                let phase = (replication.wrapping_mul(2_654_435_761)) % period.as_u64();
                Ok(Box::new(SystematicTimerSampler::try_new(
                    period,
                    Micros(window_start.as_u64().saturating_add(phase)),
                )?))
            }
            MethodSpec::StratifiedTimer { period } => Ok(Box::new(
                StratifiedTimerSampler::try_new(period, window_start, seed)?,
            )),
            MethodSpec::GeometricSkip { mean_interval } => Ok(Box::new(
                GeometricSkipSampler::try_new(mean_interval, seed)?,
            )),
        }
    }
}

impl fmt::Display for MethodSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodSpec::Systematic { interval } => write!(f, "systematic(1/{interval})"),
            MethodSpec::StratifiedRandom { bucket } => write!(f, "stratified(1/{bucket})"),
            MethodSpec::SimpleRandom { fraction } => {
                write!(f, "random(f={fraction:.6})")
            }
            MethodSpec::SystematicTimer { period } => {
                write!(f, "sys-timer({period})")
            }
            MethodSpec::StratifiedTimer { period } => {
                write!(f, "strat-timer({period})")
            }
            MethodSpec::GeometricSkip { mean_interval } => {
                write!(f, "geometric(1/{mean_interval})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::MethodFamily;
    use nettrace::Micros;

    fn packets(n: usize) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::new(Micros(i as u64 * 1000), 100))
            .collect()
    }

    /// The paper's five methods at granularity `k` for a `mean_pps`
    /// population.
    fn paper_five(k: usize, mean_pps: f64) -> Vec<MethodSpec> {
        MethodFamily::paper_five()
            .iter()
            .map(|f| f.at_granularity(k, mean_pps))
            .collect()
    }

    #[test]
    fn build_produces_working_samplers() {
        let pkts = packets(1000);
        for spec in paper_five(10, 1000.0) {
            let mut s = spec.build(pkts.len(), Micros(0), 0, 42);
            let selected = select_indices(s.as_mut(), &pkts);
            assert!(
                !selected.is_empty(),
                "{spec} selected nothing from 1000 packets"
            );
            // Roughly 1-in-10 (timer methods approximate).
            assert!(
                selected.len() >= 50 && selected.len() <= 200,
                "{spec}: {}",
                selected.len()
            );
        }
    }

    #[test]
    fn replications_differ() {
        let pkts = packets(100);
        let spec = MethodSpec::Systematic { interval: 10 };
        let a = select_indices(spec.build(100, Micros(0), 0, 1).as_mut(), &pkts);
        let b = select_indices(spec.build(100, Micros(0), 1, 1).as_mut(), &pkts);
        assert_ne!(a, b, "offset must vary with replication");
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn same_replication_is_deterministic() {
        let pkts = packets(500);
        for spec in paper_five(7, 1000.0) {
            let a = select_indices(spec.build(500, Micros(0), 3, 9).as_mut(), &pkts);
            let b = select_indices(spec.build(500, Micros(0), 3, 9).as_mut(), &pkts);
            assert_eq!(a, b, "{spec} must be deterministic");
        }
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            MethodSpec::Systematic { interval: 50 }.to_string(),
            "systematic(1/50)"
        );
        assert!(MethodSpec::SimpleRandom { fraction: 0.02 }
            .to_string()
            .starts_with("random"));
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0,1]")]
    fn bad_fraction_panics() {
        let _ = MethodSpec::SimpleRandom { fraction: 1.5 }.build(10, Micros(0), 0, 0);
    }

    fn build_err(spec: MethodSpec, population_len: usize) -> BuildError {
        match spec.try_build(population_len, Micros(0), 0, 1) {
            Err(e) => e,
            Ok(_) => panic!("{spec} unexpectedly built"),
        }
    }

    #[test]
    fn try_build_rejects_degenerate_specs() {
        let cases = [
            (
                MethodSpec::Systematic { interval: 0 },
                BuildError::ZeroInterval,
            ),
            (
                MethodSpec::StratifiedRandom { bucket: 0 },
                BuildError::ZeroBucket,
            ),
            (
                MethodSpec::SimpleRandom { fraction: 0.0 },
                BuildError::FractionOutOfRange(0.0),
            ),
            (
                MethodSpec::SystematicTimer { period: Micros(0) },
                BuildError::ZeroPeriod,
            ),
            (
                MethodSpec::StratifiedTimer { period: Micros(0) },
                BuildError::ZeroPeriod,
            ),
            (
                MethodSpec::GeometricSkip { mean_interval: 0 },
                BuildError::ZeroMeanInterval,
            ),
        ];
        for (spec, want) in cases {
            assert_eq!(build_err(spec, 100), want, "{spec}");
        }
        // NaN and >1 fractions are rejected, not accepted or panicked on.
        assert!(matches!(
            build_err(MethodSpec::SimpleRandom { fraction: f64::NAN }, 100),
            BuildError::FractionOutOfRange(_)
        ));
        // Simple random sampling needs a nonempty population.
        assert_eq!(
            build_err(MethodSpec::SimpleRandom { fraction: 0.5 }, 0),
            BuildError::EmptyPopulation
        );
    }

    #[test]
    fn try_build_matches_build_on_valid_specs() {
        let pkts = packets(500);
        for spec in paper_five(10, 1000.0) {
            let a = select_indices(spec.build(500, Micros(0), 2, 7).as_mut(), &pkts);
            let b = select_indices(
                spec.try_build(500, Micros(0), 2, 7).unwrap().as_mut(),
                &pkts,
            );
            assert_eq!(a, b, "{spec}");
        }
    }

    /// Every family the workspace ships, at a granularity that
    /// exercises mid-bucket / mid-skip state.
    fn all_specs() -> Vec<MethodSpec> {
        let mut specs = paper_five(7, 1000.0);
        specs.push(MethodSpec::GeometricSkip { mean_interval: 7 });
        specs.push(MethodSpec::GeometricSkip { mean_interval: 1 });
        specs
    }

    #[test]
    fn chunked_batches_carry_state_across_chunk_seams() {
        // Chunk sizes coprime with every interval/bucket in use, so
        // seams land mid-bucket and mid-skip.
        let pkts = packets(500);
        let ts: Vec<u64> = pkts.iter().map(|p| p.timestamp.as_u64()).collect();
        for spec in all_specs() {
            let pull = select_indices(spec.build(pkts.len(), Micros(0), 3, 42).as_mut(), &pkts);
            for chunk in [1usize, 3, 11, 499, 500] {
                let mut s = spec.build(pkts.len(), Micros(0), 3, 42);
                let mut out = Vec::new();
                let mut base = 0;
                for run in ts.chunks(chunk) {
                    s.offer_ts_batch(base, run, &mut out);
                    base += run.len();
                }
                assert_eq!(pull, out, "{spec} chunk {chunk}");
            }
        }
    }

    #[test]
    fn batch_resumes_after_partial_runs_and_rebuilds_repeat() {
        // A prefix offered one packet at a time, then one run over the
        // rest, must equal the whole-column run; a sampler rebuilt from
        // the same spec and seed repeats it.
        let pkts = packets(200);
        let ts: Vec<u64> = pkts.iter().map(|p| p.timestamp.as_u64()).collect();
        for spec in all_specs() {
            let whole = select_indices_ts(spec.build(pkts.len(), Micros(0), 0, 7).as_mut(), &ts);
            let mut s = spec.build(pkts.len(), Micros(0), 0, 7);
            let mut mixed: Vec<usize> = pkts[..37]
                .iter()
                .enumerate()
                .filter_map(|(i, p)| s.offer(p).then_some(i))
                .collect();
            s.offer_ts_batch(37, &ts[37..], &mut mixed);
            assert_eq!(whole, mixed, "{spec} runs of one, then the rest");
            let mut again = Vec::new();
            spec.build(pkts.len(), Micros(0), 0, 7)
                .offer_ts_batch(0, &ts, &mut again);
            assert_eq!(whole, again, "{spec} rebuilt");
        }
    }

    #[test]
    fn build_error_messages_match_historic_panics() {
        assert_eq!(
            BuildError::ZeroInterval.to_string(),
            "interval must be positive"
        );
        assert_eq!(
            BuildError::OffsetNotBelowInterval {
                offset: 5,
                interval: 5
            }
            .to_string(),
            "offset 5 must be below interval 5"
        );
        assert_eq!(
            BuildError::ZeroBucket.to_string(),
            "bucket size must be positive"
        );
        assert_eq!(
            BuildError::ZeroPeriod.to_string(),
            "timer period must be positive"
        );
    }
}
