//! # sampling — packet sampling methodologies and their evaluation
//!
//! The core contribution of *Application of Sampling Methodologies to
//! Network Traffic Characterization* (Claffy, Polyzos, Braun, SIGCOMM
//! 1993), as a reusable library:
//!
//! ## The five sampling methods (paper §4)
//!
//! | | packet(event)-driven | timer-driven |
//! |---|---|---|
//! | systematic | [`SystematicSampler`] | [`SystematicTimerSampler`] |
//! | stratified random | [`StratifiedSampler`] | [`StratifiedTimerSampler`] |
//! | simple random | [`SimpleRandomSampler`] | — |
//!
//! plus two operational extensions from the method's deployment
//! lineage (sFlow/NetFlow-style sampling): [`GeometricSkipSampler`]
//! (i.i.d. 1-in-k via geometric skips) and [`AdaptiveSampler`] (AIMD
//! interval control holding the selection rate to a processor budget).
//! The fixed-size uniform sample over a stream of unknown length is
//! `streamkit::ReservoirStream` (Vitter's Algorithm L).
//!
//! Every sampler is an **event-driven state machine**: the router (or the
//! simulator) offers arriving packets in order and the sampler answers
//! "selected or not" in O(1) per packet with no buffering — exactly the
//! shape deployed in the T3 backbone's forwarding firmware (paper §2).
//! The one decision call, [`Sampler::offer_ts_batch`], takes a run of
//! arrival timestamps; [`Sampler::offer`] is a run of one.
//!
//! ## Scoring a sample against its parent population (paper §5.2)
//!
//! [`metrics::disparity`] computes the full metric suite over a binned
//! characterization target: Pearson χ² and its significance level, the
//! `cost` (ℓ₁) and relative-cost metrics, Paxson's size-invariant `X²`
//! and average normalized deviation, and the **φ coefficient** the paper
//! adopts. [`targets::Target`] supplies the paper's bins for the packet
//! size and interarrival-time distributions (plus proportion targets for
//! the §8 extension).
//!
//! ## Experiments (paper §6–7)
//!
//! [`experiment`] runs replicated samples across methods, sampling
//! fractions, and interval lengths, reproducing Figures 3–11;
//! [`samplesize`] implements the Cochran sample-size formulas of §5.1;
//! [`theory`] verifies the classical efficiency orderings of §5 on
//! structured populations; [`estimate`] scales sampled totals by the
//! inverse sampling fraction and estimates class proportions with their
//! standard errors.
//!
//! # Example
//!
//! ```
//! use sampling::{Sampler, SystematicSampler, Target, disparity, select_indices};
//! use nettrace::{Micros, PacketRecord};
//!
//! // A parent population: alternating ACKs and MSS segments.
//! let population: Vec<PacketRecord> = (0..10_000)
//!     .map(|i| PacketRecord::new(Micros(i * 2_400), if i % 2 == 0 { 40 } else { 552 }))
//!     .collect();
//!
//! // Systematic 1-in-51. (An odd interval: this toy population has
//! // period 2, and systematic sampling at a resonant even interval
//! // would see only one phase — the §5 periodicity hazard.)
//! let mut sampler = SystematicSampler::new(51);
//! let selected = select_indices(&mut sampler, &population);
//! assert_eq!(selected.len(), 197);
//!
//! // Score the sample's packet-size distribution against the population.
//! let target = Target::PacketSize;
//! let pop_hist = target.population_histogram(&population);
//! let sam_hist = target.sample_histogram(&population, &selected);
//! let report = disparity(&pop_hist, &sam_hist).expect("nonempty sample");
//! assert!(report.phi < 0.05, "good samples have small phi");
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod estimate;
pub mod experiment;
pub mod flows;
pub mod geometric;
pub mod metrics;
pub mod nullband;
pub mod random;
pub mod sampler;
pub mod samplesize;
pub mod stratified;
pub mod systematic;
pub mod targets;
pub mod theory;
pub mod timer;

pub use adaptive::{AdaptiveConfig, AdaptiveSampler};
pub use experiment::{Experiment, ExperimentResult, Replication};
pub use flows::{
    estimate_histogram, flow_size_bins, FlowEstimator, FlowExperiment, FlowExperimentResult,
    FlowReplication,
};
pub use geometric::GeometricSkipSampler;
pub use metrics::{disparity, DisparityReport};
pub use nullband::{phi_null_band, PhiNullBand};
pub use random::SimpleRandomSampler;
pub use sampler::{
    replication_seed, select_indices, select_indices_ts, BuildError, MethodSpec, Sampler,
};
pub use samplesize::{required_sample_size, SampleSizeSpec};
pub use stratified::StratifiedSampler;
pub use systematic::SystematicSampler;
pub use targets::Target;
pub use timer::{StratifiedTimerSampler, SystematicTimerSampler};
