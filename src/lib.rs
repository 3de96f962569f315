//! # netsample
//!
//! Umbrella crate for the reproduction of *Application of Sampling
//! Methodologies to Network Traffic Characterization* (K. C. Claffy,
//! G. C. Polyzos, H.-W. Braun, SIGCOMM 1993).
//!
//! This crate re-exports the workspace's five libraries so examples and
//! integration tests can exercise the whole system through one dependency:
//!
//! * [`nettrace`] — packet/trace substrate (records, pcap I/O, histograms,
//!   per-second series, capture-clock models);
//! * [`statkit`] — statistics toolkit (moments, quantiles, χ²/K-S/A-D
//!   tests, boxplots, seeded distributions);
//! * [`netsynth`] — synthetic SDSC/E-NSS workload generation calibrated to
//!   the paper's published population statistics;
//! * [`netstat`] (crate `netstat-sim`) — NSFNET statistics-collection
//!   simulation (ARTS/NNStat objects, SNMP counters, capacity-limited
//!   collectors);
//! * [`sampling`] — the paper's core contribution: the five sampling
//!   methods, the disparity-metric suite (χ², significance, cost, X², φ),
//!   and the replication/sweep experiment framework;
//! * [`obskit`] — the observability layer every crate above reports into:
//!   a global registry of counters/gauges/histograms, wall-clock spans,
//!   Prometheus-style exposition, and optional JSONL event tracing;
//! * [`parkit`] — the scoped-thread worker pool the experiment grids run
//!   on: deterministic slot-indexed merge (parallel ≡ serial, bitwise),
//!   chunk-stealing, panic aggregation.
//!
//! See `DESIGN.md` for the system inventory and the per-experiment index,
//! and `EXPERIMENTS.md` for paper-vs-measured results.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use netstat_sim as netstat;
pub use netsynth;
pub use nettrace;
pub use obskit;
pub use parkit;
pub use sampling;
pub use statkit;

/// Workspace version, for example banners.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
