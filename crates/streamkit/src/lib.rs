//! # streamkit — bounded-memory one-pass streaming engine
//!
//! Every other crate in this workspace analyzes a fully-materialized
//! [`Trace`](nettrace::Trace); memory scales with capture size and the
//! paper's simple-random method needs the population size `N` up front.
//! An operational monitor — the paper's own 1-in-50 NSFNET deployment
//! (§2), or the NetFlow-style sampled export it inspired — sees a
//! *stream*: packets arrive once, memory must stay bounded, and the
//! characterization (the 15-minute collection cycle) rolls over windows.
//!
//! `streamkit` is that monitor, std-only:
//!
//! * **chunked ingestion** — [`nettrace::CaptureStream`] yields bounded
//!   batches from any `Read` source (file or stdin), reusing the strict
//!   batch decoders so the parses cannot drift;
//! * **online samplers** — a [`Selector`] holds either an event-driven
//!   [`sampling::Sampler`], which the windower runs over each decoded
//!   run's timestamp column with one call, or a [`ReservoirStream`]
//!   (Vitter's Algorithm L), which delivers simple random sampling in
//!   one pass *without* knowing `N`;
//! * **windowed characterization** — [`Windower`] maintains tumbling or
//!   sliding windows over packet count or time, each carrying the
//!   paper's size/interarrival histograms, and emits a per-window φ
//!   against the window's own population or a fixed reference;
//! * **two-stage runtime** — [`run_stream`] decodes on a source thread
//!   behind one bounded channel with explicit backpressure (block, or
//!   drop-with-counter) and adaptive shedding, and runs the windower
//!   and sampler on the calling thread, scoring each window where it
//!   closes; obskit counters, gauges and spans cover both stages.
//!
//! The streaming path reproduces the batch
//! [`Experiment`](sampling::Experiment) exactly: one tumbling window
//! over a whole capture yields bit-identical φ for every packet-driven
//! method (the equivalence suite in `tests/` pins this).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod pipeline;
pub mod sampler;
pub mod window;

pub use engine::{run_stream, StreamConfig, StreamError, StreamSummary, WindowReport};
pub use pipeline::{Backpressure, QUEUE_DEPTH};
pub use sampler::{ReservoirStream, SampleItem, Selector, StreamMethod};
pub use window::{WindowPayload, WindowSpec, Windower};
