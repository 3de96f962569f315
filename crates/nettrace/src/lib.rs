//! # nettrace — packet record and trace substrate
//!
//! This crate provides the data model that every other crate in the
//! workspace builds on: packet records, traces with nondecreasing
//! timestamps, capture-clock models, capture file I/O, per-second
//! time series, and integer-domain histograms.
//!
//! Captures (classic pcap or pcapng) are read by one decoder,
//! [`stream::CaptureStream`], which pulls packets through a small
//! buffer and treats a malformed structure as a returned fault it can
//! resume past. The whole-capture readers are loops over it:
//! [`read_capture`] stops at the first fault, [`read_capture_lossy`]
//! records every fault and keeps what the damage did not reach.
//! Writing is classic pcap ([`pcap::write_pcap`]).
//!
//! The design follows the conventions of the SIGCOMM 1993 study this
//! workspace reproduces (Claffy, Polyzos, Braun, *Application of Sampling
//! Methodologies to Network Traffic Characterization*):
//!
//! * timestamps are in **microseconds** since the start of the trace;
//! * the capture clock of the original SDSC/E-NSS monitor had a
//!   **400 µs granularity**, modeled by [`time::ClockModel`];
//! * a trace is treated as a fixed *parent population* from which samples
//!   are drawn by the `sampling` crate.
//!
//! The crate is synchronous and allocation-conscious: a [`packet::PacketRecord`]
//! is a small `Copy` struct and a [`trace::Trace`] is a flat `Vec` of them,
//! so a one-hour, 1.6-million-packet population fits comfortably in memory
//! and iterates at cache speed.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod error;
pub mod flowtable;
pub mod histogram;
pub mod lossy;
pub mod merge;
pub mod packet;
pub mod pcap;
pub mod pcapng;
pub mod series;
pub mod stream;
pub mod time;
pub mod trace;

pub use batch::PacketBatch;
pub use error::TraceError;
pub use flowtable::{FlowKey, FlowRecord, FlowTable};
pub use histogram::{BinSpec, Histogram};
pub use lossy::{read_capture_lossy, IngestFault, IngestReport};
pub use merge::{merge, rebase, shift};
pub use packet::{PacketRecord, Protocol};
pub use series::{PerSecondSeries, SecondStats};
pub use stream::{read_capture, CaptureStream};
pub use time::{ClockModel, Micros};
pub use trace::{Trace, TraceStats};

/// Record [`read_capture`]'s metrics: packets and traffic bytes on
/// success, the malformed-record counter on failure (plus however many
/// packets parsed before a truncation).
pub(crate) fn observe_read(format: &str, result: &Result<Trace, TraceError>) {
    let labels = [("format", format)];
    match result {
        Ok(trace) => {
            obskit::counter_labeled("nettrace_packets_read_total", &labels).add(trace.len() as u64);
            obskit::counter_labeled("nettrace_bytes_read_total", &labels).add(trace.total_bytes());
        }
        Err(e) => {
            obskit::counter_labeled("nettrace_malformed_records_total", &labels).inc();
            if let TraceError::TruncatedRecord { packets_read } = e {
                obskit::counter_labeled("nettrace_packets_read_total", &labels)
                    .add(*packets_read as u64);
            }
        }
    }
}
