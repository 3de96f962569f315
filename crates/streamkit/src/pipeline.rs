//! The source stage: capture decode on its own thread, handing packet
//! batches to the lane loop over one **bounded** channel.
//!
//! ```text
//!   source thread                     calling thread (run_stream)
//!   CaptureStream ──batches (≤ 4)──▶ Windower → disparity per window
//! ```
//!
//! Memory stays O([`QUEUE_DEPTH`] × batch + window) no matter how large
//! the capture is. Decode overlaps windowing; scoring runs inline where
//! each window closes (a few µs per window), so no second hand-off is
//! needed.
//!
//! Backpressure at the ingestion edge is explicit policy: [`Block`]
//! (lossless; the reader stalls until the lane catches up — the right
//! default for files) or [`DropNewest`] (a full queue sheds the
//! freshest batch and counts it — the live-capture stance, where the
//! kernel would drop anyway and an honest counter beats a silent
//! stall).
//!
//! [`Block`]: Backpressure::Block
//! [`DropNewest`]: Backpressure::DropNewest

use nettrace::{CaptureStream, PacketRecord, TraceError};
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};

/// Depth of the source → lane channel, in batches.
pub const QUEUE_DEPTH: usize = 4;

/// Policy when the ingestion queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Stall the reader until the pipeline drains (lossless).
    #[default]
    Block,
    /// Drop the just-read batch and count it (lossy, never stalls).
    DropNewest,
}

/// What the source stage hands the lane loop.
pub(crate) enum SourceMsg {
    Batch(Vec<PacketRecord>),
    Done {
        dropped_batches: u64,
        dropped_packets: u64,
    },
    Fault {
        offset: u64,
        error: TraceError,
    },
}

/// Live per-run telemetry shared by the source stage and the lane
/// loop.
///
/// The obskit counters/gauges are flushed *per batch / per window*
/// (not at end of run) so a concurrent `/metrics` scrape sees them
/// move; `shed_packets` additionally keeps a run-local total so a
/// [`crate::WindowReport`] can carry the shed count of *this* run even
/// when several runs share the process-wide registry.
pub(crate) struct LiveStats {
    packets: obskit::Counter,
    batches: obskit::Counter,
    shed_packets_total: obskit::Counter,
    shed_batches_total: obskit::Counter,
    stalls: obskit::Counter,
    pub(crate) depth_ingest: obskit::Gauge,
    pub(crate) windows_scored: obskit::Counter,
    pub(crate) shed_packets: AtomicU64,
}

impl LiveStats {
    pub(crate) fn new() -> LiveStats {
        obskit::global().describe(
            "stream_channel_depth",
            "Occupancy of the bounded source-to-lane channel, by consuming stage.",
        );
        obskit::global().describe(
            "stream_shed_total",
            "Packets shed by the drop-newest backpressure policy.",
        );
        LiveStats {
            packets: obskit::counter("stream_packets_ingested_total"),
            batches: obskit::counter("stream_batches_ingested_total"),
            shed_packets_total: obskit::counter("stream_shed_total"),
            shed_batches_total: obskit::counter("stream_shed_batches_total"),
            stalls: obskit::counter("stream_backpressure_stalls_total"),
            depth_ingest: obskit::gauge_labeled("stream_channel_depth", &[("stage", "transform")]),
            windows_scored: obskit::counter("stream_windows_scored_total"),
            shed_packets: AtomicU64::new(0),
        }
    }
}

enum SendOutcome {
    Sent,
    Dropped(u64),
    Closed,
}

/// Send one batch under the drop-newest policy: a full queue drops it.
/// Factored out so the drop path is unit-testable without racing real
/// threads.
fn send_drop_newest(tx: &SyncSender<SourceMsg>, batch: Vec<PacketRecord>) -> SendOutcome {
    match tx.try_send(SourceMsg::Batch(batch)) {
        Ok(()) => SendOutcome::Sent,
        Err(TrySendError::Full(SourceMsg::Batch(b))) => SendOutcome::Dropped(b.len() as u64),
        Err(TrySendError::Full(_)) => unreachable!("only batches are try-sent"),
        Err(TrySendError::Disconnected(_)) => SendOutcome::Closed,
    }
}

/// Send one batch under the block policy, visibly: a full queue first
/// counts a backpressure stall, then blocks.
fn send_blocking_counted(
    tx: &SyncSender<SourceMsg>,
    batch: Vec<PacketRecord>,
    stats: &LiveStats,
) -> SendOutcome {
    match tx.try_send(SourceMsg::Batch(batch)) {
        Ok(()) => SendOutcome::Sent,
        Err(TrySendError::Full(msg)) => {
            stats.stalls.inc();
            match tx.send(msg) {
                Ok(()) => SendOutcome::Sent,
                Err(_) => SendOutcome::Closed,
            }
        }
        Err(TrySendError::Disconnected(_)) => SendOutcome::Closed,
    }
}

/// Read batches off the capture stream until EOF, fault, or a closed
/// downstream. Ingest counters, the channel-depth gauge, and shed
/// counters are flushed per batch so a live scrape sees them move.
pub(crate) fn source_loop<R: Read>(
    mut stream: CaptureStream<R>,
    tx: SyncSender<SourceMsg>,
    batch: usize,
    policy: Backpressure,
    stats: &LiveStats,
) {
    let _span = obskit::span_labeled("stream_stage", &[("stage", "source")]);
    let mut dropped_batches = 0u64;
    let mut dropped_packets = 0u64;
    loop {
        let mut buf = Vec::with_capacity(batch);
        match stream.next_batch(batch, &mut buf) {
            Ok(0) => {
                let _ = tx.send(SourceMsg::Done {
                    dropped_batches,
                    dropped_packets,
                });
                break;
            }
            Ok(n) => {
                stats.packets.add(n as u64);
                stats.batches.inc();
                obskit::telemetry::touch_ingest();
                // Inc the depth gauge *before* the send so the consumer's
                // dec never races it below zero.
                stats.depth_ingest.add(1);
                let outcome = match policy {
                    Backpressure::Block => send_blocking_counted(&tx, buf, stats),
                    Backpressure::DropNewest => send_drop_newest(&tx, buf),
                };
                match outcome {
                    SendOutcome::Sent => {}
                    SendOutcome::Dropped(shed) => {
                        stats.depth_ingest.add(-1);
                        dropped_batches += 1;
                        dropped_packets += shed;
                        stats.shed_batches_total.inc();
                        stats.shed_packets_total.add(shed);
                        stats.shed_packets.fetch_add(shed, Ordering::Relaxed);
                    }
                    SendOutcome::Closed => {
                        stats.depth_ingest.add(-1);
                        break;
                    }
                }
            }
            Err(error) => {
                let offset = stream
                    .fault_offset()
                    .unwrap_or_else(|| stream.byte_offset());
                let _ = tx.send(SourceMsg::Fault { offset, error });
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::Micros;
    use std::sync::mpsc::sync_channel;

    fn batch_of(n: usize) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::new(Micros(i as u64 * 10), 40))
            .collect()
    }

    #[test]
    fn block_policy_never_drops_but_reports_closed_channels() {
        let stats = LiveStats::new();
        let (tx, rx) = sync_channel(1);
        assert!(matches!(
            send_blocking_counted(&tx, batch_of(3), &stats),
            SendOutcome::Sent
        ));
        drop(rx);
        assert!(matches!(
            send_blocking_counted(&tx, batch_of(3), &stats),
            SendOutcome::Closed
        ));
    }

    #[test]
    fn drop_newest_sheds_exactly_the_overflow_batch() {
        // Capacity 2, no receiver draining: the third send must drop,
        // deterministically, and report the dropped packet count.
        let (tx, _rx) = sync_channel(2);
        assert!(matches!(
            send_drop_newest(&tx, batch_of(5)),
            SendOutcome::Sent
        ));
        assert!(matches!(
            send_drop_newest(&tx, batch_of(5)),
            SendOutcome::Sent
        ));
        match send_drop_newest(&tx, batch_of(7)) {
            SendOutcome::Dropped(n) => assert_eq!(n, 7),
            _ => panic!("expected a drop"),
        }
    }

    #[test]
    fn drop_newest_reports_disconnect() {
        let (tx, rx) = sync_channel(2);
        drop(rx);
        assert!(matches!(
            send_drop_newest(&tx, batch_of(1)),
            SendOutcome::Closed
        ));
    }

    /// Run `source_loop` over 60 one-packet batches into the depth-4
    /// queue, with a consumer that drains nothing until the source has
    /// met a full queue (a stall or a shed), and return its `(stalls,
    /// shed_packets)`. Both counters are detached from the global
    /// registry, so runs in other tests cannot move them.
    fn drive_source(policy: Backpressure) -> (u64, u64) {
        let mut stats = LiveStats::new();
        stats.stalls = obskit::Counter::new();
        stats.shed_packets_total = obskit::Counter::new();
        let full = [stats.stalls.clone(), stats.shed_packets_total.clone()];
        let bytes = {
            let packets: Vec<PacketRecord> = (0..60u64)
                .map(|i| PacketRecord::new(Micros(i * 10), 40))
                .collect();
            let trace = nettrace::Trace::from_unordered(packets);
            let mut buf = Vec::new();
            nettrace::pcap::write_pcap(&mut buf, &trace).unwrap();
            buf
        };
        let stream = CaptureStream::new(bytes.as_slice()).unwrap();
        let (tx, rx) = sync_channel::<SourceMsg>(QUEUE_DEPTH);
        let consumer = std::thread::spawn(move || {
            // Bounded, so a source that never meets a full queue fails
            // the asserts below instead of hanging.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while full.iter().all(|c| c.get() == 0) && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            rx.into_iter().count()
        });
        source_loop(stream, tx, 1, policy, &stats);
        consumer.join().unwrap();
        (stats.stalls.get(), stats.shed_packets_total.get())
    }

    #[test]
    fn block_stalls_and_drop_newest_sheds_at_a_full_queue() {
        let (stalls, shed) = drive_source(Backpressure::Block);
        assert!(stalls > 0, "Block must stall");
        assert_eq!(shed, 0, "Block is lossless");
        let (stalls, shed) = drive_source(Backpressure::DropNewest);
        assert_eq!(stalls, 0, "drop-newest never stalls");
        assert!(shed > 0, "drop-newest must shed");
    }
}
