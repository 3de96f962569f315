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
//! **Scrape-driven adaptive control**: when the engine names a shed
//! rule ([`crate::StreamConfig::adaptive_shed`]), the source stage
//! reads the on-board alert engine's `alert_active{rule=...}` gauge
//! each batch. While the alert fires, shedding *widens*: the `Block`
//! policy escalates to drop-newest instead of stalling the reader,
//! and batches are shed proactively once the queue passes half
//! occupancy (not only when it is full). Adaptive drops are counted
//! separately in `stream_adaptive_shed_total`. The control loop is
//! entirely on-board — rule evaluation happens on the telemetry tick,
//! no external scraper in the loop.
//!
//! [`Block`]: Backpressure::Block
//! [`DropNewest`]: Backpressure::DropNewest

use nettrace::{CaptureStream, PacketRecord, TraceError};
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};

/// Depth of the source → lane channel, in batches. Also the scale of
/// the adaptive-shed high-water mark (half of it) and of the CLI's
/// built-in `stream_channel_depth` tripwire (three quarters of it).
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

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backpressure::Block => write!(f, "block"),
            Backpressure::DropNewest => write!(f, "drop-newest"),
        }
    }
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
    adaptive_shed: obskit::Counter,
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
        obskit::global().describe(
            "stream_adaptive_shed_total",
            "Packets shed because an adaptive-shed alert rule was firing.",
        );
        LiveStats {
            packets: obskit::counter("stream_packets_ingested_total"),
            batches: obskit::counter("stream_batches_ingested_total"),
            shed_packets_total: obskit::counter("stream_shed_total"),
            shed_batches_total: obskit::counter("stream_shed_batches_total"),
            stalls: obskit::counter("stream_backpressure_stalls_total"),
            depth_ingest: obskit::gauge_labeled("stream_channel_depth", &[("stage", "transform")]),
            windows_scored: obskit::counter("stream_windows_scored_total"),
            adaptive_shed: obskit::counter("stream_adaptive_shed_total"),
            shed_packets: AtomicU64::new(0),
        }
    }
}

enum SendOutcome {
    Sent,
    Dropped(u64),
    Closed,
}

/// Apply the backpressure policy to one batch send. Factored out so
/// the drop path is unit-testable without racing real threads.
fn send_with_policy(
    tx: &SyncSender<SourceMsg>,
    batch: Vec<PacketRecord>,
    policy: Backpressure,
) -> SendOutcome {
    match policy {
        Backpressure::Block => match tx.send(SourceMsg::Batch(batch)) {
            Ok(()) => SendOutcome::Sent,
            Err(_) => SendOutcome::Closed,
        },
        Backpressure::DropNewest => match tx.try_send(SourceMsg::Batch(batch)) {
            Ok(()) => SendOutcome::Sent,
            Err(TrySendError::Full(SourceMsg::Batch(b))) => SendOutcome::Dropped(b.len() as u64),
            Err(TrySendError::Full(_)) => unreachable!("only batches are try-sent"),
            Err(TrySendError::Disconnected(_)) => SendOutcome::Closed,
        },
    }
}

/// Like [`send_with_policy`] for the `Block` policy, but visible: a
/// full queue first counts a backpressure stall, then blocks.
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
    shed_rule: Option<&str>,
    stats: &LiveStats,
) {
    let _span = obskit::span_labeled("stream_stage", &[("stage", "source")]);
    // Resolve the adaptive-control gauge once; the alert engine flips
    // it on the telemetry tick, the hot loop only reads an atomic.
    let shed_gauge = shed_rule.map(|r| obskit::gauge_labeled("alert_active", &[("rule", r)]));
    // "Widened" shedding threshold: once the alert fires, shed at half
    // queue occupancy instead of waiting for a full queue.
    let hiwater = (QUEUE_DEPTH / 2) as i64;
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
                let firing = shed_gauge.as_ref().is_some_and(|g| g.get() >= 1);
                let outcome = if firing {
                    // Alert firing: widen shedding. Never stall (Block
                    // escalates to drop-newest) and shed proactively
                    // past the half-occupancy high-water mark.
                    if stats.depth_ingest.get() > hiwater {
                        SendOutcome::Dropped(buf.len() as u64)
                    } else {
                        send_with_policy(&tx, buf, Backpressure::DropNewest)
                    }
                } else {
                    match policy {
                        Backpressure::Block => send_blocking_counted(&tx, buf, stats),
                        Backpressure::DropNewest => send_with_policy(&tx, buf, policy),
                    }
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
                        if firing {
                            stats.adaptive_shed.add(shed);
                        }
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
        let (tx, rx) = sync_channel(1);
        assert!(matches!(
            send_with_policy(&tx, batch_of(3), Backpressure::Block),
            SendOutcome::Sent
        ));
        drop(rx);
        assert!(matches!(
            send_with_policy(&tx, batch_of(3), Backpressure::Block),
            SendOutcome::Closed
        ));
    }

    #[test]
    fn drop_newest_sheds_exactly_the_overflow_batch() {
        // Capacity 2, no receiver draining: the third send must drop,
        // deterministically, and report the dropped packet count.
        let (tx, _rx) = sync_channel(2);
        assert!(matches!(
            send_with_policy(&tx, batch_of(5), Backpressure::DropNewest),
            SendOutcome::Sent
        ));
        assert!(matches!(
            send_with_policy(&tx, batch_of(5), Backpressure::DropNewest),
            SendOutcome::Sent
        ));
        match send_with_policy(&tx, batch_of(7), Backpressure::DropNewest) {
            SendOutcome::Dropped(n) => assert_eq!(n, 7),
            _ => panic!("expected a drop"),
        }
    }

    #[test]
    fn drop_newest_reports_disconnect() {
        let (tx, rx) = sync_channel(2);
        drop(rx);
        assert!(matches!(
            send_with_policy(&tx, batch_of(1), Backpressure::DropNewest),
            SendOutcome::Closed
        ));
    }

    /// The shed counters are process-wide and tests run in parallel: the
    /// tests that read their deltas hold this so their runs never overlap.
    static SHED_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Drive `source_loop` against a deliberately slow consumer and
    /// return the `(stalls, shed_packets, adaptive_shed)` deltas this
    /// run contributed to the global counters.
    fn drive_source(policy: Backpressure, shed_rule: Option<&str>) -> (u64, u64, u64) {
        let stats = LiveStats::new();
        let stalls0 = stats.stalls.get();
        let shed0 = stats.shed_packets_total.get();
        let adaptive0 = stats.adaptive_shed.get();
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
            for msg in rx {
                if matches!(msg, SourceMsg::Batch(_)) {
                    stats_sleep();
                }
            }
        });
        source_loop(stream, tx, 1, policy, shed_rule, &stats);
        consumer.join().unwrap();
        (
            stats.stalls.get() - stalls0,
            stats.shed_packets_total.get() - shed0,
            stats.adaptive_shed.get() - adaptive0,
        )
    }

    fn stats_sleep() {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    #[test]
    fn adaptive_shed_reduces_block_stalls_while_alert_fires() {
        let _serial = SHED_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        // The control gauge the alert engine would normally flip.
        obskit::gauge_labeled("alert_active", &[("rule", "pipeline_test_hiwater")]).set(1);
        // Static Block path: 60 one-packet batches into the depth-4
        // queue drained at 2ms/batch must stall the reader repeatedly.
        let (stalls_static, _, adaptive_static) = drive_source(Backpressure::Block, None);
        assert!(stalls_static > 0, "static Block path must stall");
        assert_eq!(adaptive_static, 0, "no rule, no adaptive shedding");
        // Same load with the alert firing: Block escalates to
        // drop-newest, so the reader sheds instead of stalling.
        let (stalls_adaptive, shed, adaptive) =
            drive_source(Backpressure::Block, Some("pipeline_test_hiwater"));
        assert!(
            stalls_adaptive < stalls_static,
            "adaptive shed must reduce stalls ({stalls_adaptive} vs {stalls_static})"
        );
        assert!(adaptive > 0, "widened shedding must engage");
        assert!(shed >= adaptive, "adaptive drops are counted as shed too");
    }

    #[test]
    fn adaptive_shed_stays_inert_while_alert_is_clear() {
        let _serial = SHED_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        obskit::gauge_labeled("alert_active", &[("rule", "pipeline_test_quiet")]).set(0);
        let (stalls, _, adaptive) = drive_source(Backpressure::Block, Some("pipeline_test_quiet"));
        assert!(stalls > 0, "clear alert keeps the static Block policy");
        assert_eq!(adaptive, 0, "no adaptive drops while the rule is clear");
    }
}
