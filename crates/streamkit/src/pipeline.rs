//! The staged streaming runtime: source → sampler/windower → scorer.
//!
//! Three stages connected by **bounded** channels, so memory stays
//! O(queue × batch + window) no matter how large the capture is:
//!
//! ```text
//!   source thread          transform thread         main thread
//!   CaptureStream ──batches──▶ Windower ──windows──▶ scorer (parkit)
//! ```
//!
//! Backpressure at the ingestion edge is explicit policy: [`Block`]
//! (lossless; the reader stalls until the sampler catches up — the
//! right default for files) or [`DropNewest`] (a full queue sheds the
//! freshest batch and counts it — the live-capture stance, where the
//! kernel would drop anyway and an honest counter beats a silent
//! stall). Window scoring fans out over a [`parkit::Pool`]; outputs
//! are merged in window order, so any `--jobs` level is bit-identical
//! to serial.
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

use crate::engine::WindowReport;
use crate::window::{WindowPayload, Windower};
use nettrace::{CaptureStream, Histogram, Micros, PacketRecord, TraceError};
use parkit::Pool;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

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

/// Runtime knobs the engine resolves before launching the pipeline.
pub(crate) struct PipelineParams<'a> {
    pub batch: usize,
    pub queue: usize,
    pub backpressure: Backpressure,
    pub jobs: usize,
    pub reference: Option<&'a Histogram>,
    /// Alert rule whose `alert_active{rule=...}` gauge widens shedding
    /// while it fires (`None` = static backpressure policy).
    pub shed_rule: Option<&'a str>,
}

/// What the pipeline hands back to the engine.
pub(crate) struct PipelineOutput {
    pub packets: u64,
    pub selected: u64,
    pub dropped_batches: u64,
    pub dropped_packets: u64,
    pub windows: Vec<WindowReport>,
}

enum SourceMsg {
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

enum StageMsg {
    /// A completed window plus its emission instant, so the scorer can
    /// report queueing lag (`lag_us`) per window.
    Window(Box<WindowPayload>, Instant),
    Done {
        packets: u64,
        selected: u64,
        dropped_batches: u64,
        dropped_packets: u64,
    },
    Fault {
        offset: u64,
        error: TraceError,
    },
}

/// Live per-run telemetry shared across the three stages.
///
/// The obskit counters/gauges are flushed *per batch / per window*
/// (not at end of run) so a concurrent `/metrics` scrape sees them
/// move; `shed_packets` additionally keeps a run-local total so a
/// [`WindowReport`] can carry the shed count of *this* run even when
/// several runs share the process-wide registry.
struct LiveStats {
    packets: obskit::Counter,
    batches: obskit::Counter,
    shed_packets_total: obskit::Counter,
    shed_batches_total: obskit::Counter,
    stalls: obskit::Counter,
    depth_ingest: obskit::Gauge,
    depth_score: obskit::Gauge,
    windows_emitted: obskit::Counter,
    windows_scored: obskit::Counter,
    adaptive_shed: obskit::Counter,
    shed_packets: AtomicU64,
}

impl LiveStats {
    fn new() -> Arc<LiveStats> {
        obskit::global().describe(
            "stream_channel_depth",
            "Occupancy of the bounded inter-stage channels, by consuming stage.",
        );
        obskit::global().describe(
            "stream_shed_total",
            "Packets shed by the drop-newest backpressure policy.",
        );
        obskit::global().describe(
            "stream_adaptive_shed_total",
            "Packets shed because an adaptive-shed alert rule was firing.",
        );
        Arc::new(LiveStats {
            packets: obskit::counter("stream_packets_ingested_total"),
            batches: obskit::counter("stream_batches_ingested_total"),
            shed_packets_total: obskit::counter("stream_shed_total"),
            shed_batches_total: obskit::counter("stream_shed_batches_total"),
            stalls: obskit::counter("stream_backpressure_stalls_total"),
            depth_ingest: obskit::gauge_labeled("stream_channel_depth", &[("stage", "transform")]),
            depth_score: obskit::gauge_labeled("stream_channel_depth", &[("stage", "score")]),
            windows_emitted: obskit::counter("stream_windows_emitted_total"),
            windows_scored: obskit::counter("stream_windows_scored_total"),
            adaptive_shed: obskit::counter("stream_adaptive_shed_total"),
            shed_packets: AtomicU64::new(0),
        })
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
fn source_loop<R: Read>(
    mut stream: CaptureStream<R>,
    tx: SyncSender<SourceMsg>,
    batch: usize,
    queue: usize,
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
    let hiwater = i64::try_from(queue / 2).unwrap_or(i64::MAX).max(1);
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

/// Drive the windower over incoming batches and forward completed
/// windows. The windower (and through it the sampler) is built lazily
/// at the first packet, whose timestamp anchors the sampling schedule
/// exactly like the batch path's `window_start`.
fn transform_loop<F>(
    rx: mpsc::Receiver<SourceMsg>,
    tx: SyncSender<StageMsg>,
    make_windower: F,
    stats: &LiveStats,
) where
    F: FnOnce(Micros) -> Windower,
{
    let _span = obskit::span_labeled("stream_stage", &[("stage", "transform")]);
    let mut make = Some(make_windower);
    let mut windower: Option<Windower> = None;
    let mut closed = false;
    let send_window = |payload: WindowPayload| {
        stats.windows_emitted.inc();
        stats.depth_score.add(1);
        let sent = tx
            .send(StageMsg::Window(Box::new(payload), Instant::now()))
            .is_ok();
        if !sent {
            stats.depth_score.add(-1);
        }
        sent
    };
    'messages: for msg in rx {
        match msg {
            SourceMsg::Batch(pkts) => {
                stats.depth_ingest.add(-1);
                let Some(first) = pkts.first() else { continue };
                if windower.is_none() {
                    windower = Some((make.take().expect("built once"))(first.timestamp));
                }
                let w = windower.as_mut().expect("windower");
                for payload in w.offer_slice(&pkts) {
                    if !send_window(payload) {
                        closed = true;
                        break 'messages;
                    }
                }
            }
            SourceMsg::Done {
                dropped_batches,
                dropped_packets,
            } => {
                let (packets, selected) = match windower.as_mut() {
                    Some(w) => {
                        for payload in w.finish() {
                            if !send_window(payload) {
                                closed = true;
                                break 'messages;
                            }
                        }
                        (w.packets(), w.selected())
                    }
                    None => (0, 0),
                };
                let _ = tx.send(StageMsg::Done {
                    packets,
                    selected,
                    dropped_batches,
                    dropped_packets,
                });
                break;
            }
            SourceMsg::Fault { offset, error } => {
                let _ = tx.send(StageMsg::Fault { offset, error });
                break;
            }
        }
    }
    let _ = closed;
}

fn score_one(
    p: &WindowPayload,
    reference: Option<&Histogram>,
    emitted_at: Instant,
    shed_packets: u64,
    rss_kb: u64,
) -> WindowReport {
    let popref = reference.unwrap_or(&p.population);
    let report = if popref.total() == 0 {
        None
    } else {
        sampling::disparity(popref, &p.sample)
    };
    WindowReport {
        index: p.index,
        start_ts: p.start_ts,
        first_ts: p.first_ts,
        last_ts: p.last_ts,
        packets: p.packets,
        selected: p.selected,
        flows: p.flows,
        syn_flows: p.syn_flows,
        shed_packets,
        lag_us: u64::try_from(emitted_at.elapsed().as_micros()).unwrap_or(u64::MAX),
        rss_kb,
        report,
    }
}

/// Score a chunk of pending windows on the pool. `Pool::run` places
/// outputs by task index, so report order — and every bit of every φ —
/// is identical at any worker count. Telemetry fields are sampled once
/// per chunk: shed count and RSS are per-run/process facts, not
/// per-window ones, and a chunk scores within a few milliseconds.
fn score_chunk(
    pool: &Pool,
    reference: Option<&Histogram>,
    pending: &mut Vec<(WindowPayload, Instant)>,
    reports: &mut Vec<WindowReport>,
    stats: &LiveStats,
) {
    if pending.is_empty() {
        return;
    }
    let _span = obskit::span_labeled("stream_stage", &[("stage", "score")]);
    let batch = std::mem::take(pending);
    let shed = stats.shed_packets.load(Ordering::Relaxed);
    let rss_kb = obskit::telemetry::rss_kb().unwrap_or(0);
    let scored = pool
        .run(batch.len(), |i| {
            let (payload, emitted_at) = &batch[i];
            score_one(payload, reference, *emitted_at, shed, rss_kb)
        })
        .unwrap_or_else(|e| panic!("window scoring failed: {e}"));
    stats.windows_scored.add(batch.len() as u64);
    reports.extend(scored);
}

/// Windows buffered before a scoring fan-out. Small enough to keep the
/// sink responsive, large enough to amortize pool dispatch.
const SCORE_CHUNK: usize = 64;

/// Run the full pipeline to completion.
pub(crate) fn run_pipeline<R, F>(
    stream: CaptureStream<R>,
    make_windower: F,
    params: &PipelineParams<'_>,
) -> Result<PipelineOutput, (u64, TraceError)>
where
    R: Read + Send,
    F: FnOnce(Micros) -> Windower + Send,
{
    let batch = params.batch.max(1);
    let queue = params.queue.max(1);
    let policy = params.backpressure;
    let pool = Pool::new(params.jobs.max(1));
    let stats = LiveStats::new();
    thread::scope(|s| {
        let (src_tx, src_rx) = mpsc::sync_channel::<SourceMsg>(queue);
        let (win_tx, win_rx) = mpsc::sync_channel::<StageMsg>(queue);
        let src_stats = Arc::clone(&stats);
        let tf_stats = Arc::clone(&stats);
        let shed_rule = params.shed_rule;
        s.spawn(move || source_loop(stream, src_tx, batch, queue, policy, shed_rule, &src_stats));
        s.spawn(move || transform_loop(src_rx, win_tx, make_windower, &tf_stats));

        let mut pending: Vec<(WindowPayload, Instant)> = Vec::new();
        let mut reports: Vec<WindowReport> = Vec::new();
        let mut outcome: Option<Result<PipelineOutput, (u64, TraceError)>> = None;
        while let Ok(msg) = win_rx.recv() {
            match msg {
                StageMsg::Window(p, emitted_at) => {
                    stats.depth_score.add(-1);
                    pending.push((*p, emitted_at));
                    if pending.len() >= SCORE_CHUNK {
                        score_chunk(&pool, params.reference, &mut pending, &mut reports, &stats);
                    }
                }
                StageMsg::Done {
                    packets,
                    selected,
                    dropped_batches,
                    dropped_packets,
                } => {
                    outcome = Some(Ok(PipelineOutput {
                        packets,
                        selected,
                        dropped_batches,
                        dropped_packets,
                        windows: Vec::new(),
                    }));
                    break;
                }
                StageMsg::Fault { offset, error } => {
                    outcome = Some(Err((offset, error)));
                    break;
                }
            }
        }
        score_chunk(&pool, params.reference, &mut pending, &mut reports, &stats);
        // A missing outcome means a stage panicked; the scope join
        // below re-raises that panic, so this expect never fires first.
        let mut outcome = outcome.expect("pipeline ended without a terminal message");
        if let Ok(out) = outcome.as_mut() {
            out.windows = reports;
        }
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let (tx, rx) = sync_channel::<SourceMsg>(2);
        let consumer = thread::spawn(move || {
            for msg in rx {
                if matches!(msg, SourceMsg::Batch(_)) {
                    stats_sleep();
                }
            }
        });
        source_loop(stream, tx, 1, 2, policy, shed_rule, &stats);
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
        // Static Block path: 60 one-packet batches into a depth-2
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
