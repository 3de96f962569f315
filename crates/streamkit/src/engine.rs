//! Configuration, validation, and the one-call entry point.
//!
//! [`run_stream`] validates a [`StreamConfig`], opens a
//! [`CaptureStream`] over any `Read` source, spawns the source stage
//! ([`crate::pipeline`]) and runs the lane loop on the calling thread:
//! each decoded batch goes through the [`Windower`], and each window is
//! scored with [`sampling::disparity`] the moment it closes. All
//! configuration errors surface *before* the first packet is read; a
//! mid-stream decode fault surfaces as [`StreamError::Ingest`] with the
//! byte offset of the broken structure, mirroring the salvage reader's
//! reporting.

use crate::pipeline::{source_loop, Backpressure, LiveStats, SourceMsg, QUEUE_DEPTH};
use crate::sampler::StreamMethod;
use crate::window::{WindowPayload, WindowSpec, Windower};
use nettrace::{CaptureStream, Histogram, Micros, TraceError};
use sampling::{BuildError, DisparityReport, MethodSpec, Target};
use std::io::Read;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::thread;

/// Everything `netsample stream` needs to run: the sampling method,
/// characterization target, window geometry, and runtime knobs.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Sampling method (event-driven spec or one-pass reservoir).
    pub method: StreamMethod,
    /// Characterization target for the per-window histograms.
    pub target: Target,
    /// Window extent (packets or time).
    pub window: WindowSpec,
    /// Slide stride; `None` tumbles. Must divide `window` and share
    /// its kind.
    pub slide: Option<WindowSpec>,
    /// Replication index: folded into seeds/offsets exactly like the
    /// batch `Experiment`, so stream run `r` reproduces batch run `r`.
    pub replication: u64,
    /// Base random seed.
    pub seed: u64,
    /// Packets per ingestion batch.
    pub batch: usize,
    /// Policy when the ingestion queue is full.
    pub backpressure: Backpressure,
    /// Score each window against this fixed reference instead of the
    /// window's own population. Bins must match the target's.
    pub reference: Option<Histogram>,
    /// Name of an alert rule (in obskit's global rule engine) that
    /// drives **adaptive shedding**: while `alert_active{rule=<name>}`
    /// is 1, the source stage widens its drop-newest shedding —
    /// `Block` escalates to drop-newest instead of stalling, and
    /// batches shed proactively at half queue occupancy. `None` keeps
    /// the static policy.
    pub adaptive_shed: Option<String>,
}

impl StreamConfig {
    /// A config with the defaults the CLI uses: tumbling, replication
    /// 0, seed 1993, 512-packet batches, blocking backpressure.
    #[must_use]
    pub fn new(method: StreamMethod, target: Target, window: WindowSpec) -> Self {
        StreamConfig {
            method,
            target,
            window,
            slide: None,
            replication: 0,
            seed: 1993,
            batch: 512,
            backpressure: Backpressure::Block,
            reference: None,
            adaptive_shed: None,
        }
    }

    /// The population size `N` of every full window, as the exact
    /// n-of-N simple random method needs it: the packet count of a
    /// tumbling count window. `None` for time windows and slides.
    fn window_population(&self) -> Option<usize> {
        match (self.window, self.slide) {
            (WindowSpec::Count(n), None) => usize::try_from(n).ok(),
            _ => None,
        }
    }
}

/// Why a stream run could not start or finish.
#[derive(Debug)]
pub enum StreamError {
    /// Invalid configuration (bad window geometry, simple random
    /// sampling without a tumbling count window, mismatched reference
    /// bins). A usage error for the CLI.
    Config(String),
    /// The sampling method itself is degenerate (zero interval, …).
    Build(BuildError),
    /// The capture stream failed mid-read; `offset` is the byte
    /// position of the broken structure.
    Ingest {
        /// Byte offset of the structure that failed to decode.
        offset: u64,
        /// The underlying decode/I-O error.
        error: TraceError,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Config(msg) => write!(f, "{msg}"),
            StreamError::Build(e) => write!(f, "{e}"),
            StreamError::Ingest { offset, error } => {
                write!(f, "capture stream failed at byte {offset}: {error}")
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Config(_) => None,
            StreamError::Build(e) => Some(e),
            StreamError::Ingest { error, .. } => Some(error),
        }
    }
}

impl From<BuildError> for StreamError {
    fn from(e: BuildError) -> Self {
        StreamError::Build(e)
    }
}

/// One scored window in the summary (and the JSONL sink).
#[derive(Debug, Clone, Copy)]
pub struct WindowReport {
    /// Emission sequence number.
    pub index: u64,
    /// Window grid start.
    pub start_ts: Micros,
    /// First observed packet timestamp.
    pub first_ts: Option<Micros>,
    /// Last observed packet timestamp.
    pub last_ts: Option<Micros>,
    /// Packets in the window.
    pub packets: u64,
    /// Packets the sampler selected.
    pub selected: u64,
    /// Live flows observed in the window (bounded flow table; see
    /// `streamkit::window`).
    pub flows: u64,
    /// Window flows that carried a SYN (flows that began in-window).
    pub syn_flows: u64,
    /// Packets shed by backpressure across the run so far, sampled when
    /// this window closed (cumulative, monotone across windows).
    pub shed_packets: u64,
    /// Process RSS in kB, read when the window closed and reused for up
    /// to 64 windows (0 when procfs is unavailable).
    pub rss_kb: u64,
    /// The window's disparity scores (`None` when the sample — or the
    /// reference — was empty).
    pub report: Option<DisparityReport>,
}

/// What one stream run produced.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Capture format the stream sniffed ("pcap" or "pcapng").
    pub format: &'static str,
    /// Human-readable method name.
    pub method: String,
    /// Characterization target.
    pub target: Target,
    /// Packets offered to the sampler (drops excluded).
    pub packets: u64,
    /// Packets selected across the whole stream.
    pub selected: u64,
    /// Batches shed by the `drop-newest` backpressure policy.
    pub dropped_batches: u64,
    /// Packets inside those shed batches.
    pub dropped_packets: u64,
    /// Every scored window, in emission order.
    pub windows: Vec<WindowReport>,
}

impl StreamSummary {
    /// Mean φ across windows that produced a score.
    #[must_use]
    pub fn mean_phi(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0u64;
        for w in &self.windows {
            if let Some(r) = w.report {
                sum += r.phi;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }
}

fn extent(spec: WindowSpec) -> (u64, bool) {
    match spec {
        WindowSpec::Count(n) => (n, false),
        WindowSpec::Time(t) => (t.as_u64(), true),
    }
}

/// Reject every bad configuration before the first byte is read.
fn validate(cfg: &StreamConfig) -> Result<(), StreamError> {
    let (w, w_is_time) = extent(cfg.window);
    if w == 0 {
        return Err(StreamError::Config("window must be positive".into()));
    }
    if let Some(slide) = cfg.slide {
        let (s, s_is_time) = extent(slide);
        if s == 0 {
            return Err(StreamError::Config("slide must be positive".into()));
        }
        if s_is_time != w_is_time {
            return Err(StreamError::Config(
                "window and slide must both be packet counts or both durations".into(),
            ));
        }
        if w % s != 0 {
            return Err(StreamError::Config(format!(
                "window ({}) must be a whole multiple of the slide ({})",
                cfg.window, slide
            )));
        }
        if cfg.method.is_buffered() {
            return Err(StreamError::Config(
                "reservoir sampling buffers selections until a window closes, so it needs \
                 tumbling windows; drop --slide or pick an event-driven method"
                    .into(),
            ));
        }
    }
    if matches!(
        cfg.method,
        StreamMethod::Spec(MethodSpec::SimpleRandom { .. })
    ) && cfg.window_population().is_none()
    {
        return Err(StreamError::Config(
            "simple random sampling draws exactly n of each window's N packets, so it needs \
             a tumbling packet-count --window; drop --slide and give --window a packet \
             count, or use --method reservoir"
                .into(),
        ));
    }
    if let Some(r) = &cfg.reference {
        if *r.spec() != cfg.target.bins() {
            return Err(StreamError::Config(
                "reference histogram bins do not match the target's bin spec".into(),
            ));
        }
    }
    if let Some(rule) = &cfg.adaptive_shed {
        if rule.is_empty() || !rule.bytes().all(|b| b.is_ascii_graphic()) {
            return Err(StreamError::Config(
                "adaptive-shed rule name must be nonempty graphic ASCII".into(),
            ));
        }
    }
    // Probe-build the sampler so degenerate methods fail here, not
    // mid-stream. The real build differs only in its window anchor,
    // which cannot affect fallibility.
    cfg.method.build(
        Micros::ZERO,
        cfg.window_population(),
        cfg.replication,
        cfg.seed,
    )?;
    Ok(())
}

/// Windows between two reads of the process RSS: a procfs read costs
/// far more than scoring a window.
const RSS_EVERY: usize = 64;

/// Score one window as it closes.
fn score(
    p: WindowPayload,
    reference: Option<&Histogram>,
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
        rss_kb,
        report,
    }
}

/// Run the streaming engine over `reader` to completion.
///
/// Two stages: a spawned source thread decodes the capture into
/// batches, and the calling thread windows them and scores each window
/// where it closes. Memory stays bounded by the window geometry and
/// the queue depth — the capture is never materialized. One tumbling
/// window spanning a whole capture reproduces the batch `Experiment`
/// φ bit-for-bit for every packet-driven method.
///
/// # Errors
/// [`StreamError::Config`]/[`StreamError::Build`] before any byte is
/// read; [`StreamError::Ingest`] when the capture is malformed or
/// truncated, carrying the byte offset of the broken structure.
pub fn run_stream<R: Read + Send>(
    reader: R,
    cfg: &StreamConfig,
) -> Result<StreamSummary, StreamError> {
    validate(cfg)?;
    let stream =
        CaptureStream::new(reader).map_err(|error| StreamError::Ingest { offset: 0, error })?;
    let format = stream.format();
    let population = cfg.window_population();
    // The windower (and through it the sampler) is built at the first
    // packet, whose timestamp anchors the sampling schedule exactly
    // like the batch path's `window_start`.
    let make = |window_start: Micros| {
        let sampler = cfg
            .method
            .build(window_start, population, cfg.replication, cfg.seed)
            .expect("method construction was validated before streaming");
        Windower::new(cfg.target, cfg.window, cfg.slide, sampler)
    };
    let stats = LiveStats::new();
    let (batch, policy) = (cfg.batch.max(1), cfg.backpressure);
    let shed_rule = cfg.adaptive_shed.as_deref();
    let end = thread::scope(|s| {
        let (tx, rx) = mpsc::sync_channel(QUEUE_DEPTH);
        let stats = &stats;
        s.spawn(move || source_loop(stream, tx, batch, policy, shed_rule, stats));

        let _span = obskit::span_labeled("stream_stage", &[("stage", "transform")]);
        let mut windower: Option<Windower> = None;
        let mut windows: Vec<WindowReport> = Vec::new();
        let mut rss_kb = 0;
        let mut close = |closed: Vec<WindowPayload>| {
            for p in closed {
                if windows.len().is_multiple_of(RSS_EVERY) {
                    rss_kb = obskit::telemetry::rss_kb().unwrap_or(0);
                }
                let shed = stats.shed_packets.load(Ordering::Relaxed);
                windows.push(score(p, cfg.reference.as_ref(), shed, rss_kb));
                stats.windows_scored.inc();
            }
        };
        for msg in rx {
            match msg {
                SourceMsg::Batch(pkts) => {
                    stats.depth_ingest.add(-1);
                    let Some(first) = pkts.first() else { continue };
                    let w = windower.get_or_insert_with(|| make(first.timestamp));
                    close(w.offer_slice(&pkts));
                }
                SourceMsg::Done {
                    dropped_batches,
                    dropped_packets,
                } => {
                    let (packets, selected) = match windower.as_mut() {
                        Some(w) => {
                            close(w.finish());
                            (w.packets(), w.selected())
                        }
                        None => (0, 0),
                    };
                    return Some(Ok(StreamSummary {
                        format,
                        method: cfg.method.name(),
                        target: cfg.target,
                        packets,
                        selected,
                        dropped_batches,
                        dropped_packets,
                        windows,
                    }));
                }
                SourceMsg::Fault { offset, error } => {
                    return Some(Err(StreamError::Ingest { offset, error }));
                }
            }
        }
        // The source hung up without a terminal message: it panicked,
        // and the scope re-raises that panic on exit.
        None
    });
    end.expect("the source stage ended without a terminal message")
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::pcap::write_pcap;
    use nettrace::{PacketRecord, Trace};

    fn capture(n: u64) -> Vec<u8> {
        let packets: Vec<PacketRecord> = (0..n)
            .map(|i| PacketRecord::new(Micros(i * 1_000), 40 + (i % 8) as u16 * 100))
            .collect();
        let trace = Trace::from_unordered(packets);
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace).unwrap();
        buf
    }

    fn systematic(k: usize) -> StreamMethod {
        StreamMethod::Spec(MethodSpec::Systematic { interval: k })
    }

    #[test]
    fn tumbling_run_scores_every_window() {
        let bytes = capture(1_000);
        // Simple random sampling takes N from the count window and
        // draws a fresh 20-of-200 in every window.
        let random = StreamMethod::Spec(MethodSpec::SimpleRandom { fraction: 0.1 });
        for method in [systematic(10), random] {
            let cfg = StreamConfig::new(method, Target::PacketSize, WindowSpec::Count(200));
            let summary = run_stream(bytes.as_slice(), &cfg).unwrap();
            assert_eq!(summary.format, "pcap");
            assert_eq!(summary.packets, 1_000);
            assert_eq!(summary.selected, 100);
            assert_eq!(summary.windows.len(), 5);
            for w in &summary.windows {
                assert_eq!(w.packets, 200);
                assert_eq!(w.selected, 20, "{} window {}", summary.method, w.index);
                let r = w.report.expect("scored");
                assert!(r.phi.is_finite());
            }
            assert!(summary.mean_phi().is_some());
        }
    }

    /// The engine is the direct single-thread pass: decode, window,
    /// score each window as it closes — same windows, same φ bits.
    #[test]
    fn run_stream_matches_a_direct_windower_pass() {
        let bytes = capture(3_000);
        for (window, slide) in [
            (WindowSpec::Count(100), None),
            (WindowSpec::Count(300), Some(WindowSpec::Count(100))),
            (WindowSpec::Time(Micros(250_000)), None),
        ] {
            let mut cfg = StreamConfig::new(systematic(7), Target::Interarrival, window);
            cfg.slide = slide;
            cfg.batch = 37;
            let got = run_stream(bytes.as_slice(), &cfg).unwrap();

            let trace = nettrace::read_capture(bytes.as_slice()).unwrap();
            let pkts = trace.packets();
            let sampler = cfg.method.build(pkts[0].timestamp, None, 0, 1993).unwrap();
            let mut w = Windower::new(cfg.target, window, slide, sampler);
            let mut want = w.offer_slice(pkts);
            want.extend(w.finish());
            assert_eq!(got.windows.len(), want.len(), "{window}");
            for (a, b) in got.windows.iter().zip(&want) {
                assert_eq!(
                    (a.index, a.packets, a.selected, a.flows, a.syn_flows),
                    (b.index, b.packets, b.selected, b.flows, b.syn_flows)
                );
                let phi = sampling::disparity(&b.population, &b.sample).map(|r| r.phi.to_bits());
                assert_eq!(a.report.map(|r| r.phi.to_bits()), phi, "window {}", a.index);
            }
            assert_eq!((got.packets, got.selected), (w.packets(), w.selected()));
        }
    }

    #[test]
    fn truncated_capture_reports_the_broken_byte_offset() {
        let mut bytes = capture(50);
        bytes.truncate(bytes.len() - 7);
        let cfg = StreamConfig::new(systematic(5), Target::PacketSize, WindowSpec::Count(10));
        match run_stream(bytes.as_slice(), &cfg) {
            Err(StreamError::Ingest { offset, error }) => {
                // The last record starts at 24 + 49·(16+28).
                assert_eq!(offset, 24 + 49 * 44);
                assert!(matches!(error, TraceError::TruncatedRecord { .. }));
            }
            other => panic!("expected ingest fault, got {other:?}"),
        }
    }

    #[test]
    fn empty_reader_is_a_header_fault_at_offset_zero() {
        let cfg = StreamConfig::new(systematic(5), Target::PacketSize, WindowSpec::Count(10));
        match run_stream(&[][..], &cfg) {
            Err(StreamError::Ingest { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected ingest fault, got {other:?}"),
        }
    }

    #[test]
    fn config_errors_surface_before_reading() {
        let base = |method| StreamConfig::new(method, Target::PacketSize, WindowSpec::Count(10));

        let mut cfg = base(systematic(5));
        cfg.slide = Some(WindowSpec::Count(3));
        assert!(matches!(
            run_stream(&[][..], &cfg),
            Err(StreamError::Config(_))
        ));

        let mut cfg = base(systematic(5));
        cfg.slide = Some(WindowSpec::Time(Micros(1_000)));
        assert!(matches!(
            run_stream(&[][..], &cfg),
            Err(StreamError::Config(_))
        ));

        // Simple random sampling needs N: a tumbling packet count.
        let random = StreamMethod::Spec(MethodSpec::SimpleRandom { fraction: 0.02 });
        let mut timed = base(random);
        timed.window = WindowSpec::Time(Micros(1_000));
        let mut sliding = base(random);
        sliding.slide = Some(WindowSpec::Count(5));
        for cfg in [timed, sliding] {
            match run_stream(&[][..], &cfg) {
                Err(StreamError::Config(msg)) => assert!(msg.contains("reservoir"), "{msg}"),
                other => panic!("expected config error, got {other:?}"),
            }
        }

        let mut cfg = base(StreamMethod::Reservoir { capacity: 8 });
        cfg.slide = Some(WindowSpec::Count(5));
        assert!(matches!(
            run_stream(&[][..], &cfg),
            Err(StreamError::Config(_))
        ));

        let cfg = base(systematic(0));
        assert!(matches!(
            run_stream(&[][..], &cfg),
            Err(StreamError::Build(BuildError::ZeroInterval))
        ));

        let mut cfg = base(systematic(5));
        cfg.reference = Some(Histogram::new(Target::Interarrival.bins()));
        assert!(matches!(
            run_stream(&[][..], &cfg),
            Err(StreamError::Config(_))
        ));

        let mut cfg = base(systematic(5));
        cfg.adaptive_shed = Some(String::new());
        match run_stream(&[][..], &cfg) {
            Err(StreamError::Config(msg)) => assert!(msg.contains("adaptive-shed"), "{msg}"),
            other => panic!("expected config error, got {other:?}"),
        }
    }

    #[test]
    fn reservoir_streams_without_a_population_hint() {
        let bytes = capture(500);
        let mut cfg = StreamConfig::new(
            StreamMethod::Reservoir { capacity: 20 },
            Target::PacketSize,
            WindowSpec::Count(100),
        );
        cfg.seed = 7;
        let summary = run_stream(bytes.as_slice(), &cfg).unwrap();
        assert_eq!(summary.windows.len(), 5);
        for w in &summary.windows {
            assert_eq!(w.selected, 20);
        }
        // Seed determinism end to end.
        let again = run_stream(bytes.as_slice(), &cfg).unwrap();
        for (a, b) in summary.windows.iter().zip(&again.windows) {
            assert_eq!(
                a.report.map(|r| r.phi.to_bits()),
                b.report.map(|r| r.phi.to_bits())
            );
        }
    }

    #[test]
    fn fixed_reference_scores_against_it() {
        let bytes = capture(400);
        let mut cfg = StreamConfig::new(systematic(5), Target::PacketSize, WindowSpec::Count(100));
        let own = run_stream(bytes.as_slice(), &cfg).unwrap();
        // Reference = the first window's population; later windows have
        // the same size mix here, so scores stay finite and present.
        let reference = {
            let packets: Vec<PacketRecord> = (0..100u64)
                .map(|i| PacketRecord::new(Micros(i * 1_000), 40 + (i % 8) as u16 * 100))
                .collect();
            Target::PacketSize.population_histogram(&packets)
        };
        cfg.reference = Some(reference);
        let refd = run_stream(bytes.as_slice(), &cfg).unwrap();
        assert_eq!(own.windows.len(), refd.windows.len());
        assert!(refd.windows.iter().all(|w| w.report.is_some()));
    }
}
