//! `stream-sdsc`: `run_stream` over an in-memory classic-pcap image of
//! the SDSC hour, systematic 1-in-50 (the paper's T3 operating point),
//! packet-size target, 10 000-packet tumbling windows, CLI defaults.

use super::{digest, Pass, Size, Workload};
use crate::span::Recorder;
use nettrace::{CaptureStream, PacketRecord};
use sampling::{MethodSpec, Target};
use streamkit::WindowSpec;
use streamkit::{run_stream, StreamConfig, StreamMethod, StreamSummary, WindowPayload, Windower};

/// The sampling interval.
pub const K: u64 = 50;
/// Packets per tumbling window.
pub const WINDOW: u64 = 10_000;

pub struct Inputs {
    pub seed: u64,
    /// The capture image; at full size, `netsynth::sdsc_hour(seed)`.
    pub image: Vec<u8>,
    pub packets: u64,
}

impl Inputs {
    pub fn build(seed: u64, size: Size) -> Inputs {
        let trace = netsynth::generate(&netsynth::TraceProfile::short(size.stream_secs), seed);
        let mut image = Vec::new();
        nettrace::pcap::write_pcap(&mut image, &trace).expect("in-memory pcap write");
        Inputs {
            seed,
            image,
            packets: trace.len() as u64,
        }
    }
}

pub struct Stream<'a> {
    pub inputs: &'a Inputs,
    /// CLI defaults: batch 512, queue 4, blocking backpressure, serial
    /// scoring.
    pub cfg: StreamConfig,
}

impl<'a> Stream<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        let mut cfg = StreamConfig::new(
            StreamMethod::Spec(MethodSpec::Systematic {
                interval: K as usize,
            }),
            Target::PacketSize,
            WindowSpec::Count(WINDOW),
        );
        cfg.seed = inputs.seed;
        Stream { inputs, cfg }
    }

    /// What `run_stream` does, one layer call at a time on one thread:
    /// `next_batch` → `Windower::offer_slice`/`finish` → `disparity` on
    /// each window as it closes. Returns the digest `run_stream`'s
    /// summary would have.
    pub fn decompose(&self, rec: &mut Recorder) -> u64 {
        let cfg = &self.cfg;
        let mut stream = CaptureStream::new(self.inputs.image.as_slice()).expect("pcap header");
        let mut windower: Option<Windower> = None;
        let mut batch: Vec<PacketRecord> = Vec::with_capacity(cfg.batch);
        let mut words = Vec::new();
        let mut score = |rec: &mut Recorder, windows: Vec<WindowPayload>| {
            for w in windows {
                let (report, _) = rec.span("sampling.disparity", |_| {
                    sampling::disparity(&w.population, &w.sample)
                });
                words.extend(window_words(
                    w.index,
                    w.packets,
                    w.selected,
                    w.flows,
                    w.syn_flows,
                    report.map(|r| r.phi),
                ));
            }
        };
        loop {
            batch.clear();
            let (got, _) = rec.span("nettrace.next_batch", |_| {
                stream.next_batch(cfg.batch, &mut batch)
            });
            if got.expect("generated capture decodes") == 0 {
                break;
            }
            let w = windower.get_or_insert_with(|| {
                let sampler = cfg
                    .method
                    .build(batch[0].timestamp, None, cfg.replication, cfg.seed)
                    .expect("systematic sampler builds");
                Windower::new(cfg.target, cfg.window, cfg.slide, sampler)
            });
            let (windows, _) = rec.span("streamkit.offer_slice", |_| w.offer_slice(&batch));
            score(rec, windows);
        }
        let w = windower.as_mut().expect("capture holds packets");
        let (windows, _) = rec.span("streamkit.finish", |_| w.finish());
        score(rec, windows);
        digest(
            [w.packets(), w.selected(), 0]
                .into_iter()
                .chain(words.iter().copied()),
        )
    }
}

impl Workload for Stream<'_> {
    fn pass(&mut self, rec: &mut Recorder) -> Pass {
        let (summary, wall) = rec.span("streamkit.run_stream", |_| {
            run_stream(self.inputs.image.as_slice(), &self.cfg).expect("generated capture streams")
        });
        Pass {
            packets: self.inputs.packets,
            wall,
            steps: vec![wall],
            digest: summary_digest(&summary),
            check: check(self.inputs.packets, &summary),
        }
    }
}

fn window_words(
    index: u64,
    packets: u64,
    selected: u64,
    flows: u64,
    syn_flows: u64,
    phi: Option<f64>,
) -> [u64; 6] {
    [
        index,
        packets,
        selected,
        flows,
        syn_flows,
        phi.map_or(u64::MAX, f64::to_bits),
    ]
}

/// Everything the stream reports, bit for bit, except wall-clock and
/// RSS readings.
pub fn summary_digest(s: &StreamSummary) -> u64 {
    digest(
        [s.packets, s.selected, s.dropped_packets]
            .into_iter()
            .chain(s.windows.iter().flat_map(|w| {
                window_words(
                    w.index,
                    w.packets,
                    w.selected,
                    w.flows,
                    w.syn_flows,
                    w.report.map(|r| r.phi),
                )
            })),
    )
}

/// N packets in, none dropped, selections within one per window of
/// N/k, and every φ finite in [0, √2].
pub fn check(n: u64, s: &StreamSummary) -> Result<(), String> {
    if s.packets != n {
        return Err(format!("stream saw {} of {n} packets", s.packets));
    }
    if s.dropped_packets != 0 {
        return Err(format!("stream dropped {} packets", s.dropped_packets));
    }
    let windows = s.windows.len() as u64;
    if (s.selected * K).abs_diff(n) > windows * K {
        return Err(format!(
            "selected {} of {n} at 1-in-{K} over {windows} windows",
            s.selected
        ));
    }
    for w in &s.windows {
        if let Some(r) = w.report {
            if !(r.phi.is_finite() && (0.0..=std::f64::consts::SQRT_2).contains(&r.phi)) {
                return Err(format!("window {} phi {}", w.index, r.phi));
            }
        }
    }
    Ok(())
}
