//! The traced run: per-layer metrics.
//!
//! Each cycle runs every workload twice, once under a keeping
//! [`Recorder`] and once under a timing-only one; the ratio is the
//! tracing overhead. `stream-sdsc` is traced as its serial
//! decomposition (`run_stream` is one opaque call), whose output must
//! match `run_stream`'s bit for bit. Probes named *iso* replay one
//! layer's calls alone on the workload's inputs. Times are scaled to
//! the machine at rest by a probe around each workload's share of a
//! cycle (see [`crate::probe`]). Every metric is the median over cycles.

use crate::probe;
use crate::run::{Metric, Schedule};
use crate::span::Recorder;
use crate::workloads::collect::{self, Collect};
use crate::workloads::grid::{self, Grid};
use crate::workloads::ingest::{self, Ingest};
use crate::workloads::stream::{self, Stream};
use crate::workloads::{Size, Workload};
use collectd::{Collector, LaneSource};
use netsynth::{LaneConfig, LaneGen};
use nettrace::{FlowTable, Micros, PacketRecord};
use parkit::Pool;
use sampling::experiment::MethodFamily;
use sampling::FlowEstimator;
use statkit::quantile::{median, quantiles};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};
use streamkit::{WindowSpec, Windower};

/// Every per-layer metric and its unit, in report order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("nettrace.pcap_stream_ns_per_pkt", "ns/pkt"),
    ("nettrace.pcapng_strict_ns_per_pkt", "ns/pkt"),
    ("nettrace.pcapng_chunk_ns_per_pkt", "ns/pkt"),
    ("nettrace.pcapng_salvage_ns_per_pkt", "ns/pkt"),
    ("nettrace.salvage_yield", "ratio"),
    ("nettrace.allocs_per_kpkt.strict", "allocs/kpkt"),
    ("nettrace.allocs_per_kpkt.chunk", "allocs/kpkt"),
    ("nettrace.allocs_per_kpkt.salvage", "allocs/kpkt"),
    ("nettrace.flowtable_ns_per_pkt", "ns/pkt"),
    ("streamkit.windower_ns_per_pkt", "ns/pkt"),
    ("streamkit.windower_allocs_per_kpkt", "allocs/kpkt"),
    ("streamkit.pipeline_overlap_x", "x"),
    ("streamkit.lane_windower_ns_per_pkt", "ns/pkt"),
    ("sampling.select_ns_per_sel.systematic", "ns/sel"),
    ("sampling.select_ns_per_sel.stratified", "ns/sel"),
    ("sampling.select_ns_per_sel.random", "ns/sel"),
    ("sampling.select_ns_per_sel.sys-timer", "ns/sel"),
    ("sampling.select_ns_per_sel.strat-timer", "ns/sel"),
    ("sampling.cell_ms.systematic", "ms"),
    ("sampling.cell_ms.stratified", "ms"),
    ("sampling.cell_ms.random", "ms"),
    ("sampling.cell_ms.sys-timer", "ms"),
    ("sampling.cell_ms.strat-timer", "ms"),
    ("sampling.flows_cell_ms.naive", "ms"),
    ("sampling.flows_cell_ms.tail", "ms"),
    ("sampling.flows_cell_ms.em", "ms"),
    ("sampling.disparity_us_per_call", "us"),
    ("statkit.em_ms_per_call.k10", "ms"),
    ("statkit.em_ms_per_call.k100", "ms"),
    ("statkit.tail_us_per_call", "us"),
    ("statkit.naive_us_per_call", "us"),
    ("netsynth.lanegen_ns_per_pkt", "ns/pkt"),
    ("netsynth.sdsc_ns_per_pkt", "ns/pkt"),
    ("netsynth.flow_pack_ms", "ms"),
    ("collectd.finish_ms", "ms"),
    ("collectd.other_ns_per_round", "ns"),
    ("collectd.evicted_per_round", "count"),
    ("collectd.heap_kb_per_round", "kB"),
    ("parkit.jobs2_speedup_x", "x"),
    ("trace.overhead_x.stream-sdsc", "x"),
    ("trace.overhead_x.ingest-pcapng", "x"),
    ("trace.overhead_x.collect-zipf", "x"),
    ("trace.overhead_x.grid-paper", "x"),
];

/// Cycles of a `trace` run without `--seconds`.
pub const CYCLES: usize = 3;
/// Rounds the collector probe rebuilds from its layers.
const LANE_ROUNDS: u64 = 20;
/// Packets per lane chunk, as the collector pulls them.
const LANE_CHUNK: usize = 8_192;
/// Replications per family in the select probe.
const SELECT_REPS: u64 = 5;
/// The select probe's k (the paper's T3 operating point).
const SELECT_K: usize = 50;
/// Flows a stream bucket holds before the window merge truncates.
const BUCKET_FLOWS: usize = 4_096;

pub struct Traced {
    rec: Recorder,
    samples: Vec<Vec<f64>>,
    /// Readings of the current section, not yet scaled.
    pending: Vec<(usize, f64)>,
    attempted: u64,
    failures: Vec<String>,
}

impl Traced {
    fn push(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.pending.push((i, value));
    }

    /// Keep the section's readings, with times scaled by `factor`.
    fn commit(&mut self, factor: f64) {
        for (i, value) in std::mem::take(&mut self.pending) {
            let time = matches!(PER_LAYER[i].1, "ns/pkt" | "ns/sel" | "ns" | "us" | "ms");
            self.samples[i].push(if time { value * factor } else { value });
        }
    }

    /// Count one checked outcome.
    fn verify(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failures.push(format!("{what}: {why}"));
        }
    }

    fn same(&mut self, what: &str, a: u64, b: u64) {
        let outcome = if a == b {
            Ok(())
        } else {
            Err(format!("digest {a:016x} != {b:016x}"))
        };
        self.verify(what, outcome);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Every per-layer metric: the median over cycles, with quartiles.
    pub fn metrics(&self) -> Vec<(String, Metric)> {
        PER_LAYER
            .iter()
            .zip(&self.samples)
            .map(|(&(name, unit), s)| {
                let q = quantiles(s, &[0.25, 0.75]);
                let m = Metric {
                    name,
                    unit,
                    value: median(s),
                    q1: q[0],
                    q3: q[1],
                    samples: s.len(),
                };
                (name.to_string(), m)
            })
            .collect()
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for why in &self.failures {
            let _ = writeln!(out, "FAILED: {why}");
        }
        for (_, m) in self.metrics() {
            let _ = writeln!(
                out,
                "{:<40} {:>14.4} {:<11} q1 {:.4} q3 {:.4} n {}",
                m.name, m.value, m.unit, m.q1, m.q3, m.samples
            );
        }
        out
    }

    pub fn write_spans(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.rec.jsonl())
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Run `f` under the keeping recorder and under a timing-only one,
/// returning (traced, untraced). Which runs first alternates by cycle,
/// so neither side always meets a cache the other left.
fn both<T>(t: &mut Traced, cycle: u32, f: impl Fn(&mut Recorder) -> T) -> (T, T) {
    if cycle.is_multiple_of(2) {
        let traced = f(&mut t.rec);
        (traced, f(&mut Recorder::off()))
    } else {
        let untraced = f(&mut Recorder::off());
        (f(&mut t.rec), untraced)
    }
}

/// One workload's share of a cycle, between two probe readings. The
/// layer calls all run on this thread, so the probe takes one.
fn section(t: &mut Traced, f: impl FnOnce(&mut Traced)) {
    let ((), _, factor) = probe::bracket(1, || f(t));
    t.commit(factor);
}

/// The traced run over every workload.
pub fn run(seed: u64, size: Size, schedule: Schedule) -> Traced {
    let mut t = Traced {
        rec: Recorder::on(),
        samples: vec![Vec::new(); PER_LAYER.len()],
        pending: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    let stream_in = stream::Inputs::build(seed, size);
    let ingest_in = ingest::Inputs::build(seed, size);
    let collect_in = collect::Inputs::build(seed, size);
    let grid_in = grid::Inputs::build(seed, size);
    let mut stream = Stream::new(&stream_in);
    let ingest = Ingest::new(&ingest_in);
    let collect = Collect::new(&collect_in);
    let grid = Grid::new(&grid_in);
    let sdsc = nettrace::read_capture(stream_in.image.as_slice()).expect("generated capture");

    let started = Instant::now();
    let mut cycle = 0u32;
    loop {
        section(&mut t, |t| {
            stream_cycle(t, &mut stream, sdsc.packets(), size, cycle)
        });
        section(&mut t, |t| ingest_cycle(t, &ingest, &ingest_in, cycle));
        section(&mut t, |t| collect_cycle(t, &collect, cycle));
        section(&mut t, |t| grid_cycle(t, &grid, cycle));
        cycle += 1;
        if schedule.done(cycle as usize, started) {
            return t;
        }
    }
}

fn stream_cycle(
    t: &mut Traced,
    s: &mut Stream<'_>,
    packets: &[PacketRecord],
    size: Size,
    cycle: u32,
) {
    let pass = s.pass(&mut Recorder::off());
    let tr = t.rec.begin("stream-sdsc", cycle);
    let ((on_digest, on_wall), (off_digest, off_wall)) = both(t, cycle, |rec| {
        rec.span("stream.decompose", |rec| s.decompose(rec))
    });
    t.verify("stream-sdsc run_stream", pass.check);
    t.same("stream-sdsc decomposition", on_digest, pass.digest);
    t.same(
        "stream-sdsc untraced decomposition",
        off_digest,
        pass.digest,
    );

    let n = s.inputs.packets as f64;
    let (decode_ns, _, _) = t.rec.total(tr, "nettrace.next_batch");
    let (offer_ns, offer_allocs, _) = t.rec.total(tr, "streamkit.offer_slice");
    let (finish_ns, finish_allocs, _) = t.rec.total(tr, "streamkit.finish");
    let (score_ns, _, scores) = t.rec.total(tr, "sampling.disparity");
    t.push("nettrace.pcap_stream_ns_per_pkt", decode_ns as f64 / n);
    t.push(
        "streamkit.windower_ns_per_pkt",
        (offer_ns + finish_ns) as f64 / n,
    );
    t.push(
        "streamkit.windower_allocs_per_kpkt",
        (offer_allocs + finish_allocs) as f64 * 1e3 / n,
    );
    t.push(
        "sampling.disparity_us_per_call",
        score_ns as f64 / 1e3 / scores as f64,
    );
    t.push(
        "streamkit.pipeline_overlap_x",
        off_wall.as_secs_f64() / pass.wall.as_secs_f64(),
    );
    t.push(
        "trace.overhead_x.stream-sdsc",
        on_wall.as_secs_f64() / off_wall.as_secs_f64(),
    );

    // iso: the flow table alone, one bucket-sized table per window.
    let ((), d) = t.rec.span("nettrace.flowtable", |_| {
        for window in packets.chunks(stream::WINDOW as usize) {
            let mut table = FlowTable::unbounded();
            table.reserve(BUCKET_FLOWS);
            for p in window {
                table.offer(p);
            }
            table.truncate_lru(BUCKET_FLOWS);
            black_box(table.len());
        }
    });
    t.push(
        "nettrace.flowtable_ns_per_pkt",
        ns(d) / packets.len() as f64,
    );

    let (trace, d) = t.rec.span("netsynth.generate", |_| {
        netsynth::generate(
            &netsynth::TraceProfile::short(size.stream_secs),
            s.inputs.seed,
        )
    });
    t.push("netsynth.sdsc_ns_per_pkt", ns(d) / trace.len() as f64);
}

fn ingest_cycle(t: &mut Traced, ingest: &Ingest, inputs: &ingest::Inputs, cycle: u32) {
    let tr = t.rec.begin("ingest-pcapng", cycle);
    let (traced, untraced) = both(t, cycle, |rec| ingest.decode(rec));
    t.verify(
        "ingest-pcapng",
        ingest::check(inputs.packets, inputs.sections, &traced),
    );
    let digest = ingest::decoded_digest(&traced);
    t.same(
        "ingest-pcapng untraced",
        ingest::decoded_digest(&untraced),
        digest,
    );

    let n = inputs.packets as f64;
    let salvaged = traced.salvage.packets_salvaged as f64;
    let (strict_ns, strict_allocs, _) = t.rec.total(tr, "nettrace.read_capture");
    let (open_ns, open_allocs, _) = t.rec.total(tr, "nettrace.capture_stream");
    let (chunk_ns, chunk_allocs, _) = t.rec.total(tr, "nettrace.next_chunk");
    let (salvage_ns, salvage_allocs, _) = t.rec.total(tr, "nettrace.read_capture_lossy");
    t.push("nettrace.pcapng_strict_ns_per_pkt", strict_ns as f64 / n);
    t.push(
        "nettrace.pcapng_chunk_ns_per_pkt",
        (open_ns + chunk_ns) as f64 / n,
    );
    t.push(
        "nettrace.pcapng_salvage_ns_per_pkt",
        salvage_ns as f64 / salvaged,
    );
    t.push("nettrace.salvage_yield", salvaged / n);
    t.push(
        "nettrace.allocs_per_kpkt.strict",
        strict_allocs as f64 * 1e3 / n,
    );
    t.push(
        "nettrace.allocs_per_kpkt.chunk",
        (open_allocs + chunk_allocs) as f64 * 1e3 / n,
    );
    t.push(
        "nettrace.allocs_per_kpkt.salvage",
        salvage_allocs as f64 * 1e3 / salvaged,
    );
    let wall = |w: [Duration; 3]| w.iter().sum::<Duration>().as_secs_f64();
    t.push(
        "trace.overhead_x.ingest-pcapng",
        wall(traced.wall) / wall(untraced.wall),
    );
}

fn collect_cycle(t: &mut Traced, c: &Collect, cycle: u32) {
    let cfg = &c.inputs.cfg;
    let tr = t.rec.begin("collect-zipf", cycle);
    let (traced, untraced) = both(t, cycle, |rec| c.lifetime(cfg, c.pool(), rec));
    let jobs2 = c.lifetime(cfg, &Pool::new(2), &mut Recorder::off());
    t.verify("collect-zipf", collect::check(cfg, &traced.out));
    let digest = collect::output_digest(&traced.out);
    t.same(
        "collect-zipf untraced",
        collect::output_digest(&untraced.out),
        digest,
    );
    t.same(
        "collect-zipf jobs 2",
        collect::output_digest(&jobs2.out),
        digest,
    );

    let rounds = cfg.windows as f64;
    let (finish_ns, _, _) = t.rec.total(tr, "collectd.finish");
    t.push("collectd.finish_ms", finish_ns as f64 / 1e6);
    t.push(
        "collectd.evicted_per_round",
        traced.out.summary.evicted_flows as f64 / rounds,
    );
    t.push(
        "collectd.heap_kb_per_round",
        traced.heap_growth as f64 / 1e3 / rounds,
    );
    t.push(
        "parkit.jobs2_speedup_x",
        untraced.wall.as_secs_f64() / jobs2.wall.as_secs_f64(),
    );
    t.push(
        "trace.overhead_x.collect-zipf",
        traced.wall.as_secs_f64() / untraced.wall.as_secs_f64(),
    );

    // iso: the collector's rounds rebuilt from their two layers. Each
    // lane generates its window chunk by chunk and offers each chunk to
    // its budget-bound windower, lane after lane, as a shard does; then
    // each tenant's sampled flow sizes go through the estimators. Each
    // rebuilt round follows a real `run_round`, so the two see the same
    // machine and their difference is what the round adds.
    let LaneSource::Synth {
        flows_per_window,
        size_dist,
        mean_gap_us,
    } = cfg.source
    else {
        unreachable!("the collect workload uses synthetic lanes")
    };
    let mut lanes: Vec<(LaneGen, Windower)> = (0..cfg.fleet.lane_count())
        .map(|lane| {
            let gen = LaneGen::new(LaneConfig {
                seed: cfg.seed,
                lane,
                window_packets: cfg.window_packets,
                flows_per_window,
                size_dist,
                mean_gap_us,
            });
            let sampler = cfg
                .method
                .build(Micros::ZERO, Some(cfg.window_packets as usize), 0, cfg.seed)
                .expect("systematic sampler builds");
            let windower = Windower::new(
                cfg.target,
                WindowSpec::Count(cfg.window_packets),
                None,
                sampler,
            )
            .with_flow_budget(cfg.lane_flow_budget);
            (gen, windower)
        })
        .collect();
    let mut collector = Collector::new(cfg.clone()).expect("valid collector config");
    let mut chunk = Vec::with_capacity(LANE_CHUNK);
    let (mut gen_round, mut win_round, mut other) = (Vec::new(), Vec::new(), Vec::new());
    let k = collect::K as u64;
    let (mut naive_ns, mut tail_ns, mut calls) = (0.0, 0.0, 0.0);
    for _ in 0..cfg.windows.min(LANE_ROUNDS) {
        let (_, round) = t.rec.span("collectd.run_round", |_| {
            collector.run_round(c.pool()).expect("round runs")
        });
        let (mut gen_ns, mut win_ns) = (0.0, 0.0);
        let mut sizes: Vec<Vec<u64>> = Vec::new();
        for (gen, windower) in &mut lanes {
            let mut done = 0;
            while done < cfg.window_packets as usize {
                chunk.clear();
                let want = LANE_CHUNK.min(cfg.window_packets as usize - done);
                let (_, d) = t
                    .rec
                    .span("netsynth.lanegen", |_| gen.next_chunk(want, &mut chunk));
                gen_ns += ns(d);
                let (windows, d) = t.rec.span("streamkit.lane_offer_slice", |_| {
                    windower.offer_slice(&chunk)
                });
                win_ns += ns(d);
                sizes.extend(windows.into_iter().map(|w| w.sampled_sizes));
                done += want;
            }
        }
        gen_round.push(gen_ns);
        win_round.push(win_ns);
        other.push(ns(round) - gen_ns - win_ns);
        for tenant in sizes.chunks(cfg.fleet.interfaces() as usize) {
            let merged = tenant.concat();
            let (_, d) = t.rec.span("statkit.naive_scaling", |_| {
                statkit::naive_scaling(&merged, k)
            });
            naive_ns += ns(d);
            let (_, d) = t.rec.span("statkit.tail_rescale", |_| {
                statkit::tail_rescale(&merged, k)
            });
            tail_ns += ns(d);
            calls += 1.0;
        }
    }
    let round_pkts = (cfg.window_packets * u64::from(cfg.fleet.lane_count())) as f64;
    t.push(
        "netsynth.lanegen_ns_per_pkt",
        median(&gen_round) / round_pkts,
    );
    t.push(
        "streamkit.lane_windower_ns_per_pkt",
        median(&win_round) / round_pkts,
    );
    t.push("statkit.naive_us_per_call", naive_ns / 1e3 / calls);
    t.push("statkit.tail_us_per_call", tail_ns / 1e3 / calls);

    // What a round costs beyond generating and windowing its lanes,
    // paired round by round: a difference of medians taken minutes
    // apart is dominated by the machine's drift and can come out
    // negative.
    t.push("collectd.other_ns_per_round", median(&other));
}

fn grid_cycle(t: &mut Traced, g: &Grid, cycle: u32) {
    let tr = t.rec.begin("grid-paper", cycle);
    let ((traced, on_wall), (untraced, off_wall)) = both(t, cycle, |rec| g.run(rec));
    t.verify("grid-paper", grid::check(&traced));
    t.same(
        "grid-paper untraced",
        grid::phis_digest(&untraced),
        grid::phis_digest(&traced),
    );
    t.push(
        "trace.overhead_x.grid-paper",
        on_wall.as_secs_f64() / off_wall.as_secs_f64(),
    );

    let mean_ms = |rec: &Recorder, name: &str, prefix: &str| {
        let d: Vec<f64> = rec
            .named(tr, name)
            .filter(|s| s.label.starts_with(prefix))
            .map(|s| s.ns() as f64 / 1e6)
            .collect();
        d.iter().sum::<f64>() / d.len() as f64
    };
    for family in MethodFamily::paper_five() {
        let v = mean_ms(&t.rec, "sampling.cell", &format!("{}/", family.name()));
        t.push(&format!("sampling.cell_ms.{}", family.name()), v);
    }
    for estimator in FlowEstimator::all() {
        let v = mean_ms(
            &t.rec,
            "sampling.flows_cell",
            &format!("{}/", estimator.name()),
        );
        t.push(&format!("sampling.flows_cell_ms.{}", estimator.name()), v);
    }

    // iso: each family's batch selection over the timestamp column,
    // per packet it selected.
    let packets = &g.inputs.packets;
    let ts: Vec<u64> = packets.iter().map(|p| p.timestamp.as_u64()).collect();
    let mean_pps = g.experiments[0].mean_pps();
    for family in MethodFamily::paper_five() {
        let spec = family.at_granularity(SELECT_K, mean_pps);
        let (mut sel_ns, mut selected) = (0.0, 0usize);
        for rep in 0..SELECT_REPS {
            let mut sampler = spec.build(packets.len(), packets[0].timestamp, rep, g.inputs.seed);
            let (sel, d) = t.rec.labeled("sampling.select", family.name().into(), |_| {
                sampling::select_indices_ts(sampler.as_mut(), &ts)
            });
            sel_ns += ns(d);
            selected += sel.len();
        }
        t.push(
            &format!("sampling.select_ns_per_sel.{}", family.name()),
            sel_ns / selected as f64,
        );
    }

    // iso: EM on a systematic sample's flow sizes.
    for k in grid::FLOW_KS {
        let mut table = FlowTable::unbounded();
        for p in g.inputs.pack.packets().iter().step_by(k as usize) {
            table.offer(p);
        }
        let sizes = table.sizes();
        let (est, d) = t.rec.labeled("statkit.em_invert", format!("k{k}"), |_| {
            statkit::em_invert(&sizes, k)
        });
        t.verify("grid-paper em", est.map(drop).map_err(|e| e.to_string()));
        t.push(&format!("statkit.em_ms_per_call.k{k}"), ns(d) / 1e6);
    }

    let (_, d) = t.rec.span("netsynth.flow_pack", |_| {
        netsynth::generate_flow_pack(&g.inputs.pack_cfg, g.inputs.seed)
    });
    t.push("netsynth.flow_pack_ms", ns(d) / 1e6);
}
