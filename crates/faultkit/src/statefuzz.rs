//! State-machine fuzzing of the samplers and the disparity metric.
//!
//! Samplers are driven with `offer` sequences whose timestamps are
//! deliberately hostile — zeros, long equal runs, `u64::MAX`, huge
//! forward jumps, and non-monotone reversals — far outside the
//! "packets arrive in order" contract, because a corrupted capture can
//! hand them exactly that. The contract under fuzz: construction via
//! `try_*` never panics (degenerate parameters are typed errors),
//! offers never panic or hang, and `reset` restores bit-identical
//! behavior. [`sampling::disparity`] gets degenerate-bin histograms and
//! must keep φ finite in `[0, √2]`. The telemetry server's
//! [`obskit::parse_request_line`] gets oversized, truncated, binary,
//! and byte-mutated request lines and must reject (never panic on)
//! every malformed one, deterministically. The same contract covers the
//! two text surfaces behind that server: the `/series` query parser
//! ([`obskit::parse_series_query`]) and the alert-rule grammar
//! ([`obskit::parse_rules`]) — anything they *accept* must satisfy the
//! documented caps (step/threshold/name bounds), and everything else
//! must come back as a typed error. The flow-inversion suite gets the
//! same treatment: [`nettrace::FlowTable`] is driven with hostile flow
//! identities (id 0, `u32::MAX`, colliding ids, random SYN placement)
//! and must keep its capacity bound and packet conservation, and the
//! `statkit::inversion` estimators get degenerate sampled-size vectors
//! (empty, zeros, overflowing sizes, `k == 0`) that must come back as
//! typed [`statkit::InversionError`]s — never a panic. Finally, the
//! columnar batch path must not depend on run length: walking a
//! [`nettrace::PacketBatch`]'s timestamp column through `offer_ts_batch`
//! in random-sized runs must select bit-identical indices to runs of
//! one, even on hostile timestamps. The sharded
//! collector gets hostile fleets and knobs — tenant ids carrying the
//! forbidden `"{}\,` label bytes, non-ASCII and oversized ids, zero
//! interfaces, zero shards, degenerate window/queue/budget values, and
//! mid-stream reshard attempts — and must reject each with a typed
//! error while every accepted run conserves packets.

use crate::{Digest, Finding};
use collectd::{route, CollectError, Collector, CollectorConfig, LaneSource, RoutingPlan};
use netstat_sim::Fleet;
use netsynth::FlowSizeDist;
use nettrace::time::Micros;
use nettrace::{BinSpec, FlowTable, Histogram, PacketBatch, PacketRecord};
use parkit::Pool;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sampling::{
    disparity, select_indices, AdaptiveConfig, AdaptiveSampler, GeometricSkipSampler, Sampler,
    SimpleRandomSampler, StratifiedSampler, StratifiedTimerSampler, SystematicSampler,
    SystematicTimerSampler,
};
use sampling::{MethodSpec, Target};
use statkit::inversion::{em_invert, naive_scaling, syn_flow_count, tail_rescale};
use statkit::InversionError;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use streamkit::{
    run_stream, ReservoirStream, StreamConfig, StreamMethod, WindowPayload, WindowSpec, Windower,
};

/// State-machine fuzzing knobs.
#[derive(Debug, Clone, Copy)]
pub struct StateFuzzConfig {
    /// Master seed.
    pub seed: u64,
    /// Cases to run, spread round-robin over the seven batch samplers,
    /// the stream engine's windower and `run_stream`, the streaming
    /// reservoir, the disparity metric, the telemetry
    /// server's three text surfaces (HTTP request line, `/series`
    /// query, alert-rule grammar), the flow table, the flow-size
    /// inversion estimators, the columnar packet-batch path, and the
    /// sharded collector's fleet/routing/config surfaces.
    pub cases: u32,
}

impl Default for StateFuzzConfig {
    fn default() -> Self {
        StateFuzzConfig {
            seed: 1993,
            cases: 1_000,
        }
    }
}

/// Outcome of a state-machine fuzz run.
#[derive(Debug)]
pub struct StateFuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// Packets offered across all sampler cases.
    pub offers: u64,
    /// Classification → count, e.g. `"systematic/ok"`,
    /// `"random/rejected"`.
    pub outcomes: BTreeMap<String, u64>,
    /// Contract violations; empty on a healthy tree.
    pub findings: Vec<Finding>,
    /// Order-sensitive digest over every case's classification.
    pub digest: u64,
}

/// An adversarial timestamp sequence: mixes zero, equal runs, maximal,
/// stepped, arbitrary, and backwards timestamps.
fn hostile_packets(rng: &mut StdRng) -> Vec<PacketRecord> {
    let len = rng.random_range(0usize..=200);
    let mut prev = 0u64;
    (0..len)
        .map(|_| {
            let ts = match rng.random_range(0u8..8) {
                0 => 0,
                1 => prev, // equal run
                2 => u64::MAX,
                3 => prev.saturating_add(rng.random_range(1u64..=5_000)),
                4 => prev.saturating_add(rng.random_range(1u64..=u64::MAX / 2)), // huge jump
                5 => rng.random::<u64>(), // arbitrary (non-monotone)
                6 => prev.saturating_sub(rng.random_range(0u64..=1_000)), // backwards
                _ => prev.saturating_add(400), // the paper's clock tick
            };
            prev = ts;
            PacketRecord::new(Micros(ts), 40 + (ts % 1460) as u16)
        })
        .collect()
}

struct Fuzzer {
    outcomes: BTreeMap<String, u64>,
    findings: Vec<Finding>,
    digest: Digest,
    cases: u64,
    offers: u64,
}

impl Fuzzer {
    fn record(&mut self, source: &str, class: &str) {
        *self
            .outcomes
            .entry(format!("{source}/{class}"))
            .or_insert(0) += 1;
        self.digest.update(source.as_bytes());
        self.digest.update(class.as_bytes());
    }

    fn violation(&mut self, source: &str, detail: String) {
        let case_id = self.cases;
        self.findings.push(Finding {
            case_id,
            source: source.to_string(),
            detail,
        });
    }

    /// Drive one sampler (or a constructor rejection) through a hostile
    /// sequence twice, checking panic-freedom and reset-determinism.
    fn fuzz_sampler(
        &mut self,
        source: &str,
        sampler: Result<Box<dyn Sampler>, String>,
        rng: &mut StdRng,
    ) {
        let mut sampler = match sampler {
            Ok(s) => s,
            Err(_) => {
                self.record(source, "rejected");
                return;
            }
        };
        let packets = hostile_packets(rng);
        self.offers += 2 * packets.len() as u64;
        let outcome = catch_unwind(AssertUnwindSafe(move || {
            let first = select_indices(&mut *sampler, &packets);
            sampler.reset();
            let second = select_indices(&mut *sampler, &packets);
            (first, second, packets.len())
        }));
        match outcome {
            Err(panic) => {
                let msg = crate::panic_message(&*panic);
                self.violation(source, format!("sampler panicked: {msg}"));
                self.record(source, "panic");
            }
            Ok((first, second, offered)) => {
                if first != second {
                    self.violation(
                        source,
                        format!(
                            "reset is not deterministic: {} vs {} selections",
                            first.len(),
                            second.len()
                        ),
                    );
                }
                if first.len() > offered {
                    self.violation(
                        source,
                        format!("selected {} of {} offered", first.len(), offered),
                    );
                }
                self.record(source, "ok");
                self.digest.update_u64(first.len() as u64);
            }
        }
    }

    /// Drive the streaming reservoir through a hostile offer schedule:
    /// adversarial timestamps plus adversarial window-local gaps (the
    /// engine never hands it `Some(u64::MAX)`, a corrupted window
    /// boundary computation might). Contracts: holds exactly
    /// `min(capacity, offered)`, same seed ⇒ bit-identical flush, and a
    /// flushed reservoir starts the next window from a clean count.
    fn fuzz_reservoir_stream(&mut self, rng: &mut StdRng) {
        let capacity = rng.random_range(1usize..=100);
        let seed = rng.random::<u64>();
        let packets = hostile_packets(rng);
        let gaps: Vec<Option<u64>> = packets
            .iter()
            .map(|_| match rng.random_range(0u8..4) {
                0 => None,
                1 => Some(0),
                2 => Some(u64::MAX),
                _ => Some(rng.random_range(0u64..=10_000)),
            })
            .collect();
        self.offers += 3 * packets.len() as u64;
        let offered = packets.len();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let drive = |r: &mut ReservoirStream| {
                for (p, g) in packets.iter().zip(&gaps) {
                    r.offer(p, *g);
                }
                let held = r.held();
                let keys: Vec<(Micros, u16, Option<u64>)> = r
                    .flush()
                    .iter()
                    .map(|item| (item.packet.timestamp, item.packet.size, item.gap_us))
                    .collect();
                (held, keys)
            };
            let mut a = ReservoirStream::new(capacity, seed);
            let mut b = ReservoirStream::new(capacity, seed);
            let (held, first) = drive(&mut a);
            let (_, twin) = drive(&mut b);
            let (held_reused, _) = drive(&mut a);
            (held, first, twin, held_reused)
        }));
        match outcome {
            Err(panic) => {
                let msg = crate::panic_message(&*panic);
                self.violation("reservoir_stream", format!("panicked: {msg}"));
                self.record("reservoir_stream", "panic");
            }
            Ok((held, first, twin, held_reused)) => {
                let want = capacity.min(offered);
                if held != want {
                    self.violation(
                        "reservoir_stream",
                        format!("held {held} of {offered} offered with capacity {capacity}"),
                    );
                }
                if first.len() != held {
                    self.violation(
                        "reservoir_stream",
                        format!("flushed {} but held {held}", first.len()),
                    );
                }
                if first != twin {
                    self.violation(
                        "reservoir_stream",
                        format!(
                            "same seed diverged: {} vs {} items",
                            first.len(),
                            twin.len()
                        ),
                    );
                }
                if held_reused != want {
                    self.violation(
                        "reservoir_stream",
                        format!("after flush held {held_reused}, want {want}"),
                    );
                }
                self.record("reservoir_stream", "ok");
                self.digest.update_u64(first.len() as u64);
                for (ts, _, _) in &first {
                    self.digest.update_u64(ts.as_u64());
                }
            }
        }
    }

    /// Drive the stream engine's window state machine — a [`Windower`]
    /// over hostile flow packets (equal, backwards and huge-gap
    /// timestamps) with a random method (event-driven specs, `random`
    /// with N = the window, reservoir), count or time windows, tumbling
    /// or sliding, with or without a flow budget. Contracts: no panic;
    /// `offer_slice` at a random chunking equals runs of one;
    /// tumbling windows' packets sum to the offered count; every window
    /// has `selected ≤ packets` and flows within the budget; φ is
    /// finite in [0, √2]; and when the packets fit a pcap and the
    /// budget is the default, [`run_stream`] over their capture yields
    /// the direct windower's (index, packets, selected, flows, φ bits).
    fn fuzz_stream(&mut self, rng: &mut StdRng) {
        /// First timestamp a classic pcap's 32-bit seconds cannot hold.
        const PCAP_TS_LIMIT: u64 = (u32::MAX as u64 + 1) * 1_000_000;
        let mut packets = hostile_flow_packets(rng);
        if rng.random_range(0u8..3) != 0 {
            for p in &mut packets {
                p.timestamp = Micros(p.timestamp.as_u64() % PCAP_TS_LIMIT);
            }
        }
        let pcap_ok = packets.iter().all(|p| p.timestamp.as_u64() < PCAP_TS_LIMIT);
        let target = [Target::PacketSize, Target::Interarrival][rng.random_range(0usize..2)];
        let k = rng.random_range(1usize..=20);
        let method = match rng.random_range(0u8..6) {
            0 => StreamMethod::Spec(MethodSpec::Systematic { interval: k }),
            1 => StreamMethod::Spec(MethodSpec::StratifiedRandom { bucket: k }),
            2 => StreamMethod::Spec(MethodSpec::SystematicTimer {
                period: Micros(hostile_period(rng)),
            }),
            3 => StreamMethod::Spec(MethodSpec::StratifiedTimer {
                period: Micros(hostile_period(rng)),
            }),
            4 => StreamMethod::Spec(MethodSpec::SimpleRandom {
                fraction: 1.0 / k as f64,
            }),
            _ => StreamMethod::Reservoir { capacity: k },
        };
        // As `run_stream` requires: simple random sampling takes N from
        // a tumbling count window, and the reservoir needs tumbling.
        let random = matches!(method, StreamMethod::Spec(MethodSpec::SimpleRandom { .. }));
        let time = !random && rng.random_range(0u8..2) == 0;
        let stride = match (time, rng.random_range(0u8..3)) {
            (false, _) => rng.random_range(1u64..=64),
            (true, 0) => 1,
            (true, 1) => rng.random_range(1u64..=20_000),
            (true, _) => rng.random_range(1u64..=u64::MAX / 8),
        };
        let buckets = if random || method.is_buffered() {
            1
        } else {
            rng.random_range(1u64..=4)
        };
        let spec = |n| {
            if time {
                WindowSpec::Time(Micros(n))
            } else {
                WindowSpec::Count(n)
            }
        };
        let (window, slide) = (spec(stride * buckets), (buckets > 1).then(|| spec(stride)));
        let population = (!time && buckets == 1).then_some(stride as usize);
        let budget = (rng.random_range(0u8..3) == 0).then(|| rng.random_range(1usize..=16));
        let (seed, chunk) = (rng.random::<u64>(), rng.random_range(1usize..=64));
        let anchor = packets.first().map_or(Micros::ZERO, |p| p.timestamp);
        let build = || {
            let sampler = method.build(anchor, population, 0, seed).ok()?;
            let w = Windower::new(target, window, slide, sampler);
            Some(match budget {
                Some(b) => w.with_flow_budget(b),
                None => w,
            })
        };
        let (Some(mut one), Some(mut sliced)) = (build(), build()) else {
            self.record("stream", "rejected");
            return;
        };
        self.offers += 2 * packets.len() as u64;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut singles: Vec<WindowPayload> = packets
                .iter()
                .flat_map(|p| one.offer_slice(std::slice::from_ref(p)))
                .collect();
            singles.extend(one.finish());
            let mut chunked: Vec<WindowPayload> = packets
                .chunks(chunk)
                .flat_map(|c| sliced.offer_slice(c))
                .collect();
            chunked.extend(sliced.finish());
            let engine = (pcap_ok && budget.is_none()).then(|| {
                let mut bytes = Vec::new();
                nettrace::pcap::write_pcap_header(&mut bytes).expect("in-memory write");
                for p in &packets {
                    nettrace::pcap::write_pcap_record(&mut bytes, p).expect("in-memory write");
                }
                let mut cfg = StreamConfig::new(method, target, window);
                (cfg.slide, cfg.seed, cfg.batch) = (slide, seed, chunk);
                run_stream(bytes.as_slice(), &cfg).map_err(|e| e.to_string())
            });
            (singles, chunked, one.packets(), engine)
        }));
        let (windows, chunked, offered, engine) = match outcome {
            Ok(v) => v,
            Err(panic) => {
                let msg = crate::panic_message(&*panic);
                self.violation("stream", format!("panicked: {msg}"));
                self.record("stream", "panic");
                return;
            }
        };
        let mut problems = Vec::new();
        // Payloads carry no floats, so their debug text is exact.
        if format!("{windows:?}") != format!("{chunked:?}") {
            problems.push(format!(
                "offer_slice at chunk {chunk} diverged from runs of one"
            ));
        }
        let held: u64 = windows.iter().map(|w| w.packets).sum();
        if offered != packets.len() as u64 || (slide.is_none() && held != offered) {
            problems.push(format!(
                "{} offered, {offered} counted, {held} in windows",
                packets.len()
            ));
        }
        let cap = budget.map_or(u64::MAX, |b| b as u64);
        let mut direct = Vec::with_capacity(windows.len());
        for w in &windows {
            let sampled = w.sampled_sizes.len() as u64;
            if w.selected > w.packets
                || w.flows > w.packets.min(cap)
                || sampled > w.selected.min(cap)
            {
                problems.push(format!(
                    "window {}: {} of {} selected, {} flows, {sampled} sampled, budget {cap}",
                    w.index, w.selected, w.packets, w.flows
                ));
            }
            let phi = (w.population.total() > 0)
                .then(|| disparity(&w.population, &w.sample))
                .flatten()
                .map(|r| r.phi);
            if phi.is_some_and(|phi| !(0.0..=std::f64::consts::SQRT_2).contains(&phi)) {
                problems.push(format!("window {}: φ = {phi:?}", w.index));
            }
            direct.push((
                w.index,
                w.packets,
                w.selected,
                w.flows,
                phi.map(f64::to_bits),
            ));
        }
        match engine {
            Some(Ok(summary)) => {
                let streamed = summary.windows.iter().map(|w| {
                    let phi = w.report.map(|r| r.phi.to_bits());
                    (w.index, w.packets, w.selected, w.flows, phi)
                });
                if streamed.ne(direct.iter().copied()) {
                    problems.push("run_stream diverged from the direct windower".to_string());
                }
            }
            Some(Err(e)) => problems.push(format!("run_stream failed: {e}")),
            None => {}
        }
        for p in problems {
            self.violation("stream", p);
        }
        self.record("stream", "ok");
        self.digest.update_u64(direct.len() as u64);
        for (_, packets, selected, _, phi) in direct {
            self.digest.update_u64(packets);
            self.digest.update_u64(selected);
            self.digest.update_u64(phi.unwrap_or(u64::MAX));
        }
    }

    fn fuzz_disparity(&mut self, rng: &mut StdRng) {
        // Degenerate-prone bins: 1–4 edges over a tiny value domain so
        // empty and impossible bins occur constantly.
        let edge_count = rng.random_range(1usize..=4);
        let mut edges: Vec<u64> = (0..edge_count)
            .map(|_| rng.random_range(1u64..=40))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let bins = edges.len() + 1;
        let draw_counts = |rng: &mut StdRng, bins: usize| -> Vec<u64> {
            (0..bins)
                .map(|_| match rng.random_range(0u8..4) {
                    0 => 0,
                    1 => rng.random_range(0u64..3),
                    _ => rng.random_range(0u64..2_000),
                })
                .collect()
        };
        let mut pop = draw_counts(rng, bins);
        if pop.iter().all(|&c| c == 0) {
            pop[0] = 1; // contract: population must be nonempty
        }
        let sam = draw_counts(rng, bins);
        let fill = |counts: &[u64], edges: &[u64]| {
            Histogram::from_values(
                BinSpec::Edges(edges.to_vec()),
                counts.iter().enumerate().flat_map(|(i, &c)| {
                    // A value inside bin i: below the first edge, or at
                    // the previous edge.
                    let v = if i == 0 { 0 } else { edges[i - 1] };
                    std::iter::repeat_n(v, c as usize)
                }),
            )
        };
        let sample_total: u64 = sam.iter().sum();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            disparity(&fill(&pop, &edges), &fill(&sam, &edges))
                .map(|r| (r.phi, r.chi2, r.significance))
        }));
        match outcome {
            Err(panic) => {
                let msg = crate::panic_message(&*panic);
                self.violation("disparity", format!("panicked on {pop:?}/{sam:?}: {msg}"));
                self.record("disparity", "panic");
            }
            Ok(None) => {
                if sample_total != 0 {
                    self.violation(
                        "disparity",
                        format!("returned None for nonempty sample {sam:?}"),
                    );
                }
                self.record("disparity", "empty_sample");
            }
            Ok(Some((phi, chi2, significance))) => {
                if !phi.is_finite() || !(0.0..=std::f64::consts::SQRT_2 + 1e-9).contains(&phi) {
                    self.violation(
                        "disparity",
                        format!("phi {phi} outside [0, sqrt(2)] for {pop:?}/{sam:?}"),
                    );
                }
                if !chi2.is_finite() || chi2 < 0.0 {
                    self.violation("disparity", format!("chi2 {chi2} for {pop:?}/{sam:?}"));
                }
                if !(0.0..=1.0).contains(&significance) {
                    self.violation(
                        "disparity",
                        format!("significance {significance} for {pop:?}/{sam:?}"),
                    );
                }
                self.record("disparity", "ok");
                self.digest.update_u64(phi.to_bits());
            }
        }
    }

    /// Feed the telemetry server's request-line parser one hostile line:
    /// never panics, parses deterministically, and anything it *accepts*
    /// satisfies the documented method/path/version shape.
    fn fuzz_http_request(&mut self, rng: &mut StdRng) {
        let raw = hostile_request_line(rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            (
                obskit::parse_request_line(&raw),
                obskit::parse_request_line(&raw),
            )
        }));
        match outcome {
            Err(panic) => {
                let msg = crate::panic_message(&*panic);
                self.violation(
                    "http_request",
                    format!("parser panicked on {} bytes: {msg}", raw.len()),
                );
                self.record("http_request", "panic");
            }
            Ok((first, second)) => {
                if first != second {
                    self.violation(
                        "http_request",
                        format!("parse is not deterministic on {} bytes", raw.len()),
                    );
                }
                match first {
                    Ok(req) => {
                        let method_ok = !req.method.is_empty()
                            && req.method.len() <= 16
                            && req.method.bytes().all(|b| b.is_ascii_uppercase());
                        let path_ok = req.path.starts_with('/')
                            && req.path.len() <= 2048
                            && req.path.bytes().all(|b| b.is_ascii_graphic());
                        let version_ok = req.version == "HTTP/1.0" || req.version == "HTTP/1.1";
                        if !(method_ok && path_ok && version_ok) {
                            self.violation(
                                "http_request",
                                format!("accepted a malformed line as {req:?}"),
                            );
                        }
                        self.record("http_request", "ok");
                        self.digest.update(req.path.as_bytes());
                    }
                    Err(e) => {
                        self.record("http_request", "rejected");
                        self.digest.update(e.to_string().as_bytes());
                    }
                }
            }
        }
    }

    /// Feed the `/series` query parser one hostile query string: never
    /// panics, parses deterministically, and anything *accepted* stays
    /// inside the documented caps.
    fn fuzz_series_query(&mut self, rng: &mut StdRng) {
        let raw = hostile_series_query(rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            (
                obskit::parse_series_query(&raw),
                obskit::parse_series_query(&raw),
            )
        }));
        match outcome {
            Err(panic) => {
                let msg = crate::panic_message(&*panic);
                self.violation(
                    "series_query",
                    format!("parser panicked on {} bytes: {msg}", raw.len()),
                );
                self.record("series_query", "panic");
            }
            Ok((first, second)) => {
                if first != second {
                    self.violation(
                        "series_query",
                        format!("parse is not deterministic on {} bytes", raw.len()),
                    );
                }
                match first {
                    Ok(q) => {
                        let step_ok = (1..=1_000_000).contains(&q.step);
                        let name_ok = q.name.as_deref().is_none_or(|n| {
                            !n.is_empty()
                                && n.len() <= 256
                                && n.bytes().all(|b| b.is_ascii_graphic())
                        });
                        if !(step_ok && name_ok) {
                            self.violation(
                                "series_query",
                                format!("accepted an out-of-cap query as {q:?}"),
                            );
                        }
                        self.record("series_query", "ok");
                        self.digest.update_u64(q.step as u64);
                        self.digest.update_u64(q.since_us);
                    }
                    Err(e) => {
                        self.record("series_query", "rejected");
                        self.digest.update(e.to_string().as_bytes());
                    }
                }
            }
        }
    }

    /// Feed the alert-rule grammar one hostile document: never panics,
    /// parses deterministically, and every *accepted* rule satisfies
    /// the name/threshold/hysteresis caps with set-unique names.
    fn fuzz_rule_grammar(&mut self, rng: &mut StdRng) {
        let raw = hostile_rules_doc(rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            (obskit::parse_rules(&raw), obskit::parse_rules(&raw))
        }));
        match outcome {
            Err(panic) => {
                let msg = crate::panic_message(&*panic);
                self.violation(
                    "rule_grammar",
                    format!("parser panicked on {} bytes: {msg}", raw.len()),
                );
                self.record("rule_grammar", "panic");
            }
            Ok((first, second)) => {
                if first != second {
                    self.violation(
                        "rule_grammar",
                        format!("parse is not deterministic on {} bytes", raw.len()),
                    );
                }
                match first {
                    Ok(rules) => {
                        for r in &rules {
                            let name_ok = !r.name.is_empty()
                                && r.name.len() <= 64
                                && r.name
                                    .bytes()
                                    .all(|b| b.is_ascii_alphanumeric() || b == b'_');
                            let caps_ok = r.threshold.is_finite()
                                && (1..=10_000).contains(&r.for_ticks)
                                && r.metric.bytes().all(|b| b.is_ascii_graphic());
                            if !(name_ok && caps_ok) {
                                self.violation(
                                    "rule_grammar",
                                    format!("accepted an out-of-cap rule as {r:?}"),
                                );
                            }
                        }
                        let mut names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
                        names.sort_unstable();
                        names.dedup();
                        if names.len() != rules.len() || rules.len() > 256 {
                            self.violation(
                                "rule_grammar",
                                format!("accepted {} rules with duplicate names", rules.len()),
                            );
                        }
                        self.record("rule_grammar", "ok");
                        self.digest.update_u64(rules.len() as u64);
                        for r in &rules {
                            self.digest.update(r.name.as_bytes());
                        }
                    }
                    Err(e) => {
                        self.record("rule_grammar", "rejected");
                        self.digest.update_u64(e.line as u64);
                        self.digest.update(e.reason.as_bytes());
                    }
                }
            }
        }
    }

    /// Drive the flow table's one eviction policy through a hostile
    /// packet stream — the adversarial timestamps of
    /// [`hostile_packets`] decorated with adversarial flow identities —
    /// aggregated in one pass and as a merge of halves, each then cut
    /// to a budget by `truncate_lru`. Contracts: no panic; both cuts
    /// keep the same flows and count the same evictions; the survivors
    /// are the `cap` largest `(last_ts, key)` of the full grouping with
    /// unchanged records; and packet conservation (live + evicted ==
    /// offered).
    fn fuzz_flow_table(&mut self, rng: &mut StdRng) {
        let cap = rng.random_range(1usize..=64);
        let packets = hostile_flow_packets(rng);
        self.offers += 2 * packets.len() as u64;
        let offered = packets.len() as u64;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let whole = FlowTable::from_packets(&packets);
            let mut one_pass = whole.clone();
            one_pass.truncate_lru(cap);
            let mid = packets.len() / 2;
            let mut merged = FlowTable::from_packets(&packets[..mid]);
            merged.merge(&FlowTable::from_packets(&packets[mid..]));
            merged.truncate_lru(cap);
            (whole, one_pass, merged)
        }));
        match outcome {
            Err(panic) => {
                let msg = crate::panic_message(&*panic);
                self.violation(
                    "flow_table",
                    format!("panicked on {offered} packets with capacity {cap}: {msg}"),
                );
                self.record("flow_table", "panic");
            }
            Ok((whole, one_pass, merged)) => {
                let snapshot = |t: &FlowTable| t.flows().map(|(k, r)| (*k, *r)).collect::<Vec<_>>();
                let counters =
                    |t: &FlowTable| (t.offered(), t.evicted_flows(), t.evicted_packets());
                if snapshot(&merged) != snapshot(&one_pass)
                    || counters(&merged) != counters(&one_pass)
                {
                    self.violation(
                        "flow_table",
                        format!(
                            "merge of halves then truncate diverged from one pass: {} vs {} flows",
                            merged.len(),
                            one_pass.len()
                        ),
                    );
                }
                let mut ranked = snapshot(&whole);
                ranked.sort_unstable_by_key(|&(k, r)| (r.last_ts, k));
                let cut = ranked.len().saturating_sub(cap);
                let mut survivors = ranked.split_off(cut);
                survivors.sort_unstable_by_key(|&(k, _)| k);
                if snapshot(&one_pass) != survivors || one_pass.evicted_flows() != cut as u64 {
                    self.violation(
                        "flow_table",
                        format!(
                            "kept {} flows, not the {} most recently updated of {}",
                            one_pass.len(),
                            survivors.len(),
                            whole.len()
                        ),
                    );
                }
                if one_pass.offered() != offered
                    || one_pass.live_packets() + one_pass.evicted_packets() != offered
                {
                    self.violation(
                        "flow_table",
                        format!(
                            "lost packets: {} live + {} evicted of {offered} offered",
                            one_pass.live_packets(),
                            one_pass.evicted_packets()
                        ),
                    );
                }
                self.record("flow_table", "ok");
                self.digest.update_u64(one_pass.len() as u64);
                self.digest.update_u64(one_pass.evicted_packets());
                self.digest.update_u64(whole.syn_flows());
            }
        }
    }

    /// Feed the flow-size inversion estimators one hostile input:
    /// degenerate sampled-size vectors (empty, zero sizes, sizes whose
    /// rescaling overflows `u64`) under degenerate intervals (`k == 0`,
    /// `u64::MAX`). Contracts: typed errors — never a panic — with the
    /// documented error for each recognized degenerate shape, equal
    /// results on a second run, and every *accepted* estimate carries
    /// finite positive weights on strictly increasing parent sizes.
    fn fuzz_flow_inversion(&mut self, rng: &mut StdRng) {
        let sampled = hostile_sampled_sizes(rng);
        let k = hostile_interval(rng);
        let run = || {
            (
                naive_scaling(&sampled, k),
                tail_rescale(&sampled, k),
                em_invert(&sampled, k),
                syn_flow_count(sampled.len() as u64, k),
            )
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| (run(), run())));
        match outcome {
            Err(panic) => {
                let msg = crate::panic_message(&*panic);
                self.violation(
                    "flow_inversion",
                    format!(
                        "estimator panicked on {} sizes with k={k}: {msg}",
                        sampled.len()
                    ),
                );
                self.record("flow_inversion", "panic");
            }
            Ok((first, second)) => {
                if first != second {
                    self.violation(
                        "flow_inversion",
                        format!("estimators are not deterministic for k={k}"),
                    );
                }
                let (naive, tail, em, syn) = first;
                if k == 0 && naive != Err(InversionError::ZeroInterval) {
                    self.violation(
                        "flow_inversion",
                        "k=0 must map to InversionError::ZeroInterval".to_string(),
                    );
                }
                if k > 0 && sampled.is_empty() && naive != Err(InversionError::Empty) {
                    self.violation(
                        "flow_inversion",
                        "empty input must map to InversionError::Empty".to_string(),
                    );
                }
                let mut accepted = 0u32;
                for (name, est) in [("naive", &naive), ("tail", &tail), ("em", &em)] {
                    match est {
                        Ok(e) => {
                            accepted += 1;
                            let sizes_ok = e.points.windows(2).all(|w| w[0].0 < w[1].0);
                            let weights_ok = e
                                .points
                                .iter()
                                .all(|&(s, w)| s > 0 && w.is_finite() && w > 0.0);
                            let total_ok = e.total_flows.is_finite() && e.total_flows > 0.0;
                            if !(sizes_ok && weights_ok && total_ok) {
                                self.violation(
                                    "flow_inversion",
                                    format!("{name} accepted a malformed estimate for k={k}"),
                                );
                            }
                            self.digest.update_u64(e.total_flows.to_bits());
                        }
                        Err(e) => self.digest.update(e.to_string().as_bytes()),
                    }
                }
                match syn {
                    Ok(v) => {
                        if !(v.is_finite() && v >= 0.0) {
                            self.violation("flow_inversion", format!("syn count {v} for k={k}"));
                        }
                        self.digest.update_u64(v.to_bits());
                    }
                    Err(e) => self.digest.update(e.to_string().as_bytes()),
                }
                self.record(
                    "flow_inversion",
                    if accepted > 0 { "ok" } else { "rejected" },
                );
            }
        }
    }

    /// Drive one sampler through the columnar batch path: walking a
    /// [`PacketBatch`]'s timestamp column through `offer_ts_batch` in
    /// random-sized runs must select exactly the indices runs of one
    /// select, at any seam, even on hostile timestamps. Selections that
    /// do not depend on how the stream is cut into runs are what lets
    /// the grid, `stream` and `serve` share one decision path.
    fn fuzz_packet_batch(&mut self, rng: &mut StdRng) {
        let sampler: Result<Box<dyn Sampler>, String> = match rng.random_range(0u8..6) {
            0 => SystematicSampler::try_with_offset(
                rng.random_range(0usize..=1_000),
                rng.random_range(0usize..=1_050),
            )
            .map(|s| Box::new(s) as Box<dyn Sampler>)
            .map_err(|e| e.to_string()),
            1 => StratifiedSampler::try_new(rng.random_range(0usize..=1_000), rng.random::<u64>())
                .map(|s| Box::new(s) as Box<dyn Sampler>)
                .map_err(|e| e.to_string()),
            2 => SimpleRandomSampler::try_new(
                rng.random_range(0usize..=5_000),
                rng.random_range(0usize..=5_500),
                rng.random::<u64>(),
            )
            .map(|s| Box::new(s) as Box<dyn Sampler>)
            .map_err(|e| e.to_string()),
            3 => {
                GeometricSkipSampler::try_new(rng.random_range(0usize..=1_000), rng.random::<u64>())
                    .map(|s| Box::new(s) as Box<dyn Sampler>)
                    .map_err(|e| e.to_string())
            }
            4 => SystematicTimerSampler::try_new(
                Micros(hostile_period(rng)),
                Micros(rng.random::<u64>()),
            )
            .map(|s| Box::new(s) as Box<dyn Sampler>)
            .map_err(|e| e.to_string()),
            _ => StratifiedTimerSampler::try_new(
                Micros(hostile_period(rng)),
                Micros(rng.random::<u64>()),
                rng.random::<u64>(),
            )
            .map(|s| Box::new(s) as Box<dyn Sampler>)
            .map_err(|e| e.to_string()),
        };
        let mut sampler = match sampler {
            Ok(s) => s,
            Err(_) => {
                self.record("packet_batch", "rejected");
                return;
            }
        };
        let packets = hostile_packets(rng);
        let chunk = rng.random_range(1usize..=64);
        self.offers += 2 * packets.len() as u64;
        let outcome = catch_unwind(AssertUnwindSafe(move || {
            let batch = PacketBatch::from_records(&packets);
            let mut walk = |run: usize| {
                sampler.reset();
                let mut out = Vec::new();
                let mut base = 0usize;
                for ts in batch.ts.chunks(run) {
                    sampler.offer_ts_batch(base, ts, &mut out);
                    base += ts.len();
                }
                out
            };
            (walk(1), walk(chunk), packets.len())
        }));
        match outcome {
            Err(panic) => {
                let msg = crate::panic_message(&*panic);
                self.violation("packet_batch", format!("batch path panicked: {msg}"));
                self.record("packet_batch", "panic");
            }
            Ok((singles, batched, offered)) => {
                if singles != batched {
                    self.violation(
                        "packet_batch",
                        format!(
                            "runs of {chunk} diverged from runs of one: {} vs {} selections",
                            batched.len(),
                            singles.len()
                        ),
                    );
                }
                if batched.iter().any(|&i| i >= offered) {
                    self.violation(
                        "packet_batch",
                        format!("batch selected an index past {offered} offered"),
                    );
                }
                self.record("packet_batch", "ok");
                self.digest.update_u64(batched.len() as u64);
            }
        }
    }

    /// Drive the sharded collector through one hostile configuration:
    /// tenant ids with quotes, braces, commas and backslashes, non-ASCII
    /// and oversized ids, empties and duplicates; zero-interface fleets;
    /// zero-shard routing; degenerate window/queue/budget knobs; and a
    /// mid-stream reshard. Contracts: every degenerate is a typed error
    /// — never a panic — a reshard after ingest is a typed
    /// [`CollectError::ShardMismatch`], and every accepted run conserves
    /// packets (`ingested == considered + shed`) with per-shard flows
    /// bounded by lanes × budget.
    fn fuzz_collector(&mut self, rng: &mut StdRng) {
        let tenants = hostile_tenants(rng);
        let interfaces = rng.random_range(0u32..=3);
        let shards = rng.random_range(0u32..=4);
        let windows = rng.random_range(0u64..=2);
        let window_packets = rng.random_range(0u64..=48);
        let lane_queue = rng.random_range(0u64..=48);
        let lane_flow_budget = rng.random_range(0usize..=12);
        let seed = rng.random::<u64>();
        let reshard_to = rng.random_range(0u32..=4);
        let interval = rng.random_range(1usize..=8);
        self.offers += windows * window_packets;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut problems: Vec<String> = Vec::new();
            // Stateless routing must reject zero shards, typed.
            if route(rng_free_tenant(seed), 0, 0).is_ok() {
                problems.push("route accepted zero shards".to_string());
            }
            let fleet = match Fleet::new(tenants.clone(), interfaces) {
                Err(_) => return (problems, "rejected", None),
                Ok(f) => f,
            };
            if shards > 0 && RoutingPlan::new(&fleet, shards).is_err() {
                problems.push(format!("plan rejected {shards} shards for a valid fleet"));
            }
            let cfg = CollectorConfig {
                fleet,
                shards,
                method: StreamMethod::Spec(MethodSpec::Systematic { interval }),
                target: Target::PacketSize,
                windows,
                window_packets,
                lane_queue,
                lane_flow_budget,
                seed,
                source: LaneSource::Synth {
                    flows_per_window: 4,
                    size_dist: FlowSizeDist::Geometric { p: 0.2 },
                    mean_gap_us: 10,
                },
            };
            let degenerate = shards == 0
                || windows == 0
                || window_packets < 4 // fewer packets than the 4 flows per window
                || lane_queue == 0
                || lane_flow_budget == 0;
            let mut collector = match Collector::new(cfg) {
                Err(CollectError::NoShards | CollectError::BadConfig(_)) if degenerate => {
                    return (problems, "rejected", None);
                }
                Err(e) => {
                    problems.push(format!("unexpected rejection: {e}"));
                    return (problems, "rejected", None);
                }
                Ok(_) if degenerate => {
                    problems.push("accepted a degenerate config".to_string());
                    return (problems, "rejected", None);
                }
                Ok(c) => c,
            };
            let pool = Pool::serial();
            let lanes = u64::from(collector.plan().lane_count());
            for _ in 0..windows {
                match collector.run_round(&pool) {
                    Ok(stats) => {
                        if stats.ingested != stats.considered + stats.shed {
                            problems.push(format!(
                                "round broke conservation: {} != {} + {}",
                                stats.ingested, stats.considered, stats.shed
                            ));
                        }
                        if stats
                            .shard_flows
                            .iter()
                            .any(|&f| f > lanes * lane_flow_budget as u64)
                        {
                            problems.push(format!(
                                "a shard holds more than {lanes} lanes × {lane_flow_budget} flows"
                            ));
                        }
                    }
                    Err(e) => problems.push(format!("round failed: {e}")),
                }
            }
            if windows > 0 {
                // Ingest has started: a reshard must be a typed mismatch
                // (or a typed NoShards for zero), never a silent re-key.
                match collector.reshard(reshard_to) {
                    Err(CollectError::ShardMismatch { expected, got })
                        if expected == shards && got == reshard_to => {}
                    Err(CollectError::NoShards) if reshard_to == 0 => {}
                    Err(e) => problems.push(format!("reshard gave the wrong error: {e}")),
                    Ok(()) => problems.push("reshard succeeded mid-stream".to_string()),
                }
            }
            match collector.finish() {
                Err(e) => {
                    problems.push(format!("finish failed: {e}"));
                    (problems, "ok", None)
                }
                Ok(out) => {
                    let s = out.summary;
                    if s.ingested != s.considered + s.shed {
                        problems.push(format!(
                            "summary broke conservation: {} != {} + {}",
                            s.ingested, s.considered, s.shed
                        ));
                    }
                    (
                        problems,
                        "ok",
                        Some((s.ingested, s.selected, s.flows_reported)),
                    )
                }
            }
        }));
        match outcome {
            Err(panic) => {
                let msg = crate::panic_message(&*panic);
                self.violation("collector", format!("panicked: {msg}"));
                self.record("collector", "panic");
            }
            Ok((problems, class, digest)) => {
                for p in problems {
                    self.violation("collector", p);
                }
                self.record("collector", class);
                if let Some((ingested, selected, flows)) = digest {
                    self.digest.update_u64(ingested);
                    self.digest.update_u64(selected);
                    self.digest.update_u64(flows);
                }
            }
        }
    }
}

/// A deterministic pseudo-tenant index for the zero-shard routing probe.
fn rng_free_tenant(seed: u64) -> u32 {
    (seed % 1_000) as u32
}

/// A hostile tenant-id list: empties, oversized ids, ids carrying the
/// forbidden `"{}\,` label bytes, non-ASCII, and valid short ids that
/// may duplicate — possibly an empty list.
fn hostile_tenants(rng: &mut StdRng) -> Vec<String> {
    let len = rng.random_range(0usize..=4);
    (0..len)
        .map(|_| match rng.random_range(0u8..9) {
            0 => String::new(),
            1 => "a".repeat(rng.random_range(60usize..=80)),
            2 => format!("t{}\"quoted", rng.random_range(0u32..4)),
            3 => format!("t{{{}}}", rng.random_range(0u32..4)),
            4 => format!("t,{}", rng.random_range(0u32..4)),
            5 => format!("t\\{}", rng.random_range(0u32..4)),
            6 => format!("t\u{e9}{}", rng.random_range(0u32..4)),
            7 => format!("t {}", rng.random_range(0u32..4)),
            _ => format!("t{}", rng.random_range(0u32..4)),
        })
        .collect()
}

/// A hostile `/series` query string: valid queries, oversized values,
/// percent-escape abuse, duplicate/unknown keys, lossy-decoded random
/// bytes, and byte-flipped valid queries.
fn hostile_series_query(rng: &mut StdRng) -> String {
    match rng.random_range(0u8..6) {
        0 => {
            let names = [
                "proc_rss_kb",
                "stream_channel_depth{stage=\"transform\"}",
                "telemetry_samples_total",
            ];
            format!(
                "name={}&since={}&step={}",
                names[rng.random_range(0usize..names.len())],
                rng.random::<u64>(),
                rng.random_range(0usize..=2_000_000)
            )
        }
        1 => {
            // Oversized: straddle the MAX_QUERY_LEN / value-length caps.
            let n = rng.random_range(200usize..=2_300);
            let mut s = String::from("name=");
            for _ in 0..n {
                s.push('a');
            }
            s
        }
        2 => {
            // Percent-escape abuse: truncated, non-hex, non-UTF-8.
            let frags = ["%", "%2", "%zz", "%ff%fe", "%20", "%00", "%252f"];
            let mut s = String::from("name=x");
            for _ in 0..rng.random_range(1usize..=4) {
                s.push_str(frags[rng.random_range(0usize..frags.len())]);
            }
            s
        }
        3 => {
            // Key abuse: duplicates, unknowns, empty pairs, missing '='.
            let pairs = [
                "name=a", "name=b", "since=1", "step=2", "depth=9", "", "step",
            ];
            let mut parts = Vec::new();
            for _ in 0..rng.random_range(1usize..=5) {
                parts.push(pairs[rng.random_range(0usize..pairs.len())]);
            }
            parts.join("&")
        }
        4 => {
            let len = rng.random_range(0usize..=64);
            let bytes: Vec<u8> = (0..len).map(|_| rng.random::<u8>()).collect();
            String::from_utf8_lossy(&bytes).into_owned()
        }
        _ => {
            // Byte-flip a valid query (staying valid UTF-8 via char map).
            let mut v: Vec<char> = "name=proc_rss_kb&since=100&step=5".chars().collect();
            for _ in 0..rng.random_range(1usize..=3) {
                let i = rng.random_range(0usize..v.len());
                v[i] = char::from(rng.random_range(0x20u8..0x7f));
            }
            v.into_iter().collect()
        }
    }
}

/// A hostile alert-rules document: valid rules, token abuse, oversized
/// names and lines, comment/blank interleaving, lossy-decoded random
/// bytes, and byte-flipped valid lines.
fn hostile_rules_doc(rng: &mut StdRng) -> String {
    match rng.random_range(0u8..6) {
        0 => {
            let funcs = ["value", "rate", "delta", "stale"];
            let ops = [">", "<", ">=", "<="];
            format!(
                "# soak gate\n\nrule r{} {}(m_total) {} {} for {}\n",
                rng.random_range(0u32..3),
                funcs[rng.random_range(0usize..funcs.len())],
                ops[rng.random_range(0usize..ops.len())],
                rng.random_range(-5_000i64..=5_000),
                rng.random_range(0u32..=11_000)
            )
        }
        1 => {
            // Token abuse: wrong keyword order, bad funcs/ops/thresholds.
            let lines = [
                "rule x value(m) >> 1",
                "rule x median(m) > 1",
                "rule x value(m) > inf",
                "rule x value(m) > nan",
                "rule x value(m) > 1 for",
                "rule x value(m) > 1 within 3",
                "alert x value(m) > 1",
                "rule x value(m > 1",
                "rule x value() > 1",
                "rule 9x value(m) > 1",
            ];
            let mut doc = String::new();
            for _ in 0..rng.random_range(1usize..=3) {
                doc.push_str(lines[rng.random_range(0usize..lines.len())]);
                doc.push('\n');
            }
            doc
        }
        2 => {
            // Oversized: name and line straddle their byte caps.
            let n = rng.random_range(50usize..=1_100);
            let mut s = String::from("rule ");
            for _ in 0..n {
                s.push('a');
            }
            s.push_str(" value(m_total) > 1\n");
            s
        }
        3 => {
            // Duplicate names across lines, straddling the set cap.
            let mut doc = String::new();
            for i in 0..rng.random_range(2usize..=6) {
                let name = if rng.random_range(0u8..2) == 0 { 0 } else { i };
                let _ = std::fmt::write(
                    &mut doc,
                    format_args!("rule dup{name} value(m_total) > {i}\n"),
                );
            }
            doc
        }
        4 => {
            let len = rng.random_range(0usize..=96);
            let bytes: Vec<u8> = (0..len).map(|_| rng.random::<u8>()).collect();
            String::from_utf8_lossy(&bytes).into_owned()
        }
        _ => {
            let mut v: Vec<char> = "rule ok value(proc_rss_kb) >= 100 for 2".chars().collect();
            for _ in 0..rng.random_range(1usize..=3) {
                let i = rng.random_range(0usize..v.len());
                v[i] = char::from(rng.random_range(0x20u8..0x7f));
            }
            let mut s: String = v.into_iter().collect();
            s.push('\n');
            s
        }
    }
}

/// A hostile HTTP request line: valid scrapes, oversized and truncated
/// lines, raw binary (usually not UTF-8), slowloris-style fragments,
/// byte-mutated valid lines, and token/terminator abuse.
fn hostile_request_line(rng: &mut StdRng) -> Vec<u8> {
    match rng.random_range(0u8..6) {
        0 => {
            let paths = ["/metrics", "/healthz", "/snapshot", "/", "/missing"];
            let path = paths[rng.random_range(0usize..paths.len())];
            format!("GET {path} HTTP/1.0\r\n").into_bytes()
        }
        1 => {
            // Oversized: straddle the MAX_REQUEST_LINE boundary.
            let n = rng.random_range(8_150usize..=9_000);
            let mut v = b"GET /".to_vec();
            v.resize(v.len() + n, b'a');
            v.extend_from_slice(b" HTTP/1.1\r\n");
            v
        }
        2 => {
            // Truncated mid-line, as a dead or slowloris peer leaves it.
            let full = b"GET /metrics HTTP/1.0\r\n";
            full[..rng.random_range(0usize..full.len())].to_vec()
        }
        3 => {
            let len = rng.random_range(0usize..=64);
            (0..len).map(|_| rng.random::<u8>()).collect()
        }
        4 => {
            // Byte-flip a valid line.
            let mut v = b"GET /metrics HTTP/1.1\r\n".to_vec();
            for _ in 0..rng.random_range(1usize..=3) {
                let i = rng.random_range(0usize..v.len());
                v[i] = rng.random::<u8>();
            }
            v
        }
        _ => {
            let methods = ["GET", "get", "POST", "G E T", ""];
            let paths = ["/metrics", "//", "metrics", "/sp ace", "/\t"];
            let versions = ["HTTP/1.0", "HTTP/2.0", "http/1.1", "HTTP/1.1 x"];
            let ends = ["\r\n", "\n", "\r", ""];
            format!(
                "{} {} {}{}",
                methods[rng.random_range(0usize..methods.len())],
                paths[rng.random_range(0usize..paths.len())],
                versions[rng.random_range(0usize..versions.len())],
                ends[rng.random_range(0usize..ends.len())]
            )
            .into_bytes()
        }
    }
}

/// Hostile timestamps from [`hostile_packets`] decorated with hostile
/// flow identities: no id at all (the 5-tuple path, with colliding
/// ports), `u32::MAX`, arbitrary ids, a tiny colliding id range, and
/// random SYN placement.
fn hostile_flow_packets(rng: &mut StdRng) -> Vec<PacketRecord> {
    hostile_packets(rng)
        .into_iter()
        .map(|p| {
            let syn = rng.random_range(0u8..4) == 0;
            match rng.random_range(0u8..4) {
                0 => p.with_ports(rng.random_range(0u16..4), rng.random_range(0u16..4)),
                1 => p.with_flow(u32::MAX, syn),
                2 => p.with_flow(rng.random::<u32>(), syn),
                _ => p.with_flow(rng.random_range(1u32..=8), syn),
            }
        })
        .collect()
}

/// A hostile sampled-flow-size vector: zeros (an upstream aggregation
/// bug), single packets, sizes whose `j·k` rescaling overflows `u64`,
/// arbitrary sizes, and realistic small sizes — possibly empty.
fn hostile_sampled_sizes(rng: &mut StdRng) -> Vec<u64> {
    let len = rng.random_range(0usize..=48);
    (0..len)
        .map(|_| match rng.random_range(0u8..6) {
            0 => 0,
            1 => 1,
            2 => u64::MAX,
            3 => u64::MAX / 2,
            4 => rng.random::<u64>(),
            _ => rng.random_range(1u64..=500),
        })
        .collect()
}

/// Sampling intervals that stress the inversion arithmetic.
fn hostile_interval(rng: &mut StdRng) -> u64 {
    match rng.random_range(0u8..5) {
        0 => 0, // rejected: not a sampling process
        1 => 1,
        2 => u64::MAX,
        3 => rng.random::<u64>(),
        _ => rng.random_range(2u64..=1_000),
    }
}

/// Timer periods that stress the schedule arithmetic.
fn hostile_period(rng: &mut StdRng) -> u64 {
    match rng.random_range(0u8..5) {
        0 => 0, // rejected by try_new
        1 => 1,
        2 => 400,
        3 => rng.random_range(1u64..=2_000_000),
        _ => u64::MAX,
    }
}

/// Run the state-machine fuzz: `cases` hostile sequences spread over
/// the seven batch samplers, the stream engine's windower and
/// `run_stream`, the streaming reservoir, the disparity metric, the telemetry server's three text surfaces (HTTP
/// request line, `/series` query, alert-rule grammar), the flow table,
/// the flow-size inversion estimators, the columnar packet-batch path
/// (random runs of `offer_ts_batch` vs runs of one), and the sharded
/// collector (hostile fleets, zero-shard routing, mid-stream reshards).
#[must_use]
pub fn run_state_fuzz(cfg: &StateFuzzConfig) -> StateFuzzReport {
    let _span = obskit::span("faultkit_statefuzz");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut fuzzer = Fuzzer {
        outcomes: BTreeMap::new(),
        findings: Vec::new(),
        digest: Digest::new(),
        cases: 0,
        offers: 0,
    };
    for case in 0..cfg.cases {
        fuzzer.cases += 1;
        match case % 17 {
            0 => {
                let interval = rng.random_range(0usize..=1_000);
                let offset = rng.random_range(0usize..=1_050);
                let s = SystematicSampler::try_with_offset(interval, offset)
                    .map(|s| Box::new(s) as Box<dyn Sampler>)
                    .map_err(|e| e.to_string());
                fuzzer.fuzz_sampler("systematic", s, &mut rng);
            }
            1 => {
                let bucket = rng.random_range(0usize..=1_000);
                let s = StratifiedSampler::try_new(bucket, rng.random::<u64>())
                    .map(|s| Box::new(s) as Box<dyn Sampler>)
                    .map_err(|e| e.to_string());
                fuzzer.fuzz_sampler("stratified", s, &mut rng);
            }
            2 => {
                let population = rng.random_range(0usize..=5_000);
                let sample = rng.random_range(0usize..=5_500);
                let s = SimpleRandomSampler::try_new(population, sample, rng.random::<u64>())
                    .map(|s| Box::new(s) as Box<dyn Sampler>)
                    .map_err(|e| e.to_string());
                fuzzer.fuzz_sampler("random", s, &mut rng);
            }
            3 => {
                let mean = rng.random_range(0usize..=1_000);
                let s = GeometricSkipSampler::try_new(mean, rng.random::<u64>())
                    .map(|s| Box::new(s) as Box<dyn Sampler>)
                    .map_err(|e| e.to_string());
                fuzzer.fuzz_sampler("geometric", s, &mut rng);
            }
            4 => {
                let period = hostile_period(&mut rng);
                let start = rng.random::<u64>();
                let s = SystematicTimerSampler::try_new(Micros(period), Micros(start))
                    .map(|s| Box::new(s) as Box<dyn Sampler>)
                    .map_err(|e| e.to_string());
                fuzzer.fuzz_sampler("systematic_timer", s, &mut rng);
            }
            5 => {
                let period = hostile_period(&mut rng);
                let start = rng.random::<u64>();
                let s = StratifiedTimerSampler::try_new(
                    Micros(period),
                    Micros(start),
                    rng.random::<u64>(),
                )
                .map(|s| Box::new(s) as Box<dyn Sampler>)
                .map_err(|e| e.to_string());
                fuzzer.fuzz_sampler("stratified_timer", s, &mut rng);
            }
            6 => {
                let config = AdaptiveConfig {
                    budget_per_period: rng.random_range(1u32..=100),
                    period_us: *[1u64, 1_000, 1_000_000]
                        .get(rng.random_range(0usize..3))
                        .expect("index in range"),
                    increase_factor: 2.0,
                    decrease_step: rng.random_range(1usize..=5),
                    min_interval: 1,
                    max_interval: 1 << 20,
                };
                let interval = rng.random_range(1usize..=1_000);
                let s: Result<Box<dyn Sampler>, String> =
                    Ok(Box::new(AdaptiveSampler::new(interval, config)));
                fuzzer.fuzz_sampler("adaptive", s, &mut rng);
            }
            7 => fuzzer.fuzz_stream(&mut rng),
            8 => fuzzer.fuzz_reservoir_stream(&mut rng),
            9 => fuzzer.fuzz_disparity(&mut rng),
            10 => fuzzer.fuzz_http_request(&mut rng),
            11 => fuzzer.fuzz_series_query(&mut rng),
            12 => fuzzer.fuzz_rule_grammar(&mut rng),
            13 => fuzzer.fuzz_flow_table(&mut rng),
            14 => fuzzer.fuzz_flow_inversion(&mut rng),
            15 => fuzzer.fuzz_packet_batch(&mut rng),
            _ => fuzzer.fuzz_collector(&mut rng),
        }
    }
    obskit::counter("faultkit_statefuzz_cases_total").add(fuzzer.cases);
    obskit::counter("faultkit_statefuzz_findings_total").add(fuzzer.findings.len() as u64);
    StateFuzzReport {
        cases: fuzzer.cases,
        offers: fuzzer.offers,
        outcomes: fuzzer.outcomes,
        findings: fuzzer.findings,
        digest: fuzzer.digest.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> StateFuzzConfig {
        StateFuzzConfig {
            seed: 42,
            cases: 450,
        }
    }

    #[test]
    fn state_fuzz_finds_nothing_on_a_healthy_tree() {
        let report = run_state_fuzz(&small());
        assert!(
            report.findings.is_empty(),
            "state fuzz found real bugs:\n{}",
            report
                .findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(report.cases, 450);
        assert!(report.offers > 0);
    }

    #[test]
    fn state_fuzz_is_bit_identical_across_runs() {
        let a = run_state_fuzz(&small());
        let b = run_state_fuzz(&small());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.outcomes, b.outcomes);
        let c = run_state_fuzz(&StateFuzzConfig {
            seed: 43,
            cases: 450,
        });
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn state_fuzz_covers_every_machine() {
        let report = run_state_fuzz(&small());
        for source in [
            "systematic",
            "stratified",
            "random",
            "geometric",
            "systematic_timer",
            "stratified_timer",
            "adaptive",
            "stream",
            "reservoir_stream",
            "disparity",
            "http_request",
            "series_query",
            "rule_grammar",
            "flow_table",
            "flow_inversion",
            "packet_batch",
            "collector",
        ] {
            assert!(
                report
                    .outcomes
                    .keys()
                    .any(|k| k.starts_with(&format!("{source}/"))),
                "no cases for {source}: {:?}",
                report.outcomes.keys().collect::<Vec<_>>()
            );
        }
        // Degenerate constructions are exercised, not just valid ones.
        assert!(report.outcomes.keys().any(|k| k.ends_with("/rejected")));
    }
}
