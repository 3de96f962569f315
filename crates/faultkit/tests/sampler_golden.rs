//! Golden digest over the selections of every sampler family and of the
//! stream windower.
//!
//! Each family — systematic, stratified, random, geometric, both timers
//! and adaptive — runs over three timestamp columns: regular spacing,
//! bursty `netsynth` traffic, and hostile timestamps (equal runs,
//! reversals, huge forward jumps and `u64::MAX` spikes). Every sampler is
//! offered the column one packet at a time through `Sampler::offer` and
//! in runs of 7, 64 and the whole column through `offer_ts_batch`; every
//! run length must select the same indices, and those indices fold into
//! the digest. The same columns then go through a `Windower` for every
//! stream method, the reservoir included, in runs of 1, 7, 64 and the
//! whole slice, and every window folds in. Finally the reservoir is
//! driven directly and its per-window flushes fold in.
//!
//! The value was recorded while every family still had a per-packet
//! `offer` body beside its batch path, so it pins the selections those
//! bodies made.
//!
//! A second digest pins the windower's flow budget: which flows each
//! window keeps, reports and evicts under budgets of 1, 7, 64 and the
//! default, on flow-id-keyed and 5-tuple-keyed traffic, and the sampled
//! flow sizes the budget leaves whole. `GOLDEN` never
//! evicts (its windows hold far fewer flows than the default budget),
//! so the budget has its own constant.

use faultkit::Digest;
use nettrace::{Micros, PacketRecord};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sampling::experiment::MethodFamily;
use sampling::{AdaptiveConfig, AdaptiveSampler, MethodSpec, Sampler, Target};
use streamkit::{ReservoirStream, StreamMethod, WindowPayload, WindowSpec, Windower};

/// The digest measured when the test was written. A change here means a
/// sampler selects different packets.
const GOLDEN: u64 = 0x548e_8ddc_a5af_6589;

/// The flow-budget digest, re-recorded when the budget stopped
/// truncating the sampled flow table (which holds at most one flow per
/// selection). A change here means a window keeps or evicts different
/// flows.
const FLOW_BUDGET_GOLDEN: u64 = 0xa8b8_8031_b917_2778;

/// Run lengths every sampler is offered in; 0 stands for the whole
/// column.
const RUNS: [usize; 4] = [1, 7, 64, 0];

/// The SDSC hour's mean rate: timer periods are rate-equivalent to `k`
/// at it.
const MEAN_PPS: f64 = 424.2;

fn columns() -> Vec<(&'static str, Vec<PacketRecord>)> {
    let regular = (0..2_000u64)
        .map(|i| PacketRecord::new(Micros(i * 2_358), if i % 3 == 0 { 40 } else { 552 }))
        .collect();
    let bursty = netsynth::generate(&netsynth::TraceProfile::short(5), 1993)
        .packets()
        .to_vec();
    vec![
        ("regular", regular),
        ("bursty", bursty),
        ("hostile", hostile(2_000)),
    ]
}

/// Equal runs, reversals and ordinary steps throughout; huge forward
/// jumps from a third of the way in, and single-packet spikes to
/// `u64::MAX` in the last fifth.
fn hostile(n: usize) -> Vec<PacketRecord> {
    let mut rng = StdRng::seed_from_u64(1993);
    let mut prev = 1_000_000u64;
    (0..n)
        .map(|i| {
            let ts = match rng.random_range(0u8..16) {
                0..=2 => prev,
                3 | 4 => prev.saturating_sub(rng.random_range(0u64..=50_000)),
                5 if i > n / 3 => prev.saturating_add(rng.random_range(1u64..=1 << 40)),
                6 if i > n * 4 / 5 => u64::MAX,
                _ => prev.saturating_add(rng.random_range(1u64..=3_000)),
            };
            if ts != u64::MAX {
                prev = ts;
            }
            PacketRecord::new(Micros(ts), 40 + (ts % 1_460) as u16)
        })
        .collect()
}

/// Builds a fresh sampler in its post-construction state.
type Build = Box<dyn Fn() -> Box<dyn Sampler>>;

/// Every family the workspace ships, as (label, constructor) pairs.
fn families(len: usize, start: Micros) -> Vec<(String, Build)> {
    let mut out: Vec<(String, Build)> = Vec::new();
    let mut all = MethodFamily::paper_five().to_vec();
    all.push(MethodFamily::GeometricSkip);
    for family in all {
        for k in [1usize, 7, 50, 1_000] {
            for (rep, seed) in [(0u64, 1u64), (3, 1993)] {
                let spec = family.at_granularity(k, MEAN_PPS);
                out.push((
                    format!("{spec} rep {rep} seed {seed}"),
                    Box::new(move || spec.build(len, start, rep, seed)),
                ));
            }
        }
    }
    for (interval, budget, period_us) in [(1usize, 5u32, 1_000u64), (16, 20, 1_000_000)] {
        let config = AdaptiveConfig {
            budget_per_period: budget,
            period_us,
            ..AdaptiveConfig::default()
        };
        out.push((
            format!("adaptive({interval}, {budget}/{period_us}us)"),
            Box::new(move || Box::new(AdaptiveSampler::new(interval, config))),
        ));
    }
    out
}

/// One sampler's selection with the column offered in runs of `run`.
fn select(
    mut sampler: Box<dyn Sampler>,
    packets: &[PacketRecord],
    ts: &[u64],
    run: usize,
) -> Vec<usize> {
    let mut out = Vec::new();
    if run == 1 {
        for (i, p) in packets.iter().enumerate() {
            if sampler.offer(p) {
                out.push(i);
            }
        }
        return out;
    }
    let mut base = 0;
    for part in ts.chunks(if run == 0 { ts.len().max(1) } else { run }) {
        sampler.offer_ts_batch(base, part, &mut out);
        base += part.len();
    }
    out
}

fn fold_samplers(d: &mut Digest, name: &str, packets: &[PacketRecord]) {
    let ts: Vec<u64> = packets.iter().map(|p| p.timestamp.as_u64()).collect();
    let start = packets.first().map_or(Micros::ZERO, |p| p.timestamp);
    for (label, build) in families(packets.len(), start) {
        let whole = select(build(), packets, &ts, 0);
        for run in RUNS {
            assert_eq!(
                select(build(), packets, &ts, run),
                whole,
                "{name}: {label} in runs of {run}"
            );
        }
        d.update(label.as_bytes());
        d.update_u64(whole.len() as u64);
        whole.iter().for_each(|&i| d.update_u64(i as u64));
    }
}

fn fold_window(d: &mut Digest, w: &WindowPayload) {
    for v in [w.index, w.start_ts.as_u64(), w.packets, w.selected] {
        d.update_u64(v);
    }
    for t in [w.first_ts, w.last_ts] {
        d.update_u64(t.map_or(u64::MAX, Micros::as_u64));
    }
    for v in w.population.counts().iter().chain(w.sample.counts()) {
        d.update_u64(*v);
    }
    for v in [w.flows, w.syn_flows, w.evicted_flows, w.sampled_syn_flows] {
        d.update_u64(v);
    }
    d.update_u64(w.sampled_sizes.len() as u64);
    w.sampled_sizes.iter().for_each(|&s| d.update_u64(s));
}

fn fold_windowers(d: &mut Digest, name: &str, packets: &[PacketRecord]) {
    let anchor = packets.first().map_or(Micros::ZERO, |p| p.timestamp);
    let period = Micros(7_000_000 / 424);
    let methods = [
        StreamMethod::Spec(MethodSpec::Systematic { interval: 7 }),
        StreamMethod::Spec(MethodSpec::StratifiedRandom { bucket: 7 }),
        StreamMethod::Spec(MethodSpec::SimpleRandom {
            fraction: 1.0 / 7.0,
        }),
        StreamMethod::Spec(MethodSpec::GeometricSkip { mean_interval: 7 }),
        StreamMethod::Spec(MethodSpec::SystematicTimer { period }),
        StreamMethod::Spec(MethodSpec::StratifiedTimer { period }),
        StreamMethod::Reservoir { capacity: 20 },
    ];
    let shapes = [
        (WindowSpec::Count(500), None),
        (WindowSpec::Count(600), Some(WindowSpec::Count(200))),
        (WindowSpec::Time(Micros(250_000)), None),
    ];
    for method in methods {
        let random = matches!(method, StreamMethod::Spec(MethodSpec::SimpleRandom { .. }));
        for (window, slide) in shapes {
            let tumbling_count = matches!(window, WindowSpec::Count(_)) && slide.is_none();
            if (random && !tumbling_count) || (method.is_buffered() && slide.is_some()) {
                continue;
            }
            let population = match window {
                WindowSpec::Count(n) if slide.is_none() => Some(n as usize),
                _ => None,
            };
            for target in [Target::PacketSize, Target::Interarrival] {
                let label = format!("{name}: {} {window} {slide:?} {target}", method.name());
                let run_windows = |run: usize| {
                    let sampler = method
                        .build(anchor, population, 1, 1993)
                        .expect("valid stream method");
                    let mut w = Windower::new(target, window, slide, sampler);
                    let mut windows = Vec::new();
                    for part in packets.chunks(if run == 0 { packets.len().max(1) } else { run }) {
                        windows.extend(w.offer_slice(part));
                    }
                    windows.extend(w.finish());
                    let mut folded = Digest::new();
                    windows.iter().for_each(|win| fold_window(&mut folded, win));
                    (windows.len(), w.packets(), w.selected(), folded.finish())
                };
                let whole = run_windows(0);
                for run in RUNS {
                    assert_eq!(run_windows(run), whole, "{label} in runs of {run}");
                }
                d.update(label.as_bytes());
                for v in [whole.0 as u64, whole.1, whole.2, whole.3] {
                    d.update_u64(v);
                }
            }
        }
    }
}

fn fold_reservoirs(d: &mut Digest, packets: &[PacketRecord]) {
    const WINDOW: usize = 300;
    for capacity in [1usize, 5, 64] {
        for seed in [1u64, 1993] {
            let mut r = ReservoirStream::new(capacity, seed);
            for window in packets.chunks(WINDOW) {
                let mut prev: Option<u64> = None;
                for p in window {
                    let t = p.timestamp.as_u64();
                    r.offer(p, prev.map(|q| t.saturating_sub(q)));
                    prev = Some(t);
                }
                let flushed = r.flush();
                d.update_u64(flushed.len() as u64);
                for item in flushed {
                    d.update_u64(item.packet.timestamp.as_u64());
                    d.update_u64(u64::from(item.packet.size));
                    d.update_u64(item.gap_us.unwrap_or(u64::MAX));
                }
            }
        }
    }
}

#[test]
fn sampler_selections_match_the_golden_digest() {
    let mut d = Digest::new();
    for (name, packets) in columns() {
        d.update(name.as_bytes());
        fold_samplers(&mut d, name, &packets);
        fold_windowers(&mut d, name, &packets);
        fold_reservoirs(&mut d, &packets);
    }
    assert_eq!(
        d.finish(),
        GOLDEN,
        "selection digest {:#018x} differs from the golden value",
        d.finish()
    );
}

/// `n` packets: a quarter from 16 long-lived flows, the rest from up to
/// 60,000 short ones, so a 10,000-packet window overflows even the
/// default budget. A quarter of the packets repeat their predecessor's
/// timestamp, so evictions meet equal last-seen times, and one 10 s
/// silence halfway through makes time windows jump the idle grid. Keyed
/// by flow id, or by 5-tuple when `ids` is false; a flow's first packet
/// carries a SYN either way.
fn flow_column(n: usize, ids: bool) -> Vec<PacketRecord> {
    let mut rng = StdRng::seed_from_u64(1993);
    let mut seen = std::collections::HashSet::new();
    let mut ts = 0u64;
    (0..n)
        .map(|i| {
            if i == n / 2 {
                ts += 10_000_000;
            } else if rng.random_range(0u8..4) != 0 {
                ts += rng.random_range(1u64..=400);
            }
            let flow = if rng.random_range(0u8..4) == 0 {
                rng.random_range(1u32..=16)
            } else {
                rng.random_range(17u32..=60_000)
            };
            let first = seen.insert(flow);
            let p = PacketRecord::new(Micros(ts), 40 + (flow % 1_460) as u16);
            if ids {
                p.with_flow(flow, first)
            } else {
                let mut p = p.with_ports((flow % 1_024) as u16, (flow / 1_024) as u16);
                if first {
                    p.flags |= PacketRecord::FLAG_SYN;
                }
                p
            }
        })
        .collect()
}

#[test]
fn flow_budget_windows_match_the_golden_digest() {
    let shapes = [
        (WindowSpec::Count(10_000), None),
        (WindowSpec::Count(6_000), Some(WindowSpec::Count(2_000))),
        (WindowSpec::Time(Micros(1_000_000)), None),
        (
            WindowSpec::Time(Micros(500_000)),
            Some(WindowSpec::Time(Micros(100_000))),
        ),
    ];
    let mut d = Digest::new();
    for ids in [true, false] {
        let packets = flow_column(20_000, ids);
        for (window, slide) in shapes {
            for budget in [Some(1usize), Some(7), Some(64), None] {
                let label = format!("ids {ids}: {window} {slide:?} budget {budget:?}");
                let sampler = StreamMethod::Spec(MethodSpec::Systematic { interval: 7 })
                    .build(Micros::ZERO, None, 0, 1993)
                    .expect("valid stream method");
                let mut w = Windower::new(Target::PacketSize, window, slide, sampler);
                if let Some(b) = budget {
                    w = w.with_flow_budget(b);
                }
                let mut windows = w.offer_slice(&packets);
                windows.extend(w.finish());
                d.update(label.as_bytes());
                d.update_u64(windows.len() as u64);
                for win in &windows {
                    for v in [win.flows, win.syn_flows, win.evicted_flows] {
                        d.update_u64(v);
                    }
                    d.update_u64(win.sampled_sizes.len() as u64);
                    win.sampled_sizes.iter().for_each(|&s| d.update_u64(s));
                }
            }
        }
    }
    assert_eq!(
        d.finish(),
        FLOW_BUDGET_GOLDEN,
        "flow-budget digest {:#018x} differs from the golden value",
        d.finish()
    );
}
