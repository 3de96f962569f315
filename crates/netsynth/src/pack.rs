//! Flow-structured packs for the inversion suite.
//!
//! Unlike [`crate::flows`] — which models application temporal
//! signatures — a *flow pack* is built for exactly one question: given
//! packets that carry their parent **flow id** (and a SYN mark on each
//! flow's first packet), how well can the parent flow-size distribution
//! be recovered from a sampled packet stream? The pack therefore makes
//! the flow structure explicit and configurable: every packet is
//! assigned a flow id, flow sizes (packets per flow) are drawn from a
//! chosen distribution — Zipf, log-normal, or geometric — and flows
//! interleave by giving each flow a uniform start time and exponential
//! intra-flow gaps.
//!
//! The geometric pack is the calibration workhorse (closed-form
//! sampled-size expectations under 1-in-k thinning); the Zipf pack is
//! the heavy-tailed stress the related work runs on real traces.

use crate::apps::ZipfNets;
use nettrace::{ClockModel, Micros, PacketRecord, Protocol, Trace};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use statkit::rand_ext::{Exponential, Geometric, LogNormal, Zipf};

/// Parent flow-size distribution (packets per flow, always ≥ 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowSizeDist {
    /// Zipf over `{1, …, max_size}` with exponent `alpha` — the heavy
    /// -tailed shape measured flow-size distributions follow.
    Zipf {
        /// Largest representable flow size.
        max_size: usize,
        /// Power-law exponent (> 0).
        alpha: f64,
    },
    /// Log-normal with the given mean and standard deviation of the
    /// (packet-count) sizes, rounded up to ≥ 1.
    LogNormal {
        /// Mean flow size in packets.
        mean: f64,
        /// Standard deviation of the flow size.
        std: f64,
    },
    /// Geometric on `{1, 2, …}` with success probability `p` (mean
    /// `1/p`) — the calibration distribution with closed-form sampled
    /// expectations.
    Geometric {
        /// Success probability in `(0, 1]`.
        p: f64,
    },
}

/// Built samplers, constructed once per generation run.
pub(crate) enum SizeSampler {
    Zipf(Zipf),
    LogNormal(LogNormal),
    Geometric(Geometric),
}

impl SizeSampler {
    pub(crate) fn build(dist: FlowSizeDist) -> SizeSampler {
        match dist {
            FlowSizeDist::Zipf { max_size, alpha } => SizeSampler::Zipf(Zipf::new(max_size, alpha)),
            FlowSizeDist::LogNormal { mean, std } => {
                SizeSampler::LogNormal(LogNormal::from_mean_std(mean, std))
            }
            FlowSizeDist::Geometric { p } => SizeSampler::Geometric(Geometric::new(p)),
        }
    }

    pub(crate) fn sample(&self, rng: &mut StdRng, cap: u64) -> u64 {
        let s = match self {
            SizeSampler::Zipf(z) => z.sample(rng),
            SizeSampler::LogNormal(l) => l.sample(rng).ceil().max(1.0) as u64,
            SizeSampler::Geometric(g) => g.sample(rng),
        };
        s.clamp(1, cap)
    }
}

/// Parameters of a flow pack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowPackConfig {
    /// Number of parent flows; ids are `1..=flows`.
    pub flows: u32,
    /// Parent flow-size distribution.
    pub size_dist: FlowSizeDist,
    /// Flow start times are uniform over `[0, duration_secs)`.
    pub duration_secs: u32,
    /// Mean intra-flow packet gap, microseconds (exponential).
    pub mean_gap_us: f64,
    /// Hard cap on packets per flow (keeps a pathological draw from
    /// exploding memory).
    pub max_flow_packets: u64,
    /// Capture clock applied to the emitted trace.
    pub clock: ClockModel,
}

impl Default for FlowPackConfig {
    fn default() -> Self {
        FlowPackConfig {
            flows: 2_000,
            size_dist: FlowSizeDist::Zipf {
                max_size: 2_000,
                alpha: 1.1,
            },
            duration_secs: 60,
            mean_gap_us: 5_000.0,
            max_flow_packets: 100_000,
            clock: ClockModel::SDSC_1993,
        }
    }
}

impl FlowPackConfig {
    /// Sanity checks.
    ///
    /// # Panics
    /// Panics on degenerate parameters (zero flows/duration, bad gap or
    /// cap); distribution parameters are validated by their samplers.
    pub fn validate(&self) {
        assert!(self.flows > 0, "flow count must be positive");
        assert!(self.duration_secs > 0, "duration must be positive");
        assert!(
            self.mean_gap_us.is_finite() && self.mean_gap_us > 0.0,
            "mean gap must be positive"
        );
        assert!(self.max_flow_packets >= 1, "flow packet cap must be >= 1");
    }
}

/// Generate a flow pack, deterministic under `seed`. Each packet
/// carries its parent flow id; each flow's first packet carries the SYN
/// flag. The trace is the interleaving of all flows in time order.
#[must_use]
pub fn generate_flow_pack(cfg: &FlowPackConfig, seed: u64) -> Trace {
    cfg.validate();
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = SizeSampler::build(cfg.size_dist);
    let gap = Exponential::new(cfg.mean_gap_us);
    let nets = ZipfNets::standard();
    let horizon = u64::from(cfg.duration_secs) * 1_000_000;

    let mut packets = Vec::new();
    for flow in 1..=cfg.flows {
        let size = sampler.sample(&mut rng, cfg.max_flow_packets);
        let start = rng.random_range(0..horizon);
        let (src_net, dst_net) = nets.sample(&mut rng);
        let sport: u16 = rng.random_range(1024..=4999);
        let dport: u16 = [20u16, 25, 119, 80][rng.random_range(0..4usize)];
        let mut t = start as f64;
        for i in 0..size {
            if i > 0 {
                t += gap.sample(&mut rng);
            }
            packets.push(
                PacketRecord::new(Micros(t as u64), if i == 0 { 40 } else { 552 })
                    .with_protocol(Protocol::Tcp)
                    .with_ports(sport, dport)
                    .with_nets(src_net, dst_net)
                    .with_flow(flow, i == 0),
            );
        }
    }
    // Feed the workspace-wide synthesis counter too, so `synth
    // --metrics` reports packet production for every profile.
    obskit::counter("netsynth_packets_generated_total").add(packets.len() as u64);
    obskit::counter("netsynth_flowpack_packets_total").add(packets.len() as u64);
    obskit::counter("netsynth_flowpack_flows_total").add(u64::from(cfg.flows));
    Trace::from_unordered(packets).quantized(cfg.clock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn small(dist: FlowSizeDist) -> FlowPackConfig {
        FlowPackConfig {
            flows: 200,
            size_dist: dist,
            duration_secs: 10,
            ..FlowPackConfig::default()
        }
    }

    fn by_flow(t: &Trace) -> BTreeMap<u32, (u64, u64)> {
        let mut m: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for p in t.iter() {
            let e = m.entry(p.flow_id).or_insert((0, 0));
            e.0 += 1;
            if p.syn() {
                e.1 += 1;
            }
        }
        m
    }

    #[test]
    fn every_flow_has_exactly_one_syn() {
        for dist in [
            FlowSizeDist::Zipf {
                max_size: 500,
                alpha: 1.2,
            },
            FlowSizeDist::LogNormal {
                mean: 20.0,
                std: 30.0,
            },
            FlowSizeDist::Geometric { p: 0.05 },
        ] {
            let t = generate_flow_pack(&small(dist), 1993);
            let flows = by_flow(&t);
            assert_eq!(flows.len(), 200, "{dist:?}");
            for (id, (pkts, syns)) in flows {
                assert!((1..=200).contains(&id));
                assert!(pkts >= 1);
                assert_eq!(syns, 1, "flow {id} under {dist:?}");
            }
        }
    }

    #[test]
    fn trace_is_time_ordered_and_deterministic() {
        let cfg = small(FlowSizeDist::Geometric { p: 0.02 });
        let a = generate_flow_pack(&cfg, 7);
        let b = generate_flow_pack(&cfg, 7);
        assert_eq!(a.packets(), b.packets());
        assert!(a
            .packets()
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp));
        let c = generate_flow_pack(&cfg, 8);
        assert_ne!(a.packets(), c.packets(), "seed must matter");
    }

    #[test]
    fn geometric_pack_mean_size_tracks_parameter() {
        let cfg = FlowPackConfig {
            flows: 3_000,
            size_dist: FlowSizeDist::Geometric { p: 0.02 },
            duration_secs: 30,
            ..FlowPackConfig::default()
        };
        let t = generate_flow_pack(&cfg, 42);
        let mean = t.len() as f64 / 3_000.0;
        assert!((mean - 50.0).abs() < 3.0, "mean flow size {mean}");
    }

    #[test]
    fn size_cap_is_enforced() {
        let cfg = FlowPackConfig {
            flows: 50,
            size_dist: FlowSizeDist::Zipf {
                max_size: 100_000,
                alpha: 0.5,
            },
            max_flow_packets: 64,
            duration_secs: 5,
            ..FlowPackConfig::default()
        };
        let t = generate_flow_pack(&cfg, 3);
        for (_, (pkts, _)) in by_flow(&t) {
            assert!(pkts <= 64);
        }
    }

    #[test]
    #[should_panic(expected = "flow count")]
    fn zero_flows_panics() {
        let _ = generate_flow_pack(
            &FlowPackConfig {
                flows: 0,
                ..FlowPackConfig::default()
            },
            1,
        );
    }
}
