//! Per-lane incremental traffic sources for the sharded collector.
//!
//! The collector daemon (`crates/collectd`) multiplexes N virtual
//! interfaces × M tenants; each (tenant, interface) pair is a **lane**
//! with its own packet stream. Two source families feed a lane, both
//! deterministic under the lane's folded seed and both O(chunk) in
//! memory so a million-flow soak never materializes a trace:
//!
//! * [`LaneGen`] — a windowed flow mix: every window of
//!   `window_packets` packets introduces exactly `flows_per_window`
//!   fresh flows whose per-window packet quotas follow the configured
//!   [`FlowSizeDist`] (Zipf / LogNormal / Geometric, the same parent
//!   mixes [`generate_flow_pack`](crate::generate_flow_pack) draws
//!   from), interleaved round-robin the way concurrent transfers
//!   interleave on a link. Flow ids are SYN-marked on first packet and
//!   strictly increase across windows, so a window's live-flow count is
//!   exact by construction — the knob the ≥1M-live-flow soak turns.
//! * [`replay_lane`] — a per-interface [`PacedReader`] replay decoded
//!   through [`nettrace::CaptureStream`]: the calibrated 1993 marginals
//!   without flow ids (flows fall back to 5-tuple keys), for lanes that
//!   model an interface tap rather than a flow exporter.
//!
//! A lane's stream is a pure function of `(seed, lane)` — never of the
//! shard that happens to host it — which is what lets the collector
//! keep its merged output bit-identical at any shard count.

use crate::pack::{FlowSizeDist, SizeSampler};
use crate::replay::{PacedReader, ReplayConfig};
use nettrace::time::Micros;
use nettrace::{CaptureStream, PacketRecord, Protocol};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::BufReader;

/// Shape of one lane's synthetic flow mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneConfig {
    /// Collector-wide seed; the lane folds its index in.
    pub seed: u64,
    /// Global lane index (tenant-major) — part of the seed fold and of
    /// every flow id, so lanes never alias each other's streams.
    pub lane: u32,
    /// Packets per window (the collector's window extent).
    pub window_packets: u64,
    /// Fresh flows introduced per window; each gets a quota ≥ 1 packet,
    /// so a window's live-flow count is exactly this.
    pub flows_per_window: u32,
    /// Parent distribution of the per-window flow quotas.
    pub size_dist: FlowSizeDist,
    /// Mean intra-lane packet gap in microseconds (uniform ±50 %
    /// jitter, so the interarrival target stays non-degenerate).
    pub mean_gap_us: u64,
}

impl LaneConfig {
    /// Sanity checks, mirrored by the collector's config validation.
    ///
    /// # Panics
    /// Panics on degenerate parameters: zero window, a window past
    /// `u32::MAX` packets (a flow's quota is a `u32`), zero flows, more
    /// flows than packets (a flow needs at least one packet), or a zero
    /// mean gap.
    pub fn validate(&self) {
        assert!(self.window_packets > 0, "window must hold packets");
        assert!(
            self.window_packets <= u64::from(u32::MAX),
            "window packets ({}) exceed u32::MAX",
            self.window_packets
        );
        assert!(self.flows_per_window > 0, "flow mix must hold flows");
        assert!(
            u64::from(self.flows_per_window) <= self.window_packets,
            "flows per window ({}) exceed the window's packets ({})",
            self.flows_per_window,
            self.window_packets
        );
        assert!(self.mean_gap_us > 0, "mean gap must be positive");
    }
}

/// The seed a lane's source draws from: `(seed, lane)` folded once, for
/// both source families.
fn lane_seed(seed: u64, lane: u32) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(lane) << 1 | 1)
}

/// Incremental windowed flow-mix generator for one lane. See the
/// module docs; construction is O(flows), each pull is O(chunk).
pub struct LaneGen {
    cfg: LaneConfig,
    rng: StdRng,
    sampler: SizeSampler,
    /// Window being generated.
    window: u64,
    /// Packets already emitted in the current window.
    pos: u64,
    /// Per-flow remaining quota for the current window (local index).
    quota: Vec<u32>,
    /// Per-flow packets emitted so far (first packet ⇒ SYN).
    emitted: Vec<u32>,
    /// Local indices of flows with quota left, in rotation order.
    live: Vec<u32>,
    /// Rotation cursor into `live`.
    cursor: usize,
    /// Lane-local clock.
    ts: u64,
    generated: u64,
}

impl LaneGen {
    /// A lane generator; folds `(seed, lane)` into the lane's RNG.
    ///
    /// # Panics
    /// Panics on a degenerate config (see [`LaneConfig::validate`]).
    #[must_use]
    pub fn new(cfg: LaneConfig) -> LaneGen {
        cfg.validate();
        let mut gen = LaneGen {
            cfg,
            rng: StdRng::seed_from_u64(lane_seed(cfg.seed, cfg.lane)),
            sampler: SizeSampler::build(cfg.size_dist),
            window: 0,
            pos: 0,
            quota: Vec::new(),
            emitted: Vec::new(),
            live: Vec::new(),
            cursor: 0,
            ts: 0,
            generated: 0,
        };
        gen.start_window();
        gen
    }

    /// Packets generated so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Draw the new window's flow quotas: every flow starts at one
    /// packet, the remainder is split proportionally to the size draws
    /// (largest-remainder style, index order on ties) — so quotas
    /// follow the configured distribution while summing exactly to
    /// `window_packets` with every flow present.
    fn start_window(&mut self) {
        let flows = self.cfg.flows_per_window as usize;
        let packets = self.cfg.window_packets;
        let sizes: Vec<u64> = (0..flows)
            .map(|_| self.sampler.sample(&mut self.rng, packets))
            .collect();
        let total: u64 = sizes.iter().sum::<u64>().max(1);
        let spare = packets - flows as u64;
        self.quota.clear();
        self.quota.resize(flows, 1);
        let mut assigned = 0u64;
        for (q, &s) in self.quota.iter_mut().zip(&sizes) {
            // Proportional share of the spare packets; u128 keeps the
            // product exact for million-packet windows.
            let extra = (u128::from(spare) * u128::from(s) / u128::from(total)) as u64;
            *q += extra as u32;
            assigned += extra;
        }
        // Rounding leftovers, one packet at a time in index order.
        let mut leftover = spare - assigned;
        let mut i = 0;
        while leftover > 0 {
            self.quota[i % flows] += 1;
            leftover -= 1;
            i += 1;
        }
        self.emitted.clear();
        self.emitted.resize(flows, 0);
        self.live.clear();
        self.live.extend(0..flows as u32);
        self.cursor = 0;
        self.pos = 0;
    }

    /// Append up to `max` packets to `out`, rolling windows internally.
    /// Returns how many were appended (always `max`; the stream is
    /// unbounded). Packets within a window interleave their flows
    /// round-robin; timestamps advance by the jittered mean gap.
    pub fn next_chunk(&mut self, max: usize, out: &mut Vec<PacketRecord>) -> usize {
        for _ in 0..max {
            if self.pos == self.cfg.window_packets {
                self.window += 1;
                self.start_window();
            }
            if self.cursor >= self.live.len() {
                self.cursor = 0;
            }
            let local = self.live[self.cursor];
            let li = local as usize;
            self.quota[li] -= 1;
            let first = self.emitted[li] == 0;
            self.emitted[li] += 1;
            if self.quota[li] == 0 {
                self.live.swap_remove(self.cursor);
            } else {
                self.cursor += 1;
            }
            // Flow ids strictly increase across the lane's lifetime; they
            // only have to be unique *within* the lane because every lane
            // owns its own flow table downstream. Ids are 1-based: 0 means
            // "no id" to the flow table.
            let id = self.window * u64::from(self.cfg.flows_per_window) + u64::from(local) + 1;
            let flow_id = id as u32;
            let gap = self.cfg.mean_gap_us;
            self.ts += gap / 2 + self.rng.random_range(0..=gap);
            let size: u16 = if first {
                40
            } else {
                match self.rng.random_range(0u8..8) {
                    0 => 40,
                    1..=6 => 552,
                    _ => 1500,
                }
            };
            out.push(
                PacketRecord::new(Micros(self.ts), size)
                    .with_protocol(Protocol::Tcp)
                    .with_flow(flow_id, first),
            );
            self.pos += 1;
            self.generated += 1;
        }
        max
    }
}

/// A decoded per-interface replay source: a [`PacedReader`] emitting
/// the calibrated 1993 pcap bytes, pulled through the strict chunked
/// capture decoder. The reader's bytes are a pure function of the
/// folded `(seed, lane)`, so the decoded stream is too.
pub struct ReplayLane {
    stream: CaptureStream<BufReader<PacedReader>>,
}

/// Build a replay lane: `windows × window_packets` packets, paced at
/// `pace_pps` (0 = as fast as the consumer pulls).
///
/// # Errors
/// Propagates the decoder's [`nettrace::TraceError`] — impossible for
/// the generated header, but the signature keeps the decode honest.
pub fn replay_lane(
    seed: u64,
    lane: u32,
    windows: u64,
    window_packets: u64,
    pace_pps: u64,
) -> Result<ReplayLane, nettrace::TraceError> {
    let reader = PacedReader::new(ReplayConfig {
        seed: lane_seed(seed, lane),
        windows,
        window_packets,
        pace_pps,
    });
    Ok(ReplayLane {
        stream: CaptureStream::new(BufReader::new(reader))?,
    })
}

impl ReplayLane {
    /// Append up to `max` decoded packets to `out`; returns how many
    /// were appended (0 at end of replay).
    ///
    /// # Errors
    /// Propagates decode faults (impossible on the generated bytes).
    pub fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<PacketRecord>,
    ) -> Result<usize, nettrace::TraceError> {
        let mut n = 0;
        while n < max {
            match self.stream.next_packet()? {
                Some(p) => {
                    out.push(p);
                    n += 1;
                }
                None => break,
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn cfg() -> LaneConfig {
        LaneConfig {
            seed: 1993,
            lane: 3,
            window_packets: 1_000,
            flows_per_window: 40,
            size_dist: FlowSizeDist::Zipf {
                max_size: 400,
                alpha: 1.1,
            },
            mean_gap_us: 500,
        }
    }

    fn window_stats(pkts: &[PacketRecord]) -> (usize, u64) {
        let mut flows: BTreeMap<u32, u64> = BTreeMap::new();
        let mut syns = 0;
        for p in pkts {
            *flows.entry(p.flow_id).or_insert(0) += 1;
            if p.syn() {
                syns += 1;
            }
        }
        (flows.len(), syns)
    }

    #[test]
    fn every_window_holds_exactly_the_configured_flows() {
        let mut g = LaneGen::new(cfg());
        let mut pkts = Vec::new();
        g.next_chunk(3_000, &mut pkts);
        assert_eq!(pkts.len(), 3_000);
        for w in 0..3 {
            let slice = &pkts[w * 1_000..(w + 1) * 1_000];
            let (flows, syns) = window_stats(slice);
            assert_eq!(flows, 40, "window {w} flow count");
            assert_eq!(syns, 40, "window {w} SYN count (one per fresh flow)");
        }
        // Windows never share flow ids: fresh flows every window.
        let (all_flows, _) = window_stats(&pkts);
        assert_eq!(all_flows, 120);
        // Timestamps are strictly increasing (positive jittered gaps).
        assert!(pkts.windows(2).all(|p| p[0].timestamp < p[1].timestamp));
    }

    #[test]
    fn chunking_never_changes_the_stream() {
        let mut whole = Vec::new();
        LaneGen::new(cfg()).next_chunk(2_500, &mut whole);
        for chunk in [1usize, 7, 100, 999] {
            let mut g = LaneGen::new(cfg());
            let mut got = Vec::new();
            while got.len() < 2_500 {
                let want = chunk.min(2_500 - got.len());
                g.next_chunk(want, &mut got);
            }
            assert_eq!(got, whole, "chunk {chunk}");
        }
    }

    #[test]
    fn lanes_and_seeds_decorrelate() {
        let mut a = Vec::new();
        LaneGen::new(cfg()).next_chunk(500, &mut a);
        let mut b = Vec::new();
        LaneGen::new(LaneConfig { lane: 4, ..cfg() }).next_chunk(500, &mut b);
        assert_ne!(a, b, "different lanes draw different streams");
        let mut c = Vec::new();
        LaneGen::new(LaneConfig { seed: 7, ..cfg() }).next_chunk(500, &mut c);
        assert_ne!(a, c, "different seeds draw different streams");
    }

    #[test]
    fn quota_draws_follow_a_heavy_tail() {
        // Zipf α=1.1 quotas: the largest flow should dwarf the median.
        let mut g = LaneGen::new(LaneConfig {
            window_packets: 10_000,
            flows_per_window: 100,
            ..cfg()
        });
        let mut pkts = Vec::new();
        g.next_chunk(10_000, &mut pkts);
        let mut by_flow: BTreeMap<u32, u64> = BTreeMap::new();
        for p in &pkts {
            *by_flow.entry(p.flow_id).or_insert(0) += 1;
        }
        let mut sizes: Vec<u64> = by_flow.values().copied().collect();
        sizes.sort_unstable();
        assert_eq!(sizes.iter().sum::<u64>(), 10_000);
        assert!(sizes[0] >= 1);
        assert!(
            *sizes.last().unwrap() > 5 * sizes[sizes.len() / 2],
            "max {} vs median {}",
            sizes.last().unwrap(),
            sizes[sizes.len() / 2]
        );
    }

    #[test]
    fn replay_lane_decodes_the_paced_reader_bytes() {
        let mut lane = replay_lane(1993, 0, 2, 300, 0).unwrap();
        let mut pkts = Vec::new();
        let mut n = 0;
        loop {
            let got = lane.next_chunk(128, &mut pkts).unwrap();
            if got == 0 {
                break;
            }
            n += got;
        }
        assert_eq!(n, 600);
        // Replay packets carry no flow ids — 5-tuple keyed downstream.
        assert!(pkts.iter().all(|p| p.flow_id == 0));
        // Different lanes replay different bytes.
        let mut other = replay_lane(1993, 1, 2, 300, 0).unwrap();
        let mut pkts_b = Vec::new();
        other.next_chunk(600, &mut pkts_b).unwrap();
        assert_ne!(pkts, pkts_b);
    }
}
