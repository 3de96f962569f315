//! Tumbling and sliding characterization windows.
//!
//! The paper's operational setting characterizes traffic in collection
//! cycles (the 15-minute NSFNET reporting interval, §2); a streaming
//! monitor generalizes that to windows over packet count or time,
//! tumbling or sliding. Each window carries the paper's binned target
//! histograms for its population and its sample, built *incrementally*
//! so memory stays O(window), and reproduces the batch path exactly: a
//! window's histograms are bit-identical to running
//! [`Target::population_histogram`] / [`Target::sample_histogram`]
//! over that window's packet slice.
//!
//! Sliding windows are composed from **stride buckets**: a window of
//! length `L` sliding by `S` (`S` divides `L`) is the merge of `L/S`
//! consecutive bucket histograms. Only `L/S` buckets are ever held —
//! the oldest is evicted as each window completes — so sliding costs
//! the same bounded memory as tumbling. The only subtlety is the
//! interarrival target at bucket seams: a bucket's first packet has a
//! well-defined gap *within a window that also contains its
//! predecessor*, but not within one where it is the first packet; each
//! bucket therefore records that single boundary observation
//! separately and the merge applies it exactly when the batch
//! semantics would.

use crate::sampler::{Offer, StreamSampler};
use nettrace::{FlowTable, Histogram, Micros, PacketRecord};
use sampling::Target;
use std::collections::VecDeque;

/// Per-bucket flow budget. A window reports at most
/// `buckets_per_window × this` live flows, keeping the engine's
/// O(window) memory bound even on flow-id-free traffic where every
/// distinct 5-tuple is a flow; overflow evicts the
/// least-recently-updated flow deterministically.
///
/// The budget is enforced **once, at the window merge** — buckets
/// aggregate unbounded. A capacity-bounded table pays an LRU order
/// index (a `BTreeSet` insert/remove pair) on every packet that
/// advances a flow's last-seen time, which put two O(log n) tree
/// operations in the per-packet hot path; an unbounded table is one
/// hash probe per packet, and the merge keeps the budget's worth of
/// most-recently-updated flows in a single O(flows) selection
/// ([`FlowTable::truncate_lru`]) with the same deterministic
/// least-recently-updated-first, smallest-key-on-ties policy.
const BUCKET_FLOW_CAP: usize = 4_096;

/// Window (or slide stride) extent: a packet count or a time span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// A fixed number of packets.
    Count(u64),
    /// A fixed time span (boundaries at `start + n·span`, half-open).
    Time(Micros),
}

impl WindowSpec {
    /// Parse a CLI-style spec: a bare integer is a packet count, an
    /// integer with a `us`/`ms`/`s`/`m` suffix is a duration.
    ///
    /// # Errors
    /// A human-readable message for malformed or zero specs.
    pub fn parse(s: &str) -> Result<WindowSpec, String> {
        let s = s.trim();
        let split = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        let (digits, unit) = s.split_at(split);
        let n: u64 = digits
            .parse()
            .map_err(|_| format!("bad window spec '{s}': expected <packets> or <n><us|ms|s|m>"))?;
        if n == 0 {
            return Err(format!("bad window spec '{s}': must be positive"));
        }
        match unit {
            "" => Ok(WindowSpec::Count(n)),
            "us" => Ok(WindowSpec::Time(Micros(n))),
            "ms" => Ok(WindowSpec::Time(Micros(n.saturating_mul(1_000)))),
            "s" => Ok(WindowSpec::Time(Micros(n.saturating_mul(1_000_000)))),
            "m" => Ok(WindowSpec::Time(Micros(n.saturating_mul(60_000_000)))),
            other => Err(format!(
                "bad window unit '{other}' in '{s}': use us, ms, s or m"
            )),
        }
    }
}

impl std::fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowSpec::Count(n) => write!(f, "{n} packets"),
            WindowSpec::Time(t) => {
                let us = t.as_u64();
                if us % 60_000_000 == 0 {
                    write!(f, "{}m", us / 60_000_000)
                } else if us % 1_000_000 == 0 {
                    write!(f, "{}s", us / 1_000_000)
                } else if us % 1_000 == 0 {
                    write!(f, "{}ms", us / 1_000)
                } else {
                    write!(f, "{us}us")
                }
            }
        }
    }
}

/// One completed window, ready for scoring: the population and sample
/// histograms plus bookkeeping. Produced by [`Windower`] and scored
/// where it closes (by `run_stream`, or by a collector lane).
#[derive(Debug, Clone)]
pub struct WindowPayload {
    /// Emission sequence number (fully-empty windows are skipped).
    pub index: u64,
    /// Window grid start: the first bucket's start time (time windows)
    /// or its first packet's timestamp (count windows).
    pub start_ts: Micros,
    /// First and last packet timestamps actually observed (None for a
    /// window whose packets all sit in later buckets).
    pub first_ts: Option<Micros>,
    /// Last packet timestamp in the window.
    pub last_ts: Option<Micros>,
    /// Packets in the window.
    pub packets: u64,
    /// Packets the sampler selected in the window.
    pub selected: u64,
    /// The window's parent-population histogram.
    pub population: Histogram,
    /// The sample's histogram.
    pub sample: Histogram,
    /// Live flows observed in the window (synthetic-id or 5-tuple
    /// keyed, budget-bounded at the window merge — see
    /// [`BUCKET_FLOW_CAP`] and [`Windower::with_flow_budget`]).
    pub flows: u64,
    /// Window flows that carried a SYN (≈ flows that *began* in the
    /// window; the flow generators SYN-mark each flow's first packet).
    pub syn_flows: u64,
    /// Flows the window budget evicted at this window's merge.
    pub evicted_flows: u64,
    /// Sizes (packets per flow, key order) of the flows seen among the
    /// *selected* packets — the sampled flow table a 1-in-k inversion
    /// estimator runs on. Bounded by the same window flow budget.
    pub sampled_sizes: Vec<u64>,
    /// Sampled-table flows whose selected packets included a SYN.
    pub sampled_syn_flows: u64,
}

/// One stride bucket: the window building block.
struct Bucket {
    start_ts: Micros,
    first_ts: Option<Micros>,
    last_ts: Option<Micros>,
    packets: u64,
    selected: u64,
    population: Histogram,
    sample: Histogram,
    flows: FlowTable,
    /// Flows among the *selected* packets only — what a collector
    /// downstream of the sampler would aggregate, and the input the
    /// statkit inversion estimators expect.
    sampled: FlowTable,
    /// The first packet's interarrival observation with its
    /// *cross-bucket* gap — applied by the window merge exactly when
    /// an earlier bucket of the same window holds its predecessor.
    pop_edge: Option<(u64, u64)>,
    /// Same, for the sample histogram (set when that packet was
    /// selected).
    sam_edge: Option<(u64, u64)>,
}

impl Bucket {
    fn new(start_ts: Micros, target: Target) -> Self {
        Bucket {
            start_ts,
            first_ts: None,
            last_ts: None,
            packets: 0,
            selected: 0,
            population: Histogram::new(target.bins()),
            sample: Histogram::new(target.bins()),
            // Unbounded on the hot path; the window merge enforces the
            // flow budget (see BUCKET_FLOW_CAP). Pre-sized to the
            // budget so a flow-heavy bucket skips the rehash chain.
            flows: {
                let mut t = FlowTable::unbounded();
                t.reserve(BUCKET_FLOW_CAP);
                t
            },
            // Selected packets are a 1-in-k thinning of the stream; the
            // sampled table stays small and grows on demand.
            sampled: FlowTable::unbounded(),
            pop_edge: None,
            sam_edge: None,
        }
    }
}

/// Streaming window state machine: offers packets to its sampler,
/// accumulates per-bucket histograms, and emits completed
/// [`WindowPayload`]s with bounded-memory bucket eviction.
pub struct Windower {
    target: Target,
    stride: WindowSpec,
    buckets_per_window: usize,
    sampler: Box<dyn StreamSampler>,
    /// Completed buckets of the in-progress window(s); holds at most
    /// `buckets_per_window - 1` entries between offers.
    ring: VecDeque<Bucket>,
    cur: Option<Bucket>,
    /// Current bucket's grid start (time mode).
    cur_start: Micros,
    prev_ts: Option<Micros>,
    next_index: u64,
    emitted: u64,
    packets_total: u64,
    selected_total: u64,
    /// Per-window flow budget override; `None` keeps the default
    /// `BUCKET_FLOW_CAP × buckets_per_window`.
    flow_budget: Option<usize>,
}

impl Windower {
    /// New windower over `window`, sliding by `slide` (tumbling when
    /// `None`).
    ///
    /// # Panics
    /// Panics on specs the engine's validation rejects: zero extents,
    /// mixed count/time kinds, or a window that is not a multiple of
    /// its slide.
    #[must_use]
    pub fn new(
        target: Target,
        window: WindowSpec,
        slide: Option<WindowSpec>,
        sampler: Box<dyn StreamSampler>,
    ) -> Self {
        let stride = slide.unwrap_or(window);
        let (win_n, stride_n) = match (window, stride) {
            (WindowSpec::Count(w), WindowSpec::Count(s)) => (w, s),
            (WindowSpec::Time(w), WindowSpec::Time(s)) => (w.as_u64(), s.as_u64()),
            _ => panic!("window and slide must both be counts or both durations"),
        };
        assert!(win_n > 0 && stride_n > 0, "window extents must be positive");
        assert!(
            win_n % stride_n == 0,
            "window ({win_n}) must be a multiple of its slide ({stride_n})"
        );
        Windower {
            target,
            stride,
            buckets_per_window: (win_n / stride_n) as usize,
            sampler,
            ring: VecDeque::new(),
            cur: None,
            cur_start: Micros::ZERO,
            prev_ts: None,
            next_index: 0,
            emitted: 0,
            packets_total: 0,
            selected_total: 0,
            flow_budget: None,
        }
    }

    /// Override the per-window flow budget (default
    /// `BUCKET_FLOW_CAP × buckets_per_window`). A collector that knows
    /// its per-lane flow arrival rate sizes the budget to it; overflow
    /// still evicts least-recently-updated flows deterministically.
    ///
    /// # Panics
    /// Panics when `budget == 0` — a windower that may keep no flows
    /// cannot report flow counts.
    #[must_use]
    pub fn with_flow_budget(mut self, budget: usize) -> Self {
        assert!(budget > 0, "flow budget must be positive");
        self.flow_budget = Some(budget);
        self
    }

    /// Flows currently held across the open bucket and the ring — the
    /// instantaneous live-flow count a collector gauge publishes.
    #[must_use]
    pub fn live_flows(&self) -> u64 {
        let cur = self.cur.as_ref().map_or(0, |b| b.flows.len() as u64);
        cur + self.ring.iter().map(|b| b.flows.len() as u64).sum::<u64>()
    }

    /// Packets offered so far.
    #[must_use]
    pub fn packets(&self) -> u64 {
        self.packets_total
    }

    /// Packets selected so far (buffered samplers count at flush).
    #[must_use]
    pub fn selected(&self) -> u64 {
        self.selected_total
    }

    /// The sampler's short name.
    #[must_use]
    pub fn sampler_name(&self) -> &'static str {
        self.sampler.name()
    }

    /// Offer one packet (arrival order); returns any windows it
    /// completed.
    pub fn offer(&mut self, pkt: &PacketRecord) -> Vec<WindowPayload> {
        let mut out = Vec::new();
        self.offer_into(pkt, &mut out);
        out
    }

    /// Offer a decoded chunk in arrival order, appending every window it
    /// completes to one output vector. Exactly the left fold of
    /// [`Windower::offer`] — bit-identical windows — without a returned
    /// `Vec` per packet.
    pub fn offer_slice(&mut self, pkts: &[PacketRecord]) -> Vec<WindowPayload> {
        let mut out = Vec::new();
        for p in pkts {
            self.offer_into(p, &mut out);
        }
        out
    }

    fn offer_into(&mut self, pkt: &PacketRecord, out: &mut Vec<WindowPayload>) {
        let edge_gap = self
            .prev_ts
            .map(|t| pkt.timestamp.saturating_sub(t).as_u64());

        match self.stride {
            WindowSpec::Time(stride) => {
                let s = stride.as_u64().max(1);
                if self.cur.is_none() {
                    // The first packet anchors the window grid.
                    self.cur_start = pkt.timestamp;
                    self.cur = Some(Bucket::new(self.cur_start, self.target));
                } else {
                    let ahead = pkt
                        .timestamp
                        .as_u64()
                        .saturating_sub(self.cur_start.as_u64())
                        / s;
                    // Close every bucket the packet has moved past. After
                    // `buckets_per_window` closes all old content has
                    // rotated out, so a longer gap holds only fully-empty
                    // windows: jump over them instead of iterating.
                    let closes = (ahead as usize).min(self.buckets_per_window);
                    for _ in 0..closes {
                        self.close_current(out);
                        self.cur_start = Micros(self.cur_start.as_u64() + s);
                        self.cur = Some(Bucket::new(self.cur_start, self.target));
                    }
                    if ahead > closes as u64 {
                        let skipped = ahead - closes as u64;
                        self.cur_start = Micros(self.cur_start.as_u64() + skipped * s);
                        // The ring holds only empty gap buckets now;
                        // rebuild them on the jumped-to grid positions.
                        self.ring.clear();
                        for j in (1..self.buckets_per_window as u64).rev() {
                            self.ring.push_back(Bucket::new(
                                Micros(self.cur_start.as_u64().saturating_sub(j * s)),
                                self.target,
                            ));
                        }
                        self.cur = Some(Bucket::new(self.cur_start, self.target));
                    }
                }
                self.accumulate(pkt, edge_gap);
            }
            WindowSpec::Count(stride) => {
                if self.cur.is_none() {
                    self.cur = Some(Bucket::new(pkt.timestamp, self.target));
                }
                self.accumulate(pkt, edge_gap);
                if self.cur.as_ref().map(|b| b.packets) == Some(stride) {
                    self.close_current(out);
                }
            }
        }
    }

    /// End of stream: flush the sampler and close the partial bucket;
    /// a stream shorter than one full window still yields one
    /// (partial) window.
    pub fn finish(&mut self) -> Vec<WindowPayload> {
        let mut out = Vec::new();
        if self.cur.is_some() {
            self.close_current(&mut out);
            self.cur = None;
        }
        if out.is_empty() && self.emitted == 0 && self.ring.iter().any(|b| b.packets > 0) {
            out.push(self.merge_window(self.ring.len()));
        }
        out
    }

    /// Feed one packet into the current bucket and the sampler.
    fn accumulate(&mut self, pkt: &PacketRecord, edge_gap: Option<u64>) {
        let cur = self.cur.as_mut().expect("current bucket");
        let bucket_first = cur.packets == 0;
        // Within a bucket the stream predecessor is the window-local
        // predecessor; a bucket's first packet has no local gap (the
        // batch semantics for a window's first packet).
        let local_gap = if bucket_first { None } else { edge_gap };
        let verdict = self.sampler.offer(pkt, local_gap);
        if verdict == Offer::Selected {
            cur.selected += 1;
            self.selected_total += 1;
        }
        let weight = self.target.weight(pkt);
        if let Some(v) = self.target.value(pkt, local_gap) {
            cur.population.observe_weighted(v, weight);
            if verdict == Offer::Selected {
                cur.sample.observe_weighted(v, weight);
            }
        } else if bucket_first {
            // Interarrival target, bucket seam: keep the cross-bucket
            // observation for merges where the predecessor is in-window.
            cur.pop_edge = self.target.value(pkt, edge_gap).map(|v| (v, weight));
            if verdict == Offer::Selected {
                cur.sam_edge = cur.pop_edge;
            }
        }
        cur.flows.offer(pkt);
        if verdict == Offer::Selected {
            cur.sampled.offer(pkt);
        }
        cur.packets += 1;
        if cur.first_ts.is_none() {
            cur.first_ts = Some(pkt.timestamp);
        }
        cur.last_ts = Some(pkt.timestamp);
        self.prev_ts = Some(pkt.timestamp);
        self.packets_total += 1;
    }

    /// Complete the current bucket: drain any buffered sampler
    /// selections into it, rotate it into the ring, and emit a window
    /// if one is now complete (fully-empty windows are skipped). The
    /// eviction keeps the ring bounded at `buckets_per_window`.
    fn close_current(&mut self, out: &mut Vec<WindowPayload>) {
        let mut bucket = self.cur.take().expect("current bucket");
        for item in self.sampler.flush() {
            bucket.selected += 1;
            self.selected_total += 1;
            if let Some(v) = self.target.value(&item.packet, item.gap_us) {
                bucket
                    .sample
                    .observe_weighted(v, self.target.weight(&item.packet));
            }
            bucket.sampled.offer(&item.packet);
        }
        self.ring.push_back(bucket);
        if self.ring.len() == self.buckets_per_window {
            if self.ring.iter().any(|b| b.packets > 0) {
                let payload = self.merge_window(self.buckets_per_window);
                out.push(payload);
            }
            self.ring.pop_front();
        }
    }

    /// Merge the first `n` ring buckets into one window payload.
    fn merge_window(&mut self, n: usize) -> WindowPayload {
        // The front bucket never serves another window — it is popped
        // (or the ring dropped) right after the merge — so steal its
        // flow table instead of re-inserting every record. Later
        // buckets slide into future windows and are merged by copy.
        let first = self.ring.front_mut().expect("nonempty ring");
        // Merge unbounded (pure hash-map folds), then enforce the
        // window budget once: keep the most-recently-updated flows.
        let mut flows = std::mem::replace(&mut first.flows, FlowTable::unbounded());
        let mut sampled = std::mem::replace(&mut first.sampled, FlowTable::unbounded());
        let mut population = first.population.clone();
        let mut sample = first.sample.clone();
        let mut packets = first.packets;
        let mut selected = first.selected;
        let mut first_ts = first.first_ts;
        let mut last_ts = first.last_ts;
        // Whether an earlier bucket of this window holds packets — iff
        // so, a later bucket's first packet has an in-window
        // predecessor and its seam observation applies.
        let mut seen_packets = packets > 0;
        for b in self.ring.iter().take(n).skip(1) {
            population.merge(&b.population);
            sample.merge(&b.sample);
            if seen_packets {
                if let Some((v, w)) = b.pop_edge {
                    population.observe_weighted(v, w);
                }
                if let Some((v, w)) = b.sam_edge {
                    sample.observe_weighted(v, w);
                }
            }
            flows.merge(&b.flows);
            sampled.merge(&b.sampled);
            packets += b.packets;
            selected += b.selected;
            if first_ts.is_none() {
                first_ts = b.first_ts;
            }
            if b.last_ts.is_some() {
                last_ts = b.last_ts;
            }
            seen_packets = seen_packets || b.packets > 0;
        }
        let budget = self
            .flow_budget
            .unwrap_or_else(|| BUCKET_FLOW_CAP.saturating_mul(self.buckets_per_window));
        let before = flows.len() as u64;
        flows.truncate_lru(budget);
        sampled.truncate_lru(budget);
        let index = self.next_index;
        self.next_index += 1;
        self.emitted += 1;
        WindowPayload {
            index,
            start_ts: self.ring.front().expect("nonempty ring").start_ts,
            first_ts,
            last_ts,
            packets,
            selected,
            population,
            sample,
            flows: flows.len() as u64,
            syn_flows: flows.syn_flows(),
            evicted_flows: before - flows.len() as u64,
            sampled_sizes: sampled.sizes(),
            sampled_syn_flows: sampled.syn_flows(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::StreamMethod;
    use sampling::MethodSpec;

    fn packets(n: u64, gap_us: u64) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::new(Micros(i * gap_us), if i % 2 == 0 { 40 } else { 552 }))
            .collect()
    }

    fn windower(target: Target, window: WindowSpec, slide: Option<WindowSpec>) -> Windower {
        let sampler = StreamMethod::Spec(MethodSpec::Systematic { interval: 5 })
            .build(Micros(0), None, 0, 1993)
            .unwrap();
        Windower::new(target, window, slide, sampler)
    }

    /// Batch-path reference: the histograms an `Experiment` would build
    /// over this window slice with this selection.
    fn batch_hists(
        target: Target,
        window: &[PacketRecord],
        selected: &[usize],
    ) -> (Histogram, Histogram) {
        (
            target.population_histogram(window),
            target.sample_histogram(window, selected),
        )
    }

    #[test]
    fn parse_specs() {
        assert_eq!(WindowSpec::parse("1000"), Ok(WindowSpec::Count(1000)));
        assert_eq!(
            WindowSpec::parse("250ms"),
            Ok(WindowSpec::Time(Micros(250_000)))
        );
        assert_eq!(
            WindowSpec::parse("2s"),
            Ok(WindowSpec::Time(Micros(2_000_000)))
        );
        assert_eq!(
            WindowSpec::parse("15m"),
            Ok(WindowSpec::Time(Micros(900_000_000)))
        );
        assert_eq!(WindowSpec::parse("90us"), Ok(WindowSpec::Time(Micros(90))));
        assert!(WindowSpec::parse("0").is_err());
        assert!(WindowSpec::parse("10h").is_err());
        assert!(WindowSpec::parse("").is_err());
    }

    #[test]
    fn tumbling_count_windows_match_batch_slices() {
        let pkts = packets(250, 1_000);
        let mut w = windower(Target::Interarrival, WindowSpec::Count(100), None);
        let mut windows = Vec::new();
        for p in &pkts {
            windows.extend(w.offer(p));
        }
        windows.extend(w.finish());
        assert_eq!(windows.len(), 3); // 100 + 100 + 50 (partial tail)
        for (i, win) in windows.iter().enumerate() {
            let lo = i * 100;
            let hi = (lo + 100).min(250);
            let slice = &pkts[lo..hi];
            // Reproduce the systematic sampler's in-window selections.
            let selected: Vec<usize> = (0..slice.len()).filter(|j| (lo + j) % 5 == 0).collect();
            let (pop, sam) = batch_hists(Target::Interarrival, slice, &selected);
            assert_eq!(win.population, pop, "window {i} population");
            assert_eq!(win.sample, sam, "window {i} sample");
            assert_eq!(win.packets, (hi - lo) as u64);
        }
    }

    #[test]
    fn sliding_count_windows_match_overlapping_batch_slices() {
        let pkts = packets(300, 700);
        for target in [Target::Interarrival, Target::PacketSize] {
            let mut w = windower(target, WindowSpec::Count(100), Some(WindowSpec::Count(25)));
            let mut windows = Vec::new();
            for p in &pkts {
                windows.extend(w.offer(p));
            }
            windows.extend(w.finish());
            // Windows end at packet 100, 125, …, 300: 9 of them.
            assert_eq!(windows.len(), 9, "{target}");
            for (i, win) in windows.iter().enumerate() {
                let hi = 100 + i * 25;
                let lo = hi - 100;
                let slice = &pkts[lo..hi];
                let selected: Vec<usize> = (0..slice.len()).filter(|j| (lo + j) % 5 == 0).collect();
                let (pop, sam) = batch_hists(target, slice, &selected);
                assert_eq!(win.population, pop, "{target} window {i} population");
                assert_eq!(win.sample, sam, "{target} window {i} sample");
            }
        }
    }

    #[test]
    fn time_windows_tumble_on_the_grid() {
        // 1 packet per ms, 10 ms windows anchored at the first packet.
        let pkts = packets(100, 1_000);
        let mut w = windower(Target::PacketSize, WindowSpec::Time(Micros(10_000)), None);
        let mut windows = Vec::new();
        for p in &pkts {
            windows.extend(w.offer(p));
        }
        windows.extend(w.finish());
        assert_eq!(windows.len(), 10);
        for (i, win) in windows.iter().enumerate() {
            assert_eq!(win.packets, 10, "window {i}");
            assert_eq!(win.start_ts, Micros(i as u64 * 10_000));
        }
    }

    #[test]
    fn long_idle_gaps_skip_empty_windows_in_bounded_work() {
        let mut w = windower(Target::PacketSize, WindowSpec::Time(Micros(1_000)), None);
        let mut windows = Vec::new();
        windows.extend(w.offer(&PacketRecord::new(Micros(0), 40)));
        // A ~12-day silence: 10^12 µs = 10^9 empty windows, skipped in
        // O(buckets_per_window) work.
        windows.extend(w.offer(&PacketRecord::new(Micros(1_000_000_000_000), 40)));
        windows.extend(w.finish());
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].packets, 1);
        assert_eq!(windows[1].packets, 1);
        assert_eq!(windows[1].start_ts, Micros(1_000_000_000_000));
    }

    #[test]
    fn sliding_time_windows_overlap() {
        // Packet every 1 ms; window 4 ms sliding by 2 ms.
        let pkts = packets(20, 1_000);
        let mut w = windower(
            Target::PacketSize,
            WindowSpec::Time(Micros(4_000)),
            Some(WindowSpec::Time(Micros(2_000))),
        );
        let mut windows = Vec::new();
        for p in &pkts {
            windows.extend(w.offer(p));
        }
        windows.extend(w.finish());
        for win in &windows {
            assert!(win.packets >= 2, "overlapping windows each hold packets");
        }
        // Consecutive windows advance by the slide, not the window.
        for pair in windows.windows(2) {
            assert_eq!(pair[1].start_ts.as_u64() - pair[0].start_ts.as_u64(), 2_000);
        }
    }

    #[test]
    fn short_stream_still_reports_one_window() {
        let pkts = packets(7, 1_000);
        let mut w = windower(Target::PacketSize, WindowSpec::Count(100), None);
        let mut windows = Vec::new();
        for p in &pkts {
            windows.extend(w.offer(p));
        }
        windows.extend(w.finish());
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].packets, 7);
        assert_eq!(windows[0].selected, 2); // indices 0 and 5
    }

    #[test]
    fn windows_count_flows_and_syn_starts() {
        // 3 interleaved flows of 40 packets each; flow f's first packet
        // is SYN-marked and lands in the first window.
        let pkts: Vec<PacketRecord> = (0..120u64)
            .map(|i| {
                let flow = (i % 3) as u32 + 1;
                PacketRecord::new(Micros(i * 1_000), 552).with_flow(flow, i < 3)
            })
            .collect();
        let mut w = windower(Target::PacketSize, WindowSpec::Count(60), None);
        let mut windows = Vec::new();
        for p in &pkts {
            windows.extend(w.offer(p));
        }
        windows.extend(w.finish());
        assert_eq!(windows.len(), 2);
        assert_eq!((windows[0].flows, windows[0].syn_flows), (3, 3));
        // Continuing flows appear again but did not *start* here.
        assert_eq!((windows[1].flows, windows[1].syn_flows), (3, 0));

        // Matches the batch reference: a FlowTable over the same slice.
        let batch = nettrace::FlowTable::from_packets(usize::MAX, &pkts[..60]);
        assert_eq!(windows[0].flows, batch.len() as u64);
        assert_eq!(windows[0].syn_flows, batch.syn_flows());

        // Flow-id-free packets group by 5-tuple instead.
        let plain = packets(10, 1_000);
        let mut w = windower(Target::PacketSize, WindowSpec::Count(10), None);
        let mut windows = Vec::new();
        for p in &plain {
            windows.extend(w.offer(p));
        }
        windows.extend(w.finish());
        assert_eq!(windows[0].flows, 1, "identical 5-tuples are one flow");
        assert_eq!(windows[0].syn_flows, 0);
    }

    #[test]
    fn sliding_windows_report_overlapping_flows() {
        // Flow 1 spans packets 0..50, flow 2 spans 50..100; window 100
        // sliding by 50 sees both in the overlapping window.
        let pkts: Vec<PacketRecord> = (0..100u64)
            .map(|i| {
                let flow = if i < 50 { 1 } else { 2 };
                PacketRecord::new(Micros(i * 1_000), 40).with_flow(flow, i == 0 || i == 50)
            })
            .collect();
        let mut w = windower(
            Target::PacketSize,
            WindowSpec::Count(100),
            Some(WindowSpec::Count(50)),
        );
        let mut windows = Vec::new();
        for p in &pkts {
            windows.extend(w.offer(p));
        }
        windows.extend(w.finish());
        assert_eq!(windows[0].flows, 2);
        assert_eq!(windows[0].syn_flows, 2);
    }

    /// The flow budget moved from the per-packet path to the window
    /// merge; per-window flow accounting must not have changed. Pinned
    /// against the pre-refactor values and the unbounded batch
    /// reference.
    #[test]
    fn merge_time_flow_budget_reports_the_same_windows() {
        // Many flows, heavily interleaved, SYNs scattered across both
        // windows — every packet advances its flow's last-seen time,
        // which is exactly the case that paid the order-index churn.
        let pkts: Vec<PacketRecord> = (0..2_000u64)
            .map(|i| {
                let flow = (i % 97) as u32 + 1;
                PacketRecord::new(Micros(i * 500), 552).with_flow(flow, i < 97 || i == 1_500)
            })
            .collect();
        let mut w = windower(Target::PacketSize, WindowSpec::Count(1_000), None);
        let mut windows = Vec::new();
        for p in &pkts {
            windows.extend(w.offer(p));
        }
        windows.extend(w.finish());
        assert_eq!(windows.len(), 2);
        assert_eq!((windows[0].flows, windows[0].syn_flows), (97, 97));
        assert_eq!((windows[1].flows, windows[1].syn_flows), (97, 1));
        for (i, win) in windows.iter().enumerate() {
            let batch =
                nettrace::FlowTable::from_packets(usize::MAX, &pkts[i * 1_000..(i + 1) * 1_000]);
            assert_eq!(win.flows, batch.len() as u64, "window {i}");
            assert_eq!(win.syn_flows, batch.syn_flows(), "window {i}");
        }
    }

    /// Overflowing the flow budget still evicts — the bound moved to the
    /// merge, it did not disappear.
    #[test]
    fn flow_budget_is_still_enforced_at_the_merge() {
        let n = BUCKET_FLOW_CAP as u64 + 500;
        let pkts: Vec<PacketRecord> = (0..n)
            .map(|i| PacketRecord::new(Micros(i * 10), 40).with_flow(i as u32 + 1, true))
            .collect();
        let mut w = windower(Target::PacketSize, WindowSpec::Count(n), None);
        let mut windows = Vec::new();
        for p in &pkts {
            windows.extend(w.offer(p));
        }
        windows.extend(w.finish());
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].packets, n);
        assert_eq!(windows[0].flows, BUCKET_FLOW_CAP as u64);
    }

    /// `offer_slice` is the left fold of `offer`: same windows, same
    /// histograms, same flow counts, for tumbling and sliding shapes and
    /// for any chunking of the stream.
    #[test]
    fn offer_slice_matches_per_packet_offers() {
        let pkts: Vec<PacketRecord> = (0..500u64)
            .map(|i| {
                PacketRecord::new(Micros(i * 900), if i % 2 == 0 { 40 } else { 552 })
                    .with_flow((i % 7) as u32 + 1, i < 7)
            })
            .collect();
        for (window, slide) in [
            (WindowSpec::Count(120), None),
            (WindowSpec::Count(120), Some(WindowSpec::Count(30))),
            (WindowSpec::Time(Micros(50_000)), None),
        ] {
            let mut per_packet = windower(Target::Interarrival, window, slide);
            let mut reference = Vec::new();
            for p in &pkts {
                reference.extend(per_packet.offer(p));
            }
            reference.extend(per_packet.finish());

            for chunk in [1usize, 17, 120, 500] {
                let mut sliced = windower(Target::Interarrival, window, slide);
                let mut got = Vec::new();
                for c in pkts.chunks(chunk) {
                    got.extend(sliced.offer_slice(c));
                }
                got.extend(sliced.finish());
                assert_eq!(got.len(), reference.len(), "chunk {chunk}");
                for (a, b) in got.iter().zip(&reference) {
                    assert_eq!(a.population, b.population, "chunk {chunk}");
                    assert_eq!(a.sample, b.sample, "chunk {chunk}");
                    assert_eq!(
                        (a.packets, a.selected, a.flows, a.syn_flows),
                        (b.packets, b.selected, b.flows, b.syn_flows),
                        "chunk {chunk}"
                    );
                }
            }
        }
    }

    /// The sampled flow table is exactly the flows of the selected
    /// packets: what a collector downstream of the 1-in-k tap would
    /// aggregate, and the input the inversion estimators expect.
    #[test]
    fn sampled_flow_sizes_follow_the_selected_packets() {
        // 1-in-5 systematic over 4 interleaved flows: selected indices
        // 0,5,10,…,95 cycle through the flows (gcd(4,5)=1), 5 hits each.
        let pkts: Vec<PacketRecord> = (0..100u64)
            .map(|i| PacketRecord::new(Micros(i * 1_000), 552).with_flow((i % 4) as u32 + 1, i < 4))
            .collect();
        let mut w = windower(Target::PacketSize, WindowSpec::Count(100), None);
        let mut windows = Vec::new();
        for p in &pkts {
            windows.extend(w.offer(p));
        }
        windows.extend(w.finish());
        assert_eq!(windows.len(), 1);
        let win = &windows[0];
        assert_eq!(win.flows, 4);
        assert_eq!(win.sampled_sizes, vec![5, 5, 5, 5]);
        // Only flow 1's SYN (index 0) landed on the selection grid.
        assert_eq!(win.sampled_syn_flows, 1);
        assert_eq!(win.evicted_flows, 0);
    }

    /// A per-window flow budget override bounds both tables and reports
    /// its evictions; `live_flows` tracks the open bucket.
    #[test]
    fn flow_budget_override_bounds_and_reports_evictions() {
        let pkts: Vec<PacketRecord> = (0..100u64)
            .map(|i| PacketRecord::new(Micros(i * 10), 40).with_flow(i as u32 + 1, true))
            .collect();
        let sampler = StreamMethod::Spec(MethodSpec::Systematic { interval: 5 })
            .build(Micros(0), None, 0, 1993)
            .unwrap();
        let mut w = Windower::new(Target::PacketSize, WindowSpec::Count(100), None, sampler)
            .with_flow_budget(30);
        let mut windows = Vec::new();
        for (i, p) in pkts.iter().enumerate() {
            if i == 50 {
                assert_eq!(w.live_flows(), 50, "open bucket holds one flow per packet");
            }
            windows.extend(w.offer(p));
        }
        windows.extend(w.finish());
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].flows, 30);
        assert_eq!(windows[0].evicted_flows, 70);
        assert!(windows[0].sampled_sizes.len() <= 30);
        assert_eq!(w.live_flows(), 0, "closed windows release their flows");
    }

    #[test]
    fn reservoir_selections_arrive_at_window_flush() {
        let pkts = packets(100, 1_000);
        let sampler = StreamMethod::Reservoir { capacity: 10 }
            .build(Micros(0), None, 0, 1993)
            .unwrap();
        let mut w = Windower::new(Target::PacketSize, WindowSpec::Count(50), None, sampler);
        let mut windows = Vec::new();
        for p in &pkts {
            windows.extend(w.offer(p));
        }
        windows.extend(w.finish());
        assert_eq!(windows.len(), 2);
        for win in &windows {
            assert_eq!(win.selected, 10, "reservoir yields exactly capacity");
            assert_eq!(win.sample.total(), 10);
            // Buffered selections land in the sampled flow table at the
            // flush; id-free packets collapse to one 5-tuple flow.
            assert_eq!(win.sampled_sizes.iter().sum::<u64>(), 10);
        }
        assert_eq!(w.selected(), 20);
    }
}
