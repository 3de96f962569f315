//! Flow aggregation with one eviction policy.
//!
//! A [`FlowTable`] groups packets into flows — by synthetic flow id
//! when one is present, by 5-tuple otherwise — and accumulates per-flow
//! packet/byte counts, SYN observation, and first/last timestamps. It
//! is the aggregation substrate of the flow-statistics inversion suite:
//! run it over the *sampled* packet stream and the resulting sampled
//! flow sizes feed `statkit::inversion`; run it over the full trace and
//! the sizes are the ground truth the estimators are scored against.
//!
//! Two properties matter and are pinned by tests:
//!
//! * **Determinism** — storage is a hash map under a fixed (never
//!   randomized) in-tree hasher, every ordered read ([`FlowTable::flows`],
//!   [`FlowTable::sizes`]) sorts by key before returning, and batch
//!   construction is defined as the left fold of [`FlowTable::offer`],
//!   so batch and streaming aggregation are bit-identical.
//! * **Bounded memory** — a table aggregates without a bound, and its
//!   owner cuts it to a flow budget with [`FlowTable::truncate_lru`],
//!   the only operation that drops flows: it keeps the budget's worth of
//!   most-recently-updated flows (the smallest key goes on ties) and
//!   counts what it dropped. Surviving flows keep their records exactly.
//!
//! The hot path is `O(1)` per packet: one hash probe per offer. The
//! streaming windower aggregates flows per bucket at line rate and
//! enforces its budget once per window, an `O(flows)` selection.

use crate::histogram::{BinSpec, Histogram};
use crate::packet::{PacketRecord, Protocol};
use crate::time::Micros;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Deterministic multiply-xor hasher (FxHash-style) for flow keys.
///
/// `std`'s default hasher is seeded per process; flow aggregation must
/// hash identically on every run, so the table pins this fixed-key
/// folding instead. Not DoS-hardened — flow keys come from decoded
/// captures we already bound elsewhere, not from an open network
/// socket.
#[derive(Debug, Default)]
pub struct FlowHasher {
    state: u64,
}

impl FlowHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FlowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.fold(word);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

type FlowMap = HashMap<FlowKey, FlowRecord, BuildHasherDefault<FlowHasher>>;

/// Flow identity: synthetic id when assigned, 5-tuple otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlowKey {
    /// Synthetic flow id (nonzero), as set by the flow generators.
    Id(u32),
    /// Classic 5-tuple for packets without a synthetic id.
    Tuple {
        /// IP protocol number.
        protocol: u8,
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Source network number.
        src_net: u16,
        /// Destination network number.
        dst_net: u16,
    },
}

impl FlowKey {
    /// The key a packet aggregates under.
    #[must_use]
    pub fn of(p: &PacketRecord) -> FlowKey {
        if p.flow_id != 0 {
            FlowKey::Id(p.flow_id)
        } else {
            FlowKey::Tuple {
                protocol: p.protocol.number(),
                src_port: p.src_port,
                dst_port: p.dst_port,
                src_net: p.src_net,
                dst_net: p.dst_net,
            }
        }
    }
}

impl std::hash::Hash for FlowKey {
    /// Pack the whole identity into two words (variant tag in the low
    /// bit) so hashing is two folds, not one per field.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            FlowKey::Id(id) => {
                state.write_u64(u64::from(id) << 1);
                state.write_u64(0);
            }
            FlowKey::Tuple {
                protocol,
                src_port,
                dst_port,
                src_net,
                dst_net,
            } => {
                state.write_u64(
                    (u64::from(protocol) << 33)
                        | (u64::from(src_port) << 17)
                        | (u64::from(dst_port) << 1)
                        | 1,
                );
                state.write_u64((u64::from(src_net) << 16) | u64::from(dst_net));
            }
        }
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowKey::Id(id) => write!(f, "flow#{id}"),
            FlowKey::Tuple {
                protocol,
                src_port,
                dst_port,
                src_net,
                dst_net,
            } => write!(
                f,
                "{}:{src_net}.{src_port}>{dst_net}.{dst_port}",
                Protocol::from_number(*protocol)
            ),
        }
    }
}

/// Accumulated state of one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// Packets observed.
    pub packets: u64,
    /// Bytes observed (sum of packet sizes).
    pub bytes: u64,
    /// Whether a SYN-flagged packet was observed.
    pub syn_seen: bool,
    /// Timestamp of the first observed packet.
    pub first_ts: Micros,
    /// Timestamp of the most recent observed packet.
    pub last_ts: Micros,
}

/// Deterministic flow aggregator. See the module docs.
#[derive(Debug, Clone)]
pub struct FlowTable {
    map: FlowMap,
    evicted_flows: u64,
    evicted_packets: u64,
    offered: u64,
}

impl FlowTable {
    /// An empty table. It holds every flow offered to it until
    /// [`FlowTable::truncate_lru`] cuts it to a budget.
    #[must_use]
    pub fn unbounded() -> FlowTable {
        FlowTable {
            map: FlowMap::default(),
            evicted_flows: 0,
            evicted_packets: 0,
            offered: 0,
        }
    }

    /// Pre-size the storage for about `flows` live flows, so a burst of
    /// distinct flows does not pay a chain of rehashes. A hint, not a
    /// bound: the table still grows past it.
    pub fn reserve(&mut self, flows: usize) {
        self.map.reserve(flows.saturating_sub(self.map.len()));
    }

    /// Aggregate every packet of a slice: exactly the left fold of
    /// [`FlowTable::offer`], so it is bit-identical to streaming the
    /// same packets one at a time.
    #[must_use]
    pub fn from_packets(packets: &[PacketRecord]) -> FlowTable {
        let mut t = FlowTable::unbounded();
        for p in packets {
            t.offer(p);
        }
        t
    }

    /// Offer one packet: one hash probe.
    pub fn offer(&mut self, p: &PacketRecord) {
        self.offered += 1;
        match self.map.entry(FlowKey::of(p)) {
            Entry::Occupied(mut e) => {
                let rec = e.get_mut();
                rec.packets += 1;
                rec.bytes += u64::from(p.size);
                rec.syn_seen |= p.syn();
                rec.first_ts = rec.first_ts.min(p.timestamp);
                rec.last_ts = rec.last_ts.max(p.timestamp);
            }
            Entry::Vacant(e) => {
                e.insert(FlowRecord {
                    packets: 1,
                    bytes: u64::from(p.size),
                    syn_seen: p.syn(),
                    first_ts: p.timestamp,
                    last_ts: p.timestamp,
                });
            }
        }
    }

    /// Merge another table's flows into this one (first/last timestamps
    /// widen, counters add, SYN ors). Every per-flow update commutes, so
    /// the flows fold in storage order.
    pub fn merge(&mut self, other: &FlowTable) {
        for (key, rec) in &other.map {
            match self.map.entry(*key) {
                Entry::Occupied(mut e) => {
                    let r = e.get_mut();
                    r.packets += rec.packets;
                    r.bytes += rec.bytes;
                    r.syn_seen |= rec.syn_seen;
                    r.first_ts = r.first_ts.min(rec.first_ts);
                    r.last_ts = r.last_ts.max(rec.last_ts);
                }
                Entry::Vacant(e) => {
                    e.insert(*rec);
                }
            }
        }
        self.evicted_flows += other.evicted_flows;
        self.evicted_packets += other.evicted_packets;
        self.offered += other.offered;
    }

    /// Cut the table to a flow budget: keep the `cap`
    /// most-recently-updated flows (largest key on ties) and evict the
    /// rest, counting the flows and packets that left. A table of at
    /// most `cap` flows is unchanged.
    ///
    /// This is the windower's merge-time budget: buckets aggregate
    /// unbounded (one hash probe per packet), and the survivor set is
    /// chosen once per window — `O(flows)` to select.
    ///
    /// # Panics
    /// Panics when `cap == 0`.
    pub fn truncate_lru(&mut self, cap: usize) {
        assert!(cap > 0, "flow table capacity must be positive");
        if self.map.len() <= cap {
            return;
        }
        let mut ranks: Vec<(Micros, FlowKey)> =
            self.map.iter().map(|(k, r)| (r.last_ts, *k)).collect();
        // Partition around the cap'th most-recent entry: everything
        // below the pivot is evicted. O(flows), no full sort.
        let cut = ranks.len() - cap;
        ranks.select_nth_unstable(cut - 1);
        for &(_, key) in &ranks[..cut] {
            if let Some(rec) = self.map.remove(&key) {
                self.evicted_flows += 1;
                self.evicted_packets += rec.packets;
            }
        }
    }

    /// Live flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no flows are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Packets offered (including any later evicted).
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Flows evicted by [`FlowTable::truncate_lru`].
    #[must_use]
    pub fn evicted_flows(&self) -> u64 {
        self.evicted_flows
    }

    /// Packets inside evicted flows at their eviction instants.
    #[must_use]
    pub fn evicted_packets(&self) -> u64 {
        self.evicted_packets
    }

    /// Iterate live flows in key order.
    pub fn flows(&self) -> impl Iterator<Item = (&FlowKey, &FlowRecord)> {
        let mut v: Vec<(&FlowKey, &FlowRecord)> = self.map.iter().collect();
        v.sort_unstable_by_key(|&(k, _)| *k);
        v.into_iter()
    }

    /// Live flow sizes (packets per flow) in key order.
    #[must_use]
    pub fn sizes(&self) -> Vec<u64> {
        self.flows().map(|(_, r)| r.packets).collect()
    }

    /// Live flows that saw a SYN.
    #[must_use]
    pub fn syn_flows(&self) -> u64 {
        self.map.values().filter(|r| r.syn_seen).count() as u64
    }

    /// Packets held by live flows.
    #[must_use]
    pub fn live_packets(&self) -> u64 {
        self.map.values().map(|r| r.packets).sum()
    }

    /// Histogram of live flow sizes under `spec`.
    #[must_use]
    pub fn size_histogram(&self, spec: &BinSpec) -> Histogram {
        Histogram::from_values(spec.clone(), self.map.values().map(|r| r.packets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(t: u64, flow: u32, first: bool) -> PacketRecord {
        PacketRecord::new(Micros(t), 100).with_flow(flow, first)
    }

    #[test]
    fn groups_by_flow_id_and_tuple() {
        let mut t = FlowTable::unbounded();
        t.offer(&pkt(0, 1, true));
        t.offer(&pkt(10, 1, false));
        t.offer(&pkt(20, 2, true));
        // No flow id: keyed by 5-tuple.
        t.offer(&PacketRecord::new(Micros(30), 40).with_ports(53, 53));
        t.offer(&PacketRecord::new(Micros(40), 40).with_ports(53, 53));
        t.offer(&PacketRecord::new(Micros(50), 40).with_ports(80, 80));
        assert_eq!(t.len(), 4);
        assert_eq!(t.sizes(), vec![2, 1, 2, 1]);
        assert_eq!(t.syn_flows(), 2);
        assert_eq!(t.offered(), 6);
        assert_eq!(t.live_packets(), 6);
        let rec = t.flows().next().unwrap().1;
        assert_eq!(rec.packets, 2);
        assert_eq!(rec.bytes, 200);
        assert!(rec.syn_seen);
        assert_eq!(rec.first_ts, Micros(0));
        assert_eq!(rec.last_ts, Micros(10));
    }

    #[test]
    fn merge_combines_flows() {
        let mut a = FlowTable::unbounded();
        a.offer(&pkt(0, 1, true));
        a.offer(&pkt(10, 2, true));
        let mut b = FlowTable::unbounded();
        b.offer(&pkt(20, 1, false));
        b.offer(&pkt(30, 3, true));
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.sizes(), vec![2, 1, 1]);
        assert_eq!(a.offered(), 4);
        let rec = a.flows().next().unwrap().1;
        assert_eq!((rec.first_ts, rec.last_ts), (Micros(0), Micros(20)));
        assert!(rec.syn_seen);
    }

    #[test]
    fn size_histogram_counts_flows_not_packets() {
        let mut t = FlowTable::unbounded();
        for i in 0..10 {
            t.offer(&pkt(i, 1, i == 0));
        }
        t.offer(&pkt(100, 2, true));
        let h = t.size_histogram(&BinSpec::FixedWidth { width: 4, cap: 16 });
        assert_eq!(h.total(), 2); // two flows
    }

    /// Five flows, last seen at 2, 10, 25, 25 and 40 µs (flows 5, 2, 3,
    /// 4, 1), holding 9 packets.
    fn five_flows() -> FlowTable {
        let mut t = FlowTable::unbounded();
        for (ts, flow) in [(0, 1), (1, 5), (2, 5), (5, 3), (10, 2)] {
            t.offer(&pkt(ts, flow, false));
        }
        for (ts, flow) in [(15, 3), (25, 3), (25, 4), (40, 1)] {
            t.offer(&pkt(ts, flow, false));
        }
        t
    }

    fn snapshot(t: &FlowTable) -> Vec<(FlowKey, FlowRecord)> {
        t.flows().map(|(k, r)| (*k, *r)).collect()
    }

    #[test]
    fn truncate_lru_keeps_the_most_recently_updated_flows() {
        let whole = five_flows();
        let mut t = whole.clone();
        t.truncate_lru(3);
        let keys: Vec<FlowKey> = t.flows().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![FlowKey::Id(1), FlowKey::Id(3), FlowKey::Id(4)]);
        // Survivors keep their records exactly.
        let full: Vec<_> = snapshot(&whole)
            .into_iter()
            .filter(|(k, _)| keys.contains(k))
            .collect();
        assert_eq!(snapshot(&t), full);
        // Flows 5 (2 packets) and 2 (1 packet) left.
        assert_eq!((t.evicted_flows(), t.evicted_packets()), (2, 3));
        assert_eq!(t.live_packets() + t.evicted_packets(), t.offered());
        assert_eq!(t.offered(), 9);
    }

    #[test]
    fn truncate_lru_evicts_the_smallest_key_on_equal_last_ts() {
        let mut t = five_flows();
        t.truncate_lru(2);
        // Flows 3 and 4 were both last seen at 25 µs: 3 goes.
        let keys: Vec<FlowKey> = t.flows().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![FlowKey::Id(1), FlowKey::Id(4)]);
        assert_eq!((t.evicted_flows(), t.evicted_packets()), (3, 6));
        assert_eq!(t.live_packets() + t.evicted_packets(), t.offered());
    }

    #[test]
    fn truncate_lru_at_or_above_the_flow_count_changes_nothing() {
        let whole = five_flows();
        for cap in [5, 6, usize::MAX] {
            let mut t = whole.clone();
            t.truncate_lru(cap);
            assert_eq!(snapshot(&t), snapshot(&whole), "cap {cap}");
            assert_eq!((t.evicted_flows(), t.evicted_packets()), (0, 0));
            assert_eq!(t.offered(), whole.offered());
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn truncate_lru_to_zero_panics() {
        five_flows().truncate_lru(0);
    }
}
