//! The [`Trace`] container: an ordered parent population of packets.
//!
//! The paper treats its one-hour trace as the *true parent population*
//! (§4); all sampling simulations run over it and all disparity metrics
//! compare back to it. `Trace` therefore guarantees nondecreasing
//! timestamps at construction time and offers the two slicing operations
//! the experiments need: by time window (§7.3 interval experiments) and by
//! packet index.

use crate::error::TraceError;
use crate::packet::PacketRecord;
use crate::time::{ClockModel, Micros};

/// An ordered sequence of packet records with nondecreasing timestamps.
///
/// ```
/// use nettrace::{Micros, PacketRecord, Trace};
/// let trace = Trace::new(vec![
///     PacketRecord::new(Micros(0), 40),
///     PacketRecord::new(Micros(2_400), 552),
///     PacketRecord::new(Micros(4_000), 40),
/// ]).unwrap();
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace.total_bytes(), 632);
/// assert_eq!(trace.interarrivals(), vec![2_400, 1_600]);
/// // Half-open time windows select packets by timestamp.
/// assert_eq!(trace.window(Micros(0), Micros(2_400)).len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    packets: Vec<PacketRecord>,
}

impl Trace {
    /// Build a trace from packets, verifying timestamp order.
    ///
    /// # Errors
    /// Returns [`TraceError::OutOfOrder`] naming the first offending index
    /// if timestamps ever decrease.
    pub fn new(packets: Vec<PacketRecord>) -> Result<Self, TraceError> {
        for i in 1..packets.len() {
            if packets[i].timestamp < packets[i - 1].timestamp {
                return Err(TraceError::OutOfOrder {
                    index: i,
                    prev_us: packets[i - 1].timestamp.as_u64(),
                    this_us: packets[i].timestamp.as_u64(),
                });
            }
        }
        Ok(Trace { packets })
    }

    /// Build a trace from packets in any order. Packets already in
    /// timestamp order are kept as they are; any others are put in
    /// order by a stable radix sort on timestamps, so packets with
    /// equal timestamps keep their relative order, exactly as
    /// `sort_by_key(|p| p.timestamp)` would leave them.
    #[must_use]
    pub fn from_unordered(mut packets: Vec<PacketRecord>) -> Self {
        if !packets.is_sorted_by_key(|p| p.timestamp) {
            radix_sort_by_timestamp(&mut packets);
        }
        Trace { packets }
    }

    /// An empty trace.
    #[must_use]
    pub fn empty() -> Self {
        Trace::default()
    }

    /// Number of packets (the population size `N`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the trace holds no packets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// The packet records.
    #[must_use]
    pub fn packets(&self) -> &[PacketRecord] {
        &self.packets
    }

    /// Iterate over packet records.
    pub fn iter(&self) -> std::slice::Iter<'_, PacketRecord> {
        self.packets.iter()
    }

    /// Timestamp of the first packet, if any.
    #[must_use]
    pub fn start(&self) -> Option<Micros> {
        self.packets.first().map(|p| p.timestamp)
    }

    /// Timestamp of the last packet, if any.
    #[must_use]
    pub fn end(&self) -> Option<Micros> {
        self.packets.last().map(|p| p.timestamp)
    }

    /// Trace duration (last minus first timestamp); zero for traces with
    /// fewer than two packets.
    #[must_use]
    pub fn duration(&self) -> Micros {
        match (self.start(), self.end()) {
            (Some(s), Some(e)) => e.saturating_sub(s),
            _ => Micros::ZERO,
        }
    }

    /// Total bytes across all packets.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(|p| u64::from(p.size)).sum()
    }

    /// A view of the packets whose timestamps fall in `[from, to)`.
    ///
    /// This is the *interval* operation of the paper's §7.3: experiments
    /// sample over exponentially growing windows relative to the start of
    /// the hour. The returned slice borrows the trace (no copying).
    #[must_use]
    pub fn window(&self, from: Micros, to: Micros) -> &[PacketRecord] {
        if to <= from {
            return &[];
        }
        let lo = self.packets.partition_point(|p| p.timestamp < from);
        let hi = self.packets.partition_point(|p| p.timestamp < to);
        &self.packets[lo..hi]
    }

    /// Re-timestamp every packet through a capture-clock model
    /// (e.g. [`ClockModel::SDSC_1993`]'s 400 µs quantization).
    /// Quantization is monotone, so ordering is preserved.
    #[must_use]
    pub fn quantized(&self, clock: ClockModel) -> Trace {
        let packets = self
            .packets
            .iter()
            .map(|p| {
                let mut q = *p;
                q.timestamp = clock.quantize(p.timestamp);
                q
            })
            .collect();
        Trace { packets }
    }

    /// Interarrival times between consecutive packets, in microseconds.
    /// Length is `len() - 1` (empty for traces with < 2 packets).
    #[must_use]
    pub fn interarrivals(&self) -> Vec<u64> {
        self.packets
            .windows(2)
            .map(|w| w[1].timestamp.saturating_sub(w[0].timestamp).as_u64())
            .collect()
    }

    /// Packet sizes in bytes, in arrival order.
    #[must_use]
    pub fn sizes(&self) -> Vec<u16> {
        self.packets.iter().map(|p| p.size).collect()
    }

    /// Aggregate statistics over the trace.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            packets: self.len() as u64,
            bytes: self.total_bytes(),
            duration: self.duration(),
        }
    }
}

/// Timestamp bits sorted per radix pass.
const DIGIT_BITS: u32 = 11;
/// Buckets per radix pass.
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Stable least-significant-digit radix sort by timestamp.
///
/// Sorts each timestamp's offset from the smallest, [`DIGIT_BITS`] bits
/// a pass, in only as many passes as the largest offset needs: three
/// for spans under 2^33 µs (about 2.4 hours), six for the whole `u64`
/// range. Each pass is a counting sort that scatters the packets, in
/// input order, between `packets` and one scratch vector of the same
/// length, so packets with equal timestamps keep their order.
fn radix_sort_by_timestamp(packets: &mut Vec<PacketRecord>) {
    packets.shrink_to_fit();
    let (min, max) = packets.iter().fold((u64::MAX, 0), |(lo, hi), p| {
        let t = p.timestamp.as_u64();
        (lo.min(t), hi.max(t))
    });
    let passes = (u64::BITS - (max - min).leading_zeros()).div_ceil(DIGIT_BITS);
    let digit = |p: &PacketRecord, pass: u32| {
        ((p.timestamp.as_u64() - min) >> (pass * DIGIT_BITS)) as usize & (BUCKETS - 1)
    };
    // Every pass's bucket sizes, from one read of the timestamps.
    let mut counts = vec![[0usize; BUCKETS]; passes as usize];
    for p in packets.iter() {
        for (pass, sizes) in (0..).zip(&mut counts) {
            sizes[digit(p, pass)] += 1;
        }
    }
    let mut scratch = vec![packets[0]; packets.len()];
    for (pass, next) in (0..).zip(&mut counts) {
        // Bucket sizes become each bucket's next free slot.
        let mut start = 0;
        for slot in next.iter_mut() {
            let size = *slot;
            *slot = start;
            start += size;
        }
        for p in packets.iter() {
            let slot = &mut next[digit(p, pass)];
            scratch[*slot] = *p;
            *slot += 1;
        }
        std::mem::swap(packets, &mut scratch);
    }
}

/// Packets a block holds once the first run has ended.
const BLOCK: usize = 8 * 1024;
/// Most positions a late packet moves back within its run.
const MAX_LATE: usize = 16;
/// Most runs that go through one merge; more go through the radix sort.
/// Each packet the merge takes costs a walk up the tree of runs and a
/// read from wherever its run stands, so the merge slows as the runs
/// grow many: reading a million packets on a 2-core Xeon, it was ahead
/// of the radix sort in 1,000 or 2,000 sections and behind it in 4,000.
const MAX_MERGE: usize = 2_048;

/// Collects packets arriving in file order into a [`Trace`] in
/// timestamp order, for the whole-capture readers. A capture's disorder
/// is mostly sections that restart their clocks and packets a few
/// positions late, and the collector puts both right with one move of
/// each packet after it arrives.
///
/// The packets form runs in timestamp order, each a stretch of
/// consecutive arrivals. A packet stamped before the latest packet of
/// its run moves back into place when at most [`MAX_LATE`] of the run's
/// packets stamp later; it never passes an equal stamp or the run's
/// start. Otherwise it starts a new run. The first run grows one `Vec`,
/// so an in-order capture ends in it; the runs after it fill blocks of
/// [`BLOCK`] packets, so growing never copies. [`finish`] merges up to
/// [`MAX_MERGE`] runs, giving ties to the earlier run, which is the
/// order a stable sort of the arrivals by timestamp gives; more runs
/// go through the radix sort.
///
/// [`finish`]: Collector::finish
#[derive(Default)]
pub(crate) struct Collector {
    /// The first run, once a later one has started.
    first: Vec<PacketRecord>,
    /// The full blocks.
    blocks: Vec<Vec<PacketRecord>>,
    /// The packets after `blocks`: the whole first run until it ends,
    /// then a block that is not full yet.
    tail: Vec<PacketRecord>,
    /// Where each run after the first starts, as a position in `blocks`
    /// followed by `tail`.
    starts: Vec<usize>,
    /// The current run's latest stamp.
    last: Micros,
}

impl Collector {
    /// Take the next packet in file order.
    #[inline]
    pub(crate) fn push(&mut self, p: PacketRecord) {
        if p.timestamp < self.last {
            self.push_late(p);
        } else {
            self.last = p.timestamp;
            self.append(p);
        }
    }

    /// Put `p` at the end of the current run, starting a new block when
    /// the runs are in blocks and the last one is full.
    #[inline]
    fn append(&mut self, p: PacketRecord) {
        if self.tail.len() == BLOCK && !self.starts.is_empty() {
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(BLOCK));
            self.blocks.push(full);
        }
        self.tail.push(p);
    }

    /// Position just past the last packet in `blocks` and `tail`.
    fn end(&self) -> usize {
        self.blocks.len() * BLOCK + self.tail.len()
    }

    /// The packet at `pos` in `blocks` followed by `tail`.
    fn at(&mut self, pos: usize) -> &mut PacketRecord {
        let full = self.blocks.len() * BLOCK;
        match pos.checked_sub(full) {
            Some(i) => &mut self.tail[i],
            None => &mut self.blocks[pos / BLOCK][pos % BLOCK],
        }
    }

    /// Move `p` back into its run, or start a new run with it.
    #[cold]
    #[inline(never)]
    fn push_late(&mut self, p: PacketRecord) {
        let end = self.end();
        let start = self.starts.last().copied().unwrap_or(0);
        let reach = (end - start).min(MAX_LATE + 1);
        let later = (1..=reach)
            .take_while(|&back| self.at(end - back).timestamp > p.timestamp)
            .count();
        if later > MAX_LATE {
            if self.starts.is_empty() {
                self.first = std::mem::replace(&mut self.tail, Vec::with_capacity(BLOCK));
            }
            self.starts.push(self.end());
            self.last = p.timestamp;
            self.append(p);
            return;
        }
        self.append(p);
        for pos in (end - later..end).rev() {
            let moved = *self.at(pos);
            *self.at(pos + 1) = moved;
        }
        *self.at(end - later) = p;
    }

    /// The packets in timestamp order, ties in arrival order.
    pub(crate) fn finish(self) -> Trace {
        let end = self.end();
        let Collector {
            mut first,
            mut blocks,
            mut tail,
            starts,
            ..
        } = self;
        // An in-order capture keeps no spare room, and a merge holds no
        // more than the packets and their sorted copy.
        tail.shrink_to_fit();
        if starts.is_empty() {
            return Trace { packets: tail };
        }
        blocks.push(tail);
        if starts.len() >= MAX_MERGE {
            let mut packets = first;
            packets.reserve_exact(end);
            for block in blocks {
                packets.extend_from_slice(&block);
            }
            radix_sort_by_timestamp(&mut packets);
            return Trace { packets };
        }
        first.shrink_to_fit();
        let n = first.len() + end;
        let mut runs = vec![Run::slice(&first)];
        for (r, &start) in starts.iter().enumerate() {
            let mut run = Run {
                head: &[],
                next: start,
                end: starts.get(r + 1).copied().unwrap_or(end),
            };
            run.refill(&blocks);
            runs.push(run);
        }
        Trace {
            packets: merge(runs, &blocks, n),
        }
    }
}

/// A run's packets not yet merged: `head`, then the packets at
/// positions `next..end` of the blocks.
pub(crate) struct Run<'a> {
    head: &'a [PacketRecord],
    next: usize,
    end: usize,
}

impl<'a> Run<'a> {
    /// A run of one sorted slice, with nothing in the blocks.
    pub(crate) fn slice(head: &'a [PacketRecord]) -> Self {
        Run {
            head,
            next: 0,
            end: 0,
        }
    }

    /// Make `head` the rest of the run's packets in the next block, if
    /// any are left.
    fn refill(&mut self, blocks: &'a [Vec<PacketRecord>]) {
        if self.next < self.end {
            let block = self.next / BLOCK;
            let stop = self.end.min((block + 1) * BLOCK);
            self.head = &blocks[block][self.next % BLOCK..stop - block * BLOCK];
            self.next = stop;
        }
    }

    /// Where run `r` stands in the merge order: its next stamp, then
    /// `r` itself in the low 64 bits; a run that is used up comes after
    /// every other.
    fn key(&self, r: usize) -> u128 {
        self.head.first().map_or(u128::MAX, |p| {
            u128::from(p.timestamp.as_u64()) << 64 | r as u128
        })
    }
}

/// Stable merge of `runs` (at least one, each in timestamp order) into
/// one `Vec` of their `n` packets, taking the earliest stamp next and,
/// on ties, the earlier run.
///
/// A tree of losers makes each pick: the leaves are the runs' keys,
/// each inner node holds the key that lost the match played there, and
/// `top` the key that won them all. Only the winner's key changes, so
/// one walk up from its leaf, a comparison a level, restores the tree.
/// The walk swaps keys by `min` and `max`, not by a branch, which the
/// interleaved runs of a multi-section capture would mispredict.
pub(crate) fn merge<'a>(
    mut runs: Vec<Run<'a>>,
    blocks: &'a [Vec<PacketRecord>],
    n: usize,
) -> Vec<PacketRecord> {
    let k = runs.len();
    // Play every match once, from the last inner node up: run `r` is
    // leaf `k + r`, and node `i`'s children are `2i` and `2i + 1`.
    let mut winners = vec![0; k];
    winners.extend(runs.iter().enumerate().map(|(r, run)| run.key(r)));
    let mut tree = vec![0; k];
    for node in (1..k).rev() {
        let (a, b) = (winners[2 * node], winners[2 * node + 1]);
        (winners[node], tree[node]) = (a.min(b), a.max(b));
    }
    let mut top = winners[1];
    let mut packets = Vec::with_capacity(n);
    for _ in 0..n {
        let won = top as u64 as usize;
        let run = &mut runs[won];
        let (&p, rest) = run
            .head
            .split_first()
            .expect("n counts every run's packets");
        packets.push(p);
        run.head = rest;
        if rest.is_empty() {
            run.refill(blocks);
        }
        let mut up = run.key(won);
        let mut node = (k + won) / 2;
        while node > 0 {
            let other = tree[node];
            tree[node] = other.max(up);
            up = up.min(other);
            node /= 2;
        }
        top = up;
    }
    packets
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a PacketRecord;
    type IntoIter = std::slice::Iter<'a, PacketRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.packets.iter()
    }
}

/// Whole-trace aggregate counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total packet count.
    pub packets: u64,
    /// Total bytes.
    pub bytes: u64,
    /// First-to-last-packet duration.
    pub duration: Micros,
}

impl TraceStats {
    /// Mean packet rate over the trace duration, packets/second.
    /// Zero when the duration is zero.
    #[must_use]
    pub fn mean_pps(&self) -> f64 {
        let d = self.duration.as_secs_f64();
        if d > 0.0 {
            self.packets as f64 / d
        } else {
            0.0
        }
    }

    /// Mean packet size in bytes. Zero for an empty trace.
    #[must_use]
    pub fn mean_size(&self) -> f64 {
        if self.packets > 0 {
            self.bytes as f64 / self.packets as f64
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn pkt(t: u64, size: u16) -> PacketRecord {
        PacketRecord::new(Micros(t), size)
    }

    fn sample_trace() -> Trace {
        Trace::new(vec![
            pkt(0, 40),
            pkt(400, 552),
            pkt(400, 40),
            pkt(1200, 1500),
            pkt(2_000_000, 76),
        ])
        .unwrap()
    }

    #[test]
    fn construction_checks_order() {
        let err = Trace::new(vec![pkt(100, 40), pkt(50, 40)]).unwrap_err();
        match err {
            TraceError::OutOfOrder {
                index,
                prev_us,
                this_us,
            } => {
                assert_eq!(index, 1);
                assert_eq!(prev_us, 100);
                assert_eq!(this_us, 50);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        // The 400us clock makes ties common; they must be legal.
        assert!(Trace::new(vec![pkt(400, 40), pkt(400, 552)]).is_ok());
    }

    #[test]
    fn from_unordered_sorts_stably() {
        let t = Trace::from_unordered(vec![pkt(800, 1), pkt(0, 2), pkt(400, 3)]);
        let ts: Vec<u64> = t.iter().map(|p| p.timestamp.as_u64()).collect();
        assert_eq!(ts, vec![0, 400, 800]);
    }

    /// Packets at the given timestamps, each told apart by its size and
    /// flow id, so a reordering of equal timestamps shows.
    fn numbered(ts: impl IntoIterator<Item = u64>) -> Vec<PacketRecord> {
        ts.into_iter()
            .enumerate()
            .map(|(i, t)| pkt(t, 40 + (i % 1_461) as u16).with_flow(i as u32, false))
            .collect()
    }

    /// `from_unordered` gives exactly the order of a stable sort by
    /// timestamp, ties included.
    fn assert_sorts_like_sort_by_key(packets: Vec<PacketRecord>) {
        let mut expected = packets.clone();
        expected.sort_by_key(|p| p.timestamp);
        let got = Trace::from_unordered(packets);
        assert_eq!(got.packets(), expected.as_slice());
    }

    #[test]
    fn from_unordered_matches_sort_by_key() {
        let mut rng = StdRng::seed_from_u64(1993);

        // Lengths 0-3, every arrangement of tied and distinct stamps.
        for len in 0..=3u32 {
            for code in 0..3u64.pow(len) {
                assert_sorts_like_sort_by_key(numbered(
                    (0..len).map(|i| code / 3u64.pow(i) % 3 * 400),
                ));
            }
        }

        // Sorted and reversed input, with runs of equal stamps.
        let sorted: Vec<u64> = (0..5_000u64).map(|i| i / 3 * 400).collect();
        assert_sorts_like_sort_by_key(numbered(sorted.iter().copied()));
        assert_sorts_like_sort_by_key(numbered(sorted.iter().rev().copied()));

        // Shuffled runs of equal stamps over spans on both sides of each
        // 11-bit digit boundary, offset from zero.
        for bits in [1u32, 10, 11, 12, 21, 22, 23, 33, 34, 44, 55, 63, 64] {
            let span = u64::MAX >> (64 - bits);
            let base = rng.random_range(0..=u64::MAX - span);
            let distinct = rng.random_range(1..=64u64);
            let n = rng.random_range(2..4_000usize);
            let levels: Vec<u64> = (0..distinct)
                .map(|_| base + rng.random_range(0..=span))
                .collect();
            let ts: Vec<u64> = (0..n)
                .map(|_| levels[rng.random_range(0..levels.len())])
                .collect();
            assert_sorts_like_sort_by_key(numbered(ts));
        }

        // 0 and u64::MAX in one column: the span needs every digit.
        let ts: Vec<u64> = (0..3_000)
            .map(|_| match rng.random_range(0..4u8) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.random::<u64>(),
            })
            .collect();
        assert_sorts_like_sort_by_key(numbered(ts));

        // Eight overlapping, nearly sorted sections like a multi-section
        // pcapng capture: each starts at zero and climbs by 1-5,000 µs;
        // one packet in eight sits on a millisecond interface (its stamp
        // truncated to the millisecond) and one in eight carries no
        // stamp of its own (it repeats the previous packet's).
        let mut ts = Vec::new();
        for _ in 0..8 {
            let (mut clock, mut last) = (0u64, 0u64);
            for _ in 0..2_500 {
                clock += rng.random_range(1..=5_000u64);
                last = match rng.random_range(0..8u8) {
                    0 => clock / 1_000 * 1_000,
                    1 => last,
                    _ => clock,
                };
                ts.push(last);
            }
        }
        assert!(ts.windows(2).filter(|w| w[1] < w[0]).count() > 8);
        assert_sorts_like_sort_by_key(numbered(ts));
    }

    /// The collector leaves packets exactly where a stable sort by
    /// timestamp does.
    fn assert_collects_like_sort_by_key(ts: &[u64]) {
        let packets = numbered(ts.iter().copied());
        let mut expected = packets.clone();
        expected.sort_by_key(|p| p.timestamp);
        let mut collector = Collector::default();
        packets.into_iter().for_each(|p| collector.push(p));
        assert_eq!(collector.finish().packets(), expected.as_slice());
    }

    /// `len` stamps climbing from `start` by gaps of 0 to `gap`, in which
    /// `lates` packets arrive late: by one position up to a few past
    /// `MAX_LATE`, or by 40.
    fn late_section(rng: &mut StdRng, len: usize, start: u64, gap: u64, lates: usize) -> Vec<u64> {
        let mut t = start;
        let mut ts: Vec<u64> = (0..len)
            .map(|_| {
                t = t.saturating_add(rng.random_range(0..=gap));
                t
            })
            .collect();
        for _ in 0..lates {
            let d = match rng.random_range(0..4u8) {
                0 => 40,
                _ => rng.random_range(1..=MAX_LATE + 2),
            };
            if d < len {
                let at = rng.random_range(d..len);
                ts[at - d..=at].rotate_left(1);
            }
        }
        ts
    }

    #[test]
    fn collector_matches_sort_by_key() {
        let mut rng = StdRng::seed_from_u64(1993);

        // Sections that restart their clocks near zero, overlapping, with
        // late packets in each: one run, a few, and dozens; short
        // sections let a late packet reach its run's start.
        for case in 0..400 {
            let sections = match case % 4 {
                0 => 1,
                1 => rng.random_range(2..=6),
                2 => rng.random_range(24..=64),
                _ => rng.random_range(2..=12),
            };
            let gap = [0, 3, 400, 5_000][rng.random_range(0..4)];
            let ts: Vec<u64> = (0..sections)
                .flat_map(|_| {
                    let most = [4, 40, 400][rng.random_range(0..3)];
                    let len = rng.random_range(0..most);
                    let start = rng.random_range(0..=gap * 8);
                    late_section(&mut rng, len, start, gap, len / 8)
                })
                .collect();
            assert_collects_like_sort_by_key(&ts);
        }

        // 0 and u64::MAX among random stamps, and sections that climb to
        // u64::MAX.
        for _ in 0..8 {
            let ts: Vec<u64> = (0..2_000)
                .map(|_| match rng.random_range(0..4u8) {
                    0 => 0,
                    1 => u64::MAX,
                    _ => rng.random::<u64>(),
                })
                .collect();
            assert_collects_like_sort_by_key(&ts);
            let top = u64::MAX - 1_000;
            let ts = [
                late_section(&mut rng, 300, top, 10, 30),
                late_section(&mut rng, 300, top, 10, 30),
            ]
            .concat();
            assert_collects_like_sort_by_key(&ts);
        }

        // Runs on either side of the most one merge takes: sections that
        // each start below the one before, so each starts a run, and
        // overlap it, so stamps interleave and tie across runs.
        for runs in [MAX_MERGE - 1, MAX_MERGE, MAX_MERGE + 1, 3 * MAX_MERGE] {
            let ts: Vec<u64> = (0..runs)
                .flat_map(|r| late_section(&mut rng, 20, (runs - r) as u64 * 20, 3, 0))
                .collect();
            assert_collects_like_sort_by_key(&ts);
        }

        // Runs in blocks: a first run that the next section cannot join,
        // then a long section whose first block starts with it and whose
        // late packets arrive on and just past the next block boundaries,
        // moving back across them, then a section that overlaps it.
        for _ in 0..3 {
            let mut ts = late_section(&mut rng, 50, 1_000, 10, 6);
            let mut blocked = late_section(&mut rng, 3 * BLOCK + 7, 0, 3, 0);
            for block in 1..=3 {
                let d = rng.random_range(1..=MAX_LATE);
                let at = block * BLOCK + rng.random_range(0..3);
                blocked[at - d..=at].rotate_left(1);
            }
            ts.extend(blocked);
            ts.extend(late_section(&mut rng, 100, 0, 3, 12));
            assert_collects_like_sort_by_key(&ts);
        }
    }

    #[test]
    fn basic_accessors() {
        let t = sample_trace();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.start(), Some(Micros(0)));
        assert_eq!(t.end(), Some(Micros(2_000_000)));
        assert_eq!(t.duration(), Micros(2_000_000));
        assert_eq!(t.total_bytes(), 40 + 552 + 40 + 1500 + 76);
    }

    #[test]
    fn empty_trace_edge_cases() {
        let t = Trace::empty();
        assert!(t.is_empty());
        assert_eq!(t.start(), None);
        assert_eq!(t.duration(), Micros::ZERO);
        assert!(t.interarrivals().is_empty());
        assert_eq!(t.stats().mean_pps(), 0.0);
        assert_eq!(t.stats().mean_size(), 0.0);
    }

    #[test]
    fn window_half_open_semantics() {
        let t = sample_trace();
        let w = t.window(Micros(400), Micros(1200));
        assert_eq!(w.len(), 2); // the two packets at t=400; 1200 excluded
        assert!(w.iter().all(|p| p.timestamp == Micros(400)));
        assert!(t.window(Micros(10), Micros(10)).is_empty());
        assert!(t.window(Micros(20), Micros(10)).is_empty());
        // full span
        assert_eq!(t.window(Micros(0), Micros(u64::MAX)).len(), 5);
    }

    #[test]
    fn interarrivals_are_diffs() {
        let t = sample_trace();
        assert_eq!(t.interarrivals(), vec![400, 0, 800, 1_998_800]);
    }

    #[test]
    fn quantization_preserves_order_and_count() {
        let t = Trace::new(vec![pkt(0, 40), pkt(399, 40), pkt(401, 40), pkt(850, 40)]).unwrap();
        let q = t.quantized(ClockModel::SDSC_1993);
        assert_eq!(q.len(), 4);
        let ts: Vec<u64> = q.iter().map(|p| p.timestamp.as_u64()).collect();
        assert_eq!(ts, vec![0, 0, 400, 800]);
    }

    #[test]
    fn stats_rates() {
        let t = sample_trace();
        let s = t.stats();
        assert_eq!(s.packets, 5);
        assert!((s.mean_pps() - 2.5).abs() < 1e-9); // 5 packets over 2 s
        assert!((s.mean_size() - 2208.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn into_iterator_for_reference() {
        let t = sample_trace();
        let mut n = 0;
        for _p in &t {
            n += 1;
        }
        assert_eq!(n, t.len());
    }
}
