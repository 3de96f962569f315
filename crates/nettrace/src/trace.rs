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

    /// A sub-trace for `[from, to)`, cloning the selected records.
    ///
    /// # Errors
    /// Returns [`TraceError::EmptyWindow`] if no packets fall in the window.
    pub fn window_trace(&self, from: Micros, to: Micros) -> Result<Trace, TraceError> {
        let w = self.window(from, to);
        if w.is_empty() {
            return Err(TraceError::EmptyWindow);
        }
        Ok(Trace {
            packets: w.to_vec(),
        })
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
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
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
    fn window_trace_errors_on_empty() {
        let t = sample_trace();
        assert!(matches!(
            t.window_trace(Micros(3_000_000), Micros(4_000_000)),
            Err(TraceError::EmptyWindow)
        ));
        let sub = t.window_trace(Micros(0), Micros(500)).unwrap();
        assert_eq!(sub.len(), 3);
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
