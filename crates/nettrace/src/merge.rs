//! Merging traces from multiple capture points.
//!
//! The T3 node architecture has "multiple subsystems, including those
//! connected to T3, Ethernet, and FDDI external interfaces, forwarding
//! to the RS/6000 processor in parallel" (paper §2): the stream the
//! statistics processor sees is a time-ordered merge of several
//! interfaces' selections. [`merge`] performs that k-way merge; [`shift`]
//! and [`rebase`] align traces captured with different time origins.

use crate::time::Micros;
use crate::trace::{self, Run, Trace};

/// K-way merge of traces into one time-ordered trace, through the
/// whole-capture readers' merge of runs: each trace is one run.
///
/// Ties are broken by input order (stable for equal timestamps), so a
/// merge of already-merged traces is deterministic.
#[must_use]
pub fn merge(traces: &[&Trace]) -> Trace {
    if traces.is_empty() {
        return Trace::empty();
    }
    let runs = traces.iter().map(|t| Run::slice(t.packets())).collect();
    let n = traces.iter().map(|t| t.len()).sum();
    Trace::new(trace::merge(runs, &[], n)).expect("merge preserves ordering")
}

/// Shift every timestamp forward by `offset` (aligning a capture that
/// started later).
#[must_use]
pub fn shift(trace: &Trace, offset: Micros) -> Trace {
    let packets = trace
        .iter()
        .map(|p| {
            let mut q = *p;
            q.timestamp = p.timestamp + offset;
            q
        })
        .collect();
    Trace::new(packets).expect("shifting preserves ordering")
}

/// Rebase so the first packet is at time zero (trace-relative time, the
/// convention of this workspace's analyses).
#[must_use]
pub fn rebase(trace: &Trace) -> Trace {
    let Some(start) = trace.start() else {
        return Trace::empty();
    };
    let packets = trace
        .iter()
        .map(|p| {
            let mut q = *p;
            q.timestamp = p.timestamp.saturating_sub(start);
            q
        })
        .collect();
    Trace::new(packets).expect("rebasing preserves ordering")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketRecord;

    fn pkt(t: u64, size: u16) -> PacketRecord {
        PacketRecord::new(Micros(t), size)
    }

    fn trace(ts: &[u64]) -> Trace {
        Trace::new(ts.iter().map(|&t| pkt(t, 40)).collect()).unwrap()
    }

    #[test]
    fn merge_interleaves_in_time_order() {
        let a = trace(&[0, 400, 1000]);
        let b = trace(&[200, 500, 2000]);
        let m = merge(&[&a, &b]);
        let ts: Vec<u64> = m.iter().map(|p| p.timestamp.as_u64()).collect();
        assert_eq!(ts, vec![0, 200, 400, 500, 1000, 2000]);
    }

    #[test]
    fn merge_handles_empty_and_single_inputs() {
        let a = trace(&[1, 2]);
        let empty = Trace::empty();
        assert_eq!(merge(&[&a, &empty]).len(), 2);
        assert_eq!(merge(&[&empty]).len(), 0);
        assert_eq!(merge(&[]).len(), 0);
    }

    #[test]
    fn merge_is_stable_for_ties() {
        let a = Trace::new(vec![pkt(100, 1)]).unwrap();
        let b = Trace::new(vec![pkt(100, 2)]).unwrap();
        let m = merge(&[&a, &b]);
        // Equal timestamps: source 0 first.
        assert_eq!(m.packets()[0].size, 1);
        assert_eq!(m.packets()[1].size, 2);
    }

    #[test]
    fn merge_matches_a_stable_sort_of_the_concatenation() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1993);
        let mut id = 0u32;
        for k in [0usize, 1, 2, 7, 40] {
            for _ in 0..25 {
                // One trace in four is empty. The rest climb from a few
                // shared starts (one in eight next to u64::MAX) by gaps
                // of 0-3, so stamps tie within and across traces.
                let traces: Vec<Trace> = (0..k)
                    .map(|_| {
                        let len = match rng.random_range(0..4u8) {
                            0 => 0,
                            _ => rng.random_range(1..=60usize),
                        };
                        let mut t = match rng.random_range(0..8u8) {
                            0 => u64::MAX - 40,
                            _ => rng.random_range(0..20u64),
                        };
                        let packets = (0..len)
                            .map(|_| {
                                t = t.saturating_add(rng.random_range(0..=3u64));
                                id += 1;
                                pkt(t, 40).with_flow(id, false)
                            })
                            .collect();
                        Trace::new(packets).unwrap()
                    })
                    .collect();
                let refs: Vec<&Trace> = traces.iter().collect();
                let mut expected: Vec<PacketRecord> = traces
                    .iter()
                    .flat_map(|t| t.packets().iter().copied())
                    .collect();
                expected.sort_by_key(|p| p.timestamp);
                assert_eq!(merge(&refs).packets(), expected.as_slice(), "{k} traces");
            }
        }
    }

    #[test]
    fn merge_three_sources_conserves_packets() {
        let a = trace(&[0, 300, 600, 900]);
        let b = trace(&[100, 400, 700]);
        let c = trace(&[200, 500, 800, 1100, 1400]);
        let m = merge(&[&a, &b, &c]);
        assert_eq!(m.len(), 12);
        assert!(m
            .packets()
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn shift_moves_origin() {
        let a = trace(&[0, 100]);
        let s = shift(&a, Micros(5000));
        assert_eq!(s.start(), Some(Micros(5000)));
        assert_eq!(s.end(), Some(Micros(5100)));
        assert_eq!(s.duration(), a.duration());
    }

    #[test]
    fn rebase_zeroes_the_start() {
        let a = trace(&[7000, 7400, 9000]);
        let r = rebase(&a);
        assert_eq!(r.start(), Some(Micros::ZERO));
        assert_eq!(r.interarrivals(), a.interarrivals());
        assert!(rebase(&Trace::empty()).is_empty());
    }

    #[test]
    fn shifted_captures_merge_correctly() {
        // Two interfaces whose captures started 250us apart.
        let fddi = trace(&[0, 1000]);
        let ethernet = shift(&trace(&[0, 1000]), Micros(250));
        let m = merge(&[&fddi, &ethernet]);
        let ts: Vec<u64> = m.iter().map(|p| p.timestamp.as_u64()).collect();
        assert_eq!(ts, vec![0, 250, 1000, 1250]);
    }
}
