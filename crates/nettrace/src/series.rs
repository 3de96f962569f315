//! Per-second time series derived from a trace.
//!
//! Table 2 of the paper summarizes three per-second distributions over the
//! hour: packet arrivals (packets/s), byte arrivals (kB/s), and mean
//! per-second packet size. [`PerSecondSeries`] computes all three in one
//! pass over a trace. Seconds are trace-relative: second `i` covers
//! `[i s, (i+1) s)` from the first packet's timestamp floor.

use crate::packet::PacketRecord;
use crate::trace::Trace;

/// Counters for one second of traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SecondStats {
    /// Packets observed in this second.
    pub packets: u64,
    /// Bytes observed in this second.
    pub bytes: u64,
}

impl SecondStats {
    /// Mean packet size within the second; `None` when no packets arrived
    /// (the paper's mean-size distribution is over seconds that saw
    /// traffic).
    #[must_use]
    pub fn mean_size(&self) -> Option<f64> {
        if self.packets > 0 {
            Some(self.bytes as f64 / self.packets as f64)
        } else {
            None
        }
    }
}

/// Per-second aggregation of a trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PerSecondSeries {
    seconds: Vec<SecondStats>,
}

impl PerSecondSeries {
    /// Aggregate a trace into per-second buckets.
    ///
    /// The series spans from second 0 (containing the trace's first packet
    /// timestamp, which is normally 0) through the second containing the
    /// last packet. Interior seconds with no packets are present with zero
    /// counts.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_packets(trace.packets())
    }

    /// Aggregate a packet slice (e.g. a window view) into per-second
    /// buckets.
    #[must_use]
    pub fn from_packets(packets: &[PacketRecord]) -> Self {
        let mut seconds: Vec<SecondStats> = Vec::new();
        if packets.is_empty() {
            return PerSecondSeries { seconds };
        }
        let last_sec = packets[packets.len() - 1].timestamp.whole_secs() as usize;
        seconds.resize(last_sec + 1, SecondStats::default());
        for p in packets {
            let s = p.timestamp.whole_secs() as usize;
            seconds[s].packets += 1;
            seconds[s].bytes += u64::from(p.size);
        }
        PerSecondSeries { seconds }
    }

    /// Per-second records.
    #[must_use]
    pub fn seconds(&self) -> &[SecondStats] {
        &self.seconds
    }

    /// Number of seconds covered (including interior empty seconds).
    #[must_use]
    pub fn len(&self) -> usize {
        self.seconds.len()
    }

    /// Whether the series is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seconds.is_empty()
    }

    /// Packets-per-second values, one per second.
    #[must_use]
    pub fn packet_rates(&self) -> Vec<f64> {
        self.seconds.iter().map(|s| s.packets as f64).collect()
    }

    /// Kilobytes-per-second values (Table 2 reports kB/s).
    #[must_use]
    pub fn kilobyte_rates(&self) -> Vec<f64> {
        self.seconds
            .iter()
            .map(|s| s.bytes as f64 / 1000.0)
            .collect()
    }

    /// Mean per-second packet sizes, skipping seconds with no packets.
    #[must_use]
    pub fn mean_sizes(&self) -> Vec<f64> {
        self.seconds.iter().filter_map(|s| s.mean_size()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Micros;

    fn pkt(t: u64, size: u16) -> PacketRecord {
        PacketRecord::new(Micros(t), size)
    }

    #[test]
    fn empty_trace_gives_empty_series() {
        let s = PerSecondSeries::from_trace(&Trace::empty());
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.packet_rates().is_empty());
    }

    #[test]
    fn packets_land_in_their_seconds() {
        let t = Trace::new(vec![
            pkt(0, 40),
            pkt(999_999, 60),
            pkt(1_000_000, 100),
            pkt(2_500_000, 1500),
        ])
        .unwrap();
        let s = PerSecondSeries::from_trace(&t);
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.seconds()[0],
            SecondStats {
                packets: 2,
                bytes: 100
            }
        );
        assert_eq!(
            s.seconds()[1],
            SecondStats {
                packets: 1,
                bytes: 100
            }
        );
        assert_eq!(
            s.seconds()[2],
            SecondStats {
                packets: 1,
                bytes: 1500
            }
        );
    }

    #[test]
    fn interior_gaps_are_zero_filled() {
        let t = Trace::new(vec![pkt(0, 40), pkt(3_000_000, 40)]).unwrap();
        let s = PerSecondSeries::from_trace(&t);
        assert_eq!(s.len(), 4);
        assert_eq!(s.seconds()[1].packets, 0);
        assert_eq!(s.seconds()[2].packets, 0);
    }

    #[test]
    fn mean_sizes_skip_empty_seconds() {
        let t = Trace::new(vec![pkt(0, 40), pkt(0, 60), pkt(2_000_000, 100)]).unwrap();
        let s = PerSecondSeries::from_trace(&t);
        let m = s.mean_sizes();
        assert_eq!(m.len(), 2); // second 1 had no packets
        assert!((m[0] - 50.0).abs() < 1e-12);
        assert!((m[1] - 100.0).abs() < 1e-12);
    }

    #[test]
    fn rate_vectors_agree_with_counts() {
        let t = Trace::new(vec![pkt(0, 500), pkt(100, 500), pkt(1_200_000, 250)]).unwrap();
        let s = PerSecondSeries::from_trace(&t);
        assert_eq!(s.packet_rates(), vec![2.0, 1.0]);
        assert_eq!(s.kilobyte_rates(), vec![1.0, 0.25]);
    }

    #[test]
    fn second_stats_mean_size() {
        assert_eq!(SecondStats::default().mean_size(), None);
        let s = SecondStats {
            packets: 4,
            bytes: 1000,
        };
        assert_eq!(s.mean_size(), Some(250.0));
    }
}
