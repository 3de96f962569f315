//! Forwarding-path (SNMP) interface counters.
//!
//! "Because the SNMP statistics are incremented in the mainstream of
//! packet forwarding, they are more reliable" (paper, footnote 2): these
//! counters never miss a packet, whatever the categorization processor's
//! load. They are the ground truth that exposes the NNStat/ARTS
//! discrepancy in Figure 1.

use nettrace::PacketRecord;

/// Cumulative interface counters, MIB-II style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnmpCounters {
    /// `ifInUcastPkts`-like packet counter.
    pub packets: u64,
    /// `ifInOctets`-like byte counter.
    pub octets: u64,
}

impl SnmpCounters {
    /// Count one forwarded packet.
    pub fn count(&mut self, pkt: &PacketRecord) {
        self.packets += 1;
        self.octets += u64::from(pkt.size);
    }

    /// Bulk update (per-second aggregate driving, used by the Figure 1
    /// scenario where packet-level simulation of billions of packets is
    /// infeasible).
    pub fn count_bulk(&mut self, packets: u64, octets: u64) {
        self.packets += packets;
        self.octets += octets;
    }

    /// Read and reset, as the 15-minute poll effectively does for the
    /// deltas the NOC archives.
    pub fn collect(&mut self) -> SnmpCounters {
        std::mem::take(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::Micros;

    #[test]
    fn counts_every_packet() {
        let mut c = SnmpCounters::default();
        for i in 0..100u64 {
            c.count(&PacketRecord::new(Micros(i), 250));
        }
        assert_eq!(c.packets, 100);
        assert_eq!(c.octets, 25_000);
    }

    #[test]
    fn bulk_and_packet_paths_agree() {
        let mut a = SnmpCounters::default();
        let mut b = SnmpCounters::default();
        for i in 0..50u64 {
            a.count(&PacketRecord::new(Micros(i), 100));
        }
        b.count_bulk(50, 5_000);
        assert_eq!(a, b);
    }

    #[test]
    fn collect_resets() {
        let mut c = SnmpCounters::default();
        c.count_bulk(10, 1000);
        let snap = c.collect();
        assert_eq!(snap.packets, 10);
        assert_eq!(c.packets, 0);
    }
}
