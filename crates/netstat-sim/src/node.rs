//! The collector node: finite categorization capacity + optional
//! sampling.
//!
//! A node carries two measurement paths (paper §2):
//!
//! * the **forwarding path** increments SNMP counters for every packet —
//!   it never loses;
//! * the **categorization path** (one dedicated RT/PC on T1; the main
//!   RS/6000 CPU fed by subsystem firmware on T3) examines packet headers
//!   to build the Table 1 objects. It can examine at most
//!   `capacity_pps` headers per second; arrivals beyond that are lost
//!   *to categorization only*. Deploying 1-in-k systematic sampling
//!   divides the offered header load by `k`, which is precisely why the
//!   operator deployed it in September 1991.

use crate::objects::{ArtsObjects, ObjectSet};
use crate::snmp::SnmpCounters;
use nettrace::PacketRecord;
use sampling::{Sampler, SystematicSampler};

/// One collection cycle's report from a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeReport {
    /// Forwarding-path truth.
    pub snmp_packets: u64,
    /// Forwarding-path byte truth.
    pub snmp_octets: u64,
    /// Headers actually categorized this cycle.
    pub categorized: u64,
    /// Headers selected for categorization but dropped by the overloaded
    /// processor.
    pub missed: u64,
    /// The sampling interval in force (1 = unsampled).
    pub sampling_interval: u64,
}

impl NodeReport {
    /// The categorization pipeline's population estimate: categorized
    /// headers scaled by the sampling interval. This is the "NNStat"
    /// series of Figure 1.
    #[must_use]
    pub fn estimated_packets(&self) -> u64 {
        self.categorized * self.sampling_interval
    }

    /// Relative discrepancy between SNMP truth and the categorization
    /// estimate, in `[0, 1]` (0 = perfect agreement).
    #[must_use]
    pub fn discrepancy(&self) -> f64 {
        if self.snmp_packets == 0 {
            return 0.0;
        }
        (self.snmp_packets as f64 - self.estimated_packets() as f64).abs()
            / self.snmp_packets as f64
    }
}

/// A backbone node with finite categorization capacity.
#[derive(Debug)]
pub struct CollectorNode {
    snmp: SnmpCounters,
    objects: ArtsObjects,
    sampler: Option<SystematicSampler>,
    sampling_interval: u64,
    capacity_pps: u64,
    current_second: Option<u64>,
    examined_this_second: u64,
    categorized: u64,
    missed: u64,
}

impl CollectorNode {
    /// A node whose categorization processor can examine
    /// `capacity_pps` headers per second, with the given object set.
    ///
    /// # Panics
    /// Panics if `capacity_pps` is zero.
    #[must_use]
    pub fn new(set: ObjectSet, capacity_pps: u64) -> Self {
        assert!(capacity_pps > 0, "capacity must be positive");
        CollectorNode {
            snmp: SnmpCounters::default(),
            objects: ArtsObjects::new(set),
            sampler: None,
            sampling_interval: 1,
            capacity_pps,
            current_second: None,
            examined_this_second: 0,
            categorized: 0,
            missed: 0,
        }
    }

    /// Deploy 1-in-k systematic sampling in front of the categorization
    /// processor (`k = 1` disables sampling). This is the September 1991
    /// intervention.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn deploy_sampling(&mut self, k: u64) {
        assert!(k > 0, "sampling interval must be positive");
        self.sampling_interval = k;
        self.sampler = if k > 1 {
            Some(SystematicSampler::new(k as usize))
        } else {
            None
        };
    }

    /// The live object set.
    #[must_use]
    pub fn objects(&self) -> &ArtsObjects {
        &self.objects
    }

    /// Forwarding-path counters.
    #[must_use]
    pub fn snmp(&self) -> &SnmpCounters {
        &self.snmp
    }

    /// Flush the arrival-rate histogram's in-progress second and return
    /// the finished histogram (read this before inspecting rate objects
    /// mid-cycle; [`CollectorNode::collect`] resets it).
    pub fn finish_rates(&mut self) -> &nettrace::Histogram {
        self.objects.rates.finish()
    }

    /// Offer one forwarded packet (trace-driven operation).
    ///
    /// Packets must arrive in timestamp order. Returns `true` if the
    /// packet's header was categorized.
    pub fn offer(&mut self, pkt: &PacketRecord) -> bool {
        self.snmp.count(pkt);

        // Sampling gate ahead of the categorization processor.
        let selected = match &mut self.sampler {
            Some(s) => s.offer(pkt),
            None => true,
        };
        if !selected {
            return false;
        }

        // Per-second capacity accounting.
        let sec = pkt.timestamp.whole_secs();
        if self.current_second != Some(sec) {
            self.current_second = Some(sec);
            self.examined_this_second = 0;
        }
        if self.examined_this_second >= self.capacity_pps {
            self.missed += 1;
            return false;
        }
        self.examined_this_second += 1;
        self.categorized += 1;
        self.objects.observe(pkt);
        true
    }

    /// Bulk per-second driving for scenarios whose volumes make
    /// packet-level simulation infeasible (Figure 1's billions of
    /// packets/month): `packets` arrive uniformly within one second with
    /// `octets` total bytes. Object contents are not maintained on this
    /// path — only the coverage counters.
    pub fn offer_second_bulk(&mut self, packets: u64, octets: u64) {
        self.snmp.count_bulk(packets, octets);
        let offered_to_categorization = packets / self.sampling_interval;
        let examined = offered_to_categorization.min(self.capacity_pps);
        self.categorized += examined;
        self.missed += offered_to_categorization - examined;
    }

    /// Collect-and-reset: report this cycle and clear all counters and
    /// objects (the 15-minute NOC poll).
    pub fn collect(&mut self) -> NodeReport {
        let snmp = self.snmp.collect();
        let report = NodeReport {
            snmp_packets: snmp.packets,
            snmp_octets: snmp.octets,
            categorized: self.categorized,
            missed: self.missed,
            sampling_interval: self.sampling_interval,
        };
        // One flush per poll cycle, not per packet: the offer() path stays
        // atomic-free.
        obskit::counter("netstat_polls_total").inc();
        obskit::counter("netstat_snmp_packets_total").add(report.snmp_packets);
        obskit::counter("netstat_categorized_total").add(report.categorized);
        obskit::counter("netstat_missed_total").add(report.missed);
        self.categorized = 0;
        self.missed = 0;
        self.objects.reset();
        self.current_second = None;
        self.examined_this_second = 0;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::Micros;

    fn burst(second: u64, count: u64, size: u16) -> Vec<PacketRecord> {
        (0..count)
            .map(|i| {
                PacketRecord::new(
                    Micros(second * 1_000_000 + i * (1_000_000 / count.max(1))),
                    size,
                )
            })
            .collect()
    }

    #[test]
    fn under_capacity_categorizes_everything() {
        let mut node = CollectorNode::new(ObjectSet::T1, 1000);
        for p in burst(0, 500, 100) {
            assert!(node.offer(&p));
        }
        let r = node.collect();
        assert_eq!(r.snmp_packets, 500);
        assert_eq!(r.categorized, 500);
        assert_eq!(r.missed, 0);
        assert_eq!(r.estimated_packets(), 500);
        assert_eq!(r.discrepancy(), 0.0);
    }

    #[test]
    fn over_capacity_loses_categorization_not_snmp() {
        let mut node = CollectorNode::new(ObjectSet::T1, 300);
        for p in burst(0, 1000, 100) {
            node.offer(&p);
        }
        let r = node.collect();
        assert_eq!(r.snmp_packets, 1000, "SNMP never loses");
        assert_eq!(r.categorized, 300);
        assert_eq!(r.missed, 700);
        assert!(r.discrepancy() > 0.69 && r.discrepancy() < 0.71);
    }

    #[test]
    fn capacity_resets_each_second() {
        let mut node = CollectorNode::new(ObjectSet::T1, 300);
        for sec in 0..3 {
            for p in burst(sec, 400, 100) {
                node.offer(&p);
            }
        }
        let r = node.collect();
        assert_eq!(r.categorized, 900); // 300 per second
        assert_eq!(r.missed, 300);
    }

    #[test]
    fn sampling_relieves_the_processor() {
        // 1000 pps against a 300 pps processor: unsampled loses 70%;
        // 1-in-50 examines only 20/sec and loses nothing.
        let mut node = CollectorNode::new(ObjectSet::T1, 300);
        node.deploy_sampling(50);
        for p in burst(0, 1000, 100) {
            node.offer(&p);
        }
        let r = node.collect();
        assert_eq!(r.snmp_packets, 1000);
        assert_eq!(r.categorized, 20);
        assert_eq!(r.missed, 0);
        assert_eq!(r.estimated_packets(), 1000);
        assert_eq!(r.discrepancy(), 0.0);
    }

    #[test]
    fn bulk_path_matches_packet_path_coverage() {
        let mut a = CollectorNode::new(ObjectSet::T3, 300);
        for p in burst(0, 1000, 100) {
            a.offer(&p);
        }
        let mut b = CollectorNode::new(ObjectSet::T3, 300);
        b.offer_second_bulk(1000, 100_000);
        let (ra, rb) = (a.collect(), b.collect());
        assert_eq!(ra.snmp_packets, rb.snmp_packets);
        assert_eq!(ra.categorized, rb.categorized);
        assert_eq!(ra.missed, rb.missed);
    }

    #[test]
    fn collect_resets_cycle() {
        let mut node = CollectorNode::new(ObjectSet::T1, 1000);
        for p in burst(0, 100, 100) {
            node.offer(&p);
        }
        let _ = node.collect();
        let r2 = node.collect();
        assert_eq!(r2.snmp_packets, 0);
        assert_eq!(r2.categorized, 0);
        assert_eq!(node.objects().matrix.pairs(), 0);
    }

    #[test]
    fn objects_fill_from_packet_path() {
        let mut node = CollectorNode::new(ObjectSet::T1, 10_000);
        for (i, p) in burst(0, 100, 552).iter().enumerate() {
            let p = p.with_nets(1, (i % 5) as u16 + 1).with_ports(1024, 25);
            node.offer(&p);
        }
        assert_eq!(node.objects().matrix.pairs(), 5);
        assert_eq!(node.objects().ports.port(25).packets, 100);
        assert_eq!(node.objects().protocols.tcp.packets, 100);
    }

    #[test]
    fn report_discrepancy_zero_population() {
        let r = NodeReport {
            snmp_packets: 0,
            snmp_octets: 0,
            categorized: 0,
            missed: 0,
            sampling_interval: 50,
        };
        assert_eq!(r.discrepancy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = CollectorNode::new(ObjectSet::T1, 0);
    }
}
