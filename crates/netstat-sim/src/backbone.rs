//! A multi-node backbone polled by a central agent.
//!
//! "Every fifteen minutes, the central agent at the NOC running the
//! collection software queries each of the backbone nodes, which report
//! and then reset their object counters" (paper §2). [`Backbone`] drives
//! a trace through its nodes (packets are assigned to nodes by a caller-
//! provided function, standing in for backbone routing) and performs the
//! periodic collect-and-reset.

use crate::node::{CollectorNode, NodeReport};
use nettrace::{Micros, Trace};

/// One completed poll cycle: every node's report at one collection time.
#[derive(Debug, Clone, PartialEq)]
pub struct PollCycle {
    /// Collection timestamp (end of the cycle).
    pub at: Micros,
    /// One report per node, node order preserved.
    pub reports: Vec<NodeReport>,
}

impl PollCycle {
    /// Backbone-wide SNMP packet total for this cycle.
    #[must_use]
    pub fn snmp_packets(&self) -> u64 {
        self.reports.iter().map(|r| r.snmp_packets).sum()
    }

    /// Backbone-wide categorization estimate for this cycle.
    #[must_use]
    pub fn estimated_packets(&self) -> u64 {
        self.reports.iter().map(NodeReport::estimated_packets).sum()
    }
}

/// The default NSFNET poll interval: fifteen minutes.
pub const POLL_INTERVAL: Micros = Micros(15 * 60 * 1_000_000);

/// A set of collector nodes plus the central agent's schedule.
#[derive(Debug)]
pub struct Backbone {
    nodes: Vec<CollectorNode>,
    poll_interval: Micros,
}

impl Backbone {
    /// Assemble a backbone from nodes, polled at `poll_interval`.
    ///
    /// # Panics
    /// Panics if there are no nodes or the interval is zero.
    #[must_use]
    pub fn new(nodes: Vec<CollectorNode>, poll_interval: Micros) -> Self {
        assert!(!nodes.is_empty(), "backbone needs at least one node");
        assert!(poll_interval.as_u64() > 0, "poll interval must be positive");
        Backbone {
            nodes,
            poll_interval,
        }
    }

    /// Access a node (e.g. to inspect its objects mid-run).
    #[must_use]
    pub fn node(&self, idx: usize) -> &CollectorNode {
        &self.nodes[idx]
    }

    /// Drive a trace through the backbone. Each packet goes to the node
    /// chosen by `route` (index into the node list); the central agent
    /// collects all nodes every poll interval (trace-relative). A final
    /// partial cycle is collected at the end.
    ///
    /// # Panics
    /// Panics if `route` returns an out-of-range node index.
    pub fn run_trace<F>(&mut self, trace: &Trace, mut route: F) -> Vec<PollCycle>
    where
        F: FnMut(&nettrace::PacketRecord) -> usize,
    {
        let mut cycles = Vec::new();
        let mut next_poll = self.poll_interval;
        for pkt in trace.iter() {
            while pkt.timestamp >= next_poll {
                cycles.push(self.collect_all(next_poll));
                next_poll += self.poll_interval;
            }
            let idx = route(pkt);
            assert!(idx < self.nodes.len(), "route returned bad node {idx}");
            self.nodes[idx].offer(pkt);
        }
        cycles.push(self.collect_all(next_poll));
        cycles
    }

    /// Collect every node now.
    fn collect_all(&mut self, at: Micros) -> PollCycle {
        PollCycle {
            at,
            reports: self.nodes.iter_mut().map(CollectorNode::collect).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::ObjectSet;
    use nettrace::PacketRecord;

    fn trace_spanning(seconds: u64, pps: u64) -> Trace {
        let mut pkts = Vec::new();
        for s in 0..seconds {
            for i in 0..pps {
                pkts.push(PacketRecord::new(
                    Micros(s * 1_000_000 + i * (1_000_000 / pps)),
                    100,
                ));
            }
        }
        Trace::new(pkts).unwrap()
    }

    fn node() -> CollectorNode {
        CollectorNode::new(ObjectSet::T3, 1_000_000)
    }

    #[test]
    fn polls_every_interval() {
        // 40 seconds of traffic, 10-second polls -> 3 boundary cycles +
        // the final collection covering the last 10 seconds.
        let trace = trace_spanning(40, 10);
        let mut bb = Backbone::new(vec![node()], Micros::from_secs(10));
        let cycles = bb.run_trace(&trace, |_| 0);
        assert_eq!(cycles.len(), 4);
        // Each cycle saw 10s x 10pps = 100 packets.
        for c in &cycles {
            assert_eq!(c.snmp_packets(), 100);
        }
        // Poll timestamps advance by the interval.
        assert_eq!(cycles[0].at, Micros::from_secs(10));
        assert_eq!(cycles[1].at, Micros::from_secs(20));
    }

    #[test]
    fn totals_are_conserved_across_cycles() {
        let trace = trace_spanning(35, 7);
        let mut bb = Backbone::new(vec![node()], Micros::from_secs(10));
        let cycles = bb.run_trace(&trace, |_| 0);
        let total: u64 = cycles.iter().map(PollCycle::snmp_packets).sum();
        assert_eq!(total, trace.len() as u64);
    }

    #[test]
    fn routing_splits_across_nodes() {
        let trace = trace_spanning(5, 10);
        let mut bb = Backbone::new(vec![node(), node()], Micros::from_secs(60));
        let mut flip = false;
        let cycles = bb.run_trace(&trace, |_| {
            flip = !flip;
            usize::from(flip)
        });
        let last = cycles.last().unwrap();
        assert_eq!(last.reports.len(), 2);
        assert_eq!(last.reports[0].snmp_packets, 25);
        assert_eq!(last.reports[1].snmp_packets, 25);
        assert_eq!(last.snmp_packets(), 50);
    }

    #[test]
    fn estimates_aggregate() {
        let trace = trace_spanning(3, 100);
        let mut n = node();
        n.deploy_sampling(50);
        let mut bb = Backbone::new(vec![n], Micros::from_secs(60));
        let cycles = bb.run_trace(&trace, |_| 0);
        let c = cycles.last().unwrap();
        assert_eq!(c.snmp_packets(), 300);
        // 1-in-50 of 300 = 6 categorized, scaled back to 300.
        assert_eq!(c.estimated_packets(), 300);
    }

    #[test]
    fn idle_intervals_emit_empty_cycles() {
        // Packets at t=0s and t=35s with 10s polls: cycles at 10,20,30
        // (the middle ones empty), then the final cycle.
        let pkts = vec![
            PacketRecord::new(Micros(0), 40),
            PacketRecord::new(Micros::from_secs(35), 40),
        ];
        let trace = Trace::new(pkts).unwrap();
        let mut bb = Backbone::new(vec![node()], Micros::from_secs(10));
        let cycles = bb.run_trace(&trace, |_| 0);
        assert_eq!(cycles.len(), 4);
        assert_eq!(cycles[0].snmp_packets(), 1);
        assert_eq!(cycles[1].snmp_packets(), 0);
        assert_eq!(cycles[2].snmp_packets(), 0);
        assert_eq!(cycles[3].snmp_packets(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_backbone_panics() {
        let _ = Backbone::new(vec![], POLL_INTERVAL);
    }

    #[test]
    #[should_panic(expected = "bad node")]
    fn bad_route_panics() {
        let trace = trace_spanning(1, 1);
        let mut bb = Backbone::new(vec![node()], POLL_INTERVAL);
        let _ = bb.run_trace(&trace, |_| 5);
    }
}
