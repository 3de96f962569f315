//! Integration tests: the full operational pipeline — synthesis →
//! pcap file → backbone collection → sampled characterization —
//! is self-consistent across crate boundaries.

use netsample::netstat::{Backbone, CollectorNode, ObjectSet};
use netsample::netsynth;
use netsample::sampling::{select_indices, MethodSpec, Target};
use nettrace::pcap::write_pcap;
use nettrace::{Micros, PerSecondSeries, Trace};

fn minute() -> Trace {
    netsynth::generate(&netsynth::TraceProfile::short(60), 4242)
}

#[test]
fn pcap_roundtrip_preserves_analysis() {
    let trace = minute();
    let mut buf = Vec::new();
    write_pcap(&mut buf, &trace).unwrap();
    let back = nettrace::read_capture(buf.as_slice()).unwrap();
    assert_eq!(back.len(), trace.len());
    // Every characterization target sees identical distributions.
    for target in Target::all() {
        let a = target.population_histogram(trace.packets());
        let b = target.population_histogram(back.packets());
        assert_eq!(a.counts(), b.counts(), "{target}");
    }
    // Per-second series identical too.
    assert_eq!(
        PerSecondSeries::from_trace(&trace),
        PerSecondSeries::from_trace(&back)
    );
}

#[test]
fn unsampled_node_objects_match_population() {
    let trace = minute();
    let mut node = CollectorNode::new(ObjectSet::T1, u64::MAX / 2);
    for p in trace.iter() {
        node.offer(p);
    }
    let o = node.objects();
    assert_eq!(o.protocols.total_packets(), trace.len() as u64);
    assert_eq!(o.transit.packets, trace.len() as u64);
    assert_eq!(o.transit.bytes, trace.total_bytes());
    assert_eq!(o.matrix.total_packets(), trace.len() as u64);
    assert_eq!(o.lengths.total(), trace.len() as u64);
}

#[test]
fn sampled_node_estimates_population_objects() {
    // A 1-in-50 node's scaled object counts approximate the unsampled
    // truth (the whole premise of the T3 pipeline).
    let trace = minute();
    let mut truth = CollectorNode::new(ObjectSet::T3, u64::MAX / 2);
    let mut sampled = CollectorNode::new(ObjectSet::T3, u64::MAX / 2);
    sampled.deploy_sampling(50);
    for p in trace.iter() {
        truth.offer(p);
        sampled.offer(p);
    }
    let t = truth.objects().protocols.tcp.packets as f64;
    let e = sampled.objects().protocols.tcp.scaled(50).packets as f64;
    assert!((e - t).abs() / t < 0.05, "TCP estimate {e} vs truth {t}");

    let t_udp = truth.objects().protocols.udp.packets as f64;
    let e_udp = sampled.objects().protocols.udp.scaled(50).packets as f64;
    assert!(
        (e_udp - t_udp).abs() / t_udp < 0.15,
        "UDP estimate {e_udp} vs truth {t_udp}"
    );
}

#[test]
fn backbone_conserves_and_estimates() {
    let trace = minute();
    let mut nodes = vec![
        CollectorNode::new(ObjectSet::T3, u64::MAX / 2),
        CollectorNode::new(ObjectSet::T3, u64::MAX / 2),
    ];
    for n in &mut nodes {
        n.deploy_sampling(50);
    }
    let mut bb = Backbone::new(nodes, Micros::from_secs(15));
    let cycles = bb.run_trace(&trace, |p| usize::from(p.dst_net % 2 == 0));
    let snmp_total: u64 = cycles.iter().map(|c| c.snmp_packets()).sum();
    assert_eq!(snmp_total, trace.len() as u64, "SNMP conserves packets");
    let est_total: u64 = cycles.iter().map(|c| c.estimated_packets()).sum();
    let rel = (est_total as f64 - snmp_total as f64).abs() / snmp_total as f64;
    assert!(rel < 0.02, "estimate off by {rel}");
}

#[test]
fn overloaded_node_loses_categorization_until_sampled() {
    let trace = minute(); // ~420 pps
    let mut overloaded = CollectorNode::new(ObjectSet::T3, 100);
    for p in trace.iter() {
        overloaded.offer(p);
    }
    let r = overloaded.collect();
    assert!(r.discrepancy() > 0.5, "discrepancy {}", r.discrepancy());

    let mut fixed = CollectorNode::new(ObjectSet::T3, 100);
    fixed.deploy_sampling(50);
    for p in trace.iter() {
        fixed.offer(p);
    }
    let r = fixed.collect();
    assert!(r.discrepancy() < 0.02, "discrepancy {}", r.discrepancy());
    assert_eq!(r.missed, 0);
}

#[test]
fn sample_from_pcap_sourced_trace() {
    // File-driven sampling: write, read, sample, score — the real-trace
    // workflow.
    let trace = minute();
    let mut buf = Vec::new();
    write_pcap(&mut buf, &trace).unwrap();
    let back = nettrace::read_capture(buf.as_slice()).unwrap();
    let packets = back.packets();
    let mut sampler =
        MethodSpec::Systematic { interval: 50 }.build(packets.len(), Micros::ZERO, 0, 0);
    let selected = select_indices(sampler.as_mut(), packets);
    assert_eq!(selected.len(), packets.len().div_ceil(50));
    let pop = Target::PacketSize.population_histogram(packets);
    let sam = Target::PacketSize.sample_histogram(packets, &selected);
    let report = netsample::sampling::disparity(&pop, &sam).unwrap();
    assert!(report.phi < 0.1, "phi {}", report.phi);
}

#[test]
fn windows_compose_with_collection_cycles() {
    // Slicing the trace into 15 s windows and summing per-window object
    // totals equals whole-trace totals.
    let trace = minute();
    let mut total = 0u64;
    let mut from = Micros::ZERO;
    while from < Micros::from_secs(60) {
        let to = from + Micros::from_secs(15);
        total += trace.window(from, to).len() as u64;
        from = to;
    }
    assert_eq!(total, trace.len() as u64);
}
