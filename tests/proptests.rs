//! Property-based tests (proptest) over the core data structures and
//! invariants, spanning all workspace crates.

use netsample::sampling::experiment::MethodFamily;
use netsample::sampling::{
    disparity, select_indices, MethodSpec, SimpleRandomSampler, StratifiedSampler,
    SystematicSampler, Target,
};
use nettrace::pcap::write_pcap;
use nettrace::{
    BinSpec, ClockModel, FlowKey, FlowTable, Histogram, Micros, PacketRecord, Protocol, Trace,
};
use proptest::prelude::*;
use statkit::{quantile, Moments};

/// Strategy: an ordered packet stream with realistic field ranges.
/// Roughly half the packets carry a synthetic flow id (0 = unassigned,
/// falling back to 5-tuple keying); the first packet seen per flow id
/// gets the SYN bit, as the flow generators would set it.
fn packet_stream(max_len: usize) -> impl Strategy<Value = Vec<PacketRecord>> {
    prop::collection::vec(
        (
            0u64..5_000u64,  // gap to previous packet (us)
            28u16..=1500u16, // size
            0u8..=20u8,      // protocol number (covers TCP/UDP/ICMP/other)
            0u16..=1024u16,  // src port
            0u16..=1024u16,  // dst port
            0u16..=300u16,   // src net
            0u16..=300u16,   // dst net
            0u32..=40u32,    // flow id (0 = unassigned)
        ),
        1..max_len,
    )
    .prop_map(|rows| {
        let mut t = 0u64;
        let mut seen_flows = std::collections::BTreeSet::new();
        rows.into_iter()
            .map(|(gap, size, proto, sp, dp, sn, dn, flow)| {
                t += gap;
                let first = flow != 0 && seen_flows.insert(flow);
                let mut p = PacketRecord {
                    timestamp: Micros(t),
                    size,
                    protocol: Protocol::from_number(proto),
                    src_port: sp,
                    dst_port: dp,
                    src_net: sn,
                    dst_net: dn,
                    flow_id: 0,
                    flags: 0,
                };
                if flow != 0 {
                    p = p.with_flow(flow, first);
                }
                p
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trace_construction_accepts_ordered_streams(pkts in packet_stream(200)) {
        let trace = Trace::new(pkts.clone()).expect("ordered by construction");
        prop_assert_eq!(trace.len(), pkts.len());
        // Interarrivals are nonnegative and consistent with timestamps.
        let ia = trace.interarrivals();
        prop_assert_eq!(ia.len(), pkts.len().saturating_sub(1));
        for (i, g) in ia.iter().enumerate() {
            prop_assert_eq!(
                *g,
                pkts[i + 1].timestamp.as_u64() - pkts[i].timestamp.as_u64()
            );
        }
    }

    #[test]
    fn windows_partition_the_trace(pkts in packet_stream(200), cut in 0u64..1_000_000u64) {
        let trace = Trace::new(pkts).unwrap();
        let end = trace.end().unwrap() + Micros(1);
        let left = trace.window(Micros::ZERO, Micros(cut));
        let right = trace.window(Micros(cut), end);
        prop_assert_eq!(left.len() + right.len(), trace.len());
    }

    #[test]
    fn pcap_roundtrip_is_lossless(pkts in packet_stream(100)) {
        let trace = Trace::new(pkts).unwrap();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace).unwrap();
        let back = nettrace::read_capture(buf.as_slice()).unwrap();
        prop_assert_eq!(back.len(), trace.len());
        for (a, b) in trace.iter().zip(back.iter()) {
            prop_assert_eq!(a.timestamp, b.timestamp);
            prop_assert_eq!(a.size, b.size);
            prop_assert_eq!(a.protocol, b.protocol);
            prop_assert_eq!(a.src_net, b.src_net);
            prop_assert_eq!(a.dst_net, b.dst_net);
            prop_assert_eq!(a.flow_id, b.flow_id);
            prop_assert_eq!(a.flags, b.flags);
        }
    }

    #[test]
    fn clock_quantization_is_monotone_floor(tick in 1u64..10_000, ts in 0u64..10_000_000) {
        let clock = ClockModel::new(tick);
        let q = clock.quantize(Micros(ts)).as_u64();
        prop_assert!(q <= ts);
        prop_assert!(ts - q < tick);
        prop_assert_eq!(q % tick, 0);
        // Monotone.
        let q2 = clock.quantize(Micros(ts + 1)).as_u64();
        prop_assert!(q2 >= q);
    }

    #[test]
    fn systematic_sample_size_formula(
        n in 1usize..500, k in 1usize..60, offset_raw in 0usize..60
    ) {
        let offset = offset_raw % k;
        let pkts: Vec<PacketRecord> =
            (0..n).map(|i| PacketRecord::new(Micros(i as u64), 40)).collect();
        let mut s = SystematicSampler::with_offset(k, offset);
        let sel = select_indices(&mut s, &pkts);
        prop_assert_eq!(sel.len(), n.saturating_sub(offset).div_ceil(k));
        // Selected indices are exactly offset + j*k.
        for (j, &i) in sel.iter().enumerate() {
            prop_assert_eq!(i, offset + j * k);
        }
    }

    #[test]
    fn stratified_selects_one_per_full_bucket(
        n in 1usize..500, k in 1usize..60, seed in 0u64..1000
    ) {
        let pkts: Vec<PacketRecord> =
            (0..n).map(|i| PacketRecord::new(Micros(i as u64), 40)).collect();
        let mut s = StratifiedSampler::new(k, seed);
        let sel = select_indices(&mut s, &pkts);
        let full_buckets = n / k;
        prop_assert!(sel.len() >= full_buckets);
        prop_assert!(sel.len() <= full_buckets + 1);
        for (b, &i) in sel.iter().enumerate().take(full_buckets) {
            prop_assert!(i >= b * k && i < (b + 1) * k);
        }
    }

    #[test]
    fn algorithm_s_selects_exactly_n(
        pop in 1usize..500, frac in 0.01f64..1.0, seed in 0u64..1000
    ) {
        let n = ((pop as f64 * frac) as usize).clamp(1, pop);
        let pkts: Vec<PacketRecord> =
            (0..pop).map(|i| PacketRecord::new(Micros(i as u64), 40)).collect();
        let mut s = SimpleRandomSampler::new(pop, n, seed);
        let sel = select_indices(&mut s, &pkts);
        prop_assert_eq!(sel.len(), n);
        // Strictly increasing (each index at most once).
        prop_assert!(sel.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn full_sample_has_zero_phi(pkts in packet_stream(300)) {
        for target in [Target::PacketSize, Target::Protocol, Target::Port] {
            let pop = target.population_histogram(&pkts);
            let all: Vec<usize> = (0..pkts.len()).collect();
            let sam = target.sample_histogram(&pkts, &all);
            let r = disparity(&pop, &sam).unwrap();
            prop_assert!(r.phi.abs() < 1e-12);
            prop_assert!(r.chi2.abs() < 1e-9);
            prop_assert!(r.cost.abs() < 1e-6);
        }
    }

    #[test]
    fn disparity_metrics_are_nonnegative(
        pkts in packet_stream(300), k in 2usize..50, seed in 0u64..100
    ) {
        let spec = MethodSpec::StratifiedRandom { bucket: k };
        let mut sampler = spec.build(pkts.len(), pkts[0].timestamp, 0, seed);
        let sel = select_indices(sampler.as_mut(), &pkts);
        let pop = Target::PacketSize.population_histogram(&pkts);
        let sam = Target::PacketSize.sample_histogram(&pkts, &sel);
        if let Some(r) = disparity(&pop, &sam) {
            prop_assert!(r.chi2 >= 0.0);
            prop_assert!(r.phi >= 0.0);
            prop_assert!(r.cost >= 0.0);
            prop_assert!(r.x2 >= 0.0);
            prop_assert!((0.0..=1.0).contains(&r.significance));
            prop_assert!(r.fraction > 0.0 && r.fraction <= 1.0);
        }
    }

    #[test]
    fn histogram_conserves_observations(values in prop::collection::vec(0u64..4000, 1..500)) {
        let spec = BinSpec::paper_interarrival();
        let h = Histogram::from_values(spec, values.iter().copied());
        prop_assert_eq!(h.total(), values.len() as u64);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), values.len() as u64);
        let props = h.proportions();
        prop_assert!((props.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn moments_merge_matches_single_pass(
        xs in prop::collection::vec(-1e3f64..1e3, 2..300), split in 1usize..299
    ) {
        let split = split.min(xs.len() - 1);
        let whole = Moments::from_values(xs.iter().copied());
        let mut left = Moments::from_values(xs[..split].iter().copied());
        let right = Moments::from_values(xs[split..].iter().copied());
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-6);
    }

    #[test]
    fn quantiles_are_bounded_and_monotone(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200)
    ) {
        let min = xs.iter().cloned().fold(f64::MAX, f64::min);
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        let mut last = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = quantile(&xs, i as f64 / 10.0);
            prop_assert!(q >= min - 1e-9 && q <= max + 1e-9);
            prop_assert!(q >= last);
            last = q;
        }
    }

    #[test]
    fn timer_sampler_selection_bounded_by_schedule(
        pkts in packet_stream(300), period in 1_000u64..100_000
    ) {
        let spec = MethodSpec::SystematicTimer { period: Micros(period) };
        let mut s = spec.build(pkts.len(), pkts[0].timestamp, 0, 0);
        let sel = select_indices(s.as_mut(), &pkts);
        let duration = pkts.last().unwrap().timestamp.as_u64()
            - pkts[0].timestamp.as_u64();
        // At most one selection per period, plus the initial firing.
        prop_assert!(sel.len() as u64 <= duration / period + 1);
        prop_assert!(!sel.is_empty(), "first firing is at the window start");
    }

    #[test]
    fn byte_volume_totals_equal_byte_sums(pkts in packet_stream(300)) {
        let h = Target::ByteVolume.population_histogram(&pkts);
        let bytes: u64 = pkts.iter().map(|p| u64::from(p.size)).sum();
        prop_assert_eq!(h.total(), bytes);
        // Packet-count and byte views agree on emptiness per bin.
        let counts = Target::PacketSize.population_histogram(&pkts);
        for (c, b) in counts.counts().iter().zip(h.counts()) {
            prop_assert_eq!(*c == 0, *b == 0);
        }
    }

    #[test]
    fn adaptive_sampler_respects_interval_bounds(
        pkts in packet_stream(500),
        budget in 1u32..50,
        initial in 1usize..64,
    ) {
        use netsample::sampling::adaptive::{AdaptiveConfig, AdaptiveSampler};
        let config = AdaptiveConfig {
            budget_per_period: budget,
            min_interval: 1,
            max_interval: 64,
            ..AdaptiveConfig::default()
        };
        let mut s = AdaptiveSampler::new(initial.clamp(1, 64), config);
        for p in &pkts {
            let _ = netsample::sampling::Sampler::offer(&mut s, p);
            prop_assert!((1..=64).contains(&s.current_interval()));
        }
    }

    #[test]
    fn merge_conserves_and_orders(
        a in packet_stream(150),
        b in packet_stream(150),
    ) {
        use nettrace::merge::merge;
        let ta = Trace::new(a).unwrap();
        let tb = Trace::new(b).unwrap();
        let m = merge(&[&ta, &tb]);
        prop_assert_eq!(m.len(), ta.len() + tb.len());
        prop_assert!(m
            .packets()
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp));
        prop_assert_eq!(m.total_bytes(), ta.total_bytes() + tb.total_bytes());
    }

    #[test]
    fn flow_generator_structural_invariants(seed in 0u64..50) {
        use netsample::netsynth::flows::{generate_flows, FlowProfile};
        let t = generate_flows(
            &FlowProfile {
                duration_secs: 5,
                ..FlowProfile::default()
            },
            seed,
        );
        prop_assert!(t.packets().windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        prop_assert!(t.iter().all(|p| (28..=1500).contains(&p.size)));
        prop_assert!(t.iter().all(|p| p.timestamp.as_u64() < 5_000_000));
        prop_assert!(t.iter().all(|p| p.timestamp.as_u64() % 400 == 0));
    }

    #[test]
    fn pcap_reader_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        // Robustness: arbitrary input must produce Ok or Err, never a
        // panic (the reader faces untrusted files). A valid pcap magic
        // in front sends the garbage through the record decoder.
        let mut pcap = 0xa1b2_c3d4u32.to_le_bytes().to_vec();
        pcap.extend_from_slice(&bytes);
        let _ = nettrace::read_capture(pcap.as_slice());
        let _ = nettrace::read_capture_lossy(pcap.as_slice());
    }

    #[test]
    fn pcapng_reader_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        // Likewise behind the pcapng section-header magic, where the
        // salvage also resynchronizes through the garbage.
        let mut pcapng = 0x0a0d_0d0au32.to_le_bytes().to_vec();
        pcapng.extend_from_slice(&bytes);
        let _ = nettrace::read_capture(pcapng.as_slice());
        let _ = nettrace::read_capture_lossy(pcapng.as_slice());
        let _ = nettrace::read_capture(bytes.as_slice());
    }

    #[test]
    fn readers_never_panic_on_corrupted_valid_stream(
        pkts in packet_stream(20),
        flips in prop::collection::vec((0usize..2000, any::<u8>()), 1..8),
    ) {
        // Take a valid stream and corrupt random bytes: still no panic.
        let trace = Trace::new(pkts).unwrap();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &trace).unwrap();
        for (pos, val) in flips {
            if !buf.is_empty() {
                let i = pos % buf.len();
                buf[i] = val;
            }
        }
        let _ = nettrace::read_capture(buf.as_slice());
        let _ = nettrace::read_capture_lossy(buf.as_slice());
    }

    #[test]
    fn flow_table_matches_reference_grouping(pkts in packet_stream(200)) {
        // An unbounded table is exactly a one-shot grouping by FlowKey.
        let table = FlowTable::from_packets(&pkts);
        let mut reference: std::collections::BTreeMap<FlowKey, (u64, u64, bool)> =
            std::collections::BTreeMap::new();
        for p in &pkts {
            let e = reference.entry(FlowKey::of(p)).or_insert((0, 0, false));
            e.0 += 1;
            e.1 += u64::from(p.size);
            e.2 |= p.syn();
        }
        prop_assert_eq!(table.len(), reference.len());
        prop_assert_eq!(table.evicted_flows(), 0);
        for (key, rec) in table.flows() {
            let &(packets, bytes, syn) = reference.get(key).expect("key in reference");
            prop_assert_eq!(rec.packets, packets);
            prop_assert_eq!(rec.bytes, bytes);
            prop_assert_eq!(rec.syn_seen, syn);
            prop_assert!(rec.first_ts <= rec.last_ts);
        }
    }

    #[test]
    fn flow_table_eviction_never_corrupts_survivors(
        pkts in packet_stream(200), cap in 1usize..16
    ) {
        let whole = FlowTable::from_packets(&pkts);
        let mut table = whole.clone();
        table.truncate_lru(cap);
        // The survivors are the `cap` largest (last_ts, key) of the full
        // grouping, with their records unchanged.
        let snapshot = |t: &FlowTable| t.flows().map(|(k, r)| (*k, *r)).collect::<Vec<_>>();
        let mut ranked = snapshot(&whole);
        ranked.sort_unstable_by_key(|&(k, r)| (r.last_ts, k));
        let cut = ranked.len().saturating_sub(cap);
        let mut survivors = ranked.split_off(cut);
        survivors.sort_unstable_by_key(|&(k, _)| k);
        prop_assert_eq!(snapshot(&table), survivors);
        prop_assert_eq!(table.evicted_flows(), cut as u64);
        // Conservation: every offered packet is live or was counted at
        // its flow's eviction.
        prop_assert_eq!(table.offered(), pkts.len() as u64);
        prop_assert_eq!(
            table.live_packets() + table.evicted_packets(),
            pkts.len() as u64
        );
    }

    #[test]
    fn flow_table_batch_equals_stream(
        pkts in packet_stream(200), cap in 1usize..16, chunk in 1usize..64
    ) {
        // A stream aggregated in chunks, merged and then truncated (the
        // windower's buckets and window budget) equals one pass then
        // truncated.
        let mut streamed = FlowTable::unbounded();
        for part in pkts.chunks(chunk) {
            streamed.merge(&FlowTable::from_packets(part));
        }
        streamed.truncate_lru(cap);
        let mut batch = FlowTable::from_packets(&pkts);
        batch.truncate_lru(cap);
        let snapshot = |t: &FlowTable| t.flows().map(|(k, r)| (*k, *r)).collect::<Vec<_>>();
        prop_assert_eq!(snapshot(&batch), snapshot(&streamed));
        prop_assert_eq!(batch.offered(), streamed.offered());
        prop_assert_eq!(batch.evicted_flows(), streamed.evicted_flows());
        prop_assert_eq!(batch.evicted_packets(), streamed.evicted_packets());
    }

    #[test]
    fn flow_table_merge_of_halves_equals_one_pass(
        pkts in packet_stream(200), split_raw in 0usize..200
    ) {
        let split = split_raw % (pkts.len() + 1);
        let mut merged = FlowTable::unbounded();
        merged.merge(&FlowTable::from_packets(&pkts[..split]));
        merged.merge(&FlowTable::from_packets(&pkts[split..]));
        let whole = FlowTable::from_packets(&pkts);
        let snapshot = |t: &FlowTable| t.flows().map(|(k, r)| (*k, *r)).collect::<Vec<_>>();
        prop_assert_eq!(snapshot(&merged), snapshot(&whole));
        prop_assert_eq!(merged.offered(), whole.offered());
        prop_assert_eq!(merged.live_packets(), whole.live_packets());
    }

    #[test]
    fn samplers_never_select_more_than_offered(
        pkts in packet_stream(200), k in 1usize..30
    ) {
        for family in MethodFamily::paper_five() {
            let spec = family.at_granularity(k, 500.0);
            let mut s = spec.build(pkts.len(), pkts[0].timestamp, 0, 7);
            let sel = select_indices(s.as_mut(), &pkts);
            prop_assert!(sel.len() <= pkts.len(), "{spec}");
            // Indices are valid and strictly increasing.
            prop_assert!(sel.windows(2).all(|w| w[0] < w[1]), "{spec}");
            if let Some(&last) = sel.last() {
                prop_assert!(last < pkts.len(), "{spec}");
            }
        }
    }
}
