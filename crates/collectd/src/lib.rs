//! # collectd — the sharded multi-interface collector daemon
//!
//! The paper's samplers run inside a measurement device on a live
//! backbone; this crate is that device, grown to service scale. A
//! [`Collector`] multiplexes N virtual interfaces × M tenants (a
//! [`netstat_sim::Fleet`]) onto S shards:
//!
//! * **Routing** ([`route`]): a stateless splitmix64 hash of the
//!   (tenant, interface) pair, modulo the shard count — stable across
//!   processes and across shard counts that divide evenly.
//! * **Lanes**: each (tenant, interface) pair owns its own netsynth
//!   source, sampler (any stream family), flow-budgeted windower and
//!   flow tables; all of it a pure function of `(seed, lane)`. Shards
//!   are threading units only, so the merged output is bit-identical at
//!   any shard count — the same merge-by-index contract parkit enforces.
//! * **Rounds**: one round = one window per lane. Shards advance in
//!   parallel on a parkit pool with `CounterShard` lock-free ingest
//!   tallies; each lane sheds arrivals beyond its queue bound
//!   (conservation: `ingested == considered + shed`).
//! * **Reports** ([`TenantWindowReport`]): per-(window, tenant) merges
//!   of φ, flow counts, SYN flows, and statkit inversion estimates over
//!   the sampled flow tables, rendered as deterministic JSONL. Each
//!   round reduces its lane windows to reports at its barrier, so the
//!   collector keeps only finished reports and running totals between
//!   rounds.
//! * **Telemetry**: `collectd_shard_flows{shard}`,
//!   `collectd_shard_evictions{shard}`, live-flow and routing-imbalance
//!   gauges on the obskit registry for the `--serve` scrape plane and
//!   its alert rules.
//!
//! `netsample serve` is the CLI front end; the ci.sh `collect` stage
//! soaks it to ≥1M aggregate live flows, with every lane's flow table
//! held to its budget.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod daemon;
pub mod error;
pub mod report;
pub mod route;

pub use daemon::{
    run_collector, Collector, CollectorConfig, CollectorOutput, LaneSource, RoundStats,
};
pub use error::CollectError;
pub use report::{report_jsonl, summary_jsonl, CollectorSummary, TenantWindowReport};
pub use route::{route, RoutingPlan};

#[cfg(test)]
mod tests {
    use super::*;
    use netstat_sim::Fleet;
    use netsynth::FlowSizeDist;
    use parkit::Pool;
    use sampling::{MethodSpec, Target};
    use streamkit::StreamMethod;

    fn small_cfg(shards: u32) -> CollectorConfig {
        CollectorConfig {
            fleet: Fleet::anonymous(2, 2).unwrap(),
            shards,
            method: StreamMethod::Spec(MethodSpec::Systematic { interval: 10 }),
            target: Target::PacketSize,
            windows: 3,
            window_packets: 500,
            lane_queue: 400,
            lane_flow_budget: 64,
            seed: 1993,
            source: LaneSource::Synth {
                flows_per_window: 20,
                size_dist: FlowSizeDist::Zipf {
                    max_size: 200,
                    alpha: 1.2,
                },
                mean_gap_us: 50,
            },
        }
    }

    #[test]
    fn rounds_conserve_packets_and_emit_per_tenant_reports() {
        let pool = Pool::serial();
        let out = run_collector(small_cfg(2), &pool, None, |_| {}).unwrap();
        let s = &out.summary;
        assert_eq!(s.ingested, s.considered + s.shed, "conservation");
        // 4 lanes × 3 windows × 500 arrivals.
        assert_eq!(s.ingested, 6_000);
        assert_eq!(s.considered, 4_800);
        assert_eq!(s.shed, 1_200);
        assert!(!s.drained);
        assert_eq!(s.windows_completed, 3);
        // One report per (window, tenant).
        assert_eq!(out.reports.len(), 6);
        for r in &out.reports {
            assert_eq!(r.lanes, 2);
            assert_eq!(r.packets, 800);
            assert_eq!(r.shed, 200);
            assert!(r.phi.is_some());
            assert!(r.est_flows_naive.is_some(), "systematic gets inversion");
        }
        // Reports arrive sorted (window, tenant).
        let keys: Vec<(u64, String)> = out
            .reports
            .iter()
            .map(|r| (r.window, r.tenant.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn multi_shard_output_is_bit_identical_to_single_shard() {
        let pool = Pool::serial();
        let one = run_collector(small_cfg(1), &pool, None, |_| {}).unwrap();
        let four = run_collector(small_cfg(4), &pool, None, |_| {}).unwrap();
        let lines =
            |o: &CollectorOutput| o.reports.iter().map(report_jsonl).collect::<Vec<String>>();
        assert_eq!(lines(&one), lines(&four));
        assert_eq!(one.summary.max_live_flows, four.summary.max_live_flows);
        assert_eq!(one.summary.selected, four.summary.selected);
    }

    #[test]
    fn parallel_pool_matches_serial() {
        let serial = run_collector(small_cfg(4), &Pool::serial(), None, |_| {}).unwrap();
        let parallel = run_collector(small_cfg(4), &Pool::new(4), None, |_| {}).unwrap();
        let lines =
            |o: &CollectorOutput| o.reports.iter().map(report_jsonl).collect::<Vec<String>>();
        assert_eq!(lines(&serial), lines(&parallel));
    }

    #[test]
    fn flow_budget_bounds_reported_flows_and_counts_evictions() {
        let mut cfg = small_cfg(2);
        cfg.lane_flow_budget = 8;
        let out = run_collector(cfg, &Pool::serial(), None, |_| {}).unwrap();
        for r in &out.reports {
            assert!(r.flows <= 16, "2 lanes × budget 8");
            assert!(
                r.evicted_flows > 0,
                "20 flows/window must evict at budget 8"
            );
        }
        assert!(out.summary.evicted_flows > 0);
        // A shard holds at most (lanes it hosts) × budget; the hash may
        // route up to all 4 lanes onto one shard.
        assert!(out.summary.max_shard_flows <= 32);
    }

    /// The budget bounds the window's flow table, not the sampled one:
    /// one lane of 1,000 flows per 200,000-packet window at 1-in-50
    /// estimates the same at a 64-flow budget as at 4,096.
    #[test]
    fn flow_budget_leaves_the_sampled_table_and_its_estimates_whole() {
        let run = |budget: usize| {
            let cfg = CollectorConfig {
                fleet: Fleet::anonymous(1, 1).unwrap(),
                shards: 1,
                method: StreamMethod::Spec(MethodSpec::Systematic { interval: 50 }),
                target: Target::PacketSize,
                windows: 2,
                window_packets: 200_000,
                lane_queue: 200_000,
                lane_flow_budget: budget,
                seed: 1993,
                source: LaneSource::Synth {
                    flows_per_window: 1_000,
                    size_dist: FlowSizeDist::Zipf {
                        max_size: 10_000,
                        alpha: 1.2,
                    },
                    mean_gap_us: 20,
                },
            };
            run_collector(cfg, &Pool::serial(), None, |_| {})
                .unwrap()
                .reports
        };
        let (small, large) = (run(64), run(4_096));
        assert_eq!(small.len(), 2);
        for (a, b) in small.iter().zip(&large) {
            assert!(a.evicted_flows > 0, "the 64-flow budget must bite");
            assert_eq!(a.sampled_flows, b.sampled_flows);
            assert_eq!(a.est_flows_tail, b.est_flows_tail);
            assert_eq!(a.est_syn_flows, b.est_syn_flows);
            assert_eq!(a.est_syn_flows, Some(1_000.0), "every true flow");
        }
    }

    #[test]
    fn replay_lanes_run_without_flow_ids() {
        let mut cfg = small_cfg(2);
        cfg.source = LaneSource::Replay { pace_pps: 0 };
        cfg.lane_queue = 500;
        let out = run_collector(cfg, &Pool::serial(), None, |_| {}).unwrap();
        assert_eq!(out.summary.ingested, 6_000);
        assert_eq!(out.summary.shed, 0);
        // 5-tuple keyed: flows still counted, no synthetic ids.
        assert!(out.reports.iter().all(|r| r.flows > 0));
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        let mut cfg = small_cfg(0);
        assert_eq!(
            Collector::new(cfg.clone()).err().unwrap(),
            CollectError::NoShards
        );
        cfg.shards = 1;
        cfg.windows = 0;
        assert!(matches!(
            Collector::new(cfg.clone()).err().unwrap(),
            CollectError::BadConfig(_)
        ));
        cfg.windows = 1;
        cfg.lane_queue = 0;
        assert!(matches!(
            Collector::new(cfg.clone()).err().unwrap(),
            CollectError::BadConfig(_)
        ));
        cfg.lane_queue = 10;
        cfg.lane_flow_budget = 0;
        assert!(matches!(
            Collector::new(cfg).err().unwrap(),
            CollectError::BadConfig(_)
        ));
    }

    #[test]
    fn shards_past_the_lane_cap_are_rejected_before_allocation() {
        let max = netstat_sim::MAX_LANES as u32;
        assert!(small_cfg(max).validate().is_ok());
        for shards in [max + 1, u32::MAX] {
            assert!(matches!(
                Collector::new(small_cfg(shards)).err().unwrap(),
                CollectError::BadConfig(m) if m.contains("lane cap")
            ));
        }
    }

    #[test]
    fn synthetic_windows_past_u32_max_packets_are_rejected() {
        let mut cfg = small_cfg(1);
        cfg.window_packets = u64::from(u32::MAX);
        assert!(cfg.validate().is_ok());
        cfg.window_packets += 1;
        assert!(matches!(
            cfg.validate().err().unwrap(),
            CollectError::BadConfig(m) if m.contains("synthetic lane")
        ));
        // Replay lanes hold no per-flow quota, so no such bound.
        cfg.source = LaneSource::Replay { pace_pps: 0 };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn drain_deadline_flushes_partial_windows_and_conserves_packets() {
        use std::time::{Duration, Instant};
        for method in [
            StreamMethod::Spec(MethodSpec::Systematic { interval: 10 }),
            StreamMethod::Reservoir { capacity: 100 },
        ] {
            let mut cfg = small_cfg(2);
            cfg.method = method;
            // A window far larger than 60ms of generation: the deadline
            // interrupts mid-window and the drain path must flush
            // partials.
            cfg.windows = 1_000;
            cfg.window_packets = 50_000_000;
            cfg.lane_queue = 40_000_000;
            cfg.source = LaneSource::Synth {
                flows_per_window: 1_000,
                size_dist: FlowSizeDist::Geometric { p: 0.05 },
                mean_gap_us: 10,
            };
            let deadline = Instant::now() + Duration::from_millis(60);
            let out = run_collector(cfg, &Pool::serial(), Some(deadline), |_| {}).unwrap();
            let s = &out.summary;
            assert!(s.drained, "the deadline must end the run early");
            assert!(s.windows_completed < 1_000);
            // The drain contract: every arrival is accounted for.
            assert_eq!(s.ingested, s.considered + s.shed, "conservation");
            assert!(s.ingested > 0, "some packets flowed before the deadline");
            // The partial windows were flushed into the reports, and the
            // summary counts what they selected and evicted.
            let sum = |field: fn(&TenantWindowReport) -> u64| -> u64 {
                out.reports.iter().map(field).sum()
            };
            assert_eq!(sum(|r| r.packets), s.considered);
            let (selected, evicted) = (sum(|r| r.selected), sum(|r| r.evicted_flows));
            assert!(selected > 0 && evicted > 0, "the partials select and evict");
            assert_eq!(s.selected, selected, "{}", s.method);
            assert_eq!(s.evicted_flows, evicted, "{}", s.method);
            let line = summary_jsonl(s);
            assert!(line.contains("\"drained\":true"));
            // The deadline skips no lane: each tenant's report covers
            // both of its interfaces.
            assert_eq!(out.reports.len(), 2, "{}", s.method);
            assert!(out.reports.iter().all(|r| r.lanes == 2), "{}", s.method);
        }
    }

    #[test]
    fn expired_deadline_takes_one_chunk_from_every_lane() {
        let expired = || Some(std::time::Instant::now());
        // A window that fits in one chunk closes whole, and the run still
        // ends with that round.
        let out = run_collector(small_cfg(2), &Pool::serial(), expired(), |_| {}).unwrap();
        assert!(out.summary.drained);
        assert_eq!(out.summary.windows_completed, 1);
        assert_eq!(out.summary.ingested, 4 * 500);
        assert_eq!(out.reports.len(), 2);
        assert!(out.reports.iter().all(|r| r.lanes == 2));
        let run = |shards: u32| {
            let mut cfg = small_cfg(shards);
            cfg.window_packets = 50_000;
            cfg.lane_queue = 40_000;
            run_collector(cfg, &Pool::serial(), expired(), |_| {}).unwrap()
        };
        let chunk = daemon::CHUNK as u64;
        let one = run(1);
        for out in [run(2), run(4), one.clone()] {
            let s = &out.summary;
            assert!(s.drained);
            assert_eq!(s.windows_completed, 1);
            assert_eq!(s.ingested, s.considered + s.shed, "conservation");
            assert_eq!(s.ingested, 4 * chunk, "one chunk from each of 4 lanes");
            assert_eq!(out.reports.len(), 2, "shards {}", s.shards);
            for r in &out.reports {
                assert_eq!(r.lanes, 2, "shards {}", s.shards);
                assert_eq!(r.packets, 2 * chunk, "shards {}", s.shards);
            }
            let lines =
                |o: &CollectorOutput| o.reports.iter().map(report_jsonl).collect::<Vec<String>>();
            assert_eq!(lines(&out), lines(&one), "shards {}", s.shards);
        }
    }

    #[test]
    fn observer_sees_monotone_rounds_and_shard_gauges() {
        let mut rounds = Vec::new();
        let out = run_collector(small_cfg(2), &Pool::serial(), None, |r| {
            rounds.push((r.round, r.live_flows, r.shard_flows.clone()));
        })
        .unwrap();
        assert_eq!(rounds.len(), 3);
        for (i, (round, live, shards)) in rounds.iter().enumerate() {
            assert_eq!(*round, i as u64);
            assert_eq!(shards.len(), 2);
            assert_eq!(*live, shards.iter().sum::<u64>());
        }
        assert_eq!(
            out.summary.max_live_flows,
            rounds.iter().map(|r| r.1).max().unwrap()
        );
    }
}
