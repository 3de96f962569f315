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
//!   the sampled flow tables, rendered as deterministic JSONL.
//! * **Telemetry**: `collectd_shard_flows{shard}`,
//!   `collectd_shard_rss_kb{shard}`, eviction and routing-imbalance
//!   gauges on the obskit registry for the `--serve` scrape plane and
//!   its alert rules.
//!
//! `netsample serve` is the CLI front end; the ci.sh `collect` stage
//! soaks it to ≥1M aggregate live flows with per-shard budgets
//! enforced.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod daemon;
pub mod error;
pub mod report;
pub mod route;

pub use daemon::{
    run_collector, Collector, CollectorConfig, CollectorOutput, LaneSource, LaneWindow, RoundStats,
};
pub use error::CollectError;
pub use report::{report_jsonl, summary_jsonl, CollectorSummary, TenantWindowReport};
pub use route::{route, route_key, RoutingPlan};

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
    fn reshard_mid_stream_is_a_typed_mismatch() {
        let pool = Pool::serial();
        let mut c = Collector::new(small_cfg(2)).unwrap();
        c.reshard(4).unwrap(); // legal before ingest
        c.run_round(&pool).unwrap();
        assert_eq!(
            c.reshard(2).unwrap_err(),
            CollectError::ShardMismatch {
                expected: 4,
                got: 2
            }
        );
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
    fn drain_deadline_flushes_partial_windows_and_conserves_packets() {
        use std::time::{Duration, Instant};
        let mut cfg = small_cfg(2);
        // A window far larger than 60ms of generation: the deadline
        // interrupts mid-window and the drain path must flush partials.
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
        // finish() flushed the partial windows: reported packets cover
        // everything the samplers considered.
        let reported: u64 = out.reports.iter().map(|r| r.packets).sum();
        assert_eq!(reported, s.considered);
        let line = summary_jsonl(s);
        assert!(line.contains("\"drained\":true"));
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

    #[test]
    fn shard_rss_gauge_says_it_is_modelled() {
        run_collector(small_cfg(2), &Pool::serial(), None, |_| {}).unwrap();
        let text = obskit::global().render_prometheus();
        let help = text
            .lines()
            .find(|l| l.starts_with("# HELP collectd_shard_rss_kb "))
            .unwrap_or_else(|| panic!("no HELP line for the shard RSS gauge:\n{text}"));
        assert!(help.contains("Modelled"), "{help}");
        assert!(help.contains("live_flows * 96"), "{help}");
    }
}
