//! `collect-zipf`: the `netsample serve` path. A fresh `Collector` per
//! pass, `run_round` per window, then `finish`. 2 tenants × 3 interfaces
//! route 3/3 onto two shards, on a one-worker pool. Each lane window
//! brings more flows than the lane budget, so every window evicts.

use super::{digest, Pass, Size, Workload};
use crate::alloc;
use crate::span::Recorder;
use collectd::{report_jsonl, Collector, CollectorConfig, CollectorOutput, LaneSource};
use netstat_sim::Fleet;
use netsynth::FlowSizeDist;
use parkit::Pool;
use sampling::{MethodSpec, Target};
use std::time::Duration;
use streamkit::StreamMethod;

pub const TENANTS: u32 = 2;
pub const INTERFACES: u32 = 3;
pub const SHARDS: u32 = 2;
/// Systematic 1-in-`K` per lane.
pub const K: usize = 10;

pub struct Inputs {
    pub cfg: CollectorConfig,
}

impl Inputs {
    pub fn build(seed: u64, size: Size) -> Inputs {
        Inputs {
            cfg: CollectorConfig {
                fleet: Fleet::anonymous(TENANTS, INTERFACES).expect("small fleet"),
                shards: SHARDS,
                method: StreamMethod::Spec(MethodSpec::Systematic { interval: K }),
                target: Target::PacketSize,
                windows: size.collect_rounds,
                window_packets: size.collect_window,
                // The queue admits the whole window: nothing is shed.
                lane_queue: size.collect_window,
                lane_flow_budget: size.collect_budget,
                seed,
                source: LaneSource::Synth {
                    flows_per_window: size.collect_flows,
                    size_dist: FlowSizeDist::Zipf {
                        max_size: 2_000,
                        alpha: 1.2,
                    },
                    mean_gap_us: 20,
                },
            },
        }
    }
}

pub struct Collect<'a> {
    pub inputs: &'a Inputs,
    pool: Pool,
}

/// One collector lifetime: its output, per-round latencies, wall time
/// from `Collector::new` to the end of `finish`, and how much the live
/// heap grew over the rounds.
pub struct Lifetime {
    pub out: CollectorOutput,
    pub rounds: Vec<Duration>,
    pub wall: Duration,
    pub heap_growth: i64,
}

impl<'a> Collect<'a> {
    /// Building one collector up front is the set-up's share of the
    /// work: it validates the configuration and routes the fleet. Every
    /// pass then builds its own.
    pub fn new(inputs: &'a Inputs) -> Self {
        let probe = Collector::new(inputs.cfg.clone()).expect("valid collector config");
        assert_eq!(
            probe.plan().loads(),
            vec![INTERFACES; SHARDS as usize],
            "lanes split evenly over the shards"
        );
        Collect {
            inputs,
            pool: Pool::new(1),
        }
    }

    pub fn lifetime(&self, cfg: &CollectorConfig, pool: &Pool, rec: &mut Recorder) -> Lifetime {
        let ((out, rounds, heap_growth), wall) = rec.span("collectd.lifetime", |rec| {
            let (mut collector, _) = rec.span("collectd.new", |_| {
                Collector::new(cfg.clone()).expect("valid collector config")
            });
            let before = alloc::live();
            let rounds: Vec<Duration> = (0..cfg.windows)
                .map(|_| {
                    rec.span("collectd.run_round", |_| {
                        collector.run_round(pool).expect("round runs")
                    })
                    .1
                })
                .collect();
            let heap_growth = alloc::live() as i64 - before as i64;
            let (out, _) = rec.span("collectd.finish", |_| {
                collector.finish().expect("collector finishes")
            });
            (out, rounds, heap_growth)
        });
        Lifetime {
            out,
            rounds,
            wall,
            heap_growth,
        }
    }

    pub fn pool(&self) -> &Pool {
        &self.pool
    }
}

impl Workload for Collect<'_> {
    fn pass(&mut self, rec: &mut Recorder) -> Pass {
        let life = self.lifetime(&self.inputs.cfg, &self.pool, rec);
        Pass {
            packets: life.out.summary.ingested,
            wall: life.wall,
            digest: output_digest(&life.out),
            check: check(&self.inputs.cfg, &life.out),
            steps: life.rounds,
        }
    }

    /// Shard count must not change a byte of the report stream.
    fn warm_check(&mut self) -> Result<(), String> {
        let mut one = self.inputs.cfg.clone();
        one.shards = 1;
        let jsonl = |cfg: &CollectorConfig| -> Vec<String> {
            let life = self.lifetime(cfg, &self.pool, &mut Recorder::off());
            life.out.reports.iter().map(report_jsonl).collect()
        };
        if jsonl(&one) == jsonl(&self.inputs.cfg) {
            Ok(())
        } else {
            Err(format!("S=1 and S={SHARDS} report streams differ"))
        }
    }
}

pub fn output_digest(out: &CollectorOutput) -> u64 {
    let s = &out.summary;
    let mut d = faultkit::Digest::new();
    for r in &out.reports {
        d.update(report_jsonl(r).as_bytes());
    }
    digest([
        d.finish(),
        s.ingested,
        s.considered,
        s.shed,
        s.selected,
        s.flows_reported,
        s.evicted_flows,
        s.max_live_flows,
    ])
}

/// Conservation, no shedding, and one report per tenant per window.
pub fn check(cfg: &CollectorConfig, out: &CollectorOutput) -> Result<(), String> {
    let s = &out.summary;
    if s.ingested != s.considered + s.shed {
        return Err(format!(
            "ingested {} != considered {} + shed {}",
            s.ingested, s.considered, s.shed
        ));
    }
    if s.shed != 0 {
        return Err(format!("{} packets shed", s.shed));
    }
    let want = cfg.windows * u64::from(TENANTS);
    if out.reports.len() as u64 != want {
        return Err(format!("{} reports, want {want}", out.reports.len()));
    }
    Ok(())
}
