//! The collector daemon: lanes, shards, rounds, and the merge.
//!
//! ## Determinism model
//!
//! A **lane** — one (tenant, interface) pair — owns the full measurement
//! pipeline for its stream: the traffic source, the sampler, the
//! windower, and the flow tables inside it. Every lane's stream and
//! sampler are pure functions of `(seed, lane)`. A **shard** is only the
//! *threading* unit: it hosts the lanes the [`RoutingPlan`] assigns to
//! it and processes them in ascending lane order. Because no per-packet
//! state lives at shard granularity, and the coordinator merges shard
//! results **by shard index** (parkit's contract) and then sorts each
//! round's lane windows by lane, the merged output is bit-identical at
//! any shard count — S=4 reproduces S=1 exactly.
//!
//! ## Round = window
//!
//! The daemon advances in rounds. Each round, every live lane generates
//! `window_packets` packets (its "arrivals"), offers the first
//! `min(window_packets, lane_queue)` of them to its sampler+windower —
//! the rest are **shed**, modeling a bounded ingest queue — and the
//! count-window closes exactly at the offer bound, emitting one
//! [`WindowPayload`] per lane per round. A lane that cannot produce a
//! full window (a drain deadline, or a replay that ran dry) closes its
//! partial window in that round, and the run ends with it. A deadline
//! stops a lane only after its first chunk of the round, so every lane
//! reports in a drained round. At the round's barrier the coordinator
//! reduces the round's windows to per-tenant reports, as the paper's
//! statistics processor reports each interval's objects and starts the
//! next one clean. Conservation holds by construction and is asserted
//! in the drain test: `ingested == considered + shed`.
//!
//! ## Bounded memory
//!
//! Each lane's windower carries a flow budget
//! ([`CollectorConfig::lane_flow_budget`]); a shard hosting L lanes
//! therefore holds at most `L × budget` flows regardless of traffic —
//! the cap the `collectd_shard_flows` gauge watches. Eviction is the
//! flow table's deterministic least-recently-updated-first policy, so
//! the cap never costs determinism. The sampled flow table needs no
//! budget: it holds at most one flow per selected packet. Between
//! rounds the coordinator keeps only the finished reports and running
//! totals: no lane window or sampled flow size outlives its round.

use crate::error::CollectError;
use crate::report::{CollectorSummary, TenantWindowReport};
use crate::route::RoutingPlan;
use netstat_sim::{Fleet, Lane, MAX_LANES};
use netsynth::{replay_lane, FlowSizeDist, LaneConfig, LaneGen, ReplayLane};
use nettrace::time::Micros;
use nettrace::PacketRecord;
use obskit::CounterShard;
use parkit::Pool;
use sampling::{MethodSpec, Target};
use statkit::inversion::{naive_scaling, syn_flow_count, tail_rescale};
use std::sync::Mutex;
use std::time::Instant;
use streamkit::{StreamMethod, WindowPayload, WindowSpec, Windower};

/// Packets pulled from a lane source per inner step — small enough to
/// keep per-lane buffers cache-resident, large enough to amortize the
/// windower's dispatch.
pub(crate) const CHUNK: usize = 8_192;

/// What feeds each lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaneSource {
    /// The windowed synthetic flow mix ([`netsynth::LaneGen`]):
    /// `flows_per_window` fresh flows per window with quotas from
    /// `size_dist`, `mean_gap_us` between packets.
    Synth {
        /// Fresh flows per lane per window.
        flows_per_window: u32,
        /// Parent flow-size distribution.
        size_dist: FlowSizeDist,
        /// Mean intra-lane packet gap (µs).
        mean_gap_us: u64,
    },
    /// Per-interface [`netsynth::PacedReader`] replay of the calibrated
    /// 1993 marginals (no flow ids; 5-tuple keyed).
    Replay {
        /// Replay pacing (packets/s; 0 = unpaced).
        pace_pps: u64,
    },
}

/// Full daemon configuration.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// The tenant × interface fleet to serve.
    pub fleet: Fleet,
    /// Shard count (threading units).
    pub shards: u32,
    /// Sampling method instantiated per lane.
    pub method: StreamMethod,
    /// Characterization target for the per-window φ score.
    pub target: Target,
    /// Rounds (== windows) to run.
    pub windows: u64,
    /// Packets arriving per lane per window.
    pub window_packets: u64,
    /// Per-lane per-window ingest bound; arrivals beyond it are shed.
    pub lane_queue: u64,
    /// Per-lane flow budget (a shard hosting L lanes holds ≤ L × this).
    pub lane_flow_budget: usize,
    /// Collector-wide seed; lanes fold their index in.
    pub seed: u64,
    /// The lane traffic source.
    pub source: LaneSource,
}

impl CollectorConfig {
    /// Validate the run shape.
    ///
    /// # Errors
    /// [`CollectError::NoShards`] / [`CollectError::BadConfig`] naming
    /// the degenerate parameter.
    pub fn validate(&self) -> Result<(), CollectError> {
        if self.shards == 0 {
            return Err(CollectError::NoShards);
        }
        // A shard past the lane count hosts no lane, and the fleet caps
        // lanes at MAX_LANES, so more shards only allocate idle state.
        if self.shards as usize > MAX_LANES {
            return Err(CollectError::BadConfig(format!(
                "{} shards exceed the {MAX_LANES}-lane cap",
                self.shards
            )));
        }
        if self.windows == 0 {
            return Err(CollectError::BadConfig("zero windows".into()));
        }
        if self.window_packets == 0 {
            return Err(CollectError::BadConfig("zero window packets".into()));
        }
        if self.lane_queue == 0 {
            return Err(CollectError::BadConfig(
                "zero lane queue sheds everything".into(),
            ));
        }
        if self.lane_flow_budget == 0 {
            return Err(CollectError::BadConfig("zero lane flow budget".into()));
        }
        if let LaneSource::Synth {
            flows_per_window,
            mean_gap_us,
            ..
        } = self.source
        {
            if flows_per_window == 0 {
                return Err(CollectError::BadConfig("zero flows per window".into()));
            }
            if u64::from(flows_per_window) > self.window_packets {
                return Err(CollectError::BadConfig(format!(
                    "flows per window ({flows_per_window}) exceed window packets ({})",
                    self.window_packets
                )));
            }
            if mean_gap_us == 0 {
                return Err(CollectError::BadConfig("zero mean gap".into()));
            }
            // The generator keeps each flow's quota in a u32; at this
            // bound every quota of every flow mix fits.
            if self.window_packets > u64::from(u32::MAX) {
                return Err(CollectError::BadConfig(format!(
                    "window packets ({}) exceed {} for a synthetic lane",
                    self.window_packets,
                    u32::MAX
                )));
            }
        }
        Ok(())
    }

    /// The inversion interval `k` when the method admits one — the
    /// statkit estimators model 1-in-k systematic thinning, so only the
    /// systematic family gets per-window inversion estimates.
    #[must_use]
    pub fn inversion_interval(&self) -> Option<u64> {
        match self.method {
            StreamMethod::Spec(MethodSpec::Systematic { interval }) if interval > 1 => {
                Some(interval as u64)
            }
            _ => None,
        }
    }

    /// Packets offered to each lane's sampler per round.
    #[must_use]
    fn effective_window(&self) -> u64 {
        self.window_packets.min(self.lane_queue)
    }
}

/// One lane's closed window, tagged for the round's reduction.
struct LaneWindow {
    lane: Lane,
    /// Arrivals the lane's queue shed in the window's round.
    shed: u64,
    payload: WindowPayload,
}

/// Per-round statistics handed to the observer (and the telemetry
/// plane) after each round's barrier.
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// Round index (0-based; == the window index it closed).
    pub round: u64,
    /// Live flows per shard at the round's close (closed windows plus
    /// any partial state).
    pub shard_flows: Vec<u64>,
    /// Cumulative evicted flows per shard.
    pub shard_evictions: Vec<u64>,
    /// Aggregate live flows across shards this round.
    pub live_flows: u64,
    /// Cumulative packets that arrived.
    pub ingested: u64,
    /// Cumulative packets offered to samplers.
    pub considered: u64,
    /// Cumulative packets shed by lane queues.
    pub shed: u64,
    /// Cumulative packets selected by samplers.
    pub selected: u64,
    /// True when this round ends the run: a drain deadline passed
    /// during it, or a lane could not produce a full window.
    pub drained: bool,
}

/// The lane's feed. The replay reader is boxed: it carries a decode
/// buffer that would otherwise dominate every synth lane's footprint.
enum Feed {
    Gen(Box<LaneGen>),
    Replay(Box<ReplayLane>),
    /// A replay that ran out of bytes; the lane idles.
    Dry,
}

/// One lane's live pipeline state.
struct LaneState {
    lane: Lane,
    feed: Feed,
    windower: Windower,
}

/// Everything one shard owns. Wrapped in a `Mutex` so the coordinator
/// can hand `&self` closures to the pool; one task per shard means the
/// lock is never contended.
struct ShardState {
    lanes: Vec<LaneState>,
    /// Lock-free ingest tally, flushed to the labeled backing counter
    /// once per round.
    ingest: CounterShard,
    shed_ctr: CounterShard,
}

/// A shard's output for one round.
#[derive(Default)]
struct ShardRound {
    windows: Vec<LaneWindow>,
    ingested: u64,
    considered: u64,
    shed: u64,
    /// Some lane could not produce a full window.
    drained: bool,
    live_flows: u64,
    evictions: u64,
    selected_delta: u64,
}

/// The finished run: merged per-tenant reports plus the summary.
#[derive(Debug, Clone)]
pub struct CollectorOutput {
    /// Per-(window, tenant) reports, sorted by `(window, tenant)`.
    pub reports: Vec<TenantWindowReport>,
    /// Whole-run summary.
    pub summary: CollectorSummary,
}

/// The long-running collector. Owns the routing plan and the shards;
/// [`Collector::run_round`] advances all shards one window in parallel.
pub struct Collector {
    cfg: CollectorConfig,
    plan: RoutingPlan,
    shards: Vec<Mutex<ShardState>>,
    round: u64,
    /// Every finished round's reports, in `(window, tenant)` order.
    reports: Vec<TenantWindowReport>,
    ingested: u64,
    considered: u64,
    shed: u64,
    selected: u64,
    max_live_flows: u64,
    max_shard_flows: u64,
    evictions: Vec<u64>,
    drained: bool,
    /// Optional wall-clock drain deadline (the `--duration` contract):
    /// crossed mid-round, each lane stops generating after its first
    /// chunk of the round, and partial windows flush.
    pub deadline: Option<Instant>,
}

impl Collector {
    /// Build the daemon: route the fleet, instantiate every lane's
    /// source and sampler.
    ///
    /// # Errors
    /// Config validation, routing, and sampler-construction errors.
    pub fn new(cfg: CollectorConfig) -> Result<Collector, CollectError> {
        cfg.validate()?;
        let plan = RoutingPlan::new(&cfg.fleet, cfg.shards)?;
        let effective = cfg.effective_window();
        let mut shards = Vec::with_capacity(cfg.shards as usize);
        let lanes: Vec<Lane> = cfg.fleet.lanes().collect();
        for shard in 0..cfg.shards {
            let mut lane_states = Vec::new();
            for &li in plan.lanes_of(shard).iter() {
                let lane = lanes[li as usize];
                let feed = match cfg.source {
                    LaneSource::Synth {
                        flows_per_window,
                        size_dist,
                        mean_gap_us,
                    } => Feed::Gen(Box::new(LaneGen::new(LaneConfig {
                        seed: cfg.seed,
                        lane: lane.lane,
                        window_packets: cfg.window_packets,
                        flows_per_window,
                        size_dist,
                        mean_gap_us,
                    }))),
                    LaneSource::Replay { pace_pps } => Feed::Replay(Box::new(replay_lane(
                        cfg.seed,
                        lane.lane,
                        cfg.windows,
                        cfg.window_packets,
                        pace_pps,
                    )?)),
                };
                // The sampler's seed fold is distinct from the source's
                // so selection never correlates with generation.
                let sampler_seed = cfg
                    .seed
                    .wrapping_add(0xc01_1ec7)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(u64::from(lane.lane));
                let sampler = cfg
                    .method
                    .build(Micros::ZERO, Some(effective as usize), 0, sampler_seed)
                    .map_err(|e| CollectError::Build(e.to_string()))?;
                let windower =
                    Windower::new(cfg.target, WindowSpec::Count(effective), None, sampler)
                        .with_flow_budget(cfg.lane_flow_budget);
                lane_states.push(LaneState {
                    lane,
                    feed,
                    windower,
                });
            }
            let label = shard.to_string();
            shards.push(Mutex::new(ShardState {
                lanes: lane_states,
                ingest: CounterShard::new(obskit::counter_labeled(
                    "collectd_shard_ingested_total",
                    &[("shard", &label)],
                )),
                shed_ctr: CounterShard::new(obskit::counter_labeled(
                    "collectd_shard_shed_total",
                    &[("shard", &label)],
                )),
            }));
        }
        obskit::gauge("collectd_routing_imbalance_x1000").set(plan.imbalance_x1000() as i64);
        obskit::gauge("collectd_shards").set(cfg.shards as i64);
        obskit::gauge("collectd_lanes").set(plan.lane_count() as i64);
        let evictions = vec![0u64; cfg.shards as usize];
        Ok(Collector {
            cfg,
            plan,
            shards,
            round: 0,
            reports: Vec::new(),
            ingested: 0,
            considered: 0,
            shed: 0,
            selected: 0,
            max_live_flows: 0,
            max_shard_flows: 0,
            evictions,
            drained: false,
            deadline: None,
        })
    }

    /// The materialized routing.
    #[must_use]
    pub fn plan(&self) -> &RoutingPlan {
        &self.plan
    }

    /// Advance every shard one round (= one window) on `pool`,
    /// merge-by-index, reduce the round's windows to tenant reports,
    /// publish telemetry, and return the round stats.
    ///
    /// # Errors
    /// [`CollectError::Finished`] when all configured windows are done
    /// or a drain deadline already fired; shard-task and decode errors
    /// otherwise.
    pub fn run_round(&mut self, pool: &Pool) -> Result<RoundStats, CollectError> {
        if self.round >= self.cfg.windows || self.drained {
            return Err(CollectError::Finished);
        }
        let window_packets = self.cfg.window_packets;
        let effective = self.cfg.effective_window();
        let deadline = self.deadline;
        let cells = &self.shards;
        let results: Vec<Result<ShardRound, CollectError>> = pool.run(self.shards.len(), |s| {
            let mut st = cells[s].lock().expect("shard lock");
            st.process_round(window_packets, effective, deadline)
        })?;
        let mut stats = RoundStats {
            round: self.round,
            shard_flows: vec![0; self.shards.len()],
            shard_evictions: self.evictions.clone(),
            live_flows: 0,
            ingested: self.ingested,
            considered: self.considered,
            shed: self.shed,
            selected: self.selected,
            drained: false,
        };
        // Merge strictly by shard index — parkit returns results in
        // task order, so this is deterministic at any job count.
        let mut windows = Vec::new();
        for (s, res) in results.into_iter().enumerate() {
            let mut sr = res?;
            stats.ingested += sr.ingested;
            stats.considered += sr.considered;
            stats.shed += sr.shed;
            // A lane that could not produce a full window (drain
            // deadline or an exhausted replay) ends the run.
            stats.drained |= sr.drained;
            stats.selected += sr.selected_delta;
            stats.shard_flows[s] = sr.live_flows;
            self.evictions[s] += sr.evictions;
            stats.shard_evictions[s] = self.evictions[s];
            stats.live_flows += sr.live_flows;
            windows.append(&mut sr.windows);
        }
        // A deadline that passed during the round ends the run, also
        // when each lane's first chunk already completed its window.
        stats.drained |= deadline.is_some_and(|dl| Instant::now() >= dl);
        // The reduction's order is the fleet's canonical lane order —
        // never shard or completion order.
        windows.sort_unstable_by_key(|w| w.lane.lane);
        self.reports.extend(build_reports(&self.cfg, windows));
        self.ingested = stats.ingested;
        self.considered = stats.considered;
        self.shed = stats.shed;
        self.selected = stats.selected;
        self.max_live_flows = self.max_live_flows.max(stats.live_flows);
        self.max_shard_flows = self
            .max_shard_flows
            .max(stats.shard_flows.iter().copied().max().unwrap_or(0));
        self.drained = stats.drained;
        self.round += 1;
        publish_round(&stats);
        Ok(stats)
    }

    /// The reports every round reduced, plus the run summary. Every
    /// lane window closed in its round, so no shard state is read.
    ///
    /// # Errors
    /// None: every window closed in its round. The `Result` keeps the
    /// signature callers use.
    pub fn finish(self) -> Result<CollectorOutput, CollectError> {
        let summary = CollectorSummary {
            shards: self.cfg.shards,
            tenants: self.cfg.fleet.tenants().len() as u32,
            interfaces: self.cfg.fleet.interfaces(),
            lanes: self.plan.lane_count(),
            method: self.cfg.method.name(),
            seed: self.cfg.seed,
            windows_configured: self.cfg.windows,
            windows_completed: self.reports.last().map_or(0, |r| r.window + 1),
            window_packets: self.cfg.window_packets,
            ingested: self.ingested,
            considered: self.considered,
            shed: self.shed,
            selected: self.selected,
            flows_reported: self.reports.iter().map(|r| r.flows).sum(),
            evicted_flows: self.evictions.iter().sum(),
            max_live_flows: self.max_live_flows,
            max_shard_flows: self.max_shard_flows,
            routing_imbalance_x1000: self.plan.imbalance_x1000(),
            drained: self.drained,
        };
        Ok(CollectorOutput {
            reports: self.reports,
            summary,
        })
    }
}

impl ShardState {
    /// One round over this shard's lanes, ascending lane order.
    fn process_round(
        &mut self,
        window_packets: u64,
        effective: u64,
        deadline: Option<Instant>,
    ) -> Result<ShardRound, CollectError> {
        let mut out = ShardRound {
            windows: Vec::with_capacity(self.lanes.len()),
            ..ShardRound::default()
        };
        let mut chunk: Vec<PacketRecord> = Vec::with_capacity(CHUNK);
        for lane in &mut self.lanes {
            let selected_before = lane.windower.selected();
            let mut produced = 0u64;
            let mut offered = 0u64;
            let mut closed = Vec::new();
            'gen: while produced < window_packets {
                // Every lane takes at least its first chunk, so a drained
                // round still reports each of them.
                if let Some(dl) = deadline {
                    if produced > 0 && Instant::now() >= dl {
                        break 'gen;
                    }
                }
                let want = CHUNK.min((window_packets - produced) as usize);
                chunk.clear();
                let got = match &mut lane.feed {
                    Feed::Gen(g) => g.next_chunk(want, &mut chunk),
                    Feed::Replay(r) => {
                        let n = r.next_chunk(want, &mut chunk)?;
                        if n == 0 {
                            lane.feed = Feed::Dry;
                            break 'gen;
                        }
                        n
                    }
                    Feed::Dry => break 'gen,
                };
                produced += got as u64;
                // The lane queue admits a per-window prefix; the rest
                // of the arrivals shed before ever reaching the sampler.
                let room = (effective - offered).min(got as u64) as usize;
                if room > 0 {
                    for payload in lane.windower.offer_slice(&chunk[..room]) {
                        out.live_flows += payload.flows;
                        closed.push(payload);
                    }
                    offered += room as u64;
                }
            }
            if produced < window_packets {
                // Drained mid-window: the open table's flows are live at
                // the round's close, and its partial window closes with
                // the round.
                out.live_flows += lane.windower.live_flows();
                closed.extend(lane.windower.finish());
                out.drained = true;
            }
            let shed = produced - offered;
            self.ingest.add(produced);
            self.shed_ctr.add(shed);
            out.ingested += produced;
            out.considered += offered;
            out.shed += shed;
            // After the flush: a reservoir selects as its window closes.
            out.selected_delta += lane.windower.selected() - selected_before;
            for payload in closed {
                out.evictions += payload.evicted_flows;
                out.windows.push(LaneWindow {
                    lane: lane.lane,
                    shed,
                    payload,
                });
            }
        }
        self.ingest.flush();
        self.shed_ctr.flush();
        Ok(out)
    }
}

/// Publish a round's statistics on the obskit registry — the
/// `collectd_*` surface the `--serve` plane exposes and the alert rules
/// watch.
fn publish_round(stats: &RoundStats) {
    for (s, (&flows, &ev)) in stats
        .shard_flows
        .iter()
        .zip(stats.shard_evictions.iter())
        .enumerate()
    {
        let label = s.to_string();
        let lbl: &[(&str, &str)] = &[("shard", &label)];
        obskit::gauge_labeled("collectd_shard_flows", lbl).set(flows as i64);
        obskit::gauge_labeled("collectd_shard_evictions", lbl).set(ev as i64);
    }
    obskit::gauge("collectd_live_flows").set(stats.live_flows as i64);
    obskit::gauge("collectd_rounds_done").set((stats.round + 1) as i64);
    obskit::gauge("collectd_shed_total").set(stats.shed as i64);
    obskit::counter("collectd_rounds_total").inc();
}

/// Reduce one round's lane windows, in lane order, to per-tenant
/// reports. A round closes at most one window per lane, all with the
/// round's index, so a tenant's windows are adjacent.
fn build_reports(cfg: &CollectorConfig, windows: Vec<LaneWindow>) -> Vec<TenantWindowReport> {
    let k = cfg.inversion_interval();
    let mut reports = Vec::new();
    let mut windows = windows.into_iter().peekable();
    while let Some(first) = windows.next() {
        let tenant = first.lane.tenant;
        let (mut merged, mut shed, mut lanes) = (first.payload, first.shed, 1);
        while let Some(w) = windows.next_if(|w| w.lane.tenant == tenant) {
            let p = w.payload;
            merged.population.merge(&p.population);
            merged.sample.merge(&p.sample);
            merged.packets += p.packets;
            merged.selected += p.selected;
            merged.flows += p.flows;
            merged.syn_flows += p.syn_flows;
            merged.evicted_flows += p.evicted_flows;
            merged.sampled_sizes.extend_from_slice(&p.sampled_sizes);
            merged.sampled_syn_flows += p.sampled_syn_flows;
            shed += w.shed;
            lanes += 1;
        }
        let sizes = &merged.sampled_sizes;
        let phi = sampling::disparity(&merged.population, &merged.sample).map(|d| d.phi);
        let (est_naive, est_tail, est_syn) = match k {
            Some(k) => (
                naive_scaling(sizes, k).ok().map(|e| e.total_flows),
                tail_rescale(sizes, k).ok().map(|e| e.total_flows),
                syn_flow_count(merged.sampled_syn_flows, k).ok(),
            ),
            None => (None, None, None),
        };
        reports.push(TenantWindowReport {
            window: merged.index,
            tenant: cfg.fleet.tenant_name(tenant).to_string(),
            lanes,
            packets: merged.packets,
            selected: merged.selected,
            shed,
            flows: merged.flows,
            syn_flows: merged.syn_flows,
            evicted_flows: merged.evicted_flows,
            phi,
            sampled_flows: sizes.len() as u64,
            sampled_syn_flows: merged.sampled_syn_flows,
            est_flows_naive: est_naive,
            est_flows_tail: est_tail,
            est_syn_flows: est_syn,
        });
    }
    reports
}

/// Run a full collector lifecycle: construct, round loop, finish.
/// `observer` sees every round's stats (the CLI hooks rule evaluation
/// and progress lines here).
///
/// # Errors
/// Any [`CollectError`] from construction, rounds, or the merge.
pub fn run_collector(
    cfg: CollectorConfig,
    pool: &Pool,
    deadline: Option<Instant>,
    mut observer: impl FnMut(&RoundStats),
) -> Result<CollectorOutput, CollectError> {
    let mut collector = Collector::new(cfg)?;
    collector.deadline = deadline;
    loop {
        match collector.run_round(pool) {
            Ok(stats) => {
                let done = stats.drained;
                observer(&stats);
                if done {
                    break;
                }
            }
            Err(CollectError::Finished) => break,
            Err(e) => return Err(e),
        }
    }
    collector.finish()
}
