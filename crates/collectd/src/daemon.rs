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
//! results **by shard index** (parkit's contract) and then sorts lane
//! windows by `(window, lane)`, the merged output is bit-identical at
//! any shard count — S=4 reproduces S=1 exactly.
//!
//! ## Round = window
//!
//! The daemon advances in rounds. Each round, every live lane generates
//! `window_packets` packets (its "arrivals"), offers the first
//! `min(window_packets, lane_queue)` of them to its sampler+windower —
//! the rest are **shed**, modeling a bounded ingest queue — and the
//! count-window closes exactly at the offer bound, emitting one
//! [`WindowPayload`] per lane per round. Conservation holds by
//! construction and is asserted in the drain test:
//! `ingested == considered + shed`.
//!
//! ## Bounded memory
//!
//! Each lane's windower carries a flow budget
//! ([`CollectorConfig::lane_flow_budget`]); a shard hosting L lanes
//! therefore holds at most `L × budget` flows regardless of traffic —
//! the cap the `collectd_shard_rss_kb` gauge and its RSS-budget alert
//! rule watch. Eviction is the flow table's deterministic
//! least-recently-updated-first policy, so the cap never costs
//! determinism.

use crate::error::CollectError;
use crate::report::{CollectorSummary, TenantWindowReport};
use crate::route::RoutingPlan;
use netstat_sim::{Fleet, Lane};
use netsynth::{replay_lane, FlowSizeDist, LaneConfig, LaneGen, ReplayLane};
use nettrace::time::Micros;
use nettrace::PacketRecord;
use obskit::CounterShard;
use parkit::Pool;
use sampling::{MethodSpec, Target};
use statkit::inversion::{naive_scaling, syn_flow_count, tail_rescale};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;
use streamkit::{StreamMethod, WindowPayload, WindowSpec, Windower};

/// Packets pulled from a lane source per inner step — small enough to
/// keep per-lane buffers cache-resident, large enough to amortize the
/// windower's dispatch.
const CHUNK: usize = 8_192;

/// Estimated resident bytes per live flow (hash entry holding key and
/// stats, plus the map's spare capacity) — the accounting behind
/// `collectd_shard_rss_kb`. Real RSS is
/// process-global; this model attributes the dominant per-shard state
/// (flow tables) so the per-shard budget rule has a shard-local signal.
const FLOW_STATE_BYTES: u64 = 96;

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

/// One lane's closed window, tagged for the merge.
#[derive(Debug, Clone)]
pub struct LaneWindow {
    /// The lane that produced it.
    pub lane: Lane,
    /// The windower's payload.
    pub payload: WindowPayload,
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
    /// Modeled resident KiB per shard (flow state accounting).
    pub shard_rss_kb: Vec<u64>,
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
    /// True when a drain deadline interrupted this round.
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
    /// Cumulative evicted flows reported by closed windows.
    evicted: u64,
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
struct ShardRound {
    windows: Vec<LaneWindow>,
    /// Per-lane `(lane, ingested, considered, shed)` for this round.
    lane_rounds: Vec<(u32, u64, u64, u64)>,
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
    windows: Vec<LaneWindow>,
    /// (round, lane) → (ingested, considered, shed).
    lane_rounds: BTreeMap<(u64, u32), (u64, u64, u64)>,
    ingested: u64,
    considered: u64,
    shed: u64,
    selected: u64,
    max_live_flows: u64,
    max_shard_flows: u64,
    evictions: Vec<u64>,
    drained: bool,
    /// Optional wall-clock drain deadline (the `--duration` contract):
    /// crossed mid-round, lanes stop generating, partial windows flush.
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
                    evicted: 0,
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
        obskit::global().describe(
            "collectd_shard_rss_kb",
            &format!(
                "Modelled shard flow state, not a measured RSS: \
                 live_flows * {FLOW_STATE_BYTES} / 1024 + 1 kB ({FLOW_STATE_BYTES} B per live flow)."
            ),
        );
        let evictions = vec![0u64; cfg.shards as usize];
        Ok(Collector {
            cfg,
            plan,
            shards,
            round: 0,
            windows: Vec::new(),
            lane_rounds: BTreeMap::new(),
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

    /// Rounds completed so far.
    #[must_use]
    pub fn rounds_done(&self) -> u64 {
        self.round
    }

    /// Change the shard count. Legal only before the first round: state
    /// already sharded one way cannot be re-keyed without replay.
    ///
    /// # Errors
    /// [`CollectError::ShardMismatch`] once ingest has started,
    /// [`CollectError::NoShards`] for zero.
    pub fn reshard(&mut self, shards: u32) -> Result<(), CollectError> {
        if shards == 0 {
            return Err(CollectError::NoShards);
        }
        if self.round > 0 || self.drained {
            return Err(CollectError::ShardMismatch {
                expected: self.cfg.shards,
                got: shards,
            });
        }
        let mut cfg = self.cfg.clone();
        cfg.shards = shards;
        *self = Collector::new(cfg)?;
        Ok(())
    }

    /// Advance every shard one round (= one window) on `pool`,
    /// merge-by-index, publish telemetry, and return the round stats.
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
        // Merge strictly by shard index — parkit returns results in
        // task order, so this is deterministic at any job count.
        let mut stats = RoundStats {
            round: self.round,
            shard_flows: vec![0; self.shards.len()],
            shard_rss_kb: vec![0; self.shards.len()],
            shard_evictions: self.evictions.clone(),
            live_flows: 0,
            ingested: self.ingested,
            considered: self.considered,
            shed: self.shed,
            selected: self.selected,
            drained: false,
        };
        for (s, res) in results.into_iter().enumerate() {
            let mut sr = res?;
            for &(lane, ing, cons, shed) in &sr.lane_rounds {
                stats.ingested += ing;
                stats.considered += cons;
                stats.shed += shed;
                self.lane_rounds
                    .insert((self.round, lane), (ing, cons, shed));
                if ing < window_packets {
                    // A lane that could not produce a full window (drain
                    // deadline or an exhausted replay) ends the run.
                    stats.drained = true;
                }
            }
            stats.selected += sr.selected_delta;
            stats.shard_flows[s] = sr.live_flows;
            stats.shard_rss_kb[s] = sr.live_flows * FLOW_STATE_BYTES / 1024 + 1;
            self.evictions[s] += sr.evictions;
            stats.shard_evictions[s] = self.evictions[s];
            stats.live_flows += sr.live_flows;
            self.windows.append(&mut sr.windows);
        }
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

    /// Flush every lane's partial window, merge all lane windows in
    /// `(window, lane)` order, and aggregate the per-tenant reports.
    ///
    /// # Errors
    /// Propagates a poisoned shard lock as [`CollectError::Pool`].
    pub fn finish(mut self) -> Result<CollectorOutput, CollectError> {
        for (s, cell) in self.shards.iter().enumerate() {
            let mut st = cell
                .lock()
                .map_err(|_| CollectError::Pool(format!("shard {s} lock poisoned")))?;
            for lane in &mut st.lanes {
                for payload in lane.windower.finish() {
                    lane.evicted += payload.evicted_flows;
                    self.windows.push(LaneWindow {
                        lane: lane.lane,
                        payload,
                    });
                }
            }
            st.ingest.flush();
            st.shed_ctr.flush();
        }
        // The merge key: window first, then the fleet's canonical lane
        // order — never shard or completion order.
        self.windows.sort_by_key(|w| (w.payload.index, w.lane.lane));
        let reports = build_reports(&self.cfg, &self.windows, &self.lane_rounds);
        let flows_reported: u64 = reports.iter().map(|r| r.flows).sum();
        let windows_completed = self
            .windows
            .iter()
            .map(|w| w.payload.index + 1)
            .max()
            .unwrap_or(0);
        let summary = CollectorSummary {
            shards: self.cfg.shards,
            tenants: self.cfg.fleet.tenants().len() as u32,
            interfaces: self.cfg.fleet.interfaces(),
            lanes: self.plan.lane_count(),
            method: self.cfg.method.name(),
            seed: self.cfg.seed,
            windows_configured: self.cfg.windows,
            windows_completed,
            window_packets: self.cfg.window_packets,
            ingested: self.ingested,
            considered: self.considered,
            shed: self.shed,
            selected: self.selected,
            flows_reported,
            evicted_flows: self.evictions.iter().sum(),
            max_live_flows: self.max_live_flows,
            max_shard_flows: self.max_shard_flows,
            routing_imbalance_x1000: self.plan.imbalance_x1000(),
            drained: self.drained,
        };
        Ok(CollectorOutput { reports, summary })
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
            windows: Vec::new(),
            lane_rounds: Vec::with_capacity(self.lanes.len()),
            live_flows: 0,
            evictions: 0,
            selected_delta: 0,
        };
        let mut chunk: Vec<PacketRecord> = Vec::with_capacity(CHUNK);
        for lane in &mut self.lanes {
            let selected_before = lane.windower.selected();
            let mut produced = 0u64;
            let mut offered = 0u64;
            let mut payload_count = 0usize;
            'gen: while produced < window_packets {
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
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
                        lane.evicted += payload.evicted_flows;
                        out.evictions += payload.evicted_flows;
                        out.live_flows += payload.flows;
                        payload_count += 1;
                        out.windows.push(LaneWindow {
                            lane: lane.lane,
                            payload,
                        });
                    }
                    offered += room as u64;
                }
            }
            let shed = produced - offered;
            self.ingest.add(produced);
            self.shed_ctr.add(shed);
            out.lane_rounds
                .push((lane.lane.lane, produced, offered, shed));
            out.selected_delta += lane.windower.selected() - selected_before;
            if payload_count == 0 {
                // Drained mid-window: the open table still holds flows.
                out.live_flows += lane.windower.live_flows();
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
    for (s, (&flows, (&rss, &ev))) in stats
        .shard_flows
        .iter()
        .zip(stats.shard_rss_kb.iter().zip(stats.shard_evictions.iter()))
        .enumerate()
    {
        let label = s.to_string();
        let lbl: &[(&str, &str)] = &[("shard", &label)];
        obskit::gauge_labeled("collectd_shard_flows", lbl).set(flows as i64);
        obskit::gauge_labeled("collectd_shard_rss_kb", lbl).set(rss as i64);
        obskit::gauge_labeled("collectd_shard_evictions", lbl).set(ev as i64);
    }
    obskit::gauge("collectd_live_flows").set(stats.live_flows as i64);
    obskit::gauge("collectd_rounds_done").set((stats.round + 1) as i64);
    obskit::gauge("collectd_shed_total").set(stats.shed as i64);
    obskit::counter("collectd_rounds_total").inc();
}

/// Aggregate sorted lane windows into per-(window, tenant) reports.
fn build_reports(
    cfg: &CollectorConfig,
    windows: &[LaneWindow],
    lane_rounds: &BTreeMap<(u64, u32), (u64, u64, u64)>,
) -> Vec<TenantWindowReport> {
    let k = cfg.inversion_interval();
    let mut reports = Vec::new();
    let mut i = 0;
    while i < windows.len() {
        let win = windows[i].payload.index;
        let tenant = windows[i].lane.tenant;
        let mut j = i;
        while j < windows.len()
            && windows[j].payload.index == win
            && windows[j].lane.tenant == tenant
        {
            j += 1;
        }
        let group = &windows[i..j];
        i = j;

        let first = &group[0].payload;
        let mut population = first.population.clone();
        let mut sample = first.sample.clone();
        let mut packets = first.packets;
        let mut selected = first.selected;
        let mut flows = first.flows;
        let mut syn_flows = first.syn_flows;
        let mut evicted = first.evicted_flows;
        let mut sampled_sizes = first.sampled_sizes.clone();
        let mut sampled_syn = first.sampled_syn_flows;
        for w in &group[1..] {
            population.merge(&w.payload.population);
            sample.merge(&w.payload.sample);
            packets += w.payload.packets;
            selected += w.payload.selected;
            flows += w.payload.flows;
            syn_flows += w.payload.syn_flows;
            evicted += w.payload.evicted_flows;
            sampled_sizes.extend_from_slice(&w.payload.sampled_sizes);
            sampled_syn += w.payload.sampled_syn_flows;
        }
        let phi = sampling::disparity(&population, &sample).map(|d| d.phi);
        let (est_naive, est_tail, est_syn) = match k {
            Some(k) => (
                naive_scaling(&sampled_sizes, k).ok().map(|e| e.total_flows),
                tail_rescale(&sampled_sizes, k).ok().map(|e| e.total_flows),
                syn_flow_count(sampled_syn, k).ok(),
            ),
            None => (None, None, None),
        };
        let shed: u64 = group
            .iter()
            .map(|w| {
                lane_rounds
                    .get(&(win, w.lane.lane))
                    .map_or(0, |&(_, _, s)| s)
            })
            .sum();
        reports.push(TenantWindowReport {
            window: win,
            tenant: cfg.fleet.tenant_name(tenant).to_string(),
            lanes: group.len() as u32,
            packets,
            selected,
            shed,
            flows,
            syn_flows,
            evicted_flows: evicted,
            phi,
            sampled_flows: sampled_sizes.len() as u64,
            sampled_syn_flows: sampled_syn,
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
