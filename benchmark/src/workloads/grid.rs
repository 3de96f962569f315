//! `grid-paper`: the reproduction itself. The paper's five methods ×
//! {packet-size, interarrival} × k ∈ {10, 50, 100} over a prefix of the
//! SDSC hour, plus the flow-inversion estimators {naive, tail, em} ×
//! k ∈ {10, 100} on a flow pack.

use super::{digest, Pass, Size, Workload};
use crate::span::Recorder;
use netsynth::FlowPackConfig;
use nettrace::{PacketRecord, Trace};
use parkit::Pool;
use sampling::experiment::MethodFamily;
use sampling::{Experiment, FlowEstimator, FlowExperiment, Target};

pub const TARGETS: [Target; 2] = [Target::PacketSize, Target::Interarrival];
pub const KS: [usize; 3] = [10, 50, 100];
pub const FLOW_KS: [u64; 2] = [10, 100];

pub struct Inputs {
    pub seed: u64,
    pub reps: u32,
    pub packets: Vec<PacketRecord>,
    pub pack_cfg: FlowPackConfig,
    pub pack: Trace,
}

impl Inputs {
    pub fn build(seed: u64, size: Size) -> Inputs {
        let trace = netsynth::generate(&netsynth::TraceProfile::short(size.stream_secs), seed);
        let mut packets = trace.packets().to_vec();
        packets.truncate(size.grid_packets);
        let pack_cfg = FlowPackConfig {
            flows: size.grid_flows,
            ..FlowPackConfig::default()
        };
        Inputs {
            seed,
            reps: size.grid_reps,
            packets,
            pack: netsynth::generate_flow_pack(&pack_cfg, seed),
            pack_cfg,
        }
    }
}

pub struct Grid<'a> {
    pub inputs: &'a Inputs,
    /// One experiment per target, in [`TARGETS`] order.
    pub experiments: Vec<Experiment<'a>>,
    flows: FlowExperiment<'a>,
    pool: Pool,
}

/// Every φ of one pass, cell by cell.
pub struct Phis {
    pub cells: Vec<f64>,
    pub flows: Vec<f64>,
}

/// A method cell: which experiment, which family, which k.
pub type Cell = (usize, MethodFamily, usize);

/// The grid's cells in the order a pass runs them.
pub fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for t in 0..TARGETS.len() {
        for family in MethodFamily::paper_five() {
            for k in KS {
                out.push((t, family, k));
            }
        }
    }
    out
}

/// The flow cells in the order a pass runs them.
pub fn flow_cells() -> Vec<(FlowEstimator, u64)> {
    FlowEstimator::all()
        .into_iter()
        .flat_map(|e| FLOW_KS.map(|k| (e, k)))
        .collect()
}

impl<'a> Grid<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        Grid {
            inputs,
            experiments: TARGETS
                .iter()
                .map(|&t| Experiment::new(&inputs.packets, t))
                .collect(),
            flows: FlowExperiment::new(inputs.pack.packets()),
            pool: Pool::new(1),
        }
    }

    /// φ of every replication of one method cell.
    pub fn cell(&self, (t, family, k): Cell, rec: &mut Recorder) -> Vec<f64> {
        let exp = &self.experiments[t];
        let spec = family.at_granularity(k, exp.mean_pps());
        let label = format!("{}/{}/k{k}", family.name(), TARGETS[t]);
        rec.labeled("sampling.cell", label, |_| {
            exp.run_with(&self.pool, spec, self.inputs.reps, self.inputs.seed)
        })
        .0
        .phi_values()
    }

    /// φ of every replication of one flow cell.
    pub fn flow_cell(&self, (estimator, k): (FlowEstimator, u64), rec: &mut Recorder) -> Vec<f64> {
        let label = format!("{}/k{k}", estimator.name());
        rec.labeled("sampling.flows_cell", label, |_| {
            self.flows
                .run_with(&self.pool, estimator, k, self.inputs.reps)
        })
        .0
        .phi_values()
    }

    pub fn run(&self, rec: &mut Recorder) -> (Phis, std::time::Duration) {
        rec.span("sampling.grid", |rec| Phis {
            cells: cells()
                .into_iter()
                .flat_map(|c| self.cell(c, rec))
                .collect(),
            flows: flow_cells()
                .into_iter()
                .flat_map(|c| self.flow_cell(c, rec))
                .collect(),
        })
    }

    /// Input packets of one pass.
    pub fn packets(&self) -> u64 {
        (self.inputs.packets.len() + self.inputs.pack.len()) as u64
    }
}

impl Workload for Grid<'_> {
    fn pass(&mut self, rec: &mut Recorder) -> Pass {
        let (phis, wall) = self.run(rec);
        Pass {
            packets: self.packets(),
            wall,
            steps: vec![wall],
            digest: phis_digest(&phis),
            check: check(&phis),
        }
    }
}

pub fn phis_digest(phis: &Phis) -> u64 {
    digest(phis.cells.iter().chain(&phis.flows).map(|p| p.to_bits()))
}

/// Every φ finite.
pub fn check(phis: &Phis) -> Result<(), String> {
    match phis
        .cells
        .iter()
        .chain(&phis.flows)
        .find(|p| !p.is_finite())
    {
        Some(p) => Err(format!("non-finite phi {p}")),
        None => Ok(()),
    }
}
