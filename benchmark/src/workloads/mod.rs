//! The four workloads. Each is built in two steps, both counted in
//! `setup_s`: [`Inputs::build`] synthesizes and encodes the inputs from
//! the seed, and [`Inputs::sut`] constructs the system under test over
//! them. A [`Workload`] then runs timed passes, each of which checks its
//! own outputs.

pub mod collect;
pub mod grid;
pub mod ingest;
pub mod stream;

use crate::span::Recorder;
use std::time::Duration;

/// The workloads, in the order a cycle runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    StreamSdsc,
    IngestPcapng,
    CollectZipf,
    GridPaper,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::StreamSdsc,
        Kind::IngestPcapng,
        Kind::CollectZipf,
        Kind::GridPaper,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::StreamSdsc => "stream-sdsc",
            Kind::IngestPcapng => "ingest-pcapng",
            Kind::CollectZipf => "collect-zipf",
            Kind::GridPaper => "grid-paper",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Threads a pass keeps busy: the stream pipeline's source and
    /// transform stages run side by side; the rest run on the caller.
    pub fn threads(self) -> usize {
        match self {
            Kind::StreamSdsc => 2,
            Kind::IngestPcapng | Kind::CollectZipf | Kind::GridPaper => 1,
        }
    }

    /// Passes per cycle. Interleaving short passes with long ones keeps
    /// each workload's share of a cycle near a quarter, so a slow spell
    /// of the machine lands on every workload rather than on one.
    pub fn passes_per_cycle(self) -> usize {
        match self {
            Kind::StreamSdsc | Kind::IngestPcapng => 4,
            Kind::CollectZipf | Kind::GridPaper => 1,
        }
    }
}

/// Input scale. [`Size::FULL`] is the benchmark; [`Size::QUICK`] runs
/// the same code paths small enough for self-tests and smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Seconds of the SDSC profile (3600 = `netsynth::sdsc_hour`).
    pub stream_secs: u32,
    /// pcapng sections, and corpus entries per section.
    pub ingest_sections: u64,
    pub ingest_entries: usize,
    /// Collector rounds per pass, packets and fresh flows per lane per
    /// window, and the lane flow budget.
    pub collect_rounds: u64,
    pub collect_window: u64,
    pub collect_flows: u32,
    pub collect_budget: usize,
    /// Trace prefix, replications, and flow-pack flows of the grid.
    pub grid_packets: usize,
    pub grid_reps: u32,
    pub grid_flows: u32,
}

impl Size {
    pub const FULL: Size = Size {
        stream_secs: 3600,
        ingest_sections: 8,
        ingest_entries: 100_000,
        collect_rounds: 150,
        collect_window: 20_000,
        collect_flows: 1_000,
        collect_budget: 800,
        grid_packets: 500_000,
        grid_reps: 20,
        grid_flows: 2_000,
    };

    pub const QUICK: Size = Size {
        stream_secs: 60,
        ingest_sections: 3,
        ingest_entries: 2_000,
        collect_rounds: 6,
        collect_window: 2_000,
        collect_flows: 100,
        collect_budget: 80,
        grid_packets: 20_000,
        grid_reps: 3,
        grid_flows: 200,
    };
}

/// The owned inputs of one workload.
pub enum Inputs {
    Stream(stream::Inputs),
    Ingest(ingest::Inputs),
    Collect(collect::Inputs),
    Grid(grid::Inputs),
}

impl Inputs {
    pub fn build(kind: Kind, seed: u64, size: Size) -> Inputs {
        match kind {
            Kind::StreamSdsc => Inputs::Stream(stream::Inputs::build(seed, size)),
            Kind::IngestPcapng => Inputs::Ingest(ingest::Inputs::build(seed, size)),
            Kind::CollectZipf => Inputs::Collect(collect::Inputs::build(seed, size)),
            Kind::GridPaper => Inputs::Grid(grid::Inputs::build(seed, size)),
        }
    }

    /// Construct the system under test over these inputs.
    pub fn sut(&self) -> Box<dyn Workload + '_> {
        match self {
            Inputs::Stream(i) => Box::new(stream::Stream::new(i)),
            Inputs::Ingest(i) => Box::new(ingest::Ingest::new(i)),
            Inputs::Collect(i) => Box::new(collect::Collect::new(i)),
            Inputs::Grid(i) => Box::new(grid::Grid::new(i)),
        }
    }
}

/// What one pass produced.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Input packets the pass processed: the `pkts_per_s` numerator.
    pub packets: u64,
    /// Wall time of the calls into the system under test. Digests and
    /// checks run outside it.
    pub wall: Duration,
    /// Latency of each step a user waits on: one `run_round` for the
    /// collector, the whole pass for the batch-style workloads.
    pub steps: Vec<Duration>,
    /// Order-sensitive digest of the pass's outputs.
    pub digest: u64,
    /// The first invariant the outputs broke, if any.
    pub check: Result<(), String>,
}

pub trait Workload {
    /// One pass over the workload's inputs, with a span around every
    /// call into the system under test.
    fn pass(&mut self, rec: &mut Recorder) -> Pass;

    /// A check made once, during the untimed warm-up.
    fn warm_check(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Fold `u64`s into an FNV-1a digest.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut d = faultkit::Digest::new();
    for w in words {
        d.update_u64(w);
    }
    d.finish()
}
