//! The measured run: set up each workload five times, warm up once to
//! record reference digests, then run timed cycles and reduce them to
//! the end-to-end metrics. Every timed section is bracketed by the
//! machine-speed probe, and its times are scaled to the machine at rest
//! (see [`crate::probe`]).

use crate::alloc;
use crate::probe::bracket;
use crate::span::Recorder;
use crate::workloads::{Inputs, Kind, Pass, Size, Workload};
use statkit::quantile::{median, quantiles};
use std::time::{Duration, Instant};

/// Set-ups per workload; `setup_s` is their median. Five rather than
/// three, because the collector's set-up is under a millisecond and a
/// median of three of those moved by a quarter between runs.
pub const SETUPS: usize = 5;

/// How long the timed part lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// A fixed number of cycles.
    Cycles(usize),
    /// Whole cycles until this much time has passed.
    Seconds(f64),
}

impl Schedule {
    /// Whether the schedule ends after `cycles` cycles begun at `started`.
    pub fn done(self, cycles: usize, started: Instant) -> bool {
        match self {
            Schedule::Cycles(n) => cycles >= n,
            Schedule::Seconds(s) => started.elapsed().as_secs_f64() >= s,
        }
    }
}

/// One timed pass.
#[derive(Debug, Clone, Copy)]
pub struct PassStats {
    pub packets: u64,
    /// Wall time of the calls into the system under test.
    pub wall: Duration,
    /// The probe's scale factor to the machine at rest.
    pub factor: f64,
    /// Heap peak above the pass's starting level.
    pub peak_bytes: u64,
}

/// Everything measured for one workload.
#[derive(Debug, Clone)]
pub struct Record {
    pub kind: Kind,
    /// Seconds per set-up, scaled to the machine at rest.
    pub setup: Vec<f64>,
    pub passes: Vec<PassStats>,
    /// Every step latency of every timed pass, in milliseconds scaled to
    /// the machine at rest.
    pub steps_ms: Vec<f64>,
    /// Passes run, the warm-up included, and passes that failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The warm-up pass's output digest, which every timed pass matched
    /// or failed.
    pub digest: u64,
}

impl Record {
    pub fn new(kind: Kind) -> Self {
        Record {
            kind,
            setup: Vec::new(),
            passes: Vec::new(),
            steps_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digest: 0,
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Count one pass against the warm-up digest.
    pub fn tally(&mut self, pass: &Pass, reference: u64) {
        self.attempted += 1;
        if let Err(why) = &pass.check {
            self.fail(why.clone());
        } else if pass.digest != reference {
            self.fail(format!(
                "output digest {:016x} != warm-up {reference:016x}",
                pass.digest
            ));
        }
    }
}

/// A metric's samples reduced to one reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Quartiles of the samples the value summarizes.
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

fn summarize(name: &'static str, unit: &'static str, samples: &[f64], value: f64) -> Metric {
    let q = quantiles(samples, &[0.25, 0.75]);
    Metric {
        name,
        unit,
        value,
        q1: q[0],
        q3: q[1],
        samples: samples.len(),
    }
}

/// The end-to-end metrics, with their units, in report order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("pkts_per_s", "pkt/s"),
    ("step_ms_p50", "ms"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
];

/// The end-to-end metrics of one workload.
pub fn end_to_end(r: &Record) -> Vec<Metric> {
    let rates: Vec<f64> = r
        .passes
        .iter()
        .map(|p| p.packets as f64 / (p.wall.as_secs_f64() * p.factor))
        .collect();
    let heap: Vec<f64> = r.passes.iter().map(|p| p.peak_bytes as f64 / 1e6).collect();
    let values = [
        (rates.as_slice(), median(&rates)),
        (r.steps_ms.as_slice(), median(&r.steps_ms)),
        (heap.as_slice(), heap.iter().copied().fold(0.0, f64::max)),
        (r.setup.as_slice(), median(&r.setup)),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (samples, value))| summarize(name, unit, samples, value))
        .collect()
}

/// The step latency at the highest percentile with ten steps beyond
/// it: `(percentile, ms)`. Reported beside the metrics, not gated: on
/// the reference VM its run-to-run spread exceeds any bound a gate
/// could use (see the README).
pub fn tail(r: &Record) -> Option<(f64, f64)> {
    let n = r.steps_ms.len();
    (n > 10).then(|| {
        let level = 1.0 - 10.0 / n as f64;
        (level * 100.0, quantiles(&r.steps_ms, &[level])[0])
    })
}

/// Raw figures kept beside the scaled metrics: the median pass rate as
/// measured, and the median machine speed the probe saw (1 = at rest).
pub fn unscaled(r: &Record) -> (f64, f64) {
    let rates: Vec<f64> = r
        .passes
        .iter()
        .map(|p| p.packets as f64 / p.wall.as_secs_f64())
        .collect();
    let speed: Vec<f64> = r.passes.iter().map(|p| p.factor).collect();
    (median(&rates), median(&speed))
}

/// Run `kinds` on `seed`: set up, warm up, then the timed schedule.
pub fn run(kinds: &[Kind], seed: u64, size: Size, schedule: Schedule) -> Vec<Record> {
    let mut records: Vec<Record> = kinds.iter().map(|&k| Record::new(k)).collect();

    // Set-up: SETUPS - 1 throwaway builds, then the kept one. The kept
    // systems borrow their inputs, so all inputs are built first.
    let mut inputs = Vec::with_capacity(kinds.len());
    let mut build_time = Vec::with_capacity(kinds.len());
    for (r, &kind) in records.iter_mut().zip(kinds) {
        for _ in 1..SETUPS {
            let (i, wall, factor) = bracket(1, || Inputs::build(kind, seed, size));
            let (sut, sut_wall, sut_factor) = bracket(1, || i.sut());
            r.setup.push(wall * factor + sut_wall * sut_factor);
            drop(sut);
        }
        let (i, wall, factor) = bracket(1, || Inputs::build(kind, seed, size));
        inputs.push(i);
        build_time.push(wall * factor);
    }
    let mut suts: Vec<Box<dyn Workload + '_>> = Vec::with_capacity(kinds.len());
    for ((r, i), built) in records.iter_mut().zip(&inputs).zip(build_time) {
        let (sut, wall, factor) = bracket(1, || i.sut());
        suts.push(sut);
        r.setup.push(built + wall * factor);
    }

    // Warm-up: one untimed pass records each reference digest.
    let mut rec = Recorder::off();
    for (r, sut) in records.iter_mut().zip(suts.iter_mut()) {
        let mut pass = sut.pass(&mut rec);
        if pass.check.is_ok() {
            pass.check = sut.warm_check();
        }
        r.tally(&pass, pass.digest);
        r.digest = pass.digest;
    }

    let started = Instant::now();
    let mut cycles = 0usize;
    loop {
        for (r, sut) in records.iter_mut().zip(suts.iter_mut()) {
            for _ in 0..r.kind.passes_per_cycle() {
                let ((pass, cost), _, factor) =
                    bracket(r.kind.threads(), || alloc::measure(|| sut.pass(&mut rec)));
                r.tally(&pass, r.digest);
                r.passes.push(PassStats {
                    packets: pass.packets,
                    wall: pass.wall,
                    factor,
                    peak_bytes: cost.peak_bytes,
                });
                r.steps_ms
                    .extend(pass.steps.iter().map(|d| d.as_secs_f64() * 1e3 * factor));
            }
        }
        cycles += 1;
        if schedule.done(cycles, started) {
            return records;
        }
    }
}
