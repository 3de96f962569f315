//! Checker self-tests: every workload runs clean at `--quick` size, and
//! each checker counts a pass with a broken output as failed.

use netbench::run::{end_to_end, run, Record, Schedule, END_TO_END};
use netbench::span::Recorder;
use netbench::trace;
use netbench::workloads::{collect, grid, ingest, stream, Kind, Pass, Size, Workload};
use std::time::Duration;

const SEED: u64 = 1993;

/// Tally one pass whose check gave `check` and whose digest is
/// `digest`, against a warm-up digest of `reference`.
fn tally(check: Result<(), String>, digest: u64, reference: u64) -> Record {
    let mut r = Record::new(Kind::StreamSdsc);
    let pass = Pass {
        packets: 1,
        wall: Duration::from_millis(1),
        steps: vec![Duration::from_millis(1)],
        digest,
        check,
    };
    r.tally(&pass, reference);
    r
}

fn counted_failed(check: Result<(), String>) {
    assert!(check.is_err(), "the checker accepted a broken output");
    let r = tally(check, 7, 7);
    assert_eq!((r.attempted, r.failed), (1, 1));
}

#[test]
fn every_workload_runs_clean_at_quick_size() {
    let records = run(&Kind::ALL, SEED, Size::QUICK, Schedule::Cycles(1));
    for r in &records {
        assert_eq!(r.failed, 0, "{}: {:?}", r.kind.name(), r.failures);
        assert_eq!(r.attempted, 1 + r.kind.passes_per_cycle() as u64);
        for m in end_to_end(r) {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {}",
                r.kind.name(),
                m.name
            );
        }
    }
}

#[test]
fn trace_run_is_correct_and_complete_at_quick_size() {
    let out = trace::run(SEED, Size::QUICK, Schedule::Cycles(1));
    assert!(out.correct(), "{}", out.render());
    let metrics = out.metrics();
    assert_eq!(metrics.len(), trace::PER_LAYER.len());
    for (name, m) in &metrics {
        assert!(m.value.is_finite(), "{name}");
    }
}

#[test]
fn a_mutated_digest_counts_as_failed() {
    let inputs = stream::Inputs::build(SEED, Size::QUICK);
    let pass = stream::Stream::new(&inputs).pass(&mut Recorder::off());
    assert!(pass.check.is_ok());
    let r = tally(pass.check, pass.digest ^ 1, pass.digest);
    assert_eq!((r.attempted, r.failed), (1, 1));
    let r = tally(Ok(()), pass.digest, pass.digest);
    assert_eq!((r.attempted, r.failed), (1, 0));
}

#[test]
fn a_conservation_break_counts_as_failed() {
    let inputs = collect::Inputs::build(SEED, Size::QUICK);
    let c = collect::Collect::new(&inputs);
    let mut life = c.lifetime(&inputs.cfg, c.pool(), &mut Recorder::off());
    assert!(collect::check(&inputs.cfg, &life.out).is_ok());
    life.out.summary.considered -= 1;
    counted_failed(collect::check(&inputs.cfg, &life.out));
}

#[test]
fn a_non_finite_phi_counts_as_failed() {
    let inputs = stream::Inputs::build(SEED, Size::QUICK);
    let s = stream::Stream::new(&inputs);
    let mut summary = streamkit::run_stream(inputs.image.as_slice(), &s.cfg).expect("quick stream");
    assert!(stream::check(inputs.packets, &summary).is_ok());
    let report = summary.windows[0].report.as_mut().expect("scored window");
    report.phi = f64::NAN;
    counted_failed(stream::check(inputs.packets, &summary));

    let inputs = grid::Inputs::build(SEED, Size::QUICK);
    let (mut phis, _) = grid::Grid::new(&inputs).run(&mut Recorder::off());
    assert!(grid::check(&phis).is_ok());
    phis.flows[0] = f64::INFINITY;
    counted_failed(grid::check(&phis));
}

#[test]
fn a_wrong_fault_count_counts_as_failed() {
    let inputs = ingest::Inputs::build(SEED, Size::QUICK);
    let mut decoded = ingest::Ingest::new(&inputs).decode(&mut Recorder::off());
    assert!(ingest::check(inputs.packets, inputs.sections, &decoded).is_ok());
    decoded.salvage.faults.pop();
    counted_failed(ingest::check(inputs.packets, inputs.sections, &decoded));
}

/// `BENCHMARK.json` at the repository root names exactly the workloads
/// and metrics this crate reports, with the same units.
#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&trace::PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for kind in Kind::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", kind.name())));
    }
    let listed = json.matches("\"name\": ").count();
    assert_eq!(
        listed,
        Kind::ALL.len() + END_TO_END.len() + trace::PER_LAYER.len()
    );
}
