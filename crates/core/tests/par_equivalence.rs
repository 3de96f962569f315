//! Serial ≡ parallel equivalence (the determinism hard requirement):
//! for each of the five paper methods, `Experiment::run_grid_with` and
//! `interval_sweep_with` at `--jobs 1` versus `--jobs 4` (and 8) must
//! produce **byte-identical φ tables** — exact `f64` bit equality, not
//! approximate closeness — on a 10k-packet synthetic trace. Any
//! scheduling leak (results placed by completion order, seeds derived
//! from worker identity, shared-state races) fails these tests. A
//! cross-path oracle checks that every entry point scores a cell the
//! same way.

use netsynth::{generate_flow_pack, FlowPackConfig, FlowSizeDist};
use nettrace::{Micros, PacketRecord, Trace};
use parkit::Pool;
use sampling::experiment::{interval_sweep_with, Experiment, ExperimentResult, MethodFamily};
use sampling::{FlowEstimator, FlowExperiment, Target};

const PACKETS: usize = 10_000;
const REPLICATIONS: u32 = 5;
const SEED: u64 = 1993;

/// A deterministic bimodal 10k-packet trace: irregular gaps, two packet
/// size modes — enough structure that every method produces distinct,
/// nontrivial φ values.
fn synthetic_trace() -> Trace {
    let mut t = 0u64;
    let packets: Vec<PacketRecord> = (0..PACKETS)
        .map(|i| {
            t += 400 + (i as u64 * 179) % 4400;
            let size = if (i * 7919) % 10 < 4 { 40 } else { 552 };
            PacketRecord::new(Micros(t), size)
        })
        .collect();
    Trace::new(packets).unwrap()
}

/// Exact f64 bit equality across two result cells: φ of every
/// replication, plus the scored/empty split and sample sizes.
fn assert_cells_bit_identical(a: &ExperimentResult, b: &ExperimentResult, ctx: &str) {
    assert_eq!(a.method, b.method, "{ctx}: method spec diverged");
    assert_eq!(
        a.replications.len(),
        b.replications.len(),
        "{ctx}: replication count diverged"
    );
    assert_eq!(
        a.empty_samples, b.empty_samples,
        "{ctx}: empty-sample count diverged"
    );
    for (ra, rb) in a.replications.iter().zip(&b.replications) {
        assert_eq!(
            ra.replication, rb.replication,
            "{ctx}: replication order diverged"
        );
        assert_eq!(
            ra.report.phi.to_bits(),
            rb.report.phi.to_bits(),
            "{ctx} rep {}: phi {} vs {} differ in bits",
            ra.replication,
            ra.report.phi,
            rb.report.phi
        );
        assert_eq!(
            ra.report.sample_size, rb.report.sample_size,
            "{ctx} rep {}: sample size diverged",
            ra.replication
        );
    }
}

#[test]
fn grid_is_bit_identical_across_jobs() {
    let trace = synthetic_trace();
    let ks = [2usize, 8, 32, 128];
    for family in MethodFamily::paper_five() {
        let cells = ks.map(|k| (family, k));
        for target in [Target::PacketSize, Target::Interarrival] {
            let exp = Experiment::new(trace.packets(), target);
            let serial = exp.run_grid_with(&Pool::serial(), &cells, REPLICATIONS, SEED);
            for jobs in [4, 8] {
                let parallel = exp.run_grid_with(&Pool::new(jobs), &cells, REPLICATIONS, SEED);
                assert_eq!(serial.len(), parallel.len());
                for ((a, b), k) in serial.iter().zip(&parallel).zip(ks) {
                    let ctx = format!("{} {target:?} k={k} @ {jobs} jobs", family.name());
                    assert_cells_bit_identical(a, b, &ctx);
                    // The φ table is real, not trivially empty.
                    assert!(!a.replications.is_empty(), "{ctx}: no scored replications");
                }
            }
        }
    }
}

#[test]
fn interval_sweep_is_bit_identical_across_jobs() {
    let trace = synthetic_trace();
    let dur = trace.duration().as_u64();
    let lengths = [
        Micros(dur / 32),
        Micros(dur / 8),
        Micros(dur / 2),
        Micros(dur),
    ];
    for family in MethodFamily::paper_five() {
        let serial = interval_sweep_with(
            &Pool::serial(),
            &trace,
            Target::PacketSize,
            family,
            16,
            Micros(0),
            &lengths,
            REPLICATIONS,
            SEED,
        );
        let parallel = interval_sweep_with(
            &Pool::new(4),
            &trace,
            Target::PacketSize,
            family,
            16,
            Micros(0),
            &lengths,
            REPLICATIONS,
            SEED,
        );
        assert_eq!(serial.len(), parallel.len());
        let mut scored_windows = 0;
        for ((la, a), (lb, b)) in serial.iter().zip(&parallel) {
            assert_eq!(la, lb);
            assert_eq!(
                a.is_some(),
                b.is_some(),
                "{}: window presence diverged",
                family.name()
            );
            if let (Some(a), Some(b)) = (a, b) {
                let ctx = format!("{} len={la:?}", family.name());
                assert_cells_bit_identical(a, b, &ctx);
                scored_windows += 1;
            }
        }
        assert!(
            scored_windows > 0,
            "{}: sweep scored nothing",
            family.name()
        );
    }
}

/// Cross-path oracle: the three ways to score one `(family, k)` cell on
/// one window (a single `run_with` at the capped replication count, a
/// one-cell `run_grid_with`, and the `interval_sweep_with` cell of one
/// window covering the whole trace) agree bit for bit, for every family,
/// both paper targets and a fine and a coarse granularity.
#[test]
fn every_cell_path_scores_the_same_bits() {
    let trace = synthetic_trace();
    let pool = Pool::new(2);
    let whole = trace.packets().last().unwrap().timestamp + Micros(1);
    let mut families = MethodFamily::paper_five().to_vec();
    families.push(MethodFamily::GeometricSkip);
    for target in [Target::PacketSize, Target::Interarrival] {
        let exp = Experiment::new(trace.packets(), target);
        for &family in &families {
            for k in [4usize, 64] {
                let ctx = format!("{} {target:?} k={k}", family.name());
                let single = exp.run_with(
                    &pool,
                    family.at_granularity(k, exp.mean_pps()),
                    family.replication_cap(k, REPLICATIONS),
                    SEED,
                );
                let grid = exp
                    .run_grid_with(&pool, &[(family, k)], REPLICATIONS, SEED)
                    .remove(0);
                let swept = interval_sweep_with(
                    &pool,
                    &trace,
                    target,
                    family,
                    k,
                    Micros(0),
                    &[whole],
                    REPLICATIONS,
                    SEED,
                )
                .remove(0)
                .1
                .expect("the window covers the whole trace");
                assert_cells_bit_identical(&single, &grid, &format!("{ctx} grid"));
                assert_cells_bit_identical(&single, &swept, &format!("{ctx} interval sweep"));
                assert!(
                    !single.replications.is_empty(),
                    "{ctx}: no scored replications"
                );
            }
        }
    }
}

/// `FlowExperiment::run_with` is its one-cell `run_grid_with`.
#[test]
fn flow_run_with_matches_its_grid_cell() {
    let pack = generate_flow_pack(
        &FlowPackConfig {
            flows: 300,
            size_dist: FlowSizeDist::Geometric { p: 0.02 },
            duration_secs: 10,
            ..FlowPackConfig::default()
        },
        SEED,
    );
    let exp = FlowExperiment::new(pack.packets());
    let pool = Pool::new(2);
    for estimator in FlowEstimator::all() {
        for k in [4u64, 64] {
            let single = exp.run_with(&pool, estimator, k, REPLICATIONS);
            let grid = exp
                .run_grid_with(&pool, &[(estimator, k)], REPLICATIONS)
                .remove(0);
            assert_eq!(single, grid, "{estimator} k={k}");
            assert!(
                !single.replications.is_empty(),
                "{estimator} k={k}: nothing scored"
            );
        }
    }
}
