//! Criterion benches: per-packet cost of every sampling method over a
//! timestamp column, the path the grid, `stream` and `serve` all take.
//!
//! The operational question behind the paper's §2: what does the
//! selection decision cost in the forwarding path? All packet-driven
//! methods must be O(1) per packet with no allocation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nettrace::Micros;
use sampling::experiment::MethodFamily;
use sampling::select_indices_ts;
use std::hint::black_box;

fn timestamps(n: u64) -> Vec<u64> {
    (0..n).map(|i| i * 2358).collect()
}

fn bench_samplers(c: &mut Criterion) {
    let ts = timestamps(100_000);
    let mut group = c.benchmark_group("sampler_offer");
    group.throughput(Throughput::Elements(ts.len() as u64));
    let families = [
        MethodFamily::Systematic,
        MethodFamily::StratifiedRandom,
        MethodFamily::SimpleRandom,
        MethodFamily::SystematicTimer,
        MethodFamily::StratifiedTimer,
        MethodFamily::GeometricSkip,
    ];
    for family in families {
        group.bench_with_input(BenchmarkId::new(family.name(), 50), &family, |b, family| {
            let spec = family.at_granularity(50, 424.2);
            b.iter(|| {
                let mut s = spec.build(ts.len(), Micros(0), 0, 42);
                black_box(select_indices_ts(s.as_mut(), black_box(&ts)).len())
            });
        });
    }
    group.finish();
}

fn bench_granularity_scaling(c: &mut Criterion) {
    let ts = timestamps(100_000);
    let mut group = c.benchmark_group("systematic_granularity");
    group.throughput(Throughput::Elements(ts.len() as u64));
    for k in [2usize, 50, 1024, 32_768] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let spec = MethodFamily::Systematic.at_granularity(k, 424.2);
            b.iter(|| {
                let mut s = spec.build(ts.len(), Micros(0), 0, 42);
                black_box(select_indices_ts(s.as_mut(), black_box(&ts)).len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_samplers, bench_granularity_scaling);
criterion_main!(benches);
