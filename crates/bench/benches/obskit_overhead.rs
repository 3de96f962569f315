//! Instrumentation overhead: what does obskit cost on the sampler hot
//! path?
//!
//! Three variants over the same 100k-packet timestamp column with a
//! 1-in-50 systematic sampler:
//!
//! * `uninstrumented` — a bare `offer_ts_batch` over the column, no
//!   metrics at all: the floor.
//! * `instrumented_batched` — the real [`select_indices_ts`], which opens
//!   one span and flushes two labeled counters *per call* (the shipping
//!   configuration): a fixed cost per call, whatever the column length.
//! * `per_packet_counter` — the floor plus a counter increment on
//!   *every* element: the anti-pattern the batch-at-boundary discipline
//!   avoids, kept here so the cost of getting it wrong stays measured.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nettrace::Micros;
use sampling::select_indices_ts;
use sampling::MethodSpec;
use std::hint::black_box;

fn timestamps(n: u64) -> Vec<u64> {
    (0..n).map(|i| i * 2358).collect()
}

const SPEC: MethodSpec = MethodSpec::Systematic { interval: 50 };

fn bench_overhead(c: &mut Criterion) {
    let ts = timestamps(100_000);
    let mut group = c.benchmark_group("obskit_overhead");
    group.throughput(Throughput::Elements(ts.len() as u64));

    group.bench_function("uninstrumented", |b| {
        b.iter(|| {
            let mut s = SPEC.build(ts.len(), Micros(0), 0, 42);
            let mut selected = Vec::new();
            s.offer_ts_batch(0, black_box(&ts), &mut selected);
            black_box(selected.len())
        });
    });

    group.bench_function("instrumented_batched", |b| {
        b.iter(|| {
            let mut s = SPEC.build(ts.len(), Micros(0), 0, 42);
            black_box(select_indices_ts(s.as_mut(), black_box(&ts)).len())
        });
    });

    group.bench_function("per_packet_counter", |b| {
        let examined = obskit::counter("bench_per_packet_examined_total");
        b.iter(|| {
            let mut s = SPEC.build(ts.len(), Micros(0), 0, 42);
            for _ in black_box(&ts) {
                examined.inc();
            }
            let mut selected = Vec::new();
            s.offer_ts_batch(0, black_box(&ts), &mut selected);
            black_box(selected.len())
        });
    });

    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
