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
//!
//! The medians of the first two move with the machine's speed, which on
//! a shared VM changes from minute to minute, so their difference is
//! not the instrumentation cost. `instrumentation_per_call` measures
//! that cost as a paired difference instead: rounds alternate a batch
//! of bare calls and a batch of instrumented calls, and it reports the
//! median and quartiles of the per-round differences.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nettrace::Micros;
use sampling::select_indices_ts;
use sampling::MethodSpec;
use std::hint::black_box;
use std::time::Instant;

fn timestamps(n: u64) -> Vec<u64> {
    (0..n).map(|i| i * 2358).collect()
}

const SPEC: MethodSpec = MethodSpec::Systematic { interval: 50 };

/// Rounds of the paired comparison.
const ROUNDS: usize = 41;
/// Calls of each variant in one round.
const CALLS_PER_ROUND: u32 = 1_000;

/// Mean wall time of one call to `f` over a batch, in microseconds.
fn per_call_us(mut f: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    for _ in 0..CALLS_PER_ROUND {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS_PER_ROUND)
}

fn bench_overhead(c: &mut Criterion) {
    let ts = timestamps(100_000);
    let bare = || {
        let mut s = SPEC.build(ts.len(), Micros(0), 0, 42);
        let mut selected = Vec::new();
        s.offer_ts_batch(0, black_box(&ts), &mut selected);
        selected.len()
    };
    let instrumented = || {
        let mut s = SPEC.build(ts.len(), Micros(0), 0, 42);
        select_indices_ts(s.as_mut(), black_box(&ts)).len()
    };

    let mut group = c.benchmark_group("obskit_overhead");
    group.throughput(Throughput::Elements(ts.len() as u64));
    group.bench_function("uninstrumented", |b| b.iter(bare));
    group.bench_function("instrumented_batched", |b| b.iter(instrumented));
    group.bench_function("per_packet_counter", |b| {
        let examined = obskit::counter("bench_per_packet_examined_total");
        b.iter(|| {
            for _ in black_box(&ts) {
                examined.inc();
            }
            bare()
        });
    });
    group.finish();

    // Alternate which variant opens the round, so neither always runs
    // on a warmer cache.
    let mut diffs: Vec<f64> = (0..ROUNDS)
        .map(|round| {
            if round % 2 == 0 {
                let base = per_call_us(bare);
                per_call_us(instrumented) - base
            } else {
                let cost = per_call_us(instrumented);
                cost - per_call_us(bare)
            }
        })
        .collect();
    diffs.sort_by(f64::total_cmp);
    let quartile = |q: usize| diffs[(diffs.len() - 1) * q / 4];
    println!(
        "{:<44} {:>9.2} us  [q1 {:.2} us .. q3 {:.2} us]  {ROUNDS} paired rounds",
        "obskit_overhead/instrumentation_per_call",
        quartile(2),
        quartile(1),
        quartile(3),
    );
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
