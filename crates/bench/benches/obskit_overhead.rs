//! Instrumentation overhead: what does obskit cost on the sampler hot
//! path? Each line is a paired difference against a bare
//! `offer_ts_batch` of a 1-in-50 systematic sampler over a 100k-packet
//! timestamp column: rounds alternate a batch of bare calls and a batch
//! of variant calls, and the line reports the median and quartiles of
//! the per-round differences. (Absolute times move with the machine's
//! speed, which on a shared VM changes from minute to minute.)
//!
//! * `instrumentation_per_call` — the real [`select_indices_ts`], which
//!   opens one span and flushes two labeled counters *per call* (the
//!   shipping configuration): a fixed cost per call, whatever the column
//!   length.
//! * `per_packet_counter` — a counter increment on *every* element: the
//!   anti-pattern the batch-at-boundary discipline avoids, kept here so
//!   the cost of getting it wrong stays measured.

use nettrace::Micros;
use sampling::{select_indices_ts, MethodSpec};
use std::hint::black_box;
use std::time::Instant;

const SPEC: MethodSpec = MethodSpec::Systematic { interval: 50 };

/// Rounds of each paired comparison.
const ROUNDS: usize = 41;

/// Mean wall time of one call to `f` over a batch of `calls`, in
/// microseconds.
fn per_call_us(calls: u32, mut f: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

/// Print the median and quartiles of [`ROUNDS`] per-round differences
/// between a batch of `calls` calls of `variant` and one of `bare`.
fn paired(name: &str, calls: u32, bare: impl Fn() -> usize, variant: impl Fn() -> usize) {
    // Alternate which side opens the round, so neither always runs on a
    // warmer cache.
    let mut diffs: Vec<f64> = (0..ROUNDS)
        .map(|round| {
            if round % 2 == 0 {
                let base = per_call_us(calls, &bare);
                per_call_us(calls, &variant) - base
            } else {
                let cost = per_call_us(calls, &variant);
                cost - per_call_us(calls, &bare)
            }
        })
        .collect();
    diffs.sort_by(f64::total_cmp);
    let quartile = |q: usize| diffs[(diffs.len() - 1) * q / 4];
    println!(
        "{:<44} {:>9.2} us  [q1 {:.2} us .. q3 {:.2} us]  {ROUNDS} paired rounds",
        format!("obskit_overhead/{name}"),
        quartile(2),
        quartile(1),
        quartile(3),
    );
}

fn main() {
    let ts: Vec<u64> = (0..100_000).map(|i| i * 2358).collect();
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
    let examined = obskit::counter("bench_per_packet_examined_total");
    let per_packet = || {
        for _ in black_box(&ts) {
            examined.inc();
        }
        bare()
    };

    paired("instrumentation_per_call", 1_000, bare, instrumented);
    // A per-packet counter costs hundreds of microseconds a call, so ten
    // calls a round suffice.
    paired("per_packet_counter", 10, bare, per_packet);
}
