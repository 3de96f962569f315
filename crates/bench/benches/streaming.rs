//! Criterion benches: the streaming engine against the batch path.
//!
//! The operational question behind `netsample stream`: what does
//! one-pass bounded-memory operation cost over the
//! materialize-everything batch pipeline, per capture byte? Both sides
//! do the same work — decode the pcap, sample 1-in-50, build the
//! histograms, score φ — so the gap is the price of chunked ingestion,
//! windowing, and the staged channels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nettrace::pcap::write_pcap;
use nettrace::read_capture;
use parkit::Pool;
use sampling::{Experiment, MethodSpec, Target};
use std::hint::black_box;
use streamkit::{run_stream, StreamConfig, StreamMethod, WindowSpec};

fn capture(n: usize) -> Vec<u8> {
    let trace = netsynth::canonical::randomly_ordered(n, 42);
    let mut buf = Vec::new();
    write_pcap(&mut buf, &trace).unwrap();
    buf
}

fn bench_stream_vs_batch(c: &mut Criterion) {
    let n = 100_000usize;
    let bytes = capture(n);
    let method = MethodSpec::Systematic { interval: 50 };
    let mut group = c.benchmark_group("ingest_and_score");
    group.throughput(Throughput::Bytes(bytes.len() as u64));

    group.bench_with_input(BenchmarkId::new("batch", n), &bytes, |b, bytes| {
        b.iter(|| {
            let trace = read_capture(black_box(bytes.as_slice())).unwrap();
            let exp = Experiment::new(trace.packets(), Target::PacketSize);
            let result = exp.run_with(&Pool::serial(), method, 1, 42);
            black_box(result.replications.len())
        });
    });

    // One whole-capture window: the exact batch-equivalent workload.
    group.bench_with_input(BenchmarkId::new("stream", n), &bytes, |b, bytes| {
        let mut cfg = StreamConfig::new(
            StreamMethod::Spec(method),
            Target::PacketSize,
            WindowSpec::Count(n as u64),
        );
        cfg.seed = 42;
        b.iter(|| {
            let summary = run_stream(black_box(bytes.as_slice()), &cfg).unwrap();
            black_box(summary.windows.len())
        });
    });

    // Small tumbling windows: bounded memory, many window closes.
    group.bench_with_input(
        BenchmarkId::new("stream_windowed", n),
        &bytes,
        |b, bytes| {
            let cfg = StreamConfig::new(
                StreamMethod::Spec(method),
                Target::PacketSize,
                WindowSpec::Count(1_000),
            );
            b.iter(|| {
                let summary = run_stream(black_box(bytes.as_slice()), &cfg).unwrap();
                black_box(summary.windows.len())
            });
        },
    );

    group.finish();
}

criterion_group!(benches, bench_stream_vs_batch);
criterion_main!(benches);
