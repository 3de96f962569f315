//! Stream/batch equivalence: the acceptance bar for the streaming
//! engine.
//!
//! One tumbling window spanning a whole capture must reproduce the
//! batch [`Experiment`] path **bit-for-bit**: same selections, same
//! histograms, same φ down to the last f64 bit, for every packet-driven
//! method in the paper's set. The
//! reservoir sampler has no batch twin (that is its point: no `N` up
//! front), so it is held to a *distributional* bar against the paper's
//! simple random method instead.

use nettrace::pcap::write_pcap;
use nettrace::read_capture;
use sampling::{Experiment, MethodSpec, Target};
use streamkit::{run_stream, StreamConfig, StreamMethod, WindowSpec};

/// A realistic ~10k-packet synthetic capture (24 s of the SDSC'93
/// profile: bursty rate, bimodal sizes, mixed protocols and ports).
fn capture_bytes() -> Vec<u8> {
    let mut profile = netsynth::TraceProfile::sdsc_1993();
    profile.duration_secs = 27;
    let trace = netsynth::generate(&profile, 0x1993);
    assert!(
        trace.len() > 9_000,
        "expected ~10k packets, got {}",
        trace.len()
    );
    let mut buf = Vec::new();
    write_pcap(&mut buf, &trace).unwrap();
    buf
}

/// φ bits from the batch `Experiment` path, replication 0.
fn batch_phi_bits(bytes: &[u8], method: MethodSpec, target: Target, seed: u64) -> Option<u64> {
    let trace = read_capture(bytes).unwrap();
    let exp = Experiment::new(trace.packets(), target);
    let result = exp.run(method, 1, seed);
    result.replications.first().map(|r| r.report.phi.to_bits())
}

/// φ bits from one whole-capture tumbling window through the stream
/// (the window's packet count is simple random sampling's `N`).
fn stream_phi_bits(
    bytes: &[u8],
    method: MethodSpec,
    target: Target,
    seed: u64,
    population: usize,
) -> Option<u64> {
    let mut cfg = StreamConfig::new(
        StreamMethod::Spec(method),
        target,
        WindowSpec::Count(population as u64),
    );
    cfg.seed = seed;
    let summary = run_stream(bytes, &cfg).unwrap();
    assert_eq!(summary.packets as usize, population);
    assert_eq!(summary.windows.len(), 1, "one window spans the capture");
    summary.windows[0].report.map(|r| r.phi.to_bits())
}

#[test]
fn paper_five_methods_match_batch_phi_bit_for_bit() {
    let bytes = capture_bytes();
    let trace = read_capture(bytes.as_slice()).unwrap();
    let population = trace.len();
    let mean_pps = Experiment::new(trace.packets(), Target::PacketSize).mean_pps();
    let seed = 424;

    for target in [
        Target::PacketSize,
        Target::Interarrival,
        Target::ByteVolume,
        Target::Protocol,
        Target::Port,
    ] {
        for method in MethodSpec::paper_five(50, mean_pps) {
            let batch = batch_phi_bits(&bytes, method, target, seed);
            let stream = stream_phi_bits(&bytes, method, target, seed, population);
            assert_eq!(
                stream, batch,
                "{method} on {target}: stream φ must be bit-identical"
            );
            assert!(
                batch.is_some(),
                "{method} on {target}: batch produced a score"
            );
        }
    }
}

#[test]
fn windowed_stream_matches_batch_run_on_each_slice() {
    // Beyond the single-window bar: every tumbling window's φ equals a
    // batch Experiment run on exactly that packet slice.
    let bytes = capture_bytes();
    let trace = read_capture(bytes.as_slice()).unwrap();
    let window = 2_000usize;
    let method = MethodSpec::Systematic { interval: 50 };
    let target = Target::Interarrival;
    let seed = 7;

    let mut cfg = StreamConfig::new(
        StreamMethod::Spec(method),
        target,
        WindowSpec::Count(window as u64),
    );
    cfg.seed = seed;
    let summary = run_stream(bytes.as_slice(), &cfg).unwrap();

    let packets = trace.packets();
    let n_windows = packets.len().div_ceil(window);
    assert_eq!(summary.windows.len(), n_windows);
    for (i, win) in summary.windows.iter().enumerate() {
        let lo = i * window;
        let hi = (lo + window).min(packets.len());
        let exp = Experiment::new(&packets[lo..hi], target);
        let result = exp.run(method, 1, seed);
        let batch_bits = result.replications.first().map(|r| r.report.phi.to_bits());
        let stream_bits = win.report.map(|r| r.phi.to_bits());
        // One systematic sampler spans the whole stream, but interval
        // 50 divides the 2000-packet window, so its phase at each
        // window boundary equals a fresh per-window schedule and the
        // two paths agree exactly.
        assert_eq!(stream_bits, batch_bits, "window {i}");
    }
}

#[test]
fn reservoir_is_distribution_equivalent_to_simple_random() {
    // The reservoir's one-pass exact-n draw must be *statistically*
    // indistinguishable from the paper's n-of-N simple random method:
    // equal-probability inclusion ⇒ the φ distribution over many seeds
    // has the same mean. 200 independent runs of each; the means must
    // agree within a few percent (φ's seed-to-seed σ is ~30% of its
    // mean, so the standard error of each mean is ~2%).
    let trace = netsynth::canonical::randomly_ordered(2_000, 99);
    let mut bytes = Vec::new();
    write_pcap(&mut bytes, &trace).unwrap();
    let k = 100usize;
    let runs = 200u64;

    let mut reservoir_sum = 0.0;
    let mut reservoir_n = 0u64;
    for seed in 0..runs {
        let mut cfg = StreamConfig::new(
            StreamMethod::Reservoir { capacity: k },
            Target::PacketSize,
            WindowSpec::Count(2_000),
        );
        cfg.seed = seed;
        let summary = run_stream(bytes.as_slice(), &cfg).unwrap();
        if let Some(phi) = summary.mean_phi() {
            reservoir_sum += phi;
            reservoir_n += 1;
        }
    }

    let exp = Experiment::new(trace.packets(), Target::PacketSize);
    let method = MethodSpec::SimpleRandom {
        fraction: k as f64 / 2_000.0,
    };
    let result = exp.run(method, runs as u32, 5_551);
    let random_mean = result.mean_phi().unwrap();
    let reservoir_mean = reservoir_sum / reservoir_n as f64;

    assert!(reservoir_n >= runs - 2, "almost every run scores");
    let rel = (reservoir_mean - random_mean).abs() / random_mean;
    assert!(
        rel < 0.10,
        "reservoir mean φ {reservoir_mean:.4} vs simple random {random_mean:.4} \
         (relative gap {rel:.3}) — distributions should agree"
    );
}

#[test]
fn hundred_thousand_packets_stream_in_bounded_windows() {
    // The O(window)-memory smoke: a 100k-packet capture through small
    // windows — nothing accumulates across windows, every one scores.
    let trace = netsynth::canonical::randomly_ordered(100_000, 3);
    let mut bytes = Vec::new();
    write_pcap(&mut bytes, &trace).unwrap();
    let cfg = StreamConfig::new(
        StreamMethod::Spec(MethodSpec::Systematic { interval: 50 }),
        Target::PacketSize,
        WindowSpec::Count(1_000),
    );
    let summary = run_stream(bytes.as_slice(), &cfg).unwrap();
    assert_eq!(summary.packets, 100_000);
    assert_eq!(summary.windows.len(), 100);
    assert!(summary.windows.iter().all(|w| w.report.is_some()));
}
