//! Trace assembly: rate process × size mixture × gap placement → `Trace`.

use crate::apps::ZipfNets;
use crate::profile::TraceProfile;
use crate::rate::plan_seconds;
use crate::sizes::SizeModel;
use nettrace::{Micros, PacketRecord, Trace};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use statkit::rand_ext::poisson;

/// Generate a synthetic trace from a profile, deterministically under the
/// given seed.
///
/// Pipeline per second `t`:
/// 1. the rate process supplies an intensity `λ_t` and bulk weight `w_t`;
/// 2. the packet count is `N_t ~ Poisson(λ_t)`;
/// 3. `N_t + 1` exponential gaps (with rare pause stretches) are drawn and
///    normalized to fill the second, placing the `N_t` packets — a Poisson
///    process conditioned on its count, plus pause-induced clustering;
/// 4. each packet's application class is drawn from the size mixture at
///    `w_t`, fixing its size, protocol, ports, and network pair;
/// 5. final timestamps are quantized by the profile's capture clock.
///
/// ```
/// use netsynth::{generate, TraceProfile};
/// let trace = generate(&TraceProfile::short(5), 42);
/// // ~424 pps for 5 seconds, deterministic under the seed.
/// assert!(trace.len() > 1_000 && trace.len() < 4_000);
/// assert_eq!(trace, generate(&TraceProfile::short(5), 42));
/// ```
#[must_use]
pub fn generate(profile: &TraceProfile, seed: u64) -> Trace {
    let _span = obskit::span("netsynth_generate");
    profile.validate();
    let mut rng = StdRng::seed_from_u64(seed);
    let plans = plan_seconds(profile, &mut rng);
    let model = SizeModel::standard();
    let nets = ZipfNets::standard();

    let expected = (profile.mean_pps * f64::from(profile.duration_secs)) as usize;
    let mut packets: Vec<PacketRecord> = Vec::with_capacity(expected + expected / 8);
    let mut gaps: Vec<f64> = Vec::new();

    for (sec, plan) in plans.iter().enumerate() {
        let n = poisson(&mut rng, plan.intensity) as usize;
        if n == 0 {
            continue;
        }
        gaps.clear();
        gaps.reserve(n + 1);
        let mut total = 0.0;
        for _ in 0..=n {
            let mut g = -(1.0 - rng.random::<f64>()).ln();
            let u: f64 = rng.random();
            if u < profile.pause_prob {
                g *= profile.pause_scale;
            } else if u < profile.pause_prob + profile.cluster_prob {
                g *= profile.cluster_scale;
            }
            total += g;
            gaps.push(g);
        }
        let base = sec as u64 * 1_000_000;
        let mut cum = 0.0;
        for &g in gaps.iter().take(n) {
            cum += g;
            let frac = cum / total; // strictly in (0, 1): the trailing gap is positive
            let ts = Micros(base + (frac * 1e6) as u64);
            let class = model.sample_class(plan.bulk_weight, &mut rng);
            let size = class.sample_size(&mut rng);
            let (protocol, src_port, dst_port) = class.sample_app(&mut rng);
            let (src_net, dst_net) = nets.sample(&mut rng);
            packets.push(PacketRecord {
                timestamp: ts,
                size,
                protocol,
                src_port,
                dst_port,
                src_net,
                dst_net,
                flow_id: 0,
                flags: 0,
            });
        }
    }

    let trace = Trace::new(packets).expect("generator emits ordered timestamps");
    obskit::counter("netsynth_packets_generated_total").add(trace.len() as u64);
    trace.quantized(profile.clock)
}

/// The calibrated SDSC hour: `generate(TraceProfile::sdsc_1993(), seed)`.
#[must_use]
pub fn sdsc_hour(seed: u64) -> Trace {
    generate(&TraceProfile::sdsc_1993(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::{ClockModel, PerSecondSeries};
    use statkit::Moments;

    fn minute_trace(seed: u64) -> Trace {
        generate(&TraceProfile::short(60), seed)
    }

    #[test]
    fn deterministic_under_seed() {
        let a = minute_trace(42);
        let b = minute_trace(42);
        assert_eq!(a, b);
        let c = minute_trace(43);
        assert_ne!(a, c);
    }

    #[test]
    fn packet_count_near_intensity_budget() {
        let t = minute_trace(1);
        let expected = 424.2 * 60.0;
        let ratio = t.len() as f64 / expected;
        assert!(
            (0.8..1.2).contains(&ratio),
            "count {} vs {}",
            t.len(),
            expected
        );
    }

    #[test]
    fn timestamps_are_ordered_and_quantized() {
        let t = minute_trace(2);
        let mut last = 0u64;
        for p in t.iter() {
            let ts = p.timestamp.as_u64();
            assert!(ts >= last);
            assert_eq!(ts % 400, 0, "timestamps must sit on the 400us grid");
            last = ts;
        }
        assert!(last < 60_000_000);
    }

    #[test]
    fn sizes_within_table3_bounds() {
        let t = minute_trace(3);
        for p in t.iter() {
            assert!((28..=1500).contains(&p.size), "size {}", p.size);
        }
    }

    #[test]
    fn per_second_rates_fluctuate() {
        let t = generate(&TraceProfile::short(300), 4);
        let s = PerSecondSeries::from_trace(&t);
        let m = Moments::from_values(s.packet_rates());
        assert!(
            m.std_dev() > 30.0,
            "per-second rates too smooth: {}",
            m.std_dev()
        );
        assert!(m.mean() > 300.0 && m.mean() < 550.0, "mean {}", m.mean());
    }

    #[test]
    fn interarrival_mean_tracks_rate() {
        let t = generate(&TraceProfile::short(300), 5);
        let ia = t.interarrivals();
        let m = Moments::from_values(ia.iter().map(|&x| x as f64));
        // mean interarrival ~ 1e6 / mean_pps = 2358us; allow wide band on
        // a 5-minute run.
        assert!((m.mean() - 2358.0).abs() < 250.0, "mean ia {}", m.mean());
        // Overdispersed relative to exponential.
        assert!(
            m.std_dev() / m.mean() > 1.0,
            "cv {}",
            m.std_dev() / m.mean()
        );
    }

    #[test]
    fn ideal_clock_profile_is_unquantized() {
        let mut p = TraceProfile::short(10);
        p.clock = ClockModel::IDEAL;
        let t = generate(&p, 6);
        let off_grid = t.iter().filter(|p| p.timestamp.as_u64() % 400 != 0).count();
        assert!(
            off_grid > t.len() / 2,
            "ideal clock should not snap to grid"
        );
    }

    #[test]
    fn protocols_are_mixed() {
        let t = minute_trace(7);
        let tcp = t
            .iter()
            .filter(|p| p.protocol == nettrace::Protocol::Tcp)
            .count();
        let udp = t
            .iter()
            .filter(|p| p.protocol == nettrace::Protocol::Udp)
            .count();
        let icmp = t
            .iter()
            .filter(|p| p.protocol == nettrace::Protocol::Icmp)
            .count();
        assert!(tcp > udp && udp > icmp && icmp > 0);
        // TCP strongly dominates (ACKs + telnet + bulk).
        assert!(tcp as f64 / t.len() as f64 > 0.7);
    }

    #[test]
    fn network_numbers_populated() {
        let t = minute_trace(8);
        assert!(t.iter().all(|p| p.src_net >= 1 && p.dst_net >= 1));
        let distinct_dst: std::collections::HashSet<u16> = t.iter().map(|p| p.dst_net).collect();
        assert!(distinct_dst.len() > 100, "zipf tail should appear");
    }

    #[test]
    fn sdsc_hour_is_full_length() {
        // Cheap structural check on the flagship profile without paying
        // for a full-hour generation in unit tests (integration tests do).
        let p = TraceProfile::sdsc_1993();
        assert_eq!(p.duration_secs, 3600);
        let t = generate(&TraceProfile::short(20), 9);
        assert!(t.duration().as_secs_f64() > 18.0);
    }
}
