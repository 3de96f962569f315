//! What a [`Windower`](crate::Windower) selects with: an event-driven
//! [`sampling::Sampler`], or a one-pass reservoir (Vitter's Algorithm L)
//! for simple random sampling without a-priori `N`.

use nettrace::{Micros, PacketRecord};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sampling::geometric::draw_skip;
use sampling::{BuildError, MethodSpec, Sampler};

/// A packet retained by the reservoir, carrying the window-local
/// interarrival gap it had when offered (the attribute the
/// interarrival target bins; `None` for a window's first packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleItem {
    /// The retained packet.
    pub packet: PacketRecord,
    /// Interarrival gap to its window-local predecessor, µs.
    pub gap_us: Option<u64>,
}

/// A built stream method, as [`StreamMethod::build`] returns it and
/// [`Windower::new`](crate::Windower::new) takes it.
pub enum Selector {
    /// An event-driven sampler: each packet's fate is final at arrival
    /// (like the T3 firmware's), and its selections do not depend on
    /// window boundaries.
    Sampler(Box<dyn Sampler>),
    /// A reservoir: the sample is final when the window's bucket closes.
    Reservoir(ReservoirStream),
}

/// One-pass uniform `k`-of-stream sampling: Vitter's **Algorithm L**
/// (*Random sampling with a gap distribution*, TOMS 1994 lineage).
///
/// Unlike Algorithm R (one RNG draw per arrival), L draws geometric
/// *skip counts*: O(k·(1 + log(N/k))) RNG work total, so a
/// 1-in-50-style monitor spends its per-packet budget on nothing but a
/// counter compare — the same budget argument the paper makes for
/// systematic sampling (§4).
///
/// Every prefix of the stream is sampled uniformly: after `n ≥ k`
/// offers each of the `n` packets is held with probability exactly
/// `k/n` (the distribution-equivalence test against
/// [`sampling::SimpleRandomSampler`] pins this empirically).
pub struct ReservoirStream {
    capacity: usize,
    rng: StdRng,
    buf: Vec<SampleItem>,
    seen: u64,
    /// Vitter's running `W`: the largest of `k` uniform draws to the
    /// power `1/k`, updated per replacement.
    w: f64,
    /// 1-based arrival index of the next replacement.
    next_replace: u64,
}

impl ReservoirStream {
    /// New reservoir holding at most `capacity` packets.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Self::init_w(&mut rng, capacity);
        ReservoirStream {
            capacity,
            rng,
            buf: Vec::with_capacity(capacity),
            seen: 0,
            w,
            next_replace: u64::MAX,
        }
    }

    /// Packets currently held.
    #[must_use]
    pub fn held(&self) -> usize {
        self.buf.len()
    }

    /// A uniform draw on `(0, 1]` — the open lower end keeps `ln`
    /// finite.
    fn unit(rng: &mut StdRng) -> f64 {
        1.0 - rng.random::<f64>()
    }

    fn init_w(rng: &mut StdRng, capacity: usize) -> f64 {
        (Self::unit(rng).ln() / capacity as f64).exp()
    }

    /// Draw the geometric skip (success probability `w`) to the next
    /// replacement and advance the schedule. A `w` too small for the
    /// skip draw (after astronomically many replacements) parks the
    /// schedule at `u64::MAX`: no further replacements, which is also
    /// where the true distribution is.
    fn schedule(&mut self) {
        let skip = draw_skip(&mut self.rng, self.w);
        self.next_replace = self.seen.saturating_add(skip).saturating_add(1);
    }

    /// Offer one arriving packet with its window-local interarrival gap.
    /// Packets must be offered in arrival order; the sample is final at
    /// [`ReservoirStream::flush`].
    pub fn offer(&mut self, pkt: &PacketRecord, gap_us: Option<u64>) {
        self.seen += 1;
        let item = SampleItem {
            packet: *pkt,
            gap_us,
        };
        if self.buf.len() < self.capacity {
            self.buf.push(item);
            if self.buf.len() == self.capacity {
                self.schedule();
            }
        } else if self.seen == self.next_replace {
            let slot = self.rng.random_range(0..self.capacity as u64) as usize;
            self.buf[slot] = item;
            self.w *= (Self::unit(&mut self.rng).ln() / self.capacity as f64).exp();
            self.schedule();
        }
    }

    /// Drain the window's sample and start the next window from a clean
    /// count.
    pub fn flush(&mut self) -> Vec<SampleItem> {
        self.seen = 0;
        self.w = Self::init_w(&mut self.rng, self.capacity);
        self.next_replace = u64::MAX;
        std::mem::take(&mut self.buf)
    }
}

/// How `netsample stream` selects packets: one of the event-driven
/// method specs, or one-pass reservoir selection (the streaming
/// replacement for simple random sampling, which needs `N` up front).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamMethod {
    /// An event-driven method built from its batch [`MethodSpec`].
    /// `SimpleRandom` additionally needs each window's packet count.
    Spec(MethodSpec),
    /// One-pass reservoir: a uniform `capacity`-of-window sample.
    Reservoir {
        /// Packets held per window.
        capacity: usize,
    },
}

impl StreamMethod {
    /// Stable short name (matches the batch families where one exists).
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            StreamMethod::Spec(spec) => spec.to_string(),
            StreamMethod::Reservoir { capacity } => format!("reservoir(k={capacity})"),
        }
    }

    /// Whether selections are buffered until window flush.
    #[must_use]
    pub fn is_buffered(&self) -> bool {
        matches!(self, StreamMethod::Reservoir { .. })
    }

    /// Instantiate the sampler for a stream whose first packet arrives
    /// at `window_start` — the same construction, seed folding and
    /// replication phasing as the batch
    /// [`MethodSpec::try_build`], so a one-window stream reproduces the
    /// batch experiment bit for bit.
    ///
    /// `population` is the packet count `N` of each window, the batch
    /// path's known window length; only `MethodSpec::SimpleRandom`
    /// consults it, drawing a fresh n-of-N per `N` offers.
    ///
    /// # Errors
    /// The batch [`BuildError`]s, plus `EmptyPopulation` when simple
    /// random sampling is asked for without a population.
    pub fn build(
        &self,
        window_start: Micros,
        population: Option<usize>,
        replication: u64,
        seed: u64,
    ) -> Result<Selector, BuildError> {
        match *self {
            StreamMethod::Spec(spec) => Ok(Selector::Sampler(spec.try_build(
                population.unwrap_or(0),
                window_start,
                replication,
                seed,
            )?)),
            StreamMethod::Reservoir { capacity } => {
                if capacity == 0 {
                    return Err(BuildError::ZeroInterval);
                }
                // The batch experiment's seed protocol, verbatim.
                let seed = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(replication);
                Ok(Selector::Reservoir(ReservoirStream::new(capacity, seed)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(i: u64) -> PacketRecord {
        PacketRecord::new(Micros(i * 100), 40 + (i % 7) as u16)
    }

    #[test]
    fn reservoir_holds_exactly_capacity() {
        let mut r = ReservoirStream::new(10, 7);
        for i in 0..1000 {
            r.offer(&pkt(i), Some(100));
            assert!(r.held() <= 10);
        }
        let sample = r.flush();
        assert_eq!(sample.len(), 10);
        // Flush resets for the next window.
        assert_eq!(r.held(), 0);
    }

    #[test]
    fn short_stream_keeps_everything() {
        let mut r = ReservoirStream::new(50, 1);
        for i in 0..20 {
            r.offer(&pkt(i), None);
        }
        let sample = r.flush();
        assert_eq!(sample.len(), 20);
        let ids: Vec<u64> = sample.iter().map(|s| s.packet.timestamp.as_u64()).collect();
        assert_eq!(ids, (0..20).map(|i| i * 100).collect::<Vec<_>>());
    }

    #[test]
    fn reservoir_is_seed_deterministic() {
        let run = |seed| {
            let mut r = ReservoirStream::new(8, seed);
            for i in 0..500 {
                r.offer(&pkt(i), Some(100));
            }
            r.flush()
                .iter()
                .map(|s| s.packet.timestamp.as_u64())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn inclusion_is_uniform_across_the_stream() {
        // After N offers every index must be held with probability k/N:
        // compare first-half vs second-half inclusion mass over many
        // seeds. A with-replacement or recency-biased bug shows up as a
        // strong half imbalance.
        const N: u64 = 1000;
        const K: usize = 50;
        const TRIALS: u64 = 400;
        let mut halves = [0u64; 2];
        for seed in 0..TRIALS {
            let mut r = ReservoirStream::new(K, seed);
            for i in 0..N {
                r.offer(&pkt(i), None);
            }
            for item in r.flush() {
                let idx = item.packet.timestamp.as_u64() / 100;
                halves[(idx >= N / 2) as usize] += 1;
            }
        }
        let total = halves[0] + halves[1];
        assert_eq!(total, TRIALS * K as u64);
        let imbalance = (halves[0] as f64 - halves[1] as f64).abs() / total as f64;
        assert!(
            imbalance < 0.02,
            "halves {halves:?}: imbalance {imbalance:.4}"
        );
    }

    #[test]
    fn simple_random_needs_a_population() {
        let m = StreamMethod::Spec(MethodSpec::SimpleRandom { fraction: 0.02 });
        assert!(matches!(
            m.build(Micros(0), None, 0, 1),
            Err(BuildError::EmptyPopulation)
        ));
        assert!(m.build(Micros(0), Some(1000), 0, 1).is_ok());
    }

    #[test]
    fn zero_capacity_reservoir_is_a_build_error() {
        let m = StreamMethod::Reservoir { capacity: 0 };
        assert!(m.build(Micros(0), None, 0, 1).is_err());
    }
}
