//! Timer-driven sampling.
//!
//! "Timer-driven sampling methods use a timer rather than a packet
//! counter to trigger the selection of packets … When the timer expires,
//! we select the next packet to arrive" (paper §4). Both timer methods
//! below implement exactly that arm-and-fire semantics:
//!
//! * the timer maintains a schedule of *firing times*;
//! * once the current firing time has passed, the sampler is **armed**;
//! * the first packet offered at or after the firing time is selected,
//!   and the schedule advances to the next firing time after that packet
//!   (multiple expirations while no packets arrive still select only the
//!   single next packet — re-arming during idle is idempotent).
//!
//! The paper found these methods uniformly worse than the packet-driven
//! ones, *especially* for interarrival times: selection after a timer
//! expiry is biased toward packets that follow long quiet gaps, so
//! bursts are systematically under-represented (§7.2). This module exists
//! so the workspace can reproduce that negative result.

use crate::sampler::{BuildError, Sampler};
use nettrace::Micros;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The arm-and-fire state machine both timers share.
trait Timer {
    /// The earliest arrival timestamp that can select a packet or move
    /// the schedule: every packet before it leaves the timer untouched.
    fn wake(&self) -> u64;

    /// The arm-and-fire decision against one arrival timestamp.
    fn offer_ts(&mut self, ts: u64) -> bool;
}

/// The timers' batch decision: offer only the packets at or after the
/// timer's wake time, so a packet that cannot fire costs one compare.
/// Equal to offering every packet in turn, because a packet before the
/// wake time changes nothing.
fn offer_from_wakes<T: Timer>(timer: &mut T, base: usize, ts: &[u64], out: &mut Vec<usize>) {
    let mut wake = timer.wake();
    for (i, &t) in ts.iter().enumerate() {
        if t >= wake {
            if timer.offer_ts(t) {
                out.push(base + i);
            }
            wake = timer.wake();
        }
    }
}

/// Systematic timer sampling: firing times at `start + i·period`.
#[derive(Debug, Clone)]
pub struct SystematicTimerSampler {
    period: u64,
    start: u64,
    next_fire: u64,
}

impl SystematicTimerSampler {
    /// Fire every `period`, first firing at `start`.
    ///
    /// # Panics
    /// Panics if `period` is zero.
    #[must_use]
    pub fn new(period: Micros, start: Micros) -> Self {
        match Self::try_new(period, start) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`SystematicTimerSampler::new`].
    ///
    /// # Errors
    /// [`BuildError::ZeroPeriod`] if `period` is zero.
    pub fn try_new(period: Micros, start: Micros) -> Result<Self, BuildError> {
        if period.as_u64() == 0 {
            return Err(BuildError::ZeroPeriod);
        }
        Ok(SystematicTimerSampler {
            period: period.as_u64(),
            start: start.as_u64(),
            next_fire: start.as_u64(),
        })
    }
}

impl Timer for SystematicTimerSampler {
    fn wake(&self) -> u64 {
        self.next_fire
    }

    fn offer_ts(&mut self, ts: u64) -> bool {
        if ts < self.next_fire {
            return false;
        }
        // Armed: select this packet, re-arm at the first scheduled firing
        // strictly after it. `next_fire` is always `start + i·period` or
        // the parked `u64::MAX`, so a packet less than a period past it
        // re-arms one period on; only a longer idle gap needs the
        // division. Near `u64::MAX` the next firing is beyond
        // representable time; saturating keeps the schedule parked there
        // instead of wrapping around and selecting every later packet.
        self.next_fire = match self.next_fire.checked_add(self.period) {
            Some(next) if ts < next => next,
            _ => ((ts - self.start) / self.period)
                .checked_add(1)
                .and_then(|ticks| ticks.checked_mul(self.period))
                .and_then(|offset| self.start.checked_add(offset))
                .unwrap_or(u64::MAX),
        };
        true
    }
}

impl Sampler for SystematicTimerSampler {
    fn offer_ts_batch(&mut self, base: usize, ts: &[u64], out: &mut Vec<usize>) {
        offer_from_wakes(self, base, ts, out);
    }

    fn reset(&mut self) {
        self.next_fire = self.start;
    }

    fn method_name(&self) -> &'static str {
        "sys-timer"
    }
}

/// Stratified timer sampling: one uniformly-placed firing time per
/// stratum `[start + i·period, start + (i+1)·period)`.
#[derive(Debug)]
pub struct StratifiedTimerSampler {
    period: u64,
    start: u64,
    seed: u64,
    rng: StdRng,
    /// Index of the stratum the current firing time belongs to.
    stratum: u64,
    /// Absolute firing time within the current stratum.
    fire_at: u64,
    /// Whether the current stratum's firing has already selected a packet.
    fired: bool,
}

impl StratifiedTimerSampler {
    /// One firing per `period`, strata anchored at `start`.
    ///
    /// Catch-up draws are replayed one stratum at a time only up to this
    /// many skipped strata; a larger jump (a pathological timestamp like
    /// `u64::MAX` against a microsecond period would mean ~10¹³ draws)
    /// switches to an O(1) deterministic reseed. Far larger than any gap
    /// a real trace produces, so ordinary runs replay identically.
    const MAX_CATCHUP_DRAWS: u64 = 1 << 16;

    /// # Panics
    /// Panics if `period` is zero.
    #[must_use]
    pub fn new(period: Micros, start: Micros, seed: u64) -> Self {
        match Self::try_new(period, start, seed) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`StratifiedTimerSampler::new`].
    ///
    /// # Errors
    /// [`BuildError::ZeroPeriod`] if `period` is zero.
    pub fn try_new(period: Micros, start: Micros, seed: u64) -> Result<Self, BuildError> {
        if period.as_u64() == 0 {
            return Err(BuildError::ZeroPeriod);
        }
        let mut s = StratifiedTimerSampler {
            period: period.as_u64(),
            start: start.as_u64(),
            seed,
            rng: StdRng::seed_from_u64(seed),
            stratum: 0,
            fire_at: 0,
            fired: false,
        };
        s.draw_firing();
        Ok(s)
    }

    /// Draw the firing time for the current stratum. Saturating: a
    /// stratum whose window starts beyond representable time parks the
    /// firing at `u64::MAX` instead of wrapping into the past.
    fn draw_firing(&mut self) {
        let offset = self.rng.random_range(0..self.period);
        self.fire_at = self
            .start
            .saturating_add(self.stratum.saturating_mul(self.period))
            .saturating_add(offset);
        self.fired = false;
    }

    /// Advance strata until the current one is `target` or later,
    /// re-drawing firing times for each skipped stratum (the timer kept
    /// running while no packets arrived). A jump past
    /// [`Self::MAX_CATCHUP_DRAWS`] strata reseeds the stream
    /// deterministically from `(seed, target)` instead of replaying one
    /// draw per skipped stratum, bounding each decision at O(1).
    fn advance_to_stratum(&mut self, target: u64) {
        if target.saturating_sub(self.stratum) > Self::MAX_CATCHUP_DRAWS {
            self.rng =
                StdRng::seed_from_u64(self.seed ^ target.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            self.stratum = target;
            self.draw_firing();
            return;
        }
        while self.stratum < target {
            self.stratum += 1;
            self.draw_firing();
        }
    }
}

impl Timer for StratifiedTimerSampler {
    /// The pending firing, or the next stratum's start once the current
    /// stratum's firing has selected. A pending firing lies inside the
    /// current stratum, so a packet that would roll the stratum over
    /// reaches it first.
    fn wake(&self) -> u64 {
        if self.fired {
            self.start
                .saturating_add(self.stratum.saturating_add(1).saturating_mul(self.period))
        } else {
            self.fire_at
        }
    }

    fn offer_ts(&mut self, ts: u64) -> bool {
        if ts < self.start {
            return false;
        }
        let pkt_stratum = (ts - self.start) / self.period;

        // If the packet has moved past the stratum holding the pending
        // firing and that firing already selected (or the packet is in a
        // later stratum than an unfired timer whose chance has not yet
        // come — it still fires: select-next-packet semantics), handle
        // arming first.
        if !self.fired && ts >= self.fire_at {
            // The timer expired at fire_at (possibly strata ago); this is
            // the next packet to arrive. Select it, then move the schedule
            // to the stratum after this packet.
            self.fired = true;
            self.advance_to_stratum(pkt_stratum.saturating_add(1));
            return true;
        }
        if pkt_stratum > self.stratum {
            // Stratum rolled over without (or after) firing; catch up and
            // re-check arming against the fresh firing time.
            self.advance_to_stratum(pkt_stratum);
            if ts >= self.fire_at {
                self.fired = true;
                self.advance_to_stratum(pkt_stratum.saturating_add(1));
                return true;
            }
        }
        false
    }
}

impl Sampler for StratifiedTimerSampler {
    fn offer_ts_batch(&mut self, base: usize, ts: &[u64], out: &mut Vec<usize>) {
        offer_from_wakes(self, base, ts, out);
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.stratum = 0;
        self.draw_firing();
    }

    fn method_name(&self) -> &'static str {
        "strat-timer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::select_indices;
    use nettrace::PacketRecord;

    fn regular_packets(n: usize, spacing: u64) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::new(Micros(i as u64 * spacing), 40))
            .collect()
    }

    #[test]
    fn systematic_timer_regular_stream() {
        // Packets every 100us, timer every 1000us: one selection per
        // 10 packets.
        let pkts = regular_packets(100, 100);
        let mut s = SystematicTimerSampler::new(Micros(1000), Micros(0));
        let sel = select_indices(&mut s, &pkts);
        assert_eq!(sel, vec![0, 10, 20, 30, 40, 50, 60, 70, 80, 90]);
    }

    #[test]
    fn systematic_timer_selects_next_after_idle() {
        // A long silence spanning several periods still yields exactly
        // one selection when traffic resumes.
        let pkts = vec![
            PacketRecord::new(Micros(0), 40),
            PacketRecord::new(Micros(10_000), 40), // 10 periods later
            PacketRecord::new(Micros(10_100), 40),
        ];
        let mut s = SystematicTimerSampler::new(Micros(1000), Micros(0));
        let sel = select_indices(&mut s, &pkts);
        assert_eq!(sel, vec![0, 1]);
    }

    #[test]
    fn systematic_timer_phase_shifts_selection() {
        let pkts = regular_packets(50, 100);
        let a = select_indices(
            &mut SystematicTimerSampler::new(Micros(1000), Micros(0)),
            &pkts,
        );
        let b = select_indices(
            &mut SystematicTimerSampler::new(Micros(1000), Micros(500)),
            &pkts,
        );
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn systematic_timer_length_bias() {
        // Alternating short/long gaps: the packet after the long gap is
        // always the one selected when the timer spans the burst —
        // the bias the paper blames for skewed interarrival samples.
        // Bursts of 10 packets 10us apart, then 10_000us silence.
        let mut pkts = Vec::new();
        let mut t = 0u64;
        for _burst in 0..20 {
            for _ in 0..10 {
                pkts.push(PacketRecord::new(Micros(t), 40));
                t += 10;
            }
            t += 10_000;
        }
        let mut s = SystematicTimerSampler::new(Micros(5_000), Micros(0));
        let sel = select_indices(&mut s, &pkts);
        // Burst heads (post-gap packets) are indices 0, 10, 20, …
        let heads = sel.iter().filter(|&&i| i % 10 == 0).count();
        assert!(
            heads * 2 > sel.len(),
            "timer selection should over-represent post-gap packets: {heads}/{}",
            sel.len()
        );
    }

    #[test]
    fn stratified_timer_one_per_stratum_under_dense_traffic() {
        // Dense regular packets: every stratum's firing finds a packet in
        // that same stratum -> exactly one selection per full stratum.
        let pkts = regular_packets(1000, 10); // 10us spacing, 10ms total
        for seed in 0..10 {
            let mut s = StratifiedTimerSampler::new(Micros(1000), Micros(0), seed);
            let sel = select_indices(&mut s, &pkts);
            // A firing in the last 10us of a stratum slides its selection
            // into the next stratum and consumes that stratum's firing
            // (select-next-packet semantics), so 10 strata yield 9 or 10
            // selections.
            assert!((9..=10).contains(&sel.len()), "seed {seed}: {}", sel.len());
            // Selected packets land in distinct strata.
            let strata: std::collections::HashSet<u64> = sel
                .iter()
                .map(|&i| pkts[i].timestamp.as_u64() / 1000)
                .collect();
            assert_eq!(strata.len(), sel.len(), "seed {seed}");
        }
    }

    #[test]
    fn stratified_timer_varies_with_seed() {
        let pkts = regular_packets(1000, 10);
        let a = select_indices(
            &mut StratifiedTimerSampler::new(Micros(1000), Micros(0), 1),
            &pkts,
        );
        let b = select_indices(
            &mut StratifiedTimerSampler::new(Micros(1000), Micros(0), 2),
            &pkts,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn stratified_timer_idle_strata_yield_single_selection() {
        let pkts = vec![
            PacketRecord::new(Micros(100), 40),
            PacketRecord::new(Micros(50_000), 40),
            PacketRecord::new(Micros(50_001), 40),
        ];
        for seed in 0..30 {
            let mut s = StratifiedTimerSampler::new(Micros(1000), Micros(0), seed);
            let sel = select_indices(&mut s, &pkts);
            // At most one selection per packet; the long idle gap must not
            // produce a burst of selections when traffic resumes.
            assert!(sel.len() <= 2, "seed {seed}: {sel:?}");
            assert!(!sel.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn resets_are_reproducible() {
        let pkts = regular_packets(500, 37);
        let mut s1 = SystematicTimerSampler::new(Micros(777), Micros(0));
        let a = select_indices(&mut s1, &pkts);
        s1.reset();
        assert_eq!(a, select_indices(&mut s1, &pkts));

        let mut s2 = StratifiedTimerSampler::new(Micros(777), Micros(0), 5);
        let b = select_indices(&mut s2, &pkts);
        s2.reset();
        assert_eq!(b, select_indices(&mut s2, &pkts));
    }

    #[test]
    fn packets_before_start_are_ignored() {
        let pkts = regular_packets(10, 100); // t = 0..900
        let mut s = SystematicTimerSampler::new(Micros(100), Micros(10_000));
        assert!(select_indices(&mut s, &pkts).is_empty());
        let mut s = StratifiedTimerSampler::new(Micros(100), Micros(10_000), 0);
        assert!(select_indices(&mut s, &pkts).is_empty());
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        let _ = SystematicTimerSampler::new(Micros(0), Micros(0));
    }

    #[test]
    fn try_new_rejects_zero_period() {
        assert!(SystematicTimerSampler::try_new(Micros(0), Micros(0)).is_err());
        assert!(StratifiedTimerSampler::try_new(Micros(0), Micros(0), 1).is_err());
        assert!(SystematicTimerSampler::try_new(Micros(1), Micros(0)).is_ok());
    }

    #[test]
    fn systematic_timer_survives_u64_max_timestamp() {
        // Minimized from the fault-injection harness: re-arming after a
        // selection at t = u64::MAX used to overflow computing the next
        // firing time (debug abort; wrap → select-everything in release).
        let pkts = vec![
            PacketRecord::new(Micros(0), 40),
            PacketRecord::new(Micros(u64::MAX), 40),
        ];
        for period in [1, 1000, u64::MAX] {
            let mut s = SystematicTimerSampler::new(Micros(period), Micros(0));
            let sel = select_indices(&mut s, &pkts);
            assert!(!sel.is_empty(), "period {period}");
        }
    }

    #[test]
    fn stratified_timer_survives_huge_timestamp_jump() {
        // Minimized from the fault-injection harness: a jump to
        // t = u64::MAX with a 1 µs period used to replay one RNG draw per
        // skipped stratum (~1.8 × 10¹⁹ of them) and overflow the firing
        // arithmetic. Must finish instantly and select at most once per
        // packet.
        let pkts = vec![
            PacketRecord::new(Micros(0), 40),
            PacketRecord::new(Micros(u64::MAX), 40),
            PacketRecord::new(Micros(u64::MAX), 40),
        ];
        for seed in 0..5 {
            let mut s = StratifiedTimerSampler::new(Micros(1), Micros(0), seed);
            let sel = select_indices(&mut s, &pkts);
            assert!(sel.len() <= pkts.len(), "seed {seed}: {sel:?}");
        }
    }

    #[test]
    fn stratified_timer_catchup_reseed_is_deterministic() {
        // The O(1) catch-up path must give the same selections on every
        // run (and after reset) even though it skips the per-stratum
        // replay.
        let pkts = vec![
            PacketRecord::new(Micros(0), 40),
            PacketRecord::new(Micros(10_u64.pow(15)), 40),
            PacketRecord::new(Micros(10_u64.pow(15) + 3), 40),
        ];
        let mut s = StratifiedTimerSampler::new(Micros(2), Micros(0), 9);
        let a = select_indices(&mut s, &pkts);
        s.reset();
        let b = select_indices(&mut s, &pkts);
        assert_eq!(a, b);
    }

    #[test]
    fn small_catchups_replay_per_stratum_draws() {
        // Gaps below the catch-up threshold must keep the historical
        // draw-per-stratum stream: compare against a manual replay of the
        // same gap one stratum at a time.
        let pkts: Vec<PacketRecord> = (0..200)
            .map(|i| PacketRecord::new(Micros(i * 997), 40))
            .collect();
        let mut gap = vec![PacketRecord::new(Micros(0), 40)];
        gap.extend(
            pkts.iter()
                .map(|p| PacketRecord::new(Micros(p.timestamp.as_u64() + 40_000), 40)),
        );
        let mut s = StratifiedTimerSampler::new(Micros(100), Micros(0), 3);
        let sel = select_indices(&mut s, &gap);
        s.reset();
        let again = select_indices(&mut s, &gap);
        assert_eq!(sel, again, "per-stratum replay must be stable");
    }

    /// The systematic timer with the re-arm written out as one division
    /// per firing: the first scheduled firing strictly after the
    /// selected packet, saturating at `u64::MAX`.
    fn systematic_reference(period: u64, start: u64, ts: &[u64]) -> Vec<usize> {
        let mut next_fire = start;
        let mut out = Vec::new();
        for (i, &t) in ts.iter().enumerate() {
            if t < next_fire {
                continue;
            }
            out.push(i);
            next_fire = ((t - start) / period)
                .checked_add(1)
                .and_then(|ticks| ticks.checked_mul(period))
                .and_then(|offset| start.checked_add(offset))
                .unwrap_or(u64::MAX);
        }
        out
    }

    /// A seeded hostile column for a timer of `period` anchored at
    /// `start`: ordinary in-stratum steps, idle gaps of a few periods,
    /// equal runs, backward jumps, gaps at and past
    /// `MAX_CATCHUP_DRAWS` strata and jumps to `u64::MAX`, beginning
    /// up to three periods before `start`. One column in eight is
    /// drawn unsorted, anywhere between the start's neighbourhood and
    /// `u64::MAX`.
    fn hostile_timer_column(rng: &mut StdRng, period: u64, start: u64) -> Vec<u64> {
        let n = rng.random_range(1..160usize);
        let lead = period.min(1 << 20).saturating_mul(3);
        let mut t = start.saturating_sub(rng.random_range(0..=lead));
        if rng.random_range(0..8u32) == 0 {
            return (0..n)
                .map(|_| match rng.random_range(0..4u32) {
                    0 => u64::MAX,
                    1 => rng.random_range(t..=u64::MAX),
                    _ => t.saturating_add(rng.random_range(0..=lead.saturating_mul(8))),
                })
                .collect();
        }
        let catchup = StratifiedTimerSampler::MAX_CATCHUP_DRAWS;
        (0..n)
            .map(|_| {
                t = match rng.random_range(0..100u32) {
                    0..=54 => t.saturating_add(rng.random_range(0..=period / 4)),
                    55..=74 => t
                        .saturating_add(period.saturating_mul(rng.random_range(1..20)))
                        .saturating_add(rng.random_range(0..=period / 2)),
                    75..=84 => t,
                    85..=91 => t.saturating_sub(rng.random_range(0..=period.saturating_mul(3))),
                    92 => t.saturating_add(
                        period.saturating_mul(catchup - 1 + rng.random_range(0..3)),
                    ),
                    93..=96 => t.saturating_add(
                        period.saturating_mul(rng.random_range(catchup * 2..1 << 40)),
                    ),
                    _ => u64::MAX,
                };
                t
            })
            .collect()
    }

    /// Offer `ts` to `s` through `offer_ts_batch` in runs of random
    /// length, collecting the selected indices.
    fn offer_in_runs(s: &mut dyn Sampler, ts: &[u64], rng: &mut StdRng) -> Vec<usize> {
        let mut out = Vec::new();
        let mut at = 0;
        while at < ts.len() {
            let len = match rng.random_range(0..4u32) {
                0 => 1,
                1 => ts.len() - at,
                _ => rng.random_range(1..=ts.len() - at),
            };
            s.offer_ts_batch(at, &ts[at..at + len], &mut out);
            at += len;
        }
        out
    }

    #[test]
    fn batch_decisions_match_per_packet_reference_on_hostile_columns() {
        let mut rng = StdRng::seed_from_u64(1993);
        for case in 0..3_000 {
            let period = match rng.random_range(0..5u32) {
                0 => 1,
                1 => u64::MAX - rng.random_range(0..4),
                2 => rng.random_range(2..=64),
                _ => rng.random_range(65..=1_000_000),
            };
            let start = match rng.random_range(0..4u32) {
                0 => 0,
                1 => rng.random_range(0..1 << 30),
                2 => rng.random(),
                _ => u64::MAX - rng.random_range(0..1 << 20),
            };
            let seed = rng.random();
            let ts = hostile_timer_column(&mut rng, period, start);

            let mut sys = SystematicTimerSampler::new(Micros(period), Micros(start));
            assert_eq!(
                offer_in_runs(&mut sys, &ts, &mut rng),
                systematic_reference(period, start, &ts),
                "case {case}: sys-timer period {period} start {start} ts {ts:?}"
            );

            let mut reference = StratifiedTimerSampler::new(Micros(period), Micros(start), seed);
            let want: Vec<usize> = (0..ts.len())
                .filter(|&i| reference.offer_ts(ts[i]))
                .collect();
            let mut strat = StratifiedTimerSampler::new(Micros(period), Micros(start), seed);
            assert_eq!(
                offer_in_runs(&mut strat, &ts, &mut rng),
                want,
                "case {case}: strat-timer period {period} start {start} seed {seed} ts {ts:?}"
            );
        }
    }
}
