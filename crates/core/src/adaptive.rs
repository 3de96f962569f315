//! Adaptive (load-responsive) sampling — an operational extension.
//!
//! The paper's §2 problem is a *fixed* mismatch: the categorization
//! processor has constant capacity while offered load grows, so the
//! operator had to pick a new fixed interval (1-in-50) by hand. The
//! natural next step — and what later operational samplers did — is to
//! let the sampler adjust its own interval so the selected-packet rate
//! tracks a budget:
//!
//! * each control period (one second here, matching the capacity
//!   accounting of the collector model), compare the number of selections
//!   against the budget;
//! * over budget → **multiplicative increase** of the interval (load can
//!   spike fast);
//! * comfortably under budget → **additive decrease** (recover resolution
//!   slowly).
//!
//! The controller wraps the systematic sampler, so between adjustments
//! the selection pattern is exactly the paper's operational method, and
//! every sample remains a valid (piecewise-systematic) sample whose
//! effective fraction is known per period — which is what an estimator
//! needs to scale counts back up.

use crate::sampler::Sampler;

/// Configuration for the AIMD interval controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Target selections per control period (the processor's budget).
    pub budget_per_period: u32,
    /// Control period in microseconds (default: one second).
    pub period_us: u64,
    /// Multiplicative factor applied to the interval when over budget.
    pub increase_factor: f64,
    /// Amount subtracted from the interval when under half budget.
    pub decrease_step: usize,
    /// Interval bounds.
    pub min_interval: usize,
    /// Upper bound on the interval.
    pub max_interval: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            budget_per_period: 20,
            period_us: 1_000_000,
            increase_factor: 2.0,
            decrease_step: 1,
            min_interval: 1,
            max_interval: 1 << 20,
        }
    }
}

impl AdaptiveConfig {
    /// Sanity-check the knobs.
    ///
    /// # Panics
    /// Panics on degenerate values.
    pub fn validate(&self) {
        assert!(self.budget_per_period > 0, "budget must be positive");
        assert!(self.period_us > 0, "period must be positive");
        assert!(self.increase_factor > 1.0, "increase factor must exceed 1");
        assert!(self.decrease_step >= 1, "decrease step must be >= 1");
        assert!(
            1 <= self.min_interval && self.min_interval <= self.max_interval,
            "interval bounds must satisfy 1 <= min <= max"
        );
    }
}

/// A systematic sampler whose interval adapts to hold the selection rate
/// near a budget.
#[derive(Debug, Clone)]
pub struct AdaptiveSampler {
    config: AdaptiveConfig,
    interval: usize,
    initial_interval: usize,
    counter: usize,
    period_start: Option<u64>,
    selected_this_period: u32,
    adjustments: u32,
}

impl AdaptiveSampler {
    /// Start with the given interval and controller configuration.
    ///
    /// # Panics
    /// Panics if the configuration is degenerate or the starting interval
    /// is outside its bounds.
    #[must_use]
    pub fn new(initial_interval: usize, config: AdaptiveConfig) -> Self {
        config.validate();
        assert!(
            (config.min_interval..=config.max_interval).contains(&initial_interval),
            "initial interval outside configured bounds"
        );
        AdaptiveSampler {
            config,
            interval: initial_interval,
            initial_interval,
            counter: 0,
            period_start: None,
            selected_this_period: 0,
            adjustments: 0,
        }
    }

    /// The interval currently in force.
    #[must_use]
    pub fn current_interval(&self) -> usize {
        self.interval
    }

    /// How many times the controller has changed the interval.
    #[must_use]
    pub fn adjustments(&self) -> u32 {
        self.adjustments
    }

    /// Close the current control period and adapt.
    fn end_period(&mut self) {
        let old = self.interval;
        if self.selected_this_period > self.config.budget_per_period {
            let next = (self.interval as f64 * self.config.increase_factor).ceil() as usize;
            self.interval = next.min(self.config.max_interval);
        } else if self.selected_this_period < self.config.budget_per_period / 2 {
            self.interval = self
                .interval
                .saturating_sub(self.config.decrease_step)
                .max(self.config.min_interval);
        }
        if self.interval != old {
            self.adjustments += 1;
            self.counter = 0;
        }
        self.selected_this_period = 0;
    }

    /// Close `idle` consecutive packet-free control periods in O(1).
    ///
    /// Each idle period sees zero selections, so the only state change
    /// per period is the additive decrease (when the dead band allows
    /// one) until the interval bottoms out at `min_interval` — which
    /// makes the net effect of any number of idle periods closed-form.
    /// A trace that jumps from one timestamp to `u64::MAX` would
    /// otherwise spin ~10¹³ `end_period` calls here.
    fn idle_periods(&mut self, idle: u64) {
        if idle == 0 || self.config.budget_per_period / 2 == 0 {
            // budget 1: zero selections is not "under half budget", so
            // idle periods leave the interval untouched.
            return;
        }
        let gap = self.interval - self.config.min_interval;
        let steps_needed = gap.div_ceil(self.config.decrease_step) as u64;
        let applied = steps_needed.min(idle);
        if applied > 0 {
            self.interval = self
                .interval
                .saturating_sub(self.config.decrease_step.saturating_mul(applied as usize))
                .max(self.config.min_interval);
            self.adjustments = self
                .adjustments
                .saturating_add(u32::try_from(applied).unwrap_or(u32::MAX));
            self.counter = 0;
        }
        self.selected_this_period = 0;
    }
}

impl Sampler for AdaptiveSampler {
    fn offer_ts_batch(&mut self, base: usize, ts: &[u64], out: &mut Vec<usize>) {
        for (i, &t) in ts.iter().enumerate() {
            match self.period_start {
                None => self.period_start = Some(t),
                Some(start) => {
                    // Saturating: a non-monotone timestamp before the
                    // period start closes nothing, and a start near
                    // u64::MAX must not wrap the comparison.
                    let elapsed = t.saturating_sub(start) / self.config.period_us;
                    if elapsed > 0 {
                        // Close the period that actually saw traffic with
                        // its real counts, then the remaining packet-free
                        // periods in closed form (each sees zero
                        // selections and decreases the interval until it
                        // floors).
                        self.end_period();
                        self.idle_periods(elapsed - 1);
                        self.period_start = Some(
                            start.saturating_add(elapsed.saturating_mul(self.config.period_us)),
                        );
                    }
                }
            }
            let selected = self.counter.is_multiple_of(self.interval);
            self.counter += 1;
            if selected {
                self.selected_this_period += 1;
                out.push(base + i);
            }
        }
    }

    fn reset(&mut self) {
        self.interval = self.initial_interval;
        self.counter = 0;
        self.period_start = None;
        self.selected_this_period = 0;
        self.adjustments = 0;
    }

    fn method_name(&self) -> &'static str {
        "adaptive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::{Micros, PacketRecord};

    /// `rate` packets/second for `secs` seconds.
    fn stream(rate: u64, secs: u64, start_sec: u64) -> Vec<PacketRecord> {
        let mut v = Vec::new();
        for s in 0..secs {
            for i in 0..rate {
                v.push(PacketRecord::new(
                    Micros((start_sec + s) * 1_000_000 + i * (1_000_000 / rate)),
                    232,
                ));
            }
        }
        v
    }

    fn cfg(budget: u32) -> AdaptiveConfig {
        AdaptiveConfig {
            budget_per_period: budget,
            ..AdaptiveConfig::default()
        }
    }

    #[test]
    fn steady_load_converges_to_budget() {
        // 1000 pps, budget 20/s -> interval should settle near 50.
        let pkts = stream(1000, 60, 0);
        let mut s = AdaptiveSampler::new(1, cfg(20));
        let mut per_second = vec![0u32; 60];
        for p in &pkts {
            if s.offer(p) {
                per_second[p.timestamp.whole_secs() as usize] += 1;
            }
        }
        // After convergence the selection rate sits in a band around the
        // budget.
        let tail: Vec<u32> = per_second[30..].to_vec();
        let avg = tail.iter().sum::<u32>() as f64 / tail.len() as f64;
        assert!(
            (10.0..=40.0).contains(&avg),
            "converged rate {avg}, intervals ended at {}",
            s.current_interval()
        );
        assert!((25..=100).contains(&s.current_interval()));
    }

    #[test]
    fn load_spike_backs_off_quickly() {
        // 100 pps for 10 s, then 10_000 pps for 10 s.
        let mut pkts = stream(100, 10, 0);
        pkts.extend(stream(10_000, 10, 10));
        let mut s = AdaptiveSampler::new(5, cfg(20));
        let mut selections_late = 0u32;
        for p in &pkts {
            let sel = s.offer(p);
            if sel && p.timestamp.whole_secs() >= 15 {
                selections_late += 1;
            }
        }
        // In the last 5 spike seconds the controller must have backed off
        // to near-budget rates.
        assert!(
            selections_late <= 5 * 45,
            "late selections {selections_late} (interval {})",
            s.current_interval()
        );
        assert!(s.current_interval() > 100);
        assert!(s.adjustments() > 0);
    }

    #[test]
    fn load_drop_recovers_resolution() {
        // Heavy then light: the interval should decrease again (slowly).
        let mut pkts = stream(5000, 5, 0);
        pkts.extend(stream(50, 60, 5));
        let mut s = AdaptiveSampler::new(1, cfg(20));
        let mut after_spike = usize::MAX;
        for p in &pkts {
            s.offer(p);
            if p.timestamp.whole_secs() == 5 {
                after_spike = after_spike.min(s.current_interval());
            }
        }
        assert!(
            s.current_interval() < after_spike,
            "interval should recover: spike {} end {}",
            after_spike,
            s.current_interval()
        );
    }

    #[test]
    fn never_violates_interval_bounds() {
        let config = AdaptiveConfig {
            budget_per_period: 5,
            min_interval: 2,
            max_interval: 64,
            ..AdaptiveConfig::default()
        };
        let mut pkts = stream(10_000, 3, 0);
        pkts.extend(stream(1, 10, 3));
        let mut s = AdaptiveSampler::new(4, config);
        for p in &pkts {
            s.offer(p);
            assert!((2..=64).contains(&s.current_interval()));
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let pkts = stream(1000, 5, 0);
        let mut s = AdaptiveSampler::new(3, cfg(10));
        for p in &pkts {
            s.offer(p);
        }
        assert_ne!(s.current_interval(), 3);
        s.reset();
        assert_eq!(s.current_interval(), 3);
        assert_eq!(s.adjustments(), 0);
    }

    #[test]
    fn behaves_systematically_within_a_period() {
        // With the selection rate inside the controller's dead band
        // (between budget/2 and budget) it never adjusts, and selection
        // is plain 1-in-k: 100 pps at 1-in-10 selects 10/s, budget 15.
        let pkts = stream(100, 2, 0);
        let mut s = AdaptiveSampler::new(10, cfg(15));
        let selected: Vec<usize> = pkts
            .iter()
            .enumerate()
            .filter_map(|(i, p)| s.offer(p).then_some(i))
            .collect();
        assert!(selected.iter().all(|i| i % 10 == 0));
        assert_eq!(s.adjustments(), 0);
    }

    #[test]
    #[should_panic(expected = "outside configured bounds")]
    fn bad_initial_interval_panics() {
        let config = AdaptiveConfig {
            min_interval: 10,
            ..AdaptiveConfig::default()
        };
        let _ = AdaptiveSampler::new(5, config);
    }

    #[test]
    fn survives_u64_max_timestamp_jump() {
        // Minimized from the fault-injection harness: a jump to
        // t = u64::MAX used to close ~1.8 × 10¹³ one-second control
        // periods in a loop (an effective hang) and overflow the
        // period-start arithmetic. The closed-form catch-up must floor
        // the interval at min_interval and return immediately.
        let mut s = AdaptiveSampler::new(64, cfg(20));
        assert!(s.offer(&PacketRecord::new(Micros(0), 40)));
        let _ = s.offer(&PacketRecord::new(Micros(u64::MAX), 40));
        assert_eq!(s.current_interval(), 1, "idle periods floor the interval");
        // Non-monotone follow-up (before the rolled-over period start)
        // must not underflow either.
        let _ = s.offer(&PacketRecord::new(Micros(5), 40));
    }

    #[test]
    fn idle_catchup_matches_looped_end_periods() {
        // The closed form must agree with literally closing each idle
        // period: 7 idle seconds at decrease_step 1 from interval 5.
        let pkts = [
            PacketRecord::new(Micros(0), 40),
            PacketRecord::new(Micros(8_000_000), 40),
        ];
        let mut s = AdaptiveSampler::new(5, cfg(20));
        for p in &pkts {
            s.offer(p);
        }
        // 8 elapsed periods: first closes the active period (interval
        // 5 → 4), then 7 idle periods decrease 4 → 1 (floored after 3).
        assert_eq!(s.current_interval(), 1);
        assert_eq!(s.adjustments(), 4);
    }

    #[test]
    #[should_panic(expected = "increase factor must exceed 1")]
    fn bad_factor_panics() {
        let config = AdaptiveConfig {
            increase_factor: 1.0,
            ..AdaptiveConfig::default()
        };
        config.validate();
    }
}
