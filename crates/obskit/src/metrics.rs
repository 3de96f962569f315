//! The three metric kinds: counter, gauge, log₂ histogram.
//!
//! All are `Arc`-shared atomics: cloning a handle is cheap, recording is
//! a relaxed atomic RMW, and snapshots can be taken concurrently with
//! writers (each field is read atomically; cross-field skew of a few
//! in-flight increments is acceptable for monitoring).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets: bucket `i` counts values `v` with
/// `floor(log2(max(v,1))) == i`, so bucket 0 is `[0,2)`, bucket 1 is
/// `[2,4)`, … bucket 63 is `[2^63, 2^64)`.
pub(crate) const BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter (registries hand out shared ones).
    #[must_use]
    pub fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An up/down gauge (signed).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh, unregistered gauge.
    #[must_use]
    pub fn new() -> Self {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise to `v` if `v` is larger (a high-water mark).
    pub(crate) fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A thread-local shard of a [`Counter`]: increments accumulate in a
/// plain (unsynchronized) cell and merge into the backing counter with
/// **one** atomic add — either explicitly via [`CounterShard::flush`] or
/// automatically on drop.
///
/// Worker pools hand each worker its own shard so hot loops pay a
/// non-atomic integer bump per event instead of a contended RMW; the
/// backing counter sees the per-worker sums exactly once, when the
/// workers drain. The shard is `Send` (a worker can be handed one) but
/// deliberately **not** `Sync` — shared use would lose increments, so
/// the `Cell` forbids it at compile time.
#[derive(Debug)]
pub struct CounterShard {
    backing: Counter,
    local: std::cell::Cell<u64>,
}

impl CounterShard {
    /// A shard feeding `backing`.
    #[must_use]
    pub fn new(backing: Counter) -> Self {
        CounterShard {
            backing,
            local: std::cell::Cell::new(0),
        }
    }

    /// Increment the local shard by one (no atomics).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment the local shard by `n` (no atomics).
    #[inline]
    pub fn add(&self, n: u64) {
        self.local.set(self.local.get().wrapping_add(n));
    }

    /// Increments accumulated locally and not yet flushed.
    #[must_use]
    pub fn pending(&self) -> u64 {
        self.local.get()
    }

    /// Merge the local count into the backing counter (one atomic add)
    /// and reset the shard to zero.
    pub fn flush(&self) {
        let n = self.local.replace(0);
        if n > 0 {
            self.backing.add(n);
        }
    }
}

impl Drop for CounterShard {
    fn drop(&mut self) {
        self.flush();
    }
}

#[derive(Debug)]
pub(crate) struct HistogramInner {
    pub(crate) buckets: [AtomicU64; BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) max: AtomicU64,
}

/// A log₂-bucketed histogram of nonnegative integer values (typically
/// durations in microseconds).
///
/// Bucket boundaries are powers of two, so recording is a `leading_zeros`
/// plus one atomic add — no allocation, no locks — at the cost of
/// ≤ 2× relative error on quantile estimates, which is plenty for
/// latency monitoring.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, unregistered histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    /// The bucket index for a value.
    #[inline]
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        63 - (value | 1).leading_zeros() as usize
    }

    /// The half-open value range `[lo, hi)` covered by bucket `i`
    /// (`hi` saturates at `u64::MAX` for the last bucket).
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        let lo = if i == 0 { 0 } else { 1u64 << i };
        let hi = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
        (lo, hi)
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, value: u64) {
        let inner = &*self.0;
        inner.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.0;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| inner.buckets[i].load(Ordering::Relaxed)),
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`Histogram::bucket_bounds`]).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation
    /// inside the bucket containing it — the bucket's observations are
    /// assumed evenly spread over its `[lo, hi)` range, so the estimate
    /// moves smoothly with `q` instead of jumping bucket-midpoint to
    /// bucket-midpoint; `None` on an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        // Saturating: per-bucket counts near u64::MAX must not wrap the
        // running total (they can only push it to the ceiling, which
        // still resolves the correct bucket for any reachable rank).
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let before = seen;
            seen = seen.saturating_add(c);
            if seen >= rank {
                let (lo, hi) = Histogram::bucket_bounds(i);
                // Position of the ranked observation among the bucket's
                // `c`, with a half-observation continuity correction so
                // the first maps near `lo` and the last stays below
                // `hi` (clamped in case `seen` saturated above).
                let frac = (((rank - before) as f64 - 0.5) / c as f64).clamp(0.0, 1.0);
                let est = (lo as f64 + (hi - lo) as f64 * frac) as u64;
                return Some(est.min(self.max).max(lo));
            }
        }
        Some(self.max)
    }

    /// Mean of recorded values (0 for an empty histogram).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let g = Gauge::new();
        g.set(5);
        g.add(-8);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(1023), 9);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
        // Bounds agree with the index function at every edge.
        for i in 0..BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i);
            if hi != u64::MAX {
                assert_eq!(Histogram::bucket_index(hi - 1), i);
                assert_eq!(Histogram::bucket_index(hi), i + 1);
            }
        }
    }

    #[test]
    fn histogram_records_and_estimates() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000, 10_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 11_106);
        assert_eq!(s.max, 10_000);
        // The median falls in bucket [2,4): estimate must be in range.
        let p50 = s.quantile(0.5).unwrap();
        assert!((2..4).contains(&p50), "p50 {p50}");
        // Extreme quantiles bracket the data.
        assert!(s.quantile(1.0).unwrap() <= 10_000);
        assert!(s.quantile(0.0).unwrap() >= 1);
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let s = Histogram::new().snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), None);
        }
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_bucket_quantiles_all_land_in_that_bucket() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(700); // bucket [512, 1024)
        }
        let s = h.snapshot();
        let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_index(700));
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            let v = s.quantile(q).unwrap();
            assert!(
                (lo..hi).contains(&v),
                "q{q} = {v} escaped bucket [{lo},{hi})"
            );
            // Estimates never exceed the observed max.
            assert!(v <= 700);
        }
    }

    #[test]
    fn interpolated_quantile_moves_smoothly_within_a_bucket() {
        // 100 observations in one bucket [512, 1024): interpolation must
        // be nondecreasing in q and sweep a wide span of the bucket,
        // where a bucket-midpoint estimate would return one constant.
        let mut buckets = [0u64; BUCKETS];
        let idx = Histogram::bucket_index(700);
        buckets[idx] = 100;
        let s = HistogramSnapshot {
            buckets,
            count: 100,
            sum: 70_000,
            max: 1023,
        };
        let (lo, hi) = Histogram::bucket_bounds(idx);
        let mut prev = 0u64;
        let mut distinct = std::collections::BTreeSet::new();
        for i in 0..=20 {
            let q = f64::from(i) / 20.0;
            let v = s.quantile(q).unwrap();
            assert!((lo..hi).contains(&v), "q {q} = {v}");
            assert!(v >= prev, "quantile not monotone at q {q}");
            prev = v;
            distinct.insert(v);
        }
        assert!(
            distinct.len() > 10,
            "only {} distinct values",
            distinct.len()
        );
    }

    #[test]
    fn interpolation_tracks_uniform_data_closely() {
        // Uniform values over one bucket: the interpolated median should
        // land near the true median (768 for uniform [512, 1024)).
        let mut buckets = [0u64; BUCKETS];
        let idx = Histogram::bucket_index(700);
        buckets[idx] = 512;
        let s = HistogramSnapshot {
            buckets,
            count: 512,
            sum: 0,
            max: 1023,
        };
        let p50 = s.quantile(0.5).unwrap();
        assert!((760..=776).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn saturating_counts_do_not_overflow_quantile() {
        // Hand-built snapshot whose bucket counts would wrap u64 if the
        // cumulative walk used unchecked addition.
        let mut buckets = [0u64; BUCKETS];
        buckets[3] = u64::MAX / 2 + 10; // values in [8,16)
        buckets[10] = u64::MAX / 2 + 10; // values in [1024,2048)
        let s = HistogramSnapshot {
            buckets,
            count: u64::MAX,
            sum: u64::MAX,
            max: 2_000,
        };
        // Low quantiles resolve to the first populated bucket, high
        // ones to the second; nothing panics or wraps.
        let q01 = s.quantile(0.01).unwrap();
        assert!((8..16).contains(&q01), "q0.01 = {q01}");
        let q99 = s.quantile(0.99).unwrap();
        assert!((1024..2048).contains(&q99), "q0.99 = {q99}");
        assert!(s.quantile(1.0).unwrap() <= 2_000);
    }

    #[test]
    fn quantile_clamps_out_of_range_inputs() {
        let h = Histogram::new();
        h.record(5);
        let s = h.snapshot();
        assert_eq!(s.quantile(-0.03), s.quantile(0.0));
        assert_eq!(s.quantile(2.5), s.quantile(1.0));
    }

    #[test]
    fn counter_shard_flushes_once_on_drop() {
        let c = Counter::new();
        {
            let shard = CounterShard::new(c.clone());
            shard.inc();
            shard.add(9);
            assert_eq!(shard.pending(), 10);
            // Nothing reaches the backing counter before flush/drop.
            assert_eq!(c.get(), 0);
        }
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn counter_shard_explicit_flush_resets_local() {
        let c = Counter::new();
        let shard = CounterShard::new(c.clone());
        shard.add(4);
        shard.flush();
        assert_eq!(c.get(), 4);
        assert_eq!(shard.pending(), 0);
        // A second flush with nothing pending is a no-op.
        shard.flush();
        assert_eq!(c.get(), 4);
        shard.add(2);
        drop(shard);
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let c = Counter::new();
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        let s = h.snapshot();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 80_000);
    }

    #[test]
    fn snapshot_while_writing_is_internally_plausible() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            let writer = h.clone();
            scope.spawn(move || {
                for i in 0..50_000u64 {
                    writer.record(i % 4096);
                }
            });
            for _ in 0..50 {
                let s = h.snapshot();
                // Bucket total can trail or lead `count` by in-flight
                // writers, but never exceeds the final total.
                assert!(s.buckets.iter().sum::<u64>() <= 50_000);
                assert!(s.count <= 50_000);
                assert!(s.max < 4096);
            }
        });
        assert_eq!(h.snapshot().count, 50_000);
    }
}
