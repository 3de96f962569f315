//! Runtime self-telemetry: a background sampler thread that keeps
//! process gauges (`proc_rss_kb`, `proc_rss_max_kb`, `proc_open_fds`)
//! fresh, derives windowed per-second rates from the streaming
//! counters (`stream_packets_per_sec`, `stream_windows_per_sec`), and
//! records each tick into the series store, which holds the history —
//! plus the *ingest watermark* the `/healthz` endpoint reports
//! staleness against.
//!
//! Everything here is std-only. RSS comes from `/proc/self/status`
//! (`VmRSS:` is already in kB; `/proc/self/statm` reports pages and the
//! page size is not reachable without libc), fd count from the entry
//! count of `/proc/self/fd`. On platforms without procfs both readers
//! return `None` and the gauges simply stay at zero.

use crate::metrics::{Counter, Gauge};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Microseconds since the Unix epoch.
#[must_use]
pub fn wall_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Process-wide sampler cadence in ms (see
/// [`set_default_interval_ms`]).
static DEFAULT_INTERVAL_MS: AtomicU64 = AtomicU64::new(200);

/// Override the sampler cadence (ms, clamped to >= 1) that
/// [`ensure_global`] starts with and `/series` reports. Set this
/// **before** [`ensure_global`] — a sampler already running keeps its
/// original interval.
pub fn set_default_interval_ms(ms: u64) {
    DEFAULT_INTERVAL_MS.store(ms.max(1), Ordering::Release);
}

/// The current default sampler cadence in ms.
#[must_use]
pub fn default_interval_ms() -> u64 {
    DEFAULT_INTERVAL_MS.load(Ordering::Acquire)
}

/// Windowed per-second rate of a counter between two readings,
/// **counter-reset-aware**: when `cur < prev` (registry reset, process
/// restart behind the same scrape address) the delta clamps to 0
/// instead of wrapping into a huge spurious rate. `None` when no time
/// elapsed.
#[must_use]
pub fn counter_rate_per_sec(prev: u64, cur: u64, dt_us: u64) -> Option<f64> {
    if dt_us == 0 {
        return None;
    }
    Some(cur.saturating_sub(prev) as f64 / (dt_us as f64 / 1e6))
}

/// Wall-clock µs of the most recent ingest, 0 = never.
static LAST_INGEST_US: AtomicU64 = AtomicU64::new(0);

/// Record "ingest happened now" — the liveness watermark `/healthz`
/// compares against. Call once per batch, not per packet.
pub fn touch_ingest() {
    LAST_INGEST_US.store(wall_us().max(1), Ordering::Release);
}

/// Wall-clock µs of the last [`touch_ingest`], `None` if never called.
#[must_use]
pub fn last_ingest_us() -> Option<u64> {
    match LAST_INGEST_US.load(Ordering::Acquire) {
        0 => None,
        v => Some(v),
    }
}

/// Time since the last ingest, `None` if ingest never happened.
#[must_use]
pub fn ingest_staleness_us() -> Option<u64> {
    last_ingest_us().map(|t| wall_us().saturating_sub(t))
}

/// Resident set size in kB from `/proc/self/status` (`VmRSS:`), `None`
/// off-Linux or before the first page fault table is populated.
#[must_use]
pub fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            return rest
                .trim()
                .strip_suffix("kB")
                .map(str::trim)
                .and_then(|v| v.parse().ok());
        }
    }
    None
}

/// Number of open file descriptors (entries in `/proc/self/fd`),
/// `None` off-Linux.
#[must_use]
pub fn open_fds() -> Option<u64> {
    std::fs::read_dir("/proc/self/fd")
        .ok()
        .map(|d| d.count() as u64)
}

/// The counter → gauge rate derivations the sampler maintains: each
/// tick sets the gauge to the counter's per-second rate since the
/// previous tick.
const RATES: [(&str, &str); 2] = [
    ("stream_packets_ingested_total", "stream_packets_per_sec"),
    ("stream_windows_scored_total", "stream_windows_per_sec"),
];

struct RateTrack {
    counter: Counter,
    gauge: Gauge,
    prev: u64,
    prev_us: u64,
}

struct Shared {
    rates: Mutex<Vec<RateTrack>>,
    rss_gauge: Gauge,
    rss_max_gauge: Gauge,
    fds_gauge: Gauge,
    ticks: Counter,
    stop: Mutex<bool>,
    wake: Condvar,
}

impl Shared {
    fn tick(&self) {
        let now = wall_us();
        let rss = i64::try_from(rss_kb().unwrap_or(0)).unwrap_or(i64::MAX);
        let fds = open_fds().unwrap_or(0);
        self.rss_gauge.set(rss);
        self.rss_max_gauge.set_max(rss);
        self.fds_gauge.set(i64::try_from(fds).unwrap_or(i64::MAX));
        self.ticks.inc();
        {
            let mut rates = self.rates.lock().expect("telemetry rates poisoned");
            for t in rates.iter_mut() {
                let v = t.counter.get();
                let dt_us = now.saturating_sub(t.prev_us);
                if let Some(per_sec) = counter_rate_per_sec(t.prev, v, dt_us) {
                    t.gauge.set(per_sec.round() as i64);
                }
                t.prev = v;
                t.prev_us = now;
            }
        }
        // With the tick's gauges fresh and no locks held, feed the
        // series store (and through it the alert engine), if installed.
        crate::series::on_tick(now);
    }
}

/// Handle to a running sampler thread. Dropping it stops the thread.
pub struct Telemetry {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("max_rss_kb", &self.max_rss_kb())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Start a sampler thread ticking every `interval` (at least 1 ms);
    /// the first tick happens immediately so gauges are populated
    /// before the caller proceeds. Outside tests, [`ensure_global`]
    /// starts the one sampler.
    #[must_use]
    pub(crate) fn start(interval: Duration) -> Telemetry {
        let now = wall_us();
        let rates = RATES
            .iter()
            .map(|&(counter, gauge)| RateTrack {
                counter: crate::counter(counter),
                gauge: crate::gauge(gauge),
                prev: 0,
                prev_us: now,
            })
            .collect();
        let shared = Arc::new(Shared {
            rates: Mutex::new(rates),
            rss_gauge: crate::gauge("proc_rss_kb"),
            rss_max_gauge: crate::gauge("proc_rss_max_kb"),
            fds_gauge: crate::gauge("proc_open_fds"),
            ticks: crate::counter("telemetry_samples_total"),
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        shared.tick();
        let interval = interval.max(Duration::from_millis(1));
        let worker = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("obskit-telemetry".to_string())
            .spawn(move || loop {
                {
                    // The predicate is checked before the first wait, so
                    // a stop set before this thread locked is not lost.
                    let stopped = worker.stop.lock().expect("telemetry stop poisoned");
                    let (stopped, _) = worker
                        .wake
                        .wait_timeout_while(stopped, interval, |stopped| !*stopped)
                        .expect("telemetry stop poisoned");
                    if *stopped {
                        return;
                    }
                }
                worker.tick();
            })
            .expect("spawn telemetry thread");
        Telemetry {
            shared,
            thread: Some(thread),
        }
    }

    /// Force a tick from the calling thread (end-of-run flush so
    /// `max_rss_kb` includes the final state; per-round pushes into the
    /// series rings).
    pub fn sample_now(&self) {
        self.shared.tick();
    }

    /// Highest RSS (kB) any tick has seen: the `proc_rss_max_kb` gauge.
    #[must_use]
    pub fn max_rss_kb(&self) -> u64 {
        u64::try_from(self.shared.rss_max_gauge.get()).unwrap_or(0)
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            *self.shared.stop.lock().expect("telemetry stop poisoned") = true;
            self.shared.wake.notify_all();
            let _ = thread.join();
        }
    }
}

static GLOBAL_TELEMETRY: OnceLock<Telemetry> = OnceLock::new();

/// Start the telemetry plane: install the global series store, then
/// start the process-wide sampler at [`default_interval_ms`] if it is
/// not already running; either way return the sampler. The store comes
/// first, so the sampler's first tick (taken before this returns) is
/// already in its rings. The global sampler runs until process exit.
pub fn ensure_global() -> &'static Telemetry {
    crate::series::ensure_global_series();
    GLOBAL_TELEMETRY.get_or_init(|| Telemetry::start(Duration::from_millis(default_interval_ms())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_rate_is_reset_aware() {
        // Normal progression: 500 in half a second = 1000/s.
        assert_eq!(counter_rate_per_sec(1000, 1500, 500_000), Some(1000.0));
        // Counter reset (cur < prev): clamp to 0, never a spurious
        // huge rate from wraparound arithmetic.
        assert_eq!(counter_rate_per_sec(1500, 10, 500_000), Some(0.0));
        // No elapsed time: undefined, not a division by zero.
        assert_eq!(counter_rate_per_sec(0, 100, 0), None);
    }

    #[test]
    fn default_interval_is_configurable_and_clamped() {
        let original = default_interval_ms();
        set_default_interval_ms(50);
        assert_eq!(default_interval_ms(), 50);
        set_default_interval_ms(0);
        assert_eq!(default_interval_ms(), 1, "0 clamps to 1ms");
        set_default_interval_ms(original);
    }

    #[test]
    fn watermark_moves_forward() {
        assert!(ingest_staleness_us().is_none() || last_ingest_us().is_some());
        touch_ingest();
        let first = last_ingest_us().expect("watermark set");
        std::thread::sleep(Duration::from_millis(2));
        touch_ingest();
        let second = last_ingest_us().expect("watermark set");
        assert!(second > first);
        assert!(ingest_staleness_us().expect("stale") < 1_000_000);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn proc_readers_return_plausible_values() {
        let rss = rss_kb().expect("VmRSS on linux");
        assert!(rss > 100, "rss {rss} kB implausibly small");
        let fds = open_fds().expect("fd dir on linux");
        assert!(fds >= 3, "stdio alone gives 3 fds, got {fds}");
    }

    #[test]
    fn sampler_tracks_max_rss_and_derives_rates() {
        // A cadence far beyond the test's length: every tick after the
        // first is a `sample_now`, so the rate sees exactly our delta.
        let t = Telemetry::start(Duration::from_secs(3600));
        let ticks = crate::counter("telemetry_samples_total").get();
        crate::counter("stream_packets_ingested_total").add(1000);
        std::thread::sleep(Duration::from_millis(2));
        t.sample_now();
        assert!(crate::counter("telemetry_samples_total").get() > ticks);
        assert!(crate::gauge("stream_packets_per_sec").get() > 0);
        #[cfg(target_os = "linux")]
        {
            assert!(t.max_rss_kb() > 0);
            assert!(crate::gauge("proc_rss_kb").get() > 0);
            assert!(crate::gauge("proc_rss_max_kb").get() >= crate::gauge("proc_rss_kb").get());
        }
        drop(t); // joins the thread
    }

    #[test]
    fn dropping_a_sampler_never_waits_out_its_interval() {
        // Each drop follows its start at once, so its stop usually lands
        // before the thread first waits; the thread must still see it.
        let (done, finished) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            for _ in 0..20 {
                drop(Telemetry::start(Duration::from_secs(3600)));
            }
            done.send(()).expect("the test is waiting");
        });
        assert!(
            finished.recv_timeout(Duration::from_secs(10)).is_ok(),
            "20 sampler drops took over 10 s"
        );
        helper.join().expect("helper thread");
    }
}
