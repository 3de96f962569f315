//! `obskit::series` — an on-board, bounded ring-buffer time-series
//! store over the global registry.
//!
//! Every telemetry tick ([`crate::telemetry`]) snapshots the registry
//! and appends one `(ts_us, value)` point per metric key to a bounded
//! per-key ring: counters and gauges record their value directly,
//! histograms expand to `<name>_count` and `<name>_sum` series. The
//! store is the substrate for three consumers:
//!
//! * `GET /series?name=&since=&step=` in [`crate::serve`] — JSON dumps
//!   with server-side systematic-`step` downsampling;
//! * the alert engine in [`crate::rules`], whose `value`/`rate`/
//!   `delta`/`stale` functions all read the rings;
//! * the **telemetry self-sampling φ check**: the paper scores a
//!   sampled packet stream against its parent population with the
//!   disparity metric φ = √(χ²ₚ/n) over log₂ histograms; the store
//!   applies the same protocol to its *own* series — systematic
//!   1-in-k downsamples (k = 2, 5, 10) of `proc_rss_kb` and
//!   `stream_channel_depth{stage="transform"}` are scored against the
//!   full ring and exported as `series_fidelity_phi_x1000{series,k}`
//!   gauges, so the fidelity of the monitoring path itself is
//!   characterized, not assumed.
//!
//! Memory is strictly bounded: at most 1,024 rings of 600 points each;
//! series beyond the cap are counted in `series_dropped_total` and
//! skipped.

use crate::metrics::Histogram;
use crate::registry::SnapshotValue;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, OnceLock};

/// Longest raw query string `parse_series_query` accepts.
pub const MAX_QUERY_LEN: usize = 2048;
/// Longest (decoded) value of a single query parameter.
pub const MAX_QUERY_VALUE_LEN: usize = 256;
/// Largest accepted `step` (systematic downsample stride).
pub const MAX_STEP: usize = 1_000_000;
/// Points retained per series ring (two minutes at the default 200 ms
/// telemetry cadence).
const CAPACITY: usize = 600;
/// Most distinct series the store keeps; later keys are dropped.
const MAX_SERIES: usize = 1024;
/// Series keys scored by the φ fidelity self-check each tick.
const FIDELITY_KEYS: [&str; 2] = ["proc_rss_kb", "stream_channel_depth{stage=\"transform\"}"];
/// Systematic downsample strides `k` scored per fidelity key.
const FIDELITY_KS: [usize; 3] = [2, 5, 10];

/// One recorded observation of one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Wall-clock µs of the tick that recorded the point.
    pub ts_us: u64,
    /// Metric value at that tick.
    pub value: f64,
}

struct Ring {
    points: VecDeque<SeriesPoint>,
    /// Wall-clock µs of the last point whose value differed from its
    /// predecessor (staleness watermark for `stale()` rules).
    last_change_us: u64,
}

/// Bounded per-metric time-series rings over the global registry.
#[derive(Default)]
pub struct SeriesStore {
    rings: Mutex<BTreeMap<String, Ring>>,
}

impl std::fmt::Debug for SeriesStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeriesStore").finish_non_exhaustive()
    }
}

impl SeriesStore {
    /// Append one point to `key`'s ring (creating it if the series cap
    /// allows). This is the raw ingestion path `record_registry` uses;
    /// tests use it to inject synthetic series (NaN/Inf included).
    pub fn push(&self, key: &str, ts_us: u64, value: f64) {
        let mut rings = self.rings.lock().expect("series rings poisoned");
        if !rings.contains_key(key) {
            if rings.len() >= MAX_SERIES {
                drop(rings);
                crate::counter("series_dropped_total").inc();
                return;
            }
            rings.insert(
                key.to_string(),
                Ring {
                    points: VecDeque::with_capacity(CAPACITY),
                    last_change_us: ts_us,
                },
            );
        }
        let ring = rings.get_mut(key).expect("ring just ensured");
        let changed = ring
            .points
            .back()
            .is_none_or(|last| last.value.to_bits() != value.to_bits());
        if changed {
            ring.last_change_us = ts_us;
        }
        if ring.points.len() == CAPACITY {
            ring.points.pop_front();
        }
        ring.points.push_back(SeriesPoint { ts_us, value });
    }

    /// Record one registry snapshot: counters and gauges verbatim,
    /// histograms expanded to `<name>_count` / `<name>_sum` series.
    pub fn record_registry(&self, now_us: u64, snapshot: &[(String, SnapshotValue)]) {
        for (key, value) in snapshot {
            match value {
                SnapshotValue::Counter(v) => self.push(key, now_us, *v as f64),
                SnapshotValue::Gauge(v) => self.push(key, now_us, *v as f64),
                SnapshotValue::Histogram(h) => {
                    let (name, labels) = crate::registry::split_key(key);
                    let block = if labels.is_empty() {
                        String::new()
                    } else {
                        format!("{{{labels}}}")
                    };
                    self.push(&format!("{name}_count{block}"), now_us, h.count as f64);
                    self.push(&format!("{name}_sum{block}"), now_us, h.sum as f64);
                }
            }
        }
    }

    /// One store tick: snapshot the global registry, record every
    /// metric, then refresh the φ fidelity gauges. Driven by the
    /// telemetry sampler thread once [`ensure_global_series`] has run.
    pub fn tick(&self, now_us: u64) {
        let snapshot = crate::global().snapshot();
        self.record_registry(now_us, &snapshot);
        self.refresh_fidelity();
        crate::counter("series_ticks_total").inc();
    }

    /// Recompute `series_fidelity_phi_x1000{series,k}` for every
    /// fidelity key × stride.
    pub fn refresh_fidelity(&self) {
        for key in FIDELITY_KEYS {
            let full: Vec<f64> = {
                let rings = self.rings.lock().expect("series rings poisoned");
                match rings.get(key) {
                    Some(r) => r.points.iter().map(|p| p.value).collect(),
                    None => continue,
                }
            };
            for k in FIDELITY_KS {
                if let Some(phi) = fidelity_phi(&full, k) {
                    let ks = k.to_string();
                    crate::gauge_labeled(
                        "series_fidelity_phi_x1000",
                        &[("series", key), ("k", ks.as_str())],
                    )
                    .set((phi * 1000.0).round() as i64);
                }
            }
        }
    }

    /// Latest point of `key`, if the series exists and is nonempty.
    #[must_use]
    pub fn latest(&self, key: &str) -> Option<SeriesPoint> {
        let rings = self.rings.lock().expect("series rings poisoned");
        rings.get(key).and_then(|r| r.points.back().copied())
    }

    /// Per-second rate over the last two points, counter-reset-aware:
    /// a negative delta (registry reset, process restart behind the
    /// same scrape address) clamps to 0 instead of going negative or
    /// spuriously huge. `None` with fewer than two points or zero dt.
    #[must_use]
    pub fn rate_per_sec(&self, key: &str) -> Option<f64> {
        let rings = self.rings.lock().expect("series rings poisoned");
        let ring = rings.get(key)?;
        let n = ring.points.len();
        if n < 2 {
            return None;
        }
        let prev = ring.points[n - 2];
        let cur = ring.points[n - 1];
        let dt_us = cur.ts_us.saturating_sub(prev.ts_us);
        if dt_us == 0 {
            return None;
        }
        let delta = cur.value - prev.value;
        if !delta.is_finite() || delta < 0.0 {
            return Some(0.0);
        }
        Some(delta / (dt_us as f64 / 1e6))
    }

    /// Sum of **positive** consecutive deltas over the retained ring —
    /// the counter-reset-aware total increase. A reset (value drop)
    /// contributes 0 rather than a negative jump. `None` with fewer
    /// than two points.
    #[must_use]
    pub fn reset_aware_delta(&self, key: &str) -> Option<f64> {
        let rings = self.rings.lock().expect("series rings poisoned");
        let ring = rings.get(key)?;
        if ring.points.len() < 2 {
            return None;
        }
        let mut total = 0.0;
        let mut prev: Option<f64> = None;
        for p in &ring.points {
            if let Some(prev) = prev {
                let d = p.value - prev;
                if d.is_finite() && d > 0.0 {
                    total += d;
                }
            }
            prev = Some(p.value);
        }
        Some(total)
    }

    /// Microseconds since `key`'s value last changed, `None` when the
    /// series does not exist (callers treat that as infinitely stale).
    #[must_use]
    pub fn staleness_us(&self, key: &str, now_us: u64) -> Option<u64> {
        let rings = self.rings.lock().expect("series rings poisoned");
        let ring = rings.get(key)?;
        if ring.points.is_empty() {
            return None;
        }
        Some(now_us.saturating_sub(ring.last_change_us))
    }

    /// All series keys currently retained, sorted.
    #[must_use]
    pub fn keys(&self) -> Vec<String> {
        let rings = self.rings.lock().expect("series rings poisoned");
        rings.keys().cloned().collect()
    }

    /// Evaluate a query: series matching `name` (exact key, or every
    /// series when absent), points at `ts_us >= since`, systematically
    /// downsampled to every `step`-th point.
    #[must_use]
    pub fn select(&self, q: &SeriesQuery) -> Vec<(String, Vec<SeriesPoint>)> {
        let rings = self.rings.lock().expect("series rings poisoned");
        let mut out = Vec::new();
        for (key, ring) in rings.iter() {
            if let Some(name) = &q.name {
                if name != key {
                    continue;
                }
            }
            let pts: Vec<SeriesPoint> = ring
                .points
                .iter()
                .filter(|p| p.ts_us >= q.since_us)
                .copied()
                .collect();
            out.push((key.clone(), downsample_systematic(&pts, q.step)));
        }
        out
    }

    /// Render a query result as the `/series` JSON document.
    #[must_use]
    pub fn render_query_json(&self, q: &SeriesQuery, now_us: u64) -> String {
        let selected = self.select(q);
        let interval_us = crate::telemetry::default_interval_ms().saturating_mul(1000);
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"now_us\":{now_us},\"interval_us\":{interval_us},\"step\":{},\"series\":[",
            q.step
        ));
        for (i, (key, pts)) in selected.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"key\":\"{}\",\"points\":[",
                crate::exposition::json_escape(key)
            ));
            for (j, p) in pts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{}]", p.ts_us, json_num(p.value)));
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }
}

/// Format an `f64` as a JSON number; non-finite values become `null`.
fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Systematic 1-in-`k` downsample: the first point, then every `k`-th
/// after it — the paper's count-driven systematic sampler applied to
/// the telemetry stream. `k <= 1` returns the input unchanged.
#[must_use]
pub fn downsample_systematic(points: &[SeriesPoint], k: usize) -> Vec<SeriesPoint> {
    if k <= 1 {
        return points.to_vec();
    }
    points.iter().copied().step_by(k).collect()
}

/// Map a series value onto the log₂ histogram's integer domain:
/// negative values clamp to 0, non-finite values are unrepresentable
/// (`None`), everything else rounds.
fn bucket_value(v: f64) -> Option<u64> {
    if !v.is_finite() {
        return None;
    }
    let v = v.max(0.0);
    if v >= u64::MAX as f64 {
        return Some(u64::MAX);
    }
    Some(v.round() as u64)
}

/// The paper's disparity φ = √(χ²ₚ/n) between a population and a
/// sample binned alike — the one φ kernel of the workspace, called by
/// `sampling::disparity` and by [`fidelity_phi`]. The population counts
/// are scaled to the sample size `n`, and the paired statistic
/// χ²ₚ = Σ (O−E)²/(E+O) runs over every bin where either side has mass:
/// a sample observation in a bin the population says is impossible
/// contributes O (not 0/0 or ∞), and a near-empty expected bin at most
/// E + O, so φ stays finite and in [0, √2] (Fleiss: χ²ₚ ≤ Σ(E+O) = 2n).
/// `None` when either side is empty.
///
/// # Panics
/// Panics if the two count slices differ in length.
#[must_use]
pub fn paired_phi(population: &[u64], sample: &[u64]) -> Option<f64> {
    assert_eq!(
        population.len(),
        sample.len(),
        "population and sample must share bins"
    );
    let big_n: u64 = population.iter().sum();
    let n: u64 = sample.iter().sum();
    if big_n == 0 || n == 0 {
        return None;
    }
    let scale = n as f64 / big_n as f64;
    let mut chi2_paired = 0.0;
    for (&pop, &obs) in population.iter().zip(sample) {
        let expected = pop as f64 * scale;
        let observed = obs as f64;
        let both = expected + observed;
        if both > 0.0 {
            let d = observed - expected;
            chi2_paired += d * d / both;
        }
    }
    Some((chi2_paired / n as f64).sqrt())
}

/// Score a systematic 1-in-`k` downsample of `full` against `full`
/// itself with the paper's disparity metric: both go through the log₂
/// histogram ([`Histogram::bucket_index`]) and [`paired_phi`] scores
/// the two bucket vectors. Non-finite values are skipped. `None` when
/// either side has no representable mass. φ ∈ [0, √2]; 0 = perfect
/// fidelity.
#[must_use]
pub fn fidelity_phi(full: &[f64], k: usize) -> Option<f64> {
    let mut pop = [0u64; 64];
    let mut obs = [0u64; 64];
    for v in full {
        if let Some(u) = bucket_value(*v) {
            pop[Histogram::bucket_index(u)] += 1;
        }
    }
    for v in full.iter().step_by(k.max(1)) {
        if let Some(u) = bucket_value(*v) {
            obs[Histogram::bucket_index(u)] += 1;
        }
    }
    paired_phi(&pop, &obs)
}

/// A parsed `/series` query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesQuery {
    /// Exact series key to select; `None` selects every series.
    pub name: Option<String>,
    /// Only points with `ts_us >= since_us` are returned.
    pub since_us: u64,
    /// Systematic downsample stride (1 = every point).
    pub step: usize,
}

impl Default for SeriesQuery {
    fn default() -> Self {
        SeriesQuery {
            name: None,
            since_us: 0,
            step: 1,
        }
    }
}

/// Why a `/series` query string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Raw query exceeds [`MAX_QUERY_LEN`].
    TooLong,
    /// Empty `&`-separated segment (`&&`, leading/trailing `&`).
    EmptyPair,
    /// Segment has no `=`.
    MissingEquals,
    /// Key is not one of `name`, `since`, `step`.
    UnknownKey,
    /// The same key appears twice.
    DuplicateKey(&'static str),
    /// Malformed `%XX` percent escape.
    BadPercent,
    /// Decoded value exceeds [`MAX_QUERY_VALUE_LEN`] bytes.
    ValueTooLong(&'static str),
    /// Decoded `name` contains non-graphic or non-ASCII bytes.
    BadName,
    /// `since` is not an unsigned decimal integer.
    BadSince,
    /// `step` is not an integer in `1..=`[`MAX_STEP`].
    BadStep,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::TooLong => write!(f, "query string too long (max {MAX_QUERY_LEN})"),
            QueryError::EmptyPair => f.write_str("empty query parameter"),
            QueryError::MissingEquals => f.write_str("query parameter missing '='"),
            QueryError::UnknownKey => f.write_str("unknown query key (want name, since, step)"),
            QueryError::DuplicateKey(k) => write!(f, "duplicate query key {k:?}"),
            QueryError::BadPercent => f.write_str("malformed %XX escape"),
            QueryError::ValueTooLong(k) => {
                write!(f, "value of {k:?} too long (max {MAX_QUERY_VALUE_LEN})")
            }
            QueryError::BadName => f.write_str("name must be graphic ASCII"),
            QueryError::BadSince => f.write_str("since must be an unsigned integer"),
            QueryError::BadStep => write!(f, "step must be an integer in 1..={MAX_STEP}"),
        }
    }
}

/// Decode `%XX` percent escapes (strict: exactly two hex digits).
fn percent_decode(raw: &str) -> Result<String, QueryError> {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3).ok_or(QueryError::BadPercent)?;
            let s = std::str::from_utf8(hex).map_err(|_| QueryError::BadPercent)?;
            let v = u8::from_str_radix(s, 16).map_err(|_| QueryError::BadPercent)?;
            out.push(v);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| QueryError::BadName)
}

/// Strictly parse a `/series` query string (the part after `?`, no
/// leading `?`). Empty input yields the default query (all series,
/// all points, step 1).
///
/// Grammar: `&`-separated `key=value` pairs; keys are `name`, `since`,
/// `step`, each at most once; values are percent-decodable (`%XX`).
/// `name` must decode to graphic ASCII, `since` to a `u64`, `step` to
/// `1..=`[`MAX_STEP`].
///
/// # Errors
/// The first violated rule as a [`QueryError`]. Never panics — the
/// faultkit state-fuzz campaign holds it to that.
pub fn parse_series_query(query: &str) -> Result<SeriesQuery, QueryError> {
    if query.len() > MAX_QUERY_LEN {
        return Err(QueryError::TooLong);
    }
    let mut out = SeriesQuery::default();
    let mut seen_name = false;
    let mut seen_since = false;
    let mut seen_step = false;
    if query.is_empty() {
        return Ok(out);
    }
    for pair in query.split('&') {
        if pair.is_empty() {
            return Err(QueryError::EmptyPair);
        }
        let (key, raw_value) = pair.split_once('=').ok_or(QueryError::MissingEquals)?;
        let value = percent_decode(raw_value)?;
        match key {
            "name" => {
                if seen_name {
                    return Err(QueryError::DuplicateKey("name"));
                }
                seen_name = true;
                if value.len() > MAX_QUERY_VALUE_LEN {
                    return Err(QueryError::ValueTooLong("name"));
                }
                if value.is_empty() || !value.bytes().all(|b| b.is_ascii_graphic()) {
                    return Err(QueryError::BadName);
                }
                out.name = Some(value);
            }
            "since" => {
                if seen_since {
                    return Err(QueryError::DuplicateKey("since"));
                }
                seen_since = true;
                if value.len() > MAX_QUERY_VALUE_LEN {
                    return Err(QueryError::ValueTooLong("since"));
                }
                out.since_us = value.parse().map_err(|_| QueryError::BadSince)?;
            }
            "step" => {
                if seen_step {
                    return Err(QueryError::DuplicateKey("step"));
                }
                seen_step = true;
                if value.len() > MAX_QUERY_VALUE_LEN {
                    return Err(QueryError::ValueTooLong("step"));
                }
                let step: usize = value.parse().map_err(|_| QueryError::BadStep)?;
                if step == 0 || step > MAX_STEP {
                    return Err(QueryError::BadStep);
                }
                out.step = step;
            }
            _ => return Err(QueryError::UnknownKey),
        }
    }
    Ok(out)
}

static GLOBAL_SERIES: OnceLock<SeriesStore> = OnceLock::new();

/// Install (or return) the process-wide series store without starting
/// a sampler. Once installed, every telemetry tick records a snapshot
/// into it and evaluates the global rule engine against it;
/// [`crate::telemetry::ensure_global`] installs it and starts the
/// sampler.
pub fn ensure_global_series() -> &'static SeriesStore {
    GLOBAL_SERIES.get_or_init(SeriesStore::default)
}

/// The process-wide series store, if [`ensure_global_series`] has run.
#[must_use]
pub fn global_series() -> Option<&'static SeriesStore> {
    GLOBAL_SERIES.get()
}

/// Telemetry-tick hook: record a registry snapshot into the global
/// store (when installed) and evaluate the global rule engine on it.
/// Called by the sampler thread after each tick's gauges are fresh.
pub(crate) fn on_tick(now_us: u64) {
    if let Some(store) = global_series() {
        store.tick(now_us);
        crate::rules::global_engine().evaluate(store, now_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SeriesStore {
        SeriesStore::default()
    }

    #[test]
    fn ring_stays_bounded_and_ordered() {
        let s = store();
        for i in 0..CAPACITY as u64 + 12 {
            s.push("a_total", i * 10, i as f64);
        }
        let sel = s.select(&SeriesQuery::default());
        assert_eq!(sel.len(), 1);
        let pts = &sel[0].1;
        assert_eq!(pts.len(), CAPACITY, "ring must stay bounded");
        assert_eq!(pts[0].value, 12.0, "oldest points evicted first");
        assert!(pts.windows(2).all(|w| w[0].ts_us < w[1].ts_us));
    }

    #[test]
    fn series_cap_drops_excess_keys() {
        let s = store();
        for i in 0..MAX_SERIES + 6 {
            s.push(&format!("k{i}"), 1, 1.0);
        }
        assert_eq!(
            s.keys().len(),
            MAX_SERIES,
            "MAX_SERIES bounds distinct keys"
        );
    }

    #[test]
    fn select_filters_by_name_since_and_step() {
        let s = store();
        for i in 0..8u64 {
            s.push("a", 100 + i, i as f64);
            s.push("b", 100 + i, 0.0);
        }
        let q = SeriesQuery {
            name: Some("a".to_string()),
            since_us: 102,
            step: 2,
        };
        let sel = s.select(&q);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].0, "a");
        let ts: Vec<u64> = sel[0].1.iter().map(|p| p.ts_us).collect();
        assert_eq!(ts, vec![102, 104, 106], "since then every 2nd");
    }

    #[test]
    fn rate_clamps_counter_resets_to_zero() {
        let s = store();
        s.push("c_total", 0, 100.0);
        s.push("c_total", 1_000_000, 250.0);
        assert_eq!(s.rate_per_sec("c_total"), Some(150.0));
        // Registry reset behind the same address: value drops.
        s.push("c_total", 2_000_000, 10.0);
        assert_eq!(
            s.rate_per_sec("c_total"),
            Some(0.0),
            "negative delta must clamp, not explode"
        );
        assert_eq!(s.rate_per_sec("absent"), None);
    }

    #[test]
    fn reset_aware_delta_sums_only_increases() {
        let s = store();
        for (t, v) in [(0, 10.0), (1, 40.0), (2, 5.0), (3, 25.0)] {
            s.push("c_total", t, v);
        }
        // +30, reset (ignored), +20.
        assert_eq!(s.reset_aware_delta("c_total"), Some(50.0));
        assert_eq!(s.reset_aware_delta("absent"), None);
    }

    #[test]
    fn staleness_tracks_last_value_change() {
        let s = store();
        s.push("g", 100, 7.0);
        s.push("g", 200, 7.0);
        s.push("g", 300, 7.0);
        assert_eq!(s.staleness_us("g", 1000), Some(900));
        s.push("g", 400, 8.0);
        assert_eq!(s.staleness_us("g", 1000), Some(600));
        assert_eq!(s.staleness_us("absent", 1000), None);
    }

    #[test]
    fn histograms_expand_to_count_and_sum_series() {
        let s = store();
        let snap = vec![(
            "lat_us{stage=\"x\"}".to_string(),
            SnapshotValue::Histogram(Box::new(crate::metrics::HistogramSnapshot {
                buckets: [0; 64],
                count: 5,
                sum: 123,
                max: 60,
            })),
        )];
        s.record_registry(42, &snap);
        let keys = s.keys();
        assert_eq!(
            keys,
            vec![
                "lat_us_count{stage=\"x\"}".to_string(),
                "lat_us_sum{stage=\"x\"}".to_string()
            ]
        );
        assert_eq!(s.latest("lat_us_sum{stage=\"x\"}").unwrap().value, 123.0);
    }

    #[test]
    fn downsample_systematic_takes_first_then_every_kth() {
        let pts: Vec<SeriesPoint> = (0..10)
            .map(|i| SeriesPoint {
                ts_us: i,
                value: i as f64,
            })
            .collect();
        let d = downsample_systematic(&pts, 3);
        let ts: Vec<u64> = d.iter().map(|p| p.ts_us).collect();
        assert_eq!(ts, vec![0, 3, 6, 9]);
        assert_eq!(downsample_systematic(&pts, 1).len(), 10);
        assert_eq!(downsample_systematic(&pts, 0).len(), 10);
    }

    #[test]
    fn fidelity_phi_is_zero_for_constant_series_and_bounded() {
        let flat = vec![32.0; 100];
        let phi = fidelity_phi(&flat, 5).expect("phi");
        assert!(phi.abs() < 1e-12, "constant series is perfectly faithful");
        // Wildly bimodal series: still bounded by sqrt(2).
        let mut bi = Vec::new();
        for i in 0..100 {
            bi.push(if i % 2 == 0 { 1.0 } else { 1.0e12 });
        }
        let phi = fidelity_phi(&bi, 2).expect("phi");
        assert!((0.0..=std::f64::consts::SQRT_2 + 1e-12).contains(&phi));
        assert!(fidelity_phi(&[], 2).is_none());
        assert!(fidelity_phi(&[f64::NAN, f64::INFINITY], 2).is_none());
    }

    #[test]
    fn fidelity_phi_detects_skewed_downsample() {
        // Alternating small/large: k=2 sees only the small mode, so the
        // sampled distribution diverges and phi must be well off zero.
        let mut vals = Vec::new();
        for i in 0..200 {
            vals.push(if i % 2 == 0 { 2.0 } else { 2.0e9 });
        }
        let phi = fidelity_phi(&vals, 2).expect("phi");
        assert!(
            phi > 0.5,
            "k=2 on period-2 series must look distorted, phi={phi}"
        );
        let phi5 = fidelity_phi(&vals, 5).expect("phi");
        assert!(phi5 < 0.2, "odd stride keeps both modes, phi={phi5}");
    }

    #[test]
    fn query_parser_accepts_valid_forms() {
        assert_eq!(parse_series_query(""), Ok(SeriesQuery::default()));
        let q = parse_series_query("name=proc_rss_kb&since=123&step=5").unwrap();
        assert_eq!(q.name.as_deref(), Some("proc_rss_kb"));
        assert_eq!(q.since_us, 123);
        assert_eq!(q.step, 5);
        // Percent-decoded label block in the name.
        let q = parse_series_query("name=d%7Bstage%3D%22t%22%7D").unwrap();
        assert_eq!(q.name.as_deref(), Some("d{stage=\"t\"}"));
    }

    #[test]
    fn query_parser_rejects_each_violation() {
        use QueryError::*;
        let long = format!("name={}", "a".repeat(MAX_QUERY_LEN + 1));
        let long_val = format!("name={}", "a".repeat(MAX_QUERY_VALUE_LEN + 1));
        let cases: Vec<(&str, QueryError)> = vec![
            (&long, TooLong),
            ("&name=a", EmptyPair),
            ("name=a&&step=1", EmptyPair),
            ("name", MissingEquals),
            ("names=a", UnknownKey),
            ("name=a&name=b", DuplicateKey("name")),
            ("step=1&step=2", DuplicateKey("step")),
            ("name=%zz", BadPercent),
            ("name=%f", BadPercent),
            ("name=a%ff", BadName), // invalid UTF-8 after decode
            (&long_val, ValueTooLong("name")),
            ("name=", BadName),
            ("name=a%20b", BadName), // space is not graphic
            ("since=x", BadSince),
            ("since=-1", BadSince),
            ("step=0", BadStep),
            ("step=1000001", BadStep),
            ("step=1.5", BadStep),
        ];
        for (raw, want) in cases {
            assert_eq!(parse_series_query(raw), Err(want), "input {raw:?}");
        }
    }

    #[test]
    fn query_parser_is_deterministic_on_arbitrary_bytes() {
        let mut state = 0x243f6a8885a308d3u64;
        for len in [0usize, 1, 9, 120, 2047, 2048, 2049, 9000] {
            let mut raw = Vec::with_capacity(len);
            for _ in 0..len {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                raw.push((state >> 56) as u8);
            }
            let s = String::from_utf8_lossy(&raw).into_owned();
            assert_eq!(parse_series_query(&s), parse_series_query(&s));
        }
    }

    #[test]
    fn json_render_is_well_formed_and_nulls_non_finite() {
        let s = store();
        s.push("a", 1, 2.5);
        s.push("a", 2, f64::NAN);
        s.push("a", 3, 7.0);
        let body = s.render_query_json(&SeriesQuery::default(), 99);
        assert!(body.starts_with("{\"now_us\":99,"));
        assert!(body.contains("\"key\":\"a\""));
        assert!(body.contains("[1,2.5],[2,null],[3,7]"), "body: {body}");
        assert!(body.ends_with("]}\n"));
    }
}
