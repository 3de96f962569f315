//! The metric registry and its text expositions (Prometheus, JSONL
//! snapshot, human summary).

use crate::exposition::{json_escape, parse_label_block};
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{LazyLock, RwLock};

/// What kind of metric a name resolves to.
#[derive(Debug, Clone)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter(Counter),
    /// Up/down gauge.
    Gauge(Gauge),
    /// Log₂ histogram.
    Histogram(Histogram),
}

impl MetricKind {
    fn type_name(&self) -> &'static str {
        match self {
            MetricKind::Counter(_) => "counter",
            MetricKind::Gauge(_) => "gauge",
            MetricKind::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics.
///
/// Keys are full exposition keys — `name` or `name{label="v",...}` (see
/// [`crate::keyed`]). A `BTreeMap` keeps output deterministic. The map
/// is behind an `RwLock`, taken for *write* only on first registration
/// of a key; handle lookups take the read lock, and recording through a
/// held handle takes no lock at all.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, MetricKind>>,
    help: RwLock<BTreeMap<String, String>>,
}

static GLOBAL: LazyLock<Registry> = LazyLock::new(Registry::new);

/// The process-wide registry.
#[must_use]
pub fn global() -> &'static Registry {
    &GLOBAL
}

impl Registry {
    /// An empty registry (tests and tools; production code uses
    /// [`crate::global`]).
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert<T, F, G>(&self, key: &str, extract: F, make: G) -> T
    where
        F: Fn(&MetricKind) -> Option<T>,
        G: FnOnce() -> (MetricKind, T),
    {
        if let Some(found) = self
            .metrics
            .read()
            .expect("metric registry poisoned")
            .get(key)
            .map(|m| {
                extract(m).unwrap_or_else(|| {
                    panic!("metric '{key}' already registered as a {}", m.type_name())
                })
            })
        {
            return found;
        }
        let mut map = self.metrics.write().expect("metric registry poisoned");
        // Racing registrants: first writer wins, everyone shares.
        if let Some(existing) = map.get(key) {
            return extract(existing).unwrap_or_else(|| {
                panic!(
                    "metric '{key}' already registered as a {}",
                    existing.type_name()
                )
            });
        }
        let (kind, handle) = make();
        map.insert(key.to_string(), kind);
        handle
    }

    /// Get or register a counter under `key`.
    ///
    /// # Panics
    /// Panics if `key` is already registered as a different kind.
    #[must_use]
    pub fn counter(&self, key: &str) -> Counter {
        self.get_or_insert(
            key,
            |m| match m {
                MetricKind::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::new();
                (MetricKind::Counter(c.clone()), c)
            },
        )
    }

    /// Get or register a gauge under `key`.
    ///
    /// # Panics
    /// Panics if `key` is already registered as a different kind.
    #[must_use]
    pub fn gauge(&self, key: &str) -> Gauge {
        self.get_or_insert(
            key,
            |m| match m {
                MetricKind::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::new();
                (MetricKind::Gauge(g.clone()), g)
            },
        )
    }

    /// Get or register a histogram under `key`.
    ///
    /// # Panics
    /// Panics if `key` is already registered as a different kind.
    #[must_use]
    pub fn histogram(&self, key: &str) -> Histogram {
        self.get_or_insert(
            key,
            |m| match m {
                MetricKind::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Histogram::new();
                (MetricKind::Histogram(h.clone()), h)
            },
        )
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.read().expect("metric registry poisoned").len()
    }

    /// True when nothing has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every metric, sorted by key.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, SnapshotValue)> {
        let map = self.metrics.read().expect("metric registry poisoned");
        map.iter()
            .map(|(k, m)| {
                let v = match m {
                    MetricKind::Counter(c) => SnapshotValue::Counter(c.get()),
                    MetricKind::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    MetricKind::Histogram(h) => SnapshotValue::Histogram(Box::new(h.snapshot())),
                };
                (k.clone(), v)
            })
            .collect()
    }

    /// Attach a `# HELP` string to a metric *name* (not a full key);
    /// every labeled series under the name shares it. Last write wins.
    pub fn describe(&self, name: &str, help: &str) {
        self.help
            .write()
            .expect("metric help poisoned")
            .insert(name.to_string(), help.to_string());
    }

    /// Snapshot re-sorted by `(base name, label block)` so exposition
    /// keeps every series of one metric name contiguous. A plain sort on
    /// full keys would split a name group: `'_'` sorts before `'{'`, so
    /// `ab_c` lands between `ab` and `ab{x="1"}`.
    fn ordered_snapshot(&self) -> Vec<(String, String, SnapshotValue)> {
        let mut rows: Vec<(String, String, SnapshotValue)> = self
            .snapshot()
            .into_iter()
            .map(|(key, value)| {
                let (name, labels) = split_key(&key);
                (name.to_string(), labels.to_string(), value)
            })
            .collect();
        rows.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        rows
    }

    /// Prometheus text exposition (format 0.0.4).
    ///
    /// Series are sorted by `(name, labels)` and grouped by name: each
    /// name gets exactly one `# TYPE` line (plus a `# HELP` line when
    /// [`Registry::describe`]d), followed by all of its samples.
    /// Counters and gauges render as single samples; histograms render
    /// their non-empty buckets cumulatively with `le` upper bounds plus
    /// `_sum` and `_count` samples.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let help = self.help.read().expect("metric help poisoned");
        let mut out = String::new();
        let mut current: Option<String> = None;
        for (name, labels, value) in self.ordered_snapshot() {
            if current.as_deref() != Some(name.as_str()) {
                if let Some(h) = help.get(&name) {
                    let escaped = h.replace('\\', "\\\\").replace('\n', "\\n");
                    let _ = writeln!(out, "# HELP {name} {escaped}");
                }
                let ty = match value {
                    SnapshotValue::Counter(_) => "counter",
                    SnapshotValue::Gauge(_) => "gauge",
                    SnapshotValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {name} {ty}");
                current = Some(name.clone());
            }
            match value {
                SnapshotValue::Counter(v) => {
                    let _ = writeln!(out, "{name}{} {v}", brace(&labels));
                }
                SnapshotValue::Gauge(v) => {
                    let _ = writeln!(out, "{name}{} {v}", brace(&labels));
                }
                SnapshotValue::Histogram(s) => {
                    let mut cumulative = 0u64;
                    for (i, &c) in s.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cumulative += c;
                        let (_, hi) = Histogram::bucket_bounds(i);
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            merge_labels(&labels, &format!("le=\"{hi}\""))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {}",
                        merge_labels(&labels, "le=\"+Inf\""),
                        s.count
                    );
                    let _ = writeln!(out, "{name}_sum{} {}", brace(&labels), s.sum);
                    let _ = writeln!(out, "{name}_count{} {}", brace(&labels), s.count);
                }
            }
        }
        out
    }

    /// JSONL snapshot: one JSON object per line, one line per series,
    /// sorted by `(name, labels)` — the `/snapshot` endpoint body.
    ///
    /// Counters/gauges carry `"value"`; histograms carry `"count"`,
    /// `"sum"`, `"max"`, and non-empty `"buckets"` as `[le, count]`
    /// pairs (per-bucket, not cumulative).
    #[must_use]
    pub fn render_snapshot_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, labels, value) in self.ordered_snapshot() {
            out.push_str("{\"name\":\"");
            out.push_str(&json_escape(&name));
            out.push_str("\",\"labels\":{");
            // The label block came from `keyed`, so it always parses.
            let pairs = parse_label_block(&labels).unwrap_or_default();
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
            }
            out.push_str("},");
            match value {
                SnapshotValue::Counter(v) => {
                    let _ = write!(out, "\"kind\":\"counter\",\"value\":{v}");
                }
                SnapshotValue::Gauge(v) => {
                    let _ = write!(out, "\"kind\":\"gauge\",\"value\":{v}");
                }
                SnapshotValue::Histogram(s) => {
                    let _ = write!(
                        out,
                        "\"kind\":\"histogram\",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                        s.count, s.sum, s.max
                    );
                    let mut first = true;
                    for (i, &c) in s.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        let (_, hi) = Histogram::bucket_bounds(i);
                        let _ = write!(out, "[{hi},{c}]");
                    }
                    out.push(']');
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// A human-readable summary table: one row per metric; histograms
    /// show count, mean, p50/p90/p99, and max.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let snapshot = self.snapshot();
        if snapshot.is_empty() {
            return "(no metrics registered)\n".to_string();
        }
        let width = snapshot
            .iter()
            .map(|(k, _)| k.len())
            .max()
            .unwrap_or(0)
            .max(6);
        let mut out = String::new();
        let _ = writeln!(out, "{:<width$}  {:>9}  value", "metric", "type");
        for (key, value) in snapshot {
            match value {
                SnapshotValue::Counter(v) => {
                    let _ = writeln!(out, "{key:<width$}  {:>9}  {v}", "counter");
                }
                SnapshotValue::Gauge(v) => {
                    let _ = writeln!(out, "{key:<width$}  {:>9}  {v}", "gauge");
                }
                SnapshotValue::Histogram(s) => {
                    let _ = writeln!(
                        out,
                        "{key:<width$}  {:>9}  count={} mean={:.1} p50={} p90={} p99={} max={}",
                        "histogram",
                        s.count,
                        s.mean(),
                        s.quantile(0.50).unwrap_or(0),
                        s.quantile(0.90).unwrap_or(0),
                        s.quantile(0.99).unwrap_or(0),
                        s.max,
                    );
                }
            }
        }
        out
    }
}

/// A snapshot of one metric's value.
///
/// The histogram variant is boxed: a [`HistogramSnapshot`] carries its
/// full bucket array and would otherwise inflate every snapshot entry.
#[derive(Debug, Clone)]
pub enum SnapshotValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(Box<HistogramSnapshot>),
}

/// Split a registry key into `(base_name, label_block)` where the label
/// block is the `k="v",...` interior (empty when unlabeled).
pub(crate) fn split_key(key: &str) -> (&str, &str) {
    match key.split_once('{') {
        Some((name, rest)) => (name, rest.strip_suffix('}').unwrap_or(rest)),
        None => (key, ""),
    }
}

/// `{existing,extra}` — merge an existing label block with one more
/// label.
fn merge_labels(existing: &str, extra: &str) -> String {
    if existing.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{{{existing},{extra}}}")
    }
}

/// Wrap a label block back in braces ("" stays "").
fn brace(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        r.counter("a_total").add(2);
        r.counter("a_total").add(3);
        assert_eq!(r.counter("a_total").get(), 5);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_conflicts_panic() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn concurrent_registration_yields_one_metric() {
        let r = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1_000 {
                        r.counter("contended_total").inc();
                    }
                });
            }
        });
        assert_eq!(r.len(), 1);
        assert_eq!(r.counter("contended_total").get(), 8_000);
    }

    #[test]
    fn exposition_golden() {
        let r = Registry::new();
        r.counter("pkts_total").add(7);
        r.gauge("depth").set(-2);
        let h = r.histogram("lat_us{stage=\"read\"}");
        h.record(1); // bucket [0,2)   -> le="2"
        h.record(3); // bucket [2,4)   -> le="4"
        h.record(3);
        h.record(700); // bucket [512,1024) -> le="1024"
        let expected = "\
# TYPE depth gauge
depth -2
# TYPE lat_us histogram
lat_us_bucket{stage=\"read\",le=\"2\"} 1
lat_us_bucket{stage=\"read\",le=\"4\"} 3
lat_us_bucket{stage=\"read\",le=\"1024\"} 4
lat_us_bucket{stage=\"read\",le=\"+Inf\"} 4
lat_us_sum{stage=\"read\"} 707
lat_us_count{stage=\"read\"} 4
# TYPE pkts_total counter
pkts_total 7
";
        assert_eq!(r.render_prometheus(), expected);
    }

    #[test]
    fn exposition_keeps_name_groups_contiguous() {
        // Full-key string order is ab < ab_c < ab{x="1"} ('_' < '{'),
        // which used to split the `ab` group and emit a duplicate TYPE.
        let r = Registry::new();
        r.counter("ab").add(1);
        r.counter("ab_c").add(2);
        r.counter("ab{x=\"1\"}").add(3);
        r.counter("ab{x=\"0\"}").add(4);
        let text = r.render_prometheus();
        let expected = "\
# TYPE ab counter
ab 1
ab{x=\"0\"} 4
ab{x=\"1\"} 3
# TYPE ab_c counter
ab_c 2
";
        assert_eq!(text, expected);
        assert_eq!(text.matches("# TYPE ab counter").count(), 1);
        crate::exposition::parse_exposition(&text).expect("self-exposition must parse");
    }

    #[test]
    fn help_lines_render_once_per_name_and_escape() {
        let r = Registry::new();
        r.counter("x_total{k=\"a\"}").inc();
        r.counter("x_total{k=\"b\"}").inc();
        r.describe("x_total", "slash \\ and\nnewline");
        let text = r.render_prometheus();
        assert_eq!(
            text.matches("# HELP x_total slash \\\\ and\\nnewline")
                .count(),
            1
        );
        crate::exposition::parse_exposition(&text).expect("help escaping must parse");
    }

    #[test]
    fn snapshot_jsonl_is_sorted_and_structured() {
        let r = Registry::new();
        r.counter("zz_total").add(9);
        r.gauge("aa{q=\"v\"}").set(-3);
        r.histogram("h_us").record(700);
        let text = r.render_snapshot_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"name\":\"aa\",\"labels\":{\"q\":\"v\"},\"kind\":\"gauge\",\"value\":-3}"
        );
        assert!(lines[1].starts_with("{\"name\":\"h_us\""));
        assert!(lines[1].contains("\"kind\":\"histogram\",\"count\":1,\"sum\":700"));
        assert_eq!(
            lines[2],
            "{\"name\":\"zz_total\",\"labels\":{},\"kind\":\"counter\",\"value\":9}"
        );
    }

    #[test]
    fn summary_mentions_every_metric() {
        let r = Registry::new();
        r.counter("c_total").inc();
        r.gauge("g").set(4);
        r.histogram("h_us").record(100);
        let s = r.render_summary();
        assert!(s.contains("c_total"));
        assert!(s.contains("g"));
        assert!(s.contains("h_us"));
        assert!(s.contains("p99="));
        assert!(Registry::new().render_summary().contains("no metrics"));
    }
}
