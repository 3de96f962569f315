//! # obskit — observability for the sampling pipeline
//!
//! A self-contained (std-only, zero external dependencies) tracing,
//! metrics, and profiling layer. The paper's experiment grid — sampler ×
//! target × fraction over hundreds of thousands of packets — previously
//! ran completely dark; this crate gives every stage counters, latency
//! histograms, span timing, and an optional structured JSONL event log,
//! cheap enough to leave on in release builds.
//!
//! ## Model
//!
//! * A global [`Registry`] maps metric names (optionally with
//!   Prometheus-style `{key="value"}` labels) to one of three metric
//!   kinds: monotonically increasing [`Counter`]s, up/down [`Gauge`]s,
//!   and log₂-bucketed [`Histogram`]s. All three are atomics inside an
//!   `Arc`: recording is lock-free; only the *first* registration of a
//!   name takes a write lock.
//! * [`span`] returns a guard that, on drop, records the elapsed wall
//!   time into a histogram named `<name>_duration_us` and (when tracing
//!   is enabled) appends a JSONL event to the trace sink.
//! * Spans are **hierarchical**: a thread-local stack gives every span a
//!   process-unique id, its parent's id, and a semicolon-joined call
//!   path; [`tree`] aggregates count / total-time / self-time per path
//!   and renders the collapsed-stack ("folded") profile flamegraph
//!   tooling consumes.
//! * [`trace`] holds the JSONL sink, enabled explicitly
//!   ([`trace::enable_path`]) or via the `NETSAMPLE_TRACE` environment
//!   variable ([`trace::init_from_env`]).
//! * [`Registry::render_prometheus`] produces text exposition;
//!   [`Registry::render_summary`] a human-readable table;
//!   [`Registry::render_snapshot_jsonl`] a machine-readable JSONL dump.
//! * [`serve`] is the live telemetry plane: a std-only blocking
//!   HTTP/1.0 server exposing `GET /metrics` (Prometheus text),
//!   `GET /healthz` (liveness + ingest-watermark staleness), and
//!   `GET /snapshot` (JSONL) while the process runs.
//! * [`telemetry`] runs a background sampler keeping `proc_rss_kb`,
//!   `proc_rss_max_kb`, `proc_open_fds`, and windowed per-second rate
//!   gauges fresh; [`telemetry::ensure_global`] starts it together with
//!   the series store.
//! * [`series`] is an on-board bounded ring-buffer time-series store
//!   fed by each telemetry tick, served as `GET /series`, and scored
//!   against its own systematic downsamples with the paper's φ
//!   disparity metric (`series_fidelity_phi_x1000{series,k}`).
//! * [`rules`] evaluates threshold / rate / delta / staleness alert
//!   rules (strict text grammar, hysteresis) over the series rings each
//!   tick, exported as `alert_active{rule}` / `alert_flaps_total{rule}`
//!   and `GET /alerts`.
//!
//! ## Hot-path discipline
//!
//! Handle acquisition (`obskit::counter(...)`) hashes the name and may
//! take a read lock — do it **once per batch/loop**, not per packet.
//! Recording (`c.add(n)`, `h.record(v)`) is a relaxed atomic RMW.
//! Instrumented call sites in this workspace count locally inside their
//! loops and flush a single `add` at the boundary, which keeps measured
//! overhead on the sampler hot path under 1% (see the paired per-call
//! costs that `cargo bench -p bench --bench obskit_overhead` prints).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod exposition;
mod metrics;
mod registry;
pub mod rules;
pub mod series;
pub mod serve;
mod span;
pub mod telemetry;
pub mod trace;
pub mod tree;

pub use exposition::{parse_exposition, valid_label_name, valid_metric_name, ExpositionSample};
pub use metrics::{Counter, CounterShard, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricKind, Registry, SnapshotValue};
pub use rules::{parse_rules, Rule, RuleEngine, RuleParseError};
pub use series::{
    downsample_systematic, fidelity_phi, paired_phi, parse_series_query, SeriesPoint, SeriesQuery,
    SeriesStore,
};
pub use serve::{parse_request_line, serve, RequestError, RequestLine, ServeConfig, ServeHandle};
pub use span::{span, span_labeled, time, SpanGuard};
pub use telemetry::Telemetry;
pub use tree::SpanNode;

/// The process-wide registry.
#[must_use]
pub fn global() -> &'static Registry {
    registry::global()
}

/// Get or register a counter in the global registry.
#[must_use]
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Get or register a labeled counter (`name{k="v",...}`) in the global
/// registry.
#[must_use]
pub fn counter_labeled(name: &str, labels: &[(&str, &str)]) -> Counter {
    global().counter(&keyed(name, labels))
}

/// Get or register a gauge in the global registry.
#[must_use]
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Get or register a labeled gauge in the global registry.
#[must_use]
pub fn gauge_labeled(name: &str, labels: &[(&str, &str)]) -> Gauge {
    global().gauge(&keyed(name, labels))
}

/// Get or register a histogram in the global registry.
#[must_use]
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Get or register a labeled histogram in the global registry.
#[must_use]
pub fn histogram_labeled(name: &str, labels: &[(&str, &str)]) -> Histogram {
    global().histogram(&keyed(name, labels))
}

/// Render `name{k="v",...}` (or just `name` without labels), escaping
/// label values.
#[must_use]
pub fn keyed(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_formats_labels_in_order() {
        assert_eq!(keyed("x_total", &[]), "x_total");
        assert_eq!(
            keyed("x_total", &[("method", "systematic"), ("k", "50")]),
            "x_total{method=\"systematic\",k=\"50\"}"
        );
    }

    #[test]
    fn keyed_escapes_quotes_and_backslashes() {
        assert_eq!(keyed("m", &[("a", "q\"b\\c")]), "m{a=\"q\\\"b\\\\c\"}");
    }

    #[test]
    fn global_handles_are_shared() {
        let a = counter("obskit_test_shared_total");
        let b = counter("obskit_test_shared_total");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert_eq!(b.get(), 7);
    }
}
