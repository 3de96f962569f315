//! Wall-clock span timing.
//!
//! A [`SpanGuard`] measures from construction to drop, records the
//! duration into a global histogram named `<name>_duration_us`, and —
//! when the JSONL trace sink is enabled — emits a `span` event carrying
//! the labels.
//!
//! Spans are also **hierarchical**: each guard pushes a frame onto a
//! thread-local stack (see [`crate::tree`]), so nested spans know their
//! parent, carry process-unique ids, and aggregate total vs. self time
//! per call path. Trace events include `span_id` and `parent` fields so
//! offline tools can rebuild the exact tree.

use crate::trace::{self, TraceEvent};
use crate::Histogram;
use std::time::Instant;

/// An RAII span: times from creation until drop.
///
/// Construct with [`span`] or [`span_labeled`]; see also [`time`] for a
/// closure form.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    histogram: Histogram,
    labels: Vec<(String, String)>,
    start: Instant,
    id: u64,
    parent_id: u64,
}

impl SpanGuard {
    /// Elapsed time so far, in microseconds.
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// This span's process-unique id.
    #[must_use]
    pub fn span_id(&self) -> u64 {
        self.id
    }

    /// The id of the enclosing span on this thread at construction time
    /// (0 for a root span).
    #[must_use]
    pub fn parent_id(&self) -> u64 {
        self.parent_id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur_us = self.elapsed_us();
        self.histogram.record(dur_us);
        crate::tree::exit(self.id, dur_us);
        if trace::enabled() {
            let mut event = TraceEvent::now("span", self.name).with_duration(dur_us);
            event
                .labels
                .push(("span_id".to_string(), self.id.to_string()));
            event
                .labels
                .push(("parent".to_string(), self.parent_id.to_string()));
            event.labels.append(&mut self.labels);
            trace::emit(&event);
        }
    }
}

/// Open a span named `name`; durations aggregate into the global
/// histogram `<name>_duration_us` and into the span tree under the
/// current thread's open path.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    span_labeled(name, &[])
}

/// Open a span with labels. Labels go into the histogram key (so each
/// label combination aggregates separately) and into the trace event.
/// The span-tree path uses the bare `name` only, keeping tree
/// cardinality bounded by code structure rather than label values.
#[must_use]
pub fn span_labeled(name: &'static str, labels: &[(&str, &str)]) -> SpanGuard {
    let histogram = crate::histogram_labeled(&format!("{name}_duration_us"), labels);
    let (id, parent_id) = crate::tree::enter(name);
    SpanGuard {
        name,
        histogram,
        labels: labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        start: Instant::now(),
        id,
        parent_id,
    }
}

/// Time a closure under a span and return its result.
pub fn time<T, F: FnOnce() -> T>(name: &'static str, f: F) -> T {
    let _guard = span(name);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_named_histogram() {
        {
            let _g = span("obskit_test_span");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = crate::histogram("obskit_test_span_duration_us").snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.max >= 1_000, "slept 2ms, recorded {}us", snap.max);
    }

    #[test]
    fn labeled_spans_aggregate_separately() {
        {
            let _a = span_labeled("obskit_test_cell", &[("method", "systematic")]);
            let _b = span_labeled("obskit_test_cell", &[("method", "random")]);
        }
        let a =
            crate::histogram_labeled("obskit_test_cell_duration_us", &[("method", "systematic")]);
        let b = crate::histogram_labeled("obskit_test_cell_duration_us", &[("method", "random")]);
        assert_eq!(a.snapshot().count, 1);
        assert_eq!(b.snapshot().count, 1);
    }

    #[test]
    fn time_returns_the_closure_result() {
        let v = time("obskit_test_time", || 21 * 2);
        assert_eq!(v, 42);
        assert_eq!(
            crate::histogram("obskit_test_time_duration_us")
                .snapshot()
                .count,
            1
        );
    }

    #[test]
    fn span_ids_are_unique_and_ordered() {
        let a = span("obskit_test_ids");
        let b = span("obskit_test_ids");
        assert!(b.span_id() > a.span_id());
        assert_eq!(b.parent_id(), a.span_id());
        drop(b);
        drop(a);
    }
}
