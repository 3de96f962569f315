//! Hierarchical span trees: who called whom, and where the time went.
//!
//! Flat span histograms (`<name>_duration_us`) answer "how long does X
//! take"; they cannot answer "how much of `repro_all` is χ² evaluation
//! inside `experiment_cell`". This module adds that second axis:
//!
//! * every [`crate::span`] pushes a frame onto a **thread-local span
//!   stack** at construction and pops it at drop, so nesting is captured
//!   without any global coordination on the hot path;
//! * each span gets a process-unique **span id** and records its
//!   **parent id** (0 at the root), which the JSONL trace sink emits so
//!   offline tools can rebuild exact trees;
//! * on drop, the span's **total time** (construction→drop) and **self
//!   time** (total minus the total time of its direct children) are
//!   aggregated into a global table keyed by the semicolon-joined call
//!   path (`repro_all;experiment_cell;sampling_select`).
//!
//! The aggregate is exactly the *collapsed stack* ("folded") format that
//! flamegraph tooling (inferno, speedscope, Brendan Gregg's
//! `flamegraph.pl`) consumes: [`render_folded`] emits one
//! `path self_time` line per node.
//!
//! Cost model: entering a span is a thread-local push plus one relaxed
//! atomic id fetch; leaving takes one global mutex to bump three
//! integers for the path. Spans sit at *batch* boundaries (one per
//! `select_indices_ts` call, per experiment cell, per pcap file), not per
//! packet, so this stays far below 1% of hot-path cost — see the
//! `instrumentation_per_call` line of the `obskit_overhead` bench
//! (`crates/bench/benches`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex};

/// One aggregated node of the span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Semicolon-joined call path, e.g. `repro_all;sampling_select`.
    pub path: String,
    /// Number of spans that completed at this path.
    pub count: u64,
    /// Sum of wall-clock time from construction to drop, in µs.
    pub total_us: u64,
    /// Sum of time not attributed to child spans, in µs.
    pub self_us: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    count: u64,
    total_us: u64,
    self_us: u64,
}

/// A live frame on a thread's span stack.
#[derive(Debug)]
struct Frame {
    id: u64,
    path: String,
    /// Total µs of direct children that have already finished.
    child_us: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Ids start at 1; 0 means "no parent".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

static TREE: LazyLock<Mutex<BTreeMap<String, Agg>>> = LazyLock::new(|| Mutex::new(BTreeMap::new()));

/// Push a frame for `name` onto this thread's span stack.
///
/// Returns `(span_id, parent_id)`; `parent_id` is 0 at the root.
pub(crate) fn enter(name: &'static str) -> (u64, u64) {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let (parent_id, path) = match stack.last() {
            Some(parent) => (parent.id, format!("{};{name}", parent.path)),
            None => (0, name.to_string()),
        };
        stack.push(Frame {
            id,
            path,
            child_us: 0,
        });
        (id, parent_id)
    })
}

/// Pop the frame for span `id` (total wall time `total_us`), attribute
/// its total to its parent's child-time, and fold it into the global
/// aggregate.
///
/// Spans normally finish in LIFO order; a span dropped out of order is
/// removed from the middle of the stack (its still-open children are
/// reparented to the frame below — best effort for a misuse the RAII
/// API makes hard to express).
pub(crate) fn exit(id: u64, total_us: u64) {
    let finished = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let pos = stack.iter().rposition(|f| f.id == id)?;
        let frame = stack.remove(pos);
        if pos > 0 {
            if let Some(parent) = stack.get_mut(pos - 1) {
                parent.child_us = parent.child_us.saturating_add(total_us);
            }
        }
        Some(frame)
    });
    let Some(frame) = finished else { return };
    let self_us = total_us.saturating_sub(frame.child_us);
    let mut tree = TREE.lock().expect("span tree poisoned");
    let agg = tree.entry(frame.path).or_default();
    agg.count += 1;
    agg.total_us = agg.total_us.saturating_add(total_us);
    agg.self_us = agg.self_us.saturating_add(self_us);
}

/// A point-in-time copy of the aggregated span tree, sorted by path.
#[must_use]
pub fn snapshot() -> Vec<SpanNode> {
    TREE.lock()
        .expect("span tree poisoned")
        .iter()
        .map(|(path, a)| SpanNode {
            path: path.clone(),
            count: a.count,
            total_us: a.total_us,
            self_us: a.self_us,
        })
        .collect()
}

/// Render the aggregate in collapsed-stack ("folded") format: one
/// `path self_us` line per node, the input format of inferno /
/// speedscope / flamegraph.pl. Values are self-time in microseconds.
#[must_use]
pub fn render_folded() -> String {
    let mut out = String::new();
    for n in snapshot() {
        let _ = writeln!(out, "{} {}", n.path, n.self_us);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tree aggregate is process-global; tests share it. Each test
    // uses uniquely named spans and filters its own paths out of the
    // snapshot, so they stay independent of ordering and of other
    // modules' spans.
    fn nodes_with_prefix(prefix: &str) -> Vec<SpanNode> {
        snapshot()
            .into_iter()
            .filter(|n| n.path.starts_with(prefix))
            .collect()
    }

    #[test]
    fn nesting_builds_paths_and_ids() {
        let outer = crate::span("tree_nest_outer");
        assert_eq!(outer.parent_id(), 0);
        let inner = crate::span("tree_nest_inner");
        assert_eq!(inner.parent_id(), outer.span_id());
        assert!(inner.span_id() > outer.span_id());
        drop(inner);
        drop(outer);
        let nodes = nodes_with_prefix("tree_nest_outer");
        let paths: Vec<&str> = nodes.iter().map(|n| n.path.as_str()).collect();
        assert!(paths.contains(&"tree_nest_outer"), "{paths:?}");
        assert!(
            paths.contains(&"tree_nest_outer;tree_nest_inner"),
            "{paths:?}"
        );
    }

    #[test]
    fn self_time_excludes_children() {
        {
            let _outer = crate::span("tree_self_outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = crate::span("tree_self_inner");
                std::thread::sleep(std::time::Duration::from_millis(8));
            }
        }
        let nodes = nodes_with_prefix("tree_self_outer");
        let outer = nodes.iter().find(|n| n.path == "tree_self_outer").unwrap();
        let inner = nodes
            .iter()
            .find(|n| n.path == "tree_self_outer;tree_self_inner")
            .unwrap();
        assert!(inner.total_us >= 7_000, "inner {}", inner.total_us);
        assert_eq!(inner.total_us, inner.self_us, "leaf self == total");
        assert!(outer.total_us >= inner.total_us + 3_000);
        // Outer self-time must not include the inner 8 ms.
        assert!(
            outer.self_us < outer.total_us,
            "outer self {} < total {}",
            outer.self_us,
            outer.total_us
        );
        assert!(outer.self_us >= 3_000, "outer self {}", outer.self_us);
        assert!(
            outer.self_us <= outer.total_us - inner.total_us,
            "child time not excluded: self={} total={} child={}",
            outer.self_us,
            outer.total_us,
            inner.total_us
        );
    }

    #[test]
    fn repeated_spans_aggregate_counts() {
        for _ in 0..5 {
            let _g = crate::span("tree_repeat");
        }
        let nodes = nodes_with_prefix("tree_repeat");
        assert_eq!(nodes.len(), 1);
        assert!(nodes[0].count >= 5);
    }

    #[test]
    fn threads_have_independent_stacks() {
        let _outer = crate::span("tree_thread_main");
        std::thread::scope(|s| {
            s.spawn(|| {
                let g = crate::span("tree_thread_child");
                // A fresh thread has no parent frame: the span is a root.
                assert_eq!(g.parent_id(), 0);
            });
        });
        let nodes = nodes_with_prefix("tree_thread_child");
        assert_eq!(nodes.len(), 1, "other thread's span is its own root");
        assert_eq!(nodes[0].path, "tree_thread_child");
    }

    #[test]
    fn out_of_order_drop_does_not_corrupt_the_stack() {
        let a = crate::span("tree_ooo_a");
        let b = crate::span("tree_ooo_b");
        drop(a); // non-LIFO
        drop(b);
        // Both frames are gone: the next span is a root again.
        assert_eq!(crate::span("tree_ooo_after").parent_id(), 0);
        let nodes = nodes_with_prefix("tree_ooo_a");
        assert!(nodes.iter().any(|n| n.path == "tree_ooo_a"));
    }

    #[test]
    fn folded_output_is_path_space_value() {
        {
            let _o = crate::span("tree_folded_outer");
            let _i = crate::span("tree_folded_inner");
        }
        let folded = render_folded();
        let line = folded
            .lines()
            .find(|l| l.starts_with("tree_folded_outer;tree_folded_inner "))
            .expect("folded line present");
        let mut parts = line.rsplitn(2, ' ');
        let value = parts.next().unwrap();
        assert!(value.parse::<u64>().is_ok(), "value not numeric: {line}");
    }
}
