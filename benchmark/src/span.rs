//! The benchmark's own spans, recorded around each call it makes into a
//! layer's public entry point.
//!
//! Every workload pass runs under a [`Recorder`]. The end-to-end run
//! uses [`Recorder::off`], which times each call but keeps nothing; the
//! traced run uses [`Recorder::on`], which also keeps the span, its
//! parent, and the allocation calls made inside it. Spans live in
//! memory until the run writes them out.

use crate::alloc;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Distinguishes spans of one name, e.g. a grid cell.
    pub label: String,
    /// Index into [`Recorder::traces`]: one trace per (workload, pass).
    pub trace: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time covered by direct children.
    pub child_ns: u64,
    /// Allocation calls while the span was open, children included.
    pub allocs: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the part its children cover. Children of one span
    /// run one after another here, so their durations never overlap.
    pub fn self_ns(&self) -> u64 {
        self.ns() - self.child_ns
    }
}

pub struct Recorder {
    keep: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// (workload, pass) of each trace id.
    traces: Vec<(&'static str, u32)>,
}

impl Recorder {
    pub fn off() -> Self {
        Recorder::new(false)
    }

    pub fn on() -> Self {
        Recorder::new(true)
    }

    fn new(keep: bool) -> Self {
        Recorder {
            keep,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            traces: Vec::new(),
        }
    }

    /// Start a new trace; later spans belong to it.
    pub fn begin(&mut self, workload: &'static str, pass: u32) -> usize {
        self.traces.push((workload, pass));
        self.traces.len() - 1
    }

    /// Run `f` inside a span and return its result and duration.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, Duration) {
        self.labeled(name, String::new(), f)
    }

    pub fn labeled<T>(
        &mut self,
        name: &'static str,
        label: String,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, Duration) {
        if !self.keep {
            let started = Instant::now();
            let out = f(self);
            return (out, started.elapsed());
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let allocs = alloc::allocs();
        self.spans.push(Span {
            name,
            label,
            trace: self.traces.len().saturating_sub(1),
            parent,
            start_ns: self.now(),
            end_ns: 0,
            child_ns: 0,
            allocs: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.allocs = alloc::allocs() - allocs;
        let ns = span.ns();
        if let Some(p) = parent {
            self.spans[p].child_ns += ns;
        }
        (out, Duration::from_nanos(ns))
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans of trace `trace` named `name`.
    pub fn named<'a>(&'a self, trace: usize, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.trace == trace && s.name == name)
    }

    /// Summed self time, summed allocation calls, and count of the spans
    /// of trace `trace` named `name`.
    pub fn total(&self, trace: usize, name: &str) -> (u64, u64, u64) {
        self.named(trace, name)
            .fold((0, 0, 0), |(ns, allocs, n), s| {
                (ns + s.self_ns(), allocs + s.allocs, n + 1)
            })
    }

    /// Every span as one JSON object per line.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let (workload, pass) = self.traces[s.trace];
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"trace\":{},\"workload\":\"{workload}\",\"pass\":{pass},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"allocs\":{}}}",
                s.trace,
                s.name,
                s.label,
                s.start_ns,
                s.end_ns,
                s.self_ns(),
                s.allocs
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_keeps_nothing() {
        let mut rec = Recorder::on();
        let t = rec.begin("w", 0);
        let ((), outer) = rec.span("outer", |rec| {
            rec.span("inner", |_| std::thread::sleep(Duration::from_millis(3)));
            rec.span("inner", |_| std::thread::sleep(Duration::from_millis(3)));
        });
        let (inner_ns, _, n) = rec.total(t, "inner");
        let (outer_self, _, _) = rec.total(t, "outer");
        assert_eq!(n, 2);
        assert!(inner_ns >= 6_000_000);
        assert_eq!(outer_self + inner_ns, outer.as_nanos() as u64);
        assert_eq!(rec.jsonl().lines().count(), 3);

        let mut off = Recorder::off();
        let ((), d) = off.span("x", |_| std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
        assert!(off.jsonl().is_empty());
    }
}
