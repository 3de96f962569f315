//! Span-structured wall-clock timing for the `repro_all` driver.
//!
//! Each experiment runs under a labeled `repro_experiment` span nested
//! in the driver's `repro_all` root, so a `--profile-out` profile
//! attributes every experiment's time to its own subtree.

use obskit::SpanGuard;
use std::time::{Duration, Instant};

/// Per-experiment wall clocks for one driver run.
#[derive(Debug, Default)]
pub struct Timings(Vec<(&'static str, Duration)>);

impl Timings {
    /// An empty timing table.
    #[must_use]
    pub fn new() -> Self {
        Timings(Vec::new())
    }

    /// Run one experiment under a `repro_experiment` span (labeled with
    /// its name), record its wall time, and return its rendered output.
    pub fn timed(&mut self, name: &'static str, run: impl FnOnce() -> String) -> String {
        let _span = obskit::span_labeled("repro_experiment", &[("experiment", name)]);
        let start = Instant::now();
        let out = run();
        self.0.push((name, start.elapsed()));
        out
    }

    /// Sum of all recorded walls.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.0.iter().map(|(_, d)| *d).sum()
    }

    /// Render the per-experiment timing table `repro_all` prints.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<20} {:>10}\n", "experiment", "seconds"));
        for (name, d) in &self.0 {
            out.push_str(&format!("{name:<20} {:>10.3}\n", d.as_secs_f64()));
        }
        out.push_str(&format!(
            "{:<20} {:>10.3}\n",
            "total",
            self.total().as_secs_f64()
        ));
        out
    }
}

/// Open the driver's root span; every `repro_experiment` nests under
/// it.
#[must_use]
pub fn root_span() -> SpanGuard {
    obskit::span("repro_all")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every experiment's span aggregates under the driver root, so a
    /// folded profile attributes its time to its own subtree.
    #[test]
    fn experiment_spans_nest_under_the_root() {
        {
            let _root = root_span();
            let mut t = Timings::new();
            let out = t.timed("span_probe", || "rendered".to_string());
            assert_eq!(out, "rendered");
            assert_eq!(t.0.len(), 1);
        }
        let folded = obskit::tree::render_folded();
        assert!(
            folded.contains("repro_all;repro_experiment"),
            "experiment span not under root:\n{folded}"
        );
    }

    #[test]
    fn timing_table_lists_total() {
        let mut t = Timings::new();
        let _ = t.timed("a", String::new);
        let _ = t.timed("b", String::new);
        let table = t.render_table();
        assert!(table.contains("experiment"));
        assert!(table.contains("total"));
        assert_eq!(t.0.len(), 2);
        assert!(t.total() >= t.0[0].1);
    }
}
