//! In-tree micro-benchmark harness.
//!
//! A *workspace-local stand-in* for the crates.io `criterion` crate
//! (the CI environment cannot reach a registry), exposing the API
//! subset the workspace's benches use: [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`] with [`BenchmarkGroup::throughput`] /
//! [`BenchmarkGroup::sample_size`] / [`BenchmarkGroup::bench_with_input`],
//! [`BenchmarkId`], [`Throughput`], [`black_box`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Methodology (simpler than real criterion, honest about what it is):
//! each benchmark is calibrated so one timing batch runs ≥ ~5 ms, then
//! `sample_size` batches are timed and the **median** per-iteration time
//! is reported, along with min/max and optional throughput. There is no
//! statistical regression analysis and no plotting. Results go to
//! stdout, one line per benchmark.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Throughput annotation for a benchmark: how much work one iteration
/// represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// One iteration processes this many logical elements.
    Elements(u64),
    /// One iteration processes this many bytes.
    Bytes(u64),
}

/// A benchmark identifier: function name plus an optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new<N: std::fmt::Display, P: std::fmt::Display>(name: N, parameter: P) -> Self {
        BenchmarkId {
            label: format!("{name}/{parameter}"),
        }
    }

    /// Just the parameter (the group name provides the context).
    pub fn from_parameter<P: std::fmt::Display>(parameter: P) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(label: &str) -> Self {
        BenchmarkId {
            label: label.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

/// The timing loop handed to benchmark closures.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    /// Median ns/iter of the last `iter` call, for the caller to report.
    result: Option<Estimate>,
}

/// A condensed timing estimate.
#[derive(Debug, Clone, Copy)]
struct Estimate {
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
}

impl Bencher {
    /// Time `f`, storing an estimate of its per-call cost.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate the batch size so one batch takes >= ~5 ms (or the
        // routine is so slow a single call exceeds it).
        let mut batch: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= Duration::from_millis(5) || batch >= 1 << 20 {
                break;
            }
            batch *= 2;
        }
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                t.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
        per_iter.sort_by(f64::total_cmp);
        self.result = Some(Estimate {
            median_ns: per_iter[per_iter.len() / 2],
            min_ns: per_iter[0],
            max_ns: per_iter[per_iter.len() - 1],
        });
    }
}

fn human_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

fn report(label: &str, est: Estimate, throughput: Option<Throughput>) {
    let rate = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  {:>12.1} Melem/s", n as f64 / est.median_ns * 1_000.0)
        }
        Some(Throughput::Bytes(n)) => {
            format!(
                "  {:>12.1} MiB/s",
                n as f64 / est.median_ns * 1e9 / (1 << 20) as f64
            )
        }
        None => String::new(),
    };
    println!(
        "{label:<44} {:>12}  [{} .. {}]{rate}",
        human_ns(est.median_ns),
        human_ns(est.min_ns),
        human_ns(est.max_ns),
    );
}

fn run_one<F: FnMut(&mut Bencher)>(
    label: &str,
    samples: usize,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let mut b = Bencher {
        samples,
        result: None,
    };
    f(&mut b);
    match b.result {
        Some(est) => report(label, est, throughput),
        None => println!("{label:<44} (no measurement: closure never called iter)"),
    }
}

/// The benchmark driver; one per bench binary.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

const DEFAULT_SAMPLES: usize = 15;

impl Criterion {
    /// Run a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_one(name, DEFAULT_SAMPLES, None, f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
            throughput: None,
            samples: DEFAULT_SAMPLES,
        }
    }
}

/// A group of benchmarks sharing a name prefix and settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    samples: usize,
}

impl BenchmarkGroup<'_> {
    /// Annotate subsequent benchmarks with a per-iteration throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Set the number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.clamp(5, 1_000);
        self
    }

    /// Run one benchmark with an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into().label);
        run_one(&label, self.samples, self.throughput, |b| f(b, input));
        self
    }

    /// Run one benchmark without an input.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into().label);
        run_one(&label, self.samples, self.throughput, f);
        self
    }

    /// Finish the group (a no-op here; results print as they complete).
    pub fn finish(&mut self) {}
}

/// Bundle benchmark functions under one group name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($function:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $function(&mut c); )+
        }
    };
}

/// Entry point: run the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher {
            samples: 5,
            result: None,
        };
        b.iter(|| black_box(3u64).wrapping_mul(7));
        let est = b.result.expect("estimate recorded");
        assert!(est.median_ns > 0.0);
        assert!(est.min_ns <= est.median_ns && est.median_ns <= est.max_ns);
    }

    #[test]
    fn ids_render_like_criterion() {
        assert_eq!(BenchmarkId::new("systematic", 50).label, "systematic/50");
        assert_eq!(BenchmarkId::from_parameter("t1").label, "t1");
    }

    #[test]
    fn human_units_scale() {
        assert!(human_ns(12.3).ends_with("ns"));
        assert!(human_ns(12_300.0).ends_with("us"));
        assert!(human_ns(12_300_000.0).ends_with("ms"));
    }
}
