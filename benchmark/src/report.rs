//! Rendering: the human table, the `--json` report, and the one-line
//! result object that ends standard output.

use crate::run::{end_to_end, tail, unscaled, Metric, Record};
use std::fmt::Write as _;
use std::process::Command;

/// Run metadata, recorded with every `--json` report.
pub struct Meta {
    pub seed: u64,
    pub cycles: usize,
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

impl Meta {
    pub fn collect(seed: u64, records: &[Record]) -> Meta {
        Meta {
            seed,
            cycles: records
                .first()
                .map_or(0, |r| r.passes.len() / r.kind.passes_per_cycle()),
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: first_line(Command::new("rustc").arg("--version")),
            // `--git-dir` keeps git from searching above the working
            // directory when it is not a checkout.
            commit: first_line(Command::new("git").args(["--git-dir=.git", "rev-parse", "HEAD"])),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "seed {} · {} cycles · nproc {} · {} · commit {}",
            self.seed, self.cycles, self.nproc, self.rustc, self.commit
        )
    }
}

/// A JSON string literal (the inputs here are plain ASCII messages).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number. Non-finite values are not JSON; they never come out
/// of a finished measurement, so `null` marks a bug loudly.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The line the benchmark ends with. `metrics` pairs a key with a
/// metric; the key is the metric name, prefixed by the workload when a
/// run covers several.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, Metric)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(key, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(key),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The result line of a `run`.
pub fn run_line(records: &[Record]) -> String {
    let single = records.len() == 1;
    let metrics: Vec<(String, Metric)> = records
        .iter()
        .flat_map(|r| {
            end_to_end(r).into_iter().map(move |m| {
                let key = if single {
                    m.name.to_string()
                } else {
                    format!("{}/{}", r.kind.name(), m.name)
                };
                (key, m)
            })
        })
        .collect();
    let attempted = records.iter().map(|r| r.attempted).sum();
    let failed = records.iter().map(|r| r.failed).sum();
    result_line(failed == 0, attempted, failed, &metrics)
}

/// Every end-to-end metric of every workload, with quartiles.
pub fn table(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        let _ = writeln!(
            out,
            "{}: {} passes attempted, {} failed, fail_ratio {}, digest {:016x}",
            r.kind.name(),
            r.attempted,
            r.failed,
            r.failed as f64 / r.attempted.max(1) as f64,
            r.digest
        );
        for why in &r.failures {
            let _ = writeln!(out, "  FAILED: {why}");
        }
        let (raw_rate, speed) = unscaled(r);
        let _ = writeln!(
            out,
            "  machine speed {speed:.3} of rest (probe median); unscaled pkts_per_s {raw_rate:.0}"
        );
        let _ = writeln!(
            out,
            "  {:<14} {:>16} {:<6} {:>16} {:>16} {:>6}",
            "metric", "value", "unit", "q1", "q3", "n"
        );
        for m in end_to_end(r) {
            let _ = writeln!(
                out,
                "  {:<14} {:>16.4} {:<6} {:>16.4} {:>16.4} {:>6}",
                m.name, m.value, m.unit, m.q1, m.q3, m.samples
            );
        }
        if let Some((level, ms)) = tail(r) {
            let _ = writeln!(
                out,
                "  tail (not gated): step p{level:.1} {ms:.4} ms over {} steps",
                r.steps_ms.len()
            );
        }
    }
    out
}

/// The `--json` report: metadata plus every workload's counts, failure
/// messages and metrics with quartiles.
pub fn json(meta: &Meta, records: &[Record]) -> String {
    let workloads: Vec<String> = records
        .iter()
        .map(|r| {
            let metrics: Vec<String> = end_to_end(r)
                .iter()
                .map(|m| {
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"samples\": {}}}",
                        quote(m.name),
                        num(m.value),
                        quote(m.unit),
                        num(m.q1),
                        num(m.q3),
                        m.samples
                    )
                })
                .collect();
            let failures: Vec<String> = r.failures.iter().map(|f| quote(f)).collect();
            let (raw_rate, speed) = unscaled(r);
            let tail = tail(r).map_or("null".into(), |(level, ms)| {
                format!("{{\"percentile\": {}, \"ms\": {}, \"steps\": {}}}", num(level), num(ms), r.steps_ms.len())
            });
            format!(
                "    {}: {{\"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"digest\": \"{:016x}\", \"machine_speed\": {}, \"unscaled_pkts_per_s\": {}, \"step_tail\": {tail}, \"metrics\": {{{}}}}}",
                quote(r.kind.name()),
                r.attempted,
                r.failed,
                failures.join(", "),
                r.digest,
                num(speed),
                num(raw_rate),
                metrics.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"meta\": {{\"seed\": {}, \"cycles\": {}, \"nproc\": {}, \"rustc\": {}, \"commit\": {}}},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        meta.seed,
        meta.cycles,
        meta.nproc,
        quote(&meta.rustc),
        quote(&meta.commit),
        workloads.join(",\n")
    )
}
