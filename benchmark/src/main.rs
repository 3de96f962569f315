//! `netbench` — the netsample benchmark.
//!
//! ```text
//! netbench run   [--seed S] [--workload W] [--seconds T] [--json F] [--quick]
//! netbench trace [--seed S] [--seconds T] [--spans F] [--quick]
//! netbench --workload W --seed S --seconds T --trace 0|1
//! ```
//!
//! `run` measures the end-to-end metrics: every workload (or one) set
//! up five times, warmed up once, then ten interleaved cycles, or
//! whole cycles for `--seconds`. `trace` is the separate traced run for
//! the per-layer metrics; it covers every workload whatever `--workload`
//! names, because the per-layer metrics span all four. The last form is
//! `run`, or `trace` with `--trace 1`. The last line of standard output
//! is always one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics`.

use netbench::report;
use netbench::run::{run, Schedule};
use netbench::trace;
use netbench::workloads::{Kind, Size};
use obskit::trace::TRACE_ENV;
use std::process::ExitCode;

const USAGE: &str = "usage:
  netbench run   [--seed S] [--workload W] [--seconds T] [--json F] [--quick]
  netbench trace [--seed S] [--seconds T] [--spans F] [--quick]
  netbench --workload W --seed S --seconds T --trace 0|1
workloads: stream-sdsc ingest-pcapng collect-zipf grid-paper";

/// Timed cycles of `run` when no `--seconds` is given.
const CYCLES: usize = 10;

struct Opts {
    trace: bool,
    seed: u64,
    kinds: Vec<Kind>,
    seconds: Option<f64>,
    json: Option<String>,
    spans: Option<String>,
    size: Size,
}

fn parse(mut args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        trace: false,
        seed: 1993,
        kinds: Kind::ALL.to_vec(),
        seconds: None,
        json: None,
        spans: None,
        size: Size::FULL,
    };
    match args.first().map(String::as_str) {
        Some("run") => args = &args[1..],
        Some("trace") => {
            opts.trace = true;
            args = &args[1..];
        }
        _ => {}
    }
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            opts.size = Size::QUICK;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--workload" => opts.kinds = vec![Kind::parse(value).ok_or_else(bad)?],
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                opts.seconds = Some(s);
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--json" => opts.json = Some(value.to_string()),
            "--spans" => opts.spans = Some(value.to_string()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("netbench: {e}\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    // A trace sink would put file I/O on the hot paths being measured.
    if std::env::var_os(TRACE_ENV).is_some() {
        eprintln!("netbench: {TRACE_ENV} is set; unset it so the measured code does no trace I/O");
        return ExitCode::from(64);
    }
    let schedule = match (opts.seconds, opts.trace) {
        (Some(s), _) => Schedule::Seconds(s),
        (None, false) => Schedule::Cycles(CYCLES),
        (None, true) => Schedule::Cycles(trace::CYCLES),
    };
    if opts.trace {
        let out = trace::run(opts.seed, opts.size, schedule);
        println!("{}", out.render());
        if let Some(path) = &opts.spans {
            if let Err(e) = out.write_spans(path) {
                eprintln!("netbench: cannot write {path}: {e}");
                return ExitCode::from(74);
            }
        }
        println!(
            "{}",
            report::result_line(out.correct(), out.attempted(), out.failed(), &out.metrics())
        );
        return if out.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let records = run(&opts.kinds, opts.seed, opts.size, schedule);
    let meta = report::Meta::collect(opts.seed, &records);
    println!("{}", meta.line());
    print!("{}", report::table(&records));
    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, report::json(&meta, &records)) {
            eprintln!("netbench: cannot write {path}: {e}");
            return ExitCode::from(74);
        }
    }
    println!("{}", report::run_line(&records));
    if records.iter().all(|r| r.failed == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
