//! The five subcommands, as pure functions from parsed options to
//! rendered output (I/O limited to the named pcap files), so they are
//! directly testable.

use crate::args::{ArgError, Args};
use netsynth::flows::{generate_flows, FlowProfile};
use netsynth::TraceProfile;
use nettrace::pcap::write_pcap;
use nettrace::{read_capture, Micros, PerSecondSeries, Trace, TraceError};
use sampling::experiment::{Experiment, MethodFamily};
use sampling::{disparity, select_indices, FlowEstimator, FlowExperiment, MethodSpec, Target};
use statkit::SummaryRow;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use streamkit::{run_stream, Backpressure, StreamConfig, StreamError, StreamMethod, WindowSpec};

/// A classified command failure. The class picks the process exit code,
/// following the `sysexits.h` conventions, so scripts can distinguish
/// "you called me wrong" from "your file is bad" from "the OS failed".
#[derive(Debug)]
pub enum CmdError {
    /// Bad invocation: unknown command/option/value (`EX_USAGE`, 64).
    Usage(String),
    /// Input was readable but its content is unusable: malformed pcap,
    /// empty trace, unscorable sample (`EX_DATAERR`, 65).
    Data(String),
    /// The operating system failed an open/read/write (`EX_IOERR`, 74).
    Io(String),
    /// A quality gate failed: the fuzzer surfaced a contract violation,
    /// a run outgrew its RSS budget, `serve` missed `--target-flows`, or
    /// a `watch --fail-on` rule fired (exit 1, the conventional "check
    /// failed" code CI systems key on).
    Regression(String),
}

impl CmdError {
    /// Construct a usage-class error.
    pub fn usage(msg: impl Into<String>) -> CmdError {
        CmdError::Usage(msg.into())
    }

    /// Construct a data-class error.
    pub fn data(msg: impl Into<String>) -> CmdError {
        CmdError::Data(msg.into())
    }

    /// Construct an I/O-class error.
    pub fn io(msg: impl Into<String>) -> CmdError {
        CmdError::Io(msg.into())
    }

    /// Construct a regression-gate error.
    pub fn regression(msg: impl Into<String>) -> CmdError {
        CmdError::Regression(msg.into())
    }

    /// The sysexits-style process exit code for this class.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            CmdError::Regression(_) => 1,
            CmdError::Usage(_) => 64,
            CmdError::Data(_) => 65,
            CmdError::Io(_) => 74,
        }
    }
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmdError::Usage(m) | CmdError::Data(m) | CmdError::Io(m) | CmdError::Regression(m) => {
                write!(f, "{m}")
            }
        }
    }
}

impl std::error::Error for CmdError {}

impl From<ArgError> for CmdError {
    fn from(e: ArgError) -> CmdError {
        CmdError::Usage(e.0)
    }
}

impl From<TraceError> for CmdError {
    fn from(e: TraceError) -> CmdError {
        match e {
            TraceError::Io(_) => CmdError::Io(e.to_string()),
            _ => CmdError::Data(e.to_string()),
        }
    }
}

impl From<StreamError> for CmdError {
    fn from(e: StreamError) -> CmdError {
        match &e {
            // Bad geometry or a degenerate method: the caller's flags.
            StreamError::Config(_) | StreamError::Build(_) => CmdError::Usage(e.to_string()),
            // The OS failed the read mid-stream.
            StreamError::Ingest {
                error: TraceError::Io(_),
                ..
            } => CmdError::Io(e.to_string()),
            // The capture itself is broken; the message carries the
            // byte offset of the broken structure, like `analyze
            // --lossy` reports it.
            StreamError::Ingest { .. } => CmdError::Data(e.to_string()),
        }
    }
}

impl From<std::fmt::Error> for CmdError {
    // Formatting into a String cannot fail in practice; classified as I/O
    // to keep `writeln!(out, ...)` usable with `?`.
    fn from(e: std::fmt::Error) -> CmdError {
        CmdError::Io(e.to_string())
    }
}

/// Reject stray positional arguments (typo'd flags usually land here).
pub(crate) fn expect_positionals(args: &Args, n: usize) -> Result<(), ArgError> {
    if args.positional_count() > n {
        return Err(ArgError(format!(
            "unexpected extra argument (expected {n} positional argument{})",
            if n == 1 { "" } else { "s" }
        )));
    }
    Ok(())
}

fn load(path: &str) -> Result<Trace, CmdError> {
    let f = File::open(path).map_err(|e| CmdError::io(format!("cannot open {path}: {e}")))?;
    Ok(read_capture(BufReader::new(f))?)
}

fn store(path: &str, trace: &Trace) -> Result<(), CmdError> {
    let f = File::create(path).map_err(|e| CmdError::io(format!("cannot create {path}: {e}")))?;
    write_pcap(BufWriter::new(f), trace)?;
    Ok(())
}

pub(crate) fn parse_target(name: &str) -> Result<Target, ArgError> {
    match name {
        "packet-size" | "size" => Ok(Target::PacketSize),
        "interarrival" | "ia" => Ok(Target::Interarrival),
        "protocol" => Ok(Target::Protocol),
        "port" => Ok(Target::Port),
        other => Err(ArgError(format!(
            "unknown target '{other}' (packet-size|interarrival|protocol|port)"
        ))),
    }
}

fn parse_method(args: &Args) -> Result<MethodSpec, CmdError> {
    let k: usize = args.opt_num("interval", 50)?;
    if k == 0 {
        return Err(CmdError::usage(
            "--interval must be at least 1 (a 1-in-0 selection is undefined)",
        ));
    }
    let spec = match args.opt_or("method", "systematic") {
        "systematic" => MethodSpec::Systematic { interval: k },
        "stratified" => MethodSpec::StratifiedRandom { bucket: k },
        "random" => MethodSpec::SimpleRandom {
            fraction: 1.0 / k as f64,
        },
        "geometric" => MethodSpec::GeometricSkip { mean_interval: k },
        "sys-timer" | "strat-timer" => {
            return Err(CmdError::usage(
                "timer methods need a rate; use `sweep` which derives it",
            ))
        }
        other => {
            return Err(CmdError::usage(format!(
                "unknown method '{other}' (systematic|stratified|random|geometric; \
                 stream and serve also take reservoir)"
            )))
        }
    };
    Ok(spec)
}

/// `netsample synth --profile sdsc|fixwest|flows --seconds N --seed S <out.pcap>`
pub fn synth(args: &Args) -> Result<String, CmdError> {
    expect_positionals(args, 1)?;
    let out = args.positional(0, "out.pcap")?;
    let seconds: u32 = args.opt_num("seconds", 60)?;
    let seed: u64 = args.opt_num("seed", 1993)?;
    let trace = match args.opt_or("profile", "sdsc") {
        "sdsc" => netsynth::generate(
            &TraceProfile {
                duration_secs: seconds,
                ..TraceProfile::sdsc_1993()
            },
            seed,
        ),
        "fixwest" => netsynth::generate(
            &TraceProfile {
                duration_secs: seconds,
                ..TraceProfile::fixwest_1993()
            },
            seed,
        ),
        "flows" => generate_flows(
            &FlowProfile {
                duration_secs: seconds,
                ..FlowProfile::default()
            },
            seed,
        ),
        // Flow-id-carrying pack with Zipf parent flow sizes: the input
        // the `flows` inversion subcommand is built for.
        "zipf" => netsynth::generate_flow_pack(
            &netsynth::FlowPackConfig {
                duration_secs: seconds,
                ..netsynth::FlowPackConfig::default()
            },
            seed,
        ),
        other => {
            return Err(CmdError::usage(format!(
                "unknown profile '{other}' (sdsc|fixwest|flows|zipf)"
            )))
        }
    };
    store(out, &trace)?;
    Ok(format!(
        "wrote {} packets ({} bytes of traffic, {:.0} s) to {}\n",
        trace.len(),
        trace.total_bytes(),
        trace.duration().as_secs_f64(),
        out
    ))
}

/// `netsample analyze <trace.pcap> [--lossy]` — Table 2/3-style
/// summaries. With `--lossy`, a truncated or damaged capture is not
/// fatal: the longest valid prefix is salvaged and analyzed, and the
/// report leads with what was (and was not) recovered.
pub fn analyze(args: &Args) -> Result<String, CmdError> {
    expect_positionals(args, 1)?;
    let path = args.positional(0, "trace.pcap")?;
    let mut out = String::new();
    let trace = if args.has_flag("lossy") {
        let f = File::open(path).map_err(|e| CmdError::io(format!("cannot open {path}: {e}")))?;
        let report = nettrace::read_capture_lossy(BufReader::new(f))?;
        writeln!(
            out,
            "lossy ingest ({}): {} of {} bytes parsed, {} packet{} salvaged",
            report.format,
            report.bytes_consumed,
            report.bytes_total,
            report.packets_salvaged,
            if report.packets_salvaged == 1 {
                ""
            } else {
                "s"
            },
        )?;
        for (i, fault) in report.faults.iter().enumerate() {
            if i == 0 {
                writeln!(out, "first fault at byte {}: {}", fault.offset, fault.error)?;
            } else {
                writeln!(out, "      fault at byte {}: {}", fault.offset, fault.error)?;
            }
        }
        writeln!(out)?;
        report.trace
    } else {
        load(path)?
    };
    if trace.is_empty() {
        return Err(CmdError::data(if args.has_flag("lossy") {
            "no packets could be salvaged"
        } else {
            "trace is empty"
        }));
    }
    let stats = trace.stats();
    writeln!(
        out,
        "{} packets, {} bytes, {:.1} s, mean {:.1} pps / {:.1} B per packet",
        stats.packets,
        stats.bytes,
        stats.duration.as_secs_f64(),
        stats.mean_pps(),
        stats.mean_size()
    )?;
    writeln!(out, "\n{}", SummaryRow::header())?;
    let sizes: Vec<f64> = trace.sizes().iter().map(|&s| f64::from(s)).collect();
    writeln!(out, "packet size (B)\n{}", SummaryRow::from_data(&sizes))?;
    if trace.len() > 1 {
        let ia: Vec<f64> = trace.interarrivals().iter().map(|&x| x as f64).collect();
        writeln!(out, "interarrival (us)\n{}", SummaryRow::from_data(&ia))?;
    }
    let series = PerSecondSeries::from_trace(&trace);
    if series.len() > 1 {
        writeln!(
            out,
            "packets/s\n{}",
            SummaryRow::from_data(&series.packet_rates())
        )?;
    }
    for target in [Target::Protocol, Target::Port] {
        let h = target.population_histogram(trace.packets());
        writeln!(out, "\n{target} distribution:")?;
        for (label, (count, prop)) in target
            .labels()
            .iter()
            .zip(h.counts().iter().zip(h.proportions()))
        {
            writeln!(out, "  {label:<12} {count:>10} ({:>5.1}%)", prop * 100.0)?;
        }
    }
    Ok(out)
}

/// `netsample sample <in.pcap> <out.pcap> --method M --interval k --seed s`
pub fn sample(args: &Args) -> Result<String, CmdError> {
    expect_positionals(args, 2)?;
    let input = args.positional(0, "in.pcap")?;
    let output = args.positional(1, "out.pcap")?;
    let seed: u64 = args.opt_num("seed", 1993)?;
    let trace = load(input)?;
    // Guard before the percentage math below: `trace.len() == 0` would
    // print a NaN selection rate. Same message and exit (65) as `flows`.
    if trace.is_empty() {
        return Err(CmdError::data("trace is empty"));
    }
    let spec = parse_method(args)?;
    // parse_method already rejects the reachable degenerate flags, but
    // any residual BuildError is still the caller's configuration.
    let mut sampler = spec
        .try_build(trace.len(), trace.start().unwrap_or(Micros::ZERO), 0, seed)
        .map_err(|e| CmdError::usage(e.to_string()))?;
    let selected = select_indices(sampler.as_mut(), trace.packets());
    let sampled: Vec<nettrace::PacketRecord> =
        selected.iter().map(|&i| trace.packets()[i]).collect();
    let out_trace = Trace::new(sampled)?;
    store(output, &out_trace)?;
    Ok(format!(
        "{spec}: selected {} of {} packets ({:.3}%) -> {}\n",
        out_trace.len(),
        trace.len(),
        out_trace.len() as f64 / trace.len() as f64 * 100.0,
        output
    ))
}

/// `netsample score <population.pcap> --method M --interval k --target T`
/// Samples the population internally and reports the full disparity
/// suite (φ et al.).
pub fn score(args: &Args) -> Result<String, CmdError> {
    expect_positionals(args, 1)?;
    let trace = load(args.positional(0, "population.pcap")?)?;
    if trace.is_empty() {
        return Err(CmdError::data("population trace is empty"));
    }
    let target = parse_target(args.opt_or("target", "packet-size"))?;
    let seed: u64 = args.opt_num("seed", 1993)?;
    let reps: u32 = args.opt_num("replications", 5)?;
    let spec = parse_method(args)?;
    let exp = Experiment::new(trace.packets(), target);
    let result = exp.run(spec, reps, seed);
    let mut out = String::new();
    writeln!(
        out,
        "{spec} on {target}, {} replications ({} empty):",
        result.replications.len(),
        result.empty_samples
    )?;
    for r in &result.replications {
        writeln!(
            out,
            "  rep {:<3} n={:<8} phi={:.5} chi2={:<10.2} sig={:.4} cost={:.0}",
            r.replication,
            r.report.sample_size,
            r.report.phi,
            r.report.chi2,
            r.report.significance,
            r.report.cost
        )?;
    }
    if let Some(mean) = result.mean_phi() {
        writeln!(out, "mean phi = {mean:.5}")?;
    }
    Ok(out)
}

/// `netsample compare <a.pcap> <b.pcap> --target T` — φ between two
/// traces' binned distributions (B scored against A as reference).
pub fn compare(args: &Args) -> Result<String, CmdError> {
    expect_positionals(args, 2)?;
    let a = load(args.positional(0, "a.pcap")?)?;
    let b = load(args.positional(1, "b.pcap")?)?;
    let target = parse_target(args.opt_or("target", "packet-size"))?;
    let pop = target.population_histogram(a.packets());
    let all: Vec<usize> = (0..b.len()).collect();
    let hist = target.sample_histogram(b.packets(), &all);
    match disparity(&pop, &hist) {
        Some(r) => Ok(format!(
            "{target}: phi={:.5} chi2={:.2} significance={:.4} X2={:.5}\n",
            r.phi, r.chi2, r.significance, r.x2
        )),
        None => Err(CmdError::data(
            "second trace produced no observations for this target",
        )),
    }
}

/// `netsample sweep <trace.pcap> --target T --replications R` —
/// Figure 8/9-style table over methods × granularities.
pub fn sweep(args: &Args) -> Result<String, CmdError> {
    expect_positionals(args, 1)?;
    let trace = load(args.positional(0, "trace.pcap")?)?;
    if trace.is_empty() {
        return Err(CmdError::data("trace is empty"));
    }
    let target = parse_target(args.opt_or("target", "packet-size"))?;
    let reps: u32 = args.opt_num("replications", 5)?;
    let seed: u64 = args.opt_num("seed", 1993)?;
    let max_k: usize = args.opt_num("max-interval", 4096)?;
    let exp = Experiment::new(trace.packets(), target);
    let mut out = String::new();
    write!(out, "{:>8}", "1/k")?;
    for f in MethodFamily::paper_five() {
        write!(out, " {:>12}", f.name())?;
    }
    writeln!(out)?;
    // The whole methods × granularities table runs as one flattened
    // grid on the session pool (`--jobs`), row-major in print order.
    let mut ks = Vec::new();
    let mut k = 2usize;
    while k <= max_k {
        ks.push(k);
        k *= 4;
    }
    let cells: Vec<(MethodFamily, usize)> = ks
        .iter()
        .flat_map(|&k| MethodFamily::paper_five().into_iter().map(move |f| (f, k)))
        .collect();
    let mut results = exp
        .run_grid_with(&parkit::Pool::with_default_jobs(), &cells, reps, seed)
        .into_iter();
    for k in ks {
        write!(out, "{k:>8}")?;
        for _ in MethodFamily::paper_five() {
            let result = results.next().expect("grid covers the full table");
            match result.mean_phi() {
                Some(phi) => write!(out, " {phi:>12.5}")?,
                None => write!(out, " {:>12}", "empty")?,
            }
        }
        writeln!(out)?;
    }
    Ok(out)
}

/// One flow-inversion replication as a JSONL record (hand-rendered like
/// [`jsonl_record`]; deterministic — the CI stage byte-diffs two runs).
fn flows_jsonl_record(estimator: FlowEstimator, k: u64, r: &sampling::FlowReplication) -> String {
    format!(
        "{{\"estimator\":\"{}\",\"k\":{},\"replication\":{},\"sampled_packets\":{},\
         \"sampled_flows\":{},\"estimated_flows\":{},\"syn_estimate\":{},\"phi\":{}}}",
        estimator.name(),
        k,
        r.replication,
        r.sampled_packets,
        r.sampled_flows,
        r.estimated_flows,
        r.syn_estimate,
        r.report.phi
    )
}

/// `netsample flows <trace.pcap> [--method systematic] [--interval k]
/// [--replications R] [--jsonl out.jsonl]` — recover the parent
/// flow-size distribution from a 1-in-k sampled packet stream and score
/// every inversion estimator (naive / tail-rescale / EM, plus the
/// SYN-based flow count) with φ against the trace's true flow table.
/// Only deterministic systematic sampling is supported: the inversion
/// model is calibrated for exact 1-in-k thinning, and replication `r`
/// is the systematic offset `r mod k`.
pub fn flows(args: &Args) -> Result<String, CmdError> {
    expect_positionals(args, 1)?;
    let trace = load(args.positional(0, "trace.pcap")?)?;
    if trace.is_empty() {
        return Err(CmdError::data("trace is empty"));
    }
    match args.opt_or("method", "systematic") {
        "systematic" => {}
        other => {
            return Err(CmdError::usage(format!(
                "flow inversion supports only deterministic 1-in-k sampling \
                 (--method systematic), got '{other}'"
            )))
        }
    }
    let k: u64 = args.opt_num("interval", 50)?;
    if k == 0 {
        return Err(CmdError::usage(
            "--interval must be at least 1 (a 1-in-0 selection is undefined)",
        ));
    }
    let reps: u32 = args.opt_num("replications", 5)?;
    if reps == 0 {
        return Err(CmdError::usage("--replications must be at least 1"));
    }
    let exp = FlowExperiment::new(trace.packets());
    let cells: Vec<(FlowEstimator, u64)> =
        FlowEstimator::all().into_iter().map(|e| (e, k)).collect();
    let results = exp.run_grid_with(&parkit::Pool::with_default_jobs(), &cells, reps);

    if let Some(jsonl) = args.opt("jsonl") {
        let f =
            File::create(jsonl).map_err(|e| CmdError::io(format!("cannot create {jsonl}: {e}")))?;
        let mut sink = BufWriter::new(f);
        for res in &results {
            for r in &res.replications {
                writeln!(sink, "{}", flows_jsonl_record(res.estimator, res.k, r))
                    .map_err(|e| CmdError::io(format!("cannot write {jsonl}: {e}")))?;
            }
        }
        sink.flush()
            .map_err(|e| CmdError::io(format!("cannot write {jsonl}: {e}")))?;
    }

    let mut out = String::new();
    writeln!(
        out,
        "flow inversion: 1-in-{k} systematic, {} true flows (mean size {:.1} packets), {reps} replication(s)",
        exp.true_flows(),
        exp.true_mean_size()
    )?;
    writeln!(
        out,
        "{:>6} {:>10} {:>12} {:>12} {:>10}",
        "est", "mean phi", "est flows", "syn flows", "unscored"
    )?;
    let mut any_scored = false;
    for res in &results {
        any_scored |= !res.replications.is_empty();
        let fmt = |v: Option<f64>, prec: usize| match v {
            Some(v) => format!("{v:.prec$}"),
            None => "-".to_string(),
        };
        writeln!(
            out,
            "{:>6} {:>10} {:>12} {:>12} {:>10}",
            res.estimator.name(),
            fmt(res.mean_phi(), 5),
            fmt(res.mean_estimated_flows(), 1),
            fmt(res.mean_syn_estimate(), 1),
            res.unscored
        )?;
    }
    if !any_scored {
        return Err(CmdError::data(
            "no replication produced a scorable estimate (sample too sparse for this interval?)",
        ));
    }
    Ok(out)
}

/// Method selection for the streaming engine: the stream-only
/// reservoir, or any [`parse_method`] method. `random` takes each
/// window's `N` from a tumbling packet-count `--window` (the engine
/// rejects time windows and slides, pointing at the reservoir).
pub(crate) fn parse_stream_method(args: &Args) -> Result<StreamMethod, CmdError> {
    if args.opt("method") != Some("reservoir") {
        return Ok(StreamMethod::Spec(parse_method(args)?));
    }
    let capacity: usize = args.opt_num("capacity", 100)?;
    if capacity == 0 {
        return Err(CmdError::usage("--capacity must be at least 1"));
    }
    Ok(StreamMethod::Reservoir { capacity })
}

/// One scored window as a JSONL record (hand-rendered; the workspace
/// carries no JSON dependency).
fn jsonl_record(w: &streamkit::WindowReport) -> String {
    let num = |v: f64| {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    };
    let mut s = format!(
        "{{\"index\":{},\"start_us\":{},\"packets\":{},\"selected\":{}",
        w.index,
        w.start_ts.as_u64(),
        w.packets,
        w.selected
    );
    if let (Some(first), Some(last)) = (w.first_ts, w.last_ts) {
        let _ = write!(
            s,
            ",\"first_us\":{},\"last_us\":{}",
            first.as_u64(),
            last.as_u64()
        );
    }
    // Per-window flow accounting (bounded flow table): live flows and
    // flows that began in-window (SYN-marked).
    let _ = write!(s, ",\"flows\":{},\"syn_flows\":{}", w.flows, w.syn_flows);
    // The same telemetry the live scrape endpoint exposes, per window:
    // cumulative shed count and process RSS.
    let _ = write!(s, ",\"shed\":{},\"rss_kb\":{}", w.shed_packets, w.rss_kb);
    match &w.report {
        Some(r) => {
            let _ = write!(
                s,
                ",\"n\":{},\"phi\":{},\"chi2\":{},\"significance\":{}",
                r.sample_size,
                num(r.phi),
                num(r.chi2),
                num(r.significance)
            );
        }
        None => s.push_str(",\"phi\":null"),
    }
    s.push('}');
    s
}

/// `netsample stream <trace.pcap|-> [--window N|DUR] [--slide N|DUR]
/// [--method M] [--interval k] [--capacity c] [--target T] ...` —
/// one-pass windowed characterization in O(window) memory. `-` reads
/// the capture from stdin, so a live `tcpdump -w -` pipes straight in.
/// One tumbling window spanning the whole capture reproduces the batch
/// `score` φ bit-for-bit for every packet-driven method.
///
/// `--soak N` replaces the trace file with an internally generated
/// rate-paced replay of N windows (no positional argument), asserts the
/// process RSS stays within `--rss-budget-kb` of the pre-run baseline
/// (exit 1 otherwise), and appends a `soak:` report line — the
/// bounded-memory evidence the telemetry plane is scraped against.
pub fn stream(args: &Args) -> Result<String, CmdError> {
    let soak: Option<u64> = match args.opt("soak") {
        Some(_) => Some(args.opt_num("soak", 0u64)?),
        None => None,
    };
    expect_positionals(args, usize::from(soak.is_none()))?;
    let target = parse_target(args.opt_or("target", "packet-size"))?;
    let window = WindowSpec::parse(args.opt_or("window", "1000")).map_err(CmdError::usage)?;
    let mut cfg = StreamConfig::new(parse_stream_method(args)?, target, window);
    cfg.slide = args
        .opt("slide")
        .map(WindowSpec::parse)
        .transpose()
        .map_err(CmdError::usage)?;
    cfg.seed = args.opt_num("seed", 1993)?;
    cfg.replication = args.opt_num("replication", 0)?;
    cfg.backpressure = match args.opt_or("backpressure", "block") {
        "block" => Backpressure::Block,
        "drop-newest" => Backpressure::DropNewest,
        other => {
            return Err(CmdError::usage(format!(
                "unknown backpressure policy '{other}' (block|drop-newest)"
            )))
        }
    };
    if let Some(rule) = args.opt("adaptive-shed") {
        cfg.adaptive_shed = Some(rule.to_string());
        // The control loop reads alert_active{rule}, which only flips on
        // telemetry ticks over the series rings — make sure both run
        // even without --serve.
        obskit::series::ensure_global_series(obskit::SeriesConfig::default());
        obskit::telemetry::ensure_global(obskit::TelemetryConfig::standard());
        let engine = obskit::rules::global_engine();
        if !engine.has_rule(rule) {
            // No rule of that name loaded (via --rules): install the
            // built-in channel high-water tripwire at 3/4 queue depth.
            let hiwater = (3 * streamkit::QUEUE_DEPTH).div_ceil(4);
            let text = format!(
                "rule {rule} value(stream_channel_depth{{stage=\"transform\"}}) >= {hiwater} for 2"
            );
            let parsed = obskit::parse_rules(&text)
                .map_err(|e| CmdError::usage(format!("--adaptive-shed '{rule}': {e}")))?;
            engine
                .add_rules(parsed)
                .map_err(|e| CmdError::data(format!("--adaptive-shed '{rule}': {e}")))?;
        }
    }
    if let Some(ref_path) = args.opt("reference") {
        let reference = load(ref_path)?;
        if reference.is_empty() {
            return Err(CmdError::data("reference trace is empty"));
        }
        cfg.reference = Some(target.population_histogram(reference.packets()));
    }

    let mut soak_report = String::new();
    let summary = if let Some(windows) = soak {
        let window_packets = match window {
            WindowSpec::Count(n) => n,
            WindowSpec::Time(_) => {
                return Err(CmdError::usage(
                    "--soak needs a packet-count --window (the replay is sized in packets)",
                ))
            }
        };
        if windows == 0 || window_packets == 0 {
            return Err(CmdError::usage("--soak and --window must be at least 1"));
        }
        let pace_pps: u64 = args.opt_num("pace-pps", 0u64)?;
        let budget_kb: u64 = args.opt_num("rss-budget-kb", 32_768u64)?;
        // Sample the baseline before the run so the budget measures what
        // the replay *added*, not what the process already held.
        let baseline_kb = obskit::telemetry::rss_kb();
        // Mirror the exit-code gate as a live alert: a scraper (or
        // `watch --fail-on rss_budget`) sees a budget breach while it
        // happens, not only in the exit status afterwards.
        obskit::series::ensure_global_series(obskit::SeriesConfig::default());
        if let Some(baseline) = baseline_kb {
            let engine = obskit::rules::global_engine();
            if !engine.has_rule("rss_budget") {
                let text = format!(
                    "rule rss_budget value(proc_rss_kb) > {} for 2",
                    baseline + budget_kb
                );
                if let Ok(parsed) = obskit::parse_rules(&text) {
                    let _ = engine.add_rules(parsed);
                }
            }
        }
        let telemetry = obskit::telemetry::ensure_global(obskit::TelemetryConfig::standard());
        let reader = netsynth::PacedReader::new(netsynth::ReplayConfig {
            seed: cfg.seed,
            windows,
            window_packets,
            pace_pps,
        });
        let summary = run_stream(BufReader::new(reader), &cfg)?;
        telemetry.sample_now();
        let max = telemetry.max_rss_kb();
        match baseline_kb {
            Some(baseline) if max > 0 => {
                if max > baseline + budget_kb {
                    return Err(CmdError::regression(format!(
                        "soak RSS {max} kB exceeded baseline {baseline} kB + budget {budget_kb} kB"
                    )));
                }
                let _ = writeln!(
                    soak_report,
                    "soak: windows={windows} max_rss_kb={max} baseline_rss_kb={baseline} budget_kb={budget_kb} ok"
                );
            }
            // No /proc on this platform: report the run, skip the gate.
            _ => {
                let _ = writeln!(
                    soak_report,
                    "soak: windows={windows} rss unavailable, budget not asserted"
                );
            }
        }
        summary
    } else {
        let path = args.positional(0, "trace.pcap")?;
        if path == "-" {
            run_stream(BufReader::new(std::io::stdin()), &cfg)?
        } else {
            let f =
                File::open(path).map_err(|e| CmdError::io(format!("cannot open {path}: {e}")))?;
            run_stream(BufReader::new(f), &cfg)?
        }
    };

    if let Some(jsonl) = args.opt("jsonl") {
        let f =
            File::create(jsonl).map_err(|e| CmdError::io(format!("cannot create {jsonl}: {e}")))?;
        let mut sink = BufWriter::new(f);
        for w in &summary.windows {
            writeln!(sink, "{}", jsonl_record(w))
                .map_err(|e| CmdError::io(format!("cannot write {jsonl}: {e}")))?;
        }
        sink.flush()
            .map_err(|e| CmdError::io(format!("cannot write {jsonl}: {e}")))?;
    }

    let mut out = String::new();
    let slide = match cfg.slide {
        Some(s) => format!("sliding by {s}"),
        None => "tumbling".to_string(),
    };
    writeln!(
        out,
        "stream ({}): {} on {}, window {} {}, seed {}",
        summary.format, summary.method, summary.target, cfg.window, slide, cfg.seed
    )?;
    for w in &summary.windows {
        write!(
            out,
            "  window {:>4} start={:<12} n={:<8} selected={:<6} flows={:<6}",
            w.index,
            format!("{}us", w.start_ts.as_u64()),
            w.packets,
            w.selected,
            w.flows
        )?;
        match &w.report {
            Some(r) => writeln!(out, " phi={:.5} chi2={:.2}", r.phi, r.chi2)?,
            None => writeln!(out, " phi=empty")?,
        }
    }
    if summary.dropped_batches > 0 {
        writeln!(
            out,
            "backpressure shed {} batch{} ({} packets)",
            summary.dropped_batches,
            if summary.dropped_batches == 1 {
                ""
            } else {
                "es"
            },
            summary.dropped_packets
        )?;
    }
    let scored = summary
        .windows
        .iter()
        .filter(|w| w.report.is_some())
        .count();
    write!(
        out,
        "{} packets, {} selected, {} window{} ({scored} scored)",
        summary.packets,
        summary.selected,
        summary.windows.len(),
        if summary.windows.len() == 1 { "" } else { "s" },
    )?;
    match summary.mean_phi() {
        Some(phi) => writeln!(out, ", mean phi={phi:.5}")?,
        None => writeln!(out)?,
    }
    out.push_str(&soak_report);
    Ok(out)
}

/// `netsample fuzz [--seed S] [--mutations N] [--cases M] [--corpus-packets P]`
/// — run the faultkit mutation campaign and state-machine fuzzer with a
/// fixed seed and print a deterministic summary. Any contract violation
/// (a panic, an incorrect accept, a salvage inconsistency) is listed and
/// fails the command with exit code 1, so CI can gate on it; the digests
/// let two runs be compared byte-for-byte.
pub fn fuzz(args: &Args) -> Result<String, CmdError> {
    expect_positionals(args, 0)?;
    let seed: u64 = args.opt_num("seed", 1993)?;
    let mutations: u32 = args.opt_num("mutations", 10_000)?;
    let cases: u32 = args.opt_num("cases", 1_000)?;
    let corpus_packets: usize = args.opt_num("corpus-packets", 60)?;
    if mutations == 0 && cases == 0 {
        return Err(CmdError::usage(
            "--mutations and --cases are both 0; nothing to do",
        ));
    }

    let campaign = faultkit::run_campaign(&faultkit::CampaignConfig {
        seed,
        iterations: mutations,
        corpus_packets,
    });
    let state = faultkit::run_state_fuzz(&faultkit::StateFuzzConfig { seed, cases });

    let mut out = String::new();
    writeln!(
        out,
        "mutation campaign: seed {seed}, {} cases, digest {:016x}",
        campaign.cases, campaign.digest
    )?;
    for (outcome, count) in &campaign.outcomes {
        writeln!(out, "  {outcome:<28} {count:>8}")?;
    }
    writeln!(
        out,
        "state fuzz: seed {seed}, {} cases, {} offers, digest {:016x}",
        state.cases, state.offers, state.digest
    )?;
    for (outcome, count) in &state.outcomes {
        writeln!(out, "  {outcome:<28} {count:>8}")?;
    }
    let findings: Vec<String> = campaign
        .findings
        .iter()
        .chain(&state.findings)
        .map(ToString::to_string)
        .collect();
    writeln!(out, "findings: {}", findings.len())?;
    if findings.is_empty() {
        Ok(out)
    } else {
        Err(CmdError::regression(format!(
            "{out}{}\n",
            findings.join("\n")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str], known: &[&str]) -> Args {
        Args::parse(raw.iter().map(|s| s.to_string()), known).unwrap()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("netsample_cli_{name}_{}.pcap", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn synth_analyze_sample_score_pipeline() {
        let pop = tmp("pop");
        let sam = tmp("sam");

        let msg = synth(&args(
            &[&pop, "--seconds", "20", "--seed", "5"],
            &["seconds", "seed", "profile"],
        ))
        .unwrap();
        assert!(msg.contains("wrote"));

        let report = analyze(&args(&[&pop], &[])).unwrap();
        assert!(report.contains("packet size"));
        assert!(report.contains("protocol distribution"));

        let msg = sample(&args(
            &[&pop, &sam, "--method", "systematic", "--interval", "50"],
            &["method", "interval", "seed"],
        ))
        .unwrap();
        assert!(msg.contains("selected"));

        let scored = score(&args(
            &[&pop, "--interval", "50", "--target", "interarrival"],
            &["method", "interval", "seed", "target", "replications"],
        ))
        .unwrap();
        assert!(scored.contains("mean phi"));

        let cmp = compare(&args(&[&pop, &sam], &["target"])).unwrap();
        assert!(cmp.contains("phi="));

        std::fs::remove_file(&pop).ok();
        std::fs::remove_file(&sam).ok();
    }

    #[test]
    fn sweep_renders_method_columns() {
        let pop = tmp("sweep");
        synth(&args(
            &[&pop, "--seconds", "15", "--seed", "3"],
            &["seconds", "seed", "profile"],
        ))
        .unwrap();
        let table = sweep(&args(
            &[&pop, "--max-interval", "32"],
            &["target", "replications", "seed", "max-interval"],
        ))
        .unwrap();
        assert!(table.contains("systematic"));
        assert!(table.contains("strat-timer"));
        assert!(table.lines().count() >= 4);
        std::fs::remove_file(&pop).ok();
    }

    #[test]
    fn extra_positionals_are_rejected() {
        let e = analyze(&args(&["a.pcap", "b.pcap"], &[])).unwrap_err();
        assert!(e.to_string().contains("unexpected extra argument"));
    }

    #[test]
    fn errors_are_user_legible() {
        let e = analyze(&args(&["/nonexistent/x.pcap"], &[])).unwrap_err();
        assert!(e.to_string().contains("cannot open"));
        let e = parse_target("sizes").unwrap_err();
        assert!(e.to_string().contains("unknown target"));
    }

    #[test]
    fn error_classes_carry_sysexits_codes() {
        assert_eq!(CmdError::usage("x").exit_code(), 64);
        assert_eq!(CmdError::data("x").exit_code(), 65);
        assert_eq!(CmdError::io("x").exit_code(), 74);
    }

    #[test]
    fn failures_classify_by_cause() {
        // Missing file: the OS failed us.
        let e = analyze(&args(&["/nonexistent/x.pcap"], &[])).unwrap_err();
        assert_eq!(e.exit_code(), 74, "{e}");
        // Bad flag value: caller error, and `score` and `stream` name
        // the valid methods in the same words.
        let magic = args(&["--method", "magic"], &["method"]);
        let e = parse_method(&magic).unwrap_err();
        assert_eq!(e.exit_code(), 64, "{e}");
        assert!(e.to_string().contains("systematic|stratified"), "{e}");
        let stream_e = parse_stream_method(&magic).unwrap_err();
        assert_eq!(stream_e.to_string(), e.to_string());
        // Readable file, not a pcap: data error.
        let garbage = tmp("garbage");
        std::fs::write(&garbage, b"this is not a capture file").unwrap();
        let e = analyze(&args(&[&garbage], &[])).unwrap_err();
        assert_eq!(e.exit_code(), 65, "{e}");
        std::fs::remove_file(&garbage).ok();
    }

    #[test]
    fn degenerate_method_flags_are_usage_errors() {
        // `--interval 0` must exit 64 for every method, not panic or
        // divide by zero (`random` derives fraction = 1/k).
        for method in ["systematic", "stratified", "random", "geometric"] {
            let e = parse_method(&args(
                &["--method", method, "--interval", "0"],
                &["method", "interval"],
            ))
            .unwrap_err();
            assert_eq!(e.exit_code(), 64, "{method}: {e}");
            assert!(e.to_string().contains("--interval"), "{method}: {e}");
        }
    }

    #[test]
    fn lossy_analyze_salvages_a_truncated_capture() {
        let pop = tmp("lossy_pop");
        synth(&args(
            &[&pop, "--seconds", "20", "--seed", "5"],
            &["seconds", "seed", "profile"],
        ))
        .unwrap();

        // Chop the file mid-record: strict analyze refuses, lossy reports
        // the damage and analyzes what survived.
        let bytes = std::fs::read(&pop).unwrap();
        let cut = tmp("lossy_cut");
        std::fs::write(&cut, &bytes[..bytes.len() - 7]).unwrap();

        let e = analyze(&args(&[&cut], &[])).unwrap_err();
        assert_eq!(e.exit_code(), 65, "{e}");

        let lossy = |raw: &[&str]| {
            crate::args::Args::parse_with_flags(raw.iter().map(|s| s.to_string()), &[], &["lossy"])
                .unwrap()
        };
        let report = analyze(&lossy(&[&cut, "--lossy"])).unwrap();
        assert!(report.contains("lossy ingest (pcap)"), "{report}");
        assert!(report.contains("first fault at byte"), "{report}");
        assert!(report.contains("packet size"), "{report}");

        // A clean capture under --lossy reports no fault and the same
        // analysis body.
        let clean = analyze(&lossy(&[&pop, "--lossy"])).unwrap();
        assert!(clean.contains("lossy ingest (pcap)"), "{clean}");
        assert!(!clean.contains("first fault"), "{clean}");

        std::fs::remove_file(&pop).ok();
        std::fs::remove_file(&cut).ok();
    }

    const FLOWS_OPTS: &[&str] = &["method", "interval", "replications", "jsonl"];

    #[test]
    fn flows_inverts_a_zipf_pack_end_to_end() {
        let pop = tmp("flows_pop");
        synth(&args(
            &[&pop, "--profile", "zipf", "--seconds", "20", "--seed", "9"],
            &["seconds", "seed", "profile"],
        ))
        .unwrap();

        let out = flows(&args(
            &[&pop, "--interval", "10", "--replications", "3"],
            FLOWS_OPTS,
        ))
        .unwrap();
        assert!(out.contains("flow inversion: 1-in-10"), "{out}");
        for name in ["naive", "tail", "em"] {
            assert!(out.contains(name), "{out}");
        }

        std::fs::remove_file(&pop).ok();
    }

    #[test]
    fn flows_jsonl_is_deterministic() {
        let pop = tmp("flows_jsonl_pop");
        synth(&args(
            &[&pop, "--profile", "zipf", "--seconds", "15", "--seed", "4"],
            &["seconds", "seed", "profile"],
        ))
        .unwrap();

        let sink_a = tmp("flows_jsonl_a");
        let sink_b = tmp("flows_jsonl_b");
        for sink in [&sink_a, &sink_b] {
            flows(&args(
                &[
                    &pop,
                    "--interval",
                    "20",
                    "--replications",
                    "2",
                    "--jsonl",
                    sink,
                ],
                FLOWS_OPTS,
            ))
            .unwrap();
        }
        let a = std::fs::read(&sink_a).unwrap();
        let b = std::fs::read(&sink_b).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "two identical runs must emit identical JSONL");
        let text = String::from_utf8(a).unwrap();
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("{\"estimator\":\"naive\""), "{first}");
        assert!(first.contains("\"phi\":"), "{first}");

        std::fs::remove_file(&pop).ok();
        std::fs::remove_file(&sink_a).ok();
        std::fs::remove_file(&sink_b).ok();
    }

    #[test]
    fn flows_rejects_bad_invocations_and_bad_data() {
        let pop = tmp("flows_err_pop");
        synth(&args(
            &[&pop, "--profile", "zipf", "--seconds", "10"],
            &["seconds", "seed", "profile"],
        ))
        .unwrap();

        // --interval 0 and non-systematic methods: usage (64).
        let e = flows(&args(&[&pop, "--interval", "0"], FLOWS_OPTS)).unwrap_err();
        assert_eq!(e.exit_code(), 64, "{e}");
        let e = flows(&args(&[&pop, "--method", "stratified"], FLOWS_OPTS)).unwrap_err();
        assert_eq!(e.exit_code(), 64, "{e}");
        let e = flows(&args(&[&pop, "--replications", "0"], FLOWS_OPTS)).unwrap_err();
        assert_eq!(e.exit_code(), 64, "{e}");

        // Truncated capture: data (65).
        let bytes = std::fs::read(&pop).unwrap();
        let cut = tmp("flows_err_cut");
        std::fs::write(&cut, &bytes[..bytes.len() - 7]).unwrap();
        let e = flows(&args(&[&cut], FLOWS_OPTS)).unwrap_err();
        assert_eq!(e.exit_code(), 65, "{e}");

        // Missing file: I/O (74).
        let e = flows(&args(&["/nonexistent/flows.pcap"], FLOWS_OPTS)).unwrap_err();
        assert_eq!(e.exit_code(), 74, "{e}");

        std::fs::remove_file(&pop).ok();
        std::fs::remove_file(&cut).ok();
    }

    const STREAM_OPTS: &[&str] = &[
        "window",
        "slide",
        "method",
        "interval",
        "capacity",
        "target",
        "seed",
        "replication",
        "backpressure",
        "jsonl",
        "reference",
        "soak",
        "pace-pps",
        "rss-budget-kb",
        "adaptive-shed",
    ];

    #[test]
    fn stream_windows_a_capture_end_to_end() {
        let pop = tmp("stream_pop");
        synth(&args(
            &[&pop, "--seconds", "20", "--seed", "5"],
            &["seconds", "seed", "profile"],
        ))
        .unwrap();

        let out = stream(&args(
            &[&pop, "--window", "2000", "--interval", "50"],
            STREAM_OPTS,
        ))
        .unwrap();
        assert!(out.contains("stream (pcap): systematic"), "{out}");
        assert!(out.contains("window    0"), "{out}");
        assert!(out.contains("mean phi="), "{out}");

        // Time windows and the reservoir, which needs no population.
        let out = stream(&args(
            &[
                &pop,
                "--window",
                "5s",
                "--method",
                "reservoir",
                "--capacity",
                "80",
            ],
            STREAM_OPTS,
        ))
        .unwrap();
        assert!(out.contains("reservoir(k=80)"), "{out}");
        assert!(out.contains("window 5s tumbling"), "{out}");

        std::fs::remove_file(&pop).ok();
    }

    #[test]
    fn stream_writes_jsonl_per_window() {
        let pop = tmp("stream_jsonl_pop");
        synth(&args(
            &[&pop, "--seconds", "15", "--seed", "8"],
            &["seconds", "seed", "profile"],
        ))
        .unwrap();
        let sink = tmp("stream_jsonl_out");
        let out = stream(&args(
            &[&pop, "--window", "1500", "--jsonl", &sink],
            STREAM_OPTS,
        ))
        .unwrap();
        let lines: Vec<String> = std::fs::read_to_string(&sink)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        let windows = out.lines().filter(|l| l.contains("start=")).count();
        assert_eq!(lines.len(), windows, "one JSONL record per window");
        assert!(lines[0].starts_with("{\"index\":0,"), "{}", lines[0]);
        assert!(lines[0].contains("\"phi\":"), "{}", lines[0]);
        // Every record carries the telemetry pair alongside the score;
        // a window is scored when it closes, so there is no lag field.
        for line in &lines {
            for field in ["\"shed\":", "\"rss_kb\":"] {
                assert!(line.contains(field), "missing {field} in {line}");
            }
            assert!(!line.contains("\"lag_us\":"), "{line}");
        }
        std::fs::remove_file(&pop).ok();
        std::fs::remove_file(&sink).ok();
    }

    /// `--method random` takes each window's N from the tumbling
    /// packet-count window and draws a fresh n-of-N in every one.
    #[test]
    fn stream_random_selects_n_of_n_in_every_full_window() {
        let pop = tmp("stream_random_pop");
        synth(&args(
            &[&pop, "--seconds", "20", "--seed", "5"],
            &["seconds", "seed", "profile"],
        ))
        .unwrap();
        let sink = tmp("stream_random_out");
        let flags = ["--method", "random", "--interval", "10", "--window", "2000"];
        let argv = [&[&pop as &str][..], &flags, &["--jsonl", &sink]].concat();
        stream(&args(&argv, STREAM_OPTS)).unwrap();
        let text = std::fs::read_to_string(&sink).unwrap();
        let mut full = 0;
        for line in text.lines() {
            let rec = crate::json::Json::parse(line).unwrap();
            let count = |key| rec.get(key).and_then(crate::json::Json::as_u64).unwrap();
            if count("packets") == 2000 {
                assert_eq!(count("selected"), 200, "{line}");
                full += 1;
            }
        }
        assert!(full >= 3, "only {full} full windows:\n{text}");
        std::fs::remove_file(&pop).ok();
        std::fs::remove_file(&sink).ok();
    }

    #[test]
    fn stream_soak_replays_synthetic_windows_and_reports_rss() {
        // --soak takes no trace argument: the paced replay is generated
        // in-process, windowed, and the RSS budget asserted at the end.
        let out = stream(&args(
            &[
                "--soak",
                "4",
                "--window",
                "500",
                "--interval",
                "25",
                "--seed",
                "9",
            ],
            STREAM_OPTS,
        ))
        .unwrap();
        assert!(out.contains("stream (pcap): systematic"), "{out}");
        assert_eq!(out.lines().filter(|l| l.contains("start=")).count(), 4);
        assert!(
            out.contains("soak: windows=4") || out.contains("rss unavailable"),
            "{out}"
        );
        if let Some(line) = out.lines().find(|l| l.starts_with("soak:")) {
            assert!(
                line.ends_with("ok") || line.contains("rss unavailable"),
                "{line}"
            );
        }
    }

    #[test]
    fn stream_soak_rejects_bad_shapes() {
        // A positional trace alongside --soak, time windows, and a zero
        // window count are all usage errors.
        for bad in [
            vec!["x.pcap", "--soak", "3"],
            vec!["--soak", "3", "--window", "5s"],
            vec!["--soak", "0"],
        ] {
            let e = stream(&args(&bad, STREAM_OPTS)).unwrap_err();
            assert_eq!(e.exit_code(), 64, "{bad:?}: {e}");
        }
    }

    #[test]
    fn stream_soak_budget_violation_is_a_regression_exit() {
        // A 0 kB budget means "no RSS growth at all": either the run
        // genuinely held flat (reports ok) or the gate must trip with the
        // regression exit code — never any other failure class.
        match stream(&args(
            &["--soak", "2", "--window", "200", "--rss-budget-kb", "0"],
            STREAM_OPTS,
        )) {
            Err(e) => {
                assert_eq!(e.exit_code(), 1, "{e}");
                assert!(e.to_string().contains("RSS"), "{e}");
            }
            Ok(out) => assert!(out.contains("soak: windows=2"), "{out}"),
        }
    }

    #[test]
    fn stream_adaptive_shed_installs_builtin_rule_and_rejects_bad_names() {
        // No rule of this name is loaded, so stream installs the
        // built-in channel high-water tripwire under it and still
        // completes the soak.
        let out = stream(&args(
            &[
                "--soak",
                "2",
                "--window",
                "200",
                "--adaptive-shed",
                "cli_shed_probe",
            ],
            STREAM_OPTS,
        ))
        .unwrap();
        assert!(out.contains("stream (pcap): systematic"), "{out}");
        assert!(obskit::rules::global_engine().has_rule("cli_shed_probe"));

        // A name the rule grammar rejects is a usage error, surfaced
        // before any packet is read.
        let e = stream(&args(
            &[
                "--soak",
                "1",
                "--window",
                "100",
                "--adaptive-shed",
                "bad name",
            ],
            STREAM_OPTS,
        ))
        .unwrap_err();
        assert_eq!(e.exit_code(), 64, "{e}");
    }

    #[test]
    fn stream_classifies_failures_like_the_salvage_reader() {
        let pop = tmp("stream_cut_pop");
        synth(&args(
            &[&pop, "--seconds", "10", "--seed", "2"],
            &["seconds", "seed", "profile"],
        ))
        .unwrap();
        let bytes = std::fs::read(&pop).unwrap();
        let cut = tmp("stream_cut");
        std::fs::write(&cut, &bytes[..bytes.len() - 7]).unwrap();

        // A capture that ends mid-record is a data error (65) carrying
        // the byte offset of the broken record, like `analyze --lossy`.
        let e = stream(&args(&[&cut], STREAM_OPTS)).unwrap_err();
        assert_eq!(e.exit_code(), 65, "{e}");
        assert!(e.to_string().contains("at byte"), "{e}");

        // Caller mistakes are usage errors (64), surfaced before any
        // byte is read.
        for bad in [
            vec![&pop as &str, "--window", "0"],
            vec![&pop, "--window", "10x"],
            vec![&pop, "--window", "10s", "--slide", "3s"],
            vec![&pop, "--method", "random", "--window", "2s"], // needs a packet count
            vec![&pop, "--method", "reservoir", "--slide", "500"],
            vec![&pop, "--backpressure", "sometimes"],
        ] {
            let e = stream(&args(&bad, STREAM_OPTS)).unwrap_err();
            assert_eq!(e.exit_code(), 64, "{bad:?}: {e}");
        }

        std::fs::remove_file(&pop).ok();
        std::fs::remove_file(&cut).ok();
    }

    #[test]
    fn stream_phi_matches_batch_score_on_one_window() {
        // The CLI-level equivalence smoke: one tumbling window spanning
        // the capture reproduces `score`'s replication-0 φ digits.
        let pop = tmp("stream_eq_pop");
        synth(&args(
            &[&pop, "--seconds", "12", "--seed", "6"],
            &["seconds", "seed", "profile"],
        ))
        .unwrap();
        let n = load(&pop).unwrap().len();
        let streamed = stream(&args(
            &[
                &pop,
                "--window",
                &n.to_string(),
                "--interval",
                "50",
                "--seed",
                "11",
            ],
            STREAM_OPTS,
        ))
        .unwrap();
        let scored = score(&args(
            &[
                &pop,
                "--interval",
                "50",
                "--seed",
                "11",
                "--replications",
                "1",
            ],
            &["method", "interval", "seed", "target", "replications"],
        ))
        .unwrap();
        let phi_of = |text: &str| {
            let at = text.find("phi=").expect("phi in output");
            text[at + 4..at + 11].to_string()
        };
        assert_eq!(phi_of(&streamed), phi_of(&scored), "{streamed}\n{scored}");
        std::fs::remove_file(&pop).ok();
    }

    #[test]
    fn fuzz_summary_is_deterministic_and_clean() {
        let fuzz_args = args(
            &[
                "--seed",
                "42",
                "--mutations",
                "120",
                "--cases",
                "90",
                "--corpus-packets",
                "12",
            ],
            &["seed", "mutations", "cases", "corpus-packets"],
        );
        let a = fuzz(&fuzz_args).unwrap();
        let b = fuzz(&fuzz_args).unwrap();
        assert_eq!(a, b, "fuzz summary must be byte-identical across runs");
        assert!(a.contains("mutation campaign: seed 42"), "{a}");
        assert!(a.contains("state fuzz: seed 42"), "{a}");
        assert!(a.contains("digest"), "{a}");
        assert!(a.trim_end().ends_with("findings: 0"), "{a}");
    }

    #[test]
    fn flows_profile_synthesizes() {
        let p = tmp("flows");
        let msg = synth(&args(
            &[&p, "--profile", "flows", "--seconds", "10"],
            &["seconds", "seed", "profile"],
        ))
        .unwrap();
        assert!(msg.contains("wrote"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn unknown_profile_and_method_error() {
        let p = tmp("bad");
        let e = synth(&args(&[&p, "--profile", "nope"], &["profile"])).unwrap_err();
        assert!(e.to_string().contains("unknown profile"));
        // sample with bad method
        synth(&args(&[&p, "--seconds", "2"], &["seconds", "profile"])).unwrap();
        let e = sample(&args(
            &[&p, &tmp("o"), "--method", "magic"],
            &["method", "interval"],
        ))
        .unwrap_err();
        assert!(e.to_string().contains("unknown method"));
        std::fs::remove_file(&p).ok();
    }
}
