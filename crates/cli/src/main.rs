//! `netsample` — synthesize, analyze, sample, and score packet traces.
//!
//! The command-line face of the SIGCOMM 1993 sampling-methodology
//! reproduction:
//!
//! ```text
//! netsample synth   <out.pcap>  [--profile sdsc|fixwest|flows|zipf] [--seconds N] [--seed S]
//! netsample analyze <trace.pcap> [--lossy]
//! netsample sample  <in.pcap> <out.pcap> [--method systematic|stratified|random|geometric]
//!                   [--interval k] [--seed S]
//! netsample score   <population.pcap> [--method M] [--interval k]
//!                   [--target packet-size|interarrival|protocol|port] [--replications R]
//! netsample compare <a.pcap> <b.pcap> [--target T]
//! netsample sweep   <trace.pcap> [--target T] [--max-interval K] [--replications R]
//! netsample stream  <trace.pcap|-> [--window N|DUR] [--method M] [--interval k]
//! netsample fuzz    [--seed S] [--mutations N] [--cases M]
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod args;
mod commands;
mod json;
mod serve;
mod watch;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "netsample — packet-sampling toolkit (SIGCOMM 1993 reproduction)

USAGE:
  netsample synth   <out.pcap>  [--profile sdsc|fixwest|flows|zipf] [--seconds N] [--seed S]
  netsample analyze <trace.pcap> [--lossy]   (--lossy salvages damaged captures)
  netsample sample  <in.pcap> <out.pcap> [--method M] [--interval k] [--seed S]
  netsample score   <population.pcap> [--method M] [--interval k] [--target T] [--replications R]
  netsample compare <a.pcap> <b.pcap> [--target T]
  netsample sweep   <trace.pcap> [--target T] [--max-interval K] [--replications R]
  netsample flows   <trace.pcap> [--method systematic] [--interval k]
                    [--replications R] [--jsonl out.jsonl]
                    (recover the parent flow-size distribution from the
                    1-in-k sampled stream; scores naive / tail-rescale /
                    EM inversion plus the SYN flow count with phi against
                    the trace's true flow table; traces from
                    `synth --profile zipf` carry the flow ids this needs)
  netsample stream  <trace.pcap|-> [--window N|DUR] [--slide N|DUR] [--method M]
                    [--interval k] [--capacity c] [--target T] [--seed S]
                    [--replication R]
                    [--backpressure block|drop-newest] [--jsonl out.jsonl]
                    [--reference ref.pcap] [--adaptive-shed RULE]
                    (- reads the capture from stdin; one-pass, O(window)
                    memory; DUR like 500ms, 10s, 1m; --method random draws
                    exactly n of each window's N packets, so it needs a
                    tumbling packet-count --window; --adaptive-shed widens
                    shedding while alert RULE fires — a built-in channel
                    high-water rule is installed if RULE is not loaded)
  netsample stream  --soak N [--pace-pps R] [--rss-budget-kb KB] [stream options]
                    (no trace argument: replays N synthetic windows, paced at
                    R pkt/s, and fails with exit 1 if RSS grows past the budget)
  netsample fuzz    [--seed S] [--mutations N] [--cases M] [--corpus-packets P]
  netsample serve   [--shards S] [--tenants N] [--interfaces I] [--windows W]
                    [--window-packets P] [--lane-queue Q] [--lane-flow-budget B]
                    [--flows-per-window F] [--method M] [--interval k]
                    [--source synth|replay] [--size-dist zipf|lognormal|geometric]
                    [--seed S] [--duration-ms MS] [--target-flows N]
                    [--shard-rss-budget-kb KB] [--rss-budget-kb KB]
                    [--jsonl out.jsonl]
                    (sharded multi-tenant collector daemon: N tenants ×
                    I interfaces routed onto S shards, per-window per-tenant
                    reports with inversion estimates; output is bit-identical
                    at any shard count; --duration-ms drains gracefully with
                    a partial-window flush; exit 1 if --target-flows or an
                    RSS budget is missed, 65 if conservation breaks)
  netsample watch   <addr> [--for N] [--interval-ms MS] [--step K]
                    [--series CSV] [--fail-on RULE]
                    (poll a serving netsample's /series and /alerts,
                    render sparklines; with --fail-on, exit 1 if RULE
                    fires, 65 if RULE is unknown to the server)

global options (any position):
  --serve <addr>       serve live telemetry over HTTP for the duration of the
                       run: GET /metrics (Prometheus text), /healthz
                       (liveness + ingest staleness), /snapshot (JSONL),
                       /series (ring-buffer history), /alerts (rule state);
                       <addr> like 127.0.0.1:9184, port 0 picks one (the
                       bound address is printed to stderr)
  --rules <path>       load alert rules (one `rule NAME FUNC(METRIC) OP
                       THRESHOLD [for TICKS]` per line) and evaluate them
                       every telemetry tick; state appears on /alerts
  --telemetry-interval-ms <ms>  background sampler cadence (default 200)
  --stale-after-ms <ms>         /healthz ingest-staleness threshold
                                (default 5000)
  --jobs <n>           worker-pool width for experiment grids (default:
                       available parallelism; NETSAMPLE_JOBS=<n> does
                       the same; 1 forces the serial path — results are
                       bit-identical at any width)
  --metrics            dump the metrics registry to stderr at exit
  --trace <path>       write structured JSONL trace events to <path>
                       (NETSAMPLE_TRACE=<path> does the same)
  --profile-out <path> write the run's span tree as collapsed stacks
                       (flamegraph/'inferno' input) to <path> at exit

methods: systematic | stratified | random | geometric (stream adds: reservoir)
targets: packet-size | interarrival | protocol | port

exit codes: 0 ok, 1 failed gate (fuzz finding, RSS budget, --target-flows,
            watch --fail-on), 64 usage error, 65 bad data, 74 I/O error
";

/// The global flags every subcommand accepts without listing them.
#[derive(Debug, Default, PartialEq)]
struct GlobalFlags {
    metrics: bool,
    trace_path: Option<String>,
    profile_out: Option<String>,
    jobs: Option<usize>,
    serve: Option<String>,
    rules_path: Option<String>,
    telemetry_interval_ms: Option<u64>,
    stale_after_ms: Option<u64>,
}

/// Pull `--metrics`, `--jobs <n>`/`--jobs=<n>`,
/// `--trace <path>`/`--trace=<path>`,
/// `--profile-out <path>`/`--profile-out=<path>`,
/// `--serve <addr>`/`--serve=<addr>`, `--rules <path>`,
/// `--telemetry-interval-ms <ms>`, and `--stale-after-ms <ms>` out of
/// the argument list (each value flag accepts both spellings).
fn extract_global_flags(argv: &mut Vec<String>) -> Result<GlobalFlags, String> {
    let mut flags = GlobalFlags::default();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--metrics" => {
                flags.metrics = true;
                argv.remove(i);
            }
            "--trace" => {
                argv.remove(i);
                if i >= argv.len() {
                    return Err("--trace needs a value".to_string());
                }
                flags.trace_path = Some(argv.remove(i));
            }
            "--profile-out" => {
                argv.remove(i);
                if i >= argv.len() {
                    return Err("--profile-out needs a value".to_string());
                }
                flags.profile_out = Some(argv.remove(i));
            }
            "--jobs" => {
                argv.remove(i);
                if i >= argv.len() {
                    return Err("--jobs needs a value".to_string());
                }
                flags.jobs = Some(parse_jobs(&argv.remove(i))?);
            }
            "--serve" => {
                argv.remove(i);
                if i >= argv.len() {
                    return Err("--serve needs a listen address like 127.0.0.1:9184".to_string());
                }
                flags.serve = Some(argv.remove(i));
            }
            "--rules" => {
                argv.remove(i);
                if i >= argv.len() {
                    return Err("--rules needs a file path".to_string());
                }
                flags.rules_path = Some(argv.remove(i));
            }
            "--telemetry-interval-ms" => {
                argv.remove(i);
                if i >= argv.len() {
                    return Err("--telemetry-interval-ms needs a value".to_string());
                }
                flags.telemetry_interval_ms =
                    Some(parse_ms(&argv.remove(i), "telemetry-interval-ms")?);
            }
            "--stale-after-ms" => {
                argv.remove(i);
                if i >= argv.len() {
                    return Err("--stale-after-ms needs a value".to_string());
                }
                flags.stale_after_ms = Some(parse_ms(&argv.remove(i), "stale-after-ms")?);
            }
            other => {
                if let Some(v) = other.strip_prefix("--serve=") {
                    flags.serve = Some(v.to_string());
                    argv.remove(i);
                } else if let Some(v) = other.strip_prefix("--rules=") {
                    flags.rules_path = Some(v.to_string());
                    argv.remove(i);
                } else if let Some(v) = other.strip_prefix("--telemetry-interval-ms=") {
                    flags.telemetry_interval_ms = Some(parse_ms(v, "telemetry-interval-ms")?);
                    argv.remove(i);
                } else if let Some(v) = other.strip_prefix("--stale-after-ms=") {
                    flags.stale_after_ms = Some(parse_ms(v, "stale-after-ms")?);
                    argv.remove(i);
                } else if let Some(v) = other.strip_prefix("--trace=") {
                    flags.trace_path = Some(v.to_string());
                    argv.remove(i);
                } else if let Some(v) = other.strip_prefix("--profile-out=") {
                    flags.profile_out = Some(v.to_string());
                    argv.remove(i);
                } else if let Some(v) = other.strip_prefix("--jobs=") {
                    flags.jobs = Some(parse_jobs(v)?);
                    argv.remove(i);
                } else {
                    i += 1;
                }
            }
        }
    }
    Ok(flags)
}

fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--jobs needs a positive integer, got '{v}'")),
    }
}

fn parse_ms(v: &str, flag: &str) -> Result<u64, String> {
    match v.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "--{flag} needs a positive millisecond count, got '{v}'"
        )),
    }
}

/// Load `--rules <path>` into the global engine. Installs the series
/// store first so the rules have rings to evaluate against on the next
/// telemetry tick.
fn install_rules(path: &str) -> Result<usize, (u8, String)> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| (74, format!("cannot read rules file {path}: {e}")))?;
    let rules = obskit::parse_rules(&text).map_err(|e| (65, format!("{path}: {e}")))?;
    obskit::series::ensure_global_series(obskit::SeriesConfig::default());
    obskit::rules::global_engine()
        .add_rules(rules)
        .map_err(|e| (65, format!("{path}: {e}")))
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = match extract_global_flags(&mut argv) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("netsample: {e}");
            return ExitCode::from(64);
        }
    };
    if let Some(jobs) = flags.jobs {
        parkit::set_default_jobs(jobs);
    }
    if let Some(path) = &flags.trace_path {
        if let Err(e) = obskit::trace::enable_path(path) {
            eprintln!("netsample: cannot open trace sink {path}: {e}");
            return ExitCode::from(74);
        }
    } else {
        obskit::trace::init_from_env();
    }
    // Flush buffered trace events even if a command panics mid-run: the
    // partial trace up to the failure is the debugging artifact.
    let _flush = obskit::trace::flush_on_drop();

    // Cadence must be set before any ensure_global: a sampler already
    // running keeps its original interval.
    if let Some(ms) = flags.telemetry_interval_ms {
        obskit::telemetry::set_default_interval_ms(ms);
    }
    if let Some(path) = &flags.rules_path {
        match install_rules(path) {
            Ok(n) => {
                eprintln!("netsample: loaded {n} alert rule(s) from {path}");
                // Rules only evaluate on telemetry ticks; make sure the
                // sampler runs even without --serve.
                obskit::telemetry::ensure_global(obskit::TelemetryConfig::standard());
            }
            Err((code, msg)) => {
                eprintln!("netsample: {msg}");
                return ExitCode::from(code);
            }
        }
    }

    let server = match &flags.serve {
        Some(addr) => {
            // The series store must exist before the sampler's first
            // tick for /series to carry history from t=0.
            obskit::series::ensure_global_series(obskit::SeriesConfig::default());
            // The background sampler keeps proc_rss_kb/open-fd gauges
            // fresh between scrapes even while a command is CPU-bound.
            obskit::telemetry::ensure_global(obskit::TelemetryConfig::standard());
            let mut cfg = obskit::ServeConfig {
                addr: addr.clone(),
                ..obskit::ServeConfig::default()
            };
            if let Some(ms) = flags.stale_after_ms {
                cfg.stale_after = std::time::Duration::from_millis(ms);
            }
            match obskit::serve(&cfg) {
                Ok(handle) => {
                    eprintln!("netsample: serving on {}", handle.addr());
                    Some(handle)
                }
                Err(e) => {
                    eprintln!("netsample: cannot serve on {addr}: {e}");
                    return ExitCode::from(74);
                }
            }
        }
        None => None,
    };

    let code = match argv.split_first() {
        None => {
            eprint!("{USAGE}");
            ExitCode::from(64)
        }
        Some((cmd, rest)) => match run(cmd, rest.to_vec()) {
            Ok(output) => {
                print!("{output}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("netsample {cmd}: {e}");
                ExitCode::from(e.exit_code())
            }
        },
    };

    if let Some(handle) = server {
        let addr = handle.addr();
        // Graceful: stop accepting, drain in-flight handlers, then report.
        handle.shutdown();
        let served: u64 = ["/metrics", "/healthz", "/snapshot", "/series", "/alerts"]
            .iter()
            .map(|p| obskit::counter_labeled("serve_requests_total", &[("path", p)]).get())
            .sum();
        let bad = obskit::counter("serve_bad_requests_total").get();
        eprintln!("netsample: telemetry server {addr} served {served} request(s), {bad} rejected as malformed");
    }

    // The dump runs on failures too: a crashed run's partial counters are
    // exactly what one wants when debugging it.
    if flags.metrics {
        eprint!("{}", obskit::global().render_summary());
    }
    if let Some(path) = &flags.profile_out {
        if let Err(e) = std::fs::write(path, obskit::tree::render_folded()) {
            eprintln!("netsample: cannot write profile {path}: {e}");
            return ExitCode::from(74);
        }
    }
    obskit::trace::flush();
    code
}

fn run(cmd: &str, rest: Vec<String>) -> Result<String, commands::CmdError> {
    match cmd {
        "synth" => {
            let a = Args::parse(rest, &["profile", "seconds", "seed"])?;
            commands::synth(&a)
        }
        "analyze" => {
            let a = Args::parse_with_flags(rest, &[], &["lossy"])?;
            commands::analyze(&a)
        }
        "fuzz" => {
            let a = Args::parse(rest, &["seed", "mutations", "cases", "corpus-packets"])?;
            commands::fuzz(&a)
        }
        "sample" => {
            let a = Args::parse(rest, &["method", "interval", "seed"])?;
            commands::sample(&a)
        }
        "score" => {
            let a = Args::parse(
                rest,
                &["method", "interval", "seed", "target", "replications"],
            )?;
            commands::score(&a)
        }
        "compare" => {
            let a = Args::parse(rest, &["target"])?;
            commands::compare(&a)
        }
        "sweep" => {
            let a = Args::parse(rest, &["target", "replications", "seed", "max-interval"])?;
            commands::sweep(&a)
        }
        "flows" => {
            let a = Args::parse(rest, &["method", "interval", "replications", "jsonl"])?;
            commands::flows(&a)
        }
        "stream" => {
            let a = Args::parse(
                rest,
                &[
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
                ],
            )?;
            commands::stream(&a)
        }
        "serve" => {
            let a = Args::parse(
                rest,
                &[
                    "shards",
                    "tenants",
                    "interfaces",
                    "windows",
                    "window-packets",
                    "lane-queue",
                    "lane-flow-budget",
                    "flows-per-window",
                    "mean-gap-us",
                    "seed",
                    "target",
                    "method",
                    "interval",
                    "capacity",
                    "source",
                    "size-dist",
                    "pace-pps",
                    "duration-ms",
                    "target-flows",
                    "shard-rss-budget-kb",
                    "rss-budget-kb",
                    "jsonl",
                ],
            )?;
            serve::serve(&a)
        }
        "watch" => {
            let a = Args::parse(rest, &["for", "interval-ms", "fail-on", "series", "step"])?;
            watch::watch(&a)
        }
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(commands::CmdError::usage(format!(
            "unknown command '{other}'\n\n{USAGE}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_prints_usage() {
        let out = run("help", vec![]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("sweep"));
    }

    #[test]
    fn jobs_flag_is_extracted_in_both_forms() {
        let mut argv = vec!["score".into(), "--jobs".into(), "4".into(), "x.pcap".into()];
        let f = extract_global_flags(&mut argv).unwrap();
        assert_eq!(f.jobs, Some(4));
        assert_eq!(argv, vec!["score".to_string(), "x.pcap".to_string()]);
        let mut argv = vec!["--jobs=8".into()];
        assert_eq!(extract_global_flags(&mut argv).unwrap().jobs, Some(8));
        assert!(argv.is_empty());
        for bad in ["0", "-2", "many"] {
            let mut argv = vec!["--jobs".into(), bad.into()];
            assert!(extract_global_flags(&mut argv).is_err(), "{bad}");
        }
        let mut argv = vec!["--jobs".into()];
        assert!(extract_global_flags(&mut argv).is_err());
    }

    #[test]
    fn serve_flag_is_extracted_in_both_forms() {
        let mut argv = vec![
            "stream".into(),
            "--serve".into(),
            "127.0.0.1:0".into(),
            "x.pcap".into(),
        ];
        let f = extract_global_flags(&mut argv).unwrap();
        assert_eq!(f.serve.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(argv, vec!["stream".to_string(), "x.pcap".to_string()]);
        let mut argv = vec!["--serve=0.0.0.0:9184".into()];
        assert_eq!(
            extract_global_flags(&mut argv).unwrap().serve.as_deref(),
            Some("0.0.0.0:9184")
        );
        assert!(argv.is_empty());
        let mut argv = vec!["--serve".into()];
        assert!(extract_global_flags(&mut argv).is_err());
    }

    #[test]
    fn telemetry_flags_are_extracted_in_both_forms() {
        let mut argv = vec![
            "stream".into(),
            "--telemetry-interval-ms".into(),
            "50".into(),
            "--stale-after-ms=2500".into(),
            "--rules".into(),
            "alerts.rules".into(),
            "x.pcap".into(),
        ];
        let f = extract_global_flags(&mut argv).unwrap();
        assert_eq!(f.telemetry_interval_ms, Some(50));
        assert_eq!(f.stale_after_ms, Some(2500));
        assert_eq!(f.rules_path.as_deref(), Some("alerts.rules"));
        assert_eq!(argv, vec!["stream".to_string(), "x.pcap".to_string()]);
        for bad in ["0", "-5", "soon"] {
            let mut argv = vec!["--telemetry-interval-ms".into(), bad.into()];
            assert!(extract_global_flags(&mut argv).is_err(), "{bad}");
            let mut argv = vec![format!("--stale-after-ms={bad}")];
            assert!(extract_global_flags(&mut argv).is_err(), "{bad}");
        }
        let mut argv = vec!["--rules".into()];
        assert!(extract_global_flags(&mut argv).is_err());
    }

    #[test]
    fn rules_install_reports_missing_file_and_bad_grammar() {
        let missing = install_rules("/nonexistent/netsample.rules").unwrap_err();
        assert_eq!(missing.0, 74);
        let bad = std::env::temp_dir().join(format!("netsample_rules_{}.bad", std::process::id()));
        std::fs::write(&bad, "rule broken nonsense\n").unwrap();
        let e = install_rules(&bad.to_string_lossy()).unwrap_err();
        assert_eq!(e.0, 65);
        assert!(e.1.contains("rule line 1"));
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let e = run("frobnicate", vec![]).unwrap_err();
        assert!(e.to_string().contains("unknown command"));
        assert!(e.to_string().contains("USAGE"));
    }

    #[test]
    fn end_to_end_via_dispatcher() {
        let pop = std::env::temp_dir()
            .join(format!("netsample_main_{}.pcap", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let out = run("synth", vec![pop.clone(), "--seconds".into(), "10".into()]).unwrap();
        assert!(out.contains("wrote"));
        let out = run("analyze", vec![pop.clone()]).unwrap();
        assert!(out.contains("packets/s") || out.contains("packet size"));
        std::fs::remove_file(&pop).ok();
    }
}
