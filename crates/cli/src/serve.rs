//! `netsample serve` — the sharded multi-interface collector daemon.
//!
//! Front end for [`collectd`]: builds a tenant × interface fleet,
//! routes it onto shards, runs the windowed round loop on the parkit
//! pool, and emits per-tenant JSONL reports plus a run summary. With
//! the global `--serve` flag the run also exposes the live
//! `collectd_shard_*` gauges on /metrics. `--target-flows` gates the
//! exit code on the peak aggregate live-flow count and
//! `--rss-budget-kb` on the measured process RSS.

use crate::args::Args;
use crate::commands::{expect_positionals, parse_stream_method, parse_target, CmdError, RssBudget};
use collectd::{report_jsonl, run_collector, summary_jsonl, CollectorConfig, LaneSource};
use netstat_sim::Fleet;
use netsynth::FlowSizeDist;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::time::{Duration, Instant};

/// Parse `--size-dist zipf|lognormal|geometric` into the netsynth
/// parent-mix family (fixed shape parameters; the experiment grids
/// sweep shapes, the daemon picks representative heavy tails).
fn parse_size_dist(name: &str) -> Result<FlowSizeDist, CmdError> {
    match name {
        "zipf" => Ok(FlowSizeDist::Zipf {
            max_size: 10_000,
            alpha: 1.2,
        }),
        "lognormal" => Ok(FlowSizeDist::LogNormal {
            mean: 2.0,
            std: 1.2,
        }),
        "geometric" => Ok(FlowSizeDist::Geometric { p: 0.05 }),
        other => Err(CmdError::usage(format!(
            "unknown size dist '{other}' (zipf|lognormal|geometric)"
        ))),
    }
}

/// `netsample serve [--shards S] [--tenants M] [--interfaces N] ...` —
/// run the collector daemon for a bounded number of windows (or until
/// `--duration-ms`), reporting per-tenant windows as JSONL.
pub fn serve(args: &Args) -> Result<String, CmdError> {
    expect_positionals(args, 0)?;
    let shards: u32 = args.opt_num("shards", 4u32)?;
    let tenants: u32 = args.opt_num("tenants", 2u32)?;
    let interfaces: u32 = args.opt_num("interfaces", 4u32)?;
    let windows: u64 = args.opt_num("windows", 2u64)?;
    let window_packets: u64 = args.opt_num("window-packets", 20_000u64)?;
    let lane_queue: u64 = args.opt_num("lane-queue", 0u64)?;
    let lane_queue = if lane_queue == 0 {
        window_packets
    } else {
        lane_queue
    };
    let lane_flow_budget: usize = args.opt_num("lane-flow-budget", 1 << 20)?;
    let flows_per_window: u32 = args.opt_num("flows-per-window", 2_000u32)?;
    let mean_gap_us: u64 = args.opt_num("mean-gap-us", 20u64)?;
    let seed: u64 = args.opt_num("seed", 1993u64)?;
    let target = parse_target(args.opt_or("target", "packet-size"))?;
    let method = parse_stream_method(args)?;
    let source = match args.opt_or("source", "synth") {
        "synth" => LaneSource::Synth {
            flows_per_window,
            size_dist: parse_size_dist(args.opt_or("size-dist", "zipf"))?,
            mean_gap_us,
        },
        "replay" => LaneSource::Replay {
            pace_pps: args.opt_num("pace-pps", 0u64)?,
        },
        other => {
            return Err(CmdError::usage(format!(
                "unknown source '{other}' (synth|replay)"
            )))
        }
    };
    let duration_ms: u64 = args.opt_num("duration-ms", 0u64)?;
    let deadline = if duration_ms > 0 {
        Some(Instant::now() + Duration::from_millis(duration_ms))
    } else {
        None
    };
    let target_flows: u64 = args.opt_num("target-flows", 0u64)?;
    let rss_budget_kb: u64 = args.opt_num("rss-budget-kb", 0u64)?;

    let fleet =
        Fleet::anonymous(tenants, interfaces).map_err(|e| CmdError::usage(e.to_string()))?;
    let cfg = CollectorConfig {
        fleet,
        shards,
        method,
        target,
        windows,
        window_packets,
        lane_queue,
        lane_flow_budget,
        seed,
        source,
    };
    cfg.validate().map_err(|e| CmdError::usage(e.to_string()))?;

    // The RSS gate installs its live alert rule, so a scraper (or
    // `netsample watch --fail-on`) sees a breach while it happens.
    let rss_budget = if rss_budget_kb > 0 {
        Some(RssBudget::arm(rss_budget_kb)?)
    } else {
        None
    };
    let telemetry = obskit::telemetry::ensure_global();

    let pool = parkit::Pool::with_default_jobs();
    let mut progress = String::new();
    let out = run_collector(cfg, &pool, deadline, |r| {
        // Push the fresh gauges into the series rings so the alert
        // rules fire on round cadence, not only on background ticks.
        telemetry.sample_now();
        let _ = writeln!(
            progress,
            "  round {:>3}: live_flows={:<9} shed={:<9} selected={}",
            r.round, r.live_flows, r.shed, r.selected
        );
    })
    .map_err(|e| CmdError::data(e.to_string()))?;
    telemetry.sample_now();

    if let Some(jsonl) = args.opt("jsonl") {
        let f =
            File::create(jsonl).map_err(|e| CmdError::io(format!("cannot create {jsonl}: {e}")))?;
        let mut sink = BufWriter::new(f);
        for r in &out.reports {
            writeln!(sink, "{}", report_jsonl(r))
                .map_err(|e| CmdError::io(format!("cannot write {jsonl}: {e}")))?;
        }
        writeln!(sink, "{}", summary_jsonl(&out.summary))
            .map_err(|e| CmdError::io(format!("cannot write {jsonl}: {e}")))?;
        sink.flush()
            .map_err(|e| CmdError::io(format!("cannot write {jsonl}: {e}")))?;
    }

    let s = &out.summary;
    let mut text = String::new();
    writeln!(
        text,
        "serve: shards={} tenants={} interfaces={} lanes={} method={} seed={}",
        s.shards, s.tenants, s.interfaces, s.lanes, s.method, s.seed
    )?;
    text.push_str(&progress);
    writeln!(
        text,
        "windows {}/{} ({} packets/lane/window), ingested={} considered={} shed={} selected={}{}",
        s.windows_completed,
        s.windows_configured,
        s.window_packets,
        s.ingested,
        s.considered,
        s.shed,
        s.selected,
        if s.drained { " (drained)" } else { "" }
    )?;
    writeln!(
        text,
        "flows: max_live={} max_shard={} evicted={} imbalance_x1000={}",
        s.max_live_flows, s.max_shard_flows, s.evicted_flows, s.routing_imbalance_x1000
    )?;
    for r in out.reports.iter().take(6) {
        writeln!(
            text,
            "  window {:>3} {}: packets={:<8} flows={:<8} syn={:<8} phi={}",
            r.window,
            r.tenant,
            r.packets,
            r.flows,
            r.syn_flows,
            r.phi.map_or("empty".to_string(), |p| format!("{p:.5}")),
        )?;
    }
    if out.reports.len() > 6 {
        writeln!(text, "  ... {} more report(s)", out.reports.len() - 6)?;
    }

    // Gates (exit 1 regression) after the report so the evidence prints
    // even on failure paths that a CI log needs.
    if s.ingested != s.considered + s.shed {
        return Err(CmdError::data(format!(
            "conservation violated: ingested {} != considered {} + shed {}",
            s.ingested, s.considered, s.shed
        )));
    }
    if target_flows > 0 {
        if s.max_live_flows < target_flows {
            return Err(CmdError::regression(format!(
                "peak live flows {} below the --target-flows {} soak target",
                s.max_live_flows, target_flows
            )));
        }
        writeln!(
            text,
            "soak: max_live_flows={} target={target_flows} ok",
            s.max_live_flows
        )?;
    }
    if let Some(budget) = &rss_budget {
        match budget.check(telemetry, "serve")? {
            Some(ok) => writeln!(text, "rss: {ok}")?,
            None => writeln!(text, "rss: unavailable, budget not asserted")?,
        }
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Args {
        Args::parse(
            argv.iter().map(|s| s.to_string()),
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
                "rss-budget-kb",
                "jsonl",
            ],
        )
        .unwrap()
    }

    #[test]
    fn small_serve_run_reports_conservation_and_flows() {
        let a = parse(&[
            "--shards",
            "2",
            "--tenants",
            "2",
            "--interfaces",
            "2",
            "--windows",
            "2",
            "--window-packets",
            "400",
            "--lane-queue",
            "300",
            "--flows-per-window",
            "40",
            "--interval",
            "5",
        ]);
        let out = serve(&a).unwrap();
        assert!(out.contains("serve: shards=2 tenants=2 interfaces=2 lanes=4"));
        assert!(out.contains("ingested=3200 considered=2400 shed=800"));
        assert!(out.contains("windows 2/2"));
    }

    #[test]
    fn jsonl_reports_are_deterministic_across_runs_and_shard_counts() {
        let dir = std::env::temp_dir();
        let run = |shards: &str, tag: &str| {
            let path = dir.join(format!(
                "netsample_serve_{}_{tag}.jsonl",
                std::process::id()
            ));
            let p = path.to_string_lossy().into_owned();
            let a = parse(&[
                "--shards",
                shards,
                "--windows",
                "2",
                "--window-packets",
                "300",
                "--flows-per-window",
                "30",
                "--jsonl",
                &p,
            ]);
            serve(&a).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            text
        };
        let a1 = run("4", "a");
        let a2 = run("4", "b");
        assert_eq!(a1, a2, "same config twice is byte-identical");
        let single = run("1", "c");
        let strip_summary = |t: &str| {
            t.lines()
                .filter(|l| !l.contains("\"summary\":true"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip_summary(&a1),
            strip_summary(&single),
            "reports are bit-identical across shard counts"
        );
    }

    /// Simple random sampling draws a fresh n-of-N in every lane
    /// window, not only in the first.
    #[test]
    fn random_selects_n_of_n_in_every_window() {
        let path = std::env::temp_dir().join(format!(
            "netsample_serve_random_{}.jsonl",
            std::process::id()
        ));
        let p = path.to_string_lossy().into_owned();
        let flags = "--method random --interval 10 --windows 4 --tenants 1 --interfaces 1 \
                     --shards 1 --window-packets 2000 --flows-per-window 100 --jsonl";
        let mut argv: Vec<&str> = flags.split_whitespace().collect();
        argv.push(&p);
        serve(&parse(&argv)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let selected: Vec<u64> = text
            .lines()
            .filter(|l| !l.contains("\"summary\":true"))
            .map(|l| {
                let rec = crate::json::Json::parse(l).unwrap();
                rec.get("selected")
                    .and_then(crate::json::Json::as_u64)
                    .unwrap()
            })
            .collect();
        assert_eq!(selected, vec![200; 4], "{text}");
    }

    #[test]
    fn soak_target_gate_fails_with_exit_1() {
        let a = parse(&[
            "--windows",
            "1",
            "--window-packets",
            "200",
            "--flows-per-window",
            "10",
            "--target-flows",
            "1000000",
        ]);
        let e = serve(&a).unwrap_err();
        assert_eq!(e.exit_code(), 1);
        assert!(e.to_string().contains("below the --target-flows"));
    }

    #[test]
    fn bad_knobs_are_usage_errors() {
        let a = parse(&["--shards", "0"]);
        assert_eq!(serve(&a).unwrap_err().exit_code(), 64);
        let a = parse(&["--source", "quantum"]);
        assert_eq!(serve(&a).unwrap_err().exit_code(), 64);
        let a = parse(&["--size-dist", "uniformish"]);
        assert_eq!(serve(&a).unwrap_err().exit_code(), 64);
        let a = parse(&["--windows", "0"]);
        assert_eq!(serve(&a).unwrap_err().exit_code(), 64);
    }

    #[test]
    fn duration_drain_emits_partial_summary() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "netsample_serve_drain_{}.jsonl",
            std::process::id()
        ));
        let p = path.to_string_lossy().into_owned();
        let a = parse(&[
            "--windows",
            "100000",
            "--window-packets",
            "2000000",
            "--flows-per-window",
            "1000",
            "--duration-ms",
            "60",
            "--jsonl",
            &p,
        ]);
        let out = serve(&a).unwrap();
        assert!(out.contains("(drained)"));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let summary = text
            .lines()
            .find(|l| l.contains("\"summary\":true"))
            .expect("summary line");
        assert!(summary.contains("\"drained\":true"));
    }
}
