//! `netsample watch` — poll a running server's `/series` and `/alerts`
//! endpoints and render ASCII sparklines plus alert state in the
//! terminal, with an optional CI gate (`--fail-on RULE`).
//!
//! The client is a std-only HTTP/1.0 `TcpStream` — the same dependency
//! budget as the server it scrapes. Each poll issues one `GET /series`
//! (JSON) and one `GET /alerts` (JSONL); the loop runs `--for N` polls
//! spaced `--interval-ms` apart and then reports:
//!
//! * exit 0 — the watched rule (if any) existed and never fired;
//! * exit 1 — `--fail-on RULE` fired during the watch (regression);
//! * exit 65 — `--fail-on RULE` never appeared in `/alerts` (the gate
//!   would have silently passed on a typo otherwise).

use crate::args::Args;
use crate::commands::CmdError;
use crate::json::Json;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Density ramp for sparkline cells, lowest to highest.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Sparkline width: the newest points that fit one terminal line.
const SPARK_WIDTH: usize = 40;

/// One `GET` over a fresh HTTP/1.0 connection; returns (status, body).
fn http_get(addr: &str, path: &str) -> Result<(u16, String), CmdError> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| CmdError::io(format!("cannot connect to {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| CmdError::io(format!("cannot set timeout: {e}")))?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| CmdError::io(format!("cannot send request to {addr}: {e}")))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| CmdError::io(format!("cannot read response from {addr}: {e}")))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| CmdError::data(format!("malformed HTTP response from {addr}")))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| CmdError::data(format!("malformed status line from {addr}")))?;
    Ok((status, body.to_string()))
}

/// Render `values` as a fixed-ramp sparkline of the newest
/// [`SPARK_WIDTH`] points, min–max normalized per series.
fn sparkline(values: &[f64]) -> String {
    let tail: Vec<f64> = values
        .iter()
        .rev()
        .take(SPARK_WIDTH)
        .rev()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    if tail.is_empty() {
        return String::new();
    }
    let min = tail.iter().copied().fold(f64::INFINITY, f64::min);
    let max = tail.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    tail.iter()
        .map(|v| {
            let idx = if span > 0.0 {
                (((v - min) / span) * (RAMP.len() - 1) as f64).round() as usize
            } else {
                RAMP.len() / 2
            };
            RAMP[idx.min(RAMP.len() - 1)] as char
        })
        .collect()
}

/// One parsed series from the `/series` document.
struct SeriesLine {
    key: String,
    values: Vec<f64>,
    last: Option<f64>,
}

/// Parse the `/series` JSON body into per-key value vectors.
fn parse_series_body(body: &str) -> Result<Vec<SeriesLine>, CmdError> {
    let doc = Json::parse(body).map_err(|e| CmdError::data(format!("bad /series JSON: {e}")))?;
    let series = doc
        .get("series")
        .and_then(Json::as_arr)
        .ok_or_else(|| CmdError::data("/series JSON missing 'series' array"))?;
    let mut out = Vec::with_capacity(series.len());
    for entry in series {
        let key = entry
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| CmdError::data("/series entry missing 'key'"))?
            .to_string();
        let mut values = Vec::new();
        if let Some(points) = entry.get("points").and_then(Json::as_arr) {
            for p in points {
                // Each point is [ts_us, value]; a null value (non-finite
                // on the server) is skipped, not plotted as zero.
                if let Some(pair) = p.as_arr() {
                    if let Some(v) = pair.get(1).and_then(Json::as_f64) {
                        values.push(v);
                    }
                }
            }
        }
        let last = values.last().copied();
        out.push(SeriesLine { key, values, last });
    }
    Ok(out)
}

/// One parsed alert row from the `/alerts` JSONL body.
struct AlertLine {
    rule: String,
    firing: bool,
    value: Option<f64>,
    flaps: u64,
}

/// Parse the `/alerts` JSONL body (one alert object per line).
fn parse_alerts_body(body: &str) -> Result<Vec<AlertLine>, CmdError> {
    let mut out = Vec::new();
    for line in body.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let doc =
            Json::parse(line).map_err(|e| CmdError::data(format!("bad /alerts line: {e}")))?;
        let rule = doc
            .get("rule")
            .and_then(Json::as_str)
            .ok_or_else(|| CmdError::data("/alerts line missing 'rule'"))?
            .to_string();
        let state = doc.get("state").and_then(Json::as_str).unwrap_or("ok");
        out.push(AlertLine {
            rule,
            firing: state == "firing",
            value: doc.get("value").and_then(Json::as_f64),
            flaps: doc.get("flaps").and_then(Json::as_u64).unwrap_or(0),
        });
    }
    Ok(out)
}

/// `netsample watch <addr> [--for N] [--interval-ms MS] [--step K]
/// [--series CSV] [--fail-on RULE]` — see the module docs for the exit
/// contract.
pub fn watch(args: &Args) -> Result<String, CmdError> {
    let addr = args.positional(0, "addr")?.to_string();
    if args.positional_count() != 1 {
        return Err(CmdError::usage("watch takes exactly one <addr> argument"));
    }
    let polls: u64 = args.opt_num("for", 10u64)?;
    if polls == 0 {
        return Err(CmdError::usage("--for must be at least 1"));
    }
    let interval_ms: u64 = args.opt_num("interval-ms", 500u64)?;
    let step: usize = args.opt_num("step", 1usize)?;
    if step == 0 {
        return Err(CmdError::usage("--step must be at least 1"));
    }
    let fail_on = args.opt("fail-on").map(str::to_string);
    let filters: Vec<String> = args
        .opt("series")
        .map(|csv| {
            csv.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();

    let series_path = format!("/series?step={step}");
    let mut fail_rule_seen = false;
    let mut fail_rule_fired = false;
    let mut out = String::new();
    for poll in 0..polls {
        if poll > 0 {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
        let (status, body) = http_get(&addr, &series_path)?;
        if status != 200 {
            return Err(CmdError::data(format!(
                "/series returned {status}: {}",
                body.trim()
            )));
        }
        let mut lines = parse_series_body(&body)?;
        if !filters.is_empty() {
            lines.retain(|l| filters.iter().any(|f| l.key.contains(f.as_str())));
        }
        let (status, body) = http_get(&addr, "/alerts")?;
        if status != 200 {
            return Err(CmdError::data(format!(
                "/alerts returned {status}: {}",
                body.trim()
            )));
        }
        let alerts = parse_alerts_body(&body)?;

        let mut frame = format!("poll {}/{polls} {addr}\n", poll + 1);
        for l in &lines {
            let last = match l.last {
                Some(v) => format!("{v:.1}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                &mut frame,
                "  {:<44} {:>12} |{}|",
                l.key,
                last,
                sparkline(&l.values)
            );
        }
        if alerts.is_empty() {
            frame.push_str("  alerts: (no rules installed)\n");
        }
        for a in &alerts {
            let value = match a.value {
                Some(v) => format!("{v:.1}"),
                None => "null".to_string(),
            };
            let _ = writeln!(
                &mut frame,
                "  alert {:<20} {} value={} flaps={}",
                a.rule,
                if a.firing { "FIRING" } else { "ok" },
                value,
                a.flaps
            );
            if let Some(rule) = &fail_on {
                if &a.rule == rule {
                    fail_rule_seen = true;
                    if a.firing {
                        fail_rule_fired = true;
                    }
                }
            }
        }
        // Stream each frame immediately: watch is a live view, not a
        // report — the caller should see state while the loop runs.
        print!("{frame}");
        let _ = std::io::stdout().flush();
    }

    if let Some(rule) = &fail_on {
        if fail_rule_fired {
            return Err(CmdError::regression(format!(
                "rule '{rule}' fired during the watch"
            )));
        }
        if !fail_rule_seen {
            return Err(CmdError::data(format!(
                "rule '{rule}' never appeared in /alerts (typo, or rules not installed?)"
            )));
        }
        let _ = writeln!(&mut out, "watch: rule '{rule}' ok across {polls} poll(s)");
    } else {
        let _ = writeln!(&mut out, "watch: {polls} poll(s) complete");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_normalizes_and_handles_edge_shapes() {
        assert_eq!(sparkline(&[]), "");
        // Flat series: every cell is the mid-ramp character.
        let flat = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(flat.len(), 3);
        assert!(flat.chars().all(|c| c == RAMP[RAMP.len() / 2] as char));
        // Monotone ramp: first cell lowest, last cell highest.
        let ramp = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert!(ramp.starts_with(' '));
        assert!(ramp.ends_with('@'));
        // Non-finite points are dropped, not plotted.
        let holes = sparkline(&[1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(holes.len(), 2);
    }

    #[test]
    fn sparkline_keeps_only_the_newest_window() {
        let vals: Vec<f64> = (0..100).map(f64::from).collect();
        let s = sparkline(&vals);
        assert_eq!(s.len(), SPARK_WIDTH);
        // The tail is still a rising ramp ending at the maximum.
        assert!(s.ends_with('@'));
    }

    #[test]
    fn series_body_parses_keys_points_and_nulls() {
        let body = r#"{"now_us":10,"interval_us":200000,"step":1,"series":[
            {"key":"proc_rss_kb","points":[[1,10],[2,null],[3,12.5]]},
            {"key":"empty","points":[]}]}"#;
        let lines = parse_series_body(body).unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].key, "proc_rss_kb");
        assert_eq!(lines[0].values, vec![10.0, 12.5]);
        assert_eq!(lines[0].last, Some(12.5));
        assert!(lines[1].values.is_empty());
        assert!(parse_series_body("{\"series\":3}").is_err());
        assert!(parse_series_body("not json").is_err());
    }

    #[test]
    fn alerts_body_parses_states_and_rejects_garbage() {
        let body = concat!(
            "{\"rule\":\"rss\",\"state\":\"firing\",\"expr\":\"e\",\"for_ticks\":1,",
            "\"value\":42.0,\"since_us\":7,\"flaps\":3}\n",
            "{\"rule\":\"quiet\",\"state\":\"ok\",\"expr\":\"e\",\"for_ticks\":1,",
            "\"value\":null,\"since_us\":null,\"flaps\":0}\n"
        );
        let alerts = parse_alerts_body(body).unwrap();
        assert_eq!(alerts.len(), 2);
        assert!(alerts[0].firing);
        assert_eq!(alerts[0].value, Some(42.0));
        assert_eq!(alerts[0].flaps, 3);
        assert!(!alerts[1].firing);
        assert_eq!(alerts[1].value, None);
        assert!(parse_alerts_body("{}\n").is_err());
        assert!(parse_alerts_body("nope\n").is_err());
        assert!(parse_alerts_body("").unwrap().is_empty());
    }

    #[test]
    fn watch_rejects_bad_usage_before_connecting() {
        let args = |raw: &[&str]| {
            Args::parse(
                raw.iter().map(|s| s.to_string()),
                &["for", "interval-ms", "fail-on", "series", "step"],
            )
            .unwrap()
        };
        let e = watch(&args(&[])).unwrap_err();
        assert!(e.to_string().contains("<addr>"));
        let e = watch(&args(&["a:1", "b:2"])).unwrap_err();
        assert!(e.to_string().contains("exactly one"));
        let e = watch(&args(&["127.0.0.1:1", "--for", "0"])).unwrap_err();
        assert!(e.to_string().contains("--for"));
        let e = watch(&args(&["127.0.0.1:1", "--step", "0"])).unwrap_err();
        assert!(e.to_string().contains("--step"));
    }

    #[test]
    fn watch_fails_with_io_error_when_nothing_listens() {
        // Port 1 on localhost is essentially never bound; the connect
        // must surface as an I/O error (74), not a panic or a hang.
        let args = Args::parse(
            [
                "127.0.0.1:1".to_string(),
                "--for".to_string(),
                "1".to_string(),
            ],
            &["for", "interval-ms", "fail-on", "series", "step"],
        )
        .unwrap();
        let e = watch(&args).unwrap_err();
        assert_eq!(e.exit_code(), 74);
    }
}
