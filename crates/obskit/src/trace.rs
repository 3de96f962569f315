//! Structured JSONL event tracing.
//!
//! A process-wide sink, disabled by default. Enable it with
//! [`enable_path`] (the CLI's `--trace <path>`) or [`init_from_env`]
//! (the `NETSAMPLE_TRACE` environment variable). Each event is one JSON
//! object per line — flat string/integer fields only, hand-serialized
//! and hand-parsed here so the crate stays dependency-free.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Environment variable naming the trace output path.
pub const TRACE_ENV: &str = "NETSAMPLE_TRACE";

static SINK: OnceLock<Mutex<Box<dyn Write + Send>>> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(false);

/// One trace event: a kind (`span`, `count`, …), a name, an optional
/// duration, and free-form string labels.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceEvent {
    /// Wall-clock microseconds since the Unix epoch.
    pub ts_us: u64,
    /// Event class, e.g. `"span"`.
    pub kind: String,
    /// Event name, e.g. `"chi2"`.
    pub name: String,
    /// Duration in microseconds, for span-like events.
    pub dur_us: Option<u64>,
    /// Additional key/value context, in emission order.
    pub labels: Vec<(String, String)>,
}

impl TraceEvent {
    /// A new event stamped with the current wall clock.
    #[must_use]
    pub fn now(kind: &str, name: &str) -> Self {
        TraceEvent {
            ts_us: wall_clock_us(),
            kind: kind.to_string(),
            name: name.to_string(),
            dur_us: None,
            labels: Vec::new(),
        }
    }

    /// Attach a duration.
    #[must_use]
    pub fn with_duration(mut self, dur_us: u64) -> Self {
        self.dur_us = Some(dur_us);
        self
    }

    /// Serialize to a single JSON line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"ts_us\":{},\"kind\":\"{}\",\"name\":\"{}\"",
            self.ts_us,
            escape(&self.kind),
            escape(&self.name)
        );
        if let Some(d) = self.dur_us {
            let _ = write!(out, ",\"dur_us\":{d}");
        }
        for (k, v) in &self.labels {
            let _ = write!(out, ",\"{}\":\"{}\"", escape(k), escape(v));
        }
        out.push('}');
        out
    }

    /// Parse one JSON line produced by [`TraceEvent::to_json`].
    ///
    /// Returns `None` on anything that is not a flat object of string
    /// and unsigned-integer fields with the mandatory `ts_us`, `kind`,
    /// and `name` keys.
    #[must_use]
    pub fn parse_line(line: &str) -> Option<TraceEvent> {
        let fields = parse_flat_object(line.trim())?;
        let mut event = TraceEvent::default();
        let mut saw_ts = false;
        let mut saw_kind = false;
        let mut saw_name = false;
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("ts_us", JsonValue::Int(v)) => {
                    event.ts_us = v;
                    saw_ts = true;
                }
                ("dur_us", JsonValue::Int(v)) => event.dur_us = Some(v),
                ("kind", JsonValue::Str(v)) => {
                    event.kind = v;
                    saw_kind = true;
                }
                ("name", JsonValue::Str(v)) => {
                    event.name = v;
                    saw_name = true;
                }
                (_, JsonValue::Str(v)) => event.labels.push((key, v)),
                (_, JsonValue::Int(v)) => event.labels.push((key, v.to_string())),
            }
        }
        (saw_ts && saw_kind && saw_name).then_some(event)
    }
}

enum JsonValue {
    Str(String),
    Int(u64),
}

/// Parse `{"k":"v","n":1,...}` — flat, no nesting, no arrays.
fn parse_flat_object(s: &str) -> Option<Vec<(String, JsonValue)>> {
    let body = s.strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        // Skip whitespace and separators.
        while matches!(chars.peek(), Some(' ' | ',')) {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let key = parse_string(&mut chars)?;
        while matches!(chars.peek(), Some(' ')) {
            chars.next();
        }
        if chars.next() != Some(':') {
            return None;
        }
        while matches!(chars.peek(), Some(' ')) {
            chars.next();
        }
        let value = match chars.peek() {
            Some('"') => JsonValue::Str(parse_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() => {
                let mut n = String::new();
                while matches!(chars.peek(), Some(c) if c.is_ascii_digit()) {
                    n.push(chars.next()?);
                }
                JsonValue::Int(n.parse().ok()?)
            }
            _ => return None,
        };
        fields.push((key, value));
    }
    Some(fields)
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Option<String> {
    if chars.next() != Some('"') {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

/// Microseconds since the Unix epoch (0 if the clock is before 1970).
#[must_use]
pub fn wall_clock_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Route trace events to an arbitrary writer (tests, in-memory sinks).
///
/// The sink can be installed once per process; later calls are ignored
/// and return `false`.
pub fn enable_writer(w: Box<dyn Write + Send>) -> bool {
    let installed = SINK.set(Mutex::new(w)).is_ok();
    if installed {
        ENABLED.store(true, Ordering::Release);
    }
    installed
}

/// Route trace events to a JSONL file at `path` (truncating it).
///
/// # Errors
/// Propagates file-creation errors; returns `Ok(false)` if a sink was
/// already installed.
pub fn enable_path(path: &str) -> std::io::Result<bool> {
    let file = File::create(path)?;
    Ok(enable_writer(Box::new(BufWriter::new(file))))
}

/// Enable tracing from the `NETSAMPLE_TRACE` environment variable, if
/// set. Returns whether tracing is enabled afterwards.
pub fn init_from_env() -> bool {
    if let Ok(path) = std::env::var(TRACE_ENV) {
        if !path.is_empty() {
            let _ = enable_path(&path);
        }
    }
    enabled()
}

/// Whether a trace sink is installed.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Emit one event to the sink (a no-op when tracing is disabled).
pub fn emit(event: &TraceEvent) {
    if !enabled() {
        return;
    }
    if let Some(sink) = SINK.get() {
        let mut line = event.to_json();
        line.push('\n');
        let mut w = match sink.lock() {
            Ok(w) => w,
            Err(poisoned) => poisoned.into_inner(),
        };
        let _ = w.write_all(line.as_bytes());
    }
}

/// Flush the sink (call before process exit so buffered events land).
pub fn flush() {
    if let Some(sink) = SINK.get() {
        let mut w = match sink.lock() {
            Ok(w) => w,
            // A thread that panicked mid-write poisons the lock; the
            // buffered bytes are still better flushed than dropped.
            Err(poisoned) => poisoned.into_inner(),
        };
        let _ = w.flush();
    }
}

/// An RAII guard that flushes the trace sink when dropped.
///
/// Binaries hold one at the top of `main` so buffered events reach disk
/// on *every* exit path — early error returns and panics (unwinding
/// drops locals) included, not just the clean fall-through at the end.
#[derive(Debug, Default)]
#[must_use = "the guard flushes on drop; binding it to _ drops it immediately"]
pub struct FlushGuard(());

impl Drop for FlushGuard {
    fn drop(&mut self) {
        flush();
    }
}

/// Create a [`FlushGuard`]; see its docs for the intended use.
pub fn flush_on_drop() -> FlushGuard {
    FlushGuard(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_preserves_every_field() {
        let e = TraceEvent {
            ts_us: 1_700_000_000_123,
            kind: "span".into(),
            name: "chi2".into(),
            dur_us: Some(42),
            labels: vec![
                ("method".into(), "systematic".into()),
                ("note".into(), "quote \" and \\ and\nnewline".into()),
            ],
        };
        let parsed = TraceEvent::parse_line(&e.to_json()).expect("parses");
        assert_eq!(parsed, e);
    }

    #[test]
    fn round_trip_without_optional_fields() {
        let e = TraceEvent {
            ts_us: 5,
            kind: "count".into(),
            name: "packets".into(),
            dur_us: None,
            labels: vec![],
        };
        assert_eq!(TraceEvent::parse_line(&e.to_json()), Some(e));
    }

    #[test]
    fn malformed_lines_parse_to_none() {
        for bad in [
            "",
            "{",
            "not json",
            "{\"kind\":\"x\"}",                              // missing ts/name
            "{\"ts_us\":1,\"kind\":\"a\",\"name\":3}",       // name not a string
            "{\"ts_us\":[1],\"kind\":\"a\",\"name\":\"b\"}", // nested value
        ] {
            assert_eq!(TraceEvent::parse_line(bad), None, "input: {bad}");
        }
    }

    #[test]
    fn numeric_labels_survive_as_strings() {
        let line = "{\"ts_us\":9,\"kind\":\"span\",\"name\":\"cell\",\"k\":50}";
        let e = TraceEvent::parse_line(line).unwrap();
        assert_eq!(e.labels, vec![("k".to_string(), "50".to_string())]);
    }
}
