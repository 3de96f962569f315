//! `obskit::rules` — a small on-board alert engine over
//! [`crate::series`].
//!
//! Rules are parsed from a strict line-based text grammar:
//!
//! ```text
//! rule <name> <func>(<metric-key>) <op> <threshold> [for <ticks>]
//! ```
//!
//! * `<name>` — `[A-Za-z_][A-Za-z0-9_]*`, at most 64 bytes, unique.
//! * `<func>` — one of:
//!   - `value` — the series' latest recorded value;
//!   - `rate` — per-second rate over the last two points,
//!     counter-reset-aware (negative deltas clamp to 0);
//!   - `delta` — sum of positive consecutive deltas over the retained
//!     ring (total reset-aware increase);
//!   - `stale` — **milliseconds** since the value last changed; a
//!     missing series evaluates to `+inf` (infinitely stale).
//! * `<metric-key>` — a registry key, optionally with a label block
//!   (`stream_channel_depth{stage="transform"}`); no whitespace.
//! * `<op>` — `>`, `<`, `>=`, `<=`. Comparisons against `NaN` are
//!   false (a `NaN` observation can never breach).
//! * `<threshold>` — a finite decimal number.
//! * `for <ticks>` — symmetric hysteresis: the rule fires only after
//!   `<ticks>` *consecutive* breaching evaluations and clears only
//!   after `<ticks>` consecutive non-breaching ones (default 1).
//!
//! `#` starts a comment; blank lines are ignored; lines are capped at
//! [`MAX_RULE_LINE`] bytes and rule sets at [`MAX_RULES`] rules.
//!
//! The engine is evaluated once per telemetry tick against the global
//! series store and exports `alert_active{rule}` (0/1 gauge) and
//! `alert_flaps_total{rule}` (counter incremented on **every** state
//! transition, either direction — a flapping rule is itself a signal).
//! `GET /alerts` renders one JSONL line per rule.

use crate::series::SeriesStore;
use std::sync::{Mutex, OnceLock};

/// Longest accepted rule line (bytes).
pub const MAX_RULE_LINE: usize = 1024;
/// Most rules one engine accepts.
pub const MAX_RULES: usize = 256;
/// Longest accepted rule name (bytes).
pub const MAX_RULE_NAME: usize = 64;
/// Largest accepted `for <ticks>` hysteresis window.
pub const MAX_FOR_TICKS: u32 = 10_000;

/// Which ring reduction a rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleFunc {
    /// Latest recorded value.
    Value,
    /// Reset-aware per-second rate over the last two points.
    Rate,
    /// Reset-aware total increase over the retained ring.
    Delta,
    /// Milliseconds since the value last changed (missing = `+inf`).
    Stale,
}

impl RuleFunc {
    /// Grammar keyword.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            RuleFunc::Value => "value",
            RuleFunc::Rate => "rate",
            RuleFunc::Delta => "delta",
            RuleFunc::Stale => "stale",
        }
    }
}

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleOp {
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
}

impl RuleOp {
    /// Grammar token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            RuleOp::Gt => ">",
            RuleOp::Lt => "<",
            RuleOp::Ge => ">=",
            RuleOp::Le => "<=",
        }
    }

    fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            RuleOp::Gt => value > threshold,
            RuleOp::Lt => value < threshold,
            RuleOp::Ge => value >= threshold,
            RuleOp::Le => value <= threshold,
        }
    }
}

/// One parsed alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Unique rule name (label value of the exported metrics).
    pub name: String,
    /// Ring reduction.
    pub func: RuleFunc,
    /// Series key the reduction reads.
    pub metric: String,
    /// Comparison operator.
    pub op: RuleOp,
    /// Finite threshold.
    pub threshold: f64,
    /// Hysteresis window (consecutive ticks to fire / to clear).
    pub for_ticks: u32,
}

/// A rule-grammar parse failure: 1-based line number plus reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleParseError {
    /// 1-based line the violation is on (0 for set-level violations).
    pub line: usize,
    /// Human-readable description of the first violated grammar rule.
    pub reason: String,
}

impl std::fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rule line {}: {}", self.line, self.reason)
    }
}

fn err(line: usize, reason: impl Into<String>) -> RuleParseError {
    RuleParseError {
        line,
        reason: reason.into(),
    }
}

/// True for `[A-Za-z_][A-Za-z0-9_]*` within the name length cap.
fn valid_rule_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_RULE_NAME
        && name
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_')
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// Validate a `<metric-key>`: base name per the exposition rules, an
/// optional well-formed `{k="v",...}` label block, no whitespace.
fn validate_metric_key(key: &str) -> Result<(), String> {
    if key.bytes().any(|b| !b.is_ascii_graphic()) {
        return Err(format!("metric key {key:?} must be graphic ASCII"));
    }
    match key.split_once('{') {
        None => {
            if !crate::exposition::valid_metric_name(key) {
                return Err(format!("invalid metric name {key:?}"));
            }
        }
        Some((name, rest)) => {
            if !crate::exposition::valid_metric_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            let block = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated label block in {key:?}"))?;
            crate::exposition::parse_label_block(block)?;
        }
    }
    Ok(())
}

/// Parse one non-comment, non-blank rule line (already trimmed).
fn parse_rule_line(line_no: usize, line: &str) -> Result<Rule, RuleParseError> {
    let mut tokens = line.split_ascii_whitespace();
    if tokens.next() != Some("rule") {
        return Err(err(line_no, "line must start with 'rule'"));
    }
    let name = tokens
        .next()
        .ok_or_else(|| err(line_no, "missing rule name"))?;
    if !valid_rule_name(name) {
        return Err(err(
            line_no,
            format!("invalid rule name {name:?} (want [A-Za-z_][A-Za-z0-9_]*, <= {MAX_RULE_NAME} bytes)"),
        ));
    }
    let call = tokens
        .next()
        .ok_or_else(|| err(line_no, "missing <func>(<metric>)"))?;
    let (func_kw, rest) = call
        .split_once('(')
        .ok_or_else(|| err(line_no, format!("expected <func>(<metric>), got {call:?}")))?;
    let metric = rest
        .strip_suffix(')')
        .ok_or_else(|| err(line_no, format!("unterminated '(' in {call:?}")))?;
    let func = match func_kw {
        "value" => RuleFunc::Value,
        "rate" => RuleFunc::Rate,
        "delta" => RuleFunc::Delta,
        "stale" => RuleFunc::Stale,
        other => {
            return Err(err(
                line_no,
                format!("unknown function {other:?} (want value, rate, delta, stale)"),
            ))
        }
    };
    if metric.is_empty() {
        return Err(err(line_no, "empty metric key"));
    }
    validate_metric_key(metric).map_err(|reason| err(line_no, reason))?;
    let op = match tokens.next() {
        Some(">") => RuleOp::Gt,
        Some("<") => RuleOp::Lt,
        Some(">=") => RuleOp::Ge,
        Some("<=") => RuleOp::Le,
        other => {
            return Err(err(
                line_no,
                format!("expected operator >, <, >= or <=, got {other:?}"),
            ))
        }
    };
    let threshold_tok = tokens
        .next()
        .ok_or_else(|| err(line_no, "missing threshold"))?;
    let threshold: f64 = threshold_tok.parse().map_err(|_| {
        err(
            line_no,
            format!("threshold {threshold_tok:?} is not a number"),
        )
    })?;
    if !threshold.is_finite() {
        return Err(err(line_no, "threshold must be finite"));
    }
    let for_ticks = match tokens.next() {
        None => 1,
        Some("for") => {
            let n_tok = tokens
                .next()
                .ok_or_else(|| err(line_no, "missing tick count after 'for'"))?;
            let n: u32 = n_tok
                .parse()
                .map_err(|_| err(line_no, format!("bad tick count {n_tok:?}")))?;
            if n == 0 || n > MAX_FOR_TICKS {
                return Err(err(
                    line_no,
                    format!("tick count must be in 1..={MAX_FOR_TICKS}"),
                ));
            }
            n
        }
        Some(other) => return Err(err(line_no, format!("unexpected token {other:?}"))),
    };
    if tokens.next().is_some() {
        return Err(err(line_no, "trailing tokens after rule"));
    }
    Ok(Rule {
        name: name.to_string(),
        func,
        metric: metric.to_string(),
        op,
        threshold,
        for_ticks,
    })
}

/// Parse a whole rules document.
///
/// # Errors
/// A [`RuleParseError`] naming the first violated grammar rule (line
/// too long, bad syntax, duplicate name, too many rules). Never panics
/// on any input — the faultkit state-fuzz campaign holds it to that.
pub fn parse_rules(text: &str) -> Result<Vec<Rule>, RuleParseError> {
    let mut rules: Vec<Rule> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        if raw.len() > MAX_RULE_LINE {
            return Err(err(
                line_no,
                format!("line too long (max {MAX_RULE_LINE} bytes)"),
            ));
        }
        let line = match raw.split_once('#') {
            Some((before, _)) => before.trim(),
            None => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        let rule = parse_rule_line(line_no, line)?;
        if rules.iter().any(|r| r.name == rule.name) {
            return Err(err(line_no, format!("duplicate rule name {:?}", rule.name)));
        }
        if rules.len() >= MAX_RULES {
            return Err(err(line_no, format!("too many rules (max {MAX_RULES})")));
        }
        rules.push(rule);
    }
    Ok(rules)
}

struct RuleState {
    rule: Rule,
    active: bool,
    breaches: u32,
    clears: u32,
    /// Wall-clock µs of the last state transition (0 = never).
    since_us: u64,
    /// Value at the most recent evaluation (NaN before the first).
    last_value: f64,
    /// Transition count.
    flaps: u64,
    evaluated: bool,
}

/// An evaluated alert engine: rules plus their hysteresis state.
#[derive(Default)]
pub struct RuleEngine {
    states: Mutex<Vec<RuleState>>,
}

impl std::fmt::Debug for RuleEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleEngine")
            .field("rules", &self.len())
            .finish_non_exhaustive()
    }
}

impl RuleEngine {
    /// Build an empty engine.
    #[must_use]
    pub fn new() -> RuleEngine {
        RuleEngine::default()
    }

    /// Add rules, rejecting duplicates against already-installed names
    /// and the [`MAX_RULES`] cap. On success returns the total rule
    /// count.
    ///
    /// # Errors
    /// A description of the duplicate name or cap violation; no rules
    /// from `rules` are installed on error.
    pub fn add_rules(&self, rules: Vec<Rule>) -> Result<usize, String> {
        let mut states = self.states.lock().expect("rule states poisoned");
        for r in &rules {
            if states.iter().any(|s| s.rule.name == r.name)
                || rules.iter().filter(|o| o.name == r.name).count() > 1
            {
                return Err(format!("duplicate rule name {:?}", r.name));
            }
        }
        if states.len() + rules.len() > MAX_RULES {
            return Err(format!("too many rules (max {MAX_RULES})"));
        }
        for rule in rules {
            // Published before the first evaluation, so a scrape taken
            // between install and the first telemetry tick already
            // shows every rule, at rest.
            crate::gauge_labeled("alert_active", &[("rule", &rule.name)]).set(0);
            states.push(RuleState {
                rule,
                active: false,
                breaches: 0,
                clears: 0,
                since_us: 0,
                last_value: f64::NAN,
                flaps: 0,
                evaluated: false,
            });
        }
        Ok(states.len())
    }

    /// Number of installed rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.lock().expect("rule states poisoned").len()
    }

    /// True when no rules are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `name` is currently firing; `None` for an unknown rule.
    #[must_use]
    pub fn is_firing(&self, name: &str) -> Option<bool> {
        let states = self.states.lock().expect("rule states poisoned");
        states
            .iter()
            .find(|s| s.rule.name == name)
            .map(|s| s.active)
    }

    /// True when a rule named `name` is installed.
    #[must_use]
    pub fn has_rule(&self, name: &str) -> bool {
        self.is_firing(name).is_some()
    }

    /// Evaluate every rule against `store` once (one telemetry tick),
    /// updating hysteresis state and the `alert_active{rule}` /
    /// `alert_flaps_total{rule}` metrics.
    pub fn evaluate(&self, store: &SeriesStore, now_us: u64) {
        let mut states = self.states.lock().expect("rule states poisoned");
        for st in states.iter_mut() {
            let value = match st.rule.func {
                RuleFunc::Value => store.latest(&st.rule.metric).map_or(f64::NAN, |p| p.value),
                RuleFunc::Rate => store.rate_per_sec(&st.rule.metric).unwrap_or(f64::NAN),
                RuleFunc::Delta => store.reset_aware_delta(&st.rule.metric).unwrap_or(f64::NAN),
                RuleFunc::Stale => store
                    .staleness_us(&st.rule.metric, now_us)
                    .map_or(f64::INFINITY, |us| us as f64 / 1e3),
            };
            st.last_value = value;
            st.evaluated = true;
            // NaN never breaches: every RuleOp::holds comparison on
            // NaN is false, so a NaN observation counts as a clear.
            let breach = st.rule.op.holds(value, st.rule.threshold);
            if breach {
                st.breaches += 1;
                st.clears = 0;
            } else {
                st.clears += 1;
                st.breaches = 0;
            }
            let flipped = if !st.active && st.breaches >= st.rule.for_ticks {
                st.active = true;
                true
            } else if st.active && st.clears >= st.rule.for_ticks {
                st.active = false;
                true
            } else {
                false
            };
            if flipped {
                st.since_us = now_us;
                st.flaps += 1;
                crate::counter_labeled("alert_flaps_total", &[("rule", &st.rule.name)]).inc();
            }
            crate::gauge_labeled("alert_active", &[("rule", &st.rule.name)])
                .set(i64::from(st.active));
        }
    }

    /// Render the `/alerts` body: one JSON object per rule per line.
    #[must_use]
    pub fn alerts_jsonl(&self) -> String {
        let states = self.states.lock().expect("rule states poisoned");
        let mut out = String::new();
        for st in states.iter() {
            let value = if st.evaluated && st.last_value.is_finite() {
                format!("{}", st.last_value)
            } else {
                "null".to_string()
            };
            let since = if st.since_us == 0 {
                "null".to_string()
            } else {
                st.since_us.to_string()
            };
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"state\":\"{}\",\"expr\":\"{}({}) {} {}\",\"for_ticks\":{},\"value\":{},\"since_us\":{},\"flaps\":{}}}\n",
                crate::exposition::json_escape(&st.rule.name),
                if st.active { "firing" } else { "ok" },
                st.rule.func.keyword(),
                crate::exposition::json_escape(&st.rule.metric),
                st.rule.op.token(),
                st.rule.threshold,
                st.rule.for_ticks,
                value,
                since,
                st.flaps,
            ));
        }
        out
    }
}

static GLOBAL_ENGINE: OnceLock<RuleEngine> = OnceLock::new();

/// The process-wide rule engine (created empty on first use). The
/// telemetry tick evaluates it whenever the global series store is
/// installed; `GET /alerts` renders it.
pub fn global_engine() -> &'static RuleEngine {
    GLOBAL_ENGINE.get_or_init(RuleEngine::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesStore;

    fn store() -> SeriesStore {
        SeriesStore::default()
    }

    fn one_rule(text: &str) -> Rule {
        let rules = parse_rules(text).expect("valid rule");
        assert_eq!(rules.len(), 1);
        rules.into_iter().next().unwrap()
    }

    #[test]
    fn grammar_accepts_each_function_and_operator() {
        let r = one_rule("rule r1 value(proc_rss_kb) > 1000");
        assert_eq!(r.func, RuleFunc::Value);
        assert_eq!(r.op, RuleOp::Gt);
        assert_eq!(r.threshold, 1000.0);
        assert_eq!(r.for_ticks, 1);
        let r = one_rule("rule r2 rate(stream_packets_ingested_total) >= 1.5 for 3");
        assert_eq!(r.func, RuleFunc::Rate);
        assert_eq!(r.op, RuleOp::Ge);
        assert_eq!(r.for_ticks, 3);
        let r = one_rule("rule r3 delta(x_total) <= -2.5");
        assert_eq!(r.func, RuleFunc::Delta);
        assert_eq!(r.threshold, -2.5);
        let r = one_rule("rule r4 stale(stream_channel_depth{stage=\"transform\"}) < 5000");
        assert_eq!(r.func, RuleFunc::Stale);
        assert_eq!(r.metric, "stream_channel_depth{stage=\"transform\"}");
        // Comments and blank lines.
        let rules = parse_rules("# header\n\nrule a value(x) > 1 # inline\n").unwrap();
        assert_eq!(rules.len(), 1);
    }

    #[test]
    fn grammar_rejects_each_violation_with_line_numbers() {
        let cases = [
            ("alert a value(x) > 1", "start with 'rule'"),
            ("rule", "missing rule name"),
            ("rule 9bad value(x) > 1", "invalid rule name"),
            ("rule a", "missing <func>"),
            ("rule a value x > 1", "expected <func>(<metric>)"),
            ("rule a value(x > 1", "unterminated '('"),
            ("rule a median(x) > 1", "unknown function"),
            ("rule a value() > 1", "empty metric key"),
            ("rule a value(1bad) > 1", "invalid metric name"),
            ("rule a value(x{y=) > 1", "label"),
            ("rule a value(x{k=\"v\") > 1", "unterminated label block"),
            ("rule a value(x) == 1", "expected operator"),
            ("rule a value(x) >", "missing threshold"),
            ("rule a value(x) > abc", "not a number"),
            ("rule a value(x) > inf", "must be finite"),
            ("rule a value(x) > nan", "must be finite"),
            ("rule a value(x) > 1 for", "missing tick count"),
            ("rule a value(x) > 1 for 0", "tick count"),
            ("rule a value(x) > 1 for x", "bad tick count"),
            ("rule a value(x) > 1 extra", "unexpected token"),
            ("rule a value(x) > 1 for 2 junk", "trailing tokens"),
            (
                "rule a value(x) > 1\nrule a value(y) > 2",
                "duplicate rule name",
            ),
        ];
        for (text, want) in cases {
            let e = parse_rules(text).expect_err(text);
            assert!(
                e.reason.contains(want),
                "input {text:?}: got {:?}, want substring {want:?}",
                e.reason
            );
        }
        let long = format!("rule a value(x) > 1 {}", "#".repeat(MAX_RULE_LINE));
        let e = parse_rules(&long).unwrap_err();
        assert!(e.reason.contains("line too long"));
        let long_name = format!("rule {} value(x) > 1", "a".repeat(MAX_RULE_NAME + 1));
        let e = parse_rules(&long_name).unwrap_err();
        assert!(e.reason.contains("invalid rule name"));
        // Line numbers are 1-based and point at the offending line.
        let e = parse_rules("# ok\nrule a value(x) > 1\nbroken\n").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn grammar_is_deterministic_on_arbitrary_bytes() {
        let mut state = 0x13198a2e03707344u64;
        for len in [0usize, 3, 40, 300, 1023, 1024, 1025, 5000] {
            let mut raw = Vec::with_capacity(len);
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                raw.push((state >> 56) as u8);
            }
            let s = String::from_utf8_lossy(&raw).into_owned();
            assert_eq!(parse_rules(&s), parse_rules(&s));
        }
    }

    #[test]
    fn threshold_rule_fires_and_clears_with_hysteresis() {
        let s = store();
        let e = RuleEngine::new();
        e.add_rules(parse_rules("rule hi value(g) >= 10 for 2").unwrap())
            .unwrap();
        // One breach is not enough (for 2).
        s.push("g", 1, 20.0);
        e.evaluate(&s, 1);
        assert_eq!(e.is_firing("hi"), Some(false));
        s.push("g", 2, 25.0);
        e.evaluate(&s, 2);
        assert_eq!(e.is_firing("hi"), Some(true), "2 consecutive breaches fire");
        // One clear is not enough either.
        s.push("g", 3, 5.0);
        e.evaluate(&s, 3);
        assert_eq!(e.is_firing("hi"), Some(true));
        s.push("g", 4, 5.0);
        e.evaluate(&s, 4);
        assert_eq!(e.is_firing("hi"), Some(false), "2 consecutive clears clear");
        let jsonl = e.alerts_jsonl();
        assert!(jsonl.contains("\"rule\":\"hi\""));
        assert!(jsonl.contains("\"state\":\"ok\""));
        assert!(
            jsonl.contains("\"flaps\":2"),
            "fired once, cleared once: {jsonl}"
        );
    }

    #[test]
    fn flapping_series_counts_every_transition() {
        let s = store();
        let e = RuleEngine::new();
        e.add_rules(parse_rules("rule flappy value(g) > 0 for 1").unwrap())
            .unwrap();
        for t in 0..6u64 {
            s.push("g", t + 1, if t % 2 == 0 { 1.0 } else { -1.0 });
            e.evaluate(&s, t + 1);
        }
        let jsonl = e.alerts_jsonl();
        assert!(jsonl.contains("\"flaps\":6"), "every flip counted: {jsonl}");
        // With `for 3` the same series never fires at all.
        let e2 = RuleEngine::new();
        e2.add_rules(parse_rules("rule damped value(g2) > 0 for 3").unwrap())
            .unwrap();
        for t in 0..12u64 {
            s.push("g2", t + 1, if t % 2 == 0 { 1.0 } else { -1.0 });
            e2.evaluate(&s, t + 1);
        }
        assert_eq!(e2.is_firing("damped"), Some(false));
        assert!(e2.alerts_jsonl().contains("\"flaps\":0"));
    }

    #[test]
    fn nan_and_inf_observations_behave() {
        let s = store();
        let e = RuleEngine::new();
        e.add_rules(
            parse_rules("rule nan_never value(g) > 0\nrule inf_fires value(h) > 1e300").unwrap(),
        )
        .unwrap();
        s.push("g", 1, f64::NAN);
        s.push("h", 1, f64::INFINITY);
        e.evaluate(&s, 1);
        assert_eq!(e.is_firing("nan_never"), Some(false), "NaN never breaches");
        assert_eq!(
            e.is_firing("inf_fires"),
            Some(true),
            "+inf > any finite threshold"
        );
        let jsonl = e.alerts_jsonl();
        // Non-finite observations render as null, keeping JSONL valid.
        for line in jsonl.lines() {
            assert!(line.contains("\"value\":null"), "line: {line}");
        }
        // A NaN observation also *clears* an active rule.
        s.push("h", 2, f64::NAN);
        e.evaluate(&s, 2);
        assert_eq!(e.is_firing("inf_fires"), Some(false));
    }

    #[test]
    fn stale_rule_treats_missing_series_as_infinitely_stale() {
        let s = store();
        let e = RuleEngine::new();
        e.add_rules(parse_rules("rule quiet stale(never_recorded) > 5000").unwrap())
            .unwrap();
        e.evaluate(&s, 1);
        assert_eq!(
            e.is_firing("quiet"),
            Some(true),
            "missing series = +inf stale"
        );
        // Once the series appears and changes, staleness drops to ~0.
        s.push("never_recorded", 10_000_000, 1.0);
        e.evaluate(&s, 10_000_001);
        assert_eq!(e.is_firing("quiet"), Some(false));
    }

    #[test]
    fn empty_ring_and_counter_reset_edges() {
        let s = store();
        let e = RuleEngine::new();
        e.add_rules(
            parse_rules("rule v value(m) > 0\nrule r rate(m) > 0\nrule d delta(m) > 0").unwrap(),
        )
        .unwrap();
        // Empty store: value/rate/delta are NaN, nothing fires.
        e.evaluate(&s, 1);
        for name in ["v", "r", "d"] {
            assert_eq!(e.is_firing(name), Some(false), "rule {name} on empty ring");
        }
        // Counter reset: rate and delta stay reset-aware.
        s.push("m", 1_000_000, 100.0);
        s.push("m", 2_000_000, 10.0);
        e.evaluate(&s, 2_000_000);
        assert_eq!(e.is_firing("r"), Some(false), "reset rate clamps to 0");
        assert_eq!(e.is_firing("d"), Some(false), "reset delta contributes 0");
        s.push("m", 3_000_000, 50.0);
        e.evaluate(&s, 3_000_000);
        assert_eq!(e.is_firing("r"), Some(true));
        assert_eq!(e.is_firing("d"), Some(true));
    }

    #[test]
    fn add_rules_rejects_duplicates_and_cap() {
        let e = RuleEngine::new();
        e.add_rules(parse_rules("rule a value(x) > 1").unwrap())
            .unwrap();
        let dup = parse_rules("rule a value(y) > 2").unwrap();
        assert!(e.add_rules(dup).is_err(), "cross-batch duplicate");
        let batch_dup = vec![
            one_rule("rule b value(x) > 1"),
            one_rule("rule b value(y) > 1"),
        ];
        assert!(e.add_rules(batch_dup).is_err(), "in-batch duplicate");
        assert_eq!(e.len(), 1, "failed batches install nothing");
    }

    #[test]
    fn added_rules_render_at_rest_before_any_evaluation() {
        let e = RuleEngine::new();
        e.add_rules(
            parse_rules("rule install_probe_a value(ia) > 1\nrule install_probe_b stale(ib) > 5")
                .unwrap(),
        )
        .unwrap();
        let text = crate::global().render_prometheus();
        for name in ["install_probe_a", "install_probe_b"] {
            let line = format!("alert_active{{rule=\"{name}\"}} 0");
            assert!(
                text.lines().any(|l| l == line),
                "{line:?} missing from:\n{text}"
            );
        }
    }

    #[test]
    fn evaluation_exports_alert_metrics() {
        let s = store();
        let e = RuleEngine::new();
        e.add_rules(parse_rules("rule metric_probe value(mp) > 5").unwrap())
            .unwrap();
        s.push("mp", 1, 10.0);
        e.evaluate(&s, 1);
        assert_eq!(
            crate::gauge_labeled("alert_active", &[("rule", "metric_probe")]).get(),
            1
        );
        s.push("mp", 2, 0.0);
        e.evaluate(&s, 2);
        assert_eq!(
            crate::gauge_labeled("alert_active", &[("rule", "metric_probe")]).get(),
            0
        );
        assert_eq!(
            crate::counter_labeled("alert_flaps_total", &[("rule", "metric_probe")]).get(),
            2
        );
    }
}
