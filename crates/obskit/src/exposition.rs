//! Prometheus text-format helpers: name validity, label-block parsing,
//! and a strict exposition parser used by the conformance tests and the
//! `/metrics` round-trip checks.
//!
//! The grammar implemented here is the Prometheus text format 0.0.4:
//! metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`, label names match
//! `[a-zA-Z_][a-zA-Z0-9_]*`, and label values escape `\`, `"`, and
//! newline as `\\`, `\"`, and `\n`.

use std::collections::{BTreeMap, BTreeSet};

/// True when `name` is a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// True when `name` is a valid Prometheus label name
/// (`[a-zA-Z_][a-zA-Z0-9_]*`).
#[must_use]
pub fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parse the interior of a label block (`k="v",k2="v2"` — no braces)
/// into unescaped `(name, value)` pairs.
///
/// # Errors
/// Returns a description of the first syntax error: bad label name,
/// missing `="`, unterminated value, or an invalid escape sequence.
pub fn parse_label_block(block: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label block missing '=': {rest:?}"))?;
        let name = &rest[..eq];
        if !valid_label_name(name) {
            return Err(format!("invalid label name {name:?}"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("label {name:?} value not quoted"))?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let close = loop {
            match chars.next() {
                None => return Err(format!("label {name:?} value unterminated")),
                Some((i, '"')) => break i,
                Some((_, '\\')) => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => {
                        return Err(format!(
                            "label {name:?} value has invalid escape \\{}",
                            other.map_or(String::from("<eof>"), |(_, c)| c.to_string())
                        ))
                    }
                },
                Some((_, c)) => value.push(c),
            }
        };
        pairs.push((name.to_string(), value));
        rest = &rest[close + 1..];
        if let Some(tail) = rest.strip_prefix(',') {
            if tail.is_empty() {
                return Err("trailing ',' in label block".to_string());
            }
            rest = tail;
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {rest:?}"));
        }
    }
    Ok(pairs)
}

/// One sample line parsed out of an exposition body.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpositionSample {
    /// Full sample name as written (`lat_us_bucket`, `pkts_total`, …).
    pub name: String,
    /// Unescaped label pairs in written order.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf`/`-Inf`/`NaN` accepted).
    pub value: f64,
}

/// Strictly parse a Prometheus text exposition body.
///
/// Enforces, beyond bare syntax:
/// * metric and label names are valid;
/// * at most one `# TYPE` per metric name, with a known type;
/// * every sample belongs to a declared `# TYPE` group (histogram
///   samples may use the `_bucket`/`_sum`/`_count` suffixes);
/// * samples for one metric name are contiguous — a name group never
///   reopens after another group started (the "registry dump ordering"
///   bug this repo once had).
///
/// # Errors
/// Returns `Err(line_number, description)` (1-based) for the first
/// violation.
pub fn parse_exposition(text: &str) -> Result<Vec<ExpositionSample>, (usize, String)> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = Vec::new();
    let mut current_group: Option<String> = None;
    let mut closed_groups: BTreeSet<String> = BTreeSet::new();
    let mut enter_group = |base: &str, current: &mut Option<String>, lineno: usize| {
        if current.as_deref() == Some(base) {
            return Ok(());
        }
        if let Some(prev) = current.take() {
            closed_groups.insert(prev);
        }
        if closed_groups.contains(base) {
            return Err((
                lineno,
                format!("samples for {base:?} are interleaved with another metric"),
            ));
        }
        *current = Some(base.to_string());
        Ok(())
    };

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest
                .split_once(' ')
                .ok_or((lineno, "malformed TYPE line".to_string()))?;
            if !valid_metric_name(name) {
                return Err((lineno, format!("TYPE line has invalid name {name:?}")));
            }
            if !matches!(
                ty,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err((lineno, format!("unknown metric type {ty:?}")));
            }
            if types.insert(name.to_string(), ty.to_string()).is_some() {
                return Err((lineno, format!("duplicate TYPE for {name:?}")));
            }
            enter_group(name, &mut current_group, lineno)?;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or((lineno, "malformed HELP line".to_string()))?;
            if !valid_metric_name(name) {
                return Err((lineno, format!("HELP line has invalid name {name:?}")));
            }
            let mut chars = help.chars();
            while let Some(c) = chars.next() {
                if c == '\\' && !matches!(chars.next(), Some('\\' | 'n')) {
                    return Err((lineno, format!("HELP for {name:?} has invalid escape")));
                }
            }
            enter_group(name, &mut current_group, lineno)?;
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal and ignored
        }

        // Sample line: name[{labels}] value
        let (name, after_name) = match line.find(['{', ' ']) {
            Some(i) => (&line[..i], &line[i..]),
            None => return Err((lineno, "sample line missing value".to_string())),
        };
        if !valid_metric_name(name) {
            return Err((lineno, format!("invalid metric name {name:?}")));
        }
        let (labels, value_str) = if let Some(rest) = after_name.strip_prefix('{') {
            let close = find_label_block_end(rest)
                .ok_or((lineno, format!("unterminated label block on {name:?}")))?;
            let labels = parse_label_block(&rest[..close]).map_err(|e| (lineno, e))?;
            let rest = rest[close + 1..]
                .strip_prefix(' ')
                .ok_or((lineno, format!("missing value after labels on {name:?}")))?;
            (labels, rest)
        } else {
            (Vec::new(), &after_name[1..])
        };
        let value = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse::<f64>()
                .map_err(|_| (lineno, format!("bad sample value {v:?} for {name:?}")))?,
        };

        let base = base_name(name, &types)
            .ok_or((lineno, format!("sample {name:?} has no TYPE declaration")))?;
        enter_group(&base, &mut current_group, lineno)?;
        samples.push(ExpositionSample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(samples)
}

/// Find the index of the `}` closing a label block, honoring escapes
/// inside quoted values. `rest` starts just after the opening `{`.
fn find_label_block_end(rest: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

/// Map a sample name to its TYPE group's base name, accepting histogram
/// suffixes.
fn base_name(sample: &str, types: &BTreeMap<String, String>) -> Option<String> {
    if types.contains_key(sample) {
        return Some(sample.to_string());
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = sample.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return Some(base.to_string());
            }
        }
    }
    None
}

/// Escape a string for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validity() {
        assert!(valid_metric_name("pkts_total"));
        assert!(valid_metric_name("_x"));
        assert!(valid_metric_name("ns:sub_total"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("9lives"));
        assert!(!valid_metric_name("has-dash"));
        assert!(!valid_metric_name("has space"));
        assert!(valid_label_name("stage"));
        assert!(!valid_label_name("le:"));
        assert!(!valid_label_name("1st"));
    }

    #[test]
    fn label_block_unescapes_values() {
        let hostile = "a\\b\"c\nd";
        let block = r#"k="a\\b\"c\nd",other="plain""#;
        let pairs = parse_label_block(block).unwrap();
        assert_eq!(
            pairs,
            vec![
                ("k".to_string(), hostile.to_string()),
                ("other".to_string(), "plain".to_string()),
            ]
        );
    }

    #[test]
    fn label_block_rejects_garbage() {
        assert!(parse_label_block("noequals").is_err());
        assert!(parse_label_block("k=unquoted").is_err());
        assert!(parse_label_block("k=\"open").is_err());
        assert!(parse_label_block("k=\"bad\\q\"").is_err());
        assert!(parse_label_block("k=\"v\",").is_err());
        assert!(parse_label_block("k=\"v\"junk").is_err());
        assert!(parse_label_block("1bad=\"v\"").is_err());
    }

    #[test]
    fn parse_rejects_interleaved_groups() {
        let text = "# TYPE a counter\na 1\n# TYPE b counter\nb 1\na{x=\"1\"} 2\n";
        let err = parse_exposition(text).unwrap_err();
        assert_eq!(err.0, 5);
        assert!(err.1.contains("interleaved"), "{}", err.1);
    }

    #[test]
    fn parse_rejects_duplicate_type() {
        let text = "# TYPE a counter\na 1\n# TYPE a counter\n";
        assert!(parse_exposition(text).is_err());
    }

    #[test]
    fn parse_accepts_histogram_suffixes_and_inf() {
        let text = "# TYPE lat_us histogram\n\
                    lat_us_bucket{le=\"2\"} 1\n\
                    lat_us_bucket{le=\"+Inf\"} 4\n\
                    lat_us_sum 707\n\
                    lat_us_count 4\n";
        let samples = parse_exposition(text).unwrap();
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[1].value, 4.0);
        assert_eq!(
            samples[1].labels,
            vec![("le".to_string(), "+Inf".to_string())]
        );
        assert!(parse_exposition("# TYPE up gauge\nup +Inf\n").unwrap()[0]
            .value
            .is_infinite());
    }

    #[test]
    fn parse_rejects_untyped_sample() {
        assert!(parse_exposition("mystery 3\n").is_err());
    }
}
