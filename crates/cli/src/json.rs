//! A minimal JSON value model and recursive-descent parser for the
//! documents `watch` reads: the `/series` body (nested arrays of
//! `[ts_us, value]` points) and the `/alerts` JSONL lines.
//!
//! The workspace is offline by design, so no serde. This is the full
//! JSON grammar minus two corners the server never produces: numbers
//! are parsed as `f64` (exact for every integer up to 2⁵³ — comfortably
//! beyond any microsecond count a run produces), and `\uXXXX` escapes
//! outside the BMP surrogate-pair dance are passed through unvalidated.

/// A JSON value.
#[derive(Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers are exact to 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match); `None` on non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value rounded to u64, if this is a non-negative
    /// number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(n.round() as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse a complete JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    /// Returns a position-annotated message on malformed input or
    /// trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, and the documents come from a remote
/// server, so the cap keeps a hostile body from exhausting the stack;
/// `/series` nests three deep.
const MAX_DEPTH: usize = 64;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'[' | b'{') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                members.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad utf8".to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    let mut chunk_start = *pos;
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                out.push_str(
                    std::str::from_utf8(&b[chunk_start..*pos])
                        .map_err(|_| "bad utf8 in string".to_string())?,
                );
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(
                    std::str::from_utf8(&b[chunk_start..*pos])
                        .map_err(|_| "bad utf8 in string".to_string())?,
                );
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("truncated \\u escape at byte {pos}"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
                chunk_start = *pos;
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_nested_document() {
        let text = r#"{
  "now_us": 1993,
  "series": [
    {"key": "proc_rss_kb", "points": [[1, 10], [2, null]]},
    true
  ],
  "empty_arr": [],
  "empty_obj": {},
  "frac": 0.25,
  "neg": -17
}"#;
        let doc = Json::Obj(vec![
            ("now_us".into(), Json::Num(1993.0)),
            (
                "series".into(),
                Json::Arr(vec![
                    Json::Obj(vec![
                        ("key".into(), Json::Str("proc_rss_kb".into())),
                        (
                            "points".into(),
                            Json::Arr(vec![
                                Json::Arr(vec![Json::Num(1.0), Json::Num(10.0)]),
                                Json::Arr(vec![Json::Num(2.0), Json::Null]),
                            ]),
                        ),
                    ]),
                    Json::Bool(true),
                ]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("frac".into(), Json::Num(0.25)),
            ("neg".into(), Json::Num(-17.0)),
        ]);
        assert_eq!(Json::parse(text).unwrap(), doc);
    }

    #[test]
    fn string_escapes_decode() {
        let v = Json::parse(r#""a\"b\\c\nd\te\u0001\/""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c\nd\te\u{1}/".into()));
    }

    #[test]
    fn parses_standard_json_syntax() {
        let v = Json::parse(r#"  {"a": [1, 2.5, -3e2, "x", null, false]}  "#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(arr[3].as_str(), Some("x"));
        assert_eq!(arr[4], Json::Null);
        assert_eq!(arr[5], Json::Bool(false));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "{} trailing",
            "[1 2]",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let e = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.contains("nesting"), "{e}");
        // Deep enough to overflow a test thread's stack without the cap.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn accessors_are_type_safe() {
        let v = Json::parse(r#"{"n": 7, "s": "x"}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("n").unwrap().as_str(), None);
        assert_eq!(v.get("s").unwrap().as_f64(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse(r#""A\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("A\u{e9}"));
        // Raw multi-byte UTF-8 passes through unescaped too.
        assert_eq!(Json::parse("\"naïve\"").unwrap().as_str(), Some("naïve"));
    }
}
