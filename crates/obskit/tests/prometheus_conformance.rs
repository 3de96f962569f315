//! Prometheus text-format conformance of the live global registry.
//!
//! These tests register deliberately hostile metrics (label values with
//! backslashes, quotes, newlines; every metric kind; interleaved
//! registration order) and hold `render_prometheus` to the exposition
//! format rules a real scraper enforces: valid names, escaped label
//! values, one HELP/TYPE per name, contiguous name groups, and a full
//! round-trip through the crate's own strict parser.

use obskit::{parse_exposition, valid_label_name, valid_metric_name};

/// Every name and label in the default exposition must satisfy the
/// Prometheus grammar, whatever the rest of the workspace registered
/// before this test ran (tests share the global registry).
#[test]
fn live_exposition_round_trips_through_the_strict_parser() {
    // Populate with one of each kind plus labels, on top of whatever is
    // already registered.
    obskit::counter("conformance_events_total").add(3);
    obskit::gauge("conformance_depth").set(-7);
    obskit::histogram("conformance_latency_us").record(1234);
    obskit::counter_labeled(
        "conformance_events_total",
        &[("method", "systematic"), ("k", "50")],
    )
    .inc();

    let text = obskit::global().render_prometheus();
    let samples = parse_exposition(&text)
        .unwrap_or_else(|(line, msg)| panic!("line {line}: {msg}\n---\n{text}"));
    assert!(!samples.is_empty());
    for s in &samples {
        assert!(valid_metric_name(&s.name), "bad metric name {:?}", s.name);
        for (k, _) in &s.labels {
            assert!(valid_label_name(k), "bad label name {k:?} on {:?}", s.name);
        }
    }
    // The hostile registrations surfaced with their values.
    let find = |name: &str, labels: &[(&str, &str)]| {
        samples
            .iter()
            .find(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .unwrap_or_else(|| panic!("missing {name} {labels:?}"))
    };
    assert!(find("conformance_events_total", &[]).value >= 3.0);
    assert_eq!(find("conformance_depth", &[]).value, -7.0);
    find(
        "conformance_events_total",
        &[("method", "systematic"), ("k", "50")],
    );
    // Histograms expose the canonical suffix triple with +Inf closing.
    find("conformance_latency_us_bucket", &[("le", "+Inf")]);
    find("conformance_latency_us_sum", &[]);
    find("conformance_latency_us_count", &[]);
}

/// Label values containing every escape-worthy character must survive a
/// render → parse round trip byte-for-byte.
#[test]
fn hostile_label_values_round_trip() {
    let hostile = "a\\b\"c\nd,e{f}g";
    obskit::counter_labeled("conformance_hostile_total", &[("path", hostile)]).inc();

    let text = obskit::global().render_prometheus();
    // The raw newline must never appear inside the rendered line.
    for line in text.lines() {
        if line.contains("conformance_hostile_total") && !line.starts_with('#') {
            assert!(line.contains("\\n"), "newline not escaped: {line}");
            assert!(line.contains("\\\\"), "backslash not escaped: {line}");
            assert!(line.contains("\\\""), "quote not escaped: {line}");
        }
    }
    let samples = parse_exposition(&text).expect("hostile exposition must stay parseable");
    let got = samples
        .iter()
        .find(|s| s.name == "conformance_hostile_total")
        .expect("hostile counter in exposition");
    assert_eq!(got.labels, vec![("path".to_string(), hostile.to_string())]);
}

/// Name groups stay contiguous and TYPE lines unique even when
/// registration interleaves a name, a labeled variant, and a longer
/// name that sorts between them in raw key order (`'_'` > `'{'` is the
/// classic trap).
#[test]
fn interleaved_registration_keeps_type_lines_unique() {
    obskit::counter("conformance_ab").inc();
    obskit::counter("conformance_ab_c").inc();
    obskit::counter_labeled("conformance_ab", &[("x", "1")]).inc();

    let text = obskit::global().render_prometheus();
    let type_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("# TYPE conformance_ab"))
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    for l in &type_lines {
        assert!(seen.insert(*l), "duplicate TYPE line: {l}");
    }
    // The parser enforces contiguity; a split group fails here.
    parse_exposition(&text).expect("interleaved names must stay grouped");
}

/// HELP text registered via `describe` renders once, before the TYPE
/// line, with its own escaping rules (no label-style quote escaping).
#[test]
fn help_lines_precede_type_and_render_once() {
    obskit::counter("conformance_described_total").inc();
    obskit::global().describe(
        "conformance_described_total",
        "events seen\nsecond line \\ backslash",
    );

    let text = obskit::global().render_prometheus();
    let lines: Vec<&str> = text.lines().collect();
    let help_at = lines
        .iter()
        .position(|l| l.starts_with("# HELP conformance_described_total"))
        .expect("HELP line");
    let type_at = lines
        .iter()
        .position(|l| l.starts_with("# TYPE conformance_described_total"))
        .expect("TYPE line");
    assert!(help_at < type_at, "HELP must precede TYPE");
    assert_eq!(
        lines[help_at],
        "# HELP conformance_described_total events seen\\nsecond line \\\\ backslash"
    );
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.starts_with("# HELP conformance_described_total"))
            .count(),
        1
    );
}
