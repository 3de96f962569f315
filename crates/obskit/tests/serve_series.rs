//! Socket-level conformance for the `/series` and `/alerts` endpoints:
//! 503 before the store exists, strict query handling (200 JSON, 400
//! typed errors), NaN-as-null rendering, name/since/step selection,
//! and alert JSONL state flipping over real TCP.
//!
//! The series store and rule engine are process-global and tests run
//! concurrently, so the whole sequence lives in ONE test function —
//! the "store not yet installed" assertion is only meaningful before
//! `ensure_global_series` has run anywhere in the process.

use obskit::{serve, ServeConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One blocking HTTP/1.0 exchange; returns (status code, full response
/// text).
fn get(addr: std::net::SocketAddr, request: &[u8]) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(request).expect("send request");
    let mut response = Vec::new();
    conn.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8_lossy(&response).into_owned();
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable status line in {text:?}"));
    (status, text)
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

#[test]
fn series_and_alerts_conform_over_real_sockets() {
    let handle = serve(&ServeConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr();

    // Phase 1: no store installed yet — the endpoint must refuse
    // loudly, not answer an empty document.
    let (status, r) = get(addr, b"GET /series HTTP/1.0\r\n\r\n");
    assert_eq!(status, 503, "{r}");
    assert!(r.contains("series store not running"), "{r}");

    // Phase 2: install the store and hand-feed deterministic history
    // (no background sampler in this test binary — pushes are exact).
    let store = obskit::series::ensure_global_series();
    for i in 0..10u64 {
        store.push("serve_e2e_series_kb", 1_000 + i * 100, (i * 2) as f64);
    }
    store.push("serve_e2e_holes", 1_000, f64::NAN);

    let (status, r) = get(addr, b"GET /series HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200, "{r}");
    assert!(r.contains("Content-Type: application/json"), "{r}");
    let body = body_of(&r);
    assert!(body.contains("\"now_us\":"), "{body}");
    assert!(body.contains("\"interval_us\":"), "{body}");
    assert!(body.contains("\"key\":\"serve_e2e_series_kb\""), "{body}");
    assert!(body.contains("[1000,0]"), "{body}");
    assert!(body.contains("[1900,18]"), "{body}");
    // Non-finite points render as JSON null, never a bare NaN token.
    assert!(body.contains("null"), "{body}");
    assert!(!body.contains("NaN"), "{body}");

    // Phase 3: name/since/step narrow the selection server-side.
    let (status, r) = get(
        addr,
        b"GET /series?name=serve_e2e_series_kb&since=1300&step=2 HTTP/1.0\r\n\r\n",
    );
    assert_eq!(status, 200, "{r}");
    let body = body_of(&r);
    assert!(!body.contains("serve_e2e_holes"), "{body}");
    // since=1300 keeps ts 1300..=1900; step=2 keeps every other point.
    for kept in ["[1300,6]", "[1500,10]", "[1700,14]", "[1900,18]"] {
        assert!(body.contains(kept), "missing {kept} in {body}");
    }
    for dropped in ["[1000,", "[1200,", "[1400,", "[1600,", "[1800,"] {
        assert!(!body.contains(dropped), "unexpected {dropped} in {body}");
    }

    // A percent-escaped name (labels carry quotes) decodes strictly.
    let (status, r) = get(
        addr,
        b"GET /series?name=serve_e2e_series_kb&step=1000000 HTTP/1.0\r\n\r\n",
    );
    assert_eq!(status, 200, "{r}");
    assert!(
        body_of(&r).contains("\"points\":[[1000,0]]"),
        "max step keeps only the first point: {r}"
    );

    // Phase 4: malformed queries get typed 400s, and the server
    // survives every one of them.
    for (bad, want) in [
        (
            &b"GET /series?bogus=1 HTTP/1.0\r\n\r\n"[..],
            "unknown query key",
        ),
        (b"GET /series?step=0 HTTP/1.0\r\n\r\n", "step must be"),
        (b"GET /series?step=2&step=3 HTTP/1.0\r\n\r\n", "duplicate"),
        (b"GET /series?name=%zz HTTP/1.0\r\n\r\n", "%XX"),
        (b"GET /series?since=soon HTTP/1.0\r\n\r\n", "since must be"),
        (b"GET /series?&& HTTP/1.0\r\n\r\n", "empty query"),
    ] {
        let (status, r) = get(addr, bad);
        assert_eq!(status, 400, "{r}");
        assert!(r.contains(want), "want {want:?} in {r}");
    }

    // Phase 5: /alerts with no rules is an empty (but well-typed) feed.
    let (status, r) = get(addr, b"GET /alerts HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200, "{r}");
    assert!(r.contains("Content-Type: application/x-ndjson"), "{r}");

    // Phase 6: install a rule over the hand-fed series and evaluate two
    // ticks — value 18 > 10 with `for 2` must flip it to firing, and
    // the feed must say so in one JSON object per line.
    let rules = obskit::parse_rules(
        "rule serve_e2e_hot value(serve_e2e_series_kb) > 10 for 2\n\
         rule serve_e2e_cold value(serve_e2e_series_kb) > 1000000\n",
    )
    .expect("valid grammar");
    obskit::rules::global_engine()
        .add_rules(rules)
        .expect("fresh names");
    obskit::rules::global_engine().evaluate(store, 2_000);
    obskit::rules::global_engine().evaluate(store, 2_200);

    let (status, r) = get(addr, b"GET /alerts HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200, "{r}");
    let body = body_of(&r);
    let hot = body
        .lines()
        .find(|l| l.contains("\"rule\":\"serve_e2e_hot\""))
        .unwrap_or_else(|| panic!("no serve_e2e_hot line in {body}"));
    assert!(hot.contains("\"state\":\"firing\""), "{hot}");
    assert!(hot.contains("\"value\":18"), "{hot}");
    assert!(
        hot.contains("\"expr\":\"value(serve_e2e_series_kb) > 10\""),
        "{hot}"
    );
    let cold = body
        .lines()
        .find(|l| l.contains("\"rule\":\"serve_e2e_cold\""))
        .unwrap_or_else(|| panic!("no serve_e2e_cold line in {body}"));
    assert!(cold.contains("\"state\":\"ok\""), "{cold}");
    for line in body.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
    }

    // After all that, a plain scrape still works: the new routes did
    // not destabilize the server.
    let (status, r) = get(addr, b"GET /metrics HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200, "{r}");
    handle.shutdown();
}
