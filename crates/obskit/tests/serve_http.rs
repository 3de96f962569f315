//! End-to-end exercise of the telemetry scrape server over real
//! sockets: live `/metrics` scrapes between counter increments,
//! `/healthz` staleness flips, `/snapshot` JSONL, error statuses for
//! malformed requests, the slowloris read timeout, and graceful
//! shutdown.
//!
//! All tests share one process-global registry and ingest watermark, so
//! each starts its own server but only `healthz_flips_stale_when_ingest
//! _stops` touches the watermark — keep it that way.

use obskit::{parse_exposition, serve, ServeConfig};
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
fn metrics_scrape_sees_live_counter_movement() {
    let handle = serve(&ServeConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr();
    let c = obskit::counter("serve_e2e_events_total");
    c.add(5);

    let (status, first) = get(addr, b"GET /metrics HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200, "{first}");
    assert!(
        first.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "{first}"
    );
    let samples = parse_exposition(body_of(&first)).expect("scrape must parse strictly");
    let value_of = |text: &str| {
        parse_exposition(body_of(text))
            .unwrap()
            .into_iter()
            .find(|s| s.name == "serve_e2e_events_total")
            .expect("counter in exposition")
            .value
    };
    assert!(!samples.is_empty());
    let v1 = value_of(&first);
    assert!(v1 >= 5.0, "{v1}");

    // The second scrape reads the *live* registry, not a snapshot taken
    // at server start.
    c.add(2);
    let (_, second) = get(addr, b"GET /metrics HTTP/1.0\r\n\r\n");
    assert_eq!(value_of(&second), v1 + 2.0);
    handle.shutdown();
}

#[test]
fn healthz_flips_stale_when_ingest_stops() {
    let cfg = ServeConfig {
        stale_after: Duration::from_millis(80),
        ..ServeConfig::default()
    };
    let handle = serve(&cfg).expect("bind");
    let addr = handle.addr();

    obskit::telemetry::touch_ingest();
    let (status, ok) = get(addr, b"GET /healthz HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200, "{ok}");
    assert!(ok.contains("\"status\":\"ok\""), "{ok}");
    assert!(ok.contains("Content-Type: application/json"), "{ok}");
    assert!(ok.contains("\"last_ingest_us\":"), "{ok}");

    // Stop ingesting; once the watermark ages past stale_after the
    // endpoint must answer 503 stale.
    std::thread::sleep(Duration::from_millis(200));
    let (status, stale) = get(addr, b"GET /healthz HTTP/1.0\r\n\r\n");
    assert_eq!(status, 503, "{stale}");
    assert!(stale.contains("\"status\":\"stale\""), "{stale}");

    // Ingest resuming flips it back without restarting the server.
    obskit::telemetry::touch_ingest();
    let (status, back) = get(addr, b"GET /healthz HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200, "{back}");
    handle.shutdown();
}

#[test]
fn snapshot_returns_sorted_jsonl() {
    let handle = serve(&ServeConfig::default()).expect("bind");
    obskit::counter("serve_e2e_snapshot_total").inc();
    let (status, response) = get(handle.addr(), b"GET /snapshot HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200, "{response}");
    assert!(
        response.contains("Content-Type: application/x-ndjson"),
        "{response}"
    );
    let body = body_of(&response);
    assert!(!body.is_empty());
    let mut names = Vec::new();
    for line in body.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
        let name = line
            .split("\"name\":\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .unwrap_or_else(|| panic!("no name field in {line}"));
        names.push(name.to_string());
    }
    assert!(names.iter().any(|n| n == "serve_e2e_snapshot_total"));
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted, "snapshot lines must be name-sorted");
    handle.shutdown();
}

#[test]
fn malformed_requests_get_typed_errors_and_server_survives() {
    let handle = serve(&ServeConfig::default()).expect("bind");
    let addr = handle.addr();

    let (status, r) = get(addr, b"POST /metrics HTTP/1.0\r\n\r\n");
    assert_eq!(status, 405, "{r}");
    let (status, r) = get(addr, b"GET /nope HTTP/1.0\r\n\r\n");
    assert_eq!(status, 404, "{r}");
    let (status, r) = get(addr, b"GET /metrics SPDY/9\r\n\r\n");
    assert_eq!(status, 400, "{r}");
    let (status, r) = get(addr, b"\xff\xfe\xfd garbage \xff\r\n");
    assert_eq!(status, 400, "{r}");
    let mut oversized = b"GET /".to_vec();
    oversized.resize(9_000, b'a');
    oversized.extend_from_slice(b" HTTP/1.0\r\n");
    let (status, r) = get(addr, &oversized);
    assert_eq!(status, 400, "{r}");

    // After all that abuse a normal scrape still works.
    let (status, r) = get(addr, b"GET /metrics HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200, "{r}");
    handle.shutdown();
}

#[test]
fn slowloris_connection_times_out_without_wedging_the_server() {
    let cfg = ServeConfig {
        read_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let handle = serve(&cfg).expect("bind");
    let addr = handle.addr();

    // Open a connection and send nothing: the handler must give up
    // after read_timeout (408 or a plain close both prove it).
    let mut idle = TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut leftover = Vec::new();
    let _ = idle.read_to_end(&mut leftover);
    let text = String::from_utf8_lossy(&leftover);
    assert!(
        leftover.is_empty() || text.contains("408"),
        "unexpected slowloris response: {text:?}"
    );

    // The stalled peer consumed one handler slot for 100ms, not forever.
    let (status, r) = get(addr, b"GET /metrics HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200, "{r}");
    handle.shutdown();
}

#[test]
fn shutdown_stops_accepting() {
    let handle = serve(&ServeConfig::default()).expect("bind");
    let addr = handle.addr();
    let (status, _) = get(addr, b"GET /healthz HTTP/1.0\r\n\r\n");
    assert!(status == 200 || status == 503);
    handle.shutdown();
    // The listener is gone: connects must fail (or be reset before a
    // response arrives if the OS briefly keeps the backlog).
    match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(mut conn) => {
            conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let _ = conn.write_all(b"GET /healthz HTTP/1.0\r\n\r\n");
            let mut out = Vec::new();
            let n = conn.read_to_end(&mut out).unwrap_or(0);
            assert_eq!(n, 0, "server answered after shutdown: {out:?}");
        }
    }
}
