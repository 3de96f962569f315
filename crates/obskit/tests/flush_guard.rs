//! The trace sink must not lose buffered events on a panicking exit
//! path: a [`obskit::trace::FlushGuard`] dropped during unwinding has to
//! flush everything written so far.
//!
//! This lives in its own integration-test binary because the trace sink
//! is process-global (installable once); sharing a process with other
//! sink-installing tests would make it order-dependent.

use obskit::trace::{self, TraceEvent};
use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn events_survive_a_panic_when_guarded() {
    let path =
        std::env::temp_dir().join(format!("obskit_flush_guard_{}.jsonl", std::process::id()));
    let file = std::fs::File::create(&path).unwrap();
    // A deliberately large buffer: without an explicit flush nothing
    // this test writes would reach the file.
    assert!(trace::enable_writer(Box::new(BufWriter::with_capacity(
        1 << 20,
        file
    ))));

    let result = catch_unwind(AssertUnwindSafe(|| {
        let _guard = trace::flush_on_drop();
        trace::emit(&TraceEvent::now("span", "before_panic").with_duration(7));
        {
            // A span open at panic time: its drop also runs during
            // unwinding and must be emitted and flushed too.
            let _span = obskit::span("panicking_section");
            panic!("simulated failure mid-run");
        }
    }));
    assert!(result.is_err(), "the closure must have panicked");

    let body = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert!(
        lines.iter().any(|l| l.contains("before_panic")),
        "pre-panic event lost: {body:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains("panicking_section")),
        "span open at panic time lost: {body:?}"
    );
    // Every line is complete, parseable JSON — no torn writes.
    for line in &lines {
        assert!(
            TraceEvent::parse_line(line).is_some(),
            "incomplete trace line: {line}"
        );
    }
    std::fs::remove_file(&path).ok();
}
