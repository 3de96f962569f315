//! End-to-end tests driving the compiled `netsample` binary.

use std::process::Command;

fn netsample(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_netsample"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("netsample_bin_{name}_{}.pcap", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn full_pipeline_through_the_binary() {
    let pop = tmp("pop");
    let sam = tmp("sam");

    let out = netsample(&["synth", &pop, "--seconds", "15", "--seed", "11"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote"));

    let out = netsample(&["analyze", &pop]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("packet size"));
    assert!(text.contains("protocol distribution"));

    let out = netsample(&[
        "sample",
        &pop,
        &sam,
        "--method",
        "stratified",
        "--interval",
        "25",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("selected"));

    let out = netsample(&["score", &pop, "--interval", "50", "--target", "ia"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("mean phi"));

    let out = netsample(&["compare", &pop, &sam]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("phi="));

    std::fs::remove_file(&pop).ok();
    std::fs::remove_file(&sam).ok();
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = netsample(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn bad_option_is_a_clean_error() {
    let out = netsample(&["synth", "/tmp/x.pcap", "--sed", "1"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown option --sed"), "{err}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = netsample(&["analyze", "/nonexistent/trace.pcap"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));
}

#[test]
fn help_succeeds() {
    let out = netsample(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("sweep"));
}

#[test]
fn exit_codes_distinguish_error_classes() {
    // I/O failure (missing file): EX_IOERR.
    let out = netsample(&["analyze", "/nonexistent/trace.pcap"]);
    assert_eq!(out.status.code(), Some(74));
    // Usage failures: EX_USAGE.
    let out = netsample(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(64));
    let out = netsample(&["perf", "report"]);
    assert_eq!(out.status.code(), Some(64));
    let out = netsample(&["synth", "/tmp/x.pcap", "--sed", "1"]);
    assert_eq!(out.status.code(), Some(64));
    // Readable but malformed input: EX_DATAERR.
    let garbage = tmp("garbage");
    std::fs::write(&garbage, b"not a capture").unwrap();
    let out = netsample(&["analyze", &garbage]);
    assert_eq!(out.status.code(), Some(65));
    std::fs::remove_file(&garbage).ok();
    // A path that opens but cannot be read (a directory: every read
    // fails) is an I/O failure, not a truncated capture.
    let dir = std::env::temp_dir();
    let dir = dir.to_str().expect("utf-8 temp dir");
    for args in [
        &["analyze", dir][..],
        &["analyze", dir, "--lossy"],
        &["stream", dir],
    ] {
        let out = netsample(args);
        assert_eq!(
            out.status.code(),
            Some(74),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// Regression: `sample` on a valid-but-empty capture used to reach the
/// selection-rate arithmetic (0/0 → NaN percentage). It must exit 65
/// with the same typed message `flows` reports.
#[test]
fn empty_capture_is_a_clean_data_error_for_sample_and_flows() {
    let empty = tmp("empty");
    let sink = tmp("empty_out");
    let trace = nettrace::Trace::new(Vec::new()).unwrap();
    let mut buf = Vec::new();
    nettrace::pcap::write_pcap(&mut buf, &trace).unwrap();
    std::fs::write(&empty, &buf).unwrap();

    let out = netsample(&["sample", &empty, &sink, "--interval", "10"]);
    assert_eq!(out.status.code(), Some(65));
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("trace is empty"), "{err}");
    assert!(!err.contains("NaN"), "{err}");

    let out = netsample(&["flows", &empty, "--interval", "10"]);
    assert_eq!(out.status.code(), Some(65));
    assert!(String::from_utf8_lossy(&out.stderr).contains("trace is empty"));

    std::fs::remove_file(&empty).ok();
    std::fs::remove_file(&sink).ok();
}

#[test]
fn metrics_flag_dumps_registry_to_stderr() {
    let pop = tmp("metrics");
    let out = netsample(&["synth", &pop, "--seconds", "5", "--metrics"]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("netsynth_packets_generated_total"), "{err}");
    assert!(err.contains("netsynth_generate_duration_us"), "{err}");

    let out = netsample(&[
        "score",
        &pop,
        "--interval",
        "10",
        "--replications",
        "3",
        "--metrics",
    ]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("nettrace_packets_read_total"), "{err}");
    assert!(err.contains("sampling_packets_selected_total"), "{err}");
    assert!(err.contains("sampling_disparity_tests_total"), "{err}");
    assert!(err.contains("statkit_chi2_sf_duration_us"), "{err}");

    // The dump also appears when the command fails.
    let out = netsample(&["score", &pop, "--method", "magic", "--metrics"]);
    assert_eq!(out.status.code(), Some(64));
    assert!(String::from_utf8_lossy(&out.stderr).contains("nettrace_packets_read_total"));

    std::fs::remove_file(&pop).ok();
}

#[test]
fn trace_flag_writes_jsonl_events() {
    let pop = tmp("tracein");
    let sink = std::env::temp_dir()
        .join(format!("netsample_bin_trace_{}.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let out = netsample(&["synth", &pop, "--seconds", "5"]);
    assert!(out.status.success());
    let out = netsample(&["analyze", &pop, "--trace", &sink]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&sink).unwrap();
    assert!(!body.trim().is_empty(), "trace sink stayed empty");
    for line in body.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"kind\""),
            "not a JSONL event: {line}"
        );
    }
    std::fs::remove_file(&pop).ok();
    std::fs::remove_file(&sink).ok();
}

#[test]
fn trace_is_flushed_even_when_the_command_fails() {
    let sink = std::env::temp_dir()
        .join(format!(
            "netsample_bin_failtrace_{}.jsonl",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    // A data-class failure deep in the run: the pcap is unreadable.
    let garbage = tmp("failtrace");
    std::fs::write(&garbage, b"definitely not a capture").unwrap();
    let out = netsample(&["analyze", &garbage, "--trace", &sink]);
    assert_eq!(out.status.code(), Some(65));
    let body = std::fs::read_to_string(&sink).unwrap();
    assert!(
        !body.trim().is_empty(),
        "failed run wrote no trace events at all"
    );
    // Every line the failing run wrote is complete JSON.
    for line in body.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"kind\""),
            "torn trace line from failing run: {line}"
        );
    }
    std::fs::remove_file(&garbage).ok();
    std::fs::remove_file(&sink).ok();
}

#[test]
fn profile_out_writes_the_span_tree_as_folded_stacks() {
    let pop = tmp("profile");
    let folded = std::env::temp_dir()
        .join(format!(
            "netsample_bin_profile_{}.folded",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    let out = netsample(&["synth", &pop, "--seconds", "10", "--seed", "7"]);
    assert!(out.status.success());
    // One worker keeps the sampler spans nested under their cell; on a
    // wider pool they are roots of the worker threads.
    let out = netsample(&[
        "--jobs",
        "1",
        "--profile-out",
        &folded,
        "score",
        &pop,
        "--interval",
        "20",
        "--replications",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let profile = std::fs::read_to_string(&folded).unwrap();
    assert!(
        profile
            .lines()
            .any(|l| l.starts_with("experiment_cell;sampling_select")),
        "no nested sampler span in profile:\n{profile}"
    );
    std::fs::remove_file(&pop).ok();
    std::fs::remove_file(&folded).ok();
}

#[test]
fn stream_flags_in_help_are_the_flags_stream_takes() {
    let out = netsample(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        text.contains("[--replication R]"),
        "help does not list --replication:\n{text}"
    );
    // The engine works N out from the window: no --population.
    assert!(!text.contains("--population"), "{text}");

    // The queue geometry is a library constant and the batch size a
    // library knob, not CLI flags.
    let pop = tmp("stream_flags");
    let out = netsample(&["synth", &pop, "--seconds", "5"]);
    assert!(out.status.success());
    for (flag, value) in [
        ("--batch", "64"),
        ("--queue", "4"),
        ("--population", "2000"),
    ] {
        let out = netsample(&["stream", &pop, flag, value]);
        assert_eq!(
            out.status.code(),
            Some(64),
            "{flag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_file(&pop).ok();
}

#[test]
fn degenerate_interval_exits_64_through_the_binary() {
    let pop = tmp("zero_k");
    let out = netsample(&["synth", &pop, "--seconds", "5"]);
    assert!(out.status.success());
    // Before the try_* constructors this panicked (exit 101); now it is
    // a classified usage error.
    let out = netsample(&["sample", &pop, &tmp("zero_k_out"), "--interval", "0"]);
    assert_eq!(out.status.code(), Some(64));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--interval"));
    std::fs::remove_file(&pop).ok();
}

#[test]
fn lossy_analyze_and_fuzz_through_the_binary() {
    let pop = tmp("lossy");
    let out = netsample(&["synth", &pop, "--seconds", "10"]);
    assert!(out.status.success());
    let bytes = std::fs::read(&pop).unwrap();
    let cut = tmp("lossy_cut");
    std::fs::write(&cut, &bytes[..bytes.len() - 5]).unwrap();

    // Strict analyze refuses the damaged file; --lossy salvages it.
    let out = netsample(&["analyze", &cut]);
    assert_eq!(out.status.code(), Some(65));
    let out = netsample(&["analyze", &cut, "--lossy"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("lossy ingest (pcap)"), "{text}");
    assert!(text.contains("first fault at byte"), "{text}");

    // A small seeded fuzz run succeeds and prints its digests.
    let out = netsample(&[
        "fuzz",
        "--seed",
        "7",
        "--mutations",
        "60",
        "--cases",
        "45",
        "--corpus-packets",
        "8",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("findings: 0"), "{text}");
    assert!(text.contains("digest"), "{text}");

    std::fs::remove_file(&pop).ok();
    std::fs::remove_file(&cut).ok();
}
