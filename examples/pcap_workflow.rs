//! Trace files: export a synthetic population to a standard libpcap
//! file, read it back, and run the sampling analysis on the file — the
//! workflow a user with a *real* capture follows (the original study
//! worked from a 650 MB trace file).
//!
//! ```sh
//! cargo run --release --example pcap_workflow
//! ```

use netsample::netsynth;
use netsample::sampling::experiment::{Experiment, MethodFamily};
use netsample::sampling::Target;
use nettrace::pcap::write_pcap;
use nettrace::Micros;
use std::fs::File;
use std::io::{BufReader, BufWriter};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::temp_dir().join("netsample_demo.pcap");

    // 1. Synthesize one minute and write it as pcap (LINKTYPE_RAW with
    //    synthetic IPv4 headers, readable by tcpdump/Wireshark).
    let trace = netsynth::generate(&netsynth::TraceProfile::short(60), 77);
    write_pcap(BufWriter::new(File::create(&path)?), &trace)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "wrote {} packets to {} ({:.1} MB)",
        trace.len(),
        path.display(),
        bytes as f64 / 1e6
    );

    // 2. Read it back; every analysis-relevant field survives.
    let reread = nettrace::read_capture(BufReader::new(File::open(&path)?))?;
    assert_eq!(reread.len(), trace.len());
    assert_eq!(reread.total_bytes(), trace.total_bytes());
    println!(
        "re-read {} packets, {} bytes — intact",
        reread.len(),
        reread.total_bytes()
    );

    // 3. Run the standard analysis on the file-sourced trace.
    let exp = Experiment::over_window(
        &reread,
        Micros::ZERO,
        Micros::from_secs(60),
        Target::Interarrival,
    );
    println!("\ninterarrival-target phi from the pcap-sourced population:");
    for family in [
        MethodFamily::Systematic,
        MethodFamily::SimpleRandom,
        MethodFamily::SystematicTimer,
    ] {
        let r = exp.run_family(family, 50, 5, 3);
        println!(
            "  {:<12} phi = {:.5}",
            family.name(),
            r.mean_phi().expect("nonempty")
        );
    }

    std::fs::remove_file(&path)?;
    Ok(())
}
