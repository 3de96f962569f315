//! Golden digest over the full output of the three capture entry points
//! — `read_capture`, `read_capture_lossy` and the per-packet
//! `CaptureStream` pull — on the seeded corpora, their truncations and
//! their mutations, including multi-section pcapng images whose damaged
//! sections force the salvage to resynchronize.
//!
//! The campaign digest folds only counts. This one folds every packet
//! field, the report's format and byte counts, every fault's offset and
//! error with its payload, and the stream's fault and byte offsets, so
//! any decoder change that alters an output changes the pinned value.

use faultkit::corpus::{pcap_corpus, pcapng_corpus, Corpus};
use faultkit::{Digest, Mutation};
use nettrace::{CaptureStream, PacketRecord, TraceError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::Read;

/// The digest measured when the test was written. A change here means a
/// reader's output changed.
const GOLDEN: u64 = 0x9f6a_f1f5_9cd5_89c5;

fn fold_packet(d: &mut Digest, p: &PacketRecord) {
    d.update_u64(p.timestamp.as_u64());
    d.update_u64(u64::from(p.size));
    d.update(&[p.protocol.number(), p.flags]);
    for v in [p.src_port, p.dst_port, p.src_net, p.dst_net] {
        d.update(&v.to_le_bytes());
    }
    d.update(&p.flow_id.to_le_bytes());
}

fn fold_error(d: &mut Digest, e: &TraceError) {
    match e {
        TraceError::BadMagic(m) => {
            d.update(b"bad_magic");
            d.update_u64(u64::from(*m));
        }
        TraceError::TruncatedRecord { packets_read } => {
            d.update(b"truncated");
            d.update_u64(*packets_read as u64);
        }
        TraceError::OversizedRecord { caplen } => {
            d.update(b"oversized");
            d.update_u64(u64::from(*caplen));
        }
        other => d.update(format!("{other:?}").as_bytes()),
    }
}

/// Hands out at most 7 bytes per `read`, so headers and blocks arrive
/// split across calls.
struct Dribble<'a>(&'a [u8]);

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.0.len()).min(7);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// Fold everything the three entry points report for one image, read
/// through `open` (a fresh reader per entry point). Returns whether the
/// salvage recovered packets past its first fault.
fn fold_image<'a, R: Read>(d: &mut Digest, image: &'a [u8], open: impl Fn(&'a [u8]) -> R) -> bool {
    match nettrace::read_capture(open(image)) {
        Ok(trace) => {
            d.update(b"ok");
            d.update_u64(trace.len() as u64);
            trace.iter().for_each(|p| fold_packet(d, p));
        }
        Err(e) => fold_error(d, &e),
    }

    let report = nettrace::read_capture_lossy(open(image)).expect("in-memory reads cannot fail");
    d.update(report.format.as_bytes());
    d.update_u64(report.bytes_consumed);
    d.update_u64(report.bytes_total);
    d.update_u64(report.packets_salvaged as u64);
    report.trace.iter().for_each(|p| fold_packet(d, p));
    d.update_u64(report.faults.len() as u64);
    for fault in &report.faults {
        d.update_u64(fault.offset);
        fold_error(d, &fault.error);
    }

    match CaptureStream::new(open(image)) {
        Err(e) => {
            d.update(b"header");
            fold_error(d, &e);
            false
        }
        Ok(mut stream) => {
            d.update(stream.format().as_bytes());
            loop {
                match stream.next_packet() {
                    Ok(Some(p)) => fold_packet(d, &p),
                    Ok(None) => {
                        d.update(b"end");
                        break;
                    }
                    Err(e) => {
                        fold_error(d, &e);
                        break;
                    }
                }
            }
            d.update_u64(stream.packets_read() as u64);
            d.update_u64(stream.fault_offset().unwrap_or(u64::MAX));
            d.update_u64(stream.byte_offset());
            report.packets_salvaged > stream.packets_read()
        }
    }
}

/// Every image the digest covers, in a fixed order.
fn images() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let corpora: Vec<Corpus> = [1993u64, 7]
        .iter()
        .flat_map(|&seed| [pcap_corpus(seed, 60), pcapng_corpus(seed, 60)])
        .collect();

    // Truncation at, and one byte either side of, every boundary.
    for corpus in &corpora {
        for &b in &corpus.boundaries {
            for cut in [b.saturating_sub(1), b, b + 1] {
                if cut <= corpus.bytes.len() {
                    out.push(corpus.bytes[..cut].to_vec());
                }
            }
        }
    }

    // One to three stacked mutations of a single corpus.
    let mut rng = StdRng::seed_from_u64(1993);
    for i in 0..2_000 {
        let mut image = corpora[i % corpora.len()].bytes.clone();
        for _ in 0..rng.random_range(1u32..=3) {
            Mutation::draw(&mut rng, image.len()).apply(&mut image);
        }
        out.push(image);
    }

    // Two to four pcapng sections, each mutated or not: faults inside a
    // section must cost at most that section.
    for _ in 0..600 {
        let mut image = Vec::new();
        for _ in 0..rng.random_range(2u32..=4) {
            let mut section = pcapng_corpus(rng.random_range(0u64..1_000), 12).bytes;
            if rng.random_range(0u8..3) > 0 {
                Mutation::draw(&mut rng, section.len()).apply(&mut section);
            }
            image.extend_from_slice(&section);
        }
        out.push(image);
    }
    out
}

#[test]
fn reader_outputs_match_the_golden_digest() {
    let mut d = Digest::new();
    let mut resynced = 0;
    for (i, image) in images().iter().enumerate() {
        resynced += usize::from(fold_image(&mut d, image, |b| b));
        if i % 8 == 0 {
            fold_image(&mut d, image, Dribble);
        }
    }
    // The multi-section images must exercise the salvage's resync.
    assert!(
        resynced > 100,
        "only {resynced} images salvaged past a fault"
    );
    assert_eq!(
        d.finish(),
        GOLDEN,
        "reader output changed: digest {:#018x}",
        d.finish()
    );
}
