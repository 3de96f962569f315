//! `ingest-pcapng`: the three capture decoders on one multi-section
//! pcapng image. `read_capture` and `CaptureStream::next_chunk(4096)`
//! decode the clean image; `read_capture_lossy` decodes a copy with one
//! corrupted block per section and resyncs at each next section header.

use super::{digest, Pass, Size, Workload};
use crate::span::Recorder;
use nettrace::{read_capture, read_capture_lossy, CaptureStream, IngestReport, PacketBatch, Trace};
use std::time::Duration;

/// Packets per `next_chunk` call.
pub const CHUNK: usize = 4096;

pub struct Inputs {
    pub clean: Vec<u8>,
    pub damaged: Vec<u8>,
    /// Packets a strict read of `clean` yields.
    pub packets: u64,
    pub sections: u64,
}

/// SplitMix64 finalizer: picks which block of a section to corrupt.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Inputs {
    pub fn build(seed: u64, size: Size) -> Inputs {
        let mut clean = Vec::new();
        let mut damaged = Vec::new();
        let mut packets = 0u64;
        for i in 0..size.ingest_sections {
            let corpus = faultkit::corpus::pcapng_corpus(seed.wrapping_add(i), size.ingest_entries);
            packets += corpus.packets as u64;
            // Blocks 0..3 are the SHB and two IDBs; the last boundary is
            // the end sentinel. Corrupt a block in the section's last
            // tenth, so salvage decodes most of the section before it
            // faults and resyncs.
            let blocks = corpus.boundaries.len() - 1;
            let lo = 3 + (blocks - 3) * 9 / 10;
            let pick = lo + (mix(seed ^ i) % (blocks - lo) as u64) as usize;
            let at = corpus.boundaries[pick];
            let mut section = corpus.bytes.clone();
            // A block length that is not a multiple of 4 is a fault.
            section[at + 4..at + 8].copy_from_slice(&13u32.to_le_bytes());
            clean.extend_from_slice(&corpus.bytes);
            damaged.extend_from_slice(&section);
        }
        Inputs {
            clean,
            damaged,
            packets,
            sections: size.ingest_sections,
        }
    }
}

pub struct Ingest<'a> {
    inputs: &'a Inputs,
}

/// The three decodes of one pass.
pub struct Decoded {
    pub strict: Trace,
    /// The chunked decode's timestamp and size columns, concatenated.
    pub chunk_ts: Vec<u64>,
    pub chunk_size: Vec<u32>,
    pub salvage: IngestReport,
    pub wall: [Duration; 3],
}

impl<'a> Ingest<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        Ingest { inputs }
    }

    /// The three decodes. Only the decoder calls are timed; copying the
    /// chunk columns out is the benchmark's own bookkeeping.
    pub fn decode(&self, rec: &mut Recorder) -> Decoded {
        let (strict, strict_wall) = rec.span("nettrace.read_capture", |_| {
            read_capture(self.inputs.clean.as_slice()).expect("clean image decodes")
        });

        let (mut stream, mut chunk_wall) = rec.span("nettrace.capture_stream", |_| {
            CaptureStream::new(self.inputs.clean.as_slice()).expect("pcapng header")
        });
        let mut chunk_ts = Vec::new();
        let mut chunk_size = Vec::new();
        let mut batch = PacketBatch::with_capacity(CHUNK);
        loop {
            batch.clear();
            let (got, wall) = rec.span("nettrace.next_chunk", |_| {
                stream
                    .next_chunk(CHUNK, &mut batch)
                    .expect("clean image streams")
            });
            chunk_wall += wall;
            if got == 0 {
                break;
            }
            chunk_ts.extend_from_slice(&batch.ts);
            chunk_size.extend_from_slice(&batch.size);
        }

        let (salvage, salvage_wall) = rec.span("nettrace.read_capture_lossy", |_| {
            read_capture_lossy(self.inputs.damaged.as_slice()).expect("in-memory read")
        });
        Decoded {
            strict,
            chunk_ts,
            chunk_size,
            salvage,
            wall: [strict_wall, chunk_wall, salvage_wall],
        }
    }
}

impl Workload for Ingest<'_> {
    fn pass(&mut self, rec: &mut Recorder) -> Pass {
        let d = self.decode(rec);
        let wall = d.wall.iter().sum();
        Pass {
            packets: (d.strict.len() + d.chunk_ts.len() + d.salvage.packets_salvaged) as u64,
            wall,
            steps: vec![wall],
            digest: decoded_digest(&d),
            check: check(self.inputs.packets, self.inputs.sections, &d),
        }
    }
}

fn packet_words(t: &Trace) -> impl Iterator<Item = u64> + '_ {
    t.packets()
        .iter()
        .map(|p| p.timestamp.as_u64() ^ u64::from(p.size) << 48)
}

pub fn decoded_digest(d: &Decoded) -> u64 {
    let chunk = d
        .chunk_ts
        .iter()
        .zip(&d.chunk_size)
        .map(|(&ts, &size)| ts ^ u64::from(size) << 48);
    digest(
        packet_words(&d.strict)
            .chain(chunk)
            .chain(packet_words(&d.salvage.trace))
            .chain(d.salvage.faults.iter().map(|f| f.offset)),
    )
}

/// Strict = chunked = corpus packet count, salvage yields no more than
/// strict, and exactly one fault per section at increasing offsets.
pub fn check(packets: u64, sections: u64, d: &Decoded) -> Result<(), String> {
    let (strict, chunk) = (d.strict.len() as u64, d.chunk_ts.len() as u64);
    if strict != packets || chunk != packets {
        return Err(format!(
            "strict {strict} and chunked {chunk} packets, corpus holds {packets}"
        ));
    }
    if d.salvage.packets_salvaged as u64 > strict {
        return Err(format!(
            "salvaged {} packets of a {strict}-packet capture",
            d.salvage.packets_salvaged
        ));
    }
    let offsets: Vec<u64> = d.salvage.faults.iter().map(|f| f.offset).collect();
    if offsets.len() as u64 != sections {
        return Err(format!(
            "{} faults in {sections} damaged sections",
            offsets.len()
        ));
    }
    if offsets.windows(2).any(|w| w[0] >= w[1]) {
        return Err(format!("fault offsets not increasing: {offsets:?}"));
    }
    Ok(())
}
