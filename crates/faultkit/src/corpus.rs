//! Deterministic valid-capture corpora for the mutation campaigns.
//!
//! A mutation campaign is only as good as the territory its corpus
//! covers: the generators here exercise both timestamp magics, IPv4 and
//! opaque payloads, short and long records, and (for pcapng) interface
//! options, Enhanced and Simple packet blocks, and unknown block types.
//! Every corpus is a pure function of its seed.

use nettrace::packet::Protocol;
use nettrace::time::Micros;
use nettrace::trace::Trace;
use nettrace::PacketRecord;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A valid capture image plus the offsets a structure-aware mutator
/// needs.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Which corpus the bytes are (`"pcap"`, `"pcapng"`, or
    /// `"pcapng-sections"` for several pcapng sections).
    pub name: &'static str,
    /// The valid capture image.
    pub bytes: Vec<u8>,
    /// Start offset of every top-level structure (global header,
    /// records, blocks), plus the total length as a final sentinel —
    /// the truncation sweep cuts at each of these.
    pub boundaries: Vec<usize>,
    /// Packets a strict read of `bytes` yields.
    pub packets: usize,
}

/// Deterministic packet stream shared by both corpus builders.
fn synth_packets(seed: u64, count: usize) -> Vec<PacketRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = 0u64;
    (0..count)
        .map(|_| {
            ts += rng.random_range(1u64..=5_000);
            let size = *[40u16, 64, 128, 552, 576, 1500]
                .get(rng.random_range(0usize..6))
                .expect("index in range");
            let proto = match rng.random_range(0u8..3) {
                0 => Protocol::Tcp,
                1 => Protocol::Udp,
                _ => Protocol::Icmp,
            };
            PacketRecord::new(Micros(ts), size)
                .with_protocol(proto)
                .with_ports(rng.random_range(1u16..=1024), rng.random_range(1u16..=1024))
                .with_nets(rng.random_range(0u16..256), rng.random_range(0u16..256))
        })
        .collect()
}

/// A valid classic-pcap corpus: `count` packets written by the
/// workspace's own writer (28-byte synthetic IPv4 records).
#[must_use]
pub fn pcap_corpus(seed: u64, count: usize) -> Corpus {
    let trace = Trace::new(synth_packets(seed, count)).expect("synth timestamps ascend");
    let mut bytes = Vec::new();
    nettrace::pcap::write_pcap(&mut bytes, &trace).expect("in-memory write");
    // The writer emits a 24-byte global header then fixed 16+28-byte
    // records.
    let mut boundaries = vec![0usize, 24];
    for i in 1..=count {
        boundaries.push(24 + i * (16 + 28));
    }
    assert_eq!(*boundaries.last().expect("nonempty"), bytes.len());
    Corpus {
        name: "pcap",
        bytes,
        boundaries,
        packets: count,
    }
}

/// A valid pcapng corpus: SHB, two IDBs (microsecond and millisecond
/// resolution), then a mix of Enhanced, Simple, and unknown blocks.
#[must_use]
pub fn pcapng_corpus(seed: u64, count: usize) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x070c_ab19);
    let mut bytes = Vec::new();
    let mut boundaries = Vec::new();
    // Packets the EPBs and SPBs carry; the unknown blocks carry none.
    let mut packets = 0;

    let block = |bytes: &mut Vec<u8>, boundaries: &mut Vec<usize>, btype: u32, body: &[u8]| {
        boundaries.push(bytes.len());
        let total = 12 + body.len() as u32;
        bytes.extend_from_slice(&btype.to_le_bytes());
        bytes.extend_from_slice(&total.to_le_bytes());
        bytes.extend_from_slice(body);
        bytes.extend_from_slice(&total.to_le_bytes());
    };

    // SHB.
    let mut shb = Vec::new();
    shb.extend_from_slice(&0x1A2B_3C4Du32.to_le_bytes()); // BOM
    shb.extend_from_slice(&1u16.to_le_bytes());
    shb.extend_from_slice(&0u16.to_le_bytes());
    shb.extend_from_slice(&(-1i64).to_le_bytes());
    block(&mut bytes, &mut boundaries, 0x0A0D_0D0A, &shb);

    // IDB 0: default microsecond resolution, no options.
    let mut idb = Vec::new();
    idb.extend_from_slice(&101u16.to_le_bytes()); // linktype raw
    idb.extend_from_slice(&0u16.to_le_bytes());
    idb.extend_from_slice(&0u32.to_le_bytes());
    block(&mut bytes, &mut boundaries, 0x0000_0001, &idb);

    // IDB 1: millisecond resolution via if_tsresol option.
    let mut idb_ms = Vec::new();
    idb_ms.extend_from_slice(&101u16.to_le_bytes());
    idb_ms.extend_from_slice(&0u16.to_le_bytes());
    idb_ms.extend_from_slice(&0u32.to_le_bytes());
    idb_ms.extend_from_slice(&9u16.to_le_bytes()); // if_tsresol
    idb_ms.extend_from_slice(&1u16.to_le_bytes());
    idb_ms.extend_from_slice(&[3, 0, 0, 0]); // 10^-3 + pad
    idb_ms.extend_from_slice(&0u32.to_le_bytes()); // endofopt
    block(&mut bytes, &mut boundaries, 0x0000_0001, &idb_ms);

    for p in &synth_packets(seed, count) {
        let kind = rng.random_range(0u8..8);
        packets += usize::from(kind < 7);
        match kind {
            // Mostly EPBs on interface 0 (microseconds) with a synthetic
            // IPv4 payload the parser can fully recover.
            0..=4 => {
                let mut payload = vec![0u8; 28];
                payload[0] = 0x45;
                payload[2..4].copy_from_slice(&p.size.to_be_bytes());
                payload[9] = p.protocol.number();
                payload[12] = 10;
                payload[13..15].copy_from_slice(&p.src_net.to_be_bytes());
                payload[16] = 10;
                payload[17..19].copy_from_slice(&p.dst_net.to_be_bytes());
                payload[20..22].copy_from_slice(&p.src_port.to_be_bytes());
                payload[22..24].copy_from_slice(&p.dst_port.to_be_bytes());
                let mut epb = Vec::new();
                epb.extend_from_slice(&0u32.to_le_bytes());
                let ticks = p.timestamp.as_u64();
                epb.extend_from_slice(&((ticks >> 32) as u32).to_le_bytes());
                epb.extend_from_slice(&((ticks & 0xffff_ffff) as u32).to_le_bytes());
                epb.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                epb.extend_from_slice(&u32::from(p.size).to_le_bytes());
                epb.extend_from_slice(&payload);
                block(&mut bytes, &mut boundaries, 0x0000_0006, &epb);
            }
            // Some EPBs on the millisecond interface, opaque payload.
            5 => {
                let mut epb = Vec::new();
                epb.extend_from_slice(&1u32.to_le_bytes());
                let ticks = p.timestamp.as_u64() / 1_000; // ms ticks
                epb.extend_from_slice(&((ticks >> 32) as u32).to_le_bytes());
                epb.extend_from_slice(&((ticks & 0xffff_ffff) as u32).to_le_bytes());
                epb.extend_from_slice(&4u32.to_le_bytes());
                epb.extend_from_slice(&u32::from(p.size).to_le_bytes());
                epb.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
                block(&mut bytes, &mut boundaries, 0x0000_0006, &epb);
            }
            // Simple Packet Blocks: original length only.
            6 => {
                let mut spb = Vec::new();
                spb.extend_from_slice(&u32::from(p.size).to_le_bytes());
                spb.extend_from_slice(&[0u8; 8]);
                block(&mut bytes, &mut boundaries, 0x0000_0003, &spb);
            }
            // Unknown block types the reader must skip by length.
            _ => {
                block(&mut bytes, &mut boundaries, 0x0000_0BAD, &[0u8; 16]);
            }
        }
    }
    boundaries.push(bytes.len());
    Corpus {
        name: "pcapng",
        bytes,
        boundaries,
        packets,
    }
}

/// `sections` pcapng corpora of `count` entries each, seeded `seed`,
/// `seed + 1`, and so on, back to back. Every section restarts its
/// clock near zero, so a whole-capture read has to merge them.
#[must_use]
pub fn pcapng_sections_corpus(seed: u64, count: usize, sections: u64) -> Corpus {
    let mut bytes = Vec::new();
    let mut boundaries = Vec::new();
    let mut packets = 0;
    for s in 0..sections {
        let section = pcapng_corpus(seed.wrapping_add(s), count);
        let (_end, starts) = section.boundaries.split_last().expect("end sentinel");
        boundaries.extend(starts.iter().map(|b| bytes.len() + b));
        bytes.extend_from_slice(&section.bytes);
        packets += section.packets;
    }
    boundaries.push(bytes.len());
    Corpus {
        name: "pcapng-sections",
        bytes,
        boundaries,
        packets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_are_valid_and_deterministic() {
        let sections = |seed, count| pcapng_sections_corpus(seed, count, 3);
        for build in [pcap_corpus, pcapng_corpus, sections] {
            let a = build(1993, 40);
            let b = build(1993, 40);
            assert_eq!(a.bytes, b.bytes, "{} corpus must be seed-stable", a.name);
            assert_eq!(a.boundaries, b.boundaries);
            let strict = nettrace::read_capture(a.bytes.as_slice()).expect("valid corpus");
            assert_eq!(strict.len(), a.packets, "{}", a.name);
            assert!(a.packets > 0);
            // Boundaries are sorted, start at 0, end at the length.
            assert_eq!(a.boundaries[0], 0);
            assert_eq!(*a.boundaries.last().expect("nonempty"), a.bytes.len());
            assert!(a.boundaries.windows(2).all(|w| w[0] < w[1]));
            let c = build(7, 40);
            assert_ne!(a.bytes, c.bytes, "{} corpus must vary with seed", a.name);
        }
    }
}
