//! Property tests for the columnar ingest surface: decoding a capture
//! in chunks into a [`PacketBatch`] is exactly the per-packet decode
//! projected onto columns — same packets, same order, all four columns
//! — for pcap and pcapng (including multi-section streams), at any
//! chunk size, and up to the same fault on damaged tails and damaged
//! sections. On damaged multi-section pcapng the salvage reports one
//! fault per damaged section and keeps everything the damage did not
//! reach.

use nettrace::{
    read_capture, read_capture_lossy, CaptureStream, Micros, PacketBatch, PacketRecord, Trace,
    TraceError,
};
use proptest::prelude::*;

/// Monotone packets from (gap, size) pairs.
fn packets(gaps: &[(u64, u16)]) -> Vec<PacketRecord> {
    let mut t = 0u64;
    gaps.iter()
        .map(|&(gap, size)| {
            t += gap;
            PacketRecord::new(Micros(t), size)
        })
        .collect()
}

fn pcap_bytes(pkts: Vec<PacketRecord>) -> Vec<u8> {
    let trace = Trace::new(pkts).expect("monotone timestamps");
    let mut buf = Vec::new();
    nettrace::pcap::write_pcap(&mut buf, &trace).expect("in-memory write");
    buf
}

// pcapng block constants (the on-wire format, not crate internals).
const SHB: u32 = 0x0A0D_0D0A;
const BOM: u32 = 0x1A2B_3C4D;
const IDB: u32 = 1;
const EPB: u32 = 6;
const SPB: u32 = 3;

fn ng_block(buf: &mut Vec<u8>, btype: u32, body: &[u8]) {
    let total = 12 + body.len() as u32;
    buf.extend_from_slice(&btype.to_le_bytes());
    buf.extend_from_slice(&total.to_le_bytes());
    buf.extend_from_slice(body);
    buf.extend_from_slice(&total.to_le_bytes());
}

/// A little-endian pcapng stream with one section per inner vec; each
/// packet is an EPB, or an SPB (no timestamp) when `spb` is set. Also
/// returns, per section, the start offset of every block: SHB, IDB,
/// then one per packet.
fn pcapng_bytes(sections: &[Vec<(u64, u16, bool)>]) -> (Vec<u8>, Vec<Vec<usize>>) {
    let mut buf = Vec::new();
    let mut blocks = Vec::new();
    for section in sections {
        let mut starts = vec![buf.len()];
        let mut shb = Vec::new();
        shb.extend_from_slice(&BOM.to_le_bytes());
        shb.extend_from_slice(&1u16.to_le_bytes());
        shb.extend_from_slice(&0u16.to_le_bytes());
        shb.extend_from_slice(&(-1i64).to_le_bytes());
        ng_block(&mut buf, SHB, &shb);
        starts.push(buf.len());
        let mut idb = Vec::new();
        idb.extend_from_slice(&101u16.to_le_bytes()); // linktype raw
        idb.extend_from_slice(&0u16.to_le_bytes());
        idb.extend_from_slice(&0u32.to_le_bytes()); // snaplen
        ng_block(&mut buf, IDB, &idb);
        for &(ticks, size, spb) in section {
            starts.push(buf.len());
            if spb {
                let mut body = Vec::new();
                body.extend_from_slice(&u32::from(size).to_le_bytes());
                ng_block(&mut buf, SPB, &body);
            } else {
                let mut body = Vec::new();
                body.extend_from_slice(&0u32.to_le_bytes()); // interface 0
                body.extend_from_slice(&((ticks >> 32) as u32).to_le_bytes());
                body.extend_from_slice(&((ticks & 0xffff_ffff) as u32).to_le_bytes());
                body.extend_from_slice(&0u32.to_le_bytes()); // caplen 0
                body.extend_from_slice(&u32::from(size).to_le_bytes());
                ng_block(&mut buf, EPB, &body);
            }
        }
        blocks.push(starts);
    }
    (buf, blocks)
}

/// Block lengths every pcapng block must refuse: not a multiple of 4,
/// below the 12-byte minimum, and above the 16 MiB cap.
const BAD_LENGTHS: [u32; 4] = [13, 8, (16 << 20) + 4, u32::MAX];

/// Pull every packet one at a time, up to the first fault; also
/// returns that fault and its offset, if any.
fn pull_all(bytes: &[u8]) -> (Vec<PacketRecord>, Option<TraceError>, Option<u64>) {
    let mut s = CaptureStream::new(bytes).expect("header decodes");
    let mut out = Vec::new();
    loop {
        match s.next_packet() {
            Ok(Some(p)) => out.push(p),
            Ok(None) => return (out, None, s.fault_offset()),
            Err(e) => return (out, Some(e), s.fault_offset()),
        }
    }
}

/// Decode in `chunk`-sized columnar chunks, up to the first fault; also
/// returns that fault and its offset, if any.
fn chunk_all(bytes: &[u8], chunk: usize) -> (PacketBatch, Option<TraceError>, Option<u64>) {
    let mut s = CaptureStream::new(bytes).expect("header decodes");
    let mut batch = PacketBatch::new();
    loop {
        match s.next_chunk(chunk, &mut batch) {
            Ok(0) => return (batch, None, s.fault_offset()),
            Ok(n) => assert!(n <= chunk, "chunk overshot: {n} > {chunk}"),
            Err(e) => return (batch, Some(e), s.fault_offset()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // pcap: any packet mix, any chunk size — chunked columns are the
    // per-packet decode projected by `PacketBatch::from_records`.
    #[test]
    fn pcap_chunks_match_per_packet_decode(
        gaps in prop::collection::vec((0u64..50_000, 0u16..1600), 0..150),
        chunk in 1usize..64,
    ) {
        let bytes = pcap_bytes(packets(&gaps));
        let (pulled, pull_err, _) = pull_all(&bytes);
        let (batch, chunk_err, _) = chunk_all(&bytes, chunk);
        prop_assert!(pull_err.is_none() && chunk_err.is_none());
        prop_assert_eq!(pulled.len(), gaps.len());
        prop_assert_eq!(batch, PacketBatch::from_records(&pulled));
    }

    // pcap with a mid-record truncation: both paths must salvage the
    // same decoded prefix before reporting the fault.
    #[test]
    fn pcap_chunks_salvage_the_same_prefix_on_truncation(
        gaps in prop::collection::vec((0u64..50_000, 0u16..1600), 1..80),
        chunk in 1usize..32,
        cut in 1usize..16,
    ) {
        let mut bytes = pcap_bytes(packets(&gaps));
        // A pcap record is at least 16 bytes, so cutting < 16 bytes
        // always truncates mid-record rather than deleting one whole.
        bytes.truncate(bytes.len() - cut);
        let (pulled, pull_err, _) = pull_all(&bytes);
        let (batch, chunk_err, _) = chunk_all(&bytes, chunk);
        prop_assert!(pull_err.is_some() && chunk_err.is_some());
        prop_assert_eq!(pulled.len(), gaps.len() - 1);
        prop_assert_eq!(batch, PacketBatch::from_records(&pulled));
    }

    // pcapng: multiple sections (each SHB resets the interface table),
    // EPB/SPB mixes, chunk seams landing anywhere — including across
    // section boundaries.
    #[test]
    fn pcapng_chunks_match_per_packet_decode_across_sections(
        sections in prop::collection::vec(
            prop::collection::vec((0u64..1u64 << 40, 0u16..1600, any::<bool>()), 0..40),
            1..4,
        ),
        chunk in 1usize..32,
    ) {
        let (bytes, _) = pcapng_bytes(&sections);
        let (pulled, pull_err, _) = pull_all(&bytes);
        let (batch, chunk_err, _) = chunk_all(&bytes, chunk);
        prop_assert!(pull_err.is_none() && chunk_err.is_none());
        let expected: usize = sections.iter().map(Vec::len).sum();
        prop_assert_eq!(pulled.len(), expected);
        prop_assert_eq!(batch, PacketBatch::from_records(&pulled));
    }

    // Damaged multi-section pcapng: a random subset of 1–4 sections
    // each carries one block (IDB or packet) whose length field no
    // pcapng block may have. Section headers stay intact: the salvage
    // resumes at them, and a damaged one would merge its section into
    // the previous damaged region. The per-packet pull and the chunked
    // decode stop at the same fault. The salvage reports exactly one
    // fault per damaged section, at its bad block, keeps every packet
    // decoded before the damage and every packet of the other sections,
    // and its first fault is the strict reader's error at the strict
    // offset.
    #[test]
    fn damaged_sections_fault_once_each_and_keep_the_rest(
        sections in prop::collection::vec(
            prop::collection::vec((0u64..1u64 << 40, 0u16..1600, any::<bool>()), 0..20),
            1..5,
        ),
        damage in prop::collection::vec((any::<bool>(), 0usize..64, 0usize..4), 4..5),
        chunk in 1usize..32,
    ) {
        let (mut bytes, blocks) = pcapng_bytes(&sections);
        let mut bad_blocks = Vec::new();
        let mut kept = Vec::new();
        for (i, section) in sections.iter().enumerate() {
            let (hit, pick, how) = damage[i];
            if !hit {
                kept.push(section.clone());
                continue;
            }
            let block = 1 + pick % (blocks[i].len() - 1);
            let at = blocks[i][block];
            bytes[at + 4..at + 8].copy_from_slice(&BAD_LENGTHS[how].to_le_bytes());
            bad_blocks.push(at as u64);
            // Block 1 is the IDB; packet j is block j + 2.
            kept.push(section[..block.saturating_sub(2)].to_vec());
        }

        let (pulled, pull_err, pull_fault) = pull_all(&bytes);
        let (batch, chunk_err, chunk_fault) = chunk_all(&bytes, chunk);
        prop_assert_eq!(batch, PacketBatch::from_records(&pulled));
        prop_assert_eq!(pull_fault, chunk_fault);
        prop_assert_eq!(pull_fault, bad_blocks.first().copied());
        prop_assert_eq!(format!("{pull_err:?}"), format!("{chunk_err:?}"));

        let report = read_capture_lossy(bytes.as_slice()).expect("in-memory read");
        let offsets: Vec<u64> = report.faults.iter().map(|f| f.offset).collect();
        prop_assert_eq!(&offsets, &bad_blocks);
        prop_assert!(offsets.windows(2).all(|w| w[0] < w[1]));
        let expected = read_capture(pcapng_bytes(&kept).0.as_slice()).expect("clean image");
        prop_assert_eq!(report.trace.packets(), expected.packets());

        match (read_capture(bytes.as_slice()), report.first_fault()) {
            (Ok(trace), None) => prop_assert_eq!(trace.packets(), report.trace.packets()),
            (Err(strict), Some(first)) => {
                prop_assert_eq!(format!("{strict:?}"), format!("{:?}", first.error));
                prop_assert_eq!(format!("{:?}", Some(&strict)), format!("{pull_err:?}"));
            }
            (strict, first) => panic!("strict {strict:?} but salvage's first fault {first:?}"),
        }
    }
}
