//! Lossy capture ingestion: keep every packet the damage did not reach.
//!
//! The strict reader ([`crate::read_capture`]) rejects a capture at the
//! first malformed byte — the right default for experiments, where a
//! silent partial read would bias every downstream statistic. But real
//! capture files are routinely truncated (full disk, killed tcpdump) and
//! a 649 MB trace with one bad record tail is still 649 MB of usable
//! population. [`read_capture_lossy`] parses as far as the bytes allow
//! and reports exactly what it could and could not use: packets
//! salvaged, bytes consumed, and every fault with its byte offset.
//!
//! pcapng goes further than prefix salvage: the format is a sequence of
//! self-delimiting sections, each introduced by a Section Header Block,
//! so a corrupt block in section 1 need not cost the sections after it.
//! On an undecodable block the salvager records the fault, scans
//! forward for the next plausible SHB (magic, valid byte-order mark,
//! sane and fully contained block length), and resumes there — one
//! fault entry per damaged region. Classic pcap has no such resync
//! marker (records are not self-delimiting once a length field is
//! corrupt), so pcap salvage remains longest-valid-prefix with at most
//! one fault.
//!
//! Strict reading and salvage are the same decoder
//! ([`CaptureStream`]) under two loops: the strict one stops at the
//! first fault, this one records it and lets the decoder resume. On a
//! fully valid stream the salvaged trace is identical to the strict
//! read, and the first fault is always the strict reader's error.

use crate::error::TraceError;
use crate::stream::CaptureStream;
use crate::trace::Trace;
use std::io::Read;

/// Outcome of a lossy capture read: the salvaged prefix plus a precise
/// account of where (and why) parsing stopped.
#[derive(Debug)]
pub struct IngestReport {
    /// Packets recovered from the valid prefix, sorted by timestamp.
    pub trace: Trace,
    /// Capture format the stream sniffed as: `"pcap"`, `"pcapng"`, or
    /// `"unknown"` when even the magic could not be classified.
    pub format: &'static str,
    /// Bytes of the stream that parsed into complete structures. On a
    /// fully valid stream this equals `bytes_total`; garbage skipped
    /// while resynchronizing to a later pcapng section is excluded.
    pub bytes_consumed: u64,
    /// Total bytes in the stream.
    pub bytes_total: u64,
    /// Number of packets salvaged (equals `trace.len()`).
    pub packets_salvaged: usize,
    /// Every parse failure, in stream order: the byte offset of the
    /// structure that could not be decoded, and the typed error. For
    /// pcap at most one entry (no resync marker); for pcapng one entry
    /// per damaged region the salvager skipped.
    pub faults: Vec<IngestFault>,
}

impl IngestReport {
    /// Whether the whole stream parsed cleanly (the strict reader
    /// would have accepted it).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
    }

    /// The earliest fault, if any.
    #[must_use]
    pub fn first_fault(&self) -> Option<&IngestFault> {
        self.faults.first()
    }
}

/// A parse failure localized to a byte offset.
#[derive(Debug)]
pub struct IngestFault {
    /// Offset of the record or block that failed to decode.
    pub offset: u64,
    /// Why it failed. Never [`TraceError::Io`]: a failing reader ends
    /// the read with an `Err` instead.
    pub error: TraceError,
}

/// Read a capture stream leniently, salvaging every packet the damage
/// did not reach. Sniffs classic pcap vs pcapng exactly like
/// [`crate::read_capture`], and reads the stream once, without holding
/// it in memory.
///
/// # Errors
/// Only [`TraceError::Io`], when the reader fails. Malformed bytes are
/// never an `Err`: they end up in [`IngestReport::faults`].
pub fn read_capture_lossy<R: Read>(reader: R) -> Result<IngestReport, TraceError> {
    let _span = obskit::span("nettrace_lossy_read");
    let mut stream = CaptureStream::open(reader);
    let mut packets = Vec::new();
    let mut faults = Vec::new();
    loop {
        match stream.next_packet() {
            Ok(Some(p)) => packets.push(p),
            Ok(None) => break,
            Err(error @ TraceError::Io(_)) => return Err(error),
            Err(error) => faults.push(IngestFault {
                offset: stream.fault_offset().unwrap_or_default(),
                error,
            }),
        }
    }
    let trace = Trace::from_unordered(packets);
    let report = IngestReport {
        packets_salvaged: trace.len(),
        trace,
        format: stream.format(),
        bytes_consumed: stream.byte_offset(),
        bytes_total: stream.bytes_read(),
        faults,
    };
    let labels = [("format", report.format)];
    obskit::counter_labeled("nettrace_lossy_packets_salvaged_total", &labels)
        .add(report.packets_salvaged as u64);
    if !report.is_clean() {
        obskit::counter_labeled("nettrace_lossy_faults_total", &labels)
            .add(report.faults.len() as u64);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketRecord, Protocol};
    use crate::pcap::write_pcap;
    use crate::pcapng;
    use crate::read_capture;
    use crate::time::Micros;

    fn salvage(bytes: &[u8]) -> IngestReport {
        read_capture_lossy(bytes).expect("in-memory read")
    }

    fn sample_trace() -> Trace {
        Trace::new(vec![
            PacketRecord::new(Micros(0), 40)
                .with_protocol(Protocol::Tcp)
                .with_ports(1023, 23),
            PacketRecord::new(Micros(2358), 552).with_protocol(Protocol::Udp),
            PacketRecord::new(Micros(1_000_000), 1500).with_protocol(Protocol::Icmp),
        ])
        .unwrap()
    }

    fn pcap_bytes() -> Vec<u8> {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &sample_trace()).unwrap();
        buf
    }

    #[test]
    fn clean_stream_matches_strict_reader() {
        let buf = pcap_bytes();
        let strict = read_capture(buf.as_slice()).unwrap();
        let r = read_capture_lossy(buf.as_slice()).unwrap();
        assert!(r.is_clean());
        assert_eq!(r.format, "pcap");
        assert_eq!(r.bytes_consumed, buf.len() as u64);
        assert_eq!(r.bytes_total, buf.len() as u64);
        assert_eq!(r.packets_salvaged, strict.len());
        assert_eq!(r.trace.packets(), strict.packets());
    }

    #[test]
    fn salvages_valid_prefix_at_every_truncation_point() {
        let buf = pcap_bytes();
        // Record boundaries: 24-byte header, then 16 + 28 bytes each.
        let rec = 16 + 28;
        for cut in 0..buf.len() {
            let r = salvage(&buf[..cut]);
            let full_records = cut.saturating_sub(24) / rec;
            assert_eq!(r.packets_salvaged, full_records, "cut {cut}");
            assert_eq!(r.bytes_total, cut as u64, "cut {cut}");
            if cut >= 24 {
                assert_eq!(
                    r.bytes_consumed,
                    (24 + full_records * rec) as u64,
                    "cut {cut}"
                );
            }
            // A cut stream is clean only when it ends exactly on a
            // record boundary (including the bare 24-byte header).
            let on_boundary = cut >= 24 && (cut - 24) % rec == 0;
            assert_eq!(r.is_clean(), on_boundary, "cut {cut}");
            if let Some(fault) = r.first_fault() {
                assert!(fault.offset <= cut as u64, "cut {cut}");
            }
        }
    }

    /// Hand-build a little-endian pcapng stream: SHB, IDB, two EPBs
    /// with 28-byte payloads. Returns the bytes and each block's start
    /// offset.
    fn pcapng_bytes() -> (Vec<u8>, Vec<usize>) {
        let mut buf = Vec::new();
        let mut starts = Vec::new();
        let block = |buf: &mut Vec<u8>, btype: u32, body: &[u8]| {
            let total = 12 + body.len() as u32;
            buf.extend_from_slice(&btype.to_le_bytes());
            buf.extend_from_slice(&total.to_le_bytes());
            buf.extend_from_slice(body);
            buf.extend_from_slice(&total.to_le_bytes());
        };
        starts.push(buf.len());
        let mut shb = Vec::new();
        shb.extend_from_slice(&pcapng::BOM.to_le_bytes());
        shb.extend_from_slice(&1u16.to_le_bytes());
        shb.extend_from_slice(&0u16.to_le_bytes());
        shb.extend_from_slice(&(-1i64).to_le_bytes());
        block(&mut buf, pcapng::SHB_TYPE, &shb);
        starts.push(buf.len());
        let mut idb = Vec::new();
        idb.extend_from_slice(&101u16.to_le_bytes());
        idb.extend_from_slice(&0u16.to_le_bytes());
        idb.extend_from_slice(&0u32.to_le_bytes());
        block(&mut buf, pcapng::IDB_TYPE, &idb);
        for ticks in [1_000u64, 2_000] {
            starts.push(buf.len());
            let mut epb = Vec::new();
            epb.extend_from_slice(&0u32.to_le_bytes());
            epb.extend_from_slice(&((ticks >> 32) as u32).to_le_bytes());
            epb.extend_from_slice(&((ticks & 0xffff_ffff) as u32).to_le_bytes());
            epb.extend_from_slice(&28u32.to_le_bytes());
            epb.extend_from_slice(&40u32.to_le_bytes());
            epb.extend_from_slice(&[0u8; 28]);
            block(&mut buf, pcapng::EPB_TYPE, &epb);
        }
        starts.push(buf.len());
        (buf, starts)
    }

    #[test]
    fn pcapng_truncation_sweep_salvages_complete_blocks() {
        let (buf, starts) = pcapng_bytes();
        let strict = read_capture(buf.as_slice()).unwrap();
        assert_eq!(strict.len(), 2);
        for cut in 0..=buf.len() {
            let r = salvage(&buf[..cut]);
            // Packets salvaged = EPBs wholly inside the prefix: EPB 1
            // spans starts[2]..starts[3], EPB 2 spans starts[3]..starts[4].
            let expect = [starts[3], starts[4]].iter().filter(|&&e| cut >= e).count();
            assert_eq!(r.packets_salvaged, expect, "cut {cut}");
            let consumed = starts.iter().rev().find(|&&s| s <= cut).copied().unwrap();
            assert_eq!(r.bytes_consumed, consumed as u64, "cut {cut}");
            assert_eq!(
                r.is_clean(),
                cut == consumed && cut >= starts[1],
                "cut {cut}"
            );
        }
        // The full stream matches the strict reader exactly.
        let r = salvage(&buf);
        assert_eq!(r.trace.packets(), strict.packets());
    }

    #[test]
    fn corrupt_length_field_cannot_drive_allocation() {
        let mut buf = pcap_bytes();
        // Corrupt the second record's caplen to u32::MAX.
        let off = 24 + (16 + 28) + 8;
        buf[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let r = salvage(&buf);
        assert_eq!(r.packets_salvaged, 1);
        assert_eq!(r.faults.len(), 1, "pcap has no resync marker");
        let fault = r.first_fault().expect("fault");
        assert_eq!(fault.offset, 24 + (16 + 28) as u64);
        assert!(matches!(
            fault.error,
            TraceError::OversizedRecord { caplen: u32::MAX }
        ));
    }

    #[test]
    fn garbage_reports_bad_magic_at_offset_zero() {
        let r = salvage(&[0xffu8; 64]);
        assert_eq!(r.packets_salvaged, 0);
        assert_eq!(r.format, "unknown");
        let fault = r.first_fault().expect("fault");
        assert_eq!(fault.offset, 0);
        assert!(matches!(fault.error, TraceError::BadMagic(_)));
    }

    #[test]
    fn short_inputs_salvage_nothing_without_panicking() {
        for len in [0usize, 1, 3] {
            let r = salvage(&vec![0xa1u8; len]);
            assert_eq!(r.packets_salvaged, 0);
            assert!(!r.is_clean());
        }
    }

    /// One complete pcapng section (SHB + IDB + `n` EPBs) with
    /// microsecond timestamps starting at `base_us`.
    fn pcapng_section(base_us: u64, n: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let block = |buf: &mut Vec<u8>, btype: u32, body: &[u8]| {
            let total = 12 + body.len() as u32;
            buf.extend_from_slice(&btype.to_le_bytes());
            buf.extend_from_slice(&total.to_le_bytes());
            buf.extend_from_slice(body);
            buf.extend_from_slice(&total.to_le_bytes());
        };
        let mut shb = Vec::new();
        shb.extend_from_slice(&pcapng::BOM.to_le_bytes());
        shb.extend_from_slice(&1u16.to_le_bytes());
        shb.extend_from_slice(&0u16.to_le_bytes());
        shb.extend_from_slice(&(-1i64).to_le_bytes());
        block(&mut buf, pcapng::SHB_TYPE, &shb);
        let mut idb = Vec::new();
        idb.extend_from_slice(&101u16.to_le_bytes());
        idb.extend_from_slice(&0u16.to_le_bytes());
        idb.extend_from_slice(&0u32.to_le_bytes());
        block(&mut buf, pcapng::IDB_TYPE, &idb);
        for i in 0..n {
            let ticks = base_us + i as u64 * 100;
            let mut epb = Vec::new();
            epb.extend_from_slice(&0u32.to_le_bytes());
            epb.extend_from_slice(&((ticks >> 32) as u32).to_le_bytes());
            epb.extend_from_slice(&((ticks & 0xffff_ffff) as u32).to_le_bytes());
            epb.extend_from_slice(&28u32.to_le_bytes());
            epb.extend_from_slice(&40u32.to_le_bytes());
            epb.extend_from_slice(&[0u8; 28]);
            block(&mut buf, pcapng::EPB_TYPE, &epb);
        }
        buf
    }

    #[test]
    fn pcapng_resyncs_to_the_next_section_across_garbage() {
        let s1 = pcapng_section(1_000, 2);
        let s2 = pcapng_section(9_000, 3);
        let garbage = [0x5au8; 33];
        let mut buf = s1.clone();
        let fault_at = buf.len();
        buf.extend_from_slice(&garbage);
        let resume_at = buf.len();
        buf.extend_from_slice(&s2);

        let r = salvage(&buf);
        assert_eq!(r.packets_salvaged, 5, "both sections salvaged");
        assert_eq!(r.faults.len(), 1, "one fault per damaged region");
        let fault = r.first_fault().unwrap();
        assert_eq!(fault.offset, fault_at as u64);
        // Skipped garbage is not "consumed".
        assert_eq!(r.bytes_consumed, (buf.len() - garbage.len()) as u64);
        assert!(resume_at > fault_at);
    }

    #[test]
    fn pcapng_reports_one_fault_per_damaged_region() {
        // Three sections, two independently damaged gaps between them.
        let mut buf = pcapng_section(0, 1);
        buf.extend_from_slice(&[0xde; 8]);
        buf.extend_from_slice(&pcapng_section(5_000, 1));
        buf.extend_from_slice(&[0xad; 21]);
        buf.extend_from_slice(&pcapng_section(9_000, 2));
        let r = salvage(&buf);
        assert_eq!(r.packets_salvaged, 4);
        assert_eq!(r.faults.len(), 2);
        assert!(r.faults[0].offset < r.faults[1].offset);
    }

    #[test]
    fn implausible_shb_magic_in_garbage_does_not_resync() {
        // A bare SHB magic with a bad byte-order mark must be skipped
        // by the resync scan, not treated as a section start.
        let mut buf = pcapng_section(0, 1);
        buf.extend_from_slice(&pcapng::SHB_TYPE.to_le_bytes());
        buf.extend_from_slice(&28u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 20]); // bad BOM, filler
        let r = salvage(&buf);
        assert_eq!(r.packets_salvaged, 1);
        // Two faults seen from the same damaged tail is fine; what
        // matters is no packets were invented and offsets ascend.
        assert!(!r.is_clean());
        for pair in r.faults.windows(2) {
            assert!(pair[0].offset < pair[1].offset);
        }
    }

    #[test]
    fn corrupt_block_length_inside_a_section_resumes_at_next_shb() {
        let mut buf = pcapng_section(0, 2);
        let s2_start;
        {
            // Corrupt the *second* EPB's total_len to an oversize value.
            // Block layout: SHB (28) + IDB (20) + EPB (60) + EPB (60).
            let off = 28 + 20 + 60 + 4;
            buf[off..off + 4].copy_from_slice(&(pcapng::MAX_BLOCK + 4).to_le_bytes());
            s2_start = buf.len();
        }
        buf.extend_from_slice(&pcapng_section(7_000, 2));
        let r = salvage(&buf);
        // Packet 1 from section 1 survives, the corrupt EPB is lost,
        // and both packets of section 2 are recovered.
        assert_eq!(r.packets_salvaged, 3);
        assert_eq!(r.faults.len(), 1);
        assert_eq!(r.faults[0].offset, (28 + 20 + 60) as u64);
        assert!(matches!(
            r.faults[0].error,
            TraceError::OversizedRecord { .. }
        ));
        assert!(s2_start > 0);
        // Every salvaged packet is wholly from a valid block.
        let ts: Vec<u64> = r
            .trace
            .packets()
            .iter()
            .map(|p| p.timestamp.as_u64())
            .collect();
        assert_eq!(ts, vec![0, 7_000, 7_100]);
    }

    #[test]
    fn clean_multi_section_stream_matches_strict_and_stays_clean() {
        // Multiple sections are *valid* pcapng; resync must not fire.
        let mut buf = pcapng_section(0, 2);
        buf.extend_from_slice(&pcapng_section(5_000, 2));
        let strict = read_capture(buf.as_slice()).unwrap();
        let r = salvage(&buf);
        assert!(r.is_clean());
        assert_eq!(r.bytes_consumed, buf.len() as u64);
        assert_eq!(r.trace.packets(), strict.packets());
        assert_eq!(r.packets_salvaged, 4);
    }
}
