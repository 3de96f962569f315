//! Classic libpcap file format: constants, the record payload parser,
//! and the writer.
//!
//! The study's trace was captured to disk (650 MB for 24 hours); where a
//! real trace is available the workspace consumes it through the one
//! capture decoder ([`crate::CaptureStream`], [`crate::read_capture`]),
//! and the synthetic generator can export its traces for inspection in
//! standard tools (tcpdump/Wireshark), mirroring the `--pcap` facility of
//! the smoltcp examples this workspace's style follows.
//!
//! Supported: the classic (non-ng) format, microsecond and nanosecond
//! timestamp magics, both byte orders. Written files use the
//! `LINKTYPE_RAW` (101) link layer carrying a synthetic IPv4 header, so a
//! [`PacketRecord`]'s protocol, ports and network numbers survive a
//! write/read round trip even though no real payload exists.

use crate::error::TraceError;
use crate::packet::{PacketRecord, Protocol};
use crate::time::Micros;
use crate::trace::Trace;
use std::io::Write;

/// Microsecond-timestamp pcap magic.
pub(crate) const MAGIC_US: u32 = 0xa1b2_c3d4;
/// Nanosecond-timestamp pcap magic.
pub(crate) const MAGIC_NS: u32 = 0xa1b2_3c4d;
/// `LINKTYPE_RAW`: packets begin directly with an IPv4/IPv6 header.
const LINKTYPE_RAW: u32 = 101;
/// Sanity cap on record capture length: real WAN packets in this study are
/// at most 1500 bytes; 256 KiB tolerates jumbo captures while rejecting
/// corrupt headers.
pub(crate) const MAX_CAPLEN: u32 = 256 * 1024;
/// Bytes of synthetic header we write per packet: IPv4 (20) + 8 bytes of
/// transport header (enough for ports).
const WRITE_CAPLEN: usize = 28;

/// Byte order of a classic pcap stream or of one pcapng section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endian {
    Little,
    Big,
}

/// The `u16` at the start of `b`.
#[inline]
pub(crate) fn u16_at(e: Endian, b: &[u8]) -> u16 {
    let arr = [b[0], b[1]];
    match e {
        Endian::Little => u16::from_le_bytes(arr),
        Endian::Big => u16::from_be_bytes(arr),
    }
}

/// The `u32` at the start of `b`.
#[inline]
pub(crate) fn u32_at(e: Endian, b: &[u8]) -> u32 {
    let arr = [b[0], b[1], b[2], b[3]];
    match e {
        Endian::Little => u32::from_le_bytes(arr),
        Endian::Big => u32::from_be_bytes(arr),
    }
}

/// Write a trace as a classic little-endian, microsecond pcap file.
///
/// Each record carries a 28-byte synthetic `LINKTYPE_RAW` IPv4 header whose
/// total-length field is the packet's true size, so `orig_len`, protocol,
/// ports and network numbers are all recoverable by
/// [`read_capture`](crate::read_capture).
///
/// # Errors
/// Propagates I/O errors from the underlying writer.
pub fn write_pcap<W: Write>(w: W, trace: &Trace) -> Result<(), TraceError> {
    let _span = obskit::span("nettrace_pcap_write");
    let result = write_pcap_records(w, trace);
    if result.is_ok() {
        obskit::counter("nettrace_packets_written_total").add(trace.len() as u64);
    }
    result
}

fn write_pcap_records<W: Write>(mut w: W, trace: &Trace) -> Result<(), TraceError> {
    write_pcap_header(&mut w)?;
    for p in trace.iter() {
        write_pcap_record(&mut w, p)?;
    }
    Ok(())
}

/// Write the 24-byte classic pcap global header (little-endian,
/// microsecond timestamps, `LINKTYPE_RAW`).
///
/// Exposed so incremental producers (the rate-paced replay source in
/// netsynth) emit byte-identical streams to [`write_pcap`] without
/// materializing a [`Trace`].
///
/// # Errors
/// Propagates I/O errors from the underlying writer.
pub fn write_pcap_header<W: Write>(mut w: W) -> Result<(), TraceError> {
    w.write_all(&MAGIC_US.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?; // version major
    w.write_all(&4u16.to_le_bytes())?; // version minor
    w.write_all(&0i32.to_le_bytes())?; // thiszone
    w.write_all(&0u32.to_le_bytes())?; // sigfigs
    w.write_all(&(WRITE_CAPLEN as u32).to_le_bytes())?; // snaplen
    w.write_all(&LINKTYPE_RAW.to_le_bytes())?;
    Ok(())
}

/// Write one record (header + synthetic `LINKTYPE_RAW` IPv4 payload),
/// exactly as [`write_pcap`] would.
///
/// # Errors
/// Propagates I/O errors from the underlying writer.
pub fn write_pcap_record<W: Write>(mut w: W, p: &PacketRecord) -> Result<(), TraceError> {
    let ts = p.timestamp.as_u64();
    let sec = (ts / 1_000_000) as u32;
    let usec = (ts % 1_000_000) as u32;
    let caplen = WRITE_CAPLEN.min(usize::from(p.size.max(28))) as u32;
    w.write_all(&sec.to_le_bytes())?;
    w.write_all(&usec.to_le_bytes())?;
    w.write_all(&caplen.to_le_bytes())?;
    w.write_all(&u32::from(p.size).to_le_bytes())?;
    w.write_all(&synth_header(p)[..caplen as usize])?;
    Ok(())
}

/// Build the synthetic 28-byte IPv4 + transport header for a record.
fn synth_header(p: &PacketRecord) -> [u8; WRITE_CAPLEN] {
    let mut h = [0u8; WRITE_CAPLEN];
    h[0] = 0x45; // version 4, IHL 5
                 // TOS byte carries the synthetic flag bits (SYN marker); harmless to
                 // standard tools and recoverable on read, like the 10.x.x.1
                 // network-number encoding below.
    h[1] = p.flags;
    h[2..4].copy_from_slice(&p.size.to_be_bytes()); // total length
    h[8] = 64; // TTL
    h[9] = p.protocol.number();
    // Addresses: 10.<net_hi>.<net_lo>.1 — encodes the classful "network
    // number" used by the traffic-matrix objects.
    h[12] = 10;
    h[13..15].copy_from_slice(&p.src_net.to_be_bytes());
    h[15] = 1;
    h[16] = 10;
    h[17..19].copy_from_slice(&p.dst_net.to_be_bytes());
    h[19] = 1;
    // First 8 bytes of TCP/UDP header: source and destination ports,
    // then the synthetic flow id in the TCP sequence-number slot.
    h[20..22].copy_from_slice(&p.src_port.to_be_bytes());
    h[22..24].copy_from_slice(&p.dst_port.to_be_bytes());
    h[24..28].copy_from_slice(&p.flow_id.to_be_bytes());
    h
}

/// Parse a record's synthetic (or real) IPv4 header back into packet fields.
#[inline]
pub(crate) fn parse_ipv4(data: &[u8], orig_len: u32, ts: Micros) -> PacketRecord {
    let mut rec = PacketRecord::new(ts, orig_len.min(u32::from(u16::MAX)) as u16);
    if data.len() >= 20 && data[0] >> 4 == 4 {
        rec.protocol = Protocol::from_number(data[9]);
        rec.flags = data[1];
        rec.src_net = u16::from_be_bytes([data[13], data[14]]);
        rec.dst_net = u16::from_be_bytes([data[17], data[18]]);
        let ihl = usize::from(data[0] & 0x0f) * 4;
        let total_len = u16::from_be_bytes([data[2], data[3]]);
        if total_len > 0 {
            rec.size = total_len;
        }
        if matches!(rec.protocol, Protocol::Tcp | Protocol::Udp) && data.len() >= ihl + 4 {
            rec.src_port = u16::from_be_bytes([data[ihl], data[ihl + 1]]);
            rec.dst_port = u16::from_be_bytes([data[ihl + 2], data[ihl + 3]]);
        }
        if data.len() >= ihl + 8 {
            rec.flow_id =
                u32::from_be_bytes([data[ihl + 4], data[ihl + 5], data[ihl + 6], data[ihl + 7]]);
        }
    }
    rec
}

/// Classify a classic pcap magic (its 4 bytes read little-endian): byte
/// order, and whether fractional timestamps are nanoseconds.
pub(crate) fn sniff_magic(magic: u32) -> Option<(Endian, bool)> {
    match (magic, magic.swap_bytes()) {
        (MAGIC_US, _) => Some((Endian::Little, false)),
        (MAGIC_NS, _) => Some((Endian::Little, true)),
        (_, MAGIC_US) => Some((Endian::Big, false)),
        (_, MAGIC_NS) => Some((Endian::Big, true)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Protocol;
    use crate::read_capture;

    fn sample_trace() -> Trace {
        Trace::new(vec![
            PacketRecord::new(Micros(0), 40)
                .with_protocol(Protocol::Tcp)
                .with_ports(1023, 23)
                .with_nets(192, 35)
                .with_flow(7, true),
            PacketRecord::new(Micros(2358), 552)
                .with_protocol(Protocol::Udp)
                .with_ports(53, 53)
                .with_nets(16, 128)
                .with_flow(u32::MAX, false),
            PacketRecord::new(Micros(1_000_000), 1500).with_protocol(Protocol::Icmp),
        ])
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_records() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &t).unwrap();
        let back = read_capture(buf.as_slice()).unwrap();
        assert_eq!(back.len(), t.len());
        for (a, b) in t.iter().zip(back.iter()) {
            assert_eq!(a.timestamp, b.timestamp);
            assert_eq!(a.size, b.size);
            assert_eq!(a.protocol, b.protocol);
            assert_eq!(a.src_port, b.src_port);
            assert_eq!(a.dst_port, b.dst_port);
            assert_eq!(a.src_net, b.src_net);
            assert_eq!(a.dst_net, b.dst_net);
            assert_eq!(a.flow_id, b.flow_id);
            assert_eq!(a.flags, b.flags);
        }
    }

    #[test]
    fn empty_trace_roundtrip() {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &Trace::empty()).unwrap();
        assert_eq!(buf.len(), 24); // header only
        let back = read_capture(buf.as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn short_inputs_report_truncation_not_io() {
        // 0-, 1- and 3-byte streams cannot even carry the magic: the
        // reader must say "truncated", never surface a raw I/O error.
        for len in [0usize, 1, 3] {
            let bytes = vec![0xa1u8; len];
            assert!(
                matches!(
                    read_capture(bytes.as_slice()),
                    Err(TraceError::TruncatedRecord { packets_read: 0 })
                ),
                "len {len}"
            );
        }
        // A valid magic followed by a truncated global header is also a
        // truncation, not Io.
        let mut bytes = MAGIC_US.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 7]);
        assert!(matches!(
            read_capture(bytes.as_slice()),
            Err(TraceError::TruncatedRecord { packets_read: 0 })
        ));
    }

    #[test]
    fn rejects_garbage_magic() {
        let garbage = [0u8; 24];
        assert!(matches!(
            read_capture(&garbage[..]),
            Err(TraceError::BadMagic(_))
        ));
    }

    #[test]
    fn detects_truncated_record() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 5);
        match read_capture(buf.as_slice()) {
            Err(TraceError::TruncatedRecord { packets_read }) => assert_eq!(packets_read, 2),
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn detects_truncated_header() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &t).unwrap();
        // Cut into the second record's 16-byte header.
        buf.truncate(24 + 16 + WRITE_CAPLEN + 7);
        assert!(matches!(
            read_capture(buf.as_slice()),
            Err(TraceError::TruncatedRecord { packets_read: 1 })
        ));
    }

    #[test]
    fn rejects_oversized_caplen() {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &Trace::empty()).unwrap();
        // Append a record header declaring a huge caplen.
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(MAX_CAPLEN + 1).to_le_bytes());
        buf.extend_from_slice(&40u32.to_le_bytes());
        assert!(matches!(
            read_capture(buf.as_slice()),
            Err(TraceError::OversizedRecord { .. })
        ));
    }

    #[test]
    fn reads_big_endian_and_nanosecond_streams() {
        // Hand-build a big-endian, nanosecond-magic stream with one record.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_NS.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes()); // thiszone
        buf.extend_from_slice(&0u32.to_be_bytes()); // sigfigs
        buf.extend_from_slice(&65535u32.to_be_bytes()); // snaplen
        buf.extend_from_slice(&LINKTYPE_RAW.to_be_bytes());
        // record: ts = 1s + 500_000ns -> 1_000_500us
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&500_000u32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes()); // caplen 0 (headerless)
        buf.extend_from_slice(&576u32.to_be_bytes()); // orig_len
        let t = read_capture(buf.as_slice()).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.packets()[0].timestamp, Micros(1_000_500));
        assert_eq!(t.packets()[0].size, 576);
    }

    #[test]
    fn timestamp_fractions_convert_exactly() {
        // Both magics in both byte orders, at the extremes of both
        // fields: a fraction is microseconds, or nanoseconds rounded
        // down to the microsecond.
        let secs = [0u32, 1, 4_294, u32::MAX];
        let fracs = [
            0u32,
            1,
            999,
            1_000,
            999_999,
            1_000_000,
            999_999_999,
            u32::MAX,
        ];
        for (magic, nanos) in [(MAGIC_US, false), (MAGIC_NS, true)] {
            for big in [false, true] {
                let word = |v: u32| {
                    if big {
                        v.to_be_bytes()
                    } else {
                        v.to_le_bytes()
                    }
                };
                let mut buf = word(magic).to_vec();
                buf.extend_from_slice(&[0u8; 16]); // version, zone, sigfigs, snaplen
                buf.extend_from_slice(&word(LINKTYPE_RAW));
                let mut expected = Vec::new();
                for &sec in &secs {
                    for &frac in &fracs {
                        for v in [sec, frac, 0, 40] {
                            buf.extend_from_slice(&word(v));
                        }
                        let usec = if nanos { frac / 1_000 } else { frac };
                        expected.push(u64::from(sec) * 1_000_000 + u64::from(usec));
                    }
                }
                let got: Vec<u64> = crate::CaptureStream::new(buf.as_slice())
                    .unwrap()
                    .map(|p| p.unwrap().timestamp.as_u64())
                    .collect();
                assert_eq!(got, expected, "nanos {nanos}, big-endian {big}");
            }
        }
    }

    #[test]
    fn non_ipv4_payload_falls_back_to_orig_len() {
        // A record whose payload is not IPv4 (version nibble 6): parse
        // falls back to orig_len and zeroed fields.
        let mut buf = Vec::new();
        write_pcap(&mut buf, &Trace::empty()).unwrap();
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&20u32.to_le_bytes()); // caplen 20
        buf.extend_from_slice(&1280u32.to_le_bytes()); // orig_len
        let mut payload = [0u8; 20];
        payload[0] = 0x60; // IPv6 version nibble
        buf.extend_from_slice(&payload);
        let t = read_capture(buf.as_slice()).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.packets()[0].size, 1280);
        assert_eq!(t.packets()[0].src_port, 0);
    }

    #[test]
    fn short_caplen_record_keeps_protocol_but_not_ports() {
        // caplen 20: the IPv4 header fits but the transport header does
        // not; protocol and nets parse, ports stay zero.
        let t = Trace::new(vec![PacketRecord::new(Micros(0), 40)
            .with_protocol(Protocol::Tcp)
            .with_ports(1024, 23)
            .with_nets(5, 9)])
        .unwrap();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &t).unwrap();
        // Rewrite the record's caplen from 28 to 20 and drop 8 bytes.
        let rec_hdr = 24;
        buf[rec_hdr + 8..rec_hdr + 12].copy_from_slice(&20u32.to_le_bytes());
        buf.truncate(rec_hdr + 16 + 20);
        let back = read_capture(buf.as_slice()).unwrap();
        let p = back.packets()[0];
        assert_eq!(p.protocol, Protocol::Tcp);
        assert_eq!((p.src_net, p.dst_net), (5, 9));
        assert_eq!((p.src_port, p.dst_port), (0, 0));
    }

    #[test]
    fn zero_total_length_field_uses_orig_len() {
        // A capture tool that zeroes the IPv4 total-length field: the
        // record header's orig_len wins.
        let t = Trace::new(vec![PacketRecord::new(Micros(0), 576)]).unwrap();
        let mut buf = Vec::new();
        write_pcap(&mut buf, &t).unwrap();
        // Zero the total-length bytes inside the synthetic IPv4 header.
        let data_start = 24 + 16;
        buf[data_start + 2] = 0;
        buf[data_start + 3] = 0;
        let back = read_capture(buf.as_slice()).unwrap();
        assert_eq!(back.packets()[0].size, 576);
    }

    #[test]
    fn out_of_order_capture_is_sorted() {
        // Little-endian us stream with two records out of order.
        let mut buf = Vec::new();
        write_pcap(&mut buf, &Trace::empty()).unwrap();
        for (sec, usec) in [(5u32, 0u32), (1, 0)] {
            buf.extend_from_slice(&sec.to_le_bytes());
            buf.extend_from_slice(&usec.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            buf.extend_from_slice(&40u32.to_le_bytes());
        }
        let t = read_capture(buf.as_slice()).unwrap();
        assert_eq!(t.packets()[0].timestamp, Micros(1_000_000));
        assert_eq!(t.packets()[1].timestamp, Micros(5_000_000));
    }
}
