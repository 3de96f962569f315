//! pcapng (pcap-next-generation) format: block constants and the block
//! body parsers.
//!
//! Modern capture tools default to pcapng; a workspace claiming "run the
//! paper's analysis on your own captures" has to read it. The capture
//! decoder ([`crate::CaptureStream`]) handles Section Header Blocks (both
//! byte orders), Interface Description Blocks (per-interface timestamp
//! resolution via `if_tsresol`), Enhanced Packet Blocks, and Simple
//! Packet Blocks; every other block type is skipped by length. Writing
//! stays classic pcap ([`crate::pcap::write_pcap`]) — universally
//! readable.

use crate::packet::PacketRecord;
use crate::pcap::{parse_ipv4, u16_at, u32_at, Endian};
use crate::time::Micros;

/// Section Header Block type.
pub(crate) const SHB_TYPE: u32 = 0x0A0D_0D0A;
/// Byte-order magic inside the SHB body.
pub(crate) const BOM: u32 = 0x1A2B_3C4D;
/// Interface Description Block.
pub(crate) const IDB_TYPE: u32 = 0x0000_0001;
/// Enhanced Packet Block.
pub(crate) const EPB_TYPE: u32 = 0x0000_0006;
/// Simple Packet Block.
pub(crate) const SPB_TYPE: u32 = 0x0000_0003;
/// Sanity cap on a single block's length.
pub(crate) const MAX_BLOCK: u32 = 16 * 1024 * 1024;

/// Per-interface decoding state: how the interface's timestamp ticks
/// become microseconds, chosen once, when its Interface Description
/// Block is read.
///
/// Both variants give exactly `(ticks * 10^6 / ticks_per_sec) as u64`
/// computed in 128 bits. A resolution whose tick is a whole number of
/// microseconds (10^-k s for k ≤ 6, 2^-k s for k ≤ 6) is a multiply;
/// every other one, all those finer than a microsecond included,
/// divides in 128 bits.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Interface {
    /// A tick is this many microseconds: 1 at the default resolution.
    /// The product wraps past `u64::MAX`, as the cast quotient does.
    TickMicros(u64),
    /// Ticks per second, for any other resolution.
    TicksPerSec(u64),
}

impl Default for Interface {
    fn default() -> Self {
        // pcapng default resolution: microseconds.
        Interface::TickMicros(1)
    }
}

impl Interface {
    /// The conversion for an interface whose `if_tsresol` is `v`.
    fn from_tsresol(v: u8) -> Self {
        const MICROS: u64 = 1_000_000;
        let ticks_per_sec = ticks_per_sec_from_tsresol(v);
        if MICROS.is_multiple_of(ticks_per_sec) {
            Interface::TickMicros(MICROS / ticks_per_sec)
        } else {
            Interface::TicksPerSec(ticks_per_sec)
        }
    }

    /// `ticks` of this interface's clock, in microseconds.
    #[inline]
    fn micros(self, ticks: u64) -> u64 {
        match self {
            Interface::TickMicros(m) => ticks.wrapping_mul(m),
            Interface::TicksPerSec(tps) => (u128::from(ticks) * 1_000_000 / u128::from(tps)) as u64,
        }
    }
}

/// Parse `if_tsresol` (option code 9): value `v` means 10^-v seconds,
/// or 2^-(v & 0x7f) if the MSB is set.
pub(crate) fn ticks_per_sec_from_tsresol(v: u8) -> u64 {
    if v & 0x80 != 0 {
        1u64 << (v & 0x7f).min(63)
    } else {
        10u64.pow(u32::from(v).min(19))
    }
}

/// Decode an Interface Description Block body (`None` if too short to
/// carry the fixed linktype/snaplen prefix).
pub(crate) fn parse_idb(endian: Endian, body: &[u8]) -> Option<Interface> {
    if body.len() < 8 {
        return None;
    }
    let mut iface = Interface::default();
    // Options start at offset 8 (linktype u16, reserved u16, snaplen u32).
    let mut o = 8usize;
    while o + 4 <= body.len() {
        let code = u16_at(endian, &body[o..]);
        let len = u16_at(endian, &body[o + 2..]) as usize;
        o += 4;
        if code == 0 {
            break; // opt_endofopt
        }
        if o + len > body.len() {
            break;
        }
        if code == 9 && len >= 1 {
            iface = Interface::from_tsresol(body[o]);
        }
        o += len.div_ceil(4) * 4; // options pad to 32 bits
    }
    Some(iface)
}

/// Decode an Enhanced Packet Block body into a record (`None` if too
/// short for the fixed header).
#[inline]
pub(crate) fn parse_epb(
    endian: Endian,
    body: &[u8],
    interfaces: &[Interface],
) -> Option<PacketRecord> {
    if body.len() < 20 {
        return None;
    }
    let iface_id = u32_at(endian, &body[0..]) as usize;
    let ts_high = u64::from(u32_at(endian, &body[4..]));
    let ts_low = u64::from(u32_at(endian, &body[8..]));
    let caplen = u32_at(endian, &body[12..]) as usize;
    let orig_len = u32_at(endian, &body[16..]);
    let ticks = (ts_high << 32) | ts_low;
    let iface = interfaces.get(iface_id).copied().unwrap_or_default();
    let micros = iface.micros(ticks);
    let data_end = (20 + caplen).min(body.len());
    let data = &body[20..data_end];
    Some(parse_ipv4(data, orig_len, Micros(micros)))
}

/// Decode a Simple Packet Block body into a record at timestamp `ts`
/// (`None` if too short for the original-length field).
#[inline]
pub(crate) fn parse_spb(endian: Endian, body: &[u8], ts: Micros) -> Option<PacketRecord> {
    if body.len() < 4 {
        return None;
    }
    let orig_len = u32_at(endian, &body[0..]);
    Some(parse_ipv4(&body[4..], orig_len, ts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Protocol;
    use crate::read_capture;
    use crate::trace::Trace;
    use crate::TraceError;

    /// Build a minimal little-endian pcapng stream.
    struct Builder {
        buf: Vec<u8>,
    }

    impl Builder {
        fn new() -> Self {
            let mut b = Builder { buf: Vec::new() };
            // SHB: type, len 28, BOM, version 1.0, section len -1.
            b.block(SHB_TYPE, &{
                let mut body = Vec::new();
                body.extend_from_slice(&BOM.to_le_bytes());
                body.extend_from_slice(&1u16.to_le_bytes());
                body.extend_from_slice(&0u16.to_le_bytes());
                body.extend_from_slice(&(-1i64).to_le_bytes());
                body
            });
            b
        }

        fn block(&mut self, btype: u32, body: &[u8]) {
            let total = 12 + body.len() as u32;
            self.buf.extend_from_slice(&btype.to_le_bytes());
            self.buf.extend_from_slice(&total.to_le_bytes());
            self.buf.extend_from_slice(body);
            self.buf.extend_from_slice(&total.to_le_bytes());
        }

        fn idb(&mut self, tsresol: Option<u8>) {
            let mut body = Vec::new();
            body.extend_from_slice(&101u16.to_le_bytes()); // linktype raw
            body.extend_from_slice(&0u16.to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes()); // snaplen
            if let Some(v) = tsresol {
                body.extend_from_slice(&9u16.to_le_bytes());
                body.extend_from_slice(&1u16.to_le_bytes());
                body.push(v);
                body.extend_from_slice(&[0, 0, 0]); // pad
                body.extend_from_slice(&0u16.to_le_bytes()); // endofopt
                body.extend_from_slice(&0u16.to_le_bytes());
            }
            self.block(IDB_TYPE, &body);
        }

        fn epb(&mut self, iface: u32, ticks: u64, payload: &[u8], orig_len: u32) {
            let mut body = Vec::new();
            body.extend_from_slice(&iface.to_le_bytes());
            body.extend_from_slice(&((ticks >> 32) as u32).to_le_bytes());
            body.extend_from_slice(&((ticks & 0xffff_ffff) as u32).to_le_bytes());
            body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            body.extend_from_slice(&orig_len.to_le_bytes());
            body.extend_from_slice(payload);
            while body.len() % 4 != 0 {
                body.push(0);
            }
            self.block(EPB_TYPE, &body);
        }
    }

    /// A synthetic IPv4+TCP header like the classic writer's.
    fn ipv4_payload(size: u16, proto: u8, sport: u16, dport: u16) -> Vec<u8> {
        let mut h = vec![0u8; 28];
        h[0] = 0x45;
        h[2..4].copy_from_slice(&size.to_be_bytes());
        h[9] = proto;
        h[12] = 10;
        h[16] = 10;
        h[20..22].copy_from_slice(&sport.to_be_bytes());
        h[22..24].copy_from_slice(&dport.to_be_bytes());
        h
    }

    #[test]
    fn reads_epb_with_default_microsecond_resolution() {
        let mut b = Builder::new();
        b.idb(None);
        b.epb(0, 1_500_000, &ipv4_payload(552, 6, 1024, 20), 552);
        b.epb(0, 2_500_000, &ipv4_payload(40, 17, 53, 53), 40);
        let t = read_capture(b.buf.as_slice()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.packets()[0].timestamp, Micros(1_500_000));
        assert_eq!(t.packets()[0].size, 552);
        assert_eq!(t.packets()[0].protocol, Protocol::Tcp);
        assert_eq!(t.packets()[0].dst_port, 20);
        assert_eq!(t.packets()[1].protocol, Protocol::Udp);
    }

    #[test]
    fn honors_nanosecond_tsresol() {
        let mut b = Builder::new();
        b.idb(Some(9)); // 10^-9: nanoseconds
        b.epb(0, 3_000_000_000, &ipv4_payload(100, 6, 1, 2), 100);
        let t = read_capture(b.buf.as_slice()).unwrap();
        assert_eq!(t.packets()[0].timestamp, Micros(3_000_000));
    }

    #[test]
    fn honors_power_of_two_tsresol() {
        let mut b = Builder::new();
        b.idb(Some(0x80 | 10)); // 2^-10 ~ 1024 ticks/sec
        b.epb(0, 2048, &ipv4_payload(100, 6, 1, 2), 100);
        let t = read_capture(b.buf.as_slice()).unwrap();
        // 2048 ticks at 1024/s = 2 s.
        assert_eq!(t.packets()[0].timestamp, Micros(2_000_000));
    }

    #[test]
    fn every_tsresol_converts_ticks_exactly() {
        // One interface per `if_tsresol` byte: 10^0..10^19, the decimal
        // bytes past 19 (clamped to 10^19), 2^0..2^63 and the binary
        // bytes past 63 (clamped to 2^63); then one with no option and
        // an interface id no IDB describes (both microseconds).
        let resolutions: Vec<Option<u8>> = (0..=u8::MAX).map(Some).chain([None]).collect();
        let ticks = [
            0,
            1,
            999_999,
            (1 << 32) - 1,
            1 << 32,
            u64::MAX / 1_000_000 + 1, // ticks * 10^6 passes 2^64
            u64::MAX,
        ];
        let mut b = Builder::new();
        for &v in &resolutions {
            b.idb(v);
        }
        let mut expected = Vec::new();
        for (iface, v) in resolutions.iter().chain([&None]).enumerate() {
            let tps = v.map_or(1_000_000, ticks_per_sec_from_tsresol);
            for &t in &ticks {
                b.epb(iface as u32, t, &[], 40);
                expected.push((u128::from(t) * 1_000_000 / u128::from(tps)) as u64);
            }
        }
        let got: Vec<u64> = crate::CaptureStream::new(b.buf.as_slice())
            .unwrap()
            .map(|p| p.unwrap().timestamp.as_u64())
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn multi_interface_resolutions() {
        let mut b = Builder::new();
        b.idb(None); // iface 0: us
        b.idb(Some(3)); // iface 1: ms
        b.epb(0, 5_000_000, &ipv4_payload(40, 6, 1, 2), 40);
        b.epb(1, 2_000, &ipv4_payload(40, 6, 1, 2), 40); // 2000 ms = 2 s
        let t = read_capture(b.buf.as_slice()).unwrap();
        let ts: Vec<u64> = t.iter().map(|p| p.timestamp.as_u64()).collect();
        assert_eq!(ts, vec![2_000_000, 5_000_000]); // sorted
    }

    #[test]
    fn unknown_blocks_are_skipped() {
        let mut b = Builder::new();
        b.idb(None);
        b.block(0x0000_0BAD, &[1, 2, 3, 4, 5, 6, 7, 8]);
        b.epb(0, 1, &ipv4_payload(40, 6, 1, 2), 40);
        let t = read_capture(b.buf.as_slice()).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn short_inputs_report_truncation_not_io() {
        // Prefixes of a valid capture shorter than its SHB are truncated
        // captures, never raw I/O errors — and never an empty trace: a
        // pcapng stream must open with a full SHB.
        let valid = Builder::new().buf;
        for len in [0usize, 1, 3, 4, 11, 27] {
            assert!(
                matches!(
                    read_capture(&valid[..len]),
                    Err(TraceError::TruncatedRecord { packets_read: 0 })
                ),
                "read_capture len {len}"
            );
        }
    }

    #[test]
    fn rejects_non_pcapng() {
        let garbage = [0xffu8; 64];
        assert!(matches!(
            read_capture(&garbage[..]),
            Err(TraceError::BadMagic(_))
        ));
    }

    #[test]
    fn detects_truncation() {
        let mut b = Builder::new();
        b.idb(None);
        b.epb(0, 1, &ipv4_payload(40, 6, 1, 2), 40);
        let mut buf = b.buf;
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_capture(buf.as_slice()),
            Err(TraceError::TruncatedRecord { .. })
        ));
    }

    #[test]
    fn read_capture_sniffs_both_formats() {
        // pcapng stream:
        let mut b = Builder::new();
        b.idb(None);
        b.epb(0, 7, &ipv4_payload(40, 6, 1, 2), 40);
        let t = read_capture(b.buf.as_slice()).unwrap();
        assert_eq!(t.len(), 1);
        // classic pcap stream:
        let classic = {
            let trace = Trace::new(vec![PacketRecord::new(Micros(9), 40)]).unwrap();
            let mut buf = Vec::new();
            crate::pcap::write_pcap(&mut buf, &trace).unwrap();
            buf
        };
        let t = read_capture(classic.as_slice()).unwrap();
        assert_eq!(t.len(), 1);
        // garbage:
        assert!(read_capture(&[0u8; 32][..]).is_err());
    }
}
