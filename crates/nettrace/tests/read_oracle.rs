//! The whole-capture readers against a plain reference: for every
//! capture shape below, `read_capture` equals `Trace::from_unordered`
//! of the file-order `CaptureStream` pull, and `read_capture_lossy` on
//! a copy with one damaged block equals the strict reads of the clean
//! sections plus the damaged section's packets before its fault.
//!
//! The shapes are the ways a capture leaves file order: sections that
//! restart their clocks, a millisecond interface interleaved with a
//! microsecond one, packets arriving a few or many positions late
//! (also where a reader that collects packets in power-of-two blocks
//! would start a new block), dozens of sections whose clocks restart
//! and thousands (more runs than the reader merges at once), equal
//! stamps within and across sections, the extreme stamps, and captures
//! with no packet or one.

use nettrace::{read_capture, read_capture_lossy, CaptureStream, PacketRecord, Trace};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

// pcapng block constants (the on-wire format, not crate internals).
const SHB: u32 = 0x0A0D_0D0A;
const BOM: u32 = 0x1A2B_3C4D;
const IDB: u32 = 1;
const EPB: u32 = 6;

/// The microsecond interface of every section.
const US: u32 = 0;
/// The millisecond interface of every section.
const MS: u32 = 1;

/// A packet of a test capture: its interface and timestamp ticks.
type Pkt = (u32, u64);

fn block(buf: &mut Vec<u8>, btype: u32, body: &[u8]) {
    let total = 12 + body.len() as u32;
    buf.extend_from_slice(&btype.to_le_bytes());
    buf.extend_from_slice(&total.to_le_bytes());
    buf.extend_from_slice(body);
    buf.extend_from_slice(&total.to_le_bytes());
}

/// One pcapng section: SHB, a microsecond and a millisecond IDB, then
/// one EPB per packet. Each packet carries a synthetic IPv4 header
/// whose flow id is `first_id` plus its index, so packets with equal
/// stamps stay told apart. Also returns each EPB's offset.
fn section(packets: &[Pkt], first_id: u32) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut shb = Vec::new();
    shb.extend_from_slice(&BOM.to_le_bytes());
    shb.extend_from_slice(&1u16.to_le_bytes());
    shb.extend_from_slice(&0u16.to_le_bytes());
    shb.extend_from_slice(&(-1i64).to_le_bytes());
    block(&mut buf, SHB, &shb);
    for tsresol in [None, Some(3u8)] {
        let mut idb = Vec::new();
        idb.extend_from_slice(&101u16.to_le_bytes()); // linktype raw
        idb.extend_from_slice(&0u16.to_le_bytes());
        idb.extend_from_slice(&0u32.to_le_bytes()); // snaplen
        if let Some(exp) = tsresol {
            idb.extend_from_slice(&9u16.to_le_bytes()); // if_tsresol
            idb.extend_from_slice(&1u16.to_le_bytes());
            idb.extend_from_slice(&[exp, 0, 0, 0]);
            idb.extend_from_slice(&0u32.to_le_bytes()); // endofopt
        }
        block(&mut buf, IDB, &idb);
    }
    let mut epbs = Vec::new();
    for (i, &(iface, ticks)) in packets.iter().enumerate() {
        let id = first_id + i as u32;
        let size = 40 + (id % 1_400) as u16;
        let mut ip = [0u8; 28];
        ip[0] = 0x45;
        ip[2..4].copy_from_slice(&size.to_be_bytes());
        ip[9] = 17;
        ip[24..28].copy_from_slice(&id.to_be_bytes());
        let mut body = Vec::new();
        body.extend_from_slice(&iface.to_le_bytes());
        body.extend_from_slice(&((ticks >> 32) as u32).to_le_bytes());
        body.extend_from_slice(&((ticks & 0xffff_ffff) as u32).to_le_bytes());
        body.extend_from_slice(&(ip.len() as u32).to_le_bytes());
        body.extend_from_slice(&u32::from(size).to_le_bytes());
        body.extend_from_slice(&ip);
        epbs.push(buf.len());
        block(&mut buf, EPB, &body);
    }
    (buf, epbs)
}

/// The sections' images, with ids numbered across the whole capture.
fn sections(shape: &[Vec<Pkt>]) -> Vec<(Vec<u8>, Vec<usize>)> {
    let mut first_id = 0;
    shape
        .iter()
        .map(|packets| {
            let built = section(packets, first_id);
            first_id += packets.len() as u32;
            built
        })
        .collect()
}

/// Every packet of `image` in file order, through the per-packet pull,
/// up to the end or the first fault.
fn pull(image: &[u8]) -> Vec<PacketRecord> {
    let mut stream = CaptureStream::new(image).expect("pcapng header");
    let mut packets = Vec::new();
    while let Ok(Some(p)) = stream.next_packet() {
        packets.push(p);
    }
    packets
}

fn check(name: &str, shape: &[Vec<Pkt>]) {
    let built = sections(shape);
    let image: Vec<u8> = built.iter().flat_map(|(b, _)| b.iter().copied()).collect();
    let pulled = pull(&image);
    assert_eq!(
        pulled.len(),
        shape.iter().map(Vec::len).sum::<usize>(),
        "{name}"
    );
    let want = Trace::from_unordered(pulled);
    let strict = read_capture(image.as_slice()).expect("clean image");
    assert_eq!(strict.packets(), want.packets(), "{name}: strict read");
    let clean = read_capture_lossy(image.as_slice()).expect("in-memory read");
    assert!(clean.is_clean(), "{name}");
    assert_eq!(
        clean.trace.packets(),
        want.packets(),
        "{name}: clean salvage"
    );

    // Damage one block in the middle of the longest section: a block
    // length that is not a multiple of 4 is a fault, and the salvage
    // resumes at the next section.
    let Some(hit) = (0..shape.len()).max_by_key(|&s| shape[s].len()) else {
        return;
    };
    if shape[hit].is_empty() {
        return;
    }
    let mut damaged = Vec::new();
    let mut kept = Vec::new();
    for (s, (bytes, epbs)) in built.iter().enumerate() {
        if s == hit {
            let mut bytes = bytes.clone();
            let at = epbs[epbs.len() / 2];
            bytes[at + 4..at + 8].copy_from_slice(&13u32.to_le_bytes());
            kept.extend(pull(&bytes));
            damaged.extend_from_slice(&bytes);
        } else {
            kept.extend_from_slice(read_capture(bytes.as_slice()).expect("clean").packets());
            damaged.extend_from_slice(bytes);
        }
    }
    let salvage = read_capture_lossy(damaged.as_slice()).expect("in-memory read");
    assert_eq!(salvage.faults.len(), 1, "{name}: faults");
    assert_eq!(salvage.packets_salvaged, kept.len(), "{name}");
    assert_eq!(
        salvage.trace.packets(),
        Trace::from_unordered(kept).packets(),
        "{name}: damaged salvage"
    );
}

/// Microsecond packets at `n` stamps climbing from zero by gaps of 0 to
/// `max_gap` µs.
fn climbing(rng: &mut StdRng, n: usize, max_gap: u64) -> Vec<Pkt> {
    let mut t = 0;
    (0..n)
        .map(|_| {
            t += rng.random_range(0..=max_gap);
            (US, t)
        })
        .collect()
}

/// A section whose clock restarts at `start`: one packet in eight on
/// the millisecond interface, its stamp truncated to the millisecond,
/// so it lands up to a millisecond before its microsecond neighbours.
fn interleaved(rng: &mut StdRng, n: usize, start: u64) -> Vec<Pkt> {
    let mut t = start;
    (0..n)
        .map(|_| {
            t += rng.random_range(1..=5_000u64);
            if rng.random_range(0..8u8) == 0 {
                (MS, t / 1_000)
            } else {
                (US, t)
            }
        })
        .collect()
}

/// `n` strictly climbing microsecond stamps in which, for each
/// `(arrival, d)`, the packet that belongs at `arrival - d` arrives at
/// `arrival` instead: `d` positions late.
fn displaced(n: usize, moves: &[(usize, usize)]) -> Vec<Pkt> {
    let mut order: Vec<u64> = (0..n as u64).map(|i| 1_000 + i * 10).collect();
    for &(arrival, d) in moves {
        let late = order.remove(arrival - d);
        order.insert(arrival, late);
    }
    order.into_iter().map(|t| (US, t)).collect()
}

#[test]
fn whole_capture_reads_match_the_sorted_pull() {
    let mut rng = StdRng::seed_from_u64(1993);

    check("in order", &[climbing(&mut rng, 5_000, 5_000)]);

    let restarts: Vec<Vec<Pkt>> = (0..8)
        .map(|_| {
            let start = rng.random_range(0..100u64);
            interleaved(&mut rng, 3_000, start)
        })
        .collect();
    check("restarting sections, ms/µs interleave", &restarts);

    let late: Vec<(usize, usize)> = (1..14).map(|i| (i * 200, [1, 16, 17, 40][i % 4])).collect();
    check(
        "late by 1, 16, 17 and 40",
        &[displaced(3_000, &late), displaced(3_000, &late)],
    );

    // Late packets arriving on, and just past, every 1,024th position
    // of the second section: the first section ends the first run, so
    // these positions are where any block of 1 Ki to 16 Ki records
    // would begin.
    let boundary: Vec<(usize, usize)> = (1..20)
        .map(|m| (m * 1_024 + m % 3, [1, 16, 2][m % 3]))
        .collect();
    check(
        "late at block boundaries",
        &[climbing(&mut rng, 100, 50), displaced(20_000, &boundary)],
    );

    for (sections, each) in [(40, 60), (3_000, 20)] {
        let many: Vec<Vec<Pkt>> = (0..sections)
            .map(|_| {
                let start = rng.random_range(0..100u64);
                interleaved(&mut rng, each, start)
            })
            .collect();
        check(&format!("{sections} restarting sections"), &many);
    }

    // Equal stamps within and across sections, on both interfaces: a
    // millisecond tick k ties a microsecond stamp of k * 1000.
    let ties: Vec<Vec<Pkt>> = (0..4)
        .map(|_| {
            (0..2_000u64)
                .map(|i| match rng.random_range(0..3u8) {
                    0 => (MS, i / 4),
                    _ => (US, i / 4 * 1_000),
                })
                .collect()
        })
        .collect();
    check("ties across sections", &ties);

    let extremes: Vec<Vec<Pkt>> = (0..3)
        .map(|_| {
            (0..200)
                .map(|_| match rng.random_range(0..4u8) {
                    0 => (US, 0),
                    1 => (US, u64::MAX),
                    2 => (MS, rng.random::<u64>()),
                    _ => (US, rng.random::<u64>()),
                })
                .collect()
        })
        .collect();
    check("0 and u64::MAX stamps", &extremes);

    check("no packet", &[vec![]]);
    check("one packet", &[vec![(US, 42)]]);
    check(
        "one packet after an empty section",
        &[vec![], vec![(MS, 7)]],
    );
}
