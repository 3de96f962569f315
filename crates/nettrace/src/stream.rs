//! The capture decoder: one incremental, bounded-memory engine for
//! classic pcap and pcapng.
//!
//! The operational monitor the paper describes (§2: the NSFNET routers
//! sample a *stream*, they never hold the day's 650 MB in memory) needs
//! a reader that never materializes the capture. [`CaptureStream`]
//! yields packets (or bounded batches) one record at a time from any
//! [`Read`] source, in **file order**, through a small read-ahead
//! buffer. Records and blocks are decoded in place in that buffer by
//! [`crate::pcap::parse_ipv4`], [`crate::pcapng::parse_epb`] and their
//! siblings; no record gets its own allocation. The buffer starts at
//! 16 KiB and grows only when it is full of bytes the stream actually
//! delivered and the structure being decoded needs more, so a corrupt
//! length field can never reserve memory the stream does not back.
//!
//! It is the only decoder in the crate. A fault is a returned value, not
//! a mode: [`CaptureStream::next_packet`] returns it and records where
//! the broken structure starts, and the next call resumes past it — at
//! the next plausible pcapng Section Header Block, or at end of stream
//! for classic pcap, whose records cannot be resynchronized once a
//! length field is corrupt. The two whole-capture readers are thin loops
//! over it: [`read_capture`] stops at the first fault,
//! [`read_capture_lossy`](crate::read_capture_lossy) records every fault
//! and carries on.

use crate::batch::PacketBatch;
use crate::error::TraceError;
use crate::packet::PacketRecord;
use crate::pcap::{parse_ipv4, sniff_magic, u32_at, Endian, MAX_CAPLEN};
use crate::pcapng::{
    parse_epb, parse_idb, parse_spb, Interface, BOM, EPB_TYPE, IDB_TYPE, MAX_BLOCK, SHB_TYPE,
    SPB_TYPE,
};
use crate::time::Micros;
use crate::trace::Trace;
use std::io::{self, Read};

/// Size of the read-ahead buffer at construction.
const BUF_START: usize = 16 * 1024;

/// What decoding one structure gives: a packet, nothing (a pcapng block
/// that carries none), or the fault.
type Decoded = Result<Option<PacketRecord>, TraceError>;

/// Per-format decoder state.
enum Format {
    /// The header did not decode. Names what the magic sniffed as
    /// (`"unknown"` when it matched neither format) and holds the fault
    /// until the first call returns it.
    Broken(&'static str, Option<TraceError>),
    /// Classic pcap: byte order, and whether timestamp fractions are
    /// nanoseconds.
    Pcap(Endian, bool),
    Pcapng(Section),
}

/// pcapng decoder state.
struct Section {
    /// Byte order of the current section; `None` before the first
    /// Section Header Block.
    endian: Option<Endian>,
    /// Interfaces the current section has described.
    interfaces: Vec<Interface>,
    /// Timestamp of the last yielded packet (SPBs carry none).
    last_ts: Micros,
}

/// The byte stream as the decoder sees it: a read-ahead buffer over the
/// reader, and what the decoder has taken from it.
struct Input<R> {
    reader: R,
    /// `buf[mark..pos]` is the structure being decoded, taken piece by
    /// piece; `buf[pos..end]` is read ahead.
    buf: Vec<u8>,
    mark: usize,
    pos: usize,
    end: usize,
    /// Stream offset of `buf[0]`.
    base: u64,
    /// Bytes taken: every decoded structure, plus the pieces of a broken
    /// one until the next call resumes past it.
    consumed: u64,
    /// Packets yielded.
    packets: usize,
}

impl<R: Read> Input<R> {
    /// Make `n` bytes past `pos` available; `Ok(false)` if the stream
    /// ends first, in which case every remaining byte is in the buffer.
    #[inline]
    fn fill(&mut self, n: usize) -> io::Result<bool> {
        if self.end - self.pos >= n {
            return Ok(true);
        }
        self.refill(n)
    }

    /// [`fill`](Input::fill) when the buffer holds too few bytes: read
    /// more, making room first if the buffer is full.
    #[cold]
    fn refill(&mut self, n: usize) -> io::Result<bool> {
        while self.end - self.pos < n {
            if self.end == self.buf.len() {
                // Full: drop what earlier structures left behind, then
                // grow only if that freed nothing — at most doubling, and
                // never past what this structure needs.
                self.buf.copy_within(self.mark..self.end, 0);
                self.base += self.mark as u64;
                (self.pos, self.end) = (self.pos - self.mark, self.end - self.mark);
                self.mark = 0;
                if self.end == self.buf.len() {
                    let len = (self.pos + n).min(2 * self.end);
                    self.buf.resize(len, 0);
                }
            }
            match self.reader.read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(false),
                Ok(k) => self.end += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Take the next `n` bytes into the structure being decoded; a stream
    /// that ends first truncates it.
    #[inline]
    fn take(&mut self, n: usize) -> Result<(), TraceError> {
        if !self.fill(n)? {
            return Err(TraceError::TruncatedRecord {
                packets_read: self.packets,
            });
        }
        self.pos += n;
        self.consumed += n as u64;
        Ok(())
    }

    /// The structure taken so far.
    #[inline]
    fn taken(&self) -> &[u8] {
        &self.buf[self.mark..self.pos]
    }

    /// Scan from one byte past the broken structure for the next
    /// plausible Section Header Block: the SHB magic (an
    /// endianness-neutral palindrome), a valid byte-order mark, and a
    /// sane block length wholly present in the stream. Plausibility
    /// matters — a bare magic inside garbage must not trigger a resync
    /// that immediately faults again. `Ok(false)` once the stream is
    /// exhausted.
    fn resync(&mut self) -> io::Result<bool> {
        let magic = SHB_TYPE.to_le_bytes();
        self.pos = self.mark + 1;
        loop {
            self.mark = self.pos;
            if !self.fill(28)? {
                return Ok(false);
            }
            let ahead = &self.buf[self.pos..self.end];
            let Some(at) = ahead[..ahead.len() - 24]
                .windows(4)
                .position(|w| w == magic)
            else {
                // No magic can start here; keep the 27 bytes a header
                // starting among them would need.
                self.pos = self.end - 27;
                continue;
            };
            self.pos += at;
            self.mark = self.pos;
            let header = &self.buf[self.pos..self.pos + 28];
            let total_len = section_endian(u32_at(Endian::Little, &header[8..]))
                .and_then(|endian| block_len(u32_at(endian, &header[4..]), 28).ok());
            match total_len {
                Some(len) if self.fill(len)? => return Ok(true),
                _ => self.pos += 1,
            }
        }
    }

    /// Skip to the end of the stream, so every byte counts in
    /// `bytes_read`.
    fn drain(&mut self) -> io::Result<()> {
        self.base += self.end as u64 + io::copy(&mut self.reader, &mut io::sink())?;
        (self.mark, self.pos, self.end) = (0, 0, 0);
        Ok(())
    }
}

/// The byte order a section header's byte-order mark declares.
#[inline]
fn section_endian(bom: u32) -> Option<Endian> {
    match (bom, bom.swap_bytes()) {
        (BOM, _) => Some(Endian::Little),
        (_, BOM) => Some(Endian::Big),
        _ => None,
    }
}

/// A pcapng block length: `min` to [`MAX_BLOCK`] bytes, and a multiple
/// of 4.
#[inline]
fn block_len(len: u32, min: u32) -> Result<usize, TraceError> {
    if (min..=MAX_BLOCK).contains(&len) && len.is_multiple_of(4) {
        Ok(len as usize)
    } else {
        Err(TraceError::OversizedRecord { caplen: len })
    }
}

/// Decode one classic pcap record.
#[inline]
fn pcap_record<R: Read>(input: &mut Input<R>, endian: Endian, nanos: bool) -> Decoded {
    input.take(16)?;
    let header = input.taken();
    let field = |i: usize| u32_at(endian, &header[4 * i..]);
    let (sec, frac, caplen, orig_len) = (field(0), field(1), field(2), field(3));
    if caplen > MAX_CAPLEN {
        return Err(TraceError::OversizedRecord { caplen });
    }
    input.take(caplen as usize)?;
    let usec = if nanos { frac / 1_000 } else { frac };
    let ts = Micros(u64::from(sec) * 1_000_000 + u64::from(usec));
    Ok(Some(parse_ipv4(&input.taken()[16..], orig_len, ts)))
}

impl Section {
    /// Decode one pcapng block; the packet, if it carried one.
    #[inline]
    fn block<R: Read>(&mut self, input: &mut Input<R>) -> Decoded {
        input.take(8)?;
        let raw_type = u32_at(Endian::Little, input.taken());
        if raw_type == SHB_TYPE {
            return self.section_header(input);
        }
        // A pcapng stream must open with a section header.
        let endian = self.endian.ok_or(TraceError::BadMagic(raw_type))?;
        let block_type = u32_at(endian, input.taken());
        let total_len = block_len(u32_at(endian, &input.taken()[4..]), 12)?;
        // Body, then the trailing copy of the length.
        input.take(total_len - 12)?;
        input.take(4)?;
        let block = input.taken();
        let body = &block[8..block.len() - 4];
        let packet = match block_type {
            IDB_TYPE => {
                self.interfaces.extend(parse_idb(endian, body));
                None
            }
            EPB_TYPE => parse_epb(endian, body, &self.interfaces),
            SPB_TYPE => parse_spb(endian, body, self.last_ts),
            _ => None, // unknown block: skipped by length
        };
        Ok(packet.inspect(|p| self.last_ts = p.timestamp))
    }

    /// Decode the rest of a Section Header Block, whose type is a
    /// palindrome and so readable in either byte order: a new section,
    /// whose byte-order mark fixes the order until the next.
    #[cold]
    fn section_header<R: Read>(&mut self, input: &mut Input<R>) -> Decoded {
        input.take(4)?;
        let bom = u32_at(Endian::Little, &input.taken()[8..]);
        let endian = section_endian(bom).ok_or(TraceError::BadMagic(bom))?;
        let total_len = block_len(u32_at(endian, &input.taken()[4..]), 28)?;
        // Version, section length and options are not needed.
        input.take(total_len - 12)?;
        self.endian = Some(endian);
        self.interfaces.clear();
        Ok(None)
    }
}

/// One-pass incremental reader over a pcap or pcapng byte stream.
///
/// Construction sniffs the format from the first bytes; each
/// [`next_packet`](CaptureStream::next_packet) call decodes exactly one
/// record (skipping non-packet pcapng blocks), so memory is bounded by
/// the largest single record regardless of capture size.
///
/// Unlike [`read_capture`], packets arrive in **file order** — the
/// timestamp sort of [`Trace::from_unordered`] is a whole-trace
/// operation a one-pass reader cannot perform. Callers needing sorted
/// output must window-and-sort downstream.
///
/// After a fault the next call resumes past it (see
/// [`next_packet`](CaptureStream::next_packet)); after the end of the
/// stream, or an I/O error, further calls return `Ok(None)`.
pub struct CaptureStream<R> {
    input: Input<R>,
    format: Format,
    /// Offset of the structure the last fault broke.
    fault_offset: Option<u64>,
    /// The last call returned a fault; the next one resumes past it.
    resume: bool,
    done: bool,
}

impl<R: Read> CaptureStream<R> {
    /// Sniff the stream's format and prepare to yield packets.
    ///
    /// # Errors
    /// [`TraceError::TruncatedRecord`] (`packets_read: 0`) if the stream
    /// ends inside the magic or the classic 24-byte global header,
    /// [`TraceError::BadMagic`] if it is neither format,
    /// [`TraceError::Io`] if the reader fails.
    pub fn new(reader: R) -> Result<Self, TraceError> {
        let stream = Self::open(reader);
        if let Format::Broken(_, Some(error)) = stream.format {
            return Err(error);
        }
        Ok(stream)
    }

    /// Like [`new`](CaptureStream::new), but a header that does not
    /// decode becomes the fault the first call returns, at offset 0, so
    /// a caller can report it (and the format) like any other fault.
    pub(crate) fn open(reader: R) -> Self {
        let mut input = Input {
            reader,
            buf: vec![0; BUF_START],
            mark: 0,
            pos: 0,
            end: 0,
            base: 0,
            consumed: 0,
            packets: 0,
        };
        let format = Self::sniff(&mut input)
            .unwrap_or_else(|(name, error)| Format::Broken(name, Some(error)));
        CaptureStream {
            input,
            format,
            fault_offset: None,
            resume: false,
            done: false,
        }
    }

    /// Classify the magic and, for classic pcap, take the global header
    /// (nothing in it past the magic is needed to decode records). On
    /// failure, also names what the magic sniffed as.
    fn sniff(input: &mut Input<R>) -> Result<Format, (&'static str, TraceError)> {
        input.take(4).map_err(|e| ("unknown", e))?;
        let magic = u32_at(Endian::Little, input.taken());
        // Give the magic back: it opens the pcap global header, or is the
        // type field of the first pcapng block.
        (input.pos, input.consumed) = (0, 0);
        if magic == SHB_TYPE {
            return Ok(Format::Pcapng(Section {
                endian: None,
                interfaces: Vec::new(),
                last_ts: Micros::ZERO,
            }));
        }
        let (endian, nanos) = sniff_magic(magic).ok_or(("unknown", TraceError::BadMagic(magic)))?;
        input.take(24).map_err(|e| ("pcap", e))?;
        Ok(Format::Pcap(endian, nanos))
    }

    /// `"pcap"` or `"pcapng"`.
    #[must_use]
    pub fn format(&self) -> &'static str {
        match self.format {
            Format::Broken(name, _) => name,
            Format::Pcap(..) => "pcap",
            Format::Pcapng(_) => "pcapng",
        }
    }

    /// Packets yielded so far.
    #[must_use]
    pub fn packets_read(&self) -> usize {
        self.input.packets
    }

    /// Bytes of the stream consumed by decoded structures. Right after a
    /// fault it also counts the pieces of the broken structure that were
    /// read before the fault showed (a header whose length was refused,
    /// say); the next call drops them again.
    #[must_use]
    pub fn byte_offset(&self) -> u64 {
        self.input.consumed
    }

    /// Byte offset of the structure the last fault broke, if there was
    /// one.
    #[must_use]
    pub fn fault_offset(&self) -> Option<u64> {
        self.fault_offset
    }

    /// Every byte read from the stream so far; after the end of the
    /// stream, its length.
    pub(crate) fn bytes_read(&self) -> u64 {
        self.input.base + self.input.end as u64
    }

    /// Yield the next packet, or `Ok(None)` at the end of the stream.
    ///
    /// # Errors
    /// [`TraceError::TruncatedRecord`] when the stream ends mid-structure,
    /// [`TraceError::OversizedRecord`] on an implausible length field,
    /// [`TraceError::BadMagic`] on a corrupt pcapng section header;
    /// [`fault_offset`](CaptureStream::fault_offset) then reports where
    /// the broken structure starts. The next call resumes past it: at the
    /// next plausible pcapng section header, or at the end of a classic
    /// pcap stream. Every such call advances at least one byte or returns
    /// `Ok(None)`. [`TraceError::Io`] when the reader fails, which ends
    /// the stream.
    #[inline]
    pub fn next_packet(&mut self) -> Result<Option<PacketRecord>, TraceError> {
        let step = self.step();
        if let Err(error) = &step {
            self.fault_offset = Some(self.input.base + self.input.mark as u64);
            self.resume = !matches!(error, TraceError::Io(_));
            self.done |= !self.resume;
        }
        step
    }

    #[inline]
    fn step(&mut self) -> Decoded {
        if self.resume {
            self.resume_past_fault()?;
        }
        while !self.done {
            let input = &mut self.input;
            input.mark = input.pos;
            let packet = match &mut self.format {
                Format::Broken(_, fault) => return fault.take().map_or(Ok(None), Err),
                // No byte left at a structure boundary: the end.
                _ if !input.fill(1)? => {
                    self.done = true;
                    break;
                }
                Format::Pcap(endian, nanos) => pcap_record(input, *endian, *nanos)?,
                Format::Pcapng(section) => section.block(input)?,
            };
            if let Some(p) = packet {
                input.packets += 1;
                return Ok(Some(p));
            }
        }
        Ok(None)
    }

    /// Drop the pieces of the structure the last fault broke, then
    /// resume at the next plausible pcapng section header, or end the
    /// stream.
    #[cold]
    fn resume_past_fault(&mut self) -> io::Result<()> {
        self.resume = false;
        let input = &mut self.input;
        input.consumed -= (input.pos - input.mark) as u64;
        if !(matches!(self.format, Format::Pcapng(_)) && input.resync()?) {
            input.drain()?;
            self.done = true;
        }
        Ok(())
    }

    /// Pull up to `max` packets into `push`, counting them on
    /// `nettrace_stream_packets_total`.
    #[inline]
    fn pull(
        &mut self,
        max: usize,
        mut push: impl FnMut(PacketRecord),
    ) -> Result<usize, TraceError> {
        let mut got = 0;
        while got < max {
            let Some(packet) = self.next_packet()? else {
                break;
            };
            push(packet);
            got += 1;
        }
        if got > 0 {
            obskit::counter_labeled(
                "nettrace_stream_packets_total",
                &[("format", self.format())],
            )
            .add(got as u64);
        }
        Ok(got)
    }

    /// Append up to `max` packets to `out`, returning how many arrived.
    /// Returns `Ok(0)` only at the end of the stream.
    ///
    /// # Errors
    /// As [`next_packet`](CaptureStream::next_packet); packets decoded
    /// before the fault are kept in `out`.
    #[inline]
    pub fn next_batch(
        &mut self,
        max: usize,
        out: &mut Vec<PacketRecord>,
    ) -> Result<usize, TraceError> {
        self.pull(max, |p| out.push(p))
    }

    /// Append up to `max` packets to the columns of `out`, returning
    /// how many arrived. The columnar sibling of
    /// [`next_batch`](CaptureStream::next_batch): element `i` of every
    /// column is packet `i`'s projection, in file order, so a chunked
    /// columnar decode sees exactly the packets a per-packet decode
    /// would. Returns `Ok(0)` only at the end of the stream.
    ///
    /// # Errors
    /// As [`next_packet`](CaptureStream::next_packet); packets decoded
    /// before the fault are kept in `out`.
    #[inline]
    pub fn next_chunk(&mut self, max: usize, out: &mut PacketBatch) -> Result<usize, TraceError> {
        self.pull(max, |p| out.push(&p))
    }
}

impl<R: Read> Iterator for CaptureStream<R> {
    type Item = Result<PacketRecord, TraceError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.next_packet().transpose()
    }
}

/// Read a whole capture, classic pcap or pcapng (sniffed from the first
/// bytes), into a [`Trace`]: the packets up to the first fault, or that
/// fault.
///
/// Timestamps are converted to absolute microseconds, with each pcapng
/// interface's tick conversion fixed when its description is read.
/// Packets already in timestamp order are returned as they are; any
/// others (multi-interface and multi-section captures interleave) get
/// a stable radix sort on timestamps, which keeps packets with equal
/// timestamps in file order ([`Trace::from_unordered`]). Protocol,
/// ports, and network numbers are recovered from the packet bytes when
/// they look like IPv4.
///
/// # Errors
/// The first fault, as [`CaptureStream::next_packet`] reports it, or
/// as [`CaptureStream::new`] does for the header: the stream is
/// truncated, declares an implausible length, is neither format, or
/// fails to read.
pub fn read_capture<R: Read>(reader: R) -> Result<Trace, TraceError> {
    let stream = CaptureStream::open(reader);
    let (format, span) = match stream.format {
        Format::Pcapng(_) => ("pcapng", "nettrace_pcapng_read"),
        _ => ("pcap", "nettrace_pcap_read"),
    };
    let _span = obskit::span(span);
    let packets: Result<Vec<_>, _> = stream.collect();
    let result = packets.map(Trace::from_unordered);
    crate::observe_read(format, &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::{self, write_pcap};
    use crate::pcapng;

    fn sample_trace(n: u64) -> Trace {
        Trace::new(
            (0..n)
                .map(|i| {
                    PacketRecord::new(Micros(i * 777), if i % 3 == 0 { 40 } else { 552 })
                        .with_ports(1024 + i as u16, 23)
                })
                .collect(),
        )
        .unwrap()
    }

    /// A reader that hands out one byte at a time — exercises every
    /// partial-read path in `fill`.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    /// A minimal little-endian pcapng builder (mirrors the batch tests).
    struct NgBuilder {
        buf: Vec<u8>,
    }

    impl NgBuilder {
        fn new() -> Self {
            let mut b = NgBuilder { buf: Vec::new() };
            let mut body = Vec::new();
            body.extend_from_slice(&pcapng::BOM.to_le_bytes());
            body.extend_from_slice(&1u16.to_le_bytes());
            body.extend_from_slice(&0u16.to_le_bytes());
            body.extend_from_slice(&(-1i64).to_le_bytes());
            b.block(pcapng::SHB_TYPE, &body);
            b
        }

        fn block(&mut self, btype: u32, body: &[u8]) {
            let total = 12 + body.len() as u32;
            self.buf.extend_from_slice(&btype.to_le_bytes());
            self.buf.extend_from_slice(&total.to_le_bytes());
            self.buf.extend_from_slice(body);
            self.buf.extend_from_slice(&total.to_le_bytes());
        }

        fn idb(&mut self) {
            let mut body = Vec::new();
            body.extend_from_slice(&101u16.to_le_bytes());
            body.extend_from_slice(&0u16.to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes());
            self.block(pcapng::IDB_TYPE, &body);
        }

        fn epb(&mut self, ticks: u64, size: u16) {
            let mut body = Vec::new();
            body.extend_from_slice(&0u32.to_le_bytes());
            body.extend_from_slice(&((ticks >> 32) as u32).to_le_bytes());
            body.extend_from_slice(&((ticks & 0xffff_ffff) as u32).to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes()); // caplen 0
            body.extend_from_slice(&u32::from(size).to_le_bytes());
            self.block(pcapng::EPB_TYPE, &body);
        }

        fn spb(&mut self, size: u16) {
            let mut body = Vec::new();
            body.extend_from_slice(&u32::from(size).to_le_bytes());
            self.block(pcapng::SPB_TYPE, &body);
        }
    }

    #[test]
    fn streams_pcap_identically_to_batch() {
        let t = sample_trace(50);
        let mut buf = Vec::new();
        write_pcap(&mut buf, &t).unwrap();
        let batch = crate::read_capture(buf.as_slice()).unwrap();

        let mut s = CaptureStream::new(buf.as_slice()).unwrap();
        assert_eq!(s.format(), "pcap");
        let streamed: Vec<PacketRecord> = (&mut s).map(|r| r.unwrap()).collect();
        assert_eq!(streamed, batch.packets());
        assert_eq!(s.packets_read(), 50);
        assert_eq!(s.byte_offset(), buf.len() as u64);
        assert!(s.fault_offset().is_none());
        // Fused after end.
        assert!(s.next_packet().unwrap().is_none());
    }

    #[test]
    fn streams_pcapng_identically_to_batch() {
        let mut b = NgBuilder::new();
        b.idb();
        for i in 0..10u64 {
            b.epb(1_000 * i, 40 + i as u16);
        }
        b.spb(576); // no timestamp: rides on the previous packet's
        let batch = crate::read_capture(b.buf.as_slice()).unwrap();

        let mut s = CaptureStream::new(b.buf.as_slice()).unwrap();
        assert_eq!(s.format(), "pcapng");
        let streamed: Vec<PacketRecord> = (&mut s).map(|r| r.unwrap()).collect();
        // This capture is in timestamp order, so file order == sorted.
        assert_eq!(streamed, batch.packets());
        assert_eq!(s.byte_offset(), b.buf.len() as u64);
    }

    #[test]
    fn trickle_reader_matches_whole_slice() {
        let t = sample_trace(20);
        let mut buf = Vec::new();
        write_pcap(&mut buf, &t).unwrap();
        let whole: Vec<PacketRecord> = CaptureStream::new(buf.as_slice())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let trickled: Vec<PacketRecord> = CaptureStream::new(Trickle(&buf))
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(whole, trickled);
    }

    #[test]
    fn batches_are_bounded_and_complete() {
        let t = sample_trace(25);
        let mut buf = Vec::new();
        write_pcap(&mut buf, &t).unwrap();
        let mut s = CaptureStream::new(buf.as_slice()).unwrap();
        let mut all = Vec::new();
        let mut batches = Vec::new();
        loop {
            let before = all.len();
            let got = s.next_batch(7, &mut all).unwrap();
            assert_eq!(all.len() - before, got);
            if got == 0 {
                break;
            }
            batches.push(got);
        }
        assert_eq!(all.len(), 25);
        assert_eq!(batches, vec![7, 7, 7, 4]);
    }

    #[test]
    fn chunks_project_the_same_packets_as_batches() {
        let t = sample_trace(25);
        let mut buf = Vec::new();
        write_pcap(&mut buf, &t).unwrap();
        let mut s = CaptureStream::new(buf.as_slice()).unwrap();
        let mut chunk = crate::batch::PacketBatch::new();
        let mut sizes = Vec::new();
        loop {
            let before = chunk.len();
            let got = s.next_chunk(7, &mut chunk).unwrap();
            assert_eq!(chunk.len() - before, got);
            if got == 0 {
                break;
            }
            sizes.push(got);
        }
        assert_eq!(sizes, vec![7, 7, 7, 4]);
        let pulled: Vec<PacketRecord> = CaptureStream::new(buf.as_slice())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(chunk, crate::batch::PacketBatch::from_records(&pulled));
    }

    #[test]
    fn chunk_keeps_packets_decoded_before_a_fault() {
        let t = sample_trace(3);
        let mut buf = Vec::new();
        write_pcap(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 5);
        let mut s = CaptureStream::new(buf.as_slice()).unwrap();
        let mut chunk = crate::batch::PacketBatch::new();
        match s.next_chunk(10, &mut chunk) {
            Err(TraceError::TruncatedRecord { packets_read }) => assert_eq!(packets_read, 2),
            other => panic!("expected truncation, got {other:?}"),
        }
        assert_eq!(chunk.len(), 2);
    }

    #[test]
    fn truncated_pcap_reports_offset_of_broken_record() {
        let t = sample_trace(3);
        let mut buf = Vec::new();
        write_pcap(&mut buf, &t).unwrap();
        // Cut into the third record's data.
        let third_start = 24 + 2 * (16 + 28);
        buf.truncate(third_start + 16 + 5);
        let mut s = CaptureStream::new(buf.as_slice()).unwrap();
        assert!(s.next_packet().unwrap().is_some());
        assert!(s.next_packet().unwrap().is_some());
        match s.next_packet() {
            Err(TraceError::TruncatedRecord { packets_read }) => assert_eq!(packets_read, 2),
            other => panic!("expected truncation, got {other:?}"),
        }
        assert_eq!(s.fault_offset(), Some(third_start as u64));
        // pcap has no resync marker: the next call ends the stream.
        assert!(s.next_packet().unwrap().is_none());
    }

    #[test]
    fn header_stage_errors_match_batch_reader() {
        // Short streams: truncated, never Io (batch contract).
        for len in [0usize, 1, 3] {
            let bytes = vec![0xa1u8; len];
            assert!(
                matches!(
                    CaptureStream::new(bytes.as_slice()),
                    Err(TraceError::TruncatedRecord { packets_read: 0 })
                ),
                "len {len}"
            );
        }
        // Valid magic, truncated global header.
        let mut short = pcap::MAGIC_US.to_le_bytes().to_vec();
        short.extend_from_slice(&[0u8; 7]);
        assert!(matches!(
            CaptureStream::new(short.as_slice()),
            Err(TraceError::TruncatedRecord { packets_read: 0 })
        ));
        // Garbage magic.
        assert!(matches!(
            CaptureStream::new(&[0u8; 32][..]),
            Err(TraceError::BadMagic(_))
        ));
        // Oversized caplen.
        let mut buf = Vec::new();
        write_pcap(&mut buf, &Trace::empty()).unwrap();
        buf.extend_from_slice(&[0u8; 8]);
        buf.extend_from_slice(&(pcap::MAX_CAPLEN + 1).to_le_bytes());
        buf.extend_from_slice(&40u32.to_le_bytes());
        let mut s = CaptureStream::new(buf.as_slice()).unwrap();
        assert!(matches!(
            s.next_packet(),
            Err(TraceError::OversizedRecord { .. })
        ));
        assert_eq!(s.fault_offset(), Some(24));
    }

    #[test]
    fn pcapng_truncation_mid_block_reports_block_start() {
        let mut b = NgBuilder::new();
        b.idb();
        b.epb(1, 40);
        b.epb(2, 41);
        let epb_len = 12 + 20; // header+trailer + fixed EPB body
        let second_epb_start = b.buf.len() - epb_len;
        let mut buf = b.buf;
        buf.truncate(buf.len() - 3);
        let mut s = CaptureStream::new(buf.as_slice()).unwrap();
        assert!(s.next_packet().unwrap().is_some());
        match s.next_packet() {
            Err(TraceError::TruncatedRecord { packets_read }) => assert_eq!(packets_read, 1),
            other => panic!("expected truncation, got {other:?}"),
        }
        assert_eq!(s.fault_offset(), Some(second_epb_start as u64));
    }

    #[test]
    fn second_section_resets_interfaces() {
        // Section 1: ms-resolution interface. Section 2: fresh default
        // µs interface — a stale interface list would mis-scale ts.
        let mut b = NgBuilder::new();
        {
            let mut body = Vec::new();
            body.extend_from_slice(&101u16.to_le_bytes());
            body.extend_from_slice(&0u16.to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes());
            body.extend_from_slice(&9u16.to_le_bytes()); // if_tsresol
            body.extend_from_slice(&1u16.to_le_bytes());
            body.push(3); // 10^-3: milliseconds
            body.extend_from_slice(&[0, 0, 0]);
            body.extend_from_slice(&0u32.to_le_bytes()); // endofopt
            b.block(pcapng::IDB_TYPE, &body);
        }
        b.epb(2_000, 40); // 2000 ms = 2 s
        let second = NgBuilder::new();
        b.buf.extend_from_slice(&second.buf);
        b.idb();
        b.epb(5_000_000, 41); // back to µs: 5 s

        let packets: Vec<PacketRecord> = CaptureStream::new(b.buf.as_slice())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let ts: Vec<u64> = packets.iter().map(|p| p.timestamp.as_u64()).collect();
        assert_eq!(ts, vec![2_000_000, 5_000_000]);
        let batch = crate::read_capture(b.buf.as_slice()).unwrap();
        assert_eq!(packets, batch.packets());
    }

    /// Hands out `left` bytes of `bytes`, then fails every read.
    struct Failing<'a> {
        bytes: &'a [u8],
        left: usize,
    }

    impl Read for Failing<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.left == 0 {
                return Err(std::io::Error::other("device gone"));
            }
            let n = buf.len().min(self.left).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            self.left -= n;
            Ok(n)
        }
    }

    #[test]
    fn reader_errors_are_io_not_truncation() {
        let mut pcap = Vec::new();
        write_pcap(&mut pcap, &sample_trace(20)).unwrap();
        let mut ng = NgBuilder::new();
        ng.idb();
        (0..20).for_each(|i| ng.epb(i * 100, 40));
        for image in [&pcap, &ng.buf] {
            for left in [0, 3, 24, 30, image.len() / 2, image.len() - 1] {
                let failing = || Failing { bytes: image, left };
                assert!(
                    matches!(crate::read_capture(failing()), Err(TraceError::Io(_))),
                    "read_capture, {left} bytes"
                );
                assert!(
                    matches!(crate::read_capture_lossy(failing()), Err(TraceError::Io(_))),
                    "read_capture_lossy, {left} bytes"
                );
                let pulled = CaptureStream::new(failing()).and_then(|mut s| {
                    while s.next_packet()?.is_some() {}
                    Ok(s)
                });
                assert!(
                    matches!(pulled, Err(TraceError::Io(_))),
                    "stream, {left} bytes"
                );
            }
        }
        // An I/O error ends the stream.
        let mut s = CaptureStream::new(Failing {
            bytes: &pcap,
            left: 100,
        })
        .unwrap();
        let mut results = std::iter::from_fn(|| Some(s.next_packet())).take(4);
        assert!(results.any(|r| matches!(r, Err(TraceError::Io(_)))));
        assert!(matches!(s.next_packet(), Ok(None)));
    }

    #[test]
    fn pcapng_fault_resumes_at_the_next_section() {
        let mut b = NgBuilder::new();
        b.idb();
        b.epb(1, 40);
        let bad = b.buf.len();
        b.epb(2, 41);
        let second = NgBuilder::new();
        b.buf.extend_from_slice(&second.buf);
        b.idb();
        b.epb(3, 42);
        // The second EPB's length is not a multiple of 4.
        b.buf[bad + 4..bad + 8].copy_from_slice(&13u32.to_le_bytes());

        let mut s = CaptureStream::new(b.buf.as_slice()).unwrap();
        assert_eq!(s.next_packet().unwrap().unwrap().size, 40);
        assert!(matches!(
            s.next_packet(),
            Err(TraceError::OversizedRecord { caplen: 13 })
        ));
        assert_eq!(s.fault_offset(), Some(bad as u64));
        assert_eq!(s.next_packet().unwrap().unwrap().size, 42);
        assert!(s.next_packet().unwrap().is_none());
        assert_eq!(s.packets_read(), 2);
        // The broken block and the rest of its section are not consumed.
        let skipped = b.buf.len() - bad - second.buf.len() - 20 - 32;
        assert_eq!(s.byte_offset(), (b.buf.len() - skipped) as u64);
    }

    #[test]
    fn pcap_fault_ends_the_stream() {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &sample_trace(5)).unwrap();
        let second = 24 + 16 + 28;
        buf[second + 8..second + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut s = CaptureStream::new(buf.as_slice()).unwrap();
        assert!(s.next_packet().unwrap().is_some());
        assert!(matches!(
            s.next_packet(),
            Err(TraceError::OversizedRecord { caplen: u32::MAX })
        ));
        assert_eq!(s.fault_offset(), Some(second as u64));
        // The header whose length was refused is counted until the
        // next call, which finds no resync marker and ends the stream.
        assert_eq!(s.byte_offset(), (second + 16) as u64);
        assert!(s.next_packet().unwrap().is_none());
        assert_eq!(s.byte_offset(), second as u64);
        assert_eq!(s.bytes_read(), buf.len() as u64);
    }

    #[test]
    fn buffer_grows_only_with_the_bytes_that_arrive() {
        // A legal but huge declared length with little behind it: the
        // decoder must not reserve what the stream never delivers.
        let mut b = NgBuilder::new();
        b.idb();
        b.buf.extend_from_slice(&pcapng::EPB_TYPE.to_le_bytes());
        b.buf.extend_from_slice(&pcapng::MAX_BLOCK.to_le_bytes());
        b.buf.extend_from_slice(&[0u8; 100]);
        let mut s = CaptureStream::new(b.buf.as_slice()).unwrap();
        assert!(matches!(
            s.next_packet(),
            Err(TraceError::TruncatedRecord { .. })
        ));
        assert_eq!(s.input.buf.len(), BUF_START);

        // A large block that does arrive is decoded in one piece, and
        // the buffer grows no further than twice what it holds.
        let mut b = NgBuilder::new();
        b.idb();
        b.block(0x0BAD, &vec![7u8; 100_000]);
        b.epb(5, 40);
        let mut s = CaptureStream::new(Trickle(&b.buf)).unwrap();
        assert_eq!(s.next_packet().unwrap().unwrap().size, 40);
        assert!(s.input.buf.len() >= 100_012 && s.input.buf.len() <= 2 * 100_012);
    }

    #[test]
    fn every_call_after_a_fault_advances() {
        // Garbage behind a section header magic, studded with bare SHB
        // magics: each fault is past the last, and the calls end.
        let mut bytes = pcapng::SHB_TYPE.to_le_bytes().to_vec();
        for i in 0..400u32 {
            let word = if i % 7 == 0 {
                pcapng::SHB_TYPE
            } else {
                i.wrapping_mul(0x9e37_79b9)
            };
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        let mut s = CaptureStream::new(bytes.as_slice()).unwrap();
        let mut last = None;
        for _ in 0..=bytes.len() {
            match s.next_packet() {
                Ok(None) => return,
                Ok(Some(_)) => {}
                Err(_) => {
                    assert!(s.fault_offset() > last, "fault did not advance");
                    last = s.fault_offset();
                }
            }
        }
        panic!("no end after {} calls", bytes.len() + 1);
    }
}
