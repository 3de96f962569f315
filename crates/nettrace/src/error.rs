//! Error types for trace construction and I/O.

use std::fmt;
use std::io;

/// Errors produced by trace construction and pcap I/O.
#[derive(Debug)]
pub enum TraceError {
    /// Packet timestamps must be nondecreasing; the offending index and the
    /// two timestamps (previous, current) in microseconds are reported.
    OutOfOrder {
        /// Index of the packet whose timestamp went backwards.
        index: usize,
        /// Timestamp of the preceding packet (µs).
        prev_us: u64,
        /// Timestamp of the offending packet (µs).
        this_us: u64,
    },
    /// An I/O error during capture read/write.
    Io(io::Error),
    /// The stream's magic number is neither a libpcap magic nor the
    /// pcapng section header's, or a pcapng section header carries an
    /// invalid byte-order mark.
    BadMagic(u32),
    /// The capture ended in the middle of a record or block.
    TruncatedRecord {
        /// Number of complete packets read before truncation.
        packets_read: usize,
    },
    /// A record or block declared a length the format does not allow:
    /// a pcap capture length above 256 KiB, or a pcapng block length
    /// outside 12 B–16 MiB (28 B for a section header) or not a
    /// multiple of 4.
    OversizedRecord {
        /// Declared length in bytes.
        caplen: u32,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::OutOfOrder {
                index,
                prev_us,
                this_us,
            } => write!(
                f,
                "packet {index} has timestamp {this_us}us earlier than predecessor {prev_us}us"
            ),
            TraceError::Io(e) => write!(f, "I/O error: {e}"),
            TraceError::BadMagic(m) => {
                write!(f, "not a pcap or pcapng capture (bad magic {m:#010x})")
            }
            TraceError::TruncatedRecord { packets_read } => {
                write!(f, "capture truncated after {packets_read} packets")
            }
            TraceError::OversizedRecord { caplen } => write!(
                f,
                "record length {caplen} is out of range (pcap: at most 256 KiB; \
                 pcapng: 12 B to 16 MiB) or, for pcapng, not a multiple of 4; refusing"
            ),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TraceError::OutOfOrder {
            index: 7,
            prev_us: 100,
            this_us: 50,
        };
        assert!(e.to_string().contains("packet 7"));
        assert!(TraceError::BadMagic(0xdead_beef)
            .to_string()
            .contains("0xdeadbeef"));
        assert!(TraceError::TruncatedRecord { packets_read: 3 }
            .to_string()
            .contains("3 packets"));
        // The capture errors name neither format alone: pcapng faults
        // raise them too.
        for e in [
            TraceError::BadMagic(0xdead_beef),
            TraceError::TruncatedRecord { packets_read: 3 },
            TraceError::OversizedRecord { caplen: 13 },
        ] {
            let msg = e.to_string();
            assert!(!msg.starts_with("pcap "), "{msg}");
            assert!(!msg.contains("not a pcap stream"), "{msg}");
        }
        // A refused length states the rule it broke, not a pcap-only
        // bound it satisfies.
        let msg = TraceError::OversizedRecord { caplen: 13 }.to_string();
        assert!(msg.contains("13") && msg.contains("multiple of 4"), "{msg}");
        assert!(msg.contains("out of range"), "{msg}");
        assert!(!msg.contains("> 256 KiB"), "{msg}");
    }

    #[test]
    fn io_error_source_is_preserved() {
        let e: TraceError = io::Error::new(io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
