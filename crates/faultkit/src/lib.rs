//! # faultkit — deterministic fault injection for the ingestion path
//!
//! The workspace's statistics are only as trustworthy as the bytes they
//! ingest: a parser that panics on a truncated capture, or a sampler
//! that hangs on an adversarial timestamp, poisons every number
//! downstream. This crate hardens those boundaries with two
//! seed-deterministic harnesses:
//!
//! * **Mutation campaigns** ([`campaign`]): byte-level corruption of
//!   *valid* pcap/pcapng corpora — bit flips, truncation at every block
//!   boundary, length-field corruption, byte-order swaps — driven
//!   through the strict reader ([`nettrace::read_capture`]) and the
//!   lossy salvage path ([`nettrace::read_capture_lossy`]). The contract
//!   under test: every input yields a typed [`nettrace::TraceError`] or
//!   a valid trace, never a panic, and a corrupted length field never
//!   drives an allocation past the bytes actually present.
//! * **State-machine fuzzing** ([`statefuzz`]): `offer` sequences with
//!   adversarial timestamps (zero, equal runs, `u64::MAX`,
//!   non-monotone) through all eight samplers, plus degenerate-bin
//!   inputs through [`sampling::disparity`]. The contract: no panic, no
//!   hang, determinism under `reset`, and φ finite in `[0, √2]`.
//!
//! Everything is a pure function of the configured seed: two runs with
//! the same seed produce byte-identical reports (a stable `digest`
//! makes that cheap to assert), so the CI fuzz stage is reproducible
//! and an overnight finding replays from its case number alone. No
//! wall-clock, no global state, no network — std and the in-tree
//! [`rand`] shim only.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod corpus;
pub mod mutate;
pub mod statefuzz;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport};
pub use corpus::Corpus;
pub use mutate::Mutation;
pub use statefuzz::{run_state_fuzz, StateFuzzConfig, StateFuzzReport};

/// A single contract violation uncovered by a harness: enough context
/// to replay the case from the seed alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Harness-local case number (replay: same seed, same case).
    pub case_id: u64,
    /// Which harness/corpus produced it (e.g. `"pcap"`, `"sampler"`).
    pub source: String,
    /// What was violated, with the observed evidence.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} case {}] {}", self.source, self.case_id, self.detail)
    }
}

/// Extract a printable message from a caught panic payload.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// FNV-1a accumulator: a tiny order-sensitive digest over each case's
/// classification, so "two runs saw exactly the same outcomes" is one
/// integer comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a `u64` into the digest (little-endian bytes).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The digest value so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::new();
        a.update(b"ok");
        a.update_u64(7);
        let mut b = Digest::new();
        b.update(b"ok");
        b.update_u64(7);
        assert_eq!(a.finish(), b.finish());
        let mut c = Digest::new();
        c.update_u64(7);
        c.update(b"ok");
        assert_ne!(a.finish(), c.finish());
        // Known FNV-1a vector: empty input is the offset basis.
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
