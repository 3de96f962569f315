//! Reproduction harness for every table and figure of the paper.
//!
//! Each experiment lives in [`experiments`] as a function that renders
//! its table/series as text; the `src/bin/*` binaries are thin wrappers
//! (one per table/figure, per DESIGN.md's experiment index), and
//! `repro_all` runs the full set in order — its output is the source of
//! `EXPERIMENTS.md`.
//!
//! Run with `--release`: the study population is a 1.5-million-packet
//! synthetic hour.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod timing;

use nettrace::Trace;

/// The seed all reproduction binaries use for the study hour, so every
/// experiment runs over the *same* parent population (as the paper's
/// did).
pub const STUDY_SEED: u64 = 1993;

/// Generate the study population: the calibrated synthetic SDSC hour.
#[must_use]
pub fn study_trace() -> Trace {
    netsynth::sdsc_hour(STUDY_SEED)
}

/// Granularities used by the paper's sweeps: powers of two from 2 to
/// 32 768 ("starting at every other packet, and decreasing the fraction
/// down to one in 32,768 packets", §7).
#[must_use]
pub fn paper_granularities() -> Vec<usize> {
    (1..=15).map(|i| 1usize << i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularities_are_the_papers() {
        let ks = paper_granularities();
        assert_eq!(ks.first(), Some(&2));
        assert_eq!(ks.last(), Some(&32_768));
        assert_eq!(ks.len(), 15);
    }
}
