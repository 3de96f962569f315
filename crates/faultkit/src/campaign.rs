//! Mutation campaigns over the capture readers.
//!
//! Every case builds a corrupted image from a valid corpus, then holds
//! the readers to their contract:
//!
//! * the strict reader ([`nettrace::read_capture`]) returns a typed
//!   [`TraceError`] or a valid [`Trace`] — never a panic;
//! * the lossy reader ([`nettrace::read_capture_lossy`]) never fails on
//!   an in-memory image: it reports a consistent salvage
//!   (`bytes_consumed ≤ total`, `packets_salvaged = trace.len()`, fault
//!   offsets within the image and strictly increasing);
//! * the fault policy holds. All three entry points run one decoder, so
//!   the campaign checks that each loop applies its policy: strict
//!   reading is salvage that stops at the first fault (same verdict,
//!   error, offset, and packets read before it), the image is clean
//!   exactly when the strict read succeeds (and then both yield the same
//!   packets), and the sorted per-packet [`nettrace::CaptureStream`]
//!   pull is the strict read.
//!
//! The campaign is a pure function of the seed; its [`Digest`] folds
//! every case's classification so cross-run identity is one comparison.

use crate::corpus::{pcap_corpus, pcapng_corpus, pcapng_sections_corpus, Corpus};
use crate::mutate::Mutation;
use crate::{Digest, Finding};
use nettrace::error::TraceError;
use nettrace::trace::Trace;
use nettrace::{CaptureStream, IngestReport, PacketRecord};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutation-campaign knobs.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Master seed; everything below derives from it.
    pub seed: u64,
    /// Random mutation cases for every two corpora: each corpus gets
    /// half of them (the structured truncation sweep over every corpus
    /// boundary runs in addition to these).
    pub iterations: u32,
    /// Packets per generated corpus.
    pub corpus_packets: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 1993,
            iterations: 10_000,
            corpus_packets: 60,
        }
    }
}

/// Outcome of a mutation campaign.
#[derive(Debug)]
pub struct CampaignReport {
    /// Total cases executed (boundary sweep + random mutations).
    pub cases: u64,
    /// Classification → count, e.g. `"pcap/ok"`, `"pcapng/truncated"`.
    pub outcomes: BTreeMap<String, u64>,
    /// Contract violations; empty on a healthy tree.
    pub findings: Vec<Finding>,
    /// Order-sensitive digest over every case's classification — equal
    /// digests mean byte-identical campaigns.
    pub digest: u64,
}

/// Stable short name for a strict-read outcome.
fn classify(result: &Result<Trace, TraceError>) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(e) => classify_error(e),
    }
}

/// Stable short name for a [`TraceError`] variant.
fn classify_error(error: &TraceError) -> &'static str {
    match error {
        TraceError::BadMagic(_) => "bad_magic",
        TraceError::TruncatedRecord { .. } => "truncated",
        TraceError::OversizedRecord { .. } => "oversized",
        TraceError::Io(_) => "io",
        _ => "other",
    }
}

struct Campaign {
    outcomes: BTreeMap<String, u64>,
    findings: Vec<Finding>,
    digest: Digest,
    cases: u64,
}

/// A per-packet [`CaptureStream`] pull up to its first fault: the
/// packets, or the fault with its offset and the packets read before it.
type Pull = Result<Vec<PacketRecord>, (TraceError, u64, usize)>;

fn pull(image: &[u8]) -> Pull {
    let mut stream = CaptureStream::new(image).map_err(|e| (e, 0, 0))?;
    let mut packets = Vec::new();
    loop {
        match stream.next_packet() {
            Ok(Some(packet)) => packets.push(packet),
            Ok(None) => return Ok(packets),
            Err(e) => {
                let offset = stream.fault_offset().unwrap_or(u64::MAX);
                return Err((e, offset, stream.packets_read()));
            }
        }
    }
}

/// Run one reader, recording a panic as a violation.
fn guarded<T>(reader: &str, violations: &mut Vec<String>, read: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(read))
        .map_err(|panic| {
            violations.push(format!(
                "{reader} reader panicked: {}",
                crate::panic_message(&*panic)
            ));
        })
        .ok()
}

/// The salvage report is internally consistent.
fn check_report(report: &IngestReport, violations: &mut Vec<String>) {
    if report.bytes_consumed > report.bytes_total {
        violations.push(format!(
            "lossy consumed {} of {} bytes",
            report.bytes_consumed, report.bytes_total
        ));
    }
    if report.packets_salvaged != report.trace.len() {
        violations.push(format!(
            "salvage count {} != trace length {}",
            report.packets_salvaged,
            report.trace.len()
        ));
    }
    for fault in &report.faults {
        if fault.offset > report.bytes_total {
            violations.push(format!(
                "fault offset {} beyond image of {} bytes",
                fault.offset, report.bytes_total
            ));
        }
    }
    for pair in report.faults.windows(2) {
        if pair[0].offset >= pair[1].offset {
            violations.push(format!(
                "fault offsets not strictly increasing: {} then {}",
                pair[0].offset, pair[1].offset
            ));
        }
    }
}

/// The fault policy: strict reading is salvage stopped at its first
/// fault, and the sorted stream pull is the strict read.
fn check_policy(
    strict: &Result<Trace, TraceError>,
    report: &IngestReport,
    pulled: &Pull,
    violations: &mut Vec<String>,
) {
    match (strict, report.first_fault(), pulled) {
        (Ok(trace), None, Ok(packets)) => {
            if report.trace.packets() != trace.packets() {
                violations.push(format!(
                    "strict read {} packets, a clean salvage {} others",
                    trace.len(),
                    report.packets_salvaged
                ));
            }
            if Trace::from_unordered(packets.clone()).packets() != trace.packets() {
                violations.push(format!(
                    "stream read {} packets that differ from strict's {}",
                    packets.len(),
                    trace.len()
                ));
            }
        }
        (Err(error), Some(first), Err((stream_error, offset, read))) => {
            let (strict_err, salvage_err, stream_err) = (
                format!("{error:?}"),
                format!("{:?}", first.error),
                format!("{stream_error:?}"),
            );
            if strict_err != salvage_err || strict_err != stream_err {
                violations.push(format!(
                    "strict failed with {strict_err}, salvage with {salvage_err}, \
                     stream with {stream_err}"
                ));
            }
            if first.offset != *offset {
                violations.push(format!(
                    "salvage's first fault at byte {} but strict's at {offset}",
                    first.offset
                ));
            }
            if report.packets_salvaged < *read {
                violations.push(format!(
                    "salvaged {} packets, strict read {read} before its fault",
                    report.packets_salvaged
                ));
            }
        }
        (strict, first, pulled) => violations.push(format!(
            "verdicts disagree: strict {}, salvage {}, stream {}",
            classify(strict),
            first.map_or("ok", |f| classify_error(&f.error)),
            pulled
                .as_ref()
                .map_or_else(|(e, ..)| classify_error(e), |_| "ok"),
        )),
    }
}

impl Campaign {
    fn run_case(&mut self, source: &str, image: &[u8], what: &str) {
        let case_id = self.cases;
        self.cases += 1;
        let mut violations = Vec::new();

        let strict = guarded("strict", &mut violations, || nettrace::read_capture(image));
        let class = strict.as_ref().map_or("panic", classify);
        *self
            .outcomes
            .entry(format!("{source}/{class}"))
            .or_insert(0) += 1;
        self.digest.update(source.as_bytes());
        self.digest.update(class.as_bytes());

        let lossy = guarded("lossy", &mut violations, || {
            nettrace::read_capture_lossy(image)
        });
        match &lossy {
            Some(Ok(report)) => {
                check_report(report, &mut violations);
                self.digest.update_u64(report.packets_salvaged as u64);
                self.digest.update_u64(report.bytes_consumed);
                self.digest.update_u64(report.faults.len() as u64);
            }
            Some(Err(e)) => {
                violations.push(format!("lossy read of an in-memory image failed: {e}"))
            }
            None => {}
        }

        let pulled = guarded("streaming", &mut violations, || pull(image));
        if let Some(pulled) = &pulled {
            self.digest
                .update_u64(pulled.as_ref().map_or(u64::MAX, |p| p.len() as u64));
        }

        if let (Some(strict), Some(Ok(report)), Some(pulled)) = (&strict, &lossy, &pulled) {
            check_policy(strict, report, pulled, &mut violations);
        }
        self.findings
            .extend(violations.into_iter().map(|detail| Finding {
                case_id,
                source: source.to_string(),
                detail: format!("{detail} ({what})"),
            }));
    }
}

/// Run the full campaign: a truncation sweep at (and adjacent to) every
/// structure boundary of every corpus, then random mutation cases taking
/// the corpora in turn, `iterations / 2` for each. The corpora are
/// classic pcap, one pcapng section, and three pcapng sections whose
/// clocks restart, so the strict read merges them while the policy
/// check sorts the stream pull with [`Trace::from_unordered`].
#[must_use]
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let _span = obskit::span("faultkit_campaign");
    let corpora: [Corpus; 3] = [
        pcap_corpus(cfg.seed, cfg.corpus_packets),
        pcapng_corpus(cfg.seed, cfg.corpus_packets),
        pcapng_sections_corpus(cfg.seed, cfg.corpus_packets, 3),
    ];
    let mut campaign = Campaign {
        outcomes: BTreeMap::new(),
        findings: Vec::new(),
        digest: Digest::new(),
        cases: 0,
    };

    // Structured sweep: truncate at every boundary and one byte to
    // either side — the exact cuts a crashed capture process produces.
    for corpus in &corpora {
        for &b in &corpus.boundaries {
            for cut in [b.saturating_sub(1), b, b + 1] {
                if cut <= corpus.bytes.len() {
                    campaign.run_case(
                        corpus.name,
                        &corpus.bytes[..cut],
                        &format!("truncate->{cut}"),
                    );
                }
            }
        }
    }

    // Random mutation phase: 1–3 stacked mutations per case.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for i in 0..cfg.iterations as usize * corpora.len() / 2 {
        let corpus = &corpora[i % corpora.len()];
        let mut image = corpus.bytes.clone();
        let count = rng.random_range(1u32..=3);
        let described: Vec<String> = (0..count)
            .map(|_| {
                let m = Mutation::draw(&mut rng, image.len());
                m.apply(&mut image);
                m.to_string()
            })
            .collect();
        campaign.run_case(corpus.name, &image, &described.join("+"));
    }

    obskit::counter("faultkit_campaign_cases_total").add(campaign.cases);
    obskit::counter("faultkit_campaign_findings_total").add(campaign.findings.len() as u64);
    CampaignReport {
        cases: campaign.cases,
        outcomes: campaign.outcomes,
        findings: campaign.findings,
        digest: campaign.digest.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampaignConfig {
        CampaignConfig {
            seed: 42,
            iterations: 400,
            corpus_packets: 20,
        }
    }

    #[test]
    fn campaign_finds_nothing_on_a_healthy_tree() {
        let report = run_campaign(&small());
        assert!(
            report.findings.is_empty(),
            "campaign found real bugs:\n{}",
            report
                .findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.cases > 400, "sweep cases missing: {}", report.cases);
    }

    #[test]
    fn campaign_is_bit_identical_across_runs() {
        let a = run_campaign(&small());
        let b = run_campaign(&small());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.cases, b.cases);
        let c = run_campaign(&CampaignConfig {
            seed: 43,
            ..small()
        });
        assert_ne!(a.digest, c.digest, "digest must track the seed");
    }

    #[test]
    fn campaign_exercises_every_outcome_class() {
        let report = run_campaign(&small());
        let classes: Vec<&str> = report
            .outcomes
            .keys()
            .map(|k| k.split('/').nth(1).expect("source/class"))
            .collect();
        for want in ["ok", "bad_magic", "truncated"] {
            assert!(classes.contains(&want), "missing class {want}: {classes:?}");
        }
        // Every corpus ran.
        for source in ["pcap/", "pcapng/", "pcapng-sections/"] {
            assert!(report.outcomes.keys().any(|k| k.starts_with(source)));
        }
    }
}
