//! Golden digests of the default fault-injection run: the same
//! configuration as `netsample fuzz --seed 1993 --mutations 10000
//! --cases 1000`.
//!
//! Both runs are pure functions of their seed, so their digests pin
//! every case's classification. The mutation digest moves only when a
//! capture decoder classifies damaged bytes differently or the
//! campaign's corpora change; the state-fuzz digest moves when an arm
//! or a fuzzed state machine changes what it reports. A change that
//! moves either says why.

use faultkit::{run_campaign, run_state_fuzz, CampaignConfig, StateFuzzConfig};

const MUTATION_GOLDEN: u64 = 0xd39a_ceda_917b_e57a;
const STATE_FUZZ_GOLDEN: u64 = 0x44d7_e54a_6a94_b90e;

#[test]
fn default_fuzz_runs_are_clean_and_match_the_golden_digests() {
    let campaign = run_campaign(&CampaignConfig::default());
    assert!(
        campaign.findings.is_empty(),
        "mutation findings: {:?}",
        campaign.findings
    );
    assert_eq!(
        campaign.digest, MUTATION_GOLDEN,
        "mutation digest {:016x} differs from the golden value",
        campaign.digest
    );
    let state = run_state_fuzz(&StateFuzzConfig::default());
    assert!(
        state.findings.is_empty(),
        "state-fuzz findings: {:?}",
        state.findings
    );
    assert_eq!(
        state.digest, STATE_FUZZ_GOLDEN,
        "state-fuzz digest {:016x} differs from the golden value",
        state.digest
    );
}
