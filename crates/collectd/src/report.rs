//! Per-tenant window reports, the run summary, and their JSONL forms.
//!
//! The JSONL renderers are byte-deterministic: every field is emitted
//! in a fixed order with `{}`-default float formatting (shortest
//! round-trip representation), so two runs with the same seed — or the
//! same run at different shard counts — byte-diff clean. The ci.sh
//! `collect` stage relies on that. Tenant ids need no escaping: the
//! [`netstat_sim::Fleet`] validation restricts them to label-safe
//! printable ASCII.

use std::fmt::Write as _;

/// One tenant's aggregate over one window, merged across the tenant's
/// lanes in canonical lane order.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantWindowReport {
    /// Window index (== round).
    pub window: u64,
    /// Tenant id.
    pub tenant: String,
    /// Lanes that contributed a closed window.
    pub lanes: u32,
    /// Packets the tenant's lanes offered to their samplers.
    pub packets: u64,
    /// Packets selected by the samplers.
    pub selected: u64,
    /// Packets shed by the tenant's lane queues this window.
    pub shed: u64,
    /// Live flows across the tenant's lanes (budget-bounded).
    pub flows: u64,
    /// Flows whose first packet (SYN) fell in the window.
    pub syn_flows: u64,
    /// Flows the per-lane budgets evicted at the window merge.
    pub evicted_flows: u64,
    /// φ disparity between population and sample histograms (merged
    /// across lanes); `None` for an empty window.
    pub phi: Option<f64>,
    /// Flows observed among the *selected* packets (the sampled table,
    /// which the flow budget does not truncate).
    pub sampled_flows: u64,
    /// Sampled-table flows whose selected packets included a SYN.
    pub sampled_syn_flows: u64,
    /// Naive 1-in-k scaling estimate of the tenant's true flow count
    /// (systematic methods only).
    pub est_flows_naive: Option<f64>,
    /// Chabchoub-style tail-rescaled estimate.
    pub est_flows_tail: Option<f64>,
    /// SYN-count flow estimate.
    pub est_syn_flows: Option<f64>,
}

/// Whole-run summary, emitted as the final JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectorSummary {
    /// Shard count the run used.
    pub shards: u32,
    /// Tenants served.
    pub tenants: u32,
    /// Interfaces per tenant.
    pub interfaces: u32,
    /// Total lanes (tenants × interfaces).
    pub lanes: u32,
    /// Sampling method name.
    pub method: String,
    /// Collector-wide seed.
    pub seed: u64,
    /// Windows the config asked for.
    pub windows_configured: u64,
    /// Windows actually completed (partial drain windows count).
    pub windows_completed: u64,
    /// Per-lane packets per window.
    pub window_packets: u64,
    /// Packets that arrived across all lanes.
    pub ingested: u64,
    /// Packets offered to samplers.
    pub considered: u64,
    /// Packets shed by lane queues. Conservation:
    /// `ingested == considered + shed`.
    pub shed: u64,
    /// Packets selected by samplers.
    pub selected: u64,
    /// Sum of reported per-window flow counts.
    pub flows_reported: u64,
    /// Flows evicted by the per-lane budgets.
    pub evicted_flows: u64,
    /// Peak aggregate live-flow count across rounds — the soak target.
    pub max_live_flows: u64,
    /// Peak single-shard live-flow count.
    pub max_shard_flows: u64,
    /// Static routing imbalance ×1000 (1000 = balanced).
    pub routing_imbalance_x1000: u64,
    /// True when a drain deadline (or source exhaustion) ended the run
    /// before `windows_configured`.
    pub drained: bool,
}

/// `f64 → JSON` with `null` for non-finite values.
fn num(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

/// Render one tenant-window report as a JSONL line (no trailing
/// newline).
#[must_use]
pub fn report_jsonl(r: &TenantWindowReport) -> String {
    let mut s = format!(
        "{{\"window\":{},\"tenant\":\"{}\",\"lanes\":{},\"packets\":{},\"selected\":{},\"shed\":{}",
        r.window, r.tenant, r.lanes, r.packets, r.selected, r.shed
    );
    let _ = write!(
        s,
        ",\"flows\":{},\"syn_flows\":{},\"evicted_flows\":{},\"phi\":{}",
        r.flows,
        r.syn_flows,
        r.evicted_flows,
        num(r.phi)
    );
    let _ = write!(
        s,
        ",\"sampled_flows\":{},\"sampled_syn_flows\":{},\"est_flows_naive\":{},\"est_flows_tail\":{},\"est_syn_flows\":{}}}",
        r.sampled_flows,
        r.sampled_syn_flows,
        num(r.est_flows_naive),
        num(r.est_flows_tail),
        num(r.est_syn_flows)
    );
    s
}

/// Render the run summary as a JSONL line (no trailing newline). The
/// `"summary":true` marker lets consumers split reports from the
/// trailer with a single grep.
#[must_use]
pub fn summary_jsonl(s: &CollectorSummary) -> String {
    let mut out = format!(
        "{{\"summary\":true,\"shards\":{},\"tenants\":{},\"interfaces\":{},\"lanes\":{},\"method\":\"{}\",\"seed\":{}",
        s.shards, s.tenants, s.interfaces, s.lanes, s.method, s.seed
    );
    let _ = write!(
        out,
        ",\"windows_configured\":{},\"windows_completed\":{},\"window_packets\":{}",
        s.windows_configured, s.windows_completed, s.window_packets
    );
    let _ = write!(
        out,
        ",\"ingested\":{},\"considered\":{},\"shed\":{},\"selected\":{}",
        s.ingested, s.considered, s.shed, s.selected
    );
    let _ = write!(
        out,
        ",\"flows_reported\":{},\"evicted_flows\":{},\"max_live_flows\":{},\"max_shard_flows\":{}",
        s.flows_reported, s.evicted_flows, s.max_live_flows, s.max_shard_flows
    );
    let _ = write!(
        out,
        ",\"routing_imbalance_x1000\":{},\"drained\":{}}}",
        s.routing_imbalance_x1000, s.drained
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_line_is_stable_and_null_safe() {
        let r = TenantWindowReport {
            window: 3,
            tenant: "t0".into(),
            lanes: 2,
            packets: 100,
            selected: 10,
            shed: 5,
            flows: 7,
            syn_flows: 4,
            evicted_flows: 0,
            phi: Some(0.25),
            sampled_flows: 6,
            sampled_syn_flows: 2,
            est_flows_naive: Some(60.0),
            est_flows_tail: None,
            est_syn_flows: Some(f64::NAN),
        };
        let line = report_jsonl(&r);
        assert!(line.starts_with("{\"window\":3,\"tenant\":\"t0\""));
        assert!(line.contains("\"phi\":0.25"));
        assert!(line.contains("\"est_flows_tail\":null"));
        assert!(line.contains("\"est_syn_flows\":null"));
        assert_eq!(line, report_jsonl(&r), "rendering is deterministic");
    }

    #[test]
    fn summary_line_carries_the_conservation_fields() {
        let s = CollectorSummary {
            shards: 4,
            tenants: 2,
            interfaces: 4,
            lanes: 8,
            method: "systematic(k=10)".into(),
            seed: 1993,
            windows_configured: 2,
            windows_completed: 2,
            window_packets: 1000,
            ingested: 16_000,
            considered: 12_000,
            shed: 4_000,
            selected: 1_200,
            flows_reported: 800,
            evicted_flows: 0,
            max_live_flows: 400,
            max_shard_flows: 150,
            routing_imbalance_x1000: 1000,
            drained: false,
        };
        let line = summary_jsonl(&s);
        assert!(line.contains("\"summary\":true"));
        assert!(line.contains("\"ingested\":16000,\"considered\":12000,\"shed\":4000"));
        assert!(line.contains("\"drained\":false"));
    }
}
