//! An empty span tree renders a placeholder table and an empty folded
//! profile.
//!
//! This lives in its own integration-test binary because the tree is
//! process-global: only a process that records no span sees it empty.

#[test]
fn render_tree_handles_empty() {
    assert!(obskit::tree::snapshot().is_empty());
    assert!(obskit::tree::render_tree().contains("no spans"));
    assert!(obskit::tree::render_folded().is_empty());
}
