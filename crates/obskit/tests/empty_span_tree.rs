//! An empty span tree has an empty snapshot and an empty folded
//! profile.
//!
//! This lives in its own integration-test binary because the tree is
//! process-global: only a process that records no span sees it empty.

#[test]
fn empty_tree_renders_nothing() {
    assert!(obskit::tree::snapshot().is_empty());
    assert!(obskit::tree::render_folded().is_empty());
}
