//! netbench: the netsample workspace's benchmark. It times calls into
//! the layers' public entry points from outside, checks every output,
//! and reports end-to-end and per-layer metrics.

pub mod alloc;
pub mod probe;
pub mod report;
pub mod run;
pub mod span;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;
