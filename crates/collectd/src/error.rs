//! Typed collector errors.
//!
//! Everything a hostile configuration or a faulted ingest can provoke
//! surfaces here — the faultkit statefuzz arm drives the collector with
//! garbage tenant ids, zero-interface fleets, zero shards and
//! degenerate window, queue and budget knobs, and asserts it only ever
//! sees these variants, never a panic.

use netstat_sim::FleetError;
use std::fmt;

/// Why the collector refused a configuration or an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectError {
    /// The fleet definition was rejected (hostile tenant ids,
    /// zero-interface configs, lane-cap overflow …).
    Fleet(FleetError),
    /// `shards == 0` — there is nowhere to route a lane.
    NoShards,
    /// A run-shape parameter was degenerate (zero windows, zero window
    /// packets, zero lane queue …); the message names it.
    BadConfig(String),
    /// The sampling method could not be instantiated.
    Build(String),
    /// A replay lane's decoder faulted.
    Trace(String),
    /// The worker pool reported a panicked shard task.
    Pool(String),
    /// The collector already finished; no further rounds can run.
    Finished,
}

impl fmt::Display for CollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectError::Fleet(e) => write!(f, "fleet: {e}"),
            CollectError::NoShards => write!(f, "shard count must be positive"),
            CollectError::BadConfig(msg) => write!(f, "bad collector config: {msg}"),
            CollectError::Build(msg) => write!(f, "sampler build: {msg}"),
            CollectError::Trace(msg) => write!(f, "replay decode: {msg}"),
            CollectError::Pool(msg) => write!(f, "shard pool: {msg}"),
            CollectError::Finished => write!(f, "collector already finished"),
        }
    }
}

impl std::error::Error for CollectError {}

impl From<FleetError> for CollectError {
    fn from(e: FleetError) -> Self {
        CollectError::Fleet(e)
    }
}

impl From<nettrace::TraceError> for CollectError {
    fn from(e: nettrace::TraceError) -> Self {
        CollectError::Trace(e.to_string())
    }
}

impl From<parkit::PoolError> for CollectError {
    fn from(e: parkit::PoolError) -> Self {
        CollectError::Pool(e.to_string())
    }
}
