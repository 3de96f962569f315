//! Deterministic (tenant, interface) → shard routing.
//!
//! The routing key is a splitmix64 finalizer over the packed lane pair,
//! reduced modulo the shard count. Two properties carry the collector's
//! guarantees:
//!
//! * **Pure function of the pair.** The hash never folds in the shard
//!   count, a seed, or anything run-local, so the same fleet routes the
//!   same way in every process — reports can name their shard and two
//!   operators will agree on it.
//! * **Divisibility stability.** Because the reduction is a plain `mod`,
//!   `route(t, i, S) ≡ route(t, i, S') (mod S')` whenever `S'` divides
//!   `S` — halving a deployment's shard count re-groups lanes by folding
//!   shards together instead of reshuffling them, which keeps warm flow
//!   state adjacent. The routing proptest pins this.

use crate::error::CollectError;
use netstat_sim::Fleet;

/// splitmix64 finalizer — the same mix the in-tree `rand` seeds with,
/// reused as a stateless hash.
#[must_use]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Route a (tenant, interface) pair onto one of `shards` shards.
///
/// # Errors
/// [`CollectError::NoShards`] when `shards == 0`.
pub fn route(tenant: u32, interface: u32, shards: u32) -> Result<u32, CollectError> {
    if shards == 0 {
        return Err(CollectError::NoShards);
    }
    let key = splitmix64((u64::from(tenant) << 32) | u64::from(interface));
    Ok((key % u64::from(shards)) as u32)
}

/// A fleet's materialized routing: lane index → shard, plus the static
/// balance diagnostics the telemetry plane publishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingPlan {
    shards: u32,
    /// `assignment[lane] = shard`, lane-indexed (tenant-major).
    assignment: Vec<u32>,
}

impl RoutingPlan {
    /// Route every lane of `fleet` onto `shards` shards.
    ///
    /// # Errors
    /// [`CollectError::NoShards`] when `shards == 0`.
    pub fn new(fleet: &Fleet, shards: u32) -> Result<RoutingPlan, CollectError> {
        if shards == 0 {
            return Err(CollectError::NoShards);
        }
        let assignment = fleet
            .lanes()
            .map(|l| route(l.tenant, l.interface, shards))
            .collect::<Result<Vec<u32>, CollectError>>()?;
        Ok(RoutingPlan { shards, assignment })
    }

    /// Total lanes routed.
    #[must_use]
    pub fn lane_count(&self) -> u32 {
        self.assignment.len() as u32
    }

    /// The shard hosting a lane index; `None` for a lane outside the
    /// fleet.
    #[must_use]
    pub fn shard_of_lane(&self, lane: u32) -> Option<u32> {
        self.assignment.get(lane as usize).copied()
    }

    /// Lane indices hosted by `shard`, ascending — the order a shard
    /// iterates its lanes, fixed by the fleet alone.
    #[must_use]
    pub fn lanes_of(&self, shard: u32) -> Vec<u32> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == shard)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Lanes per shard, shard-indexed.
    #[must_use]
    pub fn loads(&self) -> Vec<u32> {
        let mut loads = vec![0u32; self.shards as usize];
        for &s in &self.assignment {
            loads[s as usize] += 1;
        }
        loads
    }

    /// Static routing imbalance: `max_shard_lanes / mean_shard_lanes`,
    /// scaled ×1000 (1000 = perfectly balanced). Published as the
    /// `collectd_routing_imbalance_x1000` gauge.
    #[must_use]
    pub fn imbalance_x1000(&self) -> u64 {
        let lanes = self.assignment.len() as u64;
        if lanes == 0 {
            return 1000;
        }
        let max = u64::from(self.loads().into_iter().max().unwrap_or(0));
        // max / (lanes / shards) × 1000, in integer math.
        max * u64::from(self.shards) * 1000 / lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shards_is_a_typed_error() {
        assert_eq!(route(0, 0, 0).unwrap_err(), CollectError::NoShards);
        let fleet = Fleet::anonymous(2, 2).unwrap();
        assert_eq!(
            RoutingPlan::new(&fleet, 0).unwrap_err(),
            CollectError::NoShards
        );
    }

    #[test]
    fn plan_matches_the_stateless_route() {
        let fleet = Fleet::anonymous(3, 5).unwrap();
        let plan = RoutingPlan::new(&fleet, 4).unwrap();
        for lane in fleet.lanes() {
            assert_eq!(
                plan.shard_of_lane(lane.lane),
                Some(route(lane.tenant, lane.interface, 4).unwrap())
            );
        }
        assert_eq!(plan.loads().iter().sum::<u32>(), 15);
        assert!(plan.imbalance_x1000() >= 1000);
    }

    #[test]
    fn out_of_fleet_lanes_have_no_shard() {
        let fleet = Fleet::anonymous(2, 2).unwrap();
        let plan = RoutingPlan::new(&fleet, 2).unwrap();
        assert!(plan.shard_of_lane(3).is_some());
        assert_eq!(plan.shard_of_lane(4), None);
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let fleet = Fleet::anonymous(4, 4).unwrap();
        let plan = RoutingPlan::new(&fleet, 1).unwrap();
        assert!(plan.loads() == vec![16]);
        assert_eq!(plan.imbalance_x1000(), 1000);
    }
}
