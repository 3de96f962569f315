//! The multi-tenant interface fleet served by the collector daemon.
//!
//! The paper's backbone has one operator and a fixed set of physical
//! interfaces. The collector service generalizes that to a *fleet*: M
//! tenants (customers of the measurement service) × N virtual interfaces
//! each. The cross product is enumerated as **lanes** — one lane per
//! (tenant, interface) pair, numbered in tenant-major order — and the
//! lane index is the unit the collector shards, samples, and reports on.
//! Lane numbering is purely a function of the fleet definition, never of
//! shard count, which is what lets the daemon keep the bit-identical
//! determinism guarantee at any sharding.

use std::fmt;

/// Hard cap on `tenants × interfaces`: the collector materializes
/// per-lane sampler + window state, so an unbounded fleet is a memory
/// DoS, not a configuration.
pub const MAX_LANES: usize = 4096;

/// Why a fleet definition was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// No tenants were configured.
    NoTenants,
    /// A fleet must expose at least one virtual interface per tenant.
    NoInterfaces,
    /// A tenant id was empty.
    EmptyTenant,
    /// A tenant id contained a byte outside the printable-ASCII set or
    /// one of `"{}\,` (they would need escaping in Prometheus labels and
    /// the JSONL reports).
    BadTenant {
        /// The offending tenant id, lossily printable.
        tenant: String,
    },
    /// The same tenant id appeared twice.
    DuplicateTenant {
        /// The repeated id.
        tenant: String,
    },
    /// A tenant id exceeded [`Fleet::MAX_TENANT_LEN`] bytes.
    TenantTooLong {
        /// Observed length in bytes.
        len: usize,
    },
    /// `tenants × interfaces` exceeded [`MAX_LANES`].
    TooManyLanes {
        /// The requested lane count.
        lanes: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoTenants => write!(f, "fleet has no tenants"),
            FleetError::NoInterfaces => write!(f, "fleet has no interfaces"),
            FleetError::EmptyTenant => write!(f, "empty tenant id"),
            FleetError::BadTenant { tenant } => {
                write!(f, "tenant id {tenant:?} has non-label-safe bytes")
            }
            FleetError::DuplicateTenant { tenant } => {
                write!(f, "duplicate tenant id {tenant:?}")
            }
            FleetError::TenantTooLong { len } => {
                write!(
                    f,
                    "tenant id is {len} bytes (max {})",
                    Fleet::MAX_TENANT_LEN
                )
            }
            FleetError::TooManyLanes { lanes } => {
                write!(f, "{lanes} lanes exceed the {MAX_LANES}-lane cap")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// One (tenant, interface) pair, with its fleet-wide lane index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Lane {
    /// Index into [`Fleet::tenants`].
    pub tenant: u32,
    /// Virtual interface index within the tenant, `0..interfaces`.
    pub interface: u32,
    /// Tenant-major fleet-wide index: `tenant * interfaces + interface`.
    pub lane: u32,
}

/// A validated fleet: M tenants × N virtual interfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fleet {
    tenants: Vec<String>,
    interfaces: u32,
}

impl Fleet {
    /// Longest accepted tenant id, in bytes.
    pub const MAX_TENANT_LEN: usize = 64;

    /// Validate and build a fleet. Tenant ids must be non-empty,
    /// unique, at most [`Self::MAX_TENANT_LEN`] bytes, and restricted to
    /// printable ASCII minus `"{}\,` so they can be embedded verbatim in
    /// Prometheus label values and JSONL.
    pub fn new<S: Into<String>>(
        tenants: impl IntoIterator<Item = S>,
        interfaces: u32,
    ) -> Result<Self, FleetError> {
        let tenants: Vec<String> = tenants.into_iter().map(Into::into).collect();
        check_shape(tenants.len() as u64, interfaces)?;
        for (i, t) in tenants.iter().enumerate() {
            if t.is_empty() {
                return Err(FleetError::EmptyTenant);
            }
            if t.len() > Self::MAX_TENANT_LEN {
                return Err(FleetError::TenantTooLong { len: t.len() });
            }
            if t.bytes().any(|b| {
                !(0x21..=0x7e).contains(&b) || matches!(b, b'"' | b'{' | b'}' | b'\\' | b',')
            }) {
                return Err(FleetError::BadTenant { tenant: t.clone() });
            }
            if tenants[..i].contains(t) {
                return Err(FleetError::DuplicateTenant { tenant: t.clone() });
            }
        }
        Ok(Fleet {
            tenants,
            interfaces,
        })
    }

    /// Convenience constructor: `tenants` anonymous ids `t0..t{n-1}`.
    /// The shape is checked before any id is formatted.
    pub fn anonymous(tenants: u32, interfaces: u32) -> Result<Self, FleetError> {
        check_shape(u64::from(tenants), interfaces)?;
        Fleet::new((0..tenants).map(|t| format!("t{t}")), interfaces)
    }

    /// The tenant ids, in declaration order.
    #[must_use]
    pub fn tenants(&self) -> &[String] {
        &self.tenants
    }

    /// Virtual interfaces per tenant.
    #[must_use]
    pub fn interfaces(&self) -> u32 {
        self.interfaces
    }

    /// Total lane count (`tenants × interfaces`).
    #[must_use]
    pub fn lane_count(&self) -> u32 {
        self.tenants.len() as u32 * self.interfaces
    }

    /// Enumerate every lane in tenant-major order. The order is the
    /// collector's canonical merge order and must never depend on shard
    /// count.
    pub fn lanes(&self) -> impl Iterator<Item = Lane> + '_ {
        let ifs = self.interfaces;
        (0..self.tenants.len() as u32).flat_map(move |tenant| {
            (0..ifs).map(move |interface| Lane {
                tenant,
                interface,
                lane: tenant * ifs + interface,
            })
        })
    }

    /// The tenant id for a lane's tenant index.
    #[must_use]
    pub fn tenant_name(&self, tenant: u32) -> &str {
        &self.tenants[tenant as usize]
    }
}

/// The fleet's shape: at least one tenant and one interface, and at
/// most [`MAX_LANES`] lanes. Checked from the two counts alone, so a
/// hostile count is rejected before any tenant id is built or compared.
fn check_shape(tenants: u64, interfaces: u32) -> Result<(), FleetError> {
    if tenants == 0 {
        return Err(FleetError::NoTenants);
    }
    if interfaces == 0 {
        return Err(FleetError::NoInterfaces);
    }
    let lanes = tenants.saturating_mul(u64::from(interfaces));
    if lanes > MAX_LANES as u64 {
        return Err(FleetError::TooManyLanes {
            lanes: usize::try_from(lanes).unwrap_or(usize::MAX),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_enumerate_in_tenant_major_order() {
        let f = Fleet::anonymous(2, 3).unwrap();
        let lanes: Vec<Lane> = f.lanes().collect();
        assert_eq!(lanes.len(), 6);
        assert_eq!(f.lane_count(), 6);
        for (i, l) in lanes.iter().enumerate() {
            assert_eq!(l.lane, i as u32);
            assert_eq!(l.tenant, i as u32 / 3);
            assert_eq!(l.interface, i as u32 % 3);
        }
        assert_eq!(f.tenant_name(1), "t1");
    }

    #[test]
    fn hostile_fleets_get_typed_errors() {
        assert_eq!(
            Fleet::new(Vec::<String>::new(), 1).unwrap_err(),
            FleetError::NoTenants
        );
        assert_eq!(Fleet::new(["a"], 0).unwrap_err(), FleetError::NoInterfaces);
        assert_eq!(Fleet::new([""], 1).unwrap_err(), FleetError::EmptyTenant);
        assert!(matches!(
            Fleet::new(["ok", "with space"], 1).unwrap_err(),
            FleetError::BadTenant { .. }
        ));
        assert!(matches!(
            Fleet::new(["quote\""], 1).unwrap_err(),
            FleetError::BadTenant { .. }
        ));
        assert!(matches!(
            Fleet::new(["dup", "dup"], 1).unwrap_err(),
            FleetError::DuplicateTenant { .. }
        ));
        assert!(matches!(
            Fleet::new([String::from_utf8(vec![b'x'; 65]).unwrap()], 1).unwrap_err(),
            FleetError::TenantTooLong { len: 65 }
        ));
        assert!(matches!(
            Fleet::anonymous(100, 100).unwrap_err(),
            FleetError::TooManyLanes { lanes: 10_000 }
        ));
    }

    #[test]
    fn lane_cap_is_checked_before_any_tenant_id() {
        // Formatting or scanning 2^32 - 1 ids would take minutes and
        // gigabytes before the cap applied.
        assert!(matches!(
            Fleet::anonymous(u32::MAX, 1).unwrap_err(),
            FleetError::TooManyLanes {
                lanes: 4_294_967_295
            }
        ));
        assert_eq!(
            Fleet::anonymous(u32::MAX, 0).unwrap_err(),
            FleetError::NoInterfaces
        );
        assert!(matches!(
            Fleet::new(vec![""; MAX_LANES + 1], 1).unwrap_err(),
            FleetError::TooManyLanes { lanes: 4_097 }
        ));
        assert_eq!(
            Fleet::anonymous(MAX_LANES as u32, 1).unwrap().lane_count(),
            4_096
        );
    }

    #[test]
    fn non_ascii_tenant_is_rejected_not_panicked() {
        assert!(matches!(
            Fleet::new(["héllo"], 1).unwrap_err(),
            FleetError::BadTenant { .. }
        ));
    }
}
