//! # plankton-config
//!
//! The configuration model consumed by the Plankton verifier: per-device
//! OSPF, BGP and static-route configuration, route maps (import/export
//! policy), and the network-wide [`Network`] object that bundles a topology
//! with every device's configuration.
//!
//! The crate also ships [`scenarios`]: ready-made configuration builders for
//! the workloads used in the paper's evaluation (OSPF fat trees with
//! loop-inducing static routes, RFC 7938 BGP data centers, ISP topologies
//! with iBGP over OSPF, enterprise networks with recursive static routes).
//! Examples, integration tests and the benchmark harness all build their
//! networks through these.

pub mod bgp;
pub mod delta;
pub mod device;
pub mod fingerprint;
pub mod network;
pub mod ospf;
pub mod route_map;
pub mod scenarios;
pub mod static_routes;

pub use bgp::{BgpConfig, BgpNeighborConfig, BgpSessionKind};
pub use delta::{ConfigDelta, DeltaError, DeltaTouch};
pub use device::DeviceConfig;
pub use fingerprint::{
    combine, fingerprint_of, Fingerprinter, OspfScopedSlices, SliceMemo, FINGERPRINT_SCHEME_VERSION,
};
pub use network::Network;
pub use ospf::OspfConfig;
pub use route_map::{
    MatchCondition, RouteAttrs, RouteMap, RouteMapAction, RouteMapClause, SetAction,
};
pub use static_routes::{StaticNextHop, StaticRoute};

/// Administrative distances used when combining protocols into a FIB,
/// matching common vendor defaults. Lower wins.
pub mod admin_distance {
    /// Directly connected subnets.
    pub const CONNECTED: u8 = 0;
    /// Static routes.
    pub const STATIC: u8 = 1;
    /// eBGP-learned routes.
    pub const EBGP: u8 = 20;
    /// OSPF-learned routes.
    pub const OSPF: u8 = 110;
    /// iBGP-learned routes.
    pub const IBGP: u8 = 200;
}
