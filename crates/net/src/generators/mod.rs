//! Topology generators for the evaluation workloads.
//!
//! The paper's evaluation (§5) uses four families of networks:
//!
//! * **fat trees** (synthetic data centers) for the OSPF loop / reachability
//!   and BGP waypoint experiments — [`mod@fat_tree`];
//! * **rings** for the optimization micro-benchmarks (Figure 8) — [`mod@ring`];
//! * **RocketFuel AS topologies** for the failure-tolerance and
//!   iBGP-over-OSPF experiments — the original measured topologies are not
//!   redistributable, so [`as_topo`] generates synthetic ISP topologies at
//!   the same scale (backbone + access tiers, weighted links);
//! * **real-world enterprise configurations** (Figures 7(h), 7(i)) — also
//!   unavailable, substituted by [`enterprise`]'s campus-style networks.
//!
//! Generators return a [`Topology`](crate::topology::Topology) together with
//! structural metadata (which nodes are core/aggregation/edge, etc.) that the
//! configuration builders in higher crates use to assign protocols and
//! addresses.

pub mod as_topo;
pub mod enterprise;
pub mod fat_tree;
pub mod ring;

pub use as_topo::{as_topology, AsTopology, AsTopologySpec};
pub use enterprise::{enterprise_network, EnterpriseNetwork, EnterpriseSpec};
pub use fat_tree::{fat_tree, FatTree};
pub use ring::{ring, RingNetwork};
