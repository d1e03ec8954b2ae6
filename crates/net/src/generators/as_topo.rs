//! Synthetic ISP (AS) topology generator.
//!
//! The paper evaluates on six RocketFuel-measured AS topologies (AS 1221,
//! 1239, 1755, 3257, 3967, 6461) with their inferred OSPF link weights. The
//! measured topologies are not redistributable, so this module generates
//! *synthetic* ISP topologies with the same router counts and a similar
//! two-tier structure: a densely connected backbone plus access routers
//! multihomed to the backbone, with heterogeneous link weights. This
//! preserves what the experiments exercise — many destination prefixes, many
//! alternative weighted paths, and meaningful single-link failures — without
//! the original data.

use crate::ip::{Ipv4Addr, Prefix};
use crate::topology::{NodeId, Topology, TopologyBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for the synthetic AS generator.
#[derive(Clone, Debug)]
pub struct AsTopologySpec {
    /// A label for reporting (e.g. "AS1221").
    pub name: String,
    /// Total number of routers.
    pub routers: usize,
    /// Fraction of routers that form the backbone (clamped to at least 3).
    pub backbone_fraction: f64,
    /// Average number of backbone attachments per access router.
    pub access_multihoming: usize,
    /// RNG seed so experiments are reproducible.
    pub seed: u64,
}

impl AsTopologySpec {
    /// A spec named after one of the paper's RocketFuel ASes, at the same
    /// router count used in Figure 7(g) where reported (AS 1221 = 108
    /// routers, AS 1755 = 87) and at RocketFuel's published reduced sizes
    /// for the others.
    pub fn paper_as(asn: u32) -> AsTopologySpec {
        let (routers, seed) = match asn {
            1221 => (108, 1221),
            1239 => (315, 1239),
            1755 => (87, 1755),
            3257 => (161, 3257),
            3967 => (79, 3967),
            6461 => (141, 6461),
            other => (100 + (other % 100) as usize, other as u64),
        };
        AsTopologySpec {
            name: format!("AS{asn}"),
            routers,
            backbone_fraction: 0.25,
            access_multihoming: 2,
            seed,
        }
    }

    /// The six ASes used in the paper's Figures 7(d), 7(e) and 7(g).
    pub fn paper_set() -> Vec<AsTopologySpec> {
        [1221u32, 1239, 1755, 3257, 3967, 6461]
            .iter()
            .map(|&a| AsTopologySpec::paper_as(a))
            .collect()
    }

    /// A scale spec past the paper's largest measured AS (315 routers):
    /// `routers` routers with the same two-tier backbone/access structure,
    /// for the AS-scale benchmark tier. Deterministic per router count.
    pub fn scale(routers: usize) -> AsTopologySpec {
        AsTopologySpec {
            name: format!("ISP-{routers}"),
            routers,
            backbone_fraction: 0.25,
            access_multihoming: 2,
            seed: 0x5CA1E | routers as u64,
        }
    }
}

/// A generated ISP topology.
#[derive(Clone, Debug)]
pub struct AsTopology {
    /// Label from the spec.
    pub name: String,
    /// The router-level topology.
    pub topology: Topology,
    /// Backbone routers.
    pub backbone: Vec<NodeId>,
    /// Access (edge) routers.
    pub access: Vec<NodeId>,
    /// OSPF link weights, indexed by link id.
    pub link_weights: Vec<u32>,
    /// The customer prefix originated by each access router (parallel to
    /// `access`).
    pub access_prefixes: Vec<Prefix>,
}

impl AsTopology {
    /// The OSPF weight of a link.
    pub fn weight(&self, link: crate::topology::LinkId) -> u32 {
        self.link_weights[link.index()]
    }

    /// An ingress router with more than one incident link (as the paper's
    /// Figure 7(d) experiment requires). Deterministic for a given topology.
    pub fn multi_homed_ingress(&self) -> NodeId {
        self.access
            .iter()
            .chain(self.backbone.iter())
            .copied()
            .find(|&n| self.topology.degree(n) > 1)
            .expect("every generated AS has a multi-homed router")
    }
}

/// Generate a synthetic ISP topology from a spec.
pub fn as_topology(spec: &AsTopologySpec) -> AsTopology {
    assert!(spec.routers >= 5, "AS topologies need at least 5 routers");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut b = TopologyBuilder::new();

    let backbone_count = ((spec.routers as f64 * spec.backbone_fraction) as usize).max(3);
    let access_count = spec.routers - backbone_count;

    let backbone: Vec<NodeId> = (0..backbone_count)
        .map(|i| b.add_router(&format!("{}-bb{i}", spec.name)))
        .collect();
    let access: Vec<NodeId> = (0..access_count)
        .map(|i| b.add_router(&format!("{}-ar{i}", spec.name)))
        .collect();
    for (i, &n) in backbone.iter().chain(access.iter()).enumerate() {
        b.set_loopback(
            n,
            Ipv4Addr::new(172, 30, (i / 250) as u8, (i % 250 + 1) as u8),
        );
    }

    let mut link_weights = Vec::new();

    // Backbone: a ring for 2-connectivity plus random chords (~degree 4).
    for i in 0..backbone_count {
        b.add_link(backbone[i], backbone[(i + 1) % backbone_count]);
        link_weights.push(rng.gen_range(1..=10));
    }
    let chords = backbone_count; // roughly one extra chord per backbone router
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < chords && attempts < chords * 20 {
        attempts += 1;
        let i = rng.gen_range(0..backbone_count);
        let j = rng.gen_range(0..backbone_count);
        if i == j {
            continue;
        }
        // Avoid duplicating ring edges; parallel chords are fine to skip too.
        let (lo, hi) = (i.min(j), i.max(j));
        if hi - lo == 1 || (lo == 0 && hi == backbone_count - 1) {
            continue;
        }
        b.add_link(backbone[i], backbone[j]);
        link_weights.push(rng.gen_range(1..=10));
        added += 1;
    }

    // Access routers: multihomed to `access_multihoming` distinct backbone
    // routers (at least one).
    let mut access_prefixes = Vec::with_capacity(access_count);
    for (idx, &ar) in access.iter().enumerate() {
        let homes = spec.access_multihoming.max(1).min(backbone_count);
        let mut chosen = Vec::new();
        while chosen.len() < homes {
            let bb = backbone[rng.gen_range(0..backbone_count)];
            if !chosen.contains(&bb) {
                chosen.push(bb);
            }
        }
        for bb in chosen {
            b.add_link(ar, bb);
            link_weights.push(rng.gen_range(1..=20));
        }
        let hi = (idx / 250) as u8;
        let lo = (idx % 250) as u8;
        access_prefixes.push(Prefix::new(Ipv4Addr::new(20, hi, lo, 0), 24));
    }

    let topology = b.build();
    debug_assert_eq!(link_weights.len(), topology.link_count());

    AsTopology {
        name: spec.name.clone(),
        topology,
        backbone,
        access,
        link_weights,
        access_prefixes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn paper_as_sizes() {
        let t = as_topology(&AsTopologySpec::paper_as(1221));
        assert_eq!(t.topology.node_count(), 108);
        let t = as_topology(&AsTopologySpec::paper_as(1755));
        assert_eq!(t.topology.node_count(), 87);
    }

    #[test]
    fn generated_as_is_connected() {
        for spec in AsTopologySpec::paper_set() {
            let t = as_topology(&spec);
            assert!(t.topology.is_connected(), "{} disconnected", t.name);
            assert_eq!(t.link_weights.len(), t.topology.link_count());
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = as_topology(&AsTopologySpec::paper_as(3967));
        let b = as_topology(&AsTopologySpec::paper_as(3967));
        assert_eq!(a.topology.node_count(), b.topology.node_count());
        assert_eq!(a.topology.link_count(), b.topology.link_count());
        assert_eq!(a.link_weights, b.link_weights);
    }

    #[test]
    fn access_prefixes_unique_and_weighted() {
        let t = as_topology(&AsTopologySpec::paper_as(6461));
        let set: HashSet<_> = t.access_prefixes.iter().collect();
        assert_eq!(set.len(), t.access_prefixes.len());
        assert!(t.link_weights.iter().all(|&w| w >= 1));
    }

    #[test]
    fn multi_homed_ingress_has_degree_over_one() {
        let t = as_topology(&AsTopologySpec::paper_as(1221));
        assert!(t.topology.degree(t.multi_homed_ingress()) > 1);
    }

    #[test]
    fn access_routers_are_multihomed() {
        let t = as_topology(&AsTopologySpec::paper_as(1221));
        for &ar in &t.access {
            assert!(t.topology.degree(ar) >= 2, "access router not multihomed");
        }
    }

    #[test]
    fn scale_spec_generates_connected_thousand_router_as() {
        let t = as_topology(&AsTopologySpec::scale(1000));
        assert_eq!(t.topology.node_count(), 1000);
        assert!(t.topology.is_connected(), "scale AS disconnected");
        assert_eq!(t.link_weights.len(), t.topology.link_count());
    }
}
