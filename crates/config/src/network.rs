//! The network-wide configuration object: a topology plus the configuration
//! of every device on it. This is the input to the Plankton verifier.

use crate::device::DeviceConfig;
use plankton_net::ip::Prefix;
use plankton_net::topology::{LinkId, NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A complete network: topology + per-device configuration.
///
/// Serializable with serde, so a `Network` doubles as Plankton's on-disk
/// configuration format (JSON via `serde_json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Network {
    /// The physical topology.
    pub topology: Topology,
    /// Per-device configuration, indexed by [`NodeId`].
    pub devices: Vec<DeviceConfig>,
    /// Links that are administratively down (a link-down delta in the
    /// incremental service, or a drained node's incident links). Downed
    /// links keep their [`LinkId`] — the verifier treats them as failed in
    /// every explored failure scenario, so protocol adjacency never forms
    /// over them. Absent in older documents (defaults to empty).
    #[serde(default)]
    pub down_links: Vec<LinkId>,
}

/// A problem found by [`Network::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The device vector length does not match the topology.
    DeviceCountMismatch {
        /// Devices in the topology.
        nodes: usize,
        /// Entries in the configuration.
        configs: usize,
    },
    /// A BGP neighbor statement points at a node that does not exist.
    UnknownBgpPeer {
        /// The misconfigured device.
        device: NodeId,
        /// The nonexistent peer.
        peer: NodeId,
    },
    /// An eBGP session is configured between devices that are not physically
    /// adjacent (Plankton models single-hop eBGP).
    EbgpPeerNotAdjacent {
        /// The misconfigured device.
        device: NodeId,
        /// The non-adjacent peer.
        peer: NodeId,
    },
    /// An iBGP session peers with a device that has no loopback address, so
    /// the session endpoints cannot be resolved through the IGP.
    IbgpPeerWithoutLoopback {
        /// The misconfigured device.
        device: NodeId,
        /// The peer missing a loopback.
        peer: NodeId,
    },
    /// A static route names a next-hop node that is not adjacent.
    StaticNextHopNotAdjacent {
        /// The misconfigured device.
        device: NodeId,
        /// The non-adjacent next hop.
        next_hop: NodeId,
    },
    /// BGP multipath is configured but unsupported by the verifier (§6).
    BgpMultipathUnsupported {
        /// The device with multipath configured.
        device: NodeId,
    },
    /// An OSPF interface cost is 0. RFC 2328 (App. C.3) requires costs
    /// greater than 0, and the OSPF reduction's shortest-path argument needs
    /// it: at cost 0 it can miss the converged state.
    ZeroOspfCost {
        /// The misconfigured device.
        device: NodeId,
        /// The link with cost 0.
        link: LinkId,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::DeviceCountMismatch { nodes, configs } => {
                write!(f, "{configs} device configs for {nodes} topology nodes")
            }
            ConfigError::UnknownBgpPeer { device, peer } => {
                write!(f, "{device} has a BGP neighbor {peer} that does not exist")
            }
            ConfigError::EbgpPeerNotAdjacent { device, peer } => {
                write!(f, "{device} has an eBGP session with non-adjacent {peer}")
            }
            ConfigError::IbgpPeerWithoutLoopback { device, peer } => {
                write!(
                    f,
                    "{device} peers over iBGP with {peer} which has no loopback"
                )
            }
            ConfigError::StaticNextHopNotAdjacent { device, next_hop } => {
                write!(f, "{device} has a static route via non-adjacent {next_hop}")
            }
            ConfigError::BgpMultipathUnsupported { device } => {
                write!(
                    f,
                    "{device} enables BGP multipath, which Plankton does not support"
                )
            }
            ConfigError::ZeroOspfCost { device, link } => {
                write!(
                    f,
                    "{device} has OSPF cost 0 on {link} (interface costs must be at least 1)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl Network {
    /// A network over `topology` with every device unconfigured.
    pub fn unconfigured(topology: Topology) -> Self {
        let devices = vec![DeviceConfig::empty(); topology.node_count()];
        Network {
            topology,
            devices,
            down_links: Vec::new(),
        }
    }

    /// Is `link` administratively down?
    pub fn is_link_down(&self, link: LinkId) -> bool {
        self.down_links.contains(&link)
    }

    /// Administratively take a link down (idempotent; keeps the canonical
    /// sorted order).
    pub fn set_link_down(&mut self, link: LinkId) {
        if let Err(pos) = self.down_links.binary_search(&link) {
            self.down_links.insert(pos, link);
        }
    }

    /// Bring an administratively-down link back up (idempotent).
    pub fn set_link_up(&mut self, link: LinkId) {
        if let Ok(pos) = self.down_links.binary_search(&link) {
            self.down_links.remove(pos);
        }
    }

    /// The configuration of device `n`.
    pub fn device(&self, n: NodeId) -> &DeviceConfig {
        &self.devices[n.index()]
    }

    /// Mutable access to the configuration of device `n`.
    pub fn device_mut(&mut self, n: NodeId) -> &mut DeviceConfig {
        &mut self.devices[n.index()]
    }

    /// Number of devices.
    pub fn node_count(&self) -> usize {
        self.topology.node_count()
    }

    /// All devices that run BGP.
    pub fn bgp_speakers(&self) -> Vec<NodeId> {
        self.topology
            .node_ids()
            .filter(|n| self.device(*n).runs_bgp())
            .collect()
    }

    /// All devices that run OSPF.
    pub fn ospf_speakers(&self) -> Vec<NodeId> {
        self.topology
            .node_ids()
            .filter(|n| self.device(*n).runs_ospf())
            .collect()
    }

    /// Every prefix referenced anywhere in the configuration (origins, static
    /// routes, route maps) plus every loopback host prefix. This is the seed
    /// set for the PEC trie (§3.1).
    pub fn referenced_prefixes(&self) -> Vec<Prefix> {
        let mut out: Vec<Prefix> = Vec::new();
        for n in self.topology.node_ids() {
            out.extend(self.device(n).referenced_prefixes());
        }
        for node in self.topology.nodes() {
            if let Some(lb) = node.loopback {
                out.push(Prefix::host(lb));
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// The devices that originate `prefix` into any protocol.
    pub fn origins_of(&self, prefix: &Prefix) -> Vec<NodeId> {
        self.topology
            .node_ids()
            .filter(|n| {
                let d = self.device(*n);
                d.ospf
                    .as_ref()
                    .map(|o| o.originates(prefix))
                    .unwrap_or(false)
                    || d.bgp
                        .as_ref()
                        .map(|b| b.originates(prefix))
                        .unwrap_or(false)
            })
            .collect()
    }

    /// Check the configuration for structural problems. Returns every error
    /// found (an empty vector means the configuration is well-formed).
    pub fn validate(&self) -> Vec<ConfigError> {
        let mut errors = Vec::new();
        if self.devices.len() != self.topology.node_count() {
            errors.push(ConfigError::DeviceCountMismatch {
                nodes: self.topology.node_count(),
                configs: self.devices.len(),
            });
            return errors;
        }
        for n in self.topology.node_ids() {
            let d = self.device(n);
            if let Some(link) = d.ospf.as_ref().and_then(|o| o.zero_cost_link()) {
                errors.push(ConfigError::ZeroOspfCost { device: n, link });
            }
            if let Some(bgp) = &d.bgp {
                if bgp.multipath {
                    errors.push(ConfigError::BgpMultipathUnsupported { device: n });
                }
                for nbr in &bgp.neighbors {
                    if nbr.peer.index() >= self.topology.node_count() {
                        errors.push(ConfigError::UnknownBgpPeer {
                            device: n,
                            peer: nbr.peer,
                        });
                        continue;
                    }
                    match nbr.kind {
                        crate::bgp::BgpSessionKind::Ebgp => {
                            if self.topology.link_between(n, nbr.peer).is_none() {
                                errors.push(ConfigError::EbgpPeerNotAdjacent {
                                    device: n,
                                    peer: nbr.peer,
                                });
                            }
                        }
                        crate::bgp::BgpSessionKind::Ibgp => {
                            if self.topology.node(nbr.peer).loopback.is_none() {
                                errors.push(ConfigError::IbgpPeerWithoutLoopback {
                                    device: n,
                                    peer: nbr.peer,
                                });
                            }
                        }
                    }
                }
            }
            for sr in &d.static_routes {
                if let crate::static_routes::StaticNextHop::Interface(next) = sr.next_hop {
                    if self.topology.link_between(n, next).is_none() {
                        errors.push(ConfigError::StaticNextHopNotAdjacent {
                            device: n,
                            next_hop: next,
                        });
                    }
                }
            }
        }
        errors
    }

    /// Serialize to the JSON configuration format.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("Network is always serializable")
    }

    /// Parse a network from the JSON configuration format.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::{BgpConfig, BgpNeighborConfig};
    use crate::ospf::OspfConfig;
    use crate::static_routes::StaticRoute;
    use plankton_net::ip::Ipv4Addr;
    use plankton_net::topology::TopologyBuilder;

    fn two_routers() -> (Topology, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_router("a");
        let c = b.add_router("c");
        b.set_loopback(a, Ipv4Addr::new(1, 1, 1, 1));
        b.set_loopback(c, Ipv4Addr::new(2, 2, 2, 2));
        b.add_link(a, c);
        (b.build(), a, c)
    }

    #[test]
    fn unconfigured_is_valid() {
        let (t, _, _) = two_routers();
        let net = Network::unconfigured(t);
        assert!(net.validate().is_empty());
        assert!(net.bgp_speakers().is_empty());
    }

    #[test]
    fn referenced_prefixes_include_loopbacks() {
        let (t, a, _) = two_routers();
        let mut net = Network::unconfigured(t);
        net.device_mut(a).ospf = Some(OspfConfig::originating(vec!["10.0.0.0/24"
            .parse()
            .unwrap()]));
        let ps = net.referenced_prefixes();
        assert!(ps.contains(&"10.0.0.0/24".parse().unwrap()));
        assert!(ps.contains(&Prefix::host(Ipv4Addr::new(1, 1, 1, 1))));
        assert!(ps.contains(&Prefix::host(Ipv4Addr::new(2, 2, 2, 2))));
    }

    #[test]
    fn origins_of_finds_originators() {
        let (t, a, c) = two_routers();
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        let mut net = Network::unconfigured(t);
        net.device_mut(a).ospf = Some(OspfConfig::originating(vec![p]));
        net.device_mut(c).bgp = Some(BgpConfig::new(65001, 2).with_network(p));
        let origins = net.origins_of(&p);
        assert_eq!(origins, vec![a, c]);
    }

    #[test]
    fn validate_detects_non_adjacent_ebgp() {
        let mut b = TopologyBuilder::new();
        let a = b.add_router("a");
        let c = b.add_router("c");
        let d = b.add_router("d");
        b.add_link(a, c);
        b.add_link(c, d);
        let t = b.build();
        let mut net = Network::unconfigured(t);
        net.device_mut(a).bgp =
            Some(BgpConfig::new(65001, 1).with_neighbor(BgpNeighborConfig::ebgp(d, 65003)));
        let errs = net.validate();
        assert_eq!(errs.len(), 1);
        assert!(matches!(errs[0], ConfigError::EbgpPeerNotAdjacent { .. }));
    }

    #[test]
    fn validate_detects_ibgp_without_loopback() {
        let mut b = TopologyBuilder::new();
        let a = b.add_router("a");
        let c = b.add_router("c");
        b.add_link(a, c);
        let t = b.build();
        let mut net = Network::unconfigured(t);
        net.device_mut(a).bgp =
            Some(BgpConfig::new(65001, 1).with_neighbor(BgpNeighborConfig::ibgp(c, 65001)));
        let errs = net.validate();
        assert!(matches!(
            errs[0],
            ConfigError::IbgpPeerWithoutLoopback { .. }
        ));
    }

    #[test]
    fn validate_detects_multipath_and_bad_static() {
        let (t, a, _) = two_routers();
        let mut net = Network::unconfigured(t);
        let mut bgp = BgpConfig::new(65001, 1);
        bgp.multipath = true;
        net.device_mut(a).bgp = Some(bgp);
        net.device_mut(a)
            .static_routes
            .push(StaticRoute::to_interface(
                "10.0.0.0/8".parse().unwrap(),
                NodeId(99),
            ));
        let errs = net.validate();
        assert_eq!(errs.len(), 2);
    }

    #[test]
    fn json_roundtrip() {
        let (t, a, _) = two_routers();
        let mut net = Network::unconfigured(t);
        net.device_mut(a).ospf = Some(OspfConfig::originating(vec!["10.0.0.0/24"
            .parse()
            .unwrap()]));
        let json = net.to_json();
        let back = Network::from_json(&json).unwrap();
        assert_eq!(back.node_count(), 2);
        assert!(back.device(a).runs_ospf());
    }
}
