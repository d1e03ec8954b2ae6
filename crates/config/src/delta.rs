//! Configuration deltas: the small, operator-shaped edits the incremental
//! verification service accepts between verifications.
//!
//! A [`ConfigDelta`] is applied to a [`Network`] in place; on error the
//! network is unchanged. A delta does not say what it dirtied: which cached
//! results it made stale is decided per (PEC × failure set) task from
//! content keys over the edited network (see `plankton-pec`'s invalidation
//! module), so a new delta kind needs no invalidation rule of its own.
//!
//! Topology shape is append-only: `NodeAdd` appends node/link ids (existing
//! ids are never renumbered) and `NodeRemove` *drains* a device — its
//! configuration is cleared and its incident links administratively downed —
//! rather than deleting it, which is how long-running routing daemons treat
//! decommissioned peers anyway (compare ubgpd's session teardown: state is
//! torn down, the neighbor table slot survives).

use crate::device::DeviceConfig;
use crate::route_map::RouteMap;
use crate::static_routes::StaticRoute;
use crate::Network;
use plankton_net::ip::{Ipv4Addr, Prefix};
use plankton_net::topology::{LinkId, NodeId, NodeKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One configuration edit.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ConfigDelta {
    /// Administratively take a link down.
    LinkDown {
        /// The link.
        link: LinkId,
    },
    /// Bring an administratively-down link back up.
    LinkUp {
        /// The link.
        link: LinkId,
    },
    /// Change a device's OSPF interface cost on one link.
    OspfCostChange {
        /// The device whose interface cost changes.
        device: NodeId,
        /// The link the cost applies to.
        link: LinkId,
        /// The new cost.
        cost: u32,
    },
    /// Add a static route on a device.
    StaticRouteAdd {
        /// The device.
        device: NodeId,
        /// The route to add.
        route: StaticRoute,
    },
    /// Remove every static route for a prefix on a device.
    StaticRouteRemove {
        /// The device.
        device: NodeId,
        /// The destination prefix whose routes are removed.
        prefix: Prefix,
    },
    /// Replace the import and/or export route map of one BGP session.
    BgpPolicyEdit {
        /// The device whose session policy changes.
        device: NodeId,
        /// The session peer.
        peer: NodeId,
        /// New import policy (`None` keeps the current one).
        import: Option<RouteMap>,
        /// New export policy (`None` keeps the current one).
        export: Option<RouteMap>,
    },
    /// Append a new router with links to existing devices.
    NodeAdd {
        /// Unique device name.
        name: String,
        /// Optional loopback address.
        loopback: Option<Ipv4Addr>,
        /// Existing devices to link the new router to.
        links: Vec<NodeId>,
        /// The new router's configuration.
        config: DeviceConfig,
    },
    /// Drain a device: clear its configuration and down its incident links.
    NodeRemove {
        /// The device to drain.
        device: NodeId,
    },
}

/// Why a delta could not be applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The named device does not exist.
    UnknownDevice(NodeId),
    /// The named link does not exist.
    UnknownLink(LinkId),
    /// The device has no OSPF process to edit.
    NoOspfProcess(NodeId),
    /// The device has no BGP session with the named peer.
    NoBgpSession(NodeId, NodeId),
    /// A node with this name already exists.
    DuplicateNodeName(String),
    /// An OSPF interface cost of 0 (see [`crate::ConfigError::ZeroOspfCost`]).
    ZeroOspfCost(NodeId, LinkId),
    /// The delta is a no-op (e.g. removing a static route that is not
    /// configured); rejected so the operator learns their mental model of
    /// the running config is stale.
    NoOp(String),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownDevice(n) => write!(f, "unknown device {n}"),
            DeltaError::UnknownLink(l) => write!(f, "unknown link {l}"),
            DeltaError::NoOspfProcess(n) => write!(f, "{n} runs no OSPF process"),
            DeltaError::NoBgpSession(n, p) => write!(f, "{n} has no BGP session with {p}"),
            DeltaError::DuplicateNodeName(name) => {
                write!(f, "a device named {name:?} already exists")
            }
            DeltaError::ZeroOspfCost(n, l) => {
                write!(f, "OSPF cost 0 for {n} on {l} (costs must be at least 1)")
            }
            DeltaError::NoOp(what) => write!(f, "delta is a no-op: {what}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl ConfigDelta {
    /// A short kind tag for logs and service statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            ConfigDelta::LinkDown { .. } => "link_down",
            ConfigDelta::LinkUp { .. } => "link_up",
            ConfigDelta::OspfCostChange { .. } => "ospf_cost_change",
            ConfigDelta::StaticRouteAdd { .. } => "static_route_add",
            ConfigDelta::StaticRouteRemove { .. } => "static_route_remove",
            ConfigDelta::BgpPolicyEdit { .. } => "bgp_policy_edit",
            ConfigDelta::NodeAdd { .. } => "node_add",
            ConfigDelta::NodeRemove { .. } => "node_remove",
        }
    }

    /// Apply the delta to `network` in place. On error the network is
    /// unchanged.
    pub fn apply(&self, network: &mut Network) -> Result<(), DeltaError> {
        let check_device = |n: NodeId| {
            if n.index() < network.node_count() {
                Ok(())
            } else {
                Err(DeltaError::UnknownDevice(n))
            }
        };
        let check_link = |l: LinkId| {
            if l.index() < network.topology.link_count() {
                Ok(())
            } else {
                Err(DeltaError::UnknownLink(l))
            }
        };
        match self {
            ConfigDelta::LinkDown { link } => {
                check_link(*link)?;
                if network.is_link_down(*link) {
                    return Err(DeltaError::NoOp(format!("{link} is already down")));
                }
                network.set_link_down(*link);
                Ok(())
            }
            ConfigDelta::LinkUp { link } => {
                check_link(*link)?;
                if !network.is_link_down(*link) {
                    return Err(DeltaError::NoOp(format!("{link} is already up")));
                }
                network.set_link_up(*link);
                Ok(())
            }
            ConfigDelta::OspfCostChange { device, link, cost } => {
                check_device(*device)?;
                check_link(*link)?;
                if !network.topology.link(*link).touches(*device) {
                    return Err(DeltaError::UnknownLink(*link));
                }
                if *cost == 0 {
                    return Err(DeltaError::ZeroOspfCost(*device, *link));
                }
                let Some(ospf) = network.device_mut(*device).ospf.as_mut() else {
                    return Err(DeltaError::NoOspfProcess(*device));
                };
                ospf.interface_costs.insert(*link, *cost);
                Ok(())
            }
            ConfigDelta::StaticRouteAdd { device, route } => {
                check_device(*device)?;
                network.device_mut(*device).static_routes.push(*route);
                Ok(())
            }
            ConfigDelta::StaticRouteRemove { device, prefix } => {
                check_device(*device)?;
                let routes = &mut network.device_mut(*device).static_routes;
                let before = routes.len();
                routes.retain(|sr| sr.prefix != *prefix);
                if routes.len() == before {
                    return Err(DeltaError::NoOp(format!(
                        "{device} has no static route for {prefix}"
                    )));
                }
                Ok(())
            }
            ConfigDelta::BgpPolicyEdit {
                device,
                peer,
                import,
                export,
            } => {
                check_device(*device)?;
                let Some(bgp) = &mut network.devices[device.index()].bgp else {
                    return Err(DeltaError::NoBgpSession(*device, *peer));
                };
                let Some(nbr) = bgp.neighbors.iter_mut().find(|n| n.peer == *peer) else {
                    return Err(DeltaError::NoBgpSession(*device, *peer));
                };
                if import.is_none() && export.is_none() {
                    return Err(DeltaError::NoOp(format!(
                        "neither import nor export given for {device}→{peer}"
                    )));
                }
                if let Some(map) = import {
                    nbr.import = map.clone();
                }
                if let Some(map) = export {
                    nbr.export = map.clone();
                }
                Ok(())
            }
            ConfigDelta::NodeAdd {
                name,
                loopback,
                links,
                config,
            } => {
                if network.topology.node_by_name(name).is_some() {
                    return Err(DeltaError::DuplicateNodeName(name.clone()));
                }
                for &peer in links {
                    check_device(peer)?;
                }
                if let Some(link) = config.ospf.as_ref().and_then(|o| o.zero_cost_link()) {
                    let id = NodeId(network.node_count() as u32);
                    return Err(DeltaError::ZeroOspfCost(id, link));
                }
                let id = network.topology.grow_node(name, NodeKind::Router);
                if let Some(lb) = loopback {
                    network.topology.assign_loopback(id, *lb);
                }
                for &peer in links {
                    network.topology.grow_link(id, peer);
                }
                network.devices.push(config.clone());
                Ok(())
            }
            ConfigDelta::NodeRemove { device } => {
                check_device(*device)?;
                let incident_up = network
                    .topology
                    .neighbors(*device)
                    .iter()
                    .any(|&(_, l)| !network.is_link_down(l));
                if !network.devices[device.index()].is_configured() && !incident_up {
                    return Err(DeltaError::NoOp(format!("{device} is already drained")));
                }
                network.devices[device.index()] = DeviceConfig::default();
                let incident: Vec<LinkId> = network
                    .topology
                    .neighbors(*device)
                    .iter()
                    .map(|&(_, l)| l)
                    .collect();
                for l in incident {
                    network.set_link_down(l);
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{fat_tree_ospf, ring_ospf, CoreStaticRoutes};

    #[test]
    fn link_down_up_roundtrip() {
        let s = ring_ospf(4);
        let mut net = s.network.clone();
        let link = s.ring.links[0];
        ConfigDelta::LinkDown { link }.apply(&mut net).unwrap();
        assert!(net.is_link_down(link));
        // Downing again is a no-op error.
        assert!(matches!(
            ConfigDelta::LinkDown { link }.apply(&mut net),
            Err(DeltaError::NoOp(_))
        ));
        ConfigDelta::LinkUp { link }.apply(&mut net).unwrap();
        assert!(!net.is_link_down(link));
        assert_eq!(net.fingerprint(), s.network.fingerprint());
    }

    #[test]
    fn static_route_add_remove_roundtrip() {
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        let mut net = s.network.clone();
        let device = s.fat_tree.core[0];
        let prefix = s.destinations[0];
        let route = StaticRoute::null(prefix);
        ConfigDelta::StaticRouteAdd { device, route }
            .apply(&mut net)
            .unwrap();
        assert_ne!(net.fingerprint(), s.network.fingerprint());
        ConfigDelta::StaticRouteRemove { device, prefix }
            .apply(&mut net)
            .unwrap();
        assert_eq!(net.fingerprint(), s.network.fingerprint());
        assert!(matches!(
            ConfigDelta::StaticRouteRemove { device, prefix }.apply(&mut net),
            Err(DeltaError::NoOp(_))
        ));
    }

    #[test]
    fn ospf_cost_change_validates_adjacency() {
        let s = ring_ospf(4);
        let mut net = s.network.clone();
        let device = s.ring.routers[0];
        let link = s.ring.links[0];
        ConfigDelta::OspfCostChange {
            device,
            link,
            cost: 42,
        }
        .apply(&mut net)
        .unwrap();
        assert_eq!(
            net.device(device).ospf.as_ref().unwrap().cost(link),
            Some(42)
        );
    }

    /// Each refused `OspfCostChange` names its reason and leaves the network
    /// byte-identical.
    #[test]
    fn refused_ospf_cost_changes_leave_the_network_unchanged() {
        let s = ring_ospf(4);
        let mut net = s.network.clone();
        let (device, link) = (s.ring.routers[0], s.ring.links[0]);
        let bare = s.ring.routers[1];
        net.device_mut(bare).ospf = None;
        let bare_link = *s
            .ring
            .links
            .iter()
            .find(|&&l| net.topology.link(l).touches(bare))
            .unwrap();
        let far_link = *s
            .ring
            .links
            .iter()
            .find(|&&l| !net.topology.link(l).touches(device))
            .unwrap();
        let before = net.to_json();
        for (delta, expected) in [
            (
                ConfigDelta::OspfCostChange {
                    device: bare,
                    link: bare_link,
                    cost: 5,
                },
                DeltaError::NoOspfProcess(bare),
            ),
            (
                ConfigDelta::OspfCostChange {
                    device,
                    link: far_link,
                    cost: 5,
                },
                DeltaError::UnknownLink(far_link),
            ),
            (
                ConfigDelta::OspfCostChange {
                    device,
                    link,
                    cost: 0,
                },
                DeltaError::ZeroOspfCost(device, link),
            ),
        ] {
            assert_eq!(delta.apply(&mut net), Err(expected));
            assert_eq!(net.to_json(), before, "{delta:?}");
        }
    }

    #[test]
    fn node_add_appends_without_renumbering() {
        let s = ring_ospf(4);
        let mut net = s.network.clone();
        let n_before = net.node_count();
        let l_before = net.topology.link_count();
        ConfigDelta::NodeAdd {
            name: "new-r".into(),
            loopback: Some(Ipv4Addr::new(9, 9, 9, 9)),
            links: vec![s.ring.routers[0], s.ring.routers[2]],
            config: DeviceConfig::empty().with_ospf(crate::OspfConfig::enabled()),
        }
        .apply(&mut net)
        .unwrap();
        assert_eq!(net.node_count(), n_before + 1);
        assert_eq!(net.topology.link_count(), l_before + 2);
        let id = NodeId(n_before as u32);
        assert_eq!(net.topology.node(id).name, "new-r");
        assert_eq!(
            net.topology.node(id).loopback,
            Some(Ipv4Addr::new(9, 9, 9, 9))
        );
        // Old ids untouched.
        assert_eq!(
            net.topology.node(s.ring.routers[1]).name,
            s.network.topology.node(s.ring.routers[1]).name
        );
        assert!(matches!(
            ConfigDelta::NodeAdd {
                name: "new-r".into(),
                loopback: None,
                links: vec![],
                config: DeviceConfig::empty(),
            }
            .apply(&mut net),
            Err(DeltaError::DuplicateNodeName(_))
        ));
    }

    #[test]
    fn node_remove_drains_config_and_links() {
        let s = ring_ospf(4);
        let mut net = s.network.clone();
        let victim = s.ring.routers[2];
        ConfigDelta::NodeRemove { device: victim }
            .apply(&mut net)
            .unwrap();
        assert!(!net.device(victim).is_configured());
        let incident = net.topology.neighbors(victim);
        assert_eq!(incident.len(), 2);
        for &(_, l) in incident {
            assert!(net.is_link_down(l));
        }
    }

    #[test]
    fn deltas_roundtrip_through_json() {
        let delta = ConfigDelta::StaticRouteAdd {
            device: NodeId(3),
            route: StaticRoute::null("10.0.0.0/24".parse().unwrap()),
        };
        let json = serde_json::to_string(&delta).unwrap();
        let back: ConfigDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, delta);
        let delta = ConfigDelta::LinkDown { link: LinkId(7) };
        let back: ConfigDelta =
            serde_json::from_str(&serde_json::to_string(&delta).unwrap()).unwrap();
        assert_eq!(back, delta);
    }
}
