//! Configuration deltas: the small, operator-shaped edits the incremental
//! verification service accepts between verifications.
//!
//! A [`ConfigDelta`] is applied to a [`Network`] in place and reports a
//! [`DeltaTouch`]: the prefixes, devices and links whose configuration
//! surface the edit touched. The touch set is the *diff layer* the service
//! uses for reporting and coarse invalidation accounting; the authoritative
//! cache-invalidation decision is made per PEC from content fingerprints
//! (see `plankton-pec`'s invalidation module), so a delta can never
//! under-invalidate even if its touch set were imprecise.
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

/// What a delta touched, for reporting and coarse invalidation accounting.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DeltaTouch {
    /// Prefixes whose configuration surface changed (static route targets,
    /// route-map matches, originated networks, loopback host prefixes).
    pub prefixes: Vec<Prefix>,
    /// Devices whose configuration changed.
    pub devices: Vec<NodeId>,
    /// Links whose state or cost changed.
    pub links: Vec<LinkId>,
    /// Did the delta change the protocol-visible topology (link state,
    /// costs, node set)? Such deltas can dirty every PEC that runs a
    /// protocol over the changed element.
    pub topology: bool,
    /// For OSPF edits: the speaker-component members the edit can influence
    /// (an OSPF change cannot leak across component boundaries). `None`
    /// means unscoped — the edit may affect any OSPF PEC.
    #[serde(default)]
    pub ospf_region: Option<Vec<NodeId>>,
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
    pub fn apply(&self, network: &mut Network) -> Result<DeltaTouch, DeltaError> {
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
                // Only the link's state changed — the endpoint devices keep
                // their configuration, so they are not config-touched.
                Ok(DeltaTouch {
                    links: vec![*link],
                    topology: true,
                    ..Default::default()
                })
            }
            ConfigDelta::LinkUp { link } => {
                check_link(*link)?;
                if !network.is_link_down(*link) {
                    return Err(DeltaError::NoOp(format!("{link} is already up")));
                }
                network.set_link_up(*link);
                Ok(DeltaTouch {
                    links: vec![*link],
                    topology: true,
                    ..Default::default()
                })
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
                // The region the edit can influence: the device's speaker
                // component *before and after* the edit (a cost change never
                // alters adjacency, so the two coincide). `ospf_region_of` is
                // `Some` exactly when the device runs OSPF.
                let Some(region) = network.ospf_region_of(*device) else {
                    return Err(DeltaError::NoOspfProcess(*device));
                };
                let ospf = network
                    .device_mut(*device)
                    .ospf
                    .as_mut()
                    .expect("ospf_region_of implies an OSPF process");
                ospf.interface_costs.insert(*link, *cost);
                Ok(DeltaTouch {
                    devices: vec![*device],
                    links: vec![*link],
                    topology: true,
                    ospf_region: Some(region),
                    ..Default::default()
                })
            }
            ConfigDelta::StaticRouteAdd { device, route } => {
                check_device(*device)?;
                network.device_mut(*device).static_routes.push(*route);
                Ok(DeltaTouch {
                    prefixes: vec![route.prefix],
                    devices: vec![*device],
                    ..Default::default()
                })
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
                Ok(DeltaTouch {
                    prefixes: vec![*prefix],
                    devices: vec![*device],
                    ..Default::default()
                })
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
                let mut prefixes = Vec::new();
                if let Some(map) = import {
                    prefixes.extend(map.referenced_prefixes());
                    nbr.import = map.clone();
                }
                if let Some(map) = export {
                    prefixes.extend(map.referenced_prefixes());
                    nbr.export = map.clone();
                }
                prefixes.sort();
                prefixes.dedup();
                Ok(DeltaTouch {
                    prefixes,
                    devices: vec![*device, *peer],
                    ..Default::default()
                })
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
                let mut new_links = Vec::new();
                for &peer in links {
                    new_links.push(network.topology.grow_link(id, peer));
                }
                network.devices.push(config.clone());
                let mut prefixes = config.referenced_prefixes();
                if let Some(lb) = loopback {
                    prefixes.push(Prefix::host(*lb));
                }
                prefixes.sort();
                prefixes.dedup();
                Ok(DeltaTouch {
                    prefixes,
                    devices: vec![id],
                    links: new_links,
                    topology: true,
                    ospf_region: None,
                })
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
                let old = std::mem::take(&mut network.devices[device.index()]);
                let mut prefixes = old.referenced_prefixes();
                if let Some(lb) = network.topology.node(*device).loopback {
                    prefixes.push(Prefix::host(lb));
                }
                prefixes.sort();
                prefixes.dedup();
                let incident: Vec<LinkId> = network
                    .topology
                    .neighbors(*device)
                    .iter()
                    .map(|&(_, l)| l)
                    .collect();
                for &l in &incident {
                    network.set_link_down(l);
                }
                Ok(DeltaTouch {
                    prefixes,
                    devices: vec![*device],
                    links: incident,
                    topology: true,
                    ospf_region: None,
                })
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
        let touch = ConfigDelta::LinkDown { link }.apply(&mut net).unwrap();
        assert!(touch.topology);
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
        let touch = ConfigDelta::StaticRouteAdd { device, route }
            .apply(&mut net)
            .unwrap();
        assert_eq!(touch.prefixes, vec![prefix]);
        assert!(!touch.topology);
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
        // A link not touching the device is rejected.
        let far_link = s.ring.links[2];
        assert!(ConfigDelta::OspfCostChange {
            device,
            link: far_link,
            cost: 1,
        }
        .apply(&mut net)
        .is_err());
    }

    #[test]
    fn node_add_appends_without_renumbering() {
        let s = ring_ospf(4);
        let mut net = s.network.clone();
        let n_before = net.node_count();
        let l_before = net.topology.link_count();
        let touch = ConfigDelta::NodeAdd {
            name: "new-r".into(),
            loopback: Some(Ipv4Addr::new(9, 9, 9, 9)),
            links: vec![s.ring.routers[0], s.ring.routers[2]],
            config: DeviceConfig::empty().with_ospf(crate::OspfConfig::enabled()),
        }
        .apply(&mut net)
        .unwrap();
        assert_eq!(net.node_count(), n_before + 1);
        assert_eq!(net.topology.link_count(), l_before + 2);
        assert_eq!(touch.devices, vec![NodeId(n_before as u32)]);
        assert!(touch
            .prefixes
            .contains(&Prefix::host(Ipv4Addr::new(9, 9, 9, 9))));
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
        let touch = ConfigDelta::NodeRemove { device: victim }
            .apply(&mut net)
            .unwrap();
        assert!(!net.device(victim).is_configured());
        assert_eq!(touch.links.len(), 2);
        for l in touch.links {
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
