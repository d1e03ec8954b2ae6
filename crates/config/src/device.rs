//! Per-device configuration: the protocols a router runs and its static
//! routes.

use crate::bgp::BgpConfig;
use crate::ospf::OspfConfig;
use crate::static_routes::StaticRoute;
use plankton_net::ip::Prefix;
use plankton_net::topology::NodeId;
use serde::{Deserialize, Serialize};

/// The full configuration of one device.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// OSPF process, if configured.
    pub ospf: Option<OspfConfig>,
    /// BGP process, if configured.
    pub bgp: Option<BgpConfig>,
    /// Static routes.
    pub static_routes: Vec<StaticRoute>,
}

impl DeviceConfig {
    /// A device with no routing configuration at all.
    pub fn empty() -> Self {
        DeviceConfig::default()
    }

    /// Attach an OSPF process, builder-style.
    pub fn with_ospf(mut self, ospf: OspfConfig) -> Self {
        self.ospf = Some(ospf);
        self
    }

    /// Attach a BGP process, builder-style.
    pub fn with_bgp(mut self, bgp: BgpConfig) -> Self {
        self.bgp = Some(bgp);
        self
    }

    /// Add a static route, builder-style.
    pub fn with_static_route(mut self, route: StaticRoute) -> Self {
        self.static_routes.push(route);
        self
    }

    /// Does this device run any routing protocol or have any static route?
    pub fn is_configured(&self) -> bool {
        self.ospf.is_some() || self.bgp.is_some() || !self.static_routes.is_empty()
    }

    /// Does the device run BGP?
    pub fn runs_bgp(&self) -> bool {
        self.bgp.is_some()
    }

    /// Does the device run OSPF?
    pub fn runs_ospf(&self) -> bool {
        self.ospf.is_some()
    }

    /// The static routes whose prefix covers any part of `prefix`.
    pub fn static_routes_for(&self, prefix: &Prefix) -> Vec<&StaticRoute> {
        self.static_routes
            .iter()
            .filter(|sr| sr.prefix.overlaps(prefix))
            .collect()
    }

    /// All BGP peers this device has sessions with.
    pub fn bgp_peers(&self) -> Vec<NodeId> {
        self.bgp
            .as_ref()
            .map(|b| b.neighbors.iter().map(|n| n.peer).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::BgpNeighborConfig;
    use crate::static_routes::StaticRoute;

    #[test]
    fn empty_device() {
        let d = DeviceConfig::empty();
        assert!(!d.is_configured());
        assert!(d.bgp_peers().is_empty());
    }

    #[test]
    fn configured_device_reports_its_processes() {
        let d = DeviceConfig::empty()
            .with_ospf(OspfConfig::originating(vec!["10.0.0.0/24"
                .parse()
                .unwrap()]))
            .with_bgp(
                BgpConfig::new(65001, 1)
                    .with_network("20.0.0.0/16".parse().unwrap())
                    .with_neighbor(BgpNeighborConfig::ebgp(NodeId(5), 65002)),
            )
            .with_static_route(StaticRoute::null("30.0.0.0/8".parse().unwrap()));
        assert!(d.is_configured());
        assert!(d.runs_bgp());
        assert!(d.runs_ospf());
        assert_eq!(d.bgp_peers(), vec![NodeId(5)]);
    }

    #[test]
    fn static_routes_for_overlapping_prefix() {
        let d = DeviceConfig::empty()
            .with_static_route(StaticRoute::null("10.0.0.0/8".parse().unwrap()))
            .with_static_route(StaticRoute::null("20.0.0.0/8".parse().unwrap()));
        assert_eq!(
            d.static_routes_for(&"10.1.0.0/16".parse().unwrap()).len(),
            1
        );
        assert_eq!(d.static_routes_for(&"0.0.0.0/0".parse().unwrap()).len(), 2);
        assert_eq!(d.static_routes_for(&"30.0.0.0/8".parse().unwrap()).len(), 0);
    }
}
