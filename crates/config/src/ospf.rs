//! OSPF configuration for a single device.

use plankton_net::ip::Prefix;
use plankton_net::topology::LinkId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default OSPF interface cost used when a link has no explicit cost.
pub const DEFAULT_OSPF_COST: u32 = 10;

/// OSPF configuration of one router.
///
/// Plankton models OSPF as shortest-path routing over configured link
/// weights, with every prefix listed in `networks` originated into the
/// protocol by this router (the paper's fat-tree experiments have "each edge
/// switch originating a prefix into OSPF").
#[derive(Clone, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OspfConfig {
    /// Per-link interface cost *from this router*. Costs may be asymmetric
    /// between the two ends of a link. Links not listed use
    /// [`DEFAULT_OSPF_COST`].
    pub interface_costs: BTreeMap<LinkId, u32>,
    /// Links on which OSPF is explicitly disabled (passive or not covered by
    /// a `network` statement). Adjacency never forms over these.
    pub disabled_links: Vec<LinkId>,
    /// Prefixes this router originates into OSPF.
    pub networks: Vec<Prefix>,
}

impl OspfConfig {
    /// OSPF enabled on all interfaces with default costs and no origination.
    pub fn enabled() -> Self {
        OspfConfig::default()
    }

    /// OSPF with the given originated prefixes.
    pub fn originating(networks: Vec<Prefix>) -> Self {
        OspfConfig {
            networks,
            ..Default::default()
        }
    }

    /// Set the cost of a link, builder-style.
    pub fn with_cost(mut self, link: LinkId, cost: u32) -> Self {
        self.interface_costs.insert(link, cost);
        self
    }

    /// Disable OSPF on a link, builder-style.
    pub fn with_disabled_link(mut self, link: LinkId) -> Self {
        self.disabled_links.push(link);
        self
    }

    /// Add an originated prefix, builder-style.
    pub fn with_network(mut self, prefix: Prefix) -> Self {
        self.networks.push(prefix);
        self
    }

    /// The cost of sending over `link` from this router, or `None` if OSPF is
    /// disabled on the link.
    pub fn cost(&self, link: LinkId) -> Option<u32> {
        if self.disabled_links.contains(&link) {
            return None;
        }
        Some(
            self.interface_costs
                .get(&link)
                .copied()
                .unwrap_or(DEFAULT_OSPF_COST),
        )
    }

    /// The first link configured with cost 0, if any (RFC 2328 requires
    /// interface costs greater than 0).
    pub fn zero_cost_link(&self) -> Option<LinkId> {
        self.interface_costs
            .iter()
            .find(|&(_, &cost)| cost == 0)
            .map(|(&link, _)| link)
    }

    /// Does this router originate `prefix`?
    pub fn originates(&self, prefix: &Prefix) -> bool {
        self.networks.contains(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cost_applies() {
        let c = OspfConfig::enabled();
        assert_eq!(c.cost(LinkId(0)), Some(DEFAULT_OSPF_COST));
    }

    #[test]
    fn explicit_cost_overrides_default() {
        let c = OspfConfig::enabled().with_cost(LinkId(3), 55);
        assert_eq!(c.cost(LinkId(3)), Some(55));
        assert_eq!(c.cost(LinkId(4)), Some(DEFAULT_OSPF_COST));
    }

    #[test]
    fn disabled_links_have_no_cost() {
        let c = OspfConfig::enabled().with_disabled_link(LinkId(1));
        assert_eq!(c.cost(LinkId(1)), None);
        assert!(c.cost(LinkId(0)).is_some());
    }

    #[test]
    fn origination() {
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        let c = OspfConfig::originating(vec![p]).with_network("10.0.1.0/24".parse().unwrap());
        assert!(c.originates(&p));
        assert!(c.originates(&"10.0.1.0/24".parse().unwrap()));
        assert!(!c.originates(&"10.0.2.0/24".parse().unwrap()));
        assert_eq!(c.networks.len(), 2);
    }
}
