//! The route representation shared by every protocol model.
//!
//! A route's node path is a [`HopVec`], the RPVP layer's inline vector: up to
//! four hops live inside the `Route`, so the clones the checker makes of
//! adopted and extended routes allocate nothing for the short paths real
//! networks have.

use crate::hopvec::HopVec;
use plankton_config::route_map::RouteAttrs;
use plankton_net::ip::Prefix;
use plankton_net::topology::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a route was learned at a node. Affects both the decision process
/// (eBGP routes are preferred over iBGP routes) and propagation rules
/// (iBGP-learned routes are not re-advertised to other iBGP peers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SessionType {
    /// Locally originated (the node is an origin for the prefix).
    Originated,
    /// Learned over an eBGP session.
    Ebgp,
    /// Learned over an iBGP session.
    Ibgp,
    /// Learned through the IGP (OSPF).
    Igp,
}

/// A candidate route at a node: the node-level path to an origin plus the
/// attributes the ranking function needs.
///
/// The `path` lists the nodes the route traverses *starting with the next
/// hop* and ending at the origin, so an origin's own route has an empty path
/// (the paper's `ε`) and `path[0]` is the forwarding next hop (the paper's
/// `best-path(n).head`).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Route {
    /// Next hop first, origin last. Empty for an origin's own route.
    /// Stored inline for short paths ([`HopVec`]) so the checker's
    /// per-step route clones in `step_adopting` stay allocation-free.
    pub path: HopVec,
    /// BGP-style attributes (prefix, AS path, communities, local-pref, MED).
    pub attrs: RouteAttrs,
    /// Accumulated IGP cost: for OSPF routes the path cost, for iBGP routes
    /// the IGP cost to the session peer (next hop).
    pub igp_cost: u64,
    /// How the route was learned at the node holding it.
    pub learned_via: SessionType,
}

impl Route {
    /// The route an origin node holds for its own prefix (`ε`).
    pub fn originated(prefix: Prefix) -> Self {
        Route {
            path: HopVec::new(),
            attrs: RouteAttrs::originated(prefix),
            igp_cost: 0,
            learned_via: SessionType::Originated,
        }
    }

    /// Is this an origin's own route (`ε`)?
    pub fn is_origin(&self) -> bool {
        self.path.is_empty()
    }

    /// The forwarding next hop, if any (`best-path(n).head`).
    pub fn next_hop(&self) -> Option<NodeId> {
        self.path.first().copied()
    }

    /// The rest of the path after the next hop (`best-path(n).rest`).
    pub fn rest(&self) -> &[NodeId] {
        if self.path.is_empty() {
            &[]
        } else {
            &self.path[1..]
        }
    }

    /// The origin node the path leads to, or `None` for an origin's own
    /// route (which *is* at the origin).
    pub fn origin_node(&self) -> Option<NodeId> {
        self.path.last().copied()
    }

    /// Number of node hops to the origin.
    pub fn hop_count(&self) -> usize {
        self.path.len()
    }

    /// Does the path already traverse `node`? Used for loop rejection in
    /// import filters (Appendix B: "All import filters reject paths that
    /// cause forwarding loops").
    pub fn traverses(&self, node: NodeId) -> bool {
        self.path.contains(&node)
    }

    /// The route as seen by a receiving neighbor `receiver`: the advertising
    /// node `advertiser` is prepended to the node path. Attribute rewrites
    /// (AS-path prepending, cost accumulation) are the protocol model's job;
    /// this only extends the node-level path.
    pub fn extended_through(&self, advertiser: NodeId) -> Route {
        let mut path = HopVec::with_capacity(self.path.len() + 1);
        path.push(advertiser);
        path.extend_from_slice(&self.path);
        Route {
            path,
            attrs: self.attrs.clone(),
            igp_cost: self.igp_cost,
            learned_via: self.learned_via,
        }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "ε→{}", self.attrs.prefix)
        } else {
            let hops: Vec<String> = self.path.iter().map(|n| n.to_string()).collect();
            write!(f, "[{}]→{}", hops.join(" "), self.attrs.prefix)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix() -> Prefix {
        "10.0.0.0/24".parse().unwrap()
    }

    #[test]
    fn origin_route_is_epsilon() {
        let r = Route::originated(prefix());
        assert!(r.is_origin());
        assert_eq!(r.next_hop(), None);
        assert_eq!(r.origin_node(), None);
        assert_eq!(r.hop_count(), 0);
        assert_eq!(r.learned_via, SessionType::Originated);
    }

    #[test]
    fn extension_prepends_advertiser() {
        let origin = Route::originated(prefix());
        let at_neighbor = origin.extended_through(NodeId(5));
        assert_eq!(*at_neighbor.path, [NodeId(5)]);
        assert_eq!(at_neighbor.next_hop(), Some(NodeId(5)));
        assert_eq!(at_neighbor.origin_node(), Some(NodeId(5)));
        let further = at_neighbor.extended_through(NodeId(7));
        assert_eq!(*further.path, [NodeId(7), NodeId(5)]);
        assert_eq!(further.next_hop(), Some(NodeId(7)));
        assert_eq!(further.origin_node(), Some(NodeId(5)));
        assert_eq!(further.rest(), &[NodeId(5)]);
        assert!(further.traverses(NodeId(7)));
        assert!(!further.traverses(NodeId(9)));
    }

    #[test]
    fn display_formats() {
        let r = Route::originated(prefix());
        assert!(r.to_string().starts_with('ε'));
        let e = r.extended_through(NodeId(1));
        assert!(e.to_string().contains("n1"));
    }
}
