//! Building the IGP underlay for iBGP and recursive routes from the
//! converged outcomes of dependency PECs.
//!
//! When a PEC carried by BGP is verified, its iBGP sessions peer between
//! loopback addresses whose reachability and IGP cost are determined by the
//! converged states of the loopback PECs — which the dependency-aware
//! scheduler has already computed and stored. [`DependencyUnderlay`] adapts
//! those records to the [`IgpUnderlay`] interface the BGP model consumes, and
//! also answers the next-hop resolution queries for recursive static routes.

use crate::outcome::ConvergedRecord;
use plankton_net::ip::Ipv4Addr;
use plankton_net::topology::NodeId;
use plankton_protocols::IgpUnderlay;
use std::collections::HashMap;

/// An IGP underlay assembled from the converged records of dependency PECs.
#[derive(Clone, Debug, Default)]
pub struct DependencyUnderlay {
    /// For each destination device (owner of a loopback), the per-source IGP
    /// cost in the chosen converged state of the loopback's PEC.
    cost_to: HashMap<NodeId, Vec<Option<u64>>>,
    /// For each destination device, the per-source forwarding next hops in
    /// that converged state (used to forward iBGP-learned traffic along the
    /// IGP path towards the BGP next hop).
    hops_to: HashMap<NodeId, Vec<Vec<NodeId>>>,
    /// For each address that recursive static routes point at, the forwarding
    /// next hops per source device in the chosen converged state.
    next_hops_to: HashMap<Ipv4Addr, Vec<Vec<NodeId>>>,
    /// For each recorded address, the devices that own it (deliver locally).
    /// Kept separately because "empty next hops" is ambiguous on its own: it
    /// also describes a device the converged state left unreachable.
    address_owners: HashMap<Ipv4Addr, Vec<NodeId>>,
}

impl DependencyUnderlay {
    /// An empty underlay (no dependency information: all iBGP sessions down,
    /// all recursive routes unresolved).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the converged state of the PEC owning `owner`'s loopback.
    pub fn add_loopback_record(&mut self, owner: NodeId, record: &ConvergedRecord) {
        let costs = (0..record.control_routes.len() as u32)
            .map(|i| record.igp_cost_from(NodeId(i)))
            .collect();
        self.cost_to.insert(owner, costs);
        let hops = (0..record.forwarding.node_count())
            .map(|i| record.forwarding.next_hops[i].clone())
            .collect();
        self.hops_to.insert(owner, hops);
    }

    /// The IGP forwarding next hops `from` uses towards `owner`'s loopback
    /// (empty if `from` is the owner itself), or `None` if unreachable.
    pub fn igp_next_hops(&self, from: NodeId, owner: NodeId) -> Option<&[NodeId]> {
        if from == owner {
            return Some(&[]);
        }
        let per_node = self.hops_to.get(&owner)?;
        let hops = per_node.get(from.index())?;
        if hops.is_empty() {
            // No forwarding entry for a non-owner: the loopback is
            // unreachable from here in this converged state.
            return None;
        }
        Some(hops)
    }

    /// Record the converged state of the PEC containing `addr`, for recursive
    /// static-route resolution.
    pub fn add_address_record(&mut self, addr: Ipv4Addr, record: &ConvergedRecord) {
        let hops = (0..record.forwarding.node_count())
            .map(|i| {
                let n = NodeId(i as u32);
                if record.owners.contains(&n) {
                    Vec::new()
                } else {
                    record.forwarding.next_hops[i].clone()
                }
            })
            .collect();
        self.next_hops_to.insert(addr, hops);
        self.address_owners.insert(addr, record.owners.clone());
    }

    /// The forwarding next hops `from` uses to reach `addr`, if the
    /// dependency PEC delivered a route there. An empty vector means `from`
    /// owns the address (delivered locally); `None` means unresolvable.
    pub fn resolve_next_hops(&self, from: NodeId, addr: Ipv4Addr) -> Option<Vec<NodeId>> {
        let per_node = self.next_hops_to.get(&addr)?;
        let hops = per_node.get(from.index())?;
        // An address record exists; the node resolves it only if it either
        // owns it or has next hops for it.
        if hops.is_empty() && !self.owns(from, addr) {
            return None;
        }
        Some(hops.clone())
    }

    fn owns(&self, from: NodeId, addr: Ipv4Addr) -> bool {
        self.address_owners
            .get(&addr)
            .map(|owners| owners.contains(&from))
            .unwrap_or(false)
    }

    /// Number of loopback owners recorded.
    pub fn loopback_count(&self) -> usize {
        self.cost_to.len()
    }
}

impl IgpUnderlay for DependencyUnderlay {
    fn cost_between(&self, from: NodeId, to: NodeId) -> Option<u64> {
        if from == to {
            return Some(0);
        }
        self.cost_to
            .get(&to)
            .and_then(|costs| costs.get(from.index()).copied().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plankton_dataplane::ForwardingGraph;
    use plankton_net::failure::FailureSet;
    use plankton_net::ip::Prefix;
    use plankton_protocols::Route;

    fn record() -> ConvergedRecord {
        // 0 -> 1 -> 2 (owner).
        let mut forwarding = ForwardingGraph::new(3);
        forwarding.next_hops[0] = vec![NodeId(1)];
        forwarding.next_hops[1] = vec![NodeId(2)];
        forwarding.delivers[2] = true;
        let origin = Route::originated(Prefix::DEFAULT);
        let mut r1 = origin.extended_through(NodeId(2));
        r1.igp_cost = 10;
        let mut r0 = r1.extended_through(NodeId(1));
        r0.igp_cost = 20;
        ConvergedRecord {
            failures: FailureSet::none(),
            forwarding,
            control_routes: vec![
                Some(std::sync::Arc::new(r0)),
                Some(std::sync::Arc::new(r1)),
                Some(std::sync::Arc::new(origin)),
            ],
            owners: vec![NodeId(2)],
        }
    }

    #[test]
    fn loopback_costs_feed_the_underlay() {
        let mut u = DependencyUnderlay::new();
        u.add_loopback_record(NodeId(2), &record());
        assert_eq!(u.cost_between(NodeId(0), NodeId(2)), Some(20));
        assert_eq!(u.cost_between(NodeId(1), NodeId(2)), Some(10));
        assert_eq!(u.cost_between(NodeId(2), NodeId(2)), Some(0));
        // Unknown destination: unreachable.
        assert_eq!(u.cost_between(NodeId(0), NodeId(1)), None);
        assert_eq!(u.loopback_count(), 1);
    }

    #[test]
    fn recursive_next_hop_resolution() {
        let mut u = DependencyUnderlay::new();
        let addr = Ipv4Addr::new(9, 9, 9, 9);
        u.add_address_record(addr, &record());
        assert_eq!(u.resolve_next_hops(NodeId(0), addr), Some(vec![NodeId(1)]));
        assert_eq!(u.resolve_next_hops(NodeId(1), addr), Some(vec![NodeId(2)]));
        // The owner resolves to "delivered locally".
        assert_eq!(u.resolve_next_hops(NodeId(2), addr), Some(vec![]));
        // Unknown address: unresolved.
        assert_eq!(
            u.resolve_next_hops(NodeId(0), Ipv4Addr::new(8, 8, 8, 8)),
            None
        );
    }

    #[test]
    fn unreachable_node_does_not_resolve_the_address() {
        // Node 3 exists but the converged state gives it no route towards the
        // address and it is not an owner: the recursive next hop must be
        // unresolvable there, not silently "delivered locally".
        let mut forwarding = ForwardingGraph::new(4);
        forwarding.next_hops[0] = vec![NodeId(1)];
        forwarding.next_hops[1] = vec![NodeId(2)];
        forwarding.delivers[2] = true;
        let rec = ConvergedRecord {
            failures: FailureSet::none(),
            forwarding,
            control_routes: vec![None; 4],
            owners: vec![NodeId(2)],
        };
        let mut u = DependencyUnderlay::new();
        let addr = Ipv4Addr::new(9, 9, 9, 9);
        u.add_address_record(addr, &rec);
        assert_eq!(u.resolve_next_hops(NodeId(0), addr), Some(vec![NodeId(1)]));
        assert_eq!(u.resolve_next_hops(NodeId(2), addr), Some(vec![]));
        assert_eq!(u.resolve_next_hops(NodeId(3), addr), None);
    }
}
