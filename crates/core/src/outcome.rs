//! The converged records PECs hand to their dependents (§3.2: "all possible
//! outcomes of S are written to an in-memory filesystem" — here, the
//! `records` of a [`PolicyOutcome`](crate::cache::PolicyOutcome) in the
//! run's outcome table).

use plankton_dataplane::ForwardingGraph;
use plankton_net::failure::FailureSet;
use plankton_net::topology::NodeId;
use plankton_protocols::Route;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One converged data plane of a PEC under one failure scenario, together
/// with the control-plane information dependents need.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConvergedRecord {
    /// The failure scenario this record was computed under.
    pub failures: FailureSet,
    /// The combined data plane for the PEC.
    pub forwarding: ForwardingGraph,
    /// The converged control-plane route per device for the PEC's most
    /// specific prefix (used for control-plane policies and for IGP cost
    /// lookups by dependent PECs). Routes are hash-consed through the
    /// engine's shared interner, so records across failure scenarios and
    /// converged alternatives share one allocation per distinct route.
    pub control_routes: Vec<Option<Arc<Route>>>,
    /// The devices at which the PEC's traffic is delivered (owners of the
    /// matched prefixes).
    pub owners: Vec<NodeId>,
}

impl ConvergedRecord {
    /// The IGP cost from `n` to the PEC's destination, if `n` has a route.
    pub fn igp_cost_from(&self, n: NodeId) -> Option<u64> {
        if self.owners.contains(&n) {
            return Some(0);
        }
        self.control_routes[n.index()].as_ref().map(|r| r.igp_cost)
    }

    /// Is the destination reachable from `n` in this converged state?
    pub fn reachable_from(&self, n: NodeId) -> bool {
        self.forwarding.walk(n).is_delivered()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plankton_net::ip::Prefix;

    fn record(failures: FailureSet) -> ConvergedRecord {
        let mut forwarding = ForwardingGraph::new(3);
        forwarding.next_hops[0] = vec![NodeId(1)];
        forwarding.next_hops[1] = vec![NodeId(2)];
        forwarding.delivers[2] = true;
        let origin = Route::originated(Prefix::DEFAULT);
        let r1 = origin.extended_through(NodeId(2));
        let mut r0 = r1.extended_through(NodeId(1));
        r0.igp_cost = 20;
        ConvergedRecord {
            failures,
            forwarding,
            control_routes: vec![
                Some(Arc::new(r0)),
                Some(Arc::new(r1)),
                Some(Arc::new(origin)),
            ],
            owners: vec![NodeId(2)],
        }
    }

    #[test]
    fn igp_cost_and_reachability() {
        let r = record(FailureSet::none());
        assert_eq!(r.igp_cost_from(NodeId(0)), Some(20));
        assert_eq!(r.igp_cost_from(NodeId(2)), Some(0));
        assert!(r.reachable_from(NodeId(0)));
    }
}
