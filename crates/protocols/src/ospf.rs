//! OSPF as a protocol model: shortest-path routing over configured interface
//! costs.
//!
//! OSPF's ranking function is a *total* order (cost, then a deterministic
//! next-hop tie-break), matching the paper's observation that "OSPF by its
//! nature has deterministic outcomes". Equal-cost multipath is recovered
//! after convergence from the converged costs ([`OspfModel::ecmp_next_hops`])
//! — the special-case deviation from single-best-path RPVP that the paper
//! describes for OSPF.

use crate::model::{Preference, ProtocolModel};
use crate::route::{Route, SessionType};
use plankton_config::Network;
use plankton_net::failure::FailureSet;
use plankton_net::ip::Prefix;
use plankton_net::topology::NodeId;

/// An OSPF instance for a single destination prefix.
#[derive(Clone, Debug)]
pub struct OspfModel {
    node_count: usize,
    origins: Vec<NodeId>,
    /// `peers[n]`, sorted by node id.
    peers: Vec<Vec<NodeId>>,
    /// `costs[n][i]` = the cost configured at `n` for its cheapest live,
    /// OSPF-enabled link towards `peers[n][i]`.
    costs: Vec<Vec<u64>>,
    prefix: Prefix,
}

impl OspfModel {
    /// Build the OSPF model for `prefix` with the given originating routers,
    /// under a set of failed links. Only routers with an OSPF process
    /// participate; adjacency requires OSPF enabled on the link at both ends
    /// and the link to be alive.
    pub fn new(
        network: &Network,
        prefix: Prefix,
        origins: Vec<NodeId>,
        failures: &FailureSet,
    ) -> Self {
        let topo = &network.topology;
        let node_count = topo.node_count();
        let mut peers = vec![Vec::new(); node_count];
        let mut costs = vec![Vec::new(); node_count];
        let mut adjacent: Vec<(NodeId, u64)> = Vec::new();

        for n in topo.node_ids() {
            let Some(my_ospf) = &network.device(n).ospf else {
                continue;
            };
            adjacent.clear();
            for &(m, link) in topo.neighbors(n) {
                if failures.contains(link) {
                    continue;
                }
                let Some(peer_ospf) = &network.device(m).ospf else {
                    continue;
                };
                let (Some(my_cost), Some(_)) = (my_ospf.cost(link), peer_ospf.cost(link)) else {
                    continue;
                };
                adjacent.push((m, my_cost as u64));
            }
            // Sorted by (peer, cost): the first entry of each peer's run is
            // its cheapest parallel link.
            adjacent.sort_unstable();
            adjacent.dedup_by_key(|&mut (m, _)| m);
            peers[n.index()] = adjacent.iter().map(|&(m, _)| m).collect();
            costs[n.index()] = adjacent.iter().map(|&(_, c)| c).collect();
        }

        let mut origins = origins;
        origins.sort();
        origins.dedup();
        // Only OSPF speakers can originate into OSPF.
        origins.retain(|o| network.device(*o).runs_ospf());

        OspfModel {
            node_count,
            origins,
            peers,
            costs,
            prefix,
        }
    }

    /// The destination prefix this instance routes.
    pub fn prefix(&self) -> Prefix {
        self.prefix
    }

    /// The configured cost from `n` towards `m`, if they are OSPF-adjacent.
    pub fn link_cost(&self, n: NodeId, m: NodeId) -> Option<u64> {
        let i = self.peers[n.index()].binary_search(&m).ok()?;
        Some(self.costs[n.index()][i])
    }

    /// The equal-cost next hops of `n` in a converged state: every OSPF peer
    /// `m` whose advertised route would have the same cost as `n`'s converged
    /// best route. This recovers OSPF multipath from the single-best-path
    /// converged state.
    pub fn ecmp_next_hops(&self, best: &[Option<Route>], n: NodeId) -> Vec<NodeId> {
        let Some(Some(my_best)) = best.get(n.index()) else {
            return Vec::new();
        };
        if my_best.is_origin() {
            return Vec::new();
        }
        let mut hops = Vec::new();
        for (&m, &link) in self.peers[n.index()].iter().zip(&self.costs[n.index()]) {
            let Some(Some(peer_best)) = best.get(m.index()) else {
                continue;
            };
            if peer_best.traverses(n) {
                continue;
            }
            if peer_best.igp_cost + link == my_best.igp_cost {
                hops.push(m);
            }
        }
        hops.sort();
        hops
    }
}

impl ProtocolModel for OspfModel {
    fn node_count(&self) -> usize {
        self.node_count
    }

    fn origins(&self) -> &[NodeId] {
        &self.origins
    }

    fn peers(&self, n: NodeId) -> &[NodeId] {
        &self.peers[n.index()]
    }

    fn advertise(&self, from: NodeId, to: NodeId, best_of_from: &Route) -> Option<Route> {
        // Loop rejection: never accept a path that already traverses the
        // receiving node.
        if best_of_from.traverses(to) {
            return None;
        }
        let link = self.link_cost(to, from)?;
        let mut adv = best_of_from.extended_through(from);
        adv.igp_cost = best_of_from.igp_cost.saturating_add(link);
        adv.learned_via = SessionType::Igp;
        Some(adv)
    }

    fn origin_route(&self, _origin: NodeId) -> Route {
        Route::originated(self.prefix)
    }

    fn prefer(&self, _n: NodeId, a: &Route, b: &Route) -> Preference {
        // Total order: lower cost wins, then fewer hops, then lower next-hop
        // id — OSPF convergence is deterministic.
        let key = |r: &Route| {
            (
                r.igp_cost,
                r.hop_count(),
                r.next_hop().map(|x| x.0).unwrap_or(0),
            )
        };
        match key(a).cmp(&key(b)) {
            std::cmp::Ordering::Less => Preference::Better,
            std::cmp::Ordering::Greater => Preference::Worse,
            std::cmp::Ordering::Equal => Preference::Tied,
        }
    }

    fn name(&self) -> &'static str {
        "ospf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpvp::Rpvp;
    use plankton_config::scenarios::{fat_tree_ospf, ring_ospf, CoreStaticRoutes};
    use plankton_config::{DeviceConfig, OspfConfig};
    use plankton_net::graph::dijkstra;
    use plankton_net::topology::TopologyBuilder;

    fn run_to_convergence(model: &OspfModel) -> crate::rpvp::ConvergedState {
        let rpvp = Rpvp::new(model);
        let mut interner = crate::interner::RouteInterner::new();
        let mut state = rpvp.initial_state(&mut interner);
        let mut steps = 0usize;
        loop {
            let enabled = rpvp.enabled(&state, &mut interner);
            let Some(choice) = enabled.into_iter().next() else {
                break;
            };
            let peer = choice.best_updates.first().map(|(p, _)| *p);
            rpvp.step(&mut state, &mut interner, choice.node, peer);
            steps += 1;
            assert!(steps < 100_000, "OSPF did not converge");
        }
        rpvp.converged_state(&state, &interner)
    }

    #[test]
    fn ring_converges_to_shortest_paths() {
        let s = ring_ospf(8);
        let model = OspfModel::new(
            &s.network,
            s.destination,
            vec![s.origin],
            &FailureSet::none(),
        );
        let converged = run_to_convergence(&model);
        // Compare against Dijkstra from the origin (symmetric unit weights).
        let sp = dijkstra(
            &s.network.topology,
            s.origin,
            &FailureSet::none(),
            |_, _| Some(1),
        );
        for n in s.network.topology.node_ids() {
            let cost = converged.best(n).map(|r| r.igp_cost);
            assert_eq!(cost, sp.cost(n), "cost mismatch at {n}");
        }
    }

    #[test]
    fn ring_with_failure_routes_the_long_way() {
        let s = ring_ospf(6);
        // Fail the link between the origin and its clockwise neighbor.
        let failed = FailureSet::single(s.ring.links[0]);
        let model = OspfModel::new(&s.network, s.destination, vec![s.origin], &failed);
        let converged = run_to_convergence(&model);
        // Router 1 (the far end of the failed link) must now route the long
        // way round: 5 hops.
        let r1 = s.ring.routers[1];
        assert_eq!(converged.best(r1).unwrap().hop_count(), 5);
        assert_eq!(converged.best(r1).unwrap().igp_cost, 5);
    }

    #[test]
    fn fat_tree_edge_reaches_other_pod_in_four_hops() {
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        let dest_edge = s.fat_tree.edge[0][0];
        let prefix = s.fat_tree.prefix_of_edge(dest_edge).unwrap();
        let model = OspfModel::new(&s.network, prefix, vec![dest_edge], &FailureSet::none());
        let converged = run_to_convergence(&model);
        let other_pod_edge = s.fat_tree.edge[2][1];
        let route = converged.best(other_pod_edge).unwrap();
        // edge → agg → core → agg → edge = 4 hops at cost 40.
        assert_eq!(route.hop_count(), 4);
        assert_eq!(route.igp_cost, 40);
        // Same-pod edge is 2 hops away.
        let same_pod = s.fat_tree.edge[0][1];
        assert_eq!(converged.best(same_pod).unwrap().hop_count(), 2);
    }

    #[test]
    fn ecmp_next_hops_found_in_fat_tree() {
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        let dest_edge = s.fat_tree.edge[0][0];
        let prefix = s.fat_tree.prefix_of_edge(dest_edge).unwrap();
        let model = OspfModel::new(&s.network, prefix, vec![dest_edge], &FailureSet::none());
        let converged = run_to_convergence(&model);
        // An edge switch in another pod has two equal-cost uplinks.
        let other_pod_edge = s.fat_tree.edge[1][0];
        let hops = model.ecmp_next_hops(&converged.best, other_pod_edge);
        assert_eq!(hops.len(), 2);
        assert!(hops.iter().all(|h| s.fat_tree.aggregation[1].contains(h)));
        // The origin has no next hops.
        assert!(model.ecmp_next_hops(&converged.best, dest_edge).is_empty());
    }

    #[test]
    fn disabled_ospf_devices_do_not_participate() {
        let mut tb = TopologyBuilder::new();
        let a = tb.add_router("a");
        let b = tb.add_router("b");
        let c = tb.add_router("c");
        tb.add_link(a, b);
        tb.add_link(b, c);
        let mut net = Network::unconfigured(tb.build());
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        *net.device_mut(a) = DeviceConfig::empty().with_ospf(OspfConfig::originating(vec![p]));
        // b runs no OSPF: c can never learn the prefix.
        *net.device_mut(c) = DeviceConfig::empty().with_ospf(OspfConfig::enabled());
        let model = OspfModel::new(&net, p, vec![a], &FailureSet::none());
        assert!(model.peers(a).is_empty());
        assert!(model.peers(c).is_empty());
        let converged = run_to_convergence(&model);
        assert!(converged.best(c).is_none());
    }

    #[test]
    fn asymmetric_costs_use_receiving_side() {
        let mut tb = TopologyBuilder::new();
        let a = tb.add_router("a");
        let b = tb.add_router("b");
        let l = tb.add_link(a, b);
        let mut net = Network::unconfigured(tb.build());
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        *net.device_mut(a) =
            DeviceConfig::empty().with_ospf(OspfConfig::originating(vec![p]).with_cost(l, 5));
        *net.device_mut(b) = DeviceConfig::empty().with_ospf(OspfConfig::enabled().with_cost(l, 7));
        let model = OspfModel::new(&net, p, vec![a], &FailureSet::none());
        // b's cost towards a is b's configured interface cost (7).
        assert_eq!(model.link_cost(b, a), Some(7));
        assert_eq!(model.link_cost(a, b), Some(5));
        let converged = run_to_convergence(&model);
        assert_eq!(converged.best(b).unwrap().igp_cost, 7);
    }

    #[test]
    fn failures_remove_adjacency() {
        let s = ring_ospf(4);
        let failed = FailureSet::from_links(vec![s.ring.links[0], s.ring.links[3]]);
        // Router 0 is now isolated from router 1 and 3.
        let model = OspfModel::new(&s.network, s.destination, vec![s.origin], &failed);
        assert!(model.peers(s.ring.routers[0]).is_empty());
        let converged = run_to_convergence(&model);
        assert!(converged.best(s.ring.routers[1]).is_none());
        assert!(converged.best(s.ring.routers[2]).is_none());
    }
}
