//! OSPF as a protocol model: shortest-path routing over configured interface
//! costs.
//!
//! OSPF's ranking function is a *total* order (cost, then a deterministic
//! next-hop tie-break), matching the paper's observation that "OSPF by its
//! nature has deterministic outcomes". Equal-cost multipath is recovered
//! after convergence from the converged costs ([`OspfModel::ecmp_next_hops`])
//! — the special-case deviation from single-best-path RPVP that the paper
//! describes for OSPF.
//!
//! Everything about an OSPF instance except its prefix and origins is a
//! function of the network and the failed links: who is adjacent, at what
//! cost, and the reverse-peer index the explorer patches enabled sets
//! through. That part is an [`OspfAdjacency`], built once per (network,
//! failure set) and shared by `Arc`; an [`OspfModel`] is a view of one
//! adjacency for one prefix. A verify run builds one adjacency per failure
//! set, on its first OSPF task, and every PEC's task under that set takes a
//! view of it (up to a memory cap on what the run keeps), so a task's model
//! set-up is O(origins), not O(edges).
//!
//! The task keys read the same adjacency: `plankton-pec`'s scoped OSPF
//! slices run their competitive Dijkstra on an `OspfAdjacency` through
//! [`OspfAdjacency::row`] and [`OspfAdjacency::distances_from`], so one
//! adjacency feeds both the keys and the model, and nothing else derives
//! the live OSPF graph.

use crate::model::{Preference, ProtocolModel, ReversePeers};
use crate::route::{Route, SessionType};
use crate::rpvp::ConvergedState;
use plankton_config::Network;
use plankton_net::failure::FailureSet;
use plankton_net::ip::Prefix;
use plankton_net::topology::NodeId;
use std::sync::Arc;

/// The OSPF adjacency of a network under one failure set, in compressed
/// sparse rows: per node, its live OSPF peers sorted by id, each with the
/// cost of the cheapest live parallel link towards it, plus the reverse-peer
/// index of that relation. Prefix-independent, so every OSPF instance under
/// the same failure set can share one ([`OspfModel::over`]).
#[derive(Debug)]
pub struct OspfAdjacency {
    /// Node `n`'s peers are `peers[offsets[n]..offsets[n + 1]]`, and
    /// `costs` the same range of `n`'s link costs towards them.
    offsets: Vec<u32>,
    peers: Vec<NodeId>,
    /// The cost configured at `n` for its cheapest live, OSPF-enabled link
    /// towards the peer at the same index.
    costs: Vec<u32>,
    /// `speaks[n]` ⟺ `n` runs an OSPF process (only those originate).
    speaks: Vec<bool>,
    /// The reverse-peer index of `peers`, handed to every view's explorer.
    reverse: Arc<ReversePeers>,
}

impl OspfAdjacency {
    /// The adjacency of `network` with `failures` down. Only routers with
    /// an OSPF process participate; adjacency requires OSPF enabled on the
    /// link at both ends and the link to be alive.
    pub fn new(network: &Network, failures: &FailureSet) -> Self {
        let topo = &network.topology;
        let node_count = topo.node_count();
        let mut offsets = Vec::with_capacity(node_count + 1);
        offsets.push(0u32);
        let mut peers = Vec::new();
        let mut costs = Vec::new();
        let mut adjacent: Vec<(NodeId, u32)> = Vec::new();
        for n in topo.node_ids() {
            if let Some(my_ospf) = &network.device(n).ospf {
                adjacent.clear();
                for &(m, link) in topo.neighbors(n) {
                    if failures.contains(link) {
                        continue;
                    }
                    let Some(peer_ospf) = &network.device(m).ospf else {
                        continue;
                    };
                    let (Some(my_cost), Some(_)) = (my_ospf.cost(link), peer_ospf.cost(link))
                    else {
                        continue;
                    };
                    // RFC 2328 App. C.3; `Network::validate` refuses cost 0,
                    // and `OspfPor`'s Dijkstra argument needs every cost
                    // positive.
                    debug_assert!(my_cost > 0, "zero OSPF cost at {n} on {link}");
                    adjacent.push((m, my_cost));
                }
                // Sorted by (peer, cost): the first entry of each peer's run
                // is its cheapest parallel link.
                adjacent.sort_unstable();
                adjacent.dedup_by_key(|&mut (m, _)| m);
                peers.extend(adjacent.iter().map(|&(m, _)| m));
                costs.extend(adjacent.iter().map(|&(_, c)| c));
            }
            offsets.push(peers.len() as u32);
        }
        let speaks = topo
            .node_ids()
            .map(|n| network.device(n).runs_ospf())
            .collect();
        let row = |n: NodeId| &peers[offsets[n.index()] as usize..offsets[n.index() + 1] as usize];
        let reverse = Arc::new(ReversePeers::build(node_count, row));
        OspfAdjacency {
            offsets,
            peers,
            costs,
            speaks,
            reverse,
        }
    }

    /// Heap bytes the adjacency holds, its reverse-peer index included.
    pub fn bytes(&self) -> usize {
        (self.offsets.capacity() + self.costs.capacity()) * std::mem::size_of::<u32>()
            + self.peers.capacity() * std::mem::size_of::<NodeId>()
            + self.speaks.capacity()
            + self.reverse.bytes()
    }

    fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    fn range(&self, n: NodeId) -> std::ops::Range<usize> {
        self.offsets[n.index()] as usize..self.offsets[n.index() + 1] as usize
    }

    /// The OSPF peers of `n`, sorted by node id.
    fn peers(&self, n: NodeId) -> &[NodeId] {
        &self.peers[self.range(n)]
    }

    /// The configured cost from `n` towards `m`, if they are OSPF-adjacent.
    fn link_cost(&self, n: NodeId, m: NodeId) -> Option<u64> {
        let range = self.range(n);
        let i = self.peers[range.clone()].binary_search(&m).ok()?;
        Some(u64::from(self.costs[range.start + i]))
    }

    /// Node `n`'s row: its OSPF peers `m`, sorted by id, and the cost
    /// configured at `n` towards each, `c(n ← m)`.
    pub fn row(&self, n: NodeId) -> (&[NodeId], &[u32]) {
        let range = self.range(n);
        (&self.peers[range.clone()], &self.costs[range])
    }

    /// Multi-source Dijkstra from `origins`: per node, the cost of its
    /// converged best route (`u64::MAX` where no live path leads to an
    /// origin). Relaxes `dist(m) ≤ dist(n) + c(m ← n)`, reading `c(m ← n)`
    /// from `m`'s row at the slot the reverse-peer index names.
    pub fn distances_from(&self, origins: &[NodeId]) -> Vec<u64> {
        use std::cmp::Reverse;
        let mut dist = vec![u64::MAX; self.node_count()];
        let mut heap = std::collections::BinaryHeap::with_capacity(origins.len());
        for &o in origins {
            dist[o.index()] = 0;
            heap.push(Reverse((0, o)));
        }
        while let Some(Reverse((d, n))) = heap.pop() {
            if dist[n.index()] < d {
                continue;
            }
            for r in &self.reverse[n] {
                // Rows hold each peer once, so every slot is a real one.
                let cost = self.costs[self.offsets[r.node.index()] as usize + r.slot as usize];
                let cand = d.saturating_add(u64::from(cost));
                if cand < dist[r.node.index()] {
                    dist[r.node.index()] = cand;
                    heap.push(Reverse((cand, r.node)));
                }
            }
        }
        dist
    }
}

/// An OSPF instance for a single destination prefix: a view of a shared
/// [`OspfAdjacency`] plus the prefix and its origins.
#[derive(Clone, Debug)]
pub struct OspfModel {
    adjacency: Arc<OspfAdjacency>,
    origins: Vec<NodeId>,
    prefix: Prefix,
}

impl OspfModel {
    /// Build the OSPF model for `prefix` with the given originating routers,
    /// under a set of failed links: a view of a fresh
    /// [`OspfAdjacency::new`]. Only routers with an OSPF process
    /// participate; adjacency requires OSPF enabled on the link at both ends
    /// and the link to be alive.
    pub fn new(
        network: &Network,
        prefix: Prefix,
        origins: Vec<NodeId>,
        failures: &FailureSet,
    ) -> Self {
        Self::over(
            Arc::new(OspfAdjacency::new(network, failures)),
            prefix,
            origins,
        )
    }

    /// The OSPF model for `prefix` with the given originating routers, as a
    /// view of `adjacency`. Origins are sorted and deduplicated in place;
    /// the view allocates nothing else.
    pub fn over(adjacency: Arc<OspfAdjacency>, prefix: Prefix, origins: Vec<NodeId>) -> Self {
        let mut origins = origins;
        origins.sort();
        origins.dedup();
        // Only OSPF speakers can originate into OSPF.
        origins.retain(|o| adjacency.speaks[o.index()]);
        OspfModel {
            adjacency,
            origins,
            prefix,
        }
    }

    /// The destination prefix this instance routes.
    pub fn prefix(&self) -> Prefix {
        self.prefix
    }

    /// The configured cost from `n` towards `m`, if they are OSPF-adjacent.
    pub fn link_cost(&self, n: NodeId, m: NodeId) -> Option<u64> {
        self.adjacency.link_cost(n, m)
    }

    /// The equal-cost next hops of `n` in a converged state, written into
    /// `hops` (cleared first, sorted): every OSPF peer `m` whose advertised
    /// route would have the same cost as `n`'s converged best route. This
    /// recovers OSPF multipath from the single-best-path converged state.
    pub fn ecmp_next_hops(&self, state: &ConvergedState<'_>, n: NodeId, hops: &mut Vec<NodeId>) {
        hops.clear();
        let Some(my_best) = state.best(n) else {
            return;
        };
        if my_best.is_origin() {
            return;
        }
        let range = self.adjacency.range(n);
        let peers = &self.adjacency.peers[range.clone()];
        for (&m, &link) in peers.iter().zip(&self.adjacency.costs[range]) {
            let Some(peer_best) = state.best(m) else {
                continue;
            };
            if peer_best.traverses(n) {
                continue;
            }
            if peer_best.igp_cost + u64::from(link) == my_best.igp_cost {
                hops.push(m);
            }
        }
        hops.sort();
    }
}

/// OSPF's total order: lower cost wins, then fewer hops, then lower next-hop
/// id — OSPF convergence is deterministic.
fn preference_key(r: &Route) -> (u64, usize, u32) {
    (
        r.igp_cost,
        r.hop_count(),
        r.next_hop().map(|x| x.0).unwrap_or(0),
    )
}

/// A smaller key is preferred.
fn rank(order: std::cmp::Ordering) -> Preference {
    match order {
        std::cmp::Ordering::Less => Preference::Better,
        std::cmp::Ordering::Greater => Preference::Worse,
        std::cmp::Ordering::Equal => Preference::Tied,
    }
}

impl ProtocolModel for OspfModel {
    fn node_count(&self) -> usize {
        self.adjacency.node_count()
    }

    fn origins(&self) -> &[NodeId] {
        &self.origins
    }

    fn peers(&self, n: NodeId) -> &[NodeId] {
        self.adjacency.peers(n)
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
        rank(preference_key(a).cmp(&preference_key(b)))
    }

    /// The advertisement's key is `(cost + link, hops + 1, from)`: ranked
    /// from `best_of_from` without building the route.
    fn prefer_advertisement(
        &self,
        from: NodeId,
        to: NodeId,
        best_of_from: &Route,
        other: &Route,
        _built: &mut Option<Route>,
    ) -> Option<Preference> {
        if best_of_from.traverses(to) {
            return None;
        }
        let link = self.link_cost(to, from)?;
        let key = (
            best_of_from.igp_cost.saturating_add(link),
            best_of_from.hop_count() + 1,
            from.0,
        );
        Some(rank(key.cmp(&preference_key(other))))
    }

    fn name(&self) -> &'static str {
        "ospf"
    }

    /// The adjacency's shared index: O(1).
    fn reverse_peers(&self) -> Arc<ReversePeers> {
        Arc::clone(&self.adjacency.reverse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::RouteInterner;
    use crate::rpvp::{Rpvp, RpvpState};
    use plankton_config::scenarios::{fat_tree_ospf, ring_ospf, CoreStaticRoutes};
    use plankton_config::{DeviceConfig, OspfConfig};
    use plankton_net::graph::dijkstra;
    use plankton_net::topology::TopologyBuilder;

    /// Converge `model` along the first enabled choice; the state comes back
    /// with the interner that resolves it.
    fn run_to_convergence(model: &OspfModel) -> (RpvpState, RouteInterner) {
        let rpvp = Rpvp::new(model);
        let mut interner = RouteInterner::new();
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
        assert!(rpvp.converged(&state, &interner));
        (state, interner)
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
        let (state, interner) = run_to_convergence(&model);
        let converged = ConvergedState::new(&state.best, &interner);
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
        let (state, interner) = run_to_convergence(&model);
        let converged = ConvergedState::new(&state.best, &interner);
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
        let (state, interner) = run_to_convergence(&model);
        let converged = ConvergedState::new(&state.best, &interner);
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
        let (state, interner) = run_to_convergence(&model);
        let converged = ConvergedState::new(&state.best, &interner);
        // An edge switch in another pod has two equal-cost uplinks.
        let other_pod_edge = s.fat_tree.edge[1][0];
        let mut hops = Vec::new();
        model.ecmp_next_hops(&converged, other_pod_edge, &mut hops);
        assert_eq!(hops.len(), 2);
        assert!(hops.iter().all(|h| s.fat_tree.aggregation[1].contains(h)));
        // The origin has no next hops.
        model.ecmp_next_hops(&converged, dest_edge, &mut hops);
        assert!(hops.is_empty());
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
        let (state, interner) = run_to_convergence(&model);
        let converged = ConvergedState::new(&state.best, &interner);
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
        let (state, interner) = run_to_convergence(&model);
        let converged = ConvergedState::new(&state.best, &interner);
        assert_eq!(converged.best(b).unwrap().igp_cost, 7);
    }

    /// The override ranks exactly what building the advertisement and
    /// comparing it would: seeded random networks with asymmetric costs up
    /// to `u32::MAX`, random `from → to` pairs (adjacent or not), paths that
    /// may already traverse `to`, costs that saturate, and `other` routes
    /// drawn to tie with the advertisement's key.
    #[test]
    fn prefer_advertisement_equals_building_then_preferring() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut below = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        let (mut rejected, mut tied, mut saturated) = (0, 0, 0);
        for _ in 0..300 {
            let n = 2 + below(7) as usize;
            let mut tb = TopologyBuilder::new();
            let routers: Vec<NodeId> = (0..n).map(|i| tb.add_router(&format!("r{i}"))).collect();
            let mut links = Vec::new();
            for _ in 0..below(2 * n as u64) {
                let (a, b) = (below(n as u64) as usize, below(n as u64) as usize);
                if a != b {
                    links.push((routers[a], routers[b], tb.add_link(routers[a], routers[b])));
                }
            }
            let mut net = Network::unconfigured(tb.build());
            let cost = |below: &mut dyn FnMut(u64) -> u64| match below(4) {
                0 => u32::MAX - below(3) as u32,
                _ => 1 + below(20) as u32,
            };
            let mut configs: Vec<OspfConfig> = vec![OspfConfig::enabled(); n];
            for &(a, b, l) in &links {
                configs[a.index()]
                    .interface_costs
                    .insert(l, cost(&mut below));
                configs[b.index()]
                    .interface_costs
                    .insert(l, cost(&mut below));
            }
            for (r, c) in routers.iter().zip(configs) {
                *net.device_mut(*r) = DeviceConfig::empty().with_ospf(c);
            }
            let model = OspfModel::new(&net, p, vec![routers[0]], &FailureSet::none());
            let random_route = |below: &mut dyn FnMut(u64) -> u64| {
                let mut r = Route::originated(p);
                for _ in 0..below(4) {
                    r = r.extended_through(routers[below(n as u64) as usize]);
                }
                r.igp_cost = match below(3) {
                    0 => u64::MAX - below(3),
                    _ => below(100),
                };
                r
            };
            for _ in 0..40 {
                let from = routers[below(n as u64) as usize];
                let to = routers[below(n as u64) as usize];
                let best_of_from = random_route(&mut below);
                let built = model.advertise(from, to, &best_of_from);
                let other = match (&built, below(3)) {
                    // Same key, different path where there is one to change.
                    (Some(adv), 0) => {
                        let mut hops: Vec<NodeId> = adv.path.iter().copied().collect();
                        if let Some(last) = hops.last_mut() {
                            *last = NodeId(last.0 + 1);
                        }
                        let mut other = Route::originated(p);
                        for &hop in hops.iter().rev() {
                            other = other.extended_through(hop);
                        }
                        other.igp_cost = adv.igp_cost;
                        other
                    }
                    _ => random_route(&mut below),
                };
                let want = built.as_ref().map(|adv| model.prefer(to, adv, &other));
                let mut cache = None;
                let got = model.prefer_advertisement(from, to, &best_of_from, &other, &mut cache);
                assert_eq!(got, want, "{from}→{to} {best_of_from:?} vs {other:?}");
                assert!(cache.is_none(), "the override builds nothing");
                rejected += usize::from(want.is_none());
                tied += usize::from(want == Some(Preference::Tied));
                saturated += usize::from(built.is_some_and(|a| a.igp_cost == u64::MAX));
            }
        }
        assert!(
            rejected > 1000 && tied > 100 && saturated > 50,
            "{rejected} rejected, {tied} tied, {saturated} saturated"
        );
    }

    #[test]
    fn failures_remove_adjacency() {
        let s = ring_ospf(4);
        let failed = FailureSet::from_links(vec![s.ring.links[0], s.ring.links[3]]);
        // Router 0 is now isolated from router 1 and 3.
        let model = OspfModel::new(&s.network, s.destination, vec![s.origin], &failed);
        assert!(model.peers(s.ring.routers[0]).is_empty());
        let (state, interner) = run_to_convergence(&model);
        let converged = ConvergedState::new(&state.best, &interner);
        assert!(converged.best(s.ring.routers[1]).is_none());
        assert!(converged.best(s.ring.routers[2]).is_none());
    }
}
