//! Independent oracle for the shared OSPF adjacency.
//!
//! An OSPF model is a view of an `OspfAdjacency` that a verify run builds
//! once per failure set and shares across every PEC's task. Whatever the
//! view answers — its peers, link costs, reverse-peer index and
//! advertisements — is derived here by brute force from the `Topology`'s
//! link list and each device's `OspfConfig`, with no call into the builder:
//! two routers are OSPF peers iff some live link joins them with OSPF
//! enabled at both ends, and the cost from `n` towards `m` is the cheapest
//! such link's cost as configured at `n`.
//!
//! The networks are seeded random graphs of at most 12 routers with
//! parallel links of different costs, asymmetric costs, devices without
//! OSPF and links with OSPF disabled at one end only, and every failure set
//! of at most two links is checked.

use plankton::config::{DeviceConfig, OspfConfig};
use plankton::prelude::*;
use plankton::protocols::{
    OspfAdjacency, OspfModel, ProtocolModel, ReversePeer, Route, SessionType,
};
use std::sync::Arc;

/// xorshift64: reproducible networks without an RNG dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// A random network: every router but a few runs OSPF, links are drawn
/// between random pairs (so pairs repeat: parallel links), each end gets
/// its own cost, and some link ends have OSPF disabled.
fn random_network(rng: &mut Rng) -> Network {
    let n = 2 + rng.below(11) as usize;
    let mut tb = TopologyBuilder::new();
    let routers: Vec<NodeId> = (0..n).map(|i| tb.add_router(&format!("r{i}"))).collect();
    let mut links = Vec::new();
    for _ in 0..rng.below(2 * n as u64 + 1) {
        let (a, b) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
        if a != b {
            links.push((a, b, tb.add_link(routers[a], routers[b])));
        }
    }
    // A few parallel links on purpose, so each network likely has some.
    for _ in 0..rng.below(3) {
        if let Some(&(a, b, _)) = links.get(rng.below(links.len().max(1) as u64) as usize) {
            links.push((a, b, tb.add_link(routers[a], routers[b])));
        }
    }
    let mut network = Network::unconfigured(tb.build());
    let mut configs: Vec<Option<OspfConfig>> = (0..n)
        .map(|_| (rng.below(6) != 0).then(OspfConfig::enabled))
        .collect();
    for &(a, b, link) in &links {
        for end in [a, b] {
            let Some(cfg) = &mut configs[end] else {
                continue;
            };
            match rng.below(5) {
                0 => cfg.disabled_links.push(link),
                1 => {} // the default cost
                _ => {
                    cfg.interface_costs.insert(link, 1 + rng.below(30) as u32);
                }
            }
        }
    }
    for (r, cfg) in routers.iter().zip(configs) {
        if let Some(cfg) = cfg {
            *network.device_mut(*r) = DeviceConfig::empty().with_ospf(cfg);
        }
    }
    network
}

/// The cost `n` pays on `link` when both ends run OSPF on it and it is up.
fn live_cost(network: &Network, failures: &FailureSet, link: LinkId, n: NodeId) -> Option<u64> {
    if failures.contains(link) {
        return None;
    }
    let l = network.topology.link(link);
    let (a, b) = (l.a.node, l.b.node);
    let m = if a == n { b } else { a };
    let mine = network.device(n).ospf.as_ref()?.cost(link)?;
    network.device(m).ospf.as_ref()?.cost(link)?;
    Some(mine as u64)
}

/// Brute force: `(peers, costs)` of every node, peers sorted.
fn brute_force(network: &Network, failures: &FailureSet) -> Vec<Vec<(NodeId, u64)>> {
    let nodes = network.node_count();
    let mut cheapest: Vec<Vec<Option<u64>>> = vec![vec![None; nodes]; nodes];
    for link in network.topology.links() {
        for (n, m) in [(link.a.node, link.b.node), (link.b.node, link.a.node)] {
            if let Some(c) = live_cost(network, failures, link.id, n) {
                let slot = &mut cheapest[n.index()][m.index()];
                *slot = Some(slot.map_or(c, |old| old.min(c)));
            }
        }
    }
    cheapest
        .into_iter()
        .map(|row| {
            row.into_iter()
                .enumerate()
                .filter_map(|(m, c)| Some((NodeId(m as u32), c?)))
                .collect()
        })
        .collect()
}

fn failure_sets(network: &Network) -> Vec<FailureSet> {
    let links: Vec<LinkId> = network.topology.link_ids().collect();
    let mut sets = vec![FailureSet::none()];
    for (i, &a) in links.iter().enumerate() {
        sets.push(FailureSet::single(a));
        for &b in &links[i + 1..] {
            sets.push(FailureSet::from_links(vec![a, b]));
        }
    }
    sets
}

#[test]
fn shared_adjacency_views_match_a_brute_force_derivation() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let prefix: Prefix = "10.0.0.0/24".parse().unwrap();
    let other: Prefix = "10.1.0.0/24".parse().unwrap();
    let (mut checked, mut parallel, mut one_ended, mut silent, mut adverts) = (0, 0, 0, 0, 0);
    for _ in 0..120 {
        let network = random_network(&mut rng);
        let nodes = network.node_count();
        silent += network
            .topology
            .node_ids()
            .filter(|&n| !network.device(n).runs_ospf())
            .count();
        for l in network.topology.links() {
            let (a, b) = (l.a.node, l.b.node);
            let twins = network
                .topology
                .links()
                .iter()
                .filter(|k| (k.a.node, k.b.node) == (a, b) || (k.a.node, k.b.node) == (b, a))
                .count();
            parallel += usize::from(twins > 1);
            let on = |n: NodeId| {
                network
                    .device(n)
                    .ospf
                    .as_ref()
                    .map(|c| c.cost(l.id).is_some())
            };
            one_ended += usize::from(matches!((on(a), on(b)), (Some(true), Some(false))));
        }
        for failures in failure_sets(&network) {
            let want = brute_force(&network, &failures);
            let adjacency = Arc::new(OspfAdjacency::new(&network, &failures));
            let origins: Vec<NodeId> = (0..nodes as u32).map(NodeId).take(2).collect();
            // Two views of one adjacency, for different prefixes and origins.
            let views = [(prefix, &origins[..]), (other, &origins[..1])].map(|(p, o)| {
                let view = OspfModel::over(Arc::clone(&adjacency), p, o.to_vec());
                (view, o)
            });
            for (view, origins) in &views {
                assert_eq!(view.node_count(), nodes);
                let speakers: Vec<NodeId> = origins
                    .iter()
                    .copied()
                    .filter(|&o| network.device(o).runs_ospf())
                    .collect();
                assert_eq!(
                    view.origins(),
                    &speakers[..],
                    "only OSPF speakers originate"
                );
                let reverse = view.reverse_peers();
                for n in network.topology.node_ids() {
                    let row = &want[n.index()];
                    let peers: Vec<NodeId> = row.iter().map(|&(m, _)| m).collect();
                    assert_eq!(view.peers(n), &peers[..], "peers of {n} under {failures}");
                    for m in network.topology.node_ids() {
                        let cost = row.iter().find(|&&(p, _)| p == m).map(|&(_, c)| c);
                        assert_eq!(view.link_cost(n, m), cost, "{n}→{m} under {failures}");
                    }
                    let listeners: Vec<ReversePeer> = network
                        .topology
                        .node_ids()
                        .filter_map(|m| {
                            let slot = want[m.index()].iter().position(|&(p, _)| p == n)?;
                            Some(ReversePeer {
                                node: m,
                                slot: slot as u32,
                            })
                        })
                        .collect();
                    assert_eq!(
                        &reverse[n],
                        &listeners[..],
                        "listeners of {n} under {failures}"
                    );
                }
                // Advertisements from every node to every node, over a route
                // that may already traverse the receiver.
                for from in network.topology.node_ids() {
                    for to in network.topology.node_ids() {
                        let mut best = Route::originated(view.prefix());
                        for _ in 0..rng.below(3) {
                            best = best.extended_through(NodeId(rng.below(nodes as u64) as u32));
                        }
                        best.igp_cost = rng.below(50);
                        let cost = want[to.index()]
                            .iter()
                            .find(|&&(p, _)| p == from)
                            .map(|&(_, c)| c);
                        let expected = match cost {
                            Some(c) if !best.traverses(to) => {
                                let mut adv = best.extended_through(from);
                                adv.igp_cost = best.igp_cost + c;
                                adv.learned_via = SessionType::Igp;
                                Some(adv)
                            }
                            _ => None,
                        };
                        adverts += usize::from(expected.is_some());
                        assert_eq!(
                            view.advertise(from, to, &best),
                            expected,
                            "{from}→{to} over {best:?} under {failures}"
                        );
                    }
                }
            }
            checked += 1;
        }
    }
    assert!(
        checked > 3000 && parallel > 200 && one_ended > 50 && silent > 50 && adverts > 30_000,
        "{checked} failure sets, {parallel} parallel links, {one_ended} one-ended links, \
         {silent} silent devices, {adverts} advertisements"
    );
}

/// The key layer's Dijkstra ([`OspfAdjacency::distances_from`]) against
/// `plankton::net::graph::dijkstra` run once per origin over the
/// `Topology`, with the receiving end's configured cost on each link: the
/// multi-source distance of a node is the least of its per-origin ones.
/// Checked under no failure and every single-link failure, on the ring,
/// the k=4 OSPF fat tree, AS3967 and seeded random networks whose parallel
/// links carry different costs at their two ends.
#[test]
fn multi_source_distances_match_per_origin_dijkstra() {
    use plankton::config::scenarios::{fat_tree_ospf, isp_ospf, ring_ospf, CoreStaticRoutes};
    use plankton::net::generators::as_topo::AsTopologySpec;
    use plankton::net::graph::dijkstra;

    let mut rng = Rng(0x2545_F491_4F6C_DD1D);
    let mut networks = vec![
        ring_ospf(8).network,
        fat_tree_ospf(4, CoreStaticRoutes::None).network,
        isp_ospf(&AsTopologySpec::paper_as(3967)).network,
    ];
    networks.extend((0..60).map(|_| random_network(&mut rng)));
    let (mut checked, mut asymmetric_parallel, mut reached) = (0, 0, 0);
    for network in &networks {
        let topo = &network.topology;
        let none = FailureSet::none();
        for l in topo.links() {
            let (a, b) = (l.a.node, l.b.node);
            let parallel = topo.links_between(a, b).len() > 1;
            let (ca, cb) = (
                live_cost(network, &none, l.id, a),
                live_cost(network, &none, l.id, b),
            );
            asymmetric_parallel += usize::from(parallel && ca.is_some() && ca != cb);
        }
        let n = network.node_count() as u64;
        let origin_sets: Vec<Vec<NodeId>> = (0..4)
            .map(|size| (0..=size).map(|_| NodeId(rng.below(n) as u32)).collect())
            .collect();
        let failure_sets =
            std::iter::once(FailureSet::none()).chain(topo.link_ids().map(FailureSet::single));
        for failures in failure_sets {
            let adjacency = OspfAdjacency::new(network, &failures);
            for origins in &origin_sets {
                // Edge `u → v` costs what `v` pays to reach `u`: routes
                // flow from the origins, costs are charged where they land.
                let per_origin: Vec<_> = origins
                    .iter()
                    .map(|&o| {
                        dijkstra(topo, o, &failures, |u, link| {
                            let l = topo.link(link);
                            let v = if l.a.node == u { l.b.node } else { l.a.node };
                            live_cost(network, &failures, link, v)
                        })
                    })
                    .collect();
                let want: Vec<u64> = topo
                    .node_ids()
                    .map(|v| {
                        per_origin
                            .iter()
                            .filter_map(|sp| sp.cost(v))
                            .min()
                            .unwrap_or(u64::MAX)
                    })
                    .collect();
                assert_eq!(
                    adjacency.distances_from(origins),
                    want,
                    "origins {origins:?} under {failures}"
                );
                reached += want.iter().filter(|&&d| d != 0 && d != u64::MAX).count();
                checked += 1;
            }
        }
    }
    assert!(
        checked > 2000 && asymmetric_parallel > 40 && reached > 40_000,
        "{checked} (origins, failure set) pairs, {asymmetric_parallel} parallel links with \
         different costs at their ends, {reached} nodes reached"
    );
}
