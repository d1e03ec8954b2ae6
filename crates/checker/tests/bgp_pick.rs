//! The branching BGP search against the reference explorer, under every
//! failure set of at most one link: [`BgpPor`]'s pick from cached per-node
//! verdicts, and the visited set keyed by the explorer's incrementally kept
//! state hash, must leave the explored tree exactly as the reference's full
//! pass and folded hash do — the same statistics and the same converged
//! states, found in the same order with the same trails.
//!
//! Debug builds also audit both shortcuts at every use (the cached pick
//! against the full pass, the kept hash against the fold); this test is the
//! check that survives `--release`, where those audits are compiled out.

use plankton_checker::{
    BgpPor, ModelChecker, ReferenceChecker, SearchOptions, SearchStats, Trail, Verdict,
};
use plankton_config::route_map::{
    MatchCondition, RouteMap, RouteMapAction, RouteMapClause, SetAction,
};
use plankton_config::scenarios::{
    bgp_wedgie, disagree_gadget, fat_tree_bgp_rfc7938, isp_ibgp_over_ospf,
};
use plankton_config::{BgpConfig, BgpNeighborConfig, Network};
use plankton_net::failure::FailureSet;
use plankton_net::generators::as_topo::AsTopologySpec;
use plankton_net::ip::Ipv4Addr;
use plankton_net::ip::Prefix;
use plankton_net::topology::{LinkId, NodeId, TopologyBuilder};
use plankton_protocols::bgp::{BgpModel, IgpUnderlay, TableUnderlay, UniformUnderlay};
use plankton_protocols::Route;
use std::sync::Arc;

/// One BGP instance: a network, a prefix, the nodes originating it and the
/// policy's sources, if any (policy-based pruning stops a run once they all
/// decide).
struct Instance {
    name: String,
    network: Network,
    prefix: Prefix,
    origins: Vec<NodeId>,
    sources: Option<Vec<NodeId>>,
    /// iBGP sessions resolve over OSPF shortest paths; eBGP-only networks
    /// never consult an underlay.
    ibgp: bool,
}

fn instances() -> Vec<Instance> {
    let mut out = Vec::new();
    for g in [disagree_gadget(), bgp_wedgie()] {
        out.push(Instance {
            name: g.name.to_string(),
            network: g.network,
            prefix: g.destination,
            origins: vec![g.origin],
            sources: None,
            ibgp: false,
        });
    }
    // Every rack's prefix, asked from one monitored rack as the waypoint
    // question on this data center asks it (an unsourced k=4 search
    // converges 8 192 ways per rack).
    let dc = fat_tree_bgp_rfc7938(4, 7938);
    for &edge in dc.fat_tree.edge.iter().flatten() {
        out.push(Instance {
            name: format!("rfc7938 k=4 rack {edge}"),
            network: dc.network.clone(),
            prefix: dc
                .fat_tree
                .prefix_of_edge(edge)
                .expect("racks have prefixes"),
            origins: vec![edge],
            sources: Some(vec![dc.monitored_edges.0]),
            ibgp: false,
        });
    }
    // Ten iBGP speakers in a full mesh: executions that order their
    // decisions differently meet at states the visited set already holds.
    let isp = isp_ibgp_over_ospf(&AsTopologySpec::scale(40));
    for (&prefix, &border) in isp.bgp_destinations.iter().zip(&isp.borders) {
        out.push(Instance {
            name: format!("ibgp over ospf {prefix}"),
            network: isp.network.clone(),
            prefix,
            origins: vec![border],
            sources: None,
            ibgp: true,
        });
    }
    for seed in 0..200 {
        out.push(random_gadget(seed));
    }
    out
}

/// A random eBGP network in the spirit of DISAGREE: 4–9 routers, each its
/// own AS, on a random connected graph, where half the sessions raise the
/// local preference of what they import (150, 200 or 250). Such preferences
/// chase each other, so the search branches over several enabled nodes at
/// once and backtracks across them — where a pick that reused a verdict an
/// undo had invalidated would step the wrong node.
fn random_gadget(seed: u64) -> Instance {
    let mut x = 0x2545_F491_4F6C_DD1D ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut below = move |n: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as usize
    };
    let n = 4 + below(6);
    let mut tb = TopologyBuilder::new();
    let routers: Vec<NodeId> = (0..n).map(|i| tb.add_router(&format!("g{i}"))).collect();
    let mut adjacent = vec![vec![false; n]; n];
    for i in 0..n {
        tb.set_loopback(routers[i], Ipv4Addr::new(3, 0, seed as u8, i as u8 + 1));
        // A spanning tree, then a few chords.
        let mut ends = Vec::new();
        if i > 0 {
            ends.push((i, below(i)));
        }
        for _ in 0..below(3) {
            ends.push((i, below(n)));
        }
        for (a, b) in ends {
            if a != b && !adjacent[a][b] {
                adjacent[a][b] = true;
                adjacent[b][a] = true;
                tb.add_link(routers[a], routers[b]);
            }
        }
    }
    let mut network = Network::unconfigured(tb.build());
    let prefix: Prefix = "70.0.0.0/16".parse().unwrap();
    let asn = |i: usize| 65100 + i as u32;
    for i in 0..n {
        let mut bgp = BgpConfig::new(asn(i), i as u32 + 1);
        if i == 0 {
            bgp = bgp.with_network(prefix);
        }
        for j in (0..n).filter(|&j| adjacent[i][j]) {
            let mut neighbor = BgpNeighborConfig::ebgp(routers[j], asn(j));
            if i != 0 && below(2) == 0 {
                neighbor = neighbor.with_import(RouteMap {
                    clauses: vec![
                        RouteMapClause {
                            action: RouteMapAction::Permit,
                            matches: vec![MatchCondition::Neighbor(routers[j])],
                            sets: vec![SetAction::LocalPref(150 + 50 * below(3) as u32)],
                        },
                        RouteMapClause::permit_any(),
                    ],
                });
            }
            bgp = bgp.with_neighbor(neighbor);
        }
        network.device_mut(routers[i]).bgp = Some(bgp);
    }
    Instance {
        name: format!("random gadget {seed}"),
        network,
        prefix,
        origins: vec![routers[0]],
        sources: None,
        ibgp: false,
    }
}

/// All-pairs OSPF shortest-path costs with `failures` down.
fn ospf_underlay(network: &Network, failures: &FailureSet) -> TableUnderlay {
    let topo = &network.topology;
    let n = network.node_count();
    let mut table = TableUnderlay::new();
    for s in topo.node_ids() {
        let mut dist = vec![u64::MAX; n];
        let mut done = vec![false; n];
        dist[s.index()] = 0;
        while let Some(u) = (0..n)
            .filter(|&i| !done[i] && dist[i] < u64::MAX)
            .min_by_key(|&i| dist[i])
        {
            done[u] = true;
            let u = NodeId(u as u32);
            table.set(s, u, dist[u.index()]);
            let Some(ospf) = network.device(u).ospf.as_ref() else {
                continue;
            };
            for &(v, link) in topo.neighbors(u) {
                if failures.contains(link) {
                    continue;
                }
                if let Some(cost) = ospf.cost(link) {
                    let d = dist[u.index()] + u64::from(cost);
                    dist[v.index()] = dist[v.index()].min(d);
                }
            }
        }
    }
    table
}

/// What one explorer saw: its statistics and every converged state (routes
/// resolved, so interner numbering cannot matter) with its trail.
type Run = (SearchStats, Vec<(Vec<Option<Route>>, Trail)>);

fn explore(model: &BgpModel, options: &SearchOptions, failures: &FailureSet) -> (Run, Run) {
    let mut explorer_states = Vec::new();
    let explorer = ModelChecker::new(
        model,
        Box::new(BgpPor::from_model(model)),
        options.clone(),
        failures.clone(),
    )
    .run(&mut |s, trail| {
        explorer_states.push((s.to_routes(), trail.clone()));
        Verdict::Continue
    });
    let mut reference_states = Vec::new();
    let reference = ReferenceChecker::new(
        model,
        Box::new(BgpPor::from_model(model)),
        options.clone(),
        failures.clone(),
    )
    .run(&mut |s, trail| {
        reference_states.push((s.to_routes(), trail.clone()));
        Verdict::Continue
    });
    (
        (explorer.without_incremental_counters(), explorer_states),
        (reference.without_incremental_counters(), reference_states),
    )
}

#[test]
fn cached_bgp_picks_and_hashed_visited_sets_explore_the_reference_tree() {
    // The paper's reductions, and the same without decision independence
    // (more branching).
    let reductions = [
        ("all reductions", SearchOptions::all_optimizations()),
        (
            "no decision independence",
            SearchOptions {
                decision_independence: false,
                ..SearchOptions::all_optimizations()
            },
        ),
    ];
    let (mut runs, mut branch_points, mut pruned_visited) = (0u64, 0u64, 0u64);
    for instance in instances() {
        let links = instance.network.topology.links().len();
        let failure_sets = std::iter::once(FailureSet::none())
            .chain((0..links).map(|l| FailureSet::single(LinkId(l as u32))));
        for failures in failure_sets {
            let underlay: Arc<dyn IgpUnderlay> = if instance.ibgp {
                Arc::new(ospf_underlay(&instance.network, &failures))
            } else {
                Arc::new(UniformUnderlay)
            };
            let model = BgpModel::new(
                &instance.network,
                instance.prefix,
                instance.origins.clone(),
                &failures,
                underlay,
            );
            for (label, options) in &reductions {
                let options = SearchOptions {
                    source_nodes: instance.sources.clone(),
                    ..options.clone()
                };
                let (explorer, reference) = explore(&model, &options, &failures);
                assert_eq!(
                    explorer.0, reference.0,
                    "{} under {failures:?}, {label}: statistics",
                    instance.name
                );
                assert!(
                    explorer.1 == reference.1,
                    "{} under {failures:?}, {label}: converged states differ",
                    instance.name
                );
                runs += 1;
                branch_points += explorer.0.branch_points;
                pruned_visited += explorer.0.pruned_visited;
            }
        }
    }
    // The comparison means something only if the searches branch, and the
    // visited set turns executions away.
    assert!(runs > 500, "{runs} runs");
    assert!(branch_points > 5000, "{branch_points} branch points");
    assert!(pruned_visited > 5000, "{pruned_visited} visited-set prunes");
}
