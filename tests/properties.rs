//! Property-based integration tests over randomly generated inputs:
//! the PEC partition really is a partition, OSPF model checking agrees with
//! Dijkstra, the optimized and unoptimized searches find the same converged
//! forwarding states, and SPVP executions only ever stop in RPVP-stable
//! states.
//!
//! These originally ran under `proptest`; this build environment has no
//! registry access, so the same properties are exercised with explicit
//! seeded sampling (48 deterministic cases per property, like the original
//! `ProptestConfig::with_cases(48)`), which also makes failures trivially
//! reproducible from the reported seed.

use plankton::checker::{ModelChecker, NoPor, OspfPor, SearchOptions, Verdict};
use plankton::config::scenarios::ring_ospf;
use plankton::config::{ConfigDelta, DeviceConfig, OspfConfig};
use plankton::net::failure::FailureSet;
use plankton::net::graph::dijkstra;
use plankton::pec::{compute_pecs, PrefixTrie};
use plankton::prelude::*;
use plankton::protocols::OspfModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

const CASES: u64 = 48;

/// Sample a list of arbitrary prefixes (random address + length).
fn sample_prefixes(rng: &mut StdRng) -> Vec<Prefix> {
    let count = rng.gen_range(1..12usize);
    (0..count)
        .map(|_| {
            let addr: u32 = rng.gen_range(0..=u32::MAX);
            let len: u8 = rng.gen_range(0..=32);
            Prefix::new(Ipv4Addr(addr), len)
        })
        .collect()
}

/// Sample a random connected graph on `n` nodes given by extra edges over a
/// spanning path, with OSPF costs.
fn sample_topology(rng: &mut StdRng) -> (usize, Vec<(usize, usize, u32)>) {
    let n = rng.gen_range(3..9usize);
    let mut edges: Vec<(usize, usize, u32)> =
        (1..n).map(|i| (i - 1, i, 1 + (i as u32 % 5))).collect();
    let extras = rng.gen_range(0..n);
    for _ in 0..extras {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        let w = rng.gen_range(1..8u32);
        if a != b {
            edges.push((a.min(b), a.max(b), w));
        }
    }
    (n, edges)
}

fn build_ospf_network(
    n: usize,
    edges: &[(usize, usize, u32)],
    destination: Prefix,
) -> (Network, Vec<NodeId>) {
    let mut builder = TopologyBuilder::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| builder.add_router(&format!("r{i}")))
        .collect();
    let mut links = Vec::new();
    for &(a, b, _) in edges {
        links.push(builder.add_link(nodes[a], nodes[b]));
    }
    let mut network = Network::unconfigured(builder.build());
    for (i, &node) in nodes.iter().enumerate() {
        let mut ospf = OspfConfig::enabled();
        for (link, &(a, b, w)) in links.iter().zip(edges) {
            if a == i || b == i {
                ospf = ospf.with_cost(*link, w);
            }
        }
        if i == 0 {
            ospf = ospf.with_network(destination);
        }
        *network.device_mut(node) = DeviceConfig::empty().with_ospf(ospf);
    }
    (network, nodes)
}

/// The trie partition is a disjoint cover of the whole address space and is
/// coarsest (adjacent ranges differ in their covering sets).
#[test]
fn trie_partition_is_a_partition() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let prefixes = sample_prefixes(&mut rng);
        let mut trie = PrefixTrie::new();
        for (i, p) in prefixes.iter().enumerate() {
            trie.insert(*p, i);
        }
        let parts = trie.partition();
        assert_eq!(parts.first().unwrap().0.lo, Ipv4Addr::ZERO, "seed {seed}");
        assert_eq!(parts.last().unwrap().0.hi, Ipv4Addr::MAX, "seed {seed}");
        for w in parts.windows(2) {
            assert_eq!(w[0].0.hi.saturating_next(), w[1].0.lo, "seed {seed}");
            assert_ne!(&w[0].1, &w[1].1, "seed {seed}");
        }
        // Every range's covering set is exactly the inserted prefixes that
        // contain its representative address.
        for (range, covering) in &parts {
            let expected: HashSet<Prefix> = prefixes
                .iter()
                .copied()
                .filter(|p| p.contains(range.lo))
                .collect();
            let actual: HashSet<Prefix> = covering.iter().copied().collect();
            assert_eq!(expected, actual, "seed {seed}");
        }
    }
}

/// Model-checked OSPF converges to Dijkstra's shortest-path costs on random
/// weighted graphs.
#[test]
fn ospf_model_checking_matches_dijkstra() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let (n, edges) = sample_topology(&mut rng);
        let destination: Prefix = "198.51.100.0/24".parse().unwrap();
        let (network, nodes) = build_ospf_network(n, &edges, destination);
        let origin = nodes[0];

        let model = OspfModel::new(&network, destination, vec![origin], &FailureSet::none());
        let checker = ModelChecker::new(
            &model,
            Box::new(OspfPor),
            SearchOptions::all_optimizations(),
            FailureSet::none(),
        );
        let mut costs = vec![None; n];
        checker.run(&mut |converged, _| {
            for (i, cost) in costs.iter_mut().enumerate() {
                *cost = converged.best(NodeId(i as u32)).map(|r| r.igp_cost);
            }
            Verdict::Stop
        });

        let device_cost = |node: NodeId, link: LinkId| {
            network
                .device(node)
                .ospf
                .as_ref()
                .and_then(|o| o.cost(link))
                .map(u64::from)
        };
        let sp = dijkstra(
            &network.topology,
            origin,
            &FailureSet::none(),
            |node, link| {
                // Dijkstra explores from the origin outwards, so the relevant
                // cost is the one configured at the *receiving* end of the link.
                let other = network.topology.link(link).other(node);
                device_cost(other, link)
            },
        );
        for (i, &node) in nodes.iter().enumerate() {
            assert_eq!(costs[i], sp.cost(node), "seed {seed}, node {i}");
        }
    }
}

/// The full optimization suite and the naive search find exactly the same
/// set of converged forwarding states.
#[test]
fn optimizations_preserve_converged_states() {
    for n in 3usize..7 {
        let scenario = ring_ospf(n);
        let model = OspfModel::new(
            &scenario.network,
            scenario.destination,
            vec![scenario.origin],
            &FailureSet::none(),
        );
        let collect = |options: SearchOptions, naive: bool| {
            let checker: ModelChecker = if naive {
                ModelChecker::new(&model, Box::new(NoPor), options, FailureSet::none())
            } else {
                ModelChecker::new(&model, Box::new(OspfPor), options, FailureSet::none())
            };
            let mut states: HashSet<Vec<Option<NodeId>>> = HashSet::new();
            checker.run(&mut |converged, _| {
                states.insert(
                    (0..n as u32)
                        .map(|i| converged.next_hop(NodeId(i)))
                        .collect(),
                );
                Verdict::Continue
            });
            states
        };
        let optimized = collect(SearchOptions::all_optimizations(), false);
        let naive = collect(SearchOptions::no_optimizations(), true);
        assert_eq!(optimized, naive, "ring size {n}");
    }
}

/// Every SPVP execution that converges stops in a state with an empty RPVP
/// enabled set (the soundness direction of Theorem 1).
#[test]
fn spvp_convergence_is_rpvp_stable() {
    use plankton::protocols::rpvp::{Rpvp, RpvpState};
    use plankton::protocols::spvp::Spvp;
    for n in 3usize..7 {
        let scenario = ring_ospf(n);
        let model = OspfModel::new(
            &scenario.network,
            scenario.destination,
            vec![scenario.origin],
            &FailureSet::none(),
        );
        for seed in 0..64u64 {
            if let Some(converged) = Spvp::new(&model).run(seed, 100_000) {
                let rpvp = Rpvp::new(&model);
                let mut interner = plankton::protocols::RouteInterner::new();
                let state = RpvpState::from_routes(&converged, &mut interner);
                assert!(rpvp.converged(&state, &interner), "ring {n}, seed {seed}");
            }
        }
    }
}

/// Build one network holding *two* disjoint OSPF speaker components (two
/// random connected graphs with no links between them). Returns the network,
/// the two origin devices, and the per-side (nodes, links) lists.
#[allow(clippy::type_complexity)]
fn build_two_component_network(
    rng: &mut StdRng,
    dest_a: Prefix,
    dest_b: Prefix,
) -> (Network, NodeId, NodeId, Vec<(NodeId, LinkId)>) {
    let (na, edges_a) = sample_topology(rng);
    let (nb, edges_b) = sample_topology(rng);
    let mut builder = TopologyBuilder::new();
    let nodes: Vec<NodeId> = (0..na + nb)
        .map(|i| builder.add_router(&format!("r{i}")))
        .collect();
    let mut incidence: Vec<Vec<(LinkId, u32)>> = vec![Vec::new(); na + nb];
    let mut b_links: Vec<(NodeId, LinkId)> = Vec::new();
    for (offset, edges) in [(0, &edges_a), (na, &edges_b)] {
        for &(a, b, w) in edges.iter() {
            let link = builder.add_link(nodes[offset + a], nodes[offset + b]);
            incidence[offset + a].push((link, w));
            incidence[offset + b].push((link, w));
            if offset > 0 {
                b_links.push((nodes[offset + a], link));
                b_links.push((nodes[offset + b], link));
            }
        }
    }
    let mut network = Network::unconfigured(builder.build());
    for (i, &node) in nodes.iter().enumerate() {
        let mut ospf = OspfConfig::enabled();
        for &(link, w) in &incidence[i] {
            ospf = ospf.with_cost(link, w);
        }
        if i == 0 {
            ospf = ospf.with_network(dest_a);
        }
        if i == na {
            ospf = ospf.with_network(dest_b);
        }
        *network.device_mut(node) = DeviceConfig::empty().with_ospf(ospf);
    }
    (network, nodes[0], nodes[na], b_links)
}

/// Scoped OSPF slices are down-link-agnostic: administratively downing any
/// sequence of links (in any order) leaves every origin's scoped slice
/// untouched — down-ness reaches task keys through the effective failure
/// set, which is what lets a fault-tolerance run pre-pay for link deltas.
#[test]
fn scoped_slices_invariant_under_down_link_permutations() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3000 + seed);
        let (n, edges) = sample_topology(&mut rng);
        let destination: Prefix = "198.51.100.0/24".parse().unwrap();
        let (network, nodes) = build_ospf_network(n, &edges, destination);
        let origins = vec![nodes[0]];
        let fixed_failures = FailureSet::none();
        // One memo for the whole walk: every step after the first is a memo
        // hit, which debug builds recompute and compare.
        let memo = plankton::config::SliceMemo::new();
        let baseline = network
            .ospf_scoped_slices(&memo)
            .fingerprint(&origins, &fixed_failures)
            .expect("origins are speakers");

        // Down a random subset of links in a random order, re-checking the
        // slice after every step; then bring them back up in another order.
        let mut net = network.clone();
        let mut downed: Vec<LinkId> = Vec::new();
        let link_count = net.topology.link_count();
        for _ in 0..rng.gen_range(1..=link_count) {
            let l = LinkId(rng.gen_range(0..link_count as u32));
            if !net.is_link_down(l) {
                net.set_link_down(l);
                downed.push(l);
            }
            assert_eq!(
                net.ospf_scoped_slices(&memo)
                    .fingerprint(&origins, &fixed_failures),
                Some(baseline),
                "seed {seed}: slice moved after downing {downed:?}"
            );
        }
        while !downed.is_empty() {
            let l = downed.swap_remove(rng.gen_range(0..downed.len()));
            net.set_link_up(l);
            assert_eq!(
                net.ospf_scoped_slices(&memo)
                    .fingerprint(&origins, &fixed_failures),
                Some(baseline),
                "seed {seed}: slice moved after re-raising {l:?}"
            );
        }
    }
}

/// Config edits outside a PEC's scoped region — OSPF edits in a different
/// speaker component, or non-OSPF edits anywhere — leave its scoped slice
/// untouched, while the *global* OSPF slice moves on every OSPF edit
/// (which is exactly the imprecision this PR removes).
#[test]
fn scoped_slices_invariant_under_out_of_region_edits() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4000 + seed);
        let dest_a: Prefix = "198.51.100.0/24".parse().unwrap();
        let dest_b: Prefix = "203.0.113.0/24".parse().unwrap();
        let (network, origin_a, origin_b, b_links) =
            build_two_component_network(&mut rng, dest_a, dest_b);
        let none = FailureSet::none();
        let memo = plankton::config::SliceMemo::new();
        let slices = network.ospf_scoped_slices(&memo);
        assert_ne!(
            slices.components().component_of(origin_a),
            slices.components().component_of(origin_b),
            "seed {seed}: construction must yield two components"
        );
        let a_baseline = slices.fingerprint(&[origin_a], &none).unwrap();
        let global_baseline = network.ospf_slice_fingerprint();

        // An OSPF cost edit in component B.
        let mut net = network.clone();
        let (device, link) = b_links[rng.gen_range(0..b_links.len())];
        // Sampled weights are < 8, so this is never a value-level no-op.
        ConfigDelta::OspfCostChange {
            device,
            link,
            cost: rng.gen_range(50..99),
        }
        .apply(&mut net)
        .expect("edit applies");
        assert_eq!(
            net.ospf_scoped_slices(&memo)
                .fingerprint(&[origin_a], &none),
            Some(a_baseline),
            "seed {seed}: B-side cost edit moved A's scoped slice"
        );
        assert_ne!(
            net.ospf_slice_fingerprint(),
            global_baseline,
            "seed {seed}: the global slice must see the edit"
        );
        // The delta reports its region: component B only.
        let region = ConfigDelta::OspfCostChange {
            device,
            link,
            cost: 49,
        }
        .apply(&mut net)
        .unwrap()
        .ospf_region
        .expect("cost change reports a region");
        assert!(region.contains(&device), "seed {seed}");
        assert!(!region.contains(&origin_a), "seed {seed}");

        // A non-OSPF edit (static route) anywhere leaves both slices alone.
        let mut net = network.clone();
        net.device_mut(origin_a)
            .static_routes
            .push(plankton::config::StaticRoute::null(dest_b));
        assert_eq!(
            net.ospf_scoped_slices(&memo)
                .fingerprint(&[origin_a], &none),
            Some(a_baseline),
            "seed {seed}: static route moved the scoped OSPF slice"
        );
        assert_eq!(net.ospf_slice_fingerprint(), global_baseline, "seed {seed}");
    }
}

/// PEC computation on random OSPF networks keeps every destination prefix in
/// exactly one PEC, and the verifier finds it reachable from every router
/// (the graphs are connected by construction).
#[test]
fn random_ospf_network_is_verified_reachable() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let (n, edges) = sample_topology(&mut rng);
        let destination: Prefix = "198.51.100.0/24".parse().unwrap();
        let (network, nodes) = build_ospf_network(n, &edges, destination);
        let pecs = compute_pecs(&network);
        assert_eq!(pecs.pecs_overlapping(&destination).len(), 1, "seed {seed}");

        let verifier = Plankton::new(network.clone());
        let report = verifier.verify(
            &Reachability::new(nodes[1..].to_vec()),
            &FailureScenario::no_failures(),
            &PlanktonOptions::default().restricted_to(vec![destination]),
        );
        assert!(report.holds(), "seed {seed}: {report}");
    }
}
