//! Bitstate hashing against the reference explorer and against exact
//! storage, under every failure set of at most one link.
//!
//! Both explorers probe the Bloom filter from the one Zobrist state hash,
//! whose terms mix route content hashes, not handles. So at the same filter
//! size they must make the same false-positive prunes, and explore the same
//! tree: the same statistics and the same converged states, in the same
//! order with the same trails. Against exact storage, a filter can only
//! turn states away, never add any (`visited_states` is at most the exact
//! count), and a filter far larger than the search must agree with exact
//! storage on everything but the memory it reports.
//!
//! One statistic may differ under false positives: the routes interned. The
//! explorer refreshes its enabled set when it applies a step, before the
//! visited check, so it derives (and interns) the advertisements around a
//! state the filter then turns away; the reference derives them only for a
//! state it enters. With no false positive the two agree, because a state
//! turned away was entered before.
//!
//! Release builds compile out the debug audit that compares the explorer's
//! kept hash with the fold the reference computes; this test is the check
//! that survives `--release`.

use plankton_checker::visited::state_hash;
use plankton_checker::{
    BgpPor, ModelChecker, NoPor, OspfPor, PorHeuristic, ReferenceChecker, SearchOptions,
    SearchStats, Trail, Verdict,
};
use plankton_config::scenarios::{disagree_gadget, fat_tree_bgp_rfc7938, ring_ospf};
use plankton_config::Network;
use plankton_net::failure::FailureSet;
use plankton_net::ip::Prefix;
use plankton_net::topology::{LinkId, NodeId};
use plankton_protocols::bgp::{BgpModel, UniformUnderlay};
use plankton_protocols::{OspfModel, ProtocolModel, Route, RouteHandle, RouteInterner};
use std::sync::Arc;

/// The smallest filter there is: small enough that the searches below meet
/// false positives.
const SMALL: usize = 1 << 10;
/// A filter far larger than any search below.
const LARGE: usize = 1 << 24;

/// One protocol instance and the option sets it is searched under.
struct Instance {
    name: String,
    network: Network,
    prefix: Prefix,
    origin: NodeId,
    bgp: bool,
    searches: Vec<SearchOptions>,
}

fn instances() -> Vec<Instance> {
    let no_independence = SearchOptions {
        decision_independence: false,
        ..SearchOptions::all_optimizations()
    };
    let g = disagree_gadget();
    let ring = ring_ospf(8);
    let dc = fat_tree_bgp_rfc7938(4, 7938);
    let rack = dc.fat_tree.edge[0][0];
    vec![
        Instance {
            name: "DISAGREE".into(),
            network: g.network,
            prefix: g.destination,
            origin: g.origin,
            bgp: true,
            searches: vec![
                SearchOptions::all_optimizations(),
                SearchOptions::no_optimizations(),
            ],
        },
        Instance {
            name: "ring8".into(),
            network: ring.network,
            prefix: ring.destination,
            origin: ring.origin,
            bgp: false,
            searches: vec![
                SearchOptions::all_optimizations(),
                SearchOptions::no_optimizations(),
            ],
        },
        Instance {
            name: "rfc7938 k=4".into(),
            network: dc.network,
            prefix: dc
                .fat_tree
                .prefix_of_edge(rack)
                .expect("racks have prefixes"),
            origin: rack,
            bgp: true,
            searches: vec![
                SearchOptions::all_optimizations().with_sources(vec![dc.monitored_edges.0]),
                SearchOptions::all_optimizations(),
                no_independence,
            ],
        },
    ]
}

/// What one search saw: its statistics and every converged state (routes
/// resolved, so interner numbering cannot matter) with its trail.
type Run = (SearchStats, Vec<(Vec<Option<Route>>, Trail)>);

/// The paper's heuristic for the protocol, or none when deterministic
/// nodes are off.
fn heuristic<'m>(bgp: Option<&'m BgpModel>, options: &SearchOptions) -> Box<dyn PorHeuristic + 'm> {
    match (options.deterministic_nodes, bgp) {
        (false, _) => Box::new(NoPor),
        (true, Some(bgp)) => Box::new(BgpPor::from_model(bgp)),
        (true, None) => Box::new(OspfPor),
    }
}

fn explore(
    model: &dyn ProtocolModel,
    bgp: Option<&BgpModel>,
    options: &SearchOptions,
    failures: &FailureSet,
    reference: bool,
) -> Run {
    let mut states = Vec::new();
    let mut collect = |s: &plankton_protocols::rpvp::ConvergedState<'_>, trail: &Trail| {
        states.push((s.to_routes(), trail.clone()));
        Verdict::Continue
    };
    let por = heuristic(bgp, options);
    let stats = if reference {
        ReferenceChecker::new(model, por, options.clone(), failures.clone()).run(&mut collect)
    } else {
        ModelChecker::new(model, por, options.clone(), failures.clone())
            .run(&mut collect)
            .without_incremental_counters()
    };
    (stats, states)
}

#[test]
fn bitstate_searches_match_the_reference_and_exact_storage() {
    let (mut runs, mut lossy) = (0u64, 0u64);
    for instance in instances() {
        let links = instance.network.topology.links().len();
        let failure_sets = std::iter::once(FailureSet::none())
            .chain((0..links).map(|l| FailureSet::single(LinkId(l as u32))));
        for failures in failure_sets {
            let bgp = instance.bgp.then(|| {
                BgpModel::new(
                    &instance.network,
                    instance.prefix,
                    vec![instance.origin],
                    &failures,
                    Arc::new(UniformUnderlay),
                )
            });
            let ospf = (!instance.bgp).then(|| {
                OspfModel::new(
                    &instance.network,
                    instance.prefix,
                    vec![instance.origin],
                    &failures,
                )
            });
            let model: &dyn ProtocolModel = match (&bgp, &ospf) {
                (Some(bgp), _) => bgp,
                (None, Some(ospf)) => ospf,
                (None, None) => unreachable!("one of the two is built"),
            };
            for options in &instance.searches {
                let what = format!("{} under {failures:?}, {options:?}", instance.name);
                let exact = explore(model, bgp.as_ref(), options, &failures, false);
                for bits in [SMALL, LARGE] {
                    let options = options.clone().with_bitstate(bits);
                    let explorer = explore(model, bgp.as_ref(), &options, &failures, false);
                    let reference = explore(model, bgp.as_ref(), &options, &failures, true);
                    let (mut seen, mut expected) = (explorer.0, reference.0);
                    if bits == SMALL {
                        (seen.interned_routes, seen.approx_memory_bytes) = (0, 0);
                        (expected.interned_routes, expected.approx_memory_bytes) = (0, 0);
                    }
                    assert_eq!(seen, expected, "{what}, {bits} bits: statistics");
                    assert!(
                        explorer.1 == reference.1,
                        "{what}, {bits} bits: converged states differ from the reference's"
                    );
                    assert!(
                        explorer.0.visited_states <= exact.0.visited_states,
                        "{what}, {bits} bits: a filter recorded more states than exact storage"
                    );
                    lossy += u64::from(explorer.0.visited_states < exact.0.visited_states);
                    if bits == LARGE {
                        let memory = |stats: SearchStats| SearchStats {
                            approx_memory_bytes: 0,
                            ..stats
                        };
                        assert_eq!(
                            memory(explorer.0),
                            memory(exact.0),
                            "{what}: a 2^24-bit filter's statistics differ from exact storage's"
                        );
                        assert!(
                            explorer.1 == exact.1,
                            "{what}: a 2^24-bit filter's converged states differ from exact \
                             storage's"
                        );
                    }
                    runs += 1;
                }
            }
        }
    }
    // The small filter must actually lose states somewhere, or the
    // comparisons above could not tell a lossy filter from exact storage.
    assert!(runs > 100, "{runs} runs");
    assert!(lossy > 0, "no search lost a state to a {SMALL}-bit filter");
}

#[test]
fn the_state_hash_does_not_depend_on_handle_numbering() {
    // Two interners that meet the same routes in opposite orders number
    // them differently; the states they build hash alike.
    let routes: Vec<Route> = (1..=3u32)
        .map(|hops| {
            (0..hops).fold(Route::originated(Prefix::DEFAULT), |r, n| {
                r.extended_through(NodeId(n))
            })
        })
        .collect();
    let (mut forward, mut backward) = (RouteInterner::new(), RouteInterner::new());
    let f: Vec<RouteHandle> = routes.iter().map(|r| forward.intern(r)).collect();
    let b: Vec<RouteHandle> = routes.iter().rev().map(|r| backward.intern(r)).collect();
    let (fs, bs) = (
        [f[0], RouteHandle::NONE, f[2]],
        [b[2], RouteHandle::NONE, b[0]],
    );
    assert_ne!(fs, bs, "the handles differ");
    assert_eq!(state_hash(&fs, &forward), state_hash(&bs, &backward));
}
