//! Independent oracle for the streamed plane builder.
//!
//! `Plankton::verify` checks each converged state as the explorer finds it:
//! the state is combined with the other prefixes' alternatives in a reused
//! forwarding-graph buffer and handed to the §3.5 filter and the policy
//! without ever being stored. A mistake there — a wrong tie order between
//! FIB entries, a plane combined with the wrong alternative, a converged
//! state that never reaches the sink — silently changes which planes the
//! policy sees. This suite re-implements the pipeline the builder replaced,
//! from public APIs only and sharing none of its code: collect every
//! converged state through a `ModelChecker` callback, combine the prefixes'
//! alternatives in odometer order into a `NetworkFib` per plane, look the
//! PEC up with `ForwardingGraph::from_fib`, drop planes whose §3.5 signature
//! was seen, and check the rest. Violations (in report order, trails
//! included) and the number of planes checked must equal the verifier's, at
//! 1 and 4 workers.

use plankton::checker::{
    BgpPor, ModelChecker, NoPor, OspfPor, PorHeuristic, SearchOptions, Trail, Verdict,
};
use plankton::config::scenarios::{
    bgp_wedgie, disagree_gadget, fat_tree_bgp_rfc7938, fat_tree_ospf, isp_ibgp_over_ospf,
    CoreStaticRoutes,
};
use plankton::config::{
    BgpConfig, BgpNeighborConfig, MatchCondition, RouteMap, RouteMapAction, RouteMapClause,
    SetAction, StaticNextHop, StaticRoute,
};
use plankton::core::failures::failure_sets_to_explore;
use plankton::core::session::PecSession;
use plankton::core::underlay::DependencyUnderlay;
use plankton::core::{ConvergedRecord, Violation};
use plankton::dataplane::{FibEntry, ForwardingGraph, NetworkFib, RouteSource};
use plankton::net::failure::FailureSet;
use plankton::net::generators::as_topo::AsTopologySpec;
use plankton::net::ip::{Ipv4Addr, Prefix};
use plankton::net::topology::TopologyBuilder;
use plankton::pec::{OriginProtocol, Pec, PecId, PrefixConfig};
use plankton::policy::{ConvergedView, LoopFreedom, PolicyResult, Waypoint};
use plankton::prelude::*;
use plankton::protocols::{BgpModel, OspfModel, ProtocolModel, Route, SessionType};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One converged alternative of one prefix.
struct Alternative {
    entries: Vec<Vec<FibEntry>>,
    routes: Vec<Option<Route>>,
    trail: Trail,
}

/// One combined data plane, owned.
struct Plane {
    forwarding: ForwardingGraph,
    routes: Vec<Option<Route>>,
    trail: Trail,
}

/// Everything one PEC's planes under one failure set depend on.
struct Task<'a> {
    network: &'a Network,
    pec: &'a Pec,
    failures: &'a FailureSet,
    underlay: Arc<DependencyUnderlay>,
    options: &'a PlanktonOptions,
    sources: Option<Vec<NodeId>>,
    has_dependents: bool,
    has_dependencies: bool,
}

impl Task<'_> {
    fn search(&self) -> SearchOptions {
        let mut search = self.options.search.clone();
        if self.has_dependents || self.has_dependencies {
            search.policy_pruning = false;
            search.influence_pruning = false;
            search.source_nodes = None;
        } else {
            search.source_nodes = self.sources.clone();
            search.influence_pruning &= self.pec.prefixes.len() <= 1;
        }
        search
    }

    /// Every converged state of one protocol instance, owned, with its trail.
    fn converged(
        &self,
        model: &dyn ProtocolModel,
        por: Box<dyn PorHeuristic + '_>,
    ) -> Vec<(Vec<Option<Route>>, Trail)> {
        let mut states = Vec::new();
        ModelChecker::new(model, por, self.search(), self.failures.clone()).run(
            &mut |state, trail| {
                states.push((state.to_routes(), trail.clone()));
                Verdict::Continue
            },
        );
        states
    }

    fn origins(cfg: &PrefixConfig, protocol: OriginProtocol) -> Vec<NodeId> {
        cfg.origins
            .iter()
            .filter(|(_, p)| *p == protocol)
            .map(|&(n, _)| n)
            .collect()
    }

    /// The OSPF alternatives of `cfg`, with equal-cost multipath.
    fn ospf(&self, cfg: &PrefixConfig) -> Vec<Alternative> {
        let origins = Self::origins(cfg, OriginProtocol::Ospf);
        if origins.is_empty() {
            return Vec::new();
        }
        let model = OspfModel::new(self.network, cfg.prefix, origins, self.failures);
        let states = self.converged(&model, Box::new(OspfPor));
        let hops = |routes: &[Option<Route>], n: NodeId, r: &Route| -> Vec<NodeId> {
            let mut ecmp: Vec<NodeId> = model
                .peers(n)
                .iter()
                .copied()
                .filter(|&m| {
                    routes[m.index()].as_ref().is_some_and(|peer| {
                        !peer.traverses(n)
                            && model.link_cost(n, m).map(|c| peer.igp_cost + c) == Some(r.igp_cost)
                    })
                })
                .collect();
            ecmp.sort();
            if ecmp.is_empty() {
                ecmp.extend(r.next_hop());
            }
            ecmp
        };
        states
            .into_iter()
            .map(|(routes, trail)| {
                self.alternative(cfg.prefix, routes, trail, |_| RouteSource::Ospf, hops)
            })
            .collect()
    }

    /// The BGP alternatives of `cfg`.
    fn bgp(&self, cfg: &PrefixConfig) -> Vec<Alternative> {
        let origins = Self::origins(cfg, OriginProtocol::Bgp);
        if origins.is_empty() {
            return Vec::new();
        }
        let model = BgpModel::new(
            self.network,
            cfg.prefix,
            origins,
            self.failures,
            self.underlay.clone(),
        );
        let por: Box<dyn PorHeuristic> = if self.options.search.deterministic_nodes {
            Box::new(BgpPor::from_model(&model))
        } else {
            Box::new(NoPor)
        };
        let states = self.converged(&model, por);
        let source = |r: &Route| match r.learned_via {
            SessionType::Ibgp => RouteSource::Ibgp,
            _ => RouteSource::Ebgp,
        };
        let hops = |_: &[Option<Route>], n: NodeId, r: &Route| -> Vec<NodeId> {
            let next = r.next_hop().expect("not an origin");
            match r.learned_via {
                SessionType::Ibgp => self
                    .underlay
                    .igp_next_hops(n, next)
                    .map(<[NodeId]>::to_vec)
                    .unwrap_or_default(),
                _ => vec![next],
            }
        };
        states
            .into_iter()
            .map(|(routes, trail)| self.alternative(cfg.prefix, routes, trail, source, hops))
            .collect()
    }

    fn alternative(
        &self,
        prefix: Prefix,
        routes: Vec<Option<Route>>,
        trail: Trail,
        source: impl Fn(&Route) -> RouteSource,
        hops: impl Fn(&[Option<Route>], NodeId, &Route) -> Vec<NodeId>,
    ) -> Alternative {
        let entries = routes
            .iter()
            .enumerate()
            .map(|(i, r)| match r {
                None => Vec::new(),
                Some(r) if r.is_origin() => vec![FibEntry::local(prefix, source(r))],
                Some(r) => {
                    let h = hops(&routes, NodeId(i as u32), r);
                    if h.is_empty() {
                        Vec::new()
                    } else {
                        vec![FibEntry::via(prefix, h, source(r))]
                    }
                }
            })
            .collect();
        Alternative {
            entries,
            routes,
            trail,
        }
    }

    /// Connected prefixes and static routes of `cfg`.
    fn base(&self, cfg: &PrefixConfig) -> Vec<Vec<FibEntry>> {
        let mut base = vec![Vec::new(); self.network.node_count()];
        for &(owner, proto) in &cfg.origins {
            if proto == OriginProtocol::Connected {
                base[owner.index()].push(FibEntry::local(cfg.prefix, RouteSource::Connected));
            }
        }
        for (device, sr) in &cfg.static_routes {
            let via = |hops| {
                FibEntry::via(cfg.prefix, hops, RouteSource::Static)
                    .with_distance(sr.admin_distance)
            };
            let entry = match sr.next_hop {
                StaticNextHop::Null => Some(FibEntry::null(cfg.prefix)),
                StaticNextHop::Interface(nbr) => self
                    .network
                    .topology
                    .links_between(*device, nbr)
                    .into_iter()
                    .any(|l| !self.failures.contains(l))
                    .then(|| via(vec![nbr])),
                StaticNextHop::Ip(addr) => match self.underlay.resolve_next_hops(*device, addr) {
                    Some(hops) if !hops.is_empty() => Some(via(hops)),
                    Some(_) => Some(FibEntry::local(cfg.prefix, RouteSource::Static)),
                    None => None,
                },
            };
            base[device.index()].extend(entry);
        }
        base
    }

    /// Every combined data plane, in odometer order (the most specific
    /// prefix turns fastest).
    fn planes(&self) -> Vec<Plane> {
        let n = self.network.node_count();
        let mut runs: Vec<(Vec<Vec<FibEntry>>, Vec<Alternative>)> = Vec::new();
        for cfg in &self.pec.prefixes {
            let (ospf, bgp) = (self.ospf(cfg), self.bgp(cfg));
            let alternatives = match (ospf.is_empty(), bgp.is_empty()) {
                (true, true) => vec![Alternative {
                    entries: vec![Vec::new(); n],
                    routes: vec![None; n],
                    trail: Trail::new(self.failures.clone()),
                }],
                (false, true) => ospf,
                (true, false) => bgp,
                (false, false) => ospf
                    .iter()
                    .flat_map(|o| {
                        bgp.iter().map(move |b| Alternative {
                            entries: o
                                .entries
                                .iter()
                                .zip(&b.entries)
                                .map(|(x, y)| x.iter().chain(y).cloned().collect())
                                .collect(),
                            routes: o
                                .routes
                                .iter()
                                .zip(&b.routes)
                                .map(|(x, y)| y.clone().or_else(|| x.clone()))
                                .collect(),
                            trail: b.trail.clone(),
                        })
                    })
                    .collect(),
            };
            runs.push((self.base(cfg), alternatives));
        }
        if runs.is_empty() {
            return vec![Plane {
                forwarding: ForwardingGraph::new(n),
                routes: vec![None; n],
                trail: Trail::new(self.failures.clone()),
            }];
        }
        let total: usize = runs.iter().map(|(_, alts)| alts.len()).product();
        (0..total)
            .map(|mut index| {
                let mut fib = NetworkFib::new(n);
                let mut chosen: Option<&Alternative> = None;
                for (base, alternatives) in &runs {
                    let alt = &alternatives[index % alternatives.len()];
                    index /= alternatives.len();
                    for (fib, (base, own)) in fib.fibs.iter_mut().zip(base.iter().zip(&alt.entries))
                    {
                        for e in base.iter().chain(own) {
                            fib.add(e.clone());
                        }
                    }
                    if chosen.is_none() && alt.routes.iter().any(Option::is_some) {
                        chosen = Some(alt);
                    }
                }
                Plane {
                    forwarding: ForwardingGraph::from_fib(&fib, self.pec.representative()),
                    routes: chosen.map_or_else(|| vec![None; n], |a| a.routes.clone()),
                    trail: chosen
                        .map_or_else(|| Trail::new(self.failures.clone()), |a| a.trail.clone()),
                }
            })
            .collect()
    }
}

/// The §3.5 signature: per source, path length, delivery and the positions
/// of the interesting nodes on the path.
fn signature(
    forwarding: &ForwardingGraph,
    sources: &[NodeId],
    interesting: &[NodeId],
) -> Vec<(usize, bool, Vec<usize>)> {
    sources
        .iter()
        .map(|&s| {
            let walk = forwarding.walk(s);
            let path = walk.path();
            let positions = interesting
                .iter()
                .filter_map(|w| path.iter().position(|n| n == w))
                .collect();
            (path.len(), walk.is_delivered(), positions)
        })
        .collect()
}

/// The verdict of the collect-then-check pipeline, with every violation:
/// the violations in report order and the number of planes checked.
fn oracle(
    network: &Network,
    policy: &dyn Policy,
    scenario: &FailureScenario,
    options: &PlanktonOptions,
) -> (Vec<Violation>, u64) {
    let plankton = Plankton::new(network.clone());
    let (pecs, deps) = (plankton.pecs(), plankton.dependencies());
    let interesting = policy.interesting_nodes().unwrap_or_default();
    let lec = options.lec_failure_pruning && deps.graph.edge_count() == 0;
    let failure_sets = failure_sets_to_explore(network, scenario, &interesting, lec);
    let checked: BTreeSet<PecId> = match &options.restrict_to_prefixes {
        Some(prefixes) => prefixes
            .iter()
            .flat_map(|p| pecs.pecs_overlapping(p))
            .map(|p| p.id)
            .collect(),
        None => pecs.active_pecs().iter().map(|p| p.id).collect(),
    };
    let mut needed = checked.clone();
    for &p in &checked {
        needed.extend(deps.transitive_dependencies(deps.component_of(p)));
    }
    let with_dependents: BTreeSet<usize> = needed
        .iter()
        .flat_map(|&p| deps.component_deps[deps.component_of(p)].iter().copied())
        .collect();
    let all_nodes: Vec<NodeId> = network.topology.node_ids().collect();
    let sources = policy.sources().unwrap_or(all_nodes);

    // The first record of every (PEC, failure set) that has dependents.
    let mut records: BTreeMap<(PecId, usize), ConvergedRecord> = BTreeMap::new();
    let mut violations = Vec::new();
    let mut planes_checked = 0u64;
    // Components are numbered in dependency order.
    for c in 0..deps.component_count() {
        if !deps.components[c].iter().any(|p| needed.contains(p)) {
            continue;
        }
        let has_dependents = with_dependents.contains(&c);
        for (f, failures) in failure_sets.iter().enumerate() {
            let mut component_records = Vec::new();
            for &pec_id in &deps.components[c] {
                let pec = pecs.pec(pec_id);
                let dependencies = deps.transitive_dependencies(c);
                let record = |p: &Pec| {
                    dependencies
                        .contains(&p.id)
                        .then(|| records.get(&(p.id, f)))
                        .flatten()
                };
                let mut underlay = DependencyUnderlay::new();
                for node in network.topology.nodes() {
                    let lb = node.loopback.and_then(|lb| pecs.pec_containing(lb));
                    if let Some(r) = lb.and_then(record) {
                        underlay.add_loopback_record(node.id, r);
                    }
                }
                for addr in pec.recursive_next_hops() {
                    if let Some(r) = pecs.pec_containing(addr).and_then(record) {
                        underlay.add_address_record(addr, r);
                    }
                }
                let task = Task {
                    network,
                    pec,
                    failures,
                    underlay: Arc::new(underlay),
                    options,
                    sources: policy.sources(),
                    has_dependents,
                    has_dependencies: !deps.component_deps[c].is_empty(),
                };
                let mut seen = BTreeSet::new();
                for (i, plane) in task.planes().into_iter().enumerate() {
                    if has_dependents && i == 0 {
                        component_records.push((
                            pec_id,
                            ConvergedRecord {
                                failures: failures.clone(),
                                owners: plane.forwarding.delivery_points(),
                                forwarding: plane.forwarding.clone(),
                                control_routes: plane.routes.clone(),
                            },
                        ));
                    }
                    if !checked.contains(&pec_id)
                        || (options.equivalence_suppression
                            && !seen.insert(signature(&plane.forwarding, &sources, &interesting)))
                    {
                        continue;
                    }
                    planes_checked += 1;
                    let view = ConvergedView {
                        pec,
                        forwarding: &plane.forwarding,
                        control_routes: &plane.routes,
                    };
                    if let PolicyResult::Violated(reason) = policy.check(&view) {
                        violations.push(Violation {
                            pec: pec_id,
                            prefix: pec.most_specific().map(|c| c.prefix),
                            failures: failures.clone(),
                            trail: plane.trail,
                            reason,
                        });
                    }
                }
            }
            for (pec_id, record) in component_records {
                records.insert((pec_id, f), record);
            }
        }
    }
    violations
        .sort_by(|a, b| (a.pec, &a.failures, &a.reason).cmp(&(b.pec, &b.failures, &b.reason)));
    (violations, planes_checked)
}

/// Compare the verifier with the oracle at 1 and 4 workers.
fn assert_matches_oracle(
    label: &str,
    network: &Network,
    policy: &dyn Policy,
    scenario: &FailureScenario,
    options: PlanktonOptions,
) {
    let plankton = Plankton::new(network.clone());
    let mut options = options.collect_all_violations();
    let (violations, planes_checked) = oracle(network, policy, scenario, &options);
    let expected = serde_json::to_string(&violations).expect("violations serialize");
    for workers in [1, 4] {
        options.parallelism = workers;
        let report = plankton.verify(policy, scenario, &options);
        assert_eq!(
            report.data_planes_checked, planes_checked,
            "{label}, {workers} workers: data planes checked"
        );
        assert_eq!(
            serde_json::to_string(&report.violations).expect("violations serialize"),
            expected,
            "{label}, {workers} workers: violations"
        );
    }
}

#[test]
fn disagree_gadget_matches_the_oracle() {
    let g = disagree_gadget();
    assert_matches_oracle(
        "disagree",
        &g.network,
        &Waypoint::new(vec![g.actors[1]], vec![g.actors[0]]),
        &FailureScenario::up_to(1),
        PlanktonOptions::default(),
    );
}

#[test]
fn bgp_wedgie_matches_the_oracle() {
    let g = bgp_wedgie();
    assert_matches_oracle(
        "wedgie",
        &g.network,
        &Waypoint::new(vec![g.actors[2]], vec![g.actors[0]]),
        &FailureScenario::up_to(1),
        PlanktonOptions::default(),
    );
}

#[test]
fn rfc7938_fat_trees_match_the_oracle() {
    for (k, failures) in [(4, 1), (6, 0)] {
        let s = fat_tree_bgp_rfc7938(k, 7938);
        assert_matches_oracle(
            &format!("RFC 7938 k={k}"),
            &s.network,
            &Waypoint::new(vec![s.monitored_edges.0], s.waypoints.clone()),
            &FailureScenario::up_to(failures),
            PlanktonOptions::default(),
        );
    }
}

#[test]
fn ospf_fat_trees_with_static_routes_match_the_oracle() {
    for mode in [CoreStaticRoutes::Looping, CoreStaticRoutes::MatchingOspf] {
        let s = fat_tree_ospf(4, mode);
        assert_matches_oracle(
            &format!("OSPF k=4 {mode:?}"),
            &s.network,
            &LoopFreedom::everywhere(),
            &FailureScenario::up_to(1),
            PlanktonOptions::default(),
        );
    }
}

#[test]
fn ibgp_over_ospf_records_match_the_oracle() {
    let s = isp_ibgp_over_ospf(&AsTopologySpec::scale(16));
    assert_matches_oracle(
        "iBGP over OSPF, 16 routers",
        &s.network,
        &Reachability::new(s.network.topology.node_ids().collect()),
        &FailureScenario::up_to(1),
        PlanktonOptions::default().restricted_to(s.bgp_destinations.clone()),
    );
}

/// The DISAGREE gadget announcing `50.0.0.0/16` and, nested in it,
/// `50.0.0.0/24`, plus a fourth router `c` that peers with both actors but
/// filters the /24. For the /24's addresses `c` follows its /16 route to an
/// actor, and the actor its /24 route: the /24's PEC combines two prefixes
/// of two converged states each into four planes, whose §3.5 signatures
/// from `c` all differ. With `tie_statics`, static routes at eBGP's
/// administrative distance tie with the BGP entries of the same prefix at
/// `a` (for the collected /24) and at `b` (for the streamed /16); the static
/// route, listed first, wins the tie.
fn nested_disagree(tie_statics: bool) -> (Network, [NodeId; 4], Prefix) {
    let mut tb = TopologyBuilder::new();
    let [o, a, b, c] = ["origin", "a", "b", "c"].map(|name| tb.add_router(name));
    for (i, n) in [o, a, b, c].into_iter().enumerate() {
        tb.set_loopback(n, Ipv4Addr::new(1, 0, 0, i as u8 + 1));
    }
    for (x, y) in [(o, a), (o, b), (a, b), (a, c), (b, c)] {
        tb.add_link(x, y);
    }
    let mut network = Network::unconfigured(tb.build());
    let wide: Prefix = "50.0.0.0/16".parse().unwrap();
    let specific: Prefix = "50.0.0.0/24".parse().unwrap();
    let asn = |n: NodeId| 65000 + n.0;
    let ebgp = |peer: NodeId| BgpNeighborConfig::ebgp(peer, asn(peer));
    let prefer = |peer: NodeId| {
        RouteMap::permit_with(
            vec![MatchCondition::Neighbor(peer)],
            vec![SetAction::LocalPref(200)],
        )
    };
    let drop_specific = RouteMap {
        clauses: vec![
            RouteMapClause {
                action: RouteMapAction::Deny,
                matches: vec![MatchCondition::PrefixExact(specific)],
                sets: Vec::new(),
            },
            RouteMapClause::permit_any(),
        ],
    };
    network.device_mut(o).bgp = Some(
        BgpConfig::new(asn(o), 1)
            .with_network(wide)
            .with_network(specific)
            .with_neighbor(ebgp(a))
            .with_neighbor(ebgp(b)),
    );
    for (me, other, id) in [(a, b, 2), (b, a, 3)] {
        network.device_mut(me).bgp = Some(
            BgpConfig::new(asn(me), id)
                .with_neighbor(ebgp(o))
                .with_neighbor(ebgp(other).with_import(prefer(other)))
                .with_neighbor(ebgp(c)),
        );
    }
    network.device_mut(c).bgp = Some(
        BgpConfig::new(asn(c), 4)
            .with_neighbor(ebgp(a).with_import(drop_specific.clone()))
            .with_neighbor(ebgp(b).with_import(drop_specific)),
    );
    if tie_statics {
        network
            .device_mut(a)
            .static_routes
            .push(StaticRoute::to_interface(specific, o).with_distance(20));
        network
            .device_mut(b)
            .static_routes
            .push(StaticRoute::to_interface(wide, o).with_distance(20));
    }
    (network, [o, a, b, c], specific)
}

#[test]
fn nested_prefixes_match_the_oracle() {
    for tie_statics in [false, true] {
        let (network, [_, a, b, c], specific) = nested_disagree(tie_statics);
        let plankton = Plankton::new(network.clone());
        let nested = plankton.pecs().pecs_overlapping(&specific);
        assert_eq!(nested.len(), 1);
        assert_eq!(nested[0].prefixes.len(), 2, "the /24 and the /16");
        for source in [c, b] {
            let policy = Waypoint::new(vec![source], vec![a]);
            let label = format!("nested prefixes, statics {tie_statics}, source {source}");
            let scenario = FailureScenario::up_to(1);
            assert_matches_oracle(
                &label,
                &network,
                &policy,
                &scenario,
                PlanktonOptions::default(),
            );
        }
    }
}

/// Every converged state of the streamed prefix reaches the sink. Under the
/// RFC 7938 k=8 data center's waypoint question, the rack prefix of the
/// monitored destination converges 1 024 ways; `stream_planes` must hand
/// the sink one plane per converged state a collecting `ModelChecker`
/// callback sees, however many there are.
#[test]
fn every_converged_data_center_state_becomes_a_plane() {
    let s = fat_tree_bgp_rfc7938(8, 7938);
    let policy = Waypoint::new(vec![s.monitored_edges.0], s.waypoints.clone());
    let plankton = Plankton::new(s.network.clone());
    assert_eq!(plankton.dependencies().graph.edge_count(), 0);
    let prefix = *s
        .network
        .device(s.monitored_edges.1)
        .bgp
        .as_ref()
        .expect("edge switches speak BGP")
        .networks
        .first()
        .expect("the edge switch originates its rack prefix");
    let pecs = plankton.pecs().pecs_overlapping(&prefix);
    assert_eq!(pecs.len(), 1);
    let pec = pecs[0];
    assert_eq!(pec.prefixes.len(), 1);
    let options = PlanktonOptions::default().collect_all_violations();
    let failures = FailureSet::none();
    let underlay = Arc::new(DependencyUnderlay::new());
    let converged = Task {
        network: &s.network,
        pec,
        failures: &failures,
        underlay: underlay.clone(),
        options: &options,
        sources: policy.sources(),
        has_dependents: false,
        has_dependencies: false,
    }
    .bgp(&pec.prefixes[0])
    .len();
    assert_eq!(converged, 1_024);
    let session = PecSession {
        network: &s.network,
        pec,
        failures: &failures,
        underlay,
        options: &options,
        policy_sources: policy.sources(),
        has_dependents: false,
        has_dependencies: false,
        scratch: None,
    };
    let mut seen = 0;
    let stream = session.stream_planes(&mut |_| seen += 1);
    assert_eq!(seen, converged);
    assert_eq!(stream.planes, converged as u64);
}
