//! Differential oracle for incremental task-key derivation.
//!
//! A session derives its task keys through a slice memo that lives as long
//! as the result cache and is never invalidated. The failure that would
//! matter is silent: a memo entry served for inputs it was not computed
//! from yields a key that misses a dependency, and the cache then serves a
//! stale verdict. So the memo is challenged the way a remote store is:
//! every answer it gives is recomputed from nothing — by `TaskKeys::compute`,
//! which starts from an empty memo and shares no state with the session's —
//! and the two must agree, after every step of a long random delta walk, on
//! every `(PEC, failure set)` key, in both OSPF slice modes; and the report
//! the session merges from its cache must equal a from-scratch verification.
//! (Debug builds also recompute every memo hit inside the memo itself, so
//! every other test in the workspace audits its own hits.)

use plankton::config::scenarios::{fat_tree_ospf, isp_ibgp_over_ospf, isp_ospf, CoreStaticRoutes};
use plankton::config::static_routes::StaticRoute;
use plankton::config::{ConfigDelta, DeviceConfig, OspfConfig};
use plankton::core::failures::failure_sets_to_explore;
use plankton::core::IncrementalVerifier;
use plankton::net::generators::as_topo::AsTopologySpec;
use plankton::pec::{OspfSliceMode, PecId, TaskKeys};
use plankton::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// A seeded generator of applicable deltas that keeps the network inside a
/// bounded state space: at most two links down at a time, cost changes and
/// static routes undone as often as made.
struct Walk {
    rng: StdRng,
    /// `(device, link, cost before the change)`, most recent last.
    changed_costs: Vec<(NodeId, LinkId, u32)>,
    /// `(device, prefix)` of the null routes added and not yet removed.
    statics: Vec<(NodeId, Prefix)>,
    /// Prefixes static routes are added for (the verified ones, so the
    /// reports see them).
    prefixes: Vec<Prefix>,
}

impl Walk {
    fn new(seed: u64, prefixes: Vec<Prefix>) -> Self {
        Walk {
            rng: StdRng::seed_from_u64(seed),
            changed_costs: Vec::new(),
            statics: Vec::new(),
            prefixes,
        }
    }

    fn link_down(&mut self, network: &Network) -> ConfigDelta {
        let link = LinkId(self.rng.gen_range(0..network.topology.link_count() as u32));
        ConfigDelta::LinkDown { link }
    }

    fn cost_change(&mut self, network: &Network) -> ConfigDelta {
        loop {
            let device = NodeId(self.rng.gen_range(0..network.node_count() as u32));
            let Some(ospf) = &network.device(device).ospf else {
                continue;
            };
            let neighbors = network.topology.neighbors(device);
            let (_, link) = neighbors[self.rng.gen_range(0..neighbors.len())];
            let Some(old) = ospf.cost(link) else {
                continue;
            };
            self.changed_costs.push((device, link, old));
            let cost = old + self.rng.gen_range(1..40);
            return ConfigDelta::OspfCostChange { device, link, cost };
        }
    }

    fn static_add(&mut self, network: &Network) -> ConfigDelta {
        let device = NodeId(self.rng.gen_range(0..network.node_count() as u32));
        let prefix = self.prefixes[self.rng.gen_range(0..self.prefixes.len())];
        self.statics.push((device, prefix));
        ConfigDelta::StaticRouteAdd {
            device,
            route: StaticRoute::null(prefix),
        }
    }

    fn next_delta(&mut self, network: &Network) -> ConfigDelta {
        match self.rng.gen_range(0..6u8) {
            0 if network.down_links.len() < 2 => self.link_down(network),
            0 | 1 => match network.down_links.first() {
                Some(&link) => ConfigDelta::LinkUp { link },
                None => self.link_down(network),
            },
            2 => self.cost_change(network),
            3 => match self.changed_costs.pop() {
                Some((device, link, cost)) => ConfigDelta::OspfCostChange { device, link, cost },
                None => self.cost_change(network),
            },
            4 => self.static_add(network),
            _ => match self.statics.pop() {
                Some((device, prefix)) => ConfigDelta::StaticRouteRemove { device, prefix },
                None => self.static_add(network),
            },
        }
    }
}

/// Every `(PEC, failure set)` key of `session`'s current snapshot, derived
/// through the session's warm memo, must equal the key derived from an
/// empty one — in both slice modes. Returns how many Dijkstras the two
/// scoped derivations ran: `(warm misses, fresh misses)`.
fn assert_warm_keys_equal_fresh_keys(
    label: &str,
    session: &IncrementalVerifier,
    scenario: &FailureScenario,
) -> (u64, u64) {
    let snapshot = session.snapshot();
    let (network, pecs, deps) = (snapshot.network(), snapshot.pecs(), snapshot.dependencies());
    let sets = failure_sets_to_explore(network, scenario, &[], false);
    let (mut warm_misses, mut fresh_misses) = (0, 0);
    for mode in [OspfSliceMode::Scoped, OspfSliceMode::Global] {
        let warm = TaskKeys::compute_with_memo(
            session.cache().slice_memo(),
            network,
            pecs,
            deps,
            &sets,
            1,
            2,
            mode,
            |_| Some(0),
        );
        let fresh = TaskKeys::compute(network, pecs, deps, &sets, 1, 2, mode, |_| 0);
        for pec in pecs.iter() {
            for (f, failures) in sets.iter().enumerate() {
                assert_eq!(
                    warm.key(pec.id, f),
                    fresh.key(pec.id, f),
                    "{label}: {mode:?} key of {} under {failures} differs between the \
                     session's memo and an empty one",
                    pec.id
                );
            }
        }
        warm_misses += warm.memo_stats().1;
        fresh_misses += fresh.memo_stats().1;
    }
    (warm_misses, fresh_misses)
}

/// The session's merged report must equal a from-scratch verification of
/// the snapshot it was computed against.
fn assert_report_equals_from_scratch(
    label: &str,
    session: &IncrementalVerifier,
    policy: &dyn Policy,
    scenario: &FailureScenario,
    options: &PlanktonOptions,
) {
    let snapshot = session.snapshot();
    let (incremental, _) =
        snapshot.verify_with_cache(policy, 7, scenario, options, session.cache());
    let scratch = Plankton::new(snapshot.network().clone()).verify(policy, scenario, options);
    assert_eq!(
        incremental.normalized_json(),
        scratch.normalized_json(),
        "{label}: merged report diverged from a from-scratch verification"
    );
}

/// `steps` applied deltas (one of them a `NodeAdd`, half way), checking keys
/// and report after each.
fn random_walk(
    label: &str,
    network: Network,
    prefixes: Vec<Prefix>,
    grow_onto: [NodeId; 2],
    policy: &dyn Policy,
    seed: u64,
    steps: usize,
) {
    let scenario = FailureScenario::up_to(1);
    let options = PlanktonOptions::default()
        .restricted_to(prefixes.clone())
        .collect_all_violations();
    let session = IncrementalVerifier::new(network);
    let mut walk = Walk::new(seed, prefixes);
    assert_report_equals_from_scratch(label, &session, policy, &scenario, &options);

    let mut applied = 0;
    let (mut warm_misses, mut fresh_misses) = (0, 0);
    while applied < steps {
        let delta = if applied == steps / 2 {
            // No loopback and no new prefix: the partition is unchanged, the
            // node count (and so every key) is not.
            ConfigDelta::NodeAdd {
                name: "grown".into(),
                loopback: None,
                links: grow_onto.to_vec(),
                config: DeviceConfig::empty().with_ospf(OspfConfig::enabled()),
            }
        } else {
            walk.next_delta(session.snapshot().network())
        };
        if session.apply_delta(&delta).is_err() {
            continue; // a no-op (downing a downed link): not a step
        }
        applied += 1;
        let label = format!("{label} step {applied} ({})", delta.kind());
        let (warm, fresh) = assert_warm_keys_equal_fresh_keys(&label, &session, &scenario);
        warm_misses += warm;
        fresh_misses += fresh;
        assert_report_equals_from_scratch(&label, &session, policy, &scenario, &options);
    }

    // The walk must have both extended the memo and been spared work by it,
    // or it compared an empty memo with an empty memo.
    assert!(
        0 < warm_misses && warm_misses < fresh_misses,
        "{label}: {warm_misses} Dijkstras through the session memo, {fresh_misses} from nothing"
    );
    let memo = session.cache().slice_memo();
    assert!(memo.len() <= memo.capacity());
}

#[test]
fn fat_tree_walk_keys_match_a_fresh_memo_and_reports_match_from_scratch() {
    let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
    random_walk(
        "fat-tree:4",
        s.network.clone(),
        s.destinations[..3].to_vec(),
        [s.fat_tree.core[0], s.fat_tree.core[1]],
        &LoopFreedom::everywhere(),
        0x6b65_7901,
        200,
    );
}

/// A 16-router two-tier ISP: iBGP over OSPF, so BGP PECs depend on loopback
/// PECs whose keys carry scoped OSPF slices.
fn small_isp() -> plankton::config::scenarios::IspIbgpScenario {
    isp_ibgp_over_ospf(&AsTopologySpec {
        name: "ISP-16".into(),
        routers: 16,
        backbone_fraction: 0.25,
        access_multihoming: 2,
        seed: 16,
    })
}

#[test]
fn isp_walk_keys_match_a_fresh_memo_and_reports_match_from_scratch() {
    let s = small_isp();
    let source = *s
        .as_topology
        .backbone
        .iter()
        .find(|n| !s.borders.contains(n))
        .expect("a non-border backbone router");
    random_walk(
        "isp-ibgp:16",
        s.network.clone(),
        s.bgp_destinations.clone(),
        [s.as_topology.backbone[0], s.as_topology.backbone[1]],
        &Reachability::new(vec![source]),
        0x6b65_7902,
        200,
    );
}

/// A restricted request derives keys for the PECs it runs and no others:
/// every needed `(PEC, failure set)` key equals the one the all-PEC
/// derivation yields under the same flags, and the un-needed PECs' slices
/// are first computed when a later derivation asks for them.
#[test]
fn restricted_requests_derive_only_the_needed_pecs_keys() {
    let s = small_isp();
    let plankton = Plankton::new(s.network.clone());
    let (network, pecs, deps) = (plankton.network(), plankton.pecs(), plankton.dependencies());
    let sets = failure_sets_to_explore(network, &FailureScenario::up_to(1), &[], false);

    // One iBGP destination and the loopback PECs it depends on.
    let checked = pecs.pecs_overlapping(&s.bgp_destinations[0])[0].id;
    let mut needed = deps.transitive_dependencies(deps.component_of(checked));
    assert!(
        !needed.is_empty(),
        "the destination depends on loopback PECs"
    );
    needed.push(checked);
    assert!(needed.len() < pecs.active_pecs().len());
    let flags =
        |p: PecId| (needed.contains(&p) && p != checked) as u8 | ((p == checked) as u8) << 1;

    let derive = |memo: &plankton::pec::SliceMemo, restricted: bool| {
        TaskKeys::compute_with_memo(
            memo,
            network,
            pecs,
            deps,
            &sets,
            1,
            2,
            OspfSliceMode::Scoped,
            |p| (!restricted || needed.contains(&p)).then(|| flags(p)),
        )
    };
    let memo = plankton::pec::SliceMemo::new();
    let restricted = derive(&memo, true);
    let all = derive(&plankton::pec::SliceMemo::new(), false);
    for &pec in &needed {
        for (f, failures) in sets.iter().enumerate() {
            assert_eq!(
                restricted.key(pec, f),
                all.key(pec, f),
                "key of {pec} under {failures}"
            );
        }
    }

    // The restricted pass left the memo holding exactly its own slices: a
    // second restricted pass finds them all, and the all-PEC pass still has
    // to compute the rest.
    let needed_misses = restricted.memo_stats().1;
    assert!(needed_misses > 0);
    assert_eq!(derive(&memo, true).memo_stats().1, 0);
    let rest_misses = derive(&memo, false).memo_stats().1;
    assert!(rest_misses > 0, "un-needed PECs were derived after all");
    assert_eq!(needed_misses + rest_misses, all.memo_stats().1);
}

/// A key pass repeated on one memo runs no Dijkstra. AS3967's ≤ 1-failure
/// pass over every prefix runs some twelve thousand distinct Dijkstras; the
/// memo is sized to four times the pass's lookups before the pass starts,
/// so the pass cannot evict its own entries.
#[test]
fn a_repeated_as3967_key_pass_runs_no_dijkstra() {
    let s = isp_ospf(&AsTopologySpec::paper_as(3967));
    let plankton = Plankton::new(s.network.clone());
    let (network, pecs, deps) = (plankton.network(), plankton.pecs(), plankton.dependencies());
    let sets = failure_sets_to_explore(network, &FailureScenario::up_to(1), &[], false);
    let memo = plankton::pec::SliceMemo::new();
    let derive = || {
        TaskKeys::compute_with_memo(
            &memo,
            network,
            pecs,
            deps,
            &sets,
            1,
            2,
            OspfSliceMode::Scoped,
            |_| Some(2),
        )
    };
    let first = derive();
    let (first_hits, first_misses, _) = first.memo_stats();
    let lookups = first_hits + first_misses;
    assert!(first_misses > 10_000, "{first_misses} Dijkstras");
    assert!(memo.capacity() >= 4 * lookups as usize);
    let second = derive();
    assert_eq!(second.memo_stats(), (lookups, 0, 0));
    for pec in pecs.active_pecs() {
        for f in 0..sets.len() {
            assert_eq!(first.key(pec.id, f), second.key(pec.id, f));
        }
    }
}

/// Three verifying readers and one delta writer share one session — one
/// result cache, one slice memo. Every reader pins a snapshot, derives its
/// keys through the shared memo while the writer moves the network under
/// it, and must still agree with an empty memo on every key and with a
/// from-scratch verification on the report.
#[test]
fn concurrent_readers_and_a_delta_writer_share_one_memo() {
    let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
    let prefixes = s.destinations[..2].to_vec();
    let policy = LoopFreedom::everywhere();
    let scenario = FailureScenario::up_to(1);
    let options = PlanktonOptions::default()
        .restricted_to(prefixes.clone())
        .collect_all_violations();
    let session = IncrementalVerifier::new(s.network.clone());
    const READERS: usize = 3;
    // All four threads leave the barrier together, so the first reads race
    // the first writes; the readers then keep reading until the writer is
    // done (and at least twice).
    let start = Barrier::new(READERS + 1);
    let writer_done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (session, start, writer_done) = (&session, &start, &writer_done);
                let (policy, scenario, options) = (&policy, &scenario, &options);
                scope.spawn(move || {
                    start.wait();
                    let mut rounds = 0;
                    while rounds < 2 || !writer_done.load(Ordering::SeqCst) {
                        let label = format!("reader {r} round {rounds}");
                        let (warm, fresh) =
                            assert_warm_keys_equal_fresh_keys(&label, session, scenario);
                        assert!(warm <= fresh, "{label}");
                        assert_report_equals_from_scratch(
                            &label, session, policy, scenario, options,
                        );
                        rounds += 1;
                    }
                    rounds
                })
            })
            .collect();
        let writer = scope.spawn(|| {
            let mut walk = Walk::new(0x6b65_7903, prefixes.clone());
            start.wait();
            let mut applied = 0;
            while applied < 40 {
                let delta = walk.next_delta(session.snapshot().network());
                applied += session.apply_delta(&delta).is_ok() as usize;
            }
            writer_done.store(true, Ordering::SeqCst);
        });
        writer.join().expect("writer panicked");
        for reader in readers {
            assert!(reader.join().expect("reader panicked") >= 2);
        }
    });
    assert!(!session.cache().slice_memo().is_empty());
}
