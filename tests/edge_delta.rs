//! Random-walk oracle for the single-edge enabled-set updates.
//!
//! `IncrementalEnabled` patches a reverse peer's cached entry for the one
//! advertisement a step changed instead of re-deriving it. A dropped or
//! stale entry there is a silently missed converged state, so this suite
//! challenges the maintained answer the blunt way: a second walker, with its
//! own interner and no cache at all, calls `Rpvp::enabled` from scratch
//! after every apply and every undo of a seeded random walk (apply a few
//! steps, unwind a few, repeat), and the two enabled sets must agree route
//! for route — and, at the end, so must the number of routes each interned.
//!
//! Walks run with consistent-execution pruning emulated (a node only ever
//! steps from `⊥`, the explorer's default and the single-edge rule's home
//! turf) and without it (nodes change and clear their paths, which forces
//! the full-recompute fallback), under no failure and single-link failures.

use plankton::config::scenarios::{
    bgp_wedgie, disagree_gadget, fat_tree_bgp_rfc7938, fat_tree_ospf, isp_ibgp_over_ospf,
    CoreStaticRoutes,
};
use plankton::net::generators::as_topo::AsTopologySpec;
use plankton::net::graph::dijkstra;
use plankton::prelude::*;
use plankton::protocols::bgp::{BgpModel, TableUnderlay, UniformUnderlay};
use plankton::protocols::ospf::OspfModel;
use plankton::protocols::rpvp::{EnabledChoice, IncrementalEnabled, Rpvp, RpvpState};
use plankton::protocols::{ProtocolModel, Route, RouteHandle, RouteInterner};
use std::sync::Arc;

/// xorshift64*, so walks are reproducible without an RNG dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n.max(1) as u64) as usize
    }
}

/// An enabled set with handles resolved, comparable across interners.
type Resolved = Vec<(NodeId, bool, Vec<(NodeId, Route)>)>;

fn resolved<'a>(
    choices: impl Iterator<Item = &'a EnabledChoice>,
    interner: &RouteInterner,
) -> Resolved {
    choices
        .map(|c| {
            let updates = c
                .best_updates
                .iter()
                .map(|&(p, h)| (p, interner.resolve(h).expect("interned update").clone()))
                .collect();
            (c.node, c.invalid, updates)
        })
        .collect()
}

/// What one walk did, for the structural assertions.
#[derive(Default)]
struct WalkTotals {
    applies: u64,
    /// Applies at a node that already held a route (the fallback trigger).
    path_changes: u64,
    edge_updates: u64,
}

/// The cache-free walker: state plus a from-scratch `Rpvp::enabled` per
/// query, on its own interner.
struct Oracle<'m> {
    rpvp: Rpvp<'m>,
    interner: RouteInterner,
    state: RpvpState,
    undo: Vec<(NodeId, RouteHandle)>,
}

impl Oracle<'_> {
    fn enabled(&mut self) -> Vec<EnabledChoice> {
        self.rpvp.enabled(&self.state, &mut self.interner)
    }

    /// Apply alternative `alt` of the `index`-th enabled node.
    fn apply(&mut self, index: usize, alt: Option<usize>) {
        let choice = self.enabled().swap_remove(index);
        let adopt = alt.map_or(RouteHandle::NONE, |a| choice.best_updates[a].1);
        let prev = self
            .rpvp
            .step_adopting(&mut self.state, &self.interner, choice.node, adopt);
        self.undo.push((choice.node, prev));
    }

    fn undo(&mut self) {
        let (node, prev) = self.undo.pop().expect("oracle undo stack in lockstep");
        self.rpvp.undo_step(&mut self.state, node, prev);
    }
}

fn walk(label: &str, model: &dyn ProtocolModel, consistent: bool, seed: u64) -> WalkTotals {
    let rpvp = Rpvp::new(model);
    let mut interner = RouteInterner::new();
    let mut state = rpvp.initial_state(&mut interner);
    let eligible: Vec<bool> = (0..model.node_count())
        .map(|i| !rpvp.is_origin(NodeId(i as u32)))
        .collect();
    let eligible_count = eligible.iter().filter(|&&e| e).count() as u64;
    let mut inc = IncrementalEnabled::new(model.reverse_peers(), eligible);
    inc.rebuild(&rpvp, &state, &mut interner);

    let mut oracle = {
        let rpvp = Rpvp::new(model);
        let mut interner = RouteInterner::new();
        let state = rpvp.initial_state(&mut interner);
        Oracle {
            rpvp,
            interner,
            state,
            undo: Vec::new(),
        }
    };

    let mut rng = Rng(seed | 1);
    let mut displaced: Vec<(NodeId, Option<EnabledChoice>)> = Vec::new();
    // (node, previous best, displaced-stack mark) per applied step.
    let mut frames: Vec<(NodeId, RouteHandle, usize)> = Vec::new();
    let mut totals = WalkTotals::default();
    let check = |inc: &IncrementalEnabled,
                 interner: &RouteInterner,
                 oracle: &mut Oracle,
                 what: &str,
                 op: u64| {
        let full = oracle.enabled();
        assert_eq!(
            resolved(inc.view().iter(), interner),
            resolved(full.iter(), &oracle.interner),
            "{label} (seed {seed}, consistent={consistent}): enabled set diverged after {what} #{op}"
        );
        assert_eq!(inc.len(), full.len());
    };
    check(&inc, &interner, &mut oracle, "rebuild", 0);

    while totals.applies < 400 {
        // Apply up to k steps...
        let mut converged = false;
        let mut pruned = false;
        let mut cleared: Option<NodeId> = None;
        for _ in 0..1 + rng.below(6) {
            let enabled = inc.view().to_vec();
            converged = enabled.is_empty();
            // Under consistent-execution pruning the explorer abandons a
            // state in which a routed node is enabled again.
            pruned = consistent && enabled.iter().any(|c| c.invalid || state.has_route(c.node));
            if converged || pruned {
                break;
            }
            // Invalid paths are rare and short-lived under a uniform pick;
            // go for one every other time there is any.
            let invalid: Vec<usize> = (0..enabled.len()).filter(|&i| enabled[i].invalid).collect();
            // And a node that just cleared its path often re-adopts at once,
            // before the nodes behind it have reacted.
            let readopt = cleared
                .take()
                .and_then(|n| enabled.iter().position(|c| c.node == n));
            let index = match readopt {
                Some(i) if rng.below(2) == 0 => i,
                _ if !invalid.is_empty() && rng.below(2) == 0 => invalid[rng.below(invalid.len())],
                _ => rng.below(enabled.len()),
            };
            let choice = &enabled[index];
            // A free walk sometimes only clears an invalid path although an
            // update is pending: the node is back at `⊥` while nodes
            // downstream still route through it, so its next step meets
            // entries whose `invalid` bit hangs on that one edge.
            let clear_only = choice.best_updates.is_empty()
                || (!consistent && choice.invalid && rng.below(3) == 0);
            let alt = (!clear_only).then(|| rng.below(choice.best_updates.len()));
            if clear_only {
                cleared = Some(choice.node);
            }
            let adopt = alt.map_or(RouteHandle::NONE, |a| choice.best_updates[a].1);
            let mark = displaced.len();
            let prev = rpvp.step_adopting(&mut state, &interner, choice.node, adopt);
            inc.refresh_after_step(
                &rpvp,
                &state,
                &mut interner,
                choice.node,
                prev,
                &mut displaced,
            );
            frames.push((choice.node, prev, mark));
            oracle.apply(index, alt);
            totals.applies += 1;
            totals.path_changes += prev.is_some() as u64;
            check(&inc, &interner, &mut oracle, "apply", totals.applies);
        }
        // ...then unwind j of them: a few, so the walk gets deep; all of
        // them once it has converged (and now and then), so it starts over
        // along a different path.
        let unwind = if converged || rng.below(24) == 0 {
            frames.len()
        } else {
            rng.below(5).max(pruned as usize).min(frames.len())
        };
        for _ in 0..unwind {
            let (node, prev, mark) = frames.pop().expect("counted above");
            while displaced.len() > mark {
                let (m, entry) = displaced.pop().expect("mark within stack");
                inc.set_entry(m, entry);
            }
            rpvp.undo_step(&mut state, node, prev);
            oracle.undo();
            check(
                &inc,
                &interner,
                &mut oracle,
                "undo at apply",
                totals.applies,
            );
        }
    }

    assert_eq!(
        interner.len(),
        oracle.interner.len(),
        "{label} (seed {seed}, consistent={consistent}): the delta-maintained walk interned a \
         different number of routes than the full-recompute walk"
    );
    totals.edge_updates = inc.edge_update_count();
    if totals.path_changes == 0 {
        // Every step left `⊥`, so every reverse peer took the single-edge
        // path: the only full recomputations are the rebuild's and one per
        // stepped node.
        assert_eq!(
            inc.recompute_count(),
            eligible_count + totals.applies,
            "{label}: a step from ⊥ fell back to a full recomputation"
        );
    }
    totals
}

/// No failure, plus `count` seeded single-link failures.
fn failure_sets(network: &Network, count: usize, seed: u64) -> Vec<FailureSet> {
    let mut rng = Rng(seed | 1);
    let links = network.topology.links();
    let mut sets = vec![FailureSet::none()];
    for _ in 0..count.min(links.len()) {
        sets.push(FailureSet::single(links[rng.below(links.len())].id));
    }
    sets
}

/// Walk `model` with pruning emulated and without; returns (consistent,
/// free) totals.
fn walk_both(label: &str, model: &dyn ProtocolModel, seed: u64) -> (WalkTotals, WalkTotals) {
    let pruned = walk(label, model, true, seed);
    assert_eq!(pruned.path_changes, 0, "{label}: pruning emulation leaked");
    let free = walk(label, model, false, seed ^ 0xA5A5);
    (pruned, free)
}

#[test]
fn ospf_fat_tree_walks_match_full_recompute() {
    let mut fallbacks = 0;
    let mut edge_updates = 0;
    for k in [4usize, 6] {
        let s = fat_tree_ospf(k, CoreStaticRoutes::None);
        let origin = s.fat_tree.edge[0][0];
        let prefix = s.fat_tree.prefix_of_edge(origin).expect("edge prefix");
        for (i, failures) in failure_sets(&s.network, 3, 0xFA7 + k as u64)
            .iter()
            .enumerate()
        {
            let model = OspfModel::new(&s.network, prefix, vec![origin], failures);
            let label = format!("fat_tree_ospf({k}) under {failures}");
            let (pruned, free) = walk_both(&label, &model, 0x0517 + i as u64);
            edge_updates += pruned.edge_updates;
            fallbacks += free.path_changes;
        }
    }
    assert!(
        edge_updates > 0,
        "the pruned walks must exercise edge updates"
    );
    assert!(fallbacks > 0, "the free walks must exercise the fallback");
}

#[test]
fn bgp_walks_match_full_recompute() {
    let mut edge_updates = 0;
    let dc = fat_tree_bgp_rfc7938(4, 3);
    let origin = dc.fat_tree.edge[0][0];
    let prefix = dc.fat_tree.prefix_of_edge(origin).expect("edge prefix");
    let gadgets = [disagree_gadget(), bgp_wedgie()];
    let mut cases: Vec<(String, &Network, Prefix, NodeId)> = vec![(
        "fat_tree_bgp_rfc7938(4,3)".into(),
        &dc.network,
        prefix,
        origin,
    )];
    for g in &gadgets {
        cases.push((g.name.into(), &g.network, g.destination, g.origin));
    }
    for (name, network, prefix, origin) in cases {
        for (i, failures) in failure_sets(network, 2, 0xB69).iter().enumerate() {
            let model = BgpModel::new(
                network,
                prefix,
                vec![origin],
                failures,
                Arc::new(UniformUnderlay),
            );
            let label = format!("{name} under {failures}");
            // (These instances never offer a routed node a better path —
            // only maximal updates are offered, and the first one adopted
            // stays maximal — so here the free walk differs from the pruned
            // one in its seed only; the OSPF walks cover the fallback.)
            let (pruned, free) = walk_both(&label, &model, 0xB6 + i as u64);
            edge_updates += pruned.edge_updates + free.edge_updates;
        }
    }
    assert!(edge_updates > 0, "the walks must exercise edge updates");
}

#[test]
fn ibgp_over_ospf_walks_match_full_recompute() {
    let s = isp_ibgp_over_ospf(&AsTopologySpec {
        name: "ISP-16".into(),
        routers: 16,
        backbone_fraction: 0.5,
        access_multihoming: 2,
        seed: 16,
    });
    let topo = &s.network.topology;
    for (i, failures) in failure_sets(&s.network, 3, 0x16).iter().enumerate() {
        // The underlay: a loopback PEC in OSPF...
        let owner = s.borders[0];
        let loopback = s.loopback_prefixes[0];
        let ospf = OspfModel::new(&s.network, loopback, vec![owner], failures);
        walk_both(
            &format!("ISP-16 OSPF under {failures}"),
            &ospf,
            0x05 + i as u64,
        );

        // ...and the iBGP mesh over the IGP costs that underlay converges to.
        let mut underlay = TableUnderlay::new();
        for n in topo.node_ids() {
            let paths = dijkstra(topo, n, failures, |from, link| {
                let ospf = s.network.device(from).ospf.as_ref()?;
                ospf.cost(link).map(u64::from)
            });
            for m in topo.node_ids() {
                if let Some(cost) = paths.cost(m) {
                    underlay.set(n, m, cost);
                }
            }
        }
        let underlay = Arc::new(underlay);
        for (prefix, &border) in s.bgp_destinations.iter().zip(&s.borders) {
            let bgp = BgpModel::new(
                &s.network,
                *prefix,
                vec![border],
                failures,
                underlay.clone(),
            );
            let label = format!("ISP-16 iBGP {prefix} under {failures}");
            walk_both(&label, &bgp, 0x1B + i as u64);
        }
    }
}
