//! Differential tests for the incremental explorer.
//!
//! The incremental inner loop (delta-maintained enabled sets, apply/undo
//! DFS, handle-native visited checks) must be a pure performance change: on
//! every scenario it has to produce a `VerificationReport` byte-identical to
//! the pre-change clone-based search (`ReferenceChecker`, selected with
//! `PlanktonOptions::with_reference_explorer`), including exact
//! `SearchStats` — the only allowed difference being the two
//! incremental-only observability counters, which the reference leaves at 0.

use plankton::checker::SearchStats;
use plankton::config::scenarios::{
    disagree_gadget, fat_tree_bgp_rfc7938, fat_tree_ospf, isp_ibgp_over_ospf, isp_ospf, ring_ospf,
    CoreStaticRoutes,
};
use plankton::net::generators::as_topo::AsTopologySpec;
use plankton::prelude::*;
use plankton::protocols::bgp::{BgpModel, UniformUnderlay};
use plankton::protocols::rpvp::{IncrementalEnabled, Rpvp};
use plankton::protocols::{ProtocolModel, RouteHandle, RouteInterner};
use std::sync::Arc;

/// A tiny deterministic PRNG (xorshift64*) so the "random" failure sets and
/// walks are reproducible without an RNG dependency.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A seeded random subset of the network's links, to drive `up_to_among`.
fn random_links(network: &Network, count: usize, seed: u64) -> Vec<LinkId> {
    let mut rng = Lcg::new(seed);
    let all: Vec<LinkId> = network.topology.links().iter().map(|l| l.id).collect();
    let mut picked = Vec::new();
    for _ in 0..count.min(all.len()) {
        loop {
            let l = all[rng.below(all.len())];
            if !picked.contains(&l) {
                picked.push(l);
                break;
            }
        }
    }
    picked
}

/// Serialize a report for comparison: the shared normalization (engine pool
/// stats nulled) plus zeroing the incremental-only stats counters, which the
/// reference explorer leaves at 0.
fn normalized(report: &VerificationReport) -> String {
    let mut r = report.clone();
    r.stats = r.stats.without_incremental_counters();
    r.normalized_json()
}

/// Run the same verification through the reference explorer (one worker),
/// the incremental explorer (one worker) and the incremental explorer on
/// four workers, and assert all three reports are identical.
fn assert_differential(
    label: &str,
    network: &Network,
    policy: &dyn plankton::policy::Policy,
    scenario: &FailureScenario,
    options: PlanktonOptions,
) {
    let plankton = Plankton::new(network.clone());
    let mut one_worker = options.clone();
    one_worker.parallelism = 1;
    let reference = plankton.verify(
        policy,
        scenario,
        &one_worker.clone().with_reference_explorer(),
    );
    let incremental_seq = plankton.verify(policy, scenario, &one_worker);
    let incremental_par = {
        let mut par = options.clone();
        par.parallelism = 4;
        plankton.verify(policy, scenario, &par)
    };
    assert_eq!(
        reference.stats.enabled_recomputed_nodes, 0,
        "{label}: reference must not delta-maintain"
    );
    if reference.stats.steps > 0 {
        assert!(
            incremental_seq.stats.enabled_recomputed_nodes > 0,
            "{label}: incremental counters must be live"
        );
    }
    assert_eq!(
        normalized(&reference),
        normalized(&incremental_seq),
        "{label}: one-worker incremental report differs from pre-change behavior"
    );
    assert_eq!(
        normalized(&reference),
        normalized(&incremental_par),
        "{label}: four-worker incremental report differs from pre-change behavior"
    );
}

#[test]
fn ring_reachability_matches_reference_under_random_failures() {
    let s = ring_ospf(8);
    let sources: Vec<NodeId> = s.ring.routers[1..].to_vec();
    for seed in [11u64, 23, 47] {
        let links = random_links(&s.network, 4, seed);
        assert_differential(
            &format!("ring seed {seed}"),
            &s.network,
            &Reachability::new(sources.clone()),
            &FailureScenario::up_to_among(2, links),
            PlanktonOptions::with_cores(1)
                .restricted_to(vec![s.destination])
                .without_lec_pruning()
                .collect_all_violations(),
        );
    }
}

#[test]
fn fat_tree_loop_policy_matches_reference_under_random_failures() {
    for (mode, label, seed) in [
        (CoreStaticRoutes::MatchingOspf, "pass", 7u64),
        (CoreStaticRoutes::Looping, "fail", 8u64),
    ] {
        let s = fat_tree_ospf(4, mode);
        let links = random_links(&s.network, 3, seed);
        assert_differential(
            &format!("fat tree ({label})"),
            &s.network,
            &LoopFreedom::everywhere(),
            &FailureScenario::up_to_among(1, links),
            PlanktonOptions::with_cores(1).collect_all_violations(),
        );
    }
}

#[test]
fn disagree_gadget_matches_reference() {
    let g = disagree_gadget();
    for seed in [3u64, 5] {
        let links = random_links(&g.network, 2, seed);
        assert_differential(
            &format!("disagree seed {seed}"),
            &g.network,
            &Reachability::new(g.actors.clone()),
            &FailureScenario::up_to_among(1, links),
            PlanktonOptions::with_cores(1)
                .restricted_to(vec![g.destination])
                .collect_all_violations(),
        );
    }
}

#[test]
fn fat_tree_k8_scale_matches_reference_under_random_failures() {
    // The AS-scale bench tier's fat-tree workload (k=8, 80 switches), at a
    // test-sized failure set: byte-identical reports and exact stats.
    let s = fat_tree_ospf(8, CoreStaticRoutes::None);
    let sources: Vec<NodeId> = s.network.topology.node_ids().collect();
    let links = random_links(&s.network, 3, 0xA5);
    assert_differential(
        "fat tree k=8",
        &s.network,
        &Reachability::new(sources),
        &FailureScenario::up_to_among(1, links),
        PlanktonOptions::with_cores(1)
            .restricted_to(vec![s.destinations[0]])
            .without_lec_pruning()
            .collect_all_violations(),
    );
}

#[test]
fn isp_scale_matches_reference() {
    // The AS-scale bench tier's ISP workload: a 1000-router synthetic AS,
    // all-node reachability to one customer prefix.
    let s = isp_ospf(&AsTopologySpec::scale(1000));
    let sources: Vec<NodeId> = s.network.topology.node_ids().collect();
    assert_differential(
        "ISP-1000",
        &s.network,
        &Reachability::new(sources),
        &FailureScenario::no_failures(),
        PlanktonOptions::with_cores(1)
            .restricted_to(vec![s.destinations[0]])
            .without_lec_pruning()
            .collect_all_violations(),
    );
}

#[test]
fn ibgp_dependencies_match_reference() {
    let s = isp_ibgp_over_ospf(&AsTopologySpec::paper_as(3967));
    assert_differential(
        "iBGP over OSPF",
        &s.network,
        &Reachability::new(s.network.topology.node_ids().collect()),
        &FailureScenario::no_failures(),
        PlanktonOptions::with_cores(1)
            .restricted_to(s.bgp_destinations.clone())
            .collect_all_violations(),
    );
}

#[test]
fn aggregated_stats_agree_between_explorers_beyond_the_new_counters() {
    // Spot-check that the normalization really only hides the two new
    // counters: every pre-existing field must match exactly.
    let s = ring_ospf(6);
    let sources: Vec<NodeId> = s.ring.routers[1..].to_vec();
    let plankton = Plankton::new(s.network.clone());
    let run = |opts: PlanktonOptions| {
        plankton.verify(
            &Reachability::new(sources.clone()),
            &FailureScenario::up_to(1),
            &opts
                .restricted_to(vec![s.destination])
                .collect_all_violations(),
        )
    };
    let reference = run(PlanktonOptions::with_cores(1).with_reference_explorer());
    let incremental = run(PlanktonOptions::with_cores(1));
    let a: SearchStats = reference.stats;
    let b: SearchStats = incremental.stats;
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.branch_points, b.branch_points);
    assert_eq!(a.branches, b.branches);
    assert_eq!(a.pruned_inconsistent, b.pruned_inconsistent);
    assert_eq!(a.pruned_by_policy, b.pruned_by_policy);
    assert_eq!(a.pruned_visited, b.pruned_visited);
    assert_eq!(a.converged_states, b.converged_states);
    assert_eq!(a.deterministic_steps, b.deterministic_steps);
    assert_eq!(a.max_depth, b.max_depth);
    assert_eq!(a.interned_routes, b.interned_routes);
    assert_eq!(a.visited_states, b.visited_states);
    assert_eq!(a.approx_memory_bytes, b.approx_memory_bytes);
    assert_eq!(a.truncated, b.truncated);
    assert!(b.undo_depth_max > 0);
}

/// The delta-maintained enabled set must match a from-scratch
/// `Rpvp::enabled()` after every step of a random walk through a
/// branching-heavy BGP instance (200 steps total, restarting from the
/// initial state whenever an execution converges).
#[test]
fn incremental_enabled_matches_full_recompute_on_random_walk() {
    let s = fat_tree_bgp_rfc7938(4, 1);
    let origin = s.fat_tree.edge[0][0];
    let prefix = s.fat_tree.prefix_of_edge(origin).expect("edge prefix");
    let model = BgpModel::new(
        &s.network,
        prefix,
        vec![origin],
        &FailureSet::none(),
        Arc::new(UniformUnderlay),
    );
    let rpvp = Rpvp::new(&model);
    let eligible: Vec<bool> = (0..model.node_count())
        .map(|i| !rpvp.is_origin(NodeId(i as u32)))
        .collect();
    let mut rng = Lcg::new(0xFEED);
    let mut interner = RouteInterner::new();
    let mut state = rpvp.initial_state(&mut interner);
    let mut inc = IncrementalEnabled::new(model.reverse_peers(), eligible.clone());
    inc.rebuild(&rpvp, &state, &mut interner);
    let mut displaced = Vec::new();
    let mut steps = 0usize;
    while steps < 200 {
        let enabled = inc.view().to_vec();
        if enabled.is_empty() {
            state = rpvp.initial_state(&mut interner);
            inc.rebuild(&rpvp, &state, &mut interner);
            continue;
        }
        // Pick a random enabled node and a random alternative (one of its
        // best updates, or the invalid-path clear when it has none —
        // `RouteHandle::NONE` requests the clear).
        let choice = enabled[rng.below(enabled.len())].clone();
        let adopt = if choice.best_updates.is_empty() {
            RouteHandle::NONE
        } else {
            choice.best_updates[rng.below(choice.best_updates.len())].1
        };
        let prev_best = rpvp.step_adopting(&mut state, &interner, choice.node, adopt);
        displaced.clear();
        inc.refresh_after_step(
            &rpvp,
            &state,
            &mut interner,
            choice.node,
            prev_best,
            &mut displaced,
        );
        assert_eq!(
            inc.view().to_vec(),
            rpvp.enabled(&state, &mut interner),
            "delta-maintained enabled set diverged after step {steps} at {}",
            choice.node
        );
        // Every other step, also exercise the undo path: revert the step,
        // check the enabled set against a full recompute again, then redo.
        if steps % 2 == 1 {
            rpvp.undo_step(&mut state, choice.node, prev_best);
            for (node, entry) in displaced.drain(..).rev() {
                inc.set_entry(node, entry);
            }
            assert_eq!(
                inc.view().to_vec(),
                rpvp.enabled(&state, &mut interner),
                "undo diverged after step {steps}"
            );
            let prev = rpvp.step_adopting(&mut state, &interner, choice.node, adopt);
            inc.refresh_after_step(
                &rpvp,
                &state,
                &mut interner,
                choice.node,
                prev,
                &mut displaced,
            );
        }
        steps += 1;
    }
    assert!(inc.recompute_count() > 0);
}
