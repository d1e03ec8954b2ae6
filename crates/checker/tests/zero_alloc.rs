//! Allocation regression test for the handle-native inner loop.
//!
//! The point of interning routes at generation time is that the DFS's
//! *steady-state step path* — adopting an already-interned route handle,
//! recording the bitstate visited fingerprint, reverting the step, and
//! restoring displaced enabled-set cache entries — touches no allocator at
//! all: steps move a single `u64`, undo records are `Copy`, fingerprints
//! hash precomputed content hashes, and cache restores `mem::replace`
//! already-allocated entries. A counting global allocator pins that down so
//! a future change cannot quietly reintroduce per-step allocation.
//!
//! The enabled-set *refresh* is deliberately outside the measured windows:
//! recomputing a node's pending update constructs candidate `Route` values
//! (path vectors and all) before interning them — that construction is the
//! irreducible cost of evaluating the protocol's advertise function, not
//! step overhead, and it is bounded by the stepped node's neighborhood.
//!
//! The same holds one level up, for converged states: the explorer hands
//! its callback a view of the live handle vector, so a steady-state run
//! whose callback only reads routes through that view allocates nothing
//! from its first converged state to its last — with either visited set:
//! the bitstate filter has fixed memory, and the exact set copies each new
//! state into an arena that a warmed worker's cleared set still holds.
//!
//! Before the first step, a task's set-up allocates a fixed number of
//! times whatever the network's size: an OSPF model is a view of an
//! adjacency the run already built, and the checker takes the adjacency's
//! shared reverse-peer index instead of building per-node lists.
//!
//! This lives in its own integration-test binary because the global
//! allocator is process-wide; allocations are counted per thread, so the
//! tests here do not see each other's.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use plankton_checker::visited::state_hash;
use plankton_checker::{
    ModelChecker, NoPor, OspfPor, SearchOptions, SearchScratch, Verdict, VisitedSet,
};
use plankton_config::scenarios::{fat_tree_ospf, ring_ospf, CoreStaticRoutes};
use plankton_net::failure::FailureSet;
use plankton_net::ip::Prefix;
use plankton_net::topology::NodeId;
use plankton_protocols::ospf::{OspfAdjacency, OspfModel};
use plankton_protocols::rpvp::{EnabledChoice, IncrementalEnabled, Rpvp};
use plankton_protocols::{Preference, ProtocolModel, Route, RouteHandle, RouteInterner};
use std::sync::Arc;

/// The first enabled choice's `(node, adoption handle)`, copied out so the
/// borrow of the cache ends before the state is mutated. `NONE` requests an
/// invalid-path clear.
fn first_choice(inc: &IncrementalEnabled) -> Option<(NodeId, RouteHandle)> {
    inc.view().first().map(|c| {
        let adopt = c
            .best_updates
            .first()
            .map(|&(_, h)| h)
            .unwrap_or(RouteHandle::NONE);
        (c.node, adopt)
    })
}

#[test]
fn steady_state_step_path_does_not_allocate() {
    let s = ring_ospf(4);
    let model = OspfModel::new(
        &s.network,
        s.destination,
        vec![s.origin],
        &FailureSet::none(),
    );
    let rpvp = Rpvp::new(&model);
    let mut interner = RouteInterner::new();
    let initial = rpvp.initial_state(&mut interner);
    let eligible: Vec<bool> = (0..model.node_count())
        .map(|i| !rpvp.is_origin(NodeId(i as u32)))
        .collect();
    let mut inc = IncrementalEnabled::new(model.reverse_peers(), eligible);
    let mut state = initial.clone();
    inc.rebuild(&rpvp, &state, &mut interner);

    let mut displaced: Vec<(NodeId, Option<EnabledChoice>)> = Vec::with_capacity(64);
    let mut visited = VisitedSet::bitstate(1 << 16);

    // Warm-up pass: drive one full execution to convergence so every route
    // the walk will ever adopt is interned and every buffer is sized.
    while let Some((node, adopt)) = first_choice(&inc) {
        let prev = rpvp.step_adopting(&mut state, &interner, node, adopt);
        displaced.clear();
        inc.refresh_after_step(&rpvp, &state, &mut interner, node, prev, &mut displaced);
    }
    visited.insert(&state.best, state_hash(&state.best), &interner);
    let interned_after_warmup = interner.len();

    // Measured pass: replay the same execution from the initial state,
    // counting allocations only across the step-path operations. Each
    // iteration steps, reverts (exercising the displaced-entry restore),
    // and redoes the step so the walk makes progress.
    state.best.copy_from_slice(&initial.best);
    inc.rebuild(&rpvp, &state, &mut interner);
    let mut measured = 0usize;
    let mut steps = 0usize;
    while let Some((node, adopt)) = first_choice(&inc) {
        let before = allocations();
        let prev_best = rpvp.step_adopting(&mut state, &interner, node, adopt);
        measured += allocations() - before;

        displaced.clear();
        inc.refresh_after_step(
            &rpvp,
            &state,
            &mut interner,
            node,
            prev_best,
            &mut displaced,
        );

        // Undo: restore the handle and the displaced cache entries, then
        // verify the enabled view is iterable without touching the heap.
        let before = allocations();
        rpvp.undo_step(&mut state, node, prev_best);
        for (n, entry) in displaced.drain(..).rev() {
            inc.set_entry(n, entry);
        }
        let live = inc.view().iter().count();
        assert!(live > 0, "pre-step enabled set cannot be empty here");
        measured += allocations() - before;

        // Redo and record the visited fingerprint (bitstate: fixed memory).
        let before = allocations();
        let prev = rpvp.step_adopting(&mut state, &interner, node, adopt);
        measured += allocations() - before;
        displaced.clear();
        inc.refresh_after_step(&rpvp, &state, &mut interner, node, prev, &mut displaced);
        let before = allocations();
        visited.insert(&state.best, state_hash(&state.best), &interner);
        measured += allocations() - before;
        steps += 1;
    }
    assert!(steps > 0, "the walk must take steps");
    assert_eq!(
        interner.len(),
        interned_after_warmup,
        "the replay must re-intern nothing"
    );
    assert_eq!(
        measured, 0,
        "steady-state step path allocated {measured} times over {steps} steps"
    );
}

/// An origin (node 0), two relays (1, 2) that listen to it only, and
/// `leaves` nodes that listen to both relays and rank the two routes equal:
/// every leaf picks either relay, so there are `2^leaves` converged states,
/// every execution takes the same `2 + leaves` steps, and every route is
/// short enough to live inline.
struct TwoRelays {
    peers: Vec<Vec<NodeId>>,
}

impl TwoRelays {
    fn new(leaves: usize) -> Self {
        let mut peers = vec![Vec::new(), vec![NodeId(0)], vec![NodeId(0)]];
        peers.resize(3 + leaves, vec![NodeId(1), NodeId(2)]);
        TwoRelays { peers }
    }
}

impl ProtocolModel for TwoRelays {
    fn node_count(&self) -> usize {
        self.peers.len()
    }
    fn origins(&self) -> &[NodeId] {
        const O: [NodeId; 1] = [NodeId(0)];
        &O
    }
    fn peers(&self, n: NodeId) -> &[NodeId] {
        &self.peers[n.index()]
    }
    fn advertise(&self, from: NodeId, to: NodeId, r: &Route) -> Option<Route> {
        (!r.traverses(to)).then(|| r.extended_through(from))
    }
    fn origin_route(&self, _o: NodeId) -> Route {
        Route::originated(Prefix::DEFAULT)
    }
    fn prefer(&self, _n: NodeId, a: &Route, b: &Route) -> Preference {
        match a.hop_count().cmp(&b.hop_count()) {
            std::cmp::Ordering::Less => Preference::Better,
            std::cmp::Ordering::Greater => Preference::Worse,
            std::cmp::Ordering::Equal => Preference::Tied,
        }
    }
    fn name(&self) -> &'static str {
        "two-relays"
    }
}

/// Run the unreduced search on [`TwoRelays`] twice through one
/// [`SearchScratch`] and assert the second (warm) run allocates nothing from
/// its first converged state to its end. The search branches over every
/// choice and records every branch's state in the visited set.
fn assert_warm_run_emits_without_allocating(options: SearchOptions) {
    let leaves = 5usize;
    let model = TwoRelays::new(leaves);
    let mut scratch = SearchScratch::new();
    let mut run = || {
        let checker =
            ModelChecker::new(&model, Box::new(NoPor), options.clone(), FailureSet::none());
        // Allocation count at the first emit, and the next hops read.
        let mut first_emit = None;
        let mut via_relay = 0u64;
        let stats = checker.run_in(&mut scratch, &mut |state, _| {
            first_emit.get_or_insert_with(allocations);
            for n in 0..state.node_count() as u32 {
                let n = NodeId(n);
                let relay = state.best(n).and_then(|_| state.next_hop(n));
                via_relay += u64::from(matches!(relay, Some(NodeId(1 | 2))));
            }
            Verdict::Continue
        });
        let allocated = allocations() - first_emit.expect("the run converges");
        (stats, via_relay, allocated)
    };
    // Warm-up: interns every route and sizes every pooled buffer.
    let (warm, _, _) = run();
    let (stats, via_relay, allocated) = run();
    assert_eq!(stats.converged_states, 1 << leaves);
    assert_eq!(stats, warm);
    assert!(stats.visited_states > stats.converged_states);
    assert_eq!(via_relay, stats.converged_states * leaves as u64);
    assert_eq!(
        allocated, 0,
        "{allocated} allocations from the first of {} converged states to the end of the run",
        stats.converged_states
    );
}

#[test]
fn steady_state_run_emits_converged_states_without_allocating() {
    assert_warm_run_emits_without_allocating(
        SearchOptions::no_optimizations().with_bitstate(1 << 16),
    );
}

#[test]
fn warm_exact_visited_set_records_states_without_allocating() {
    assert_warm_run_emits_without_allocating(SearchOptions::no_optimizations());
}

/// Allocations of one OSPF task's set-up on a k-ary fat tree: a view of an
/// adjacency built beforehand, for the first edge switch's prefix, and the
/// checker over it — with and without the policy sources that turn on
/// influence pruning.
fn task_setup_allocations(k: usize, sourced: bool) -> usize {
    let s = fat_tree_ospf(k, CoreStaticRoutes::None);
    let origin = s.fat_tree.edge[0][0];
    let prefix = s.fat_tree.prefix_of_edge(origin).expect("edges originate");
    let adjacency = Arc::new(OspfAdjacency::new(&s.network, &FailureSet::none()));
    let options = SearchOptions {
        source_nodes: sourced.then(|| vec![s.fat_tree.edge[k - 1][0]]),
        ..SearchOptions::default()
    };
    let before = allocations();
    let model = OspfModel::over(Arc::clone(&adjacency), prefix, vec![origin]);
    let checker = ModelChecker::new(&model, Box::new(OspfPor), options, FailureSet::none());
    let allocated = allocations() - before;
    drop(checker);
    allocated
}

#[test]
fn task_setup_allocates_the_same_at_every_network_size() {
    for sourced in [false, true] {
        let small = task_setup_allocations(4, sourced);
        let large = task_setup_allocations(8, sourced);
        assert_eq!(
            small, large,
            "task set-up allocated {small} times at k=4 (20 nodes) and {large} at k=8 \
             (80 nodes), policy sources: {sourced}"
        );
    }
}
