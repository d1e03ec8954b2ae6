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
//! This lives in its own integration-test binary because the global
//! allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use plankton_checker::VisitedSet;
use plankton_config::scenarios::ring_ospf;
use plankton_net::failure::FailureSet;
use plankton_net::topology::NodeId;
use plankton_protocols::ospf::OspfModel;
use plankton_protocols::rpvp::{EnabledChoice, IncrementalEnabled, Rpvp};
use plankton_protocols::{ProtocolModel, RouteHandle, RouteInterner};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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
    visited.insert(&state.best, &interner);
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
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let prev_best = rpvp.step_adopting(&mut state, &interner, node, adopt);
        measured += ALLOCATIONS.load(Ordering::Relaxed) - before;

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
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        rpvp.undo_step(&mut state, node, prev_best);
        for (n, entry) in displaced.drain(..).rev() {
            inc.set_entry(n, entry);
        }
        let live = inc.view().iter().count();
        assert!(live > 0, "pre-step enabled set cannot be empty here");
        measured += ALLOCATIONS.load(Ordering::Relaxed) - before;

        // Redo and record the visited fingerprint (bitstate: fixed memory).
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let prev = rpvp.step_adopting(&mut state, &interner, node, adopt);
        measured += ALLOCATIONS.load(Ordering::Relaxed) - before;
        displaced.clear();
        inc.refresh_after_step(&rpvp, &state, &mut interner, node, prev, &mut displaced);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        visited.insert(&state.best, &interner);
        measured += ALLOCATIONS.load(Ordering::Relaxed) - before;
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
