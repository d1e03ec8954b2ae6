//! Reusable per-worker search state.
//!
//! A [`ModelChecker`](crate::ModelChecker) run needs a visited-state set, an
//! undo stack, a route interner, branch-snapshot buffers, the state and
//! `decided` vectors, a trail, the delta-maintained enabled set, the
//! dependence witness, the decision-independence search's buffers and the
//! influence set's; allocating them fresh per run is wasted work when a
//! verification engine executes thousands of runs per worker. A
//! [`SearchScratch`] owns every one of them and is threaded from run to run
//! on one worker ([`ModelChecker::run_in`](crate::ModelChecker::run_in)), so
//! the next run finds the previous run's hash tables, bit arrays and vectors
//! still allocated: a warmed worker sets up a task of a size it has seen
//! without allocating. The checker itself holds only what describes the
//! question (model, heuristic, options, sources, failures).
//!
//! The scratch must *never* be shared across concurrent runs or carried over
//! without clearing: visited states are arrays of route handles, so stale
//! entries from another run could alias fresh states and unsoundly suppress
//! exploration. [`SearchScratch::prepare`] is the one entry to a run and
//! clears everything; it is also the one place that chooses exact or
//! bitstate visited storage. The explorer then resets each per-node buffer
//! to the model's size, and at the end of the run releases the enabled
//! set's reverse-peer index, so an idle worker pins no adjacency.
//!
//! The interner is the exception to clearing: its handles are
//! content-addressed and stay valid across runs, so reuse keeps the table
//! *warm* — a worker verifying hundreds of failure scenarios interns each
//! distinct route once instead of once per run.
//! [`RouteInterner::begin_run`] opens a per-run accounting epoch so the
//! reported statistics stay identical to a cold interner's.

use crate::explorer::DependenceWitness;
use crate::options::SearchOptions;
use crate::por::DiScratch;
use crate::trail::Trail;
use crate::undo::UndoStack;
use crate::visited::{BloomFilter, VisitedSet};
use plankton_net::topology::NodeId;
use plankton_protocols::rpvp::{EnabledChoice, IncrementalEnabled, RpvpState};
use plankton_protocols::RouteInterner;

/// The reusable allocations of one worker's sequence of model-checking runs.
#[derive(Default)]
pub struct SearchScratch {
    /// The visited-state set, of the kind the last run's options asked for.
    pub(crate) visited: VisitedSet,
    /// The apply/undo stack (frame and displaced-enabled-entry buffers).
    pub(crate) undo: UndoStack,
    /// The route interner, kept warm between runs.
    pub(crate) interner: RouteInterner,
    /// Enabled-set snapshot buffers for branch points: the DFS pops one per
    /// live `BranchAll` frame and pushes it back when the frame exits, so
    /// sibling branch points at one depth share an allocation.
    pub(crate) snapshots: Vec<Vec<EnabledChoice>>,
    /// The live RPVP state, applied and undone in place.
    pub(crate) state: RpvpState,
    /// `decided[n]` ⟺ node `n` has made its final selection on the live path.
    pub(crate) decided: Vec<bool>,
    /// The live DFS path, handed to the callback with each converged state.
    pub(crate) trail: Trail,
    /// The delta-maintained enabled set.
    pub(crate) enabled: IncrementalEnabled,
    /// Adjacent enabled, undecided pairs.
    pub(crate) witness: DependenceWitness,
    /// The decision-independence search's reached-marks and frontier.
    pub(crate) independence: DiScratch,
    /// The influence set (§4.2): `allowed[n]` ⟺ `n` can reach a source.
    pub(crate) allowed: Vec<bool>,
    /// The influence set's breadth-first frontier.
    pub(crate) frontier: Vec<NodeId>,
    /// Runs prepared so far.
    runs: u64,
    /// Runs that kept the previous run's visited set (engine statistics).
    reuses: u64,
}

impl SearchScratch {
    /// An empty scratch: the first run allocates as it goes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make the scratch ready for a run under `options`: the visited set is
    /// cleared when its kind (exact, or bitstate of the same rounded size)
    /// matches and replaced otherwise, the undo stack is cleared, and the
    /// interner opens a new accounting epoch with its table kept warm. The
    /// per-node buffers are sized by the run that follows.
    pub fn prepare(&mut self, options: &SearchOptions) {
        let keep = match options.bitstate_bits {
            None => matches!(self.visited, VisitedSet::Exact(_)),
            Some(bits) => self.visited.bitstate_bits() == Some(BloomFilter::rounded_bits(bits)),
        };
        if keep {
            self.visited.clear();
            self.reuses += u64::from(self.runs > 0);
        } else {
            self.visited = match options.bitstate_bits {
                None => VisitedSet::exact(),
                Some(bits) => VisitedSet::bitstate(bits),
            };
        }
        self.runs += 1;
        self.undo.clear();
        self.interner.begin_run();
    }

    /// How many runs reused the previous run's visited set.
    pub fn reuse_count(&self) -> u64 {
        self.reuses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visited::state_hash;

    #[test]
    fn prepare_clears_everything_but_the_interner_table() {
        let mut scratch = SearchScratch::new();
        let options = SearchOptions::all_optimizations();
        scratch.prepare(&options);
        let route = plankton_protocols::Route::originated(plankton_net::ip::Prefix::DEFAULT);
        let h = scratch.interner.intern(&route);
        assert!(scratch
            .visited
            .insert(&[h], state_hash(&[h], &scratch.interner)));
        scratch.prepare(&options);
        assert!(scratch.visited.is_empty(), "visited must come back cleared");
        assert_eq!(scratch.undo.depth(), 0);
        assert_eq!(scratch.reuse_count(), 1);
        // The interner stays warm: the route is still in the table, with the
        // same handle, but the new run's stats start from zero.
        assert_eq!(scratch.interner.len(), 1);
        assert_eq!(scratch.interner.run_interned(), 0);
        assert_eq!(scratch.interner.intern(&route), h, "handles stay stable");
        assert_eq!(scratch.interner.run_interned(), 1);
    }

    #[test]
    fn prepare_follows_the_visited_kind_and_filter_size() {
        let mut scratch = SearchScratch::new();
        let exact = SearchOptions::all_optimizations();
        let small = SearchOptions::all_optimizations().with_bitstate(1 << 14);
        let large = SearchOptions::all_optimizations().with_bitstate(1 << 16);
        for (options, bits, reuses) in [
            (&exact, None, 0),
            (&small, Some(1 << 14), 0),
            (&small, Some(1 << 14), 1),
            (&large, Some(1 << 16), 1),
            (&exact, None, 1),
            (&exact, None, 2),
        ] {
            scratch.prepare(options);
            assert_eq!(scratch.visited.bitstate_bits(), bits);
            assert_eq!(scratch.reuse_count(), reuses);
        }
    }
}
