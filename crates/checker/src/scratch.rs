//! Reusable per-worker search state.
//!
//! Every [`ModelChecker`](crate::ModelChecker) run needs a visited-state
//! set, an undo stack, a route interner and branch-snapshot buffers;
//! allocating them fresh per run is wasted work when a verification engine
//! executes thousands of runs per worker. A [`SearchScratch`] keeps the
//! previous run's allocations and hands them back — cleared, but with hash
//! tables, bit arrays and vectors still allocated — to the next run on the
//! same worker, bundled as [`ScratchParts`].
//!
//! The parts must *never* be shared across concurrent runs or carried over
//! without clearing: visited states are arrays of route handles, so stale
//! entries from another run could alias fresh states and unsoundly suppress
//! exploration. The scratch API enforces the clear on every reuse. A cleared
//! exact visited set keeps its state arena and index, so a warmed worker's
//! runs record states without allocating.
//!
//! The interner is the exception: its handles are content-addressed and stay
//! valid across runs, so reuse keeps the table *warm* — a worker verifying
//! hundreds of failure scenarios interns each distinct route once instead of
//! once per run. [`RouteInterner::begin_run`] opens a per-run accounting
//! epoch so the reported statistics stay identical to a cold interner's.

use crate::options::SearchOptions;
use crate::undo::UndoStack;
use crate::visited::VisitedSet;
use plankton_protocols::rpvp::EnabledChoice;
use plankton_protocols::RouteInterner;

/// A pool of enabled-set snapshot buffers for branch points. The DFS pops a
/// buffer per live `BranchAll` frame and pushes it back when the frame
/// exits, so sibling branch points at the same depth reuse one allocation
/// instead of `to_vec()`-ing the enabled set every time.
#[derive(Default)]
pub struct SnapshotPool {
    bufs: Vec<Vec<EnabledChoice>>,
}

impl SnapshotPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a cleared buffer (allocates only when the pool is dry, i.e. at
    /// a new maximum branch-nesting depth).
    pub fn pop(&mut self) -> Vec<EnabledChoice> {
        let mut buf = self.bufs.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Return a buffer to the pool.
    pub fn push(&mut self, buf: Vec<EnabledChoice>) {
        self.bufs.push(buf);
    }
}

/// The bundle of reusable allocations one [`ModelChecker`](crate::ModelChecker)
/// run draws from and hands back.
pub struct ScratchParts {
    /// The visited-state set.
    pub visited: VisitedSet,
    /// The apply/undo stack (frame and displaced-enabled-entry buffers).
    pub undo: UndoStack,
    /// The route interner. Kept warm between runs (handles are
    /// content-addressed); per-run stats restart via `begin_run`.
    pub interner: RouteInterner,
    /// Branch-point snapshot buffers.
    pub snapshots: SnapshotPool,
}

impl ScratchParts {
    /// Freshly allocated parts matching `options` (exact or bitstate
    /// visited set).
    pub fn fresh(options: &SearchOptions) -> Self {
        let visited = match options.bitstate_bits {
            Some(bits) => VisitedSet::bitstate(bits),
            None => VisitedSet::exact(),
        };
        ScratchParts {
            visited,
            undo: UndoStack::new(),
            interner: RouteInterner::new(),
            snapshots: SnapshotPool::new(),
        }
    }

    /// Reset every part for a new run, keeping allocations — and keeping
    /// the interner's route table warm (only its per-run stats restart).
    pub fn clear(&mut self) {
        self.visited.clear();
        self.undo.clear();
        self.interner.begin_run();
    }
}

/// Reusable allocations for one worker's sequence of model-checking runs.
#[derive(Default)]
pub struct SearchScratch {
    visited: Option<VisitedSet>,
    /// The incremental explorer's apply/undo stack from the previous run
    /// (frame and displaced-enabled-entry buffers), handed back cleared.
    undo: Option<UndoStack>,
    interner: Option<RouteInterner>,
    snapshots: Option<SnapshotPool>,
    /// Runs that reused a previous allocation (for engine statistics).
    reuses: u64,
}

impl SearchScratch {
    /// An empty scratch: the first run allocates fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The full scratch bundle for a run under `options`: stored parts
    /// (cleared) where reusable, freshly allocated ones otherwise.
    pub fn take_parts(&mut self, options: &SearchOptions) -> ScratchParts {
        ScratchParts {
            visited: self.take_visited(options),
            undo: self.take_undo(),
            interner: match self.interner.take() {
                Some(mut i) => {
                    i.begin_run();
                    i
                }
                None => RouteInterner::new(),
            },
            snapshots: self.snapshots.take().unwrap_or_default(),
        }
    }

    /// Store a run's scratch bundle for reuse by the next run.
    pub fn put_parts(&mut self, parts: ScratchParts) {
        self.visited = Some(parts.visited);
        self.undo = Some(parts.undo);
        self.interner = Some(parts.interner);
        self.snapshots = Some(parts.snapshots);
    }

    /// A visited set matching `options`: the stored one (cleared) when its
    /// variant matches, otherwise a newly allocated one.
    pub fn take_visited(&mut self, options: &SearchOptions) -> VisitedSet {
        let stored = self.visited.take();
        match (options.bitstate_bits, stored) {
            (None, Some(mut v @ VisitedSet::Exact(_))) => {
                v.clear();
                self.reuses += 1;
                v
            }
            (Some(bits), Some(mut v))
                if v.bitstate_bits() == Some(crate::visited::BloomFilter::rounded_bits(bits)) =>
            {
                v.clear();
                self.reuses += 1;
                v
            }
            (None, _) => VisitedSet::exact(),
            (Some(bits), _) => VisitedSet::bitstate(bits),
        }
    }

    /// Store a run's visited set for reuse by the next run.
    pub fn put_visited(&mut self, visited: VisitedSet) {
        self.visited = Some(visited);
    }

    /// The stored undo stack (cleared), or a fresh one. Unlike the visited
    /// set there is no variant to match: the stack is always reusable.
    pub fn take_undo(&mut self) -> UndoStack {
        match self.undo.take() {
            Some(mut undo) => {
                undo.clear();
                undo
            }
            None => UndoStack::new(),
        }
    }

    /// Store a run's undo stack for reuse by the next run.
    pub fn put_undo(&mut self, undo: UndoStack) {
        self.undo = Some(undo);
    }

    /// How many runs reused a previous allocation.
    pub fn reuse_count(&self) -> u64 {
        self.reuses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visited::state_hash;
    use plankton_protocols::RouteHandle;

    #[test]
    fn exact_set_is_reused_and_cleared() {
        let mut scratch = SearchScratch::new();
        let options = SearchOptions::all_optimizations();
        let int = RouteInterner::new();
        let mut v = scratch.take_visited(&options);
        let state = [RouteHandle(1), RouteHandle(2)];
        assert!(v.insert(&state, state_hash(&state), &int));
        scratch.put_visited(v);

        let v2 = scratch.take_visited(&options);
        assert!(v2.is_empty(), "reused set must be cleared");
        assert_eq!(scratch.reuse_count(), 1);
    }

    #[test]
    fn undo_stack_round_trips() {
        let mut scratch = SearchScratch::new();
        let undo = scratch.take_undo();
        assert_eq!(undo.depth(), 0);
        scratch.put_undo(undo);
        let undo = scratch.take_undo();
        assert_eq!(undo.depth(), 0, "reused stack must come back cleared");
    }

    #[test]
    fn variant_mismatch_allocates_fresh() {
        let mut scratch = SearchScratch::new();
        let exact = SearchOptions::all_optimizations();
        let bitstate = SearchOptions::all_optimizations().with_bitstate(1 << 14);

        let v = scratch.take_visited(&exact);
        scratch.put_visited(v);
        let v = scratch.take_visited(&bitstate);
        assert!(v.bitstate_bits().is_some());
        scratch.put_visited(v);
        let v = scratch.take_visited(&bitstate);
        assert_eq!(v.bitstate_bits(), Some(1 << 14));
        assert_eq!(scratch.reuse_count(), 1);
    }

    #[test]
    fn parts_round_trip_cleared_with_warm_interner() {
        let mut scratch = SearchScratch::new();
        let options = SearchOptions::all_optimizations();
        let mut parts = scratch.take_parts(&options);
        let route = plankton_protocols::Route::originated(plankton_net::ip::Prefix::DEFAULT);
        let h = parts.interner.intern(&route);
        assert!(parts
            .visited
            .insert(&[h], state_hash(&[h]), &parts.interner));
        scratch.put_parts(parts);
        let mut parts = scratch.take_parts(&options);
        assert!(parts.visited.is_empty(), "visited must come back cleared");
        assert_eq!(parts.undo.depth(), 0);
        // The interner stays warm: the route is still in the table, with the
        // same handle, but the new run's stats start from zero.
        assert_eq!(parts.interner.len(), 1);
        assert_eq!(parts.interner.run_interned(), 0);
        assert_eq!(parts.interner.intern(&route), h, "handles stay stable");
        assert_eq!(parts.interner.run_interned(), 1);
    }
}
