//! Search statistics reported by the model checker, used by the evaluation
//! harness for the state-space-reduction and memory numbers of Figures 8
//! and 9.

use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Counters describing one model-checking run (or, summed, a whole
/// verification).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// RPVP steps applied (transitions explored).
    pub steps: u64,
    /// States at which the search branched non-deterministically.
    pub branch_points: u64,
    /// Total branches explored from those points.
    pub branches: u64,
    /// Executions abandoned by consistent-execution pruning.
    pub pruned_inconsistent: u64,
    /// Executions cut short by policy-based pruning (all sources decided).
    pub pruned_by_policy: u64,
    /// Branches skipped because the state had already been visited.
    pub pruned_visited: u64,
    /// Converged states emitted to the policy callback.
    pub converged_states: u64,
    /// Steps taken through the deterministic-node fast path.
    pub deterministic_steps: u64,
    /// Enabled-set entries the delta-maintained enabled set re-derived *in
    /// full*, from every peer's advertisement (the pre-incremental explorer
    /// did that for every node at every step, so `steps × node_count` is the
    /// figure this improves on). Single-edge patches of a reverse peer's
    /// entry are not counted here, and neither is dropping the stepped
    /// node's own entry after it adopted one of its maximal updates (no
    /// re-derivation happens); the process metrics report those as
    /// `plankton_enabled_edge_updates_total` and
    /// `plankton_enabled_stepped_skips_total`. An initialization counts the
    /// entries it derives: only those that can be non-empty (the origins'
    /// listeners).
    #[serde(default)]
    pub enabled_recomputed_nodes: u64,
    /// Deepest apply/undo stack reached by the in-place DFS (the number of
    /// live step records replacing what used to be full state clones).
    #[serde(default)]
    pub undo_depth_max: u64,
    /// Maximum DFS depth reached.
    pub max_depth: u64,
    /// Distinct routes interned (state-hashing table size).
    pub interned_routes: u64,
    /// Distinct states recorded in the visited set.
    pub visited_states: u64,
    /// Approximate memory of interner + visited set, in bytes. Summed like
    /// the other counters, so for a whole verification (and the report's
    /// "~N MiB") this is the total over every model-checking run, not a
    /// peak: the runs of one worker reuse one set of allocations.
    pub approx_memory_bytes: u64,
    /// Whether the search hit its step limit before finishing.
    pub truncated: bool,
}

impl SearchStats {
    /// Total states touched (steps + the initial state).
    pub fn states_explored(&self) -> u64 {
        self.steps + 1
    }

    /// Approximate memory in mebibytes, for reporting (a sum over runs; see
    /// [`SearchStats::approx_memory_bytes`]).
    pub fn approx_memory_mib(&self) -> f64 {
        self.approx_memory_bytes as f64 / (1024.0 * 1024.0)
    }

    /// The stats with the incremental-explorer observability counters
    /// zeroed. The reference (pre-change) explorer has no delta maintenance
    /// or undo stack, so differential tests compare through this view.
    pub fn without_incremental_counters(mut self) -> Self {
        self.enabled_recomputed_nodes = 0;
        self.undo_depth_max = 0;
        self
    }
}

impl AddAssign for SearchStats {
    fn add_assign(&mut self, rhs: SearchStats) {
        self.steps += rhs.steps;
        self.branch_points += rhs.branch_points;
        self.branches += rhs.branches;
        self.pruned_inconsistent += rhs.pruned_inconsistent;
        self.pruned_by_policy += rhs.pruned_by_policy;
        self.pruned_visited += rhs.pruned_visited;
        self.converged_states += rhs.converged_states;
        self.deterministic_steps += rhs.deterministic_steps;
        self.enabled_recomputed_nodes += rhs.enabled_recomputed_nodes;
        self.undo_depth_max = self.undo_depth_max.max(rhs.undo_depth_max);
        self.max_depth = self.max_depth.max(rhs.max_depth);
        self.interned_routes += rhs.interned_routes;
        self.visited_states += rhs.visited_states;
        self.approx_memory_bytes += rhs.approx_memory_bytes;
        self.truncated |= rhs.truncated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation() {
        let mut a = SearchStats {
            steps: 10,
            max_depth: 5,
            converged_states: 1,
            ..Default::default()
        };
        let b = SearchStats {
            steps: 7,
            max_depth: 9,
            converged_states: 2,
            truncated: true,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.steps, 17);
        assert_eq!(a.max_depth, 9);
        assert_eq!(a.converged_states, 3);
        assert!(a.truncated);
        assert_eq!(a.states_explored(), 18);
    }

    #[test]
    fn memory_reporting() {
        let s = SearchStats {
            approx_memory_bytes: 3 * 1024 * 1024,
            ..Default::default()
        };
        assert!((s.approx_memory_mib() - 3.0).abs() < 1e-9);
    }
}
