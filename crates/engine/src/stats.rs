//! Engine execution statistics.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One contained task panic: the pool caught it, broadcast early stop, and
/// drained instead of crashing the process. Carried in [`EngineStats`] so
/// the verifier (and ultimately the service) can answer the request with a
/// structured error while the daemon keeps serving.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskFailure {
    /// Index of the panicked task in the run's task graph.
    pub task: usize,
    /// The panic payload, when it was a string (the common `panic!` case).
    pub message: String,
}

/// A snapshot of what the worker pool did during one engine run, surfaced in
/// the verification report.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Number of workers in the pool.
    pub workers: usize,
    /// Total tasks in the graph (components × failure scenarios).
    pub tasks_total: usize,
    /// Tasks whose work actually ran.
    pub tasks_executed: u64,
    /// Tasks a worker took from another worker's deque.
    pub tasks_stolen: u64,
    /// Tasks drained without running because the early-stop broadcast fired
    /// first.
    pub tasks_skipped: u64,
    /// Tasks not yet completed when the snapshot was taken (0 after a full
    /// run).
    pub tasks_pending: usize,
    /// Model-checking runs that reused a previous run's visited-set
    /// allocation through the per-worker scratch.
    pub scratch_reuses: u64,
    /// Distinct control-plane routes across the converged records the run
    /// built for dependent PECs (filled in by the verifier; 0 when no
    /// verified PEC has dependents).
    pub interned_routes: u64,
    /// Total states explored across every model-checking run (filled in by
    /// the verifier, which owns the search statistics).
    pub states_explored: u64,
    /// Wall-clock time of the engine run, in microseconds.
    pub wall_micros: u64,
    /// High-water mark of runnable tasks queued across all workers at once
    /// (how much parallelism the graph actually exposed).
    #[serde(default)]
    pub queue_depth_max: usize,
    /// Total time workers spent executing task closures, in microseconds,
    /// summed across workers (the rest of `workers × wall` was stealing,
    /// sleeping, or draining).
    #[serde(default)]
    pub busy_micros: u64,
    /// Tasks whose closure panicked; each is caught, recorded in
    /// [`failures`](Self::failures), and triggers the early-stop drain.
    #[serde(default)]
    pub tasks_panicked: u64,
    /// Structured details of every contained panic, ordered by task index.
    #[serde(default)]
    pub failures: Vec<TaskFailure>,
}

impl EngineStats {
    /// Wall-clock seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_micros as f64 / 1e6
    }

    /// Did the early-stop broadcast fire?
    pub fn stopped_early(&self) -> bool {
        self.tasks_skipped > 0
    }

    /// Fraction of total worker time spent inside task closures, in 0..=1
    /// (1.0 means every worker was busy for the whole run).
    pub fn utilization(&self) -> f64 {
        let capacity = (self.workers as u64).saturating_mul(self.wall_micros);
        if capacity == 0 {
            return 0.0;
        }
        (self.busy_micros as f64 / capacity as f64).min(1.0)
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} workers, {}/{} tasks run ({} stolen, {} skipped, {} panicked), \
             {} scratch reuses, {} interned routes, {:.3}s, \
             {:.0}% utilization (queue depth max {})",
            self.workers,
            self.tasks_executed,
            self.tasks_total,
            self.tasks_stolen,
            self.tasks_skipped,
            self.tasks_panicked,
            self.scratch_reuses,
            self.interned_routes,
            self.wall_seconds(),
            self.utilization() * 100.0,
            self.queue_depth_max,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_helpers() {
        let stats = EngineStats {
            workers: 4,
            tasks_total: 10,
            tasks_executed: 7,
            tasks_stolen: 2,
            tasks_skipped: 3,
            tasks_pending: 0,
            scratch_reuses: 5,
            interned_routes: 11,
            states_explored: 100,
            wall_micros: 2_500_000,
            queue_depth_max: 6,
            busy_micros: 5_000_000,
            tasks_panicked: 1,
            failures: vec![TaskFailure {
                task: 4,
                message: "boom".into(),
            }],
        };
        assert!(stats.stopped_early());
        assert_eq!(stats.wall_seconds(), 2.5);
        // 5s busy over 4 workers × 2.5s wall = 50%.
        assert_eq!(stats.utilization(), 0.5);
        assert_eq!(EngineStats::default().utilization(), 0.0);
        let s = stats.to_string();
        assert!(s.contains("4 workers"));
        assert!(s.contains("7/10 tasks"));
        assert!(s.contains("50% utilization"));
        assert!(s.contains("queue depth max 6"));
    }
}
