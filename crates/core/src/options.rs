//! Verifier-level options: parallelism, failure-pruning and the optimization
//! toggles forwarded to the model checker.

use plankton_checker::SearchOptions;
use plankton_net::ip::Prefix;
use std::time::{Duration, Instant};

/// Options controlling a whole verification (all PECs, all failure sets).
#[derive(Clone, Debug)]
pub struct PlanktonOptions {
    /// Number of PEC verifications run concurrently (the paper's "cores").
    pub parallelism: usize,
    /// Use the pre-incremental clone-based explorer
    /// ([`plankton_checker::ReferenceChecker`]) instead of the incremental
    /// one. Kept for differential testing: both explorers must produce
    /// identical reports (modulo the incremental-only stats counters).
    pub reference_explorer: bool,
    /// §4.3 — prune the choice of failed links using link equivalence
    /// classes (only applied when there are no cross-PEC dependencies).
    pub lec_failure_pruning: bool,
    /// Stop the whole verification at the first policy violation (the common
    /// mode: one counterexample is enough).
    pub stop_at_first_violation: bool,
    /// Restrict verification to the PECs overlapping these prefixes (plus
    /// their dependencies). `None` verifies every active PEC.
    pub restrict_to_prefixes: Option<Vec<Prefix>>,
    /// §3.5 — suppress policy checks on converged states that are equivalent
    /// from the policy's point of view (same source path lengths, same
    /// interesting-node positions).
    pub equivalence_suppression: bool,
    /// Optimization toggles forwarded to every model-checking run.
    pub search: SearchOptions,
    /// Abandon the run once this instant passes: remaining tasks drain via
    /// the early-stop broadcast and the report is marked
    /// `deadline_exceeded`. `None` (the default) never times out.
    pub deadline: Option<Instant>,
    /// Emit a `slow_task` warn event for any per-(PEC × failure-set) task
    /// that takes at least this long, in microseconds (`planktond
    /// --slow-task-ms`). Observability-only: never part of the cache key.
    pub slow_task_micros: u64,
}

/// Default [`PlanktonOptions::slow_task_micros`]: 250 ms.
pub const DEFAULT_SLOW_TASK_MICROS: u64 = 250_000;

impl Default for PlanktonOptions {
    fn default() -> Self {
        PlanktonOptions {
            parallelism: 1,
            reference_explorer: false,
            lec_failure_pruning: true,
            stop_at_first_violation: true,
            restrict_to_prefixes: None,
            equivalence_suppression: true,
            search: SearchOptions::all_optimizations(),
            deadline: None,
            slow_task_micros: DEFAULT_SLOW_TASK_MICROS,
        }
    }
}

impl PlanktonOptions {
    /// Default options with the given degree of parallelism.
    pub fn with_cores(cores: usize) -> Self {
        PlanktonOptions {
            parallelism: cores.max(1),
            ..Default::default()
        }
    }

    /// Every optimization disabled (Figure 8's "None" configuration).
    pub fn no_optimizations() -> Self {
        PlanktonOptions {
            parallelism: 1,
            reference_explorer: false,
            lec_failure_pruning: false,
            stop_at_first_violation: true,
            restrict_to_prefixes: None,
            equivalence_suppression: false,
            search: SearchOptions::no_optimizations(),
            deadline: None,
            slow_task_micros: DEFAULT_SLOW_TASK_MICROS,
        }
    }

    /// Use the pre-incremental reference explorer, builder-style
    /// (differential testing against the incremental explorer).
    pub fn with_reference_explorer(mut self) -> Self {
        self.reference_explorer = true;
        self
    }

    /// Restrict verification to the given destination prefixes, builder-style.
    pub fn restricted_to(mut self, prefixes: Vec<Prefix>) -> Self {
        self.restrict_to_prefixes = Some(prefixes);
        self
    }

    /// Keep exploring after violations (collect all of them), builder-style.
    pub fn collect_all_violations(mut self) -> Self {
        self.stop_at_first_violation = false;
        self
    }

    /// Disable link-equivalence failure pruning, builder-style.
    pub fn without_lec_pruning(mut self) -> Self {
        self.lec_failure_pruning = false;
        self
    }

    /// Replace the search options, builder-style.
    pub fn with_search(mut self, search: SearchOptions) -> Self {
        self.search = search;
        self
    }

    /// Give the run a deadline `budget` from now, builder-style.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// A fingerprint of every option that can change a verification task's
    /// *outcome* (violations, stats, records) — part of the result-cache
    /// key. Scheduling-only knobs (`parallelism`, `deadline`)
    /// and observability-only knobs (`slow_task_micros`) are excluded: they
    /// change who runs a task (or whether it runs at all —
    /// deadline-skipped tasks are never cached) or what gets logged, never
    /// what the task computes.
    pub fn cache_fingerprint(&self) -> u64 {
        let mut fp = plankton_config::Fingerprinter::new();
        fp.write_u8(b'o');
        fp.write_u8(self.reference_explorer as u8);
        fp.write_u8(self.lec_failure_pruning as u8);
        fp.write_u8(self.stop_at_first_violation as u8);
        fp.write_u8(self.equivalence_suppression as u8);
        match &self.restrict_to_prefixes {
            Some(prefixes) => fp.write(prefixes),
            None => fp.write_u8(0xff),
        }
        let s = &self.search;
        fp.write_u8(s.consistent_executions as u8);
        fp.write_u8(s.deterministic_nodes as u8);
        fp.write_u8(s.decision_independence as u8);
        fp.write_u8(s.policy_pruning as u8);
        fp.write_u8(s.influence_pruning as u8);
        match &s.source_nodes {
            Some(nodes) => fp.write(nodes),
            None => fp.write_u8(0xfe),
        }
        fp.write_u64(s.bitstate_bits.map(|b| b as u64).unwrap_or(u64::MAX));
        fp.write_u64(s.max_steps);
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = PlanktonOptions::default();
        assert_eq!(o.parallelism, 1);
        assert!(o.lec_failure_pruning);
        assert!(o.stop_at_first_violation);
        assert!(o.search.deterministic_nodes);
    }

    #[test]
    fn builders() {
        let o = PlanktonOptions::with_cores(8)
            .restricted_to(vec!["10.0.0.0/24".parse().unwrap()])
            .collect_all_violations()
            .without_lec_pruning();
        assert_eq!(o.parallelism, 8);
        assert!(!o.stop_at_first_violation);
        assert!(!o.lec_failure_pruning);
        assert_eq!(o.restrict_to_prefixes.as_ref().unwrap().len(), 1);
        let n = PlanktonOptions::no_optimizations();
        assert!(!n.search.consistent_executions);
        assert!(!n.equivalence_suppression);
    }
}
