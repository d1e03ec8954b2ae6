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
    /// Upper bound on the number of combined data planes built per PEC and
    /// failure scenario (cross product of per-prefix converged states).
    pub max_data_planes_per_pec: usize,
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
            max_data_planes_per_pec: 512,
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
            max_data_planes_per_pec: 512,
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

    /// Warn about tasks slower than `threshold`, builder-style.
    pub fn with_slow_task_threshold(mut self, threshold: Duration) -> Self {
        self.slow_task_micros = threshold.as_micros() as u64;
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
        fp.write_u64(self.max_data_planes_per_pec as u64);
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
        fp.write_u64(s.max_converged_states.map(|b| b as u64).unwrap_or(u64::MAX));
        fp.write_u64(s.max_steps);
        fp.finish()
    }
}

/// Default [`Tuning::max_lag_deltas`]: drain the streaming queue once this
/// many deltas are pending.
pub const DEFAULT_MAX_LAG_DELTAS: u64 = 64;
/// Default [`Tuning::max_lag_ms`]: drain the streaming queue once the oldest
/// pending delta is this old, even below the delta-count threshold.
pub const DEFAULT_MAX_LAG_MS: u64 = 50;
/// Default [`Tuning::max_pending_deltas`]: queue high-water mark above which
/// further deltas are shed with `overloaded + retry_after_ms`.
pub const DEFAULT_MAX_PENDING_DELTAS: u64 = 4096;

/// The one tuning surface shared by requests, CLI flags and defaults.
///
/// Every knob that used to live on an ad-hoc builder (`--slow-task-ms`,
/// `--max-inflight`, per-request `cores`/`deadline_ms`) plus the streaming-lag
/// knobs lives here as an `Option`: `None` means "no opinion at this layer".
/// Layers compose with [`Tuning::overlaid_on`] under a single precedence
/// order: **request > CLI > default**. Verify-scoped knobs (`cores`,
/// `deadline_ms`, `slow_task_ms`) are honored per request; daemon-scoped
/// knobs (`max_inflight`, lag and queue bounds) have no per-request reading
/// and are resolved once at the CLI layer.
///
/// Applying a `Tuning` can never change a result-cache key:
/// [`Tuning::apply_to`] only writes [`PlanktonOptions`] fields excluded from
/// [`PlanktonOptions::cache_fingerprint`] (`parallelism`, `deadline`,
/// `slow_task_micros`).
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Tuning {
    /// Degree of parallelism for a verification ([`PlanktonOptions::parallelism`]).
    #[serde(default)]
    pub cores: Option<u64>,
    /// Per-verification deadline in milliseconds ([`PlanktonOptions::deadline`]).
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Slow-task warn threshold in milliseconds (`planktond --slow-task-ms`).
    #[serde(default)]
    pub slow_task_ms: Option<u64>,
    /// Bound on concurrently running verifies (`planktond --max-inflight`).
    #[serde(default)]
    pub max_inflight: Option<u64>,
    /// Streaming: drain once this many deltas are pending (`--max-lag-deltas`).
    #[serde(default)]
    pub max_lag_deltas: Option<u64>,
    /// Streaming: drain once the oldest pending delta is this old (`--max-lag-ms`).
    #[serde(default)]
    pub max_lag_ms: Option<u64>,
    /// Streaming: queue high-water mark before shedding (`--max-pending-deltas`).
    #[serde(default)]
    pub max_pending_deltas: Option<u64>,
}

impl Tuning {
    /// `true` when no layer has expressed any opinion.
    pub fn is_empty(&self) -> bool {
        *self == Tuning::default()
    }

    /// Compose two layers: every knob set in `self` wins, every knob left
    /// `None` falls through to `base`. `request.overlaid_on(&cli)` is the
    /// documented request > CLI > default order.
    pub fn overlaid_on(&self, base: &Tuning) -> Tuning {
        Tuning {
            cores: self.cores.or(base.cores),
            deadline_ms: self.deadline_ms.or(base.deadline_ms),
            slow_task_ms: self.slow_task_ms.or(base.slow_task_ms),
            max_inflight: self.max_inflight.or(base.max_inflight),
            max_lag_deltas: self.max_lag_deltas.or(base.max_lag_deltas),
            max_lag_ms: self.max_lag_ms.or(base.max_lag_ms),
            max_pending_deltas: self.max_pending_deltas.or(base.max_pending_deltas),
        }
    }

    /// Write the verify-scoped knobs into `options`. Only touches fields
    /// excluded from the cache fingerprint, so a tuned and an untuned run
    /// share cached results.
    pub fn apply_to(&self, options: &mut PlanktonOptions) {
        if let Some(cores) = self.cores {
            options.parallelism = (cores as usize).max(1);
        }
        if let Some(ms) = self.deadline_ms {
            options.deadline = Some(Instant::now() + Duration::from_millis(ms));
        }
        if let Some(ms) = self.slow_task_ms {
            options.slow_task_micros = ms.saturating_mul(1_000);
        }
    }

    /// [`Tuning::max_lag_deltas`] or its default.
    pub fn effective_max_lag_deltas(&self) -> u64 {
        self.max_lag_deltas.unwrap_or(DEFAULT_MAX_LAG_DELTAS)
    }

    /// [`Tuning::max_lag_ms`] or its default.
    pub fn effective_max_lag_ms(&self) -> u64 {
        self.max_lag_ms.unwrap_or(DEFAULT_MAX_LAG_MS)
    }

    /// [`Tuning::max_pending_deltas`] or its default.
    pub fn effective_max_pending_deltas(&self) -> u64 {
        self.max_pending_deltas
            .unwrap_or(DEFAULT_MAX_PENDING_DELTAS)
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

    #[test]
    fn slow_task_threshold_is_not_part_of_the_cache_key() {
        let a = PlanktonOptions::default();
        let b = PlanktonOptions::default().with_slow_task_threshold(Duration::from_millis(1));
        assert_eq!(a.slow_task_micros, DEFAULT_SLOW_TASK_MICROS);
        assert_eq!(b.slow_task_micros, 1_000);
        assert_eq!(a.cache_fingerprint(), b.cache_fingerprint());
    }

    #[test]
    fn tuning_precedence_is_request_over_cli_over_default() {
        let cli = Tuning {
            cores: Some(2),
            slow_task_ms: Some(10),
            max_lag_deltas: Some(128),
            ..Default::default()
        };
        let request = Tuning {
            cores: Some(8),
            deadline_ms: Some(500),
            ..Default::default()
        };
        let effective = request.overlaid_on(&cli);
        assert_eq!(effective.cores, Some(8)); // request wins
        assert_eq!(effective.slow_task_ms, Some(10)); // CLI fills the gap
        assert_eq!(effective.deadline_ms, Some(500));
        assert_eq!(effective.max_lag_deltas, Some(128));
        assert_eq!(effective.max_lag_ms, None); // default layer
        assert_eq!(effective.effective_max_lag_ms(), DEFAULT_MAX_LAG_MS);
    }

    #[test]
    fn tuning_never_changes_the_cache_fingerprint() {
        let tuning = Tuning {
            cores: Some(16),
            deadline_ms: Some(1),
            slow_task_ms: Some(1),
            max_inflight: Some(1),
            max_lag_deltas: Some(1),
            max_lag_ms: Some(1),
            max_pending_deltas: Some(1),
        };
        let plain = PlanktonOptions::default();
        let mut tuned = PlanktonOptions::default();
        tuning.apply_to(&mut tuned);
        assert_eq!(tuned.parallelism, 16);
        assert!(tuned.deadline.is_some());
        assert_eq!(tuned.slow_task_micros, 1_000);
        assert_eq!(plain.cache_fingerprint(), tuned.cache_fingerprint());
    }

    #[test]
    fn tuning_round_trips_through_serde_and_tolerates_missing_fields() {
        let t = Tuning {
            max_lag_deltas: Some(32),
            ..Default::default()
        };
        let json = serde_json::to_string(&t).unwrap();
        let back: Tuning = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        let empty: Tuning = serde_json::from_str("{}").unwrap();
        assert!(empty.is_empty());
    }
}
