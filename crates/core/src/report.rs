//! Verification results and counterexamples.

use plankton_checker::{SearchStats, Trail};
use plankton_engine::EngineStats;
use plankton_net::failure::FailureSet;
use plankton_net::ip::Prefix;
use plankton_pec::PecId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// One policy violation: the PEC and prefix it was found on, the failure
/// scenario, the offending execution trail and the policy's reason.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Violation {
    /// The PEC whose converged data plane violated the policy.
    pub pec: PecId,
    /// The most specific prefix of that PEC.
    pub prefix: Option<Prefix>,
    /// The links that were failed before protocol execution.
    pub failures: FailureSet,
    /// The execution trail that produced the violating converged state.
    pub trail: Trail,
    /// The policy's explanation.
    pub reason: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "violation on {}{} under {}: {}",
            self.pec,
            self.prefix.map(|p| format!(" ({p})")).unwrap_or_default(),
            self.failures,
            self.reason
        )
    }
}

/// Where a verification's wall time went, one microsecond bucket per phase.
///
/// Filled by measuring contiguous laps of one clock, so the phases sum to
/// (within scheduling noise of) the report's `elapsed` — "why was this
/// verify slow?" is answerable from the report alone. Every report carries
/// every lap: a one-shot [`Plankton::verify`](crate::Plankton::verify) runs
/// over a private empty cache, so it too derives keys (`key_compute`),
/// plans against the cache (`invalidation`, all misses) and folds cached
/// outcomes (`cache_io`, none).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Planning the run environment (failure sets, needed/checked PEC sets)
    /// and computing content-addressed task keys (device/PEC fingerprints,
    /// dependency-closure hashing).
    pub key_compute_micros: u64,
    /// Deciding which tasks to re-run: cache lookups and hit/miss
    /// accounting over the task list.
    pub invalidation_micros: u64,
    /// Model checking: the engine run over every re-run task.
    pub exploration_micros: u64,
    /// Folding per-task outcomes into the final report (violation sort,
    /// stat aggregation).
    pub merge_micros: u64,
    /// Replaying cached outcomes into the run.
    pub cache_io_micros: u64,
}

impl PhaseTimings {
    /// Total across all phases.
    pub fn sum_micros(&self) -> u64 {
        self.key_compute_micros
            + self.invalidation_micros
            + self.exploration_micros
            + self.merge_micros
            + self.cache_io_micros
    }
}

impl fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "keys {}us, invalidation {}us, exploration {}us, merge {}us, cache io {}us",
            self.key_compute_micros,
            self.invalidation_micros,
            self.exploration_micros,
            self.merge_micros,
            self.cache_io_micros
        )
    }
}

/// The result of a whole verification.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct VerificationReport {
    /// The policy name that was checked.
    pub policy: String,
    /// Violations found (empty = the policy holds under the environment).
    pub violations: Vec<Violation>,
    /// Aggregated model-checking statistics across every run.
    pub stats: SearchStats,
    /// Number of PECs that were verified.
    pub pecs_verified: usize,
    /// Number of failure scenarios explored per PEC (after pruning).
    pub failure_sets_explored: usize,
    /// Number of combined converged data planes on which the policy was
    /// evaluated.
    pub data_planes_checked: u64,
    /// Wall-clock time of the verification.
    #[serde(skip)]
    pub elapsed: Duration,
    /// Per-phase breakdown of `elapsed`. Skipped in serialization for the
    /// same reason `elapsed` is: timings are execution-path-dependent and
    /// must not perturb `normalized_json` identity checks. The wire protocol
    /// carries them explicitly in its report summary.
    #[serde(skip)]
    pub phases: PhaseTimings,
    /// Size of the largest strongly connected component of the PEC
    /// dependency graph.
    pub largest_scc: usize,
    /// What the engine's worker pool did. Every verification sets it;
    /// [`VerificationReport::normalized_json`] clears it.
    pub engine: Option<EngineStats>,
    /// Did the run abandon work because [`PlanktonOptions::deadline`]
    /// passed? A deadline-exceeded report is *incomplete* — unexplored
    /// tasks drained as skipped — so callers must not treat `holds()` as a
    /// verification verdict. Skipped in serialization like `elapsed`:
    /// whether a deadline fired is execution-path-dependent and must not
    /// perturb `normalized_json` identity checks (the service refuses to
    /// serve such reports as results anyway).
    ///
    /// [`PlanktonOptions::deadline`]: crate::options::PlanktonOptions::deadline
    #[serde(skip)]
    pub deadline_exceeded: bool,
}

impl VerificationReport {
    /// Did the policy hold everywhere?
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violation, if any.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// Canonical JSON of the report with execution-path-dependent fields
    /// nulled (engine pool statistics; `elapsed` is already skipped by
    /// serde). Two runs computed the same verification result iff their
    /// normalized JSON is equal — the single definition every
    /// incremental-vs-from-scratch identity check compares through.
    pub fn normalized_json(&self) -> String {
        let mut r = self.clone();
        r.engine = None;
        serde_json::to_string(&r).expect("reports always serialize")
    }

    /// A one-line summary suitable for experiment logs. The trailing
    /// "~N MiB" is [`SearchStats::approx_memory_bytes`] summed over every
    /// model-checking run of the verification, not the process's peak.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} ({} PECs, {} failure sets, {} data planes, {} states, {:.3}s, ~{:.1} MiB)",
            self.policy,
            if self.holds() { "HOLDS" } else { "VIOLATED" },
            self.pecs_verified,
            self.failure_sets_explored,
            self.data_planes_checked,
            self.stats.states_explored(),
            self.elapsed.as_secs_f64(),
            self.stats.approx_memory_mib(),
        )
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        if let Some(engine) = &self.engine {
            writeln!(f, "  engine: {engine}")?;
        }
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_summary_and_holds() {
        let mut r = VerificationReport {
            policy: "reachability".into(),
            ..Default::default()
        };
        assert!(r.holds());
        assert!(r.summary().contains("HOLDS"));
        r.violations.push(Violation {
            pec: PecId(1),
            prefix: Some("10.0.0.0/24".parse().unwrap()),
            failures: FailureSet::none(),
            trail: Trail::default(),
            reason: "unreachable".into(),
        });
        assert!(!r.holds());
        assert!(r.summary().contains("VIOLATED"));
        assert!(r
            .first_violation()
            .unwrap()
            .to_string()
            .contains("unreachable"));
        assert!(r.to_string().contains("pec1"));
    }
}
