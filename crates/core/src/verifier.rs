//! The top-level Plankton verifier (Figure 3 of the paper).
//!
//! There is one execution path. The cross product of PEC dependency
//! components and failure scenarios becomes a task graph driven by
//! `plankton_engine`: a component's tasks are released the moment its
//! dependencies' outcomes land, independent components never wait on each
//! other, and the whole pool drains early on the first violation. Every
//! task is identified by a content key and its outcome goes through a
//! [`ResultCache`] ([`Plankton::verify_with_cache`]); a one-shot
//! [`Plankton::verify`] is that path over a private, empty cache. This
//! module holds what the path is made of: the run context, the
//! per-(component × failure-scenario) work routine and the dependency
//! underlay.
//!
//! Violations are sorted before the report is assembled, so with
//! [`PlanktonOptions::collect_all_violations`] reports are identical
//! regardless of worker count and interleaving (the engine at one worker is
//! the sequential oracle the tests compare against). Under the default
//! stop-at-first-violation semantics only `holds()` is deterministic: which
//! violation lands first — and how much work the fleet did before the stop
//! broadcast reached it — depends on scheduling.

use crate::cache::{PolicyOutcome, ResultCache};
use crate::failures::failure_sets_to_explore;
use crate::options::PlanktonOptions;
use crate::outcome::ConvergedRecord;
use crate::report::{VerificationReport, Violation};
use crate::session::{PecSession, PlaneStream};
use crate::underlay::DependencyUnderlay;
use parking_lot::Mutex;
use plankton_checker::SearchStats;
use plankton_config::Network;
use plankton_dataplane::{ForwardingGraph, WalkEnd};
use plankton_engine::WorkerContext;
use plankton_net::failure::{FailureScenario, FailureSet};
use plankton_net::topology::NodeId;
use plankton_pec::{compute_pecs, Pec, PecDependencies, PecId, PecSet};
use plankton_policy::{ConvergedView, Policy};
use plankton_telemetry::trace::{self, Field, Level};
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cheap stable fingerprint of a failure set, used (with the PEC id) as
/// the task identity in the cost-attribution registry. FNV-1a over the
/// canonical sorted link ids, so equal sets key identically across runs.
pub(crate) fn failure_set_fingerprint(failures: &FailureSet) -> u64 {
    let mut fp = plankton_config::Fingerprinter::new();
    for link in failures.links() {
        fp.write_u64(link.0 as u64);
    }
    fp.finish()
}

/// Attributes a panicking task to its (PEC × failure-set) identity. Armed
/// around the risky part of a task; a normal drop is a no-op, an unwinding
/// drop bumps the registry's `panics` counter before the panic escapes to
/// the engine's `catch_unwind`.
struct TaskPanicGuard<'a> {
    pec: u64,
    fhash: u64,
    failures: &'a FailureSet,
}

impl Drop for TaskPanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            plankton_telemetry::taskstats::global()
                .record_panic(self.pec, self.fhash, || self.failures.to_string());
        }
    }
}

/// The Plankton configuration verifier.
///
/// ```
/// use plankton_core::{Plankton, PlanktonOptions};
/// use plankton_policy::Reachability;
/// use plankton_net::failure::FailureScenario;
/// use plankton_config::scenarios::ring_ospf;
///
/// let scenario = ring_ospf(4);
/// let sources: Vec<_> = scenario.ring.routers[1..].to_vec();
/// let plankton = Plankton::new(scenario.network.clone());
/// let report = plankton.verify(
///     &Reachability::new(sources),
///     &FailureScenario::no_failures(),
///     &PlanktonOptions::default().restricted_to(vec![scenario.destination]),
/// );
/// assert!(report.holds());
/// ```
pub struct Plankton {
    network: Network,
    pecs: PecSet,
    deps: PecDependencies,
}

/// Shared state of one verification run, visible to every worker.
pub(crate) struct RunCtx<'a> {
    pub(crate) policy: &'a dyn Policy,
    pub(crate) options: &'a PlanktonOptions,
    pub(crate) interesting: Vec<NodeId>,
    pub(crate) failure_sets: Vec<FailureSet>,
    /// PECs that must be verified (restricted set plus transitive deps).
    pub(crate) needed: BTreeSet<PecId>,
    /// PECs whose policy verdict matters.
    pub(crate) checked: BTreeSet<PecId>,
    /// Component indices some needed PEC depends on.
    pub(crate) has_dependents: BTreeSet<usize>,
    pub(crate) violations: Mutex<Vec<Violation>>,
    pub(crate) total_stats: Mutex<SearchStats>,
    pub(crate) data_planes_checked: AtomicU64,
    pub(crate) stop: AtomicBool,
    /// Mirror of [`PlanktonOptions::deadline`], checked between tasks.
    pub(crate) deadline: Option<Instant>,
    /// Latched when the deadline fired; the report is marked incomplete.
    pub(crate) deadline_hit: AtomicBool,
    /// The request's trace id, captured on the submitting thread and
    /// re-installed inside worker closures so events emitted from the pool
    /// (`slow_task`, ...) join the request's causal chain.
    pub(crate) trace_id: u64,
}

impl<'a> RunCtx<'a> {
    /// Fold `pec`'s outcome under `failures` into the run-wide aggregates —
    /// fresh from a task or out of the cache alike. Violations are relabeled
    /// on the way: a cached outcome carries the PEC id of the partition it
    /// was computed in (ids shift when a delta repartitions the header
    /// space, content does not), and failure-invariant PECs share one
    /// outcome across failure sets. For an outcome computed by this run
    /// both are already right.
    pub(crate) fn absorb(&self, pec: PecId, failures: &FailureSet, outcome: &PolicyOutcome) {
        *self.total_stats.lock() += outcome.stats;
        if outcome.data_planes_checked > 0 {
            self.data_planes_checked
                .fetch_add(outcome.data_planes_checked, Ordering::Relaxed);
        }
        if !outcome.violations.is_empty() {
            let relabeled = outcome.violations.iter().map(|v| {
                let mut v = v.clone();
                v.pec = pec;
                v.failures = failures.clone();
                v.trail.failures = failures.clone();
                v
            });
            self.violations.lock().extend(relabeled);
        }
    }

    /// Has [`PlanktonOptions::deadline`] passed? When it has, latch
    /// `deadline_hit` and broadcast the early-stop drain: remaining work is
    /// skipped exactly like a stop-at-first-violation stop, so
    /// deadline-abandoned tasks produce incomplete (never-cached) results.
    /// Free when no deadline is set (one `Option` check).
    pub(crate) fn deadline_passed(&self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        if Instant::now() < deadline {
            return false;
        }
        self.deadline_hit.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
        true
    }
}

impl Plankton {
    /// Build the verifier: computes the PECs and the dependency graph.
    pub fn new(network: Network) -> Self {
        let pecs = compute_pecs(&network);
        let deps = PecDependencies::compute(&network, &pecs);
        Plankton {
            network,
            pecs,
            deps,
        }
    }

    /// The network under verification.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The computed Packet Equivalence Classes.
    pub fn pecs(&self) -> &PecSet {
        &self.pecs
    }

    /// The PEC dependency analysis.
    pub fn dependencies(&self) -> &PecDependencies {
        &self.deps
    }

    /// The PECs that must be verified to decide the policy, honoring
    /// `restrict_to_prefixes`: the restricted (or all active) PECs plus every
    /// PEC they transitively depend on.
    pub(crate) fn needed_pecs(&self, options: &PlanktonOptions) -> BTreeSet<PecId> {
        let primary: Vec<&Pec> = match &options.restrict_to_prefixes {
            Some(prefixes) => prefixes
                .iter()
                .flat_map(|p| self.pecs.pecs_overlapping(p))
                .collect(),
            None => self.pecs.active_pecs(),
        };
        let mut needed: BTreeSet<PecId> = primary.iter().map(|p| p.id).collect();
        for pec in primary {
            let comp = self.deps.component_of(pec.id);
            for dep in self.deps.transitive_dependencies(comp) {
                needed.insert(dep);
            }
        }
        needed
    }

    /// The PECs whose policy verdict matters (the needed set minus
    /// dependency-only PECs when a restriction is in place).
    pub(crate) fn checked_pecs(&self, options: &PlanktonOptions) -> BTreeSet<PecId> {
        match &options.restrict_to_prefixes {
            Some(prefixes) => prefixes
                .iter()
                .flat_map(|p| self.pecs.pecs_overlapping(p))
                .map(|p| p.id)
                .collect(),
            None => self.pecs.active_pecs().iter().map(|p| p.id).collect(),
        }
    }

    /// Build the shared run context of one verification request: the
    /// failure environment (policy-interesting nodes; §4.3 LEC pruning only
    /// without cross-PEC dependencies), the needed/checked PEC sets and the
    /// dependents map, plus fresh run-wide aggregates.
    pub(crate) fn prepare_run_ctx<'a>(
        &'a self,
        policy: &'a dyn Policy,
        scenario: &FailureScenario,
        options: &'a PlanktonOptions,
    ) -> RunCtx<'a> {
        let interesting = policy.interesting_nodes().unwrap_or_default();
        let has_cross_pec_deps = self.deps.graph.edge_count() > 0;
        let lec = options.lec_failure_pruning && !has_cross_pec_deps;
        let failure_sets = failure_sets_to_explore(&self.network, scenario, &interesting, lec);

        let needed = self.needed_pecs(options);
        let checked = self.checked_pecs(options);
        // A PEC has dependents when some other needed PEC depends on its
        // component.
        let mut has_dependents: BTreeSet<usize> = BTreeSet::new();
        for &pec in &needed {
            let comp = self.deps.component_of(pec);
            for &dep in &self.deps.component_deps[comp] {
                has_dependents.insert(dep);
            }
        }
        RunCtx {
            policy,
            options,
            interesting,
            failure_sets,
            needed,
            checked,
            has_dependents,
            violations: Mutex::new(Vec::new()),
            total_stats: Mutex::new(SearchStats::default()),
            data_planes_checked: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            deadline: options.deadline,
            deadline_hit: AtomicBool::new(false),
            trace_id: trace::current(),
        }
    }

    /// Verify `policy` under the failure environment `scenario`: the keyed
    /// path over a private, empty cache. Every key misses, so every needed
    /// task runs, and the policy fingerprint (which only has to tell the
    /// policies sharing a cache apart) can be any constant.
    pub fn verify(
        &self,
        policy: &dyn Policy,
        scenario: &FailureScenario,
        options: &PlanktonOptions,
    ) -> VerificationReport {
        self.verify_with_cache(policy, 0, scenario, options, &ResultCache::new())
            .0
    }

    /// Verify every PEC of one component under one failure set: the work of
    /// one engine task. Returns the outcome of every PEC that ran to
    /// completion — a PEC the early-stop broadcast (or the deadline) skipped
    /// has none, so partial results can never be cached. The *caller* folds
    /// the outcomes into the run aggregates ([`RunCtx::absorb`]), caches
    /// them under their content keys and publishes them to dependents.
    pub(crate) fn run_component_under_failures(
        &self,
        ctx: &RunCtx<'_>,
        component: &[PecId],
        failures: &FailureSet,
        lookup: &dyn Fn(PecId) -> Option<Arc<ConvergedRecord>>,
        worker: &WorkerContext<'_>,
    ) -> Vec<(PecId, Arc<PolicyOutcome>)> {
        let mut out = Vec::with_capacity(component.len());
        for &pec_id in component {
            // The stop flag latches, so the rest of the component is
            // skipped with this PEC.
            if ctx.stop.load(Ordering::Relaxed) || ctx.deadline_passed() {
                break;
            }
            let mut result = PolicyOutcome::default();
            let fhash = failure_set_fingerprint(failures);
            let _panic_attr = TaskPanicGuard {
                pec: pec_id.0 as u64,
                fhash,
                failures,
            };
            // Chaos hook: `task=panic@pec:<id>` models a bug in this PEC's
            // model-checking run. The engine contains the panic as a
            // structured `TaskFailure` (io_err has no meaning here).
            let _ = plankton_faultinject::trigger_keyed("task", "pec", pec_id.0 as u64);
            // Attribution is always on (like metrics), so the clock always
            // runs: one `Instant` read per PEC, nothing per step. The PEC's
            // time is a lap of the engine task's clock, so the per-PEC costs
            // and `plankton_task_seconds` add up to the same total.
            let pec = self.pecs.pec(pec_id);
            let comp_idx = self.deps.component_of(pec_id);
            let component_has_dependents = ctx.has_dependents.contains(&comp_idx);
            let component_has_dependencies = !self.deps.component_deps[comp_idx].is_empty();
            let should_check = ctx.checked.contains(&pec_id);

            let underlay = Arc::new(self.build_underlay_with(pec, lookup));
            let session = PecSession {
                network: &self.network,
                pec,
                failures,
                underlay,
                options: ctx.options,
                policy_sources: ctx.policy.sources(),
                has_dependents: component_has_dependents,
                has_dependencies: component_has_dependencies,
                scratch: Some(worker.scratch()),
            };
            // One pass per plane, as the explorer finds it: §3.5 signature,
            // dedupe, policy check; plus the record dependents read.
            let mut signatures = SignatureSet::new(
                ctx.policy.sources(),
                &ctx.interesting,
                self.network.node_count(),
            );
            let mut first_unsigned = false;
            let mut control_routes = Vec::new();
            let stream = session.stream_planes(&mut |plane| {
                if component_has_dependents {
                    result.records.push(Arc::new(session.record_of(plane)));
                }
                if !should_check {
                    return;
                }
                if ctx.options.equivalence_suppression {
                    // The first plane's signature is only needed once a
                    // second plane of this (PEC × failure set) arrives.
                    match plane.previous {
                        None => first_unsigned = true,
                        Some(previous) => {
                            if std::mem::take(&mut first_unsigned) {
                                signatures.insert(previous);
                            }
                            if !signatures.insert(plane.forwarding) {
                                return;
                            }
                        }
                    }
                }
                result.data_planes_checked += 1;
                plane.control_routes_into(&mut control_routes);
                let view = ConvergedView {
                    pec,
                    forwarding: plane.forwarding,
                    control_routes: &control_routes,
                };
                if let plankton_policy::PolicyResult::Violated(reason) = ctx.policy.check(&view) {
                    result.violations.push(Violation {
                        pec: pec_id,
                        prefix: pec.most_specific().map(|c| c.prefix),
                        failures: failures.clone(),
                        trail: plane.trail(),
                        reason,
                    });
                    if ctx.options.stop_at_first_violation {
                        ctx.stop.store(true, Ordering::Relaxed);
                    }
                }
            });
            result.stats = stream.stats;
            if stream.capped > 0 {
                record_capped(
                    pec_id,
                    failures,
                    &stream,
                    ctx.options.max_data_planes_per_pec,
                );
            }
            let elapsed = worker.lap_micros();
            let costs = plankton_telemetry::taskstats::global();
            costs.record_run(
                pec_id.0 as u64,
                fhash,
                elapsed,
                result.stats.states_explored(),
                || failures.to_string(),
            );
            if elapsed >= ctx.options.slow_task_micros && trace::enabled(Level::Warn) {
                let failures_text = failures.to_string();
                let (runs, total_us, max_us) = costs.totals(pec_id.0 as u64, fhash);
                trace::event(
                    Level::Warn,
                    "slow_task",
                    &[
                        Field::u64("pec", pec_id.0 as u64),
                        Field::str("failures", &failures_text),
                        Field::u64("elapsed_us", elapsed),
                        Field::u64("states", result.stats.states_explored()),
                        Field::u64("task_runs", runs),
                        Field::u64("task_total_us", total_us),
                        Field::u64("task_max_us", max_us),
                    ],
                );
            }
            out.push((pec_id, Arc::new(result)));
        }
        out
    }

    /// Assemble the dependency underlay for one PEC from the converged
    /// records of the PECs it depends on, resolved through `lookup` (which
    /// encapsulates both the store and the failure-set matching — §3.2:
    /// dependents only consume records computed under their own failure
    /// set).
    pub(crate) fn build_underlay_with(
        &self,
        pec: &Pec,
        lookup: &dyn Fn(PecId) -> Option<Arc<ConvergedRecord>>,
    ) -> DependencyUnderlay {
        let mut underlay = DependencyUnderlay::new();
        let comp = self.deps.component_of(pec.id);
        let dependency_pecs = self.deps.transitive_dependencies(comp);
        if dependency_pecs.is_empty() {
            return underlay;
        }
        // Loopback records: every node whose loopback falls into a dependency
        // PEC contributes IGP reachability information.
        for node in self.network.topology.nodes() {
            let Some(lb) = node.loopback else { continue };
            let Some(lb_pec) = self.pecs.pec_containing(lb) else {
                continue;
            };
            if !dependency_pecs.contains(&lb_pec.id) {
                continue;
            }
            // Cross-PEC dependencies in practice involve a single converged
            // state per dependency (§6).
            let Some(record) = lookup(lb_pec.id) else {
                continue;
            };
            underlay.add_loopback_record(node.id, &record);
        }
        // Recursive static-route targets.
        for addr in pec.recursive_next_hops() {
            let Some(target_pec) = self.pecs.pec_containing(addr) else {
                continue;
            };
            let Some(record) = lookup(target_pec.id) else {
                continue;
            };
            underlay.add_address_record(addr, &record);
        }
        underlay
    }
}

/// The counter of planes [`PlanktonOptions::max_data_planes_per_pec`] kept
/// from the policy (`plankton_data_planes_capped_total`).
pub fn data_planes_capped_counter() -> &'static Arc<plankton_telemetry::Counter> {
    static CAPPED: std::sync::OnceLock<Arc<plankton_telemetry::Counter>> =
        std::sync::OnceLock::new();
    CAPPED.get_or_init(|| {
        plankton_telemetry::metrics::global().counter(
            "plankton_data_planes_capped_total",
            "Converged data planes skipped because a (PEC x failure set) reached max_data_planes_per_pec.",
        )
    })
}

/// Account for planes the cap kept from the policy: a counter and a warn
/// event, so that reduced coverage is never silent.
fn record_capped(pec: PecId, failures: &FailureSet, stream: &PlaneStream, cap: usize) {
    data_planes_capped_counter().add(stream.capped);
    if trace::enabled(Level::Warn) {
        let failures_text = failures.to_string();
        trace::event(
            Level::Warn,
            "data_planes_capped",
            &[
                Field::u64("pec", pec.0 as u64),
                Field::str("failures", &failures_text),
                Field::u64("converged", stream.planes + stream.capped),
                Field::u64("cap", cap as u64),
            ],
        );
    }
}

/// The §3.5 policy-level equivalence signatures seen so far in one
/// (PEC × failure set). A plane's signature is, for every source, the length
/// of its forwarding path, whether it is delivered, and the positions of the
/// interesting nodes along it; data planes with equal signatures are
/// indistinguishable to the policy, so only one of them is checked.
struct SignatureSet<'a> {
    sources: Vec<NodeId>,
    interesting: &'a [NodeId],
    seen: HashSet<Vec<u32>>,
    /// The signature being computed, flattened: per source its path
    /// length, delivered flag, position count, then the positions.
    scratch: Vec<u32>,
    path: Vec<NodeId>,
    on_path: Vec<bool>,
}

impl<'a> SignatureSet<'a> {
    /// Signatures over the policy's `sources` (`None`: every node).
    fn new(sources: Option<Vec<NodeId>>, interesting: &'a [NodeId], nodes: usize) -> Self {
        SignatureSet {
            sources: sources.unwrap_or_else(|| (0..nodes as u32).map(NodeId).collect()),
            interesting,
            seen: HashSet::new(),
            scratch: Vec::new(),
            path: Vec::new(),
            on_path: vec![false; nodes],
        }
    }

    /// Record `plane`'s signature; returns whether it was new.
    fn insert(&mut self, plane: &ForwardingGraph) -> bool {
        self.scratch.clear();
        for &s in &self.sources {
            let end = plane.walk_into(s, &mut self.path, &mut self.on_path);
            let positions = self
                .interesting
                .iter()
                .filter_map(|w| self.path.iter().position(|n| n == w));
            let at = self.scratch.len();
            self.scratch.extend([
                self.path.len() as u32,
                (end == WalkEnd::Delivered) as u32,
                0,
            ]);
            self.scratch.extend(positions.map(|p| p as u32));
            self.scratch[at + 2] = (self.scratch.len() - at - 3) as u32;
        }
        if self.seen.contains(&self.scratch[..]) {
            return false;
        }
        self.seen.insert(self.scratch.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plankton_config::scenarios::{disagree_gadget, fat_tree_ospf, ring_ospf, CoreStaticRoutes};
    use plankton_policy::{LoopFreedom, Reachability};

    #[test]
    fn ring_reachability_holds_under_single_failures() {
        let s = ring_ospf(6);
        let plankton = Plankton::new(s.network.clone());
        let sources: Vec<NodeId> = s.ring.routers[1..].to_vec();
        let report = plankton.verify(
            &Reachability::new(sources),
            &FailureScenario::up_to(1),
            &PlanktonOptions::default().restricted_to(vec![s.destination]),
        );
        assert!(report.holds(), "{report}");
        assert!(report.failure_sets_explored > 1);
        assert_eq!(report.pecs_verified, 1);
        assert!(report.engine.is_some());
    }

    #[test]
    fn ring_reachability_fails_under_double_failures() {
        let s = ring_ospf(6);
        let plankton = Plankton::new(s.network.clone());
        let sources: Vec<NodeId> = s.ring.routers[1..].to_vec();
        let report = plankton.verify(
            &Reachability::new(sources),
            &FailureScenario::up_to(2),
            &PlanktonOptions::default()
                .restricted_to(vec![s.destination])
                .without_lec_pruning(),
        );
        assert!(!report.holds());
        let violation = report.first_violation().unwrap();
        assert_eq!(violation.failures.len(), 2);
    }

    #[test]
    fn fat_tree_loop_policy_pass_and_fail() {
        let pass = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
        let plankton = Plankton::new(pass.network.clone());
        let report = plankton.verify(
            &LoopFreedom::everywhere(),
            &FailureScenario::no_failures(),
            &PlanktonOptions::default(),
        );
        assert!(report.holds(), "{report}");

        let fail = fat_tree_ospf(4, CoreStaticRoutes::Looping);
        let plankton = Plankton::new(fail.network.clone());
        let report = plankton.verify(
            &LoopFreedom::everywhere(),
            &FailureScenario::no_failures(),
            &PlanktonOptions::default(),
        );
        assert!(!report.holds());
        assert!(report.first_violation().unwrap().reason.contains("loop"));
    }

    #[test]
    fn disagree_gadget_violation_found_only_in_one_convergence() {
        // Reachability holds in both converged states, but a waypoint through
        // actor a only holds in the state where b routes via a.
        use plankton_policy::Waypoint;
        let g = disagree_gadget();
        let plankton = Plankton::new(g.network.clone());
        let policy = Waypoint::new(vec![g.actors[1]], vec![g.actors[0]]);
        let report = plankton.verify(
            &policy,
            &FailureScenario::no_failures(),
            &PlanktonOptions::default().restricted_to(vec![g.destination]),
        );
        assert!(!report.holds(), "the wedged convergence must be found");
        // The trail of the counterexample contains non-deterministic choices.
        assert!(
            report
                .first_violation()
                .unwrap()
                .trail
                .nondeterministic_steps()
                > 0
        );

        // Reachability, in contrast, holds in every converged state.
        let report = plankton.verify(
            &Reachability::new(vec![g.actors[0], g.actors[1]]),
            &FailureScenario::no_failures(),
            &PlanktonOptions::default().restricted_to(vec![g.destination]),
        );
        assert!(report.holds(), "{report}");
    }

    #[test]
    fn one_and_four_worker_verification_agree() {
        let s = fat_tree_ospf(4, CoreStaticRoutes::Looping);
        let plankton = Plankton::new(s.network.clone());
        let serial = plankton.verify(
            &LoopFreedom::everywhere(),
            &FailureScenario::no_failures(),
            &PlanktonOptions::with_cores(1).collect_all_violations(),
        );
        let parallel = plankton.verify(
            &LoopFreedom::everywhere(),
            &FailureScenario::no_failures(),
            &PlanktonOptions::with_cores(4).collect_all_violations(),
        );
        assert_eq!(serial.holds(), parallel.holds());
        assert_eq!(serial.violations.len(), parallel.violations.len());
        assert_eq!(serial.normalized_json(), parallel.normalized_json());
        let engine = parallel.engine.expect("engine stats recorded");
        assert_eq!(engine.workers, 4);
        assert_eq!(engine.tasks_pending, 0);
        assert_eq!(
            engine.tasks_executed + engine.tasks_skipped,
            engine.tasks_total as u64
        );
    }
}
