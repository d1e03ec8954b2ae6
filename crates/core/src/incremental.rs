//! The keyed verification path, and incremental re-verification on top of
//! it: delta-aware invalidation over the result cache plus partial
//! task-graph resubmission.
//!
//! [`Plankton::verify_with_cache`] is the workspace's one verification
//! driver — a one-shot [`Plankton::verify`] is the same run over an empty
//! cache, where every task is dirty. The long-running service keeps one
//! [`IncrementalVerifier`] per loaded network. A configuration delta
//! rebuilds the cheap analysis layers (PEC trie, dependency graph) and
//! leaves the expensive layer — per-task verification results — in the
//! content-addressed [`ResultCache`]. The next
//! `verify` computes every task's content key ([`plankton_pec::TaskKeys`]),
//! serves clean tasks straight from the cache, and resubmits *only* the
//! dirty subset of the (PEC-component × failure-scenario) cross product to
//! the work-stealing engine (`pec_task_graph_sparse`), merging cached and
//! fresh per-PEC outcomes into one [`VerificationReport`] that is identical
//! to what a from-scratch verification of the post-delta network would
//! produce (deterministically so under
//! [`PlanktonOptions::collect_all_violations`]; under stop-at-first
//! semantics only `holds()` is deterministic, exactly as in one-shot mode).

use crate::cache::{PolicyOutcome, ResultCache};
use crate::options::PlanktonOptions;
use crate::outcome::ConvergedRecord;
use crate::report::{PhaseTimings, VerificationReport};
use crate::verifier::Plankton;
use plankton_config::{ConfigDelta, DeltaError, DeltaTouch, Network};
use plankton_engine::{pec_task_graph_sparse, Engine};
use plankton_net::failure::FailureScenario;
use plankton_pec::{pecs_touched_by, OspfSliceMode, PecId, TaskKeys};
use plankton_telemetry::trace::{self, Field, Level};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Process-global incremental-path counters, resolved once. The ratio of
/// `plankton_tasks_rerun_total` to `plankton_pecs_dirty_advisory_total`
/// (folded in by [`IncrementalVerifier::apply_delta`]) is the invalidation
/// precision the content keys buy over the advisory touch set.
struct IncrementalMetrics {
    tasks_rerun: Arc<plankton_telemetry::Counter>,
    tasks_cached: Arc<plankton_telemetry::Counter>,
    key_memo_hits: Arc<plankton_telemetry::Counter>,
    key_memo_misses: Arc<plankton_telemetry::Counter>,
    key_memo_entries: Arc<plankton_telemetry::Gauge>,
}

fn incremental_metrics() -> &'static IncrementalMetrics {
    static METRICS: OnceLock<IncrementalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = plankton_telemetry::metrics::global();
        IncrementalMetrics {
            tasks_rerun: registry.counter(
                "plankton_tasks_rerun_total",
                "Tasks resubmitted to the engine because their content key missed.",
            ),
            tasks_cached: registry.counter(
                "plankton_tasks_cached_total",
                "Tasks served entirely from the result cache.",
            ),
            key_memo_hits: registry.counter(
                "plankton_key_memo_hits_total",
                "Scoped OSPF slice fingerprints served from the session's slice memo \
                 while deriving task keys.",
            ),
            key_memo_misses: registry.counter(
                "plankton_key_memo_misses_total",
                "Scoped OSPF slice fingerprints that had to run their Dijkstra.",
            ),
            key_memo_entries: registry.gauge(
                "plankton_key_memo_entries",
                "Entries resident in the slice memo (bounded; two generations).",
            ),
        }
    })
}

/// What an incremental verification did: how much was re-explored and how
/// much came from the cache.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct IncrementalRunStats {
    /// PECs whose policy verdict the request needed.
    pub pecs_checked: usize,
    /// Distinct PECs that were actually re-explored (member of a dirty
    /// component task).
    pub pecs_reexplored: usize,
    /// Distinct PECs fully served from the cache.
    pub pecs_cached: usize,
    /// (component × failure-set) tasks of the request.
    pub tasks_total: usize,
    /// Tasks resubmitted to the engine.
    pub tasks_rerun: usize,
    /// Tasks served entirely from the cache.
    pub tasks_cached: usize,
    /// Per-(PEC × failure-set) cache key hits during planning.
    pub key_hits: u64,
    /// Per-(PEC × failure-set) cache key misses during planning.
    pub key_misses: u64,
    /// RPVP steps actually re-executed by this run (fresh work).
    pub steps_reexplored: u64,
    /// RPVP steps whose results were served from the cache.
    pub steps_cached: u64,
}

/// The result of applying one delta through an [`IncrementalVerifier`].
#[derive(Clone, Debug)]
pub struct AppliedDelta {
    /// The delta's kind tag (for logs/statistics).
    pub kind: &'static str,
    /// What the config diff layer reports as touched.
    pub touch: DeltaTouch,
    /// The PECs (of the *post-delta* partition) the touch maps to, closed
    /// under reverse dependencies — the advisory dirty set.
    pub pecs_touched: BTreeSet<PecId>,
    /// Number of PECs in the post-delta partition.
    pub pecs_total: usize,
}

/// The result of applying a coalesced batch of deltas in one rebuild
/// ([`IncrementalVerifier::apply_deltas`]).
pub struct AppliedBatch {
    /// Per input delta, in order: `Ok` carries the advisory dirty info,
    /// `Err` the apply error. An errored delta left the network unchanged —
    /// exactly what sequential replay of the same sequence would have done.
    pub outcomes: Vec<Result<AppliedDelta, DeltaError>>,
    /// Number of deltas that applied (the `Ok` outcomes).
    pub applied: usize,
    /// Union advisory dirty set across applied deltas, mapped through the
    /// post-batch partition.
    pub pecs_touched: BTreeSet<PecId>,
    /// Number of PECs in the post-batch partition.
    pub pecs_total: usize,
    /// The pinned post-batch analysis snapshot. Lagged verification runs
    /// against exactly this `Arc`, immune to newer concurrent deltas.
    pub snapshot: Arc<Plankton>,
}

/// Advance `mark` to now and return the microseconds since its previous
/// position. Phases measured as contiguous laps of one clock sum to the
/// enclosing wall time by construction.
fn lap(mark: &mut Instant) -> u64 {
    let now = Instant::now();
    let elapsed = now.duration_since(*mark).as_micros() as u64;
    *mark = now;
    elapsed
}

impl Plankton {
    /// Verify `policy` under the failure environment `scenario`, serving
    /// clean (PEC × failure-scenario) tasks from `cache` and executing only
    /// tasks whose content key misses, inserting every complete fresh result
    /// for the next call. This is the one verification path:
    /// [`Plankton::verify`] is this function over an empty cache.
    ///
    /// `policy_fp` must fingerprint the policy *including every parameter*
    /// that changes its verdict (built-in policy names alone do not — e.g.
    /// two `BoundedPathLength` bounds share a name). The service layer
    /// derives it from the wire-level policy spec.
    pub fn verify_with_cache(
        &self,
        policy: &dyn plankton_policy::Policy,
        policy_fp: u64,
        scenario: &FailureScenario,
        options: &PlanktonOptions,
        cache: &ResultCache,
    ) -> (VerificationReport, IncrementalRunStats) {
        let start = Instant::now();
        let mut mark = start;
        let mut phases = PhaseTimings::default();
        let deps = self.dependencies();
        let ctx = self.prepare_run_ctx(policy, scenario, options);
        let nf = ctx.failure_sets.len();

        // Only components containing a needed PEC become tasks — with
        // `restrict_to_prefixes` on a large network that is a tiny fraction
        // of the cross product. The set is closed under dependencies
        // (`needed` includes every transitive dependency).
        let needed_components: Vec<usize> = (0..deps.component_count())
            .filter(|&c| deps.components[c].iter().any(|p| ctx.needed.contains(p)))
            .collect();
        // The run's outcome table: one slot per (PEC of a needed component,
        // failure set), set at most once — by the planning pass below when
        // the cache holds the outcome, else by the task that verified the
        // PEC's component under that failure set, strictly before the engine
        // releases any dependent task — and read by dependency lookups.
        let slot_row: BTreeMap<PecId, usize> = needed_components
            .iter()
            .flat_map(|&c| &deps.components[c])
            .enumerate()
            .map(|(row, &p)| (p, row))
            .collect();
        let slots: Vec<OnceLock<Arc<PolicyOutcome>>> =
            (0..slot_row.len() * nf).map(|_| OnceLock::new()).collect();
        let slot = |pec: PecId, f: usize| slot_row.get(&pec).map(|row| &slots[row * nf + f]);

        let options_fp = options.cache_fingerprint();
        // Scoped OSPF slices are sound only under deterministic-node
        // exploration (the OspfPor Dijkstra trajectory); with it disabled the
        // explorer branches over every ordering, any cost in a component is
        // observable, and the keys conservatively fall back to the global
        // OSPF slice.
        let ospf_mode = if options.search.deterministic_nodes {
            OspfSliceMode::Scoped
        } else {
            OspfSliceMode::Global
        };
        let keys = TaskKeys::compute_with_memo(
            cache.slice_memo(),
            self.network(),
            self.pecs(),
            deps,
            &ctx.failure_sets,
            policy_fp,
            options_fp,
            ospf_mode,
            |p| {
                slot_row.contains_key(&p).then(|| {
                    (ctx.has_dependents.contains(&deps.component_of(p)) as u8)
                        | ((ctx.checked.contains(&p) as u8) << 1)
                })
            },
        );
        phases.key_compute_micros = lap(&mut mark);
        let (memo_hits, memo_misses) = keys.memo_stats();

        // Plan: a component task is clean only if *every* PEC it verifies
        // hits the cache; otherwise the whole task re-runs (its PECs share
        // one session pass).
        let mut stats = IncrementalRunStats {
            pecs_checked: ctx.checked.len(),
            ..Default::default()
        };
        let mut dirty_tasks: Vec<(usize, usize)> = Vec::new();
        let mut reexplored_pecs: BTreeSet<PecId> = BTreeSet::new();
        let mut cached_pecs: BTreeSet<PecId> = BTreeSet::new();
        for &c in &needed_components {
            let component = &deps.components[c];
            for f in 0..nf {
                let hits: Vec<Arc<PolicyOutcome>> = component
                    .iter()
                    .filter_map(|&p| cache.peek(keys.key(p, f)))
                    .collect();
                // A key that hits while a sibling misses saved no work (the
                // whole component re-runs), so only fully-served tasks count
                // as reuse — in the run stats and the cache counters alike.
                let size = component.len() as u64;
                if hits.len() == component.len() {
                    stats.key_hits += size;
                    cache.count_hits(size);
                    let fhash = crate::verifier::failure_set_fingerprint(&ctx.failure_sets[f]);
                    for (&p, outcome) in component.iter().zip(hits) {
                        plankton_telemetry::taskstats::global().record_cache_hit(
                            p.0 as u64,
                            fhash,
                            || ctx.failure_sets[f].to_string(),
                        );
                        cached_pecs.insert(p);
                        let _ = slot(p, f).expect("a needed component's PEC").set(outcome);
                    }
                } else {
                    stats.key_misses += size;
                    cache.count_misses(size);
                    dirty_tasks.push((c, f));
                    reexplored_pecs.extend(component);
                }
            }
        }
        // The bound follows the working set: one pass's keys must fit with
        // room to spare, or its inserts would evict each other.
        cache.fit_pass((stats.key_hits + stats.key_misses) as usize);
        stats.tasks_total = needed_components.len() * nf;
        stats.tasks_rerun = dirty_tasks.len();
        stats.tasks_cached = stats.tasks_total - stats.tasks_rerun;
        stats.pecs_reexplored = reexplored_pecs.len();
        stats.pecs_cached = cached_pecs.difference(&reexplored_pecs).count();
        phases.invalidation_micros = lap(&mut mark);
        let metrics = incremental_metrics();
        metrics.tasks_rerun.add(stats.tasks_rerun as u64);
        metrics.tasks_cached.add(stats.tasks_cached as u64);
        metrics.key_memo_hits.add(memo_hits);
        metrics.key_memo_misses.add(memo_misses);
        metrics
            .key_memo_entries
            .set(cache.slice_memo().len() as u64);
        trace::event(
            Level::Info,
            "keys_invalidated",
            &[
                Field::u64("tasks_total", stats.tasks_total as u64),
                Field::u64("tasks_rerun", stats.tasks_rerun as u64),
                Field::u64("tasks_cached", stats.tasks_cached as u64),
                Field::u64("key_hits", stats.key_hits),
                Field::u64("key_misses", stats.key_misses),
                Field::u64("memo_hits", memo_hits),
                Field::u64("memo_misses", memo_misses),
            ],
        );

        // Fold the cached outcomes in first (and honor stop-at-first: a
        // cached violation means a fresh run would have stopped too).
        for (&pec, row) in &slot_row {
            for (f, failures) in ctx.failure_sets.iter().enumerate() {
                if let Some(outcome) = slots[row * nf + f].get() {
                    ctx.absorb(pec, failures, outcome);
                    stats.steps_cached += outcome.stats.steps;
                }
            }
        }
        if options.stop_at_first_violation && !ctx.violations.lock().is_empty() {
            ctx.stop.store(true, Ordering::Relaxed);
        }
        phases.cache_io_micros = lap(&mut mark);

        // Partial resubmission: only the dirty tasks, with scheduling edges
        // among them (clean dependencies are already in the table).
        let (graph, map) = pec_task_graph_sparse(deps, &dirty_tasks);
        let engine = Engine::new(options.parallelism);
        let mut engine_stats = engine.run(&graph, |task, worker| {
            let _trace = trace::scope(ctx.trace_id);
            if ctx.deadline_passed() {
                worker.request_stop();
                return;
            }
            let (c, f) = map.decode(task);
            let failures = &ctx.failure_sets[f];
            let lookup = |p: PecId| -> Option<Arc<ConvergedRecord>> {
                slot(p, f)?.get()?.records.first().cloned()
            };
            let outcomes = self.run_component_under_failures(
                &ctx,
                &deps.components[c],
                failures,
                &lookup,
                worker.scratch_cell(),
            );
            for (pec, outcome) in outcomes {
                ctx.absorb(pec, failures, &outcome);
                cache.insert(keys.key(pec, f), Arc::clone(&outcome));
                let _ = slot(pec, f).expect("a needed component's PEC").set(outcome);
            }
            if ctx.stop.load(Ordering::Relaxed) {
                worker.request_stop();
            }
        });
        let total_stats = ctx.total_stats.into_inner();
        engine_stats.interned_routes = ctx.interner.len() as u64;
        engine_stats.states_explored = total_stats.states_explored();
        stats.steps_reexplored = total_stats.steps - stats.steps_cached;
        phases.exploration_micros = lap(&mut mark);
        trace::event(
            Level::Info,
            "tasks_rerun",
            &[
                Field::u64("tasks_rerun", stats.tasks_rerun as u64),
                Field::u64("steps_reexplored", stats.steps_reexplored),
                Field::u64("steps_cached", stats.steps_cached),
                Field::u64("elapsed_us", phases.exploration_micros),
            ],
        );

        // A deterministic violation order, whatever the worker interleaving.
        let mut violations = ctx.violations.into_inner();
        violations
            .sort_by(|a, b| (a.pec, &a.failures, &a.reason).cmp(&(b.pec, &b.failures, &b.reason)));
        let elapsed = start.elapsed();
        phases.merge_micros = lap(&mut mark);
        trace::event(
            Level::Info,
            "report_merged",
            &[
                Field::str("policy", policy.name()),
                Field::bool("holds", violations.is_empty()),
                Field::u64("violations", violations.len() as u64),
                Field::u64("elapsed_us", elapsed.as_micros() as u64),
            ],
        );
        let report = VerificationReport {
            policy: policy.name().to_string(),
            violations,
            stats: total_stats,
            pecs_verified: ctx.checked.len(),
            failure_sets_explored: nf,
            data_planes_checked: ctx.data_planes_checked.load(Ordering::Relaxed),
            elapsed,
            phases,
            largest_scc: deps.largest_component(),
            engine: Some(engine_stats),
            deadline_exceeded: ctx.deadline_hit.load(Ordering::Relaxed),
        };
        (report, stats)
    }
}

/// A persistent verification session: a network, its analysis layers, and
/// the result cache that survives configuration deltas — shared by any
/// number of concurrent readers.
///
/// The ownership model is copy-on-write snapshot swap: the expensive
/// analysis state ([`Plankton`] — network, PEC trie, dependency graph) is an
/// immutable snapshot behind an `Arc`. Readers ([`IncrementalVerifier::verify`],
/// queries) clone the `Arc` and work off their snapshot without holding any
/// lock for the duration of a verification; writers
/// ([`IncrementalVerifier::apply_delta`], [`IncrementalVerifier::load`])
/// build the replacement snapshot *off-lock* and swap the pointer. Writers
/// are serialized by a dedicated mutation lock (a read-modify-write against
/// the current snapshot must not race another), so every delta is applied
/// against the snapshot its caller observed or a successor of it.
///
/// The result cache is shared across all of it without generation tagging:
/// content-addressed keys make an entry computed against *any* snapshot
/// correct wherever its key matches, so a verification racing a delta can
/// keep inserting results for its (old) snapshot — they are simply
/// unreachable from the new snapshot's keys if the delta invalidated them.
pub struct IncrementalVerifier {
    snapshot: parking_lot::RwLock<Arc<Plankton>>,
    /// Serializes mutators (`apply_delta`, `load`) end-to-end; the snapshot
    /// write lock above is only held for the pointer swap itself.
    mutate: parking_lot::Mutex<()>,
    cache: Arc<ResultCache>,
    deltas_applied: AtomicU64,
}

impl IncrementalVerifier {
    /// Start a session for `network`.
    pub fn new(network: Network) -> Self {
        Self::with_cache(network, Arc::new(ResultCache::new()))
    }

    /// Start a session for `network` over an existing (possibly warm,
    /// possibly shared) result cache.
    pub fn with_cache(network: Network, cache: Arc<ResultCache>) -> Self {
        IncrementalVerifier {
            snapshot: parking_lot::RwLock::new(Arc::new(Plankton::new(network))),
            mutate: parking_lot::Mutex::new(()),
            cache,
            deltas_applied: AtomicU64::new(0),
        }
    }

    /// The current analysis snapshot (network, PECs, dependencies). The
    /// returned `Arc` stays valid — and internally consistent — across any
    /// concurrent delta; it just stops being current.
    pub fn snapshot(&self) -> Arc<Plankton> {
        self.snapshot.read().clone()
    }

    /// The result cache.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Deltas applied since the session started.
    pub fn deltas_applied(&self) -> u64 {
        self.deltas_applied.load(Ordering::Relaxed)
    }

    /// Replace the whole network (a `load` request): drops the cache.
    pub fn load(&self, network: Network) {
        let _serialize = self.mutate.lock();
        let plankton = Arc::new(Plankton::new(network));
        *self.snapshot.write() = plankton;
        // A concurrent verify against the old snapshot may re-insert entries
        // after this clear; content keys keep them harmless (and they stay
        // *useful* if the old network is ever loaded again).
        self.cache.clear();
        self.deltas_applied.store(0, Ordering::Relaxed);
    }

    /// Apply one configuration delta: the network mutates, the PEC trie and
    /// dependency graph are recomputed (off-lock — concurrent verifies keep
    /// reading the old snapshot meanwhile), and the advisory dirty set is
    /// derived by mapping the delta's touch through the new partition. The
    /// result cache is kept — content keys make stale entries unreachable.
    pub fn apply_delta(&self, delta: &ConfigDelta) -> Result<AppliedDelta, DeltaError> {
        let start = Instant::now();
        let _serialize = self.mutate.lock();
        // Chaos hook: `snapshot_swap=delay:<N>ms` widens the rebuild window
        // for race soaks; `snapshot_swap=panic` models a rebuild bug (the
        // service contains it and keeps the *old* snapshot serving).
        let _ = plankton_faultinject::trigger("snapshot_swap");
        let mut network = self.snapshot().network().clone();
        let touch = delta.apply(&mut network)?;
        let plankton = Arc::new(Plankton::new(network));
        let pecs_touched = pecs_touched_by(
            plankton.network(),
            plankton.pecs(),
            plankton.dependencies(),
            &touch,
        );
        let pecs_total = plankton.pecs().len();
        *self.snapshot.write() = plankton;
        self.deltas_applied.fetch_add(1, Ordering::Relaxed);

        let elapsed = start.elapsed().as_micros() as u64;
        static SWAP_SECONDS: OnceLock<Arc<plankton_telemetry::Histogram>> = OnceLock::new();
        static PECS_DIRTY: OnceLock<Arc<plankton_telemetry::Counter>> = OnceLock::new();
        let registry = plankton_telemetry::metrics::global();
        SWAP_SECONDS
            .get_or_init(|| {
                registry.histogram(
                    "plankton_snapshot_swap_seconds",
                    "Delta apply end-to-end: analysis rebuild plus snapshot pointer swap.",
                    plankton_telemetry::Unit::Micros,
                )
            })
            .observe(elapsed);
        PECS_DIRTY
            .get_or_init(|| {
                registry.counter(
                    "plankton_pecs_dirty_advisory_total",
                    "PECs the advisory touch set marked dirty across all deltas \
                     (compare with plankton_tasks_rerun_total for invalidation precision).",
                )
            })
            .add(pecs_touched.len() as u64);
        trace::event(
            Level::Info,
            "delta_applied",
            &[
                Field::str("kind", delta.kind()),
                Field::u64("pecs_touched", pecs_touched.len() as u64),
                Field::u64("pecs_total", pecs_total as u64),
                Field::u64("elapsed_us", elapsed),
            ],
        );

        Ok(AppliedDelta {
            kind: delta.kind(),
            touch,
            pecs_touched,
            pecs_total,
        })
    }

    /// Apply a whole batch of deltas in **one** analysis rebuild: one network
    /// clone, every delta applied to it in order, one `Plankton::new`, one
    /// snapshot swap. This is what makes streaming ingestion sustain high
    /// delta rates — N queued updates cost one rebuild instead of N.
    ///
    /// A delta that fails to apply (e.g. [`DeltaError::NoOp`] from an
    /// `[Up, Down]` pair coalesced to a no-op) is skipped and reported in its
    /// slot: `apply` leaves the network unchanged on error, so skipping is
    /// byte-identical to sequential one-at-a-time replay where the same
    /// delta would have errored against the same state.
    ///
    /// The returned [`AppliedBatch::snapshot`] is the *pinned* post-batch
    /// analysis: a lagged verification must run against exactly this `Arc`
    /// (not [`IncrementalVerifier::snapshot`]) so that deltas landing during
    /// the verification cannot tear the report it is attributed to.
    pub fn apply_deltas(&self, deltas: &[ConfigDelta]) -> AppliedBatch {
        let start = Instant::now();
        let _serialize = self.mutate.lock();
        let _ = plankton_faultinject::trigger("snapshot_swap");

        let mut network = self.snapshot().network().clone();
        let mut touches: Vec<(usize, &'static str, DeltaTouch)> = Vec::new();
        let mut outcomes: Vec<Result<AppliedDelta, DeltaError>> = Vec::with_capacity(deltas.len());
        for (index, delta) in deltas.iter().enumerate() {
            match delta.apply(&mut network) {
                Ok(touch) => {
                    touches.push((index, delta.kind(), touch));
                    // Placeholder; rewritten below once the post-batch
                    // partition exists to map touches through.
                    outcomes.push(Err(DeltaError::NoOp(String::new())));
                }
                Err(e) => outcomes.push(Err(e)),
            }
        }

        let applied = touches.len();
        let (snapshot, pecs_touched, pecs_total) = if applied == 0 {
            // Nothing changed: keep the current snapshot, no rebuild.
            let snapshot = self.snapshot();
            let total = snapshot.pecs().len();
            (snapshot, BTreeSet::new(), total)
        } else {
            let plankton = Arc::new(Plankton::new(network));
            let mut union: BTreeSet<PecId> = BTreeSet::new();
            for (index, kind, touch) in touches {
                let pecs = pecs_touched_by(
                    plankton.network(),
                    plankton.pecs(),
                    plankton.dependencies(),
                    &touch,
                );
                union.extend(pecs.iter().copied());
                outcomes[index] = Ok(AppliedDelta {
                    kind,
                    touch,
                    pecs_touched: pecs,
                    pecs_total: plankton.pecs().len(),
                });
            }
            let total = plankton.pecs().len();
            *self.snapshot.write() = plankton.clone();
            self.deltas_applied
                .fetch_add(applied as u64, Ordering::Relaxed);
            (plankton, union, total)
        };

        let elapsed = start.elapsed().as_micros() as u64;
        static BATCH_SECONDS: OnceLock<Arc<plankton_telemetry::Histogram>> = OnceLock::new();
        let registry = plankton_telemetry::metrics::global();
        BATCH_SECONDS
            .get_or_init(|| {
                registry.histogram(
                    "plankton_delta_batch_seconds",
                    "Batched delta apply end-to-end: one network clone + one \
                     analysis rebuild + one snapshot swap for the whole batch.",
                    plankton_telemetry::Unit::Micros,
                )
            })
            .observe(elapsed);
        trace::event(
            Level::Info,
            "delta_batch_applied",
            &[
                Field::u64("deltas", deltas.len() as u64),
                Field::u64("applied", applied as u64),
                Field::u64("skipped", (deltas.len() - applied) as u64),
                Field::u64("pecs_touched", pecs_touched.len() as u64),
                Field::u64("elapsed_us", elapsed),
            ],
        );

        AppliedBatch {
            outcomes,
            applied,
            pecs_touched,
            pecs_total,
            snapshot,
        }
    }

    /// Verify through the session cache, against the snapshot current at
    /// call time (a delta landing mid-verification does not affect this
    /// run). See [`Plankton::verify_with_cache`] for the `policy_fp`
    /// contract.
    pub fn verify(
        &self,
        policy: &dyn plankton_policy::Policy,
        policy_fp: u64,
        scenario: &FailureScenario,
        options: &PlanktonOptions,
    ) -> (VerificationReport, IncrementalRunStats) {
        self.snapshot()
            .verify_with_cache(policy, policy_fp, scenario, options, &self.cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plankton_config::scenarios::{fat_tree_ospf, ring_ospf, CoreStaticRoutes};
    use plankton_config::static_routes::StaticRoute;
    use plankton_policy::{LoopFreedom, Reachability};

    #[test]
    fn warm_cache_second_run_is_all_hits() {
        let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
        let session = IncrementalVerifier::new(s.network.clone());
        let options = PlanktonOptions::default().collect_all_violations();
        let scenario = FailureScenario::no_failures();
        let policy = LoopFreedom::everywhere();
        let (first, s1) = session.verify(&policy, 42, &scenario, &options);
        assert!(first.holds());
        assert_eq!(s1.tasks_cached, 0);
        assert!(s1.tasks_rerun > 0);
        let (second, s2) = session.verify(&policy, 42, &scenario, &options);
        assert_eq!(s2.tasks_rerun, 0, "{s2:?}");
        assert_eq!(s2.tasks_cached, s1.tasks_rerun);
        assert_eq!(first.normalized_json(), second.normalized_json());
    }

    #[test]
    fn cached_run_report_matches_one_shot_verify() {
        let s = ring_ospf(6);
        let sources: Vec<_> = s.ring.routers[1..].to_vec();
        let policy = Reachability::new(sources);
        let scenario = FailureScenario::up_to(1);
        let options = PlanktonOptions::default()
            .restricted_to(vec![s.destination])
            .collect_all_violations();
        let session = IncrementalVerifier::new(s.network.clone());
        let (incr, _) = session.verify(&policy, 7, &scenario, &options);
        let oneshot = Plankton::new(s.network.clone()).verify(&policy, &scenario, &options);
        assert_eq!(incr.normalized_json(), oneshot.normalized_json());
    }

    #[test]
    fn static_route_delta_reexplores_one_pec() {
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        let session = IncrementalVerifier::new(s.network.clone());
        let policy = LoopFreedom::everywhere();
        let scenario = FailureScenario::no_failures();
        let options = PlanktonOptions::default().collect_all_violations();
        session.verify(&policy, 1, &scenario, &options);

        let applied = session
            .apply_delta(&ConfigDelta::StaticRouteAdd {
                device: s.fat_tree.core[0],
                route: StaticRoute::null(s.destinations[0]),
            })
            .unwrap();
        assert_eq!(applied.kind, "static_route_add");
        assert!(!applied.pecs_touched.is_empty());

        let (incr, run) = session.verify(&policy, 1, &scenario, &options);
        assert!(run.pecs_reexplored < run.pecs_checked, "{run:?}");
        assert!(run.tasks_cached > 0, "{run:?}");
        let oneshot = Plankton::new(session.snapshot().network().clone())
            .verify(&policy, &scenario, &options);
        assert_eq!(incr.normalized_json(), oneshot.normalized_json());
    }

    #[test]
    fn persisted_cache_warm_starts_a_new_session() {
        // The daemon-restart path: verify, snapshot the cache to JSON, build
        // a brand-new session over the deserialized cache, and re-verify.
        // Every task must be served from the warm cache and the report must
        // be byte-identical to the cold one.
        let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
        let policy = LoopFreedom::everywhere();
        let scenario = FailureScenario::up_to(1);
        let options = PlanktonOptions::default().collect_all_violations();
        let session = IncrementalVerifier::new(s.network.clone());
        let (cold, cold_run) = session.verify(&policy, 3, &scenario, &options);
        assert!(cold_run.tasks_rerun > 0);

        let json = serde_json::to_string(&session.cache().to_snapshot()).unwrap();
        drop(session);

        let restarted = IncrementalVerifier::new(s.network.clone());
        let snapshot: crate::cache::CacheSnapshot = serde_json::from_str(&json).unwrap();
        let absorbed = restarted.cache().absorb_snapshot(&snapshot).unwrap();
        assert!(absorbed > 0);
        let (warm, warm_run) = restarted.verify(&policy, 3, &scenario, &options);
        assert_eq!(warm_run.tasks_rerun, 0, "{warm_run:?}");
        assert_eq!(warm_run.tasks_cached, warm_run.tasks_total);
        assert_eq!(cold.normalized_json(), warm.normalized_json());
    }

    #[test]
    fn concurrent_verifies_race_deltas_without_torn_snapshots() {
        // Readers verify in a loop while a writer toggles a static route on
        // and off. Every report a reader produces must byte-match the
        // from-scratch verification of one of the two network states —
        // proving the snapshot swap is atomic (no reader ever observes a
        // half-applied delta) and cached merges stay exact under races.
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        let policy = LoopFreedom::everywhere();
        let scenario = FailureScenario::no_failures();
        let options = PlanktonOptions::default().collect_all_violations();
        let add = ConfigDelta::StaticRouteAdd {
            device: s.fat_tree.core[0],
            route: StaticRoute::null(s.destinations[0]),
        };
        let remove = ConfigDelta::StaticRouteRemove {
            device: s.fat_tree.core[0],
            prefix: s.destinations[0],
        };
        let base_oracle = Plankton::new(s.network.clone())
            .verify(&policy, &scenario, &options)
            .normalized_json();
        let mut edited = s.network.clone();
        add.apply(&mut edited).unwrap();
        let edited_oracle = Plankton::new(edited)
            .verify(&policy, &scenario, &options)
            .normalized_json();

        let session = IncrementalVerifier::new(s.network.clone());
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let mut seen = Vec::new();
                        for _ in 0..6 {
                            let (report, _) = session.verify(&policy, 1, &scenario, &options);
                            seen.push(report.normalized_json());
                        }
                        seen
                    })
                })
                .collect();
            let writer = scope.spawn(|| {
                for i in 0..6 {
                    let delta = if i % 2 == 0 { &add } else { &remove };
                    session.apply_delta(delta).unwrap();
                }
            });
            writer.join().unwrap();
            for reader in readers {
                for json in reader.join().unwrap() {
                    assert!(
                        json == base_oracle || json == edited_oracle,
                        "a concurrent verify produced a report matching neither network state"
                    );
                }
            }
        });
    }

    /// The acceptance bar for [`PhaseTimings`]: phases are contiguous laps
    /// of one clock, so their sum must land within 10% of the report's wall
    /// time — on the cached path, the warm path, and the one-shot path.
    #[test]
    fn phase_timings_sum_to_report_wall_time() {
        let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
        let session = IncrementalVerifier::new(s.network.clone());
        let policy = LoopFreedom::everywhere();
        let scenario = FailureScenario::no_failures();
        let options = PlanktonOptions::default().collect_all_violations();

        let assert_sums = |report: &VerificationReport, label: &str| {
            let wall = report.elapsed.as_micros() as u64;
            let sum = report.phases.sum_micros();
            // Sub-millisecond runs are all scheduling noise; the 10% bound
            // is meaningful once the run does real work.
            let tolerance = (wall / 10).max(1_000);
            assert!(
                sum.abs_diff(wall) <= tolerance,
                "{label}: phases {:?} sum to {sum}us but wall is {wall}us",
                report.phases
            );
        };

        let (cold, _) = session.verify(&policy, 9, &scenario, &options);
        assert_sums(&cold, "cold incremental");
        assert!(cold.phases.exploration_micros > 0, "{:?}", cold.phases);
        let (warm, run) = session.verify(&policy, 9, &scenario, &options);
        assert_eq!(run.tasks_rerun, 0);
        assert_sums(&warm, "warm incremental");

        let oneshot = Plankton::new(s.network.clone()).verify(&policy, &scenario, &options);
        assert_sums(&oneshot, "one-shot");
        assert!(oneshot.phases.exploration_micros > 0);
    }

    #[test]
    fn different_policy_fingerprints_do_not_share_outcomes() {
        let s = ring_ospf(4);
        let session = IncrementalVerifier::new(s.network.clone());
        let sources: Vec<_> = s.ring.routers[1..].to_vec();
        let policy = Reachability::new(sources);
        let scenario = FailureScenario::no_failures();
        let options = PlanktonOptions::default()
            .restricted_to(vec![s.destination])
            .collect_all_violations();
        let (_, a) = session.verify(&policy, 1, &scenario, &options);
        let (_, b) = session.verify(&policy, 2, &scenario, &options);
        assert!(a.tasks_rerun > 0);
        assert_eq!(b.tasks_cached, 0, "different fp must not hit");
        assert!(b.tasks_rerun > 0);
    }
}
