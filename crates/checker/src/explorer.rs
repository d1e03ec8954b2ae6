//! The depth-first explorer: Plankton's replacement for SPIN.
//!
//! One [`ModelChecker`] run explores every RPVP execution of one protocol
//! instance (one PEC × one prefix × one failure scenario) and hands every
//! converged state it finds — together with the execution trail that produced
//! it — to a caller-supplied callback. The callback decides whether to keep
//! searching (look for more converged states / more violations) or stop.
//!
//! The inner loop is **incremental**: it explores the exact same tree, in
//! the exact same order, as the clone-based reference search
//! ([`ReferenceChecker`](crate::ReferenceChecker)), but pays per *step*
//! instead of per *state*:
//!
//! * **Delta-maintained enabled sets** — a step at node `n` can only change
//!   the entries of `n` and its reverse peers, and a reverse peer's only
//!   through the one advertisement `n` now sends it: `n`'s entry is dropped
//!   (it adopted one of its own maximal updates, so nothing can beat that)
//!   and each reverse peer's cached entry is patched for that single edge
//!   ([`IncrementalEnabled`](plankton_protocols::IncrementalEnabled)),
//!   instead of calling `Rpvp::enabled()` from scratch every iteration.
//! * **Step decisions from what the step changed** — each iteration asks,
//!   in this order: is the execution still consistent (§4.1.1)? have all
//!   policy sources decided (§4.2)? is the state converged? and then what
//!   to step. None of these walks the enabled set unless it must:
//!   - the consistency check reads a counter of enabled nodes that already
//!     hold a route, kept by the enabled set's O(1) slot swaps;
//!   - the POR heuristic ([`PorHeuristic::pick`]) runs first, and
//!     decision independence (§4.1.3) is searched only when its answer
//!     could differ: when independence holds the explorer takes the first
//!     enabled node, so a `pick` that already chose exactly that decision
//!     needs no search (debug builds search anyway and assert agreement);
//!   - nor is it searched while two *adjacent* nodes are both enabled and
//!     undecided: a count of such pairs, moved only for the nodes a step or
//!     undo touches, witnesses dependence in O(1) (debug builds search
//!     anyway and assert it fails);
//!   - independence's condition (a), "every pending update comes from a
//!     decided peer", is an invariant of the search rather than a sweep
//!     (see [`decision_independent`]).
//!
//!   What a step costs, then: for [`OspfPor`](crate::OspfPor), `pick` is
//!   the top of the enabled set's cost heap (O(1); O(log n) per entry the
//!   step changed to keep it); [`BgpPor`](crate::BgpPor) passes over the
//!   enabled set but re-rates only the nodes the enabled set stamped since
//!   its last pick — the stepped or reverted node and its reverse peers —
//!   and reuses every other node's cached verdict; the independence search
//!   runs only when neither the pick nor the witness settles it (it usually
//!   gives up a few hops from its first node); and the reverse peers cost
//!   O(deg) comparisons, with a route built and interned only for a peer
//!   that keeps it. On a deterministic (OSPF) run that is Dijkstra's work
//!   plus the bookkeeping that makes it undoable.
//! * **Apply/undo DFS** — steps are applied in place and reverted from a
//!   compact undo stack ([`UndoStack`](crate::UndoStack)), eliminating the
//!   full `RpvpState` clone plus `decided.to_vec()` per branch alternative.
//! * **Handle-native states** — routes are interned by the enabled-set
//!   computation itself
//!   ([`RouteInterner`](plankton_protocols::RouteInterner) threaded below
//!   the RPVP layer), so the state is a flat vector of handles: a step is
//!   an integer swap (no route clone, no lazily-synced handle mirror) and
//!   an undo frame is `Copy`.
//! * **An incrementally hashed visited set** — the explorer keeps the
//!   state's one Zobrist hash ([`state_hash`](crate::visited::state_hash),
//!   over route content hashes), moved in O(1) by every step and undo from
//!   the one route it swaps, so a visited-set check hashes nothing: it is a
//!   bucket lookup in the exact set's state arena, confirmed by comparing
//!   handles, or three probes of the bitstate filter.
//! * **Borrowed converged states** — the callback receives a
//!   [`ConvergedState`] view of the live handle vector and the interner, so
//!   an emit copies nothing; what the caller keeps past the callback, it
//!   copies itself.
//!
//! The enabled set always keeps its cost heap and change stamps, and the
//! explorer always keeps its dependence witness, whatever the heuristic and
//! options read: one shape of run state. All of it — enabled set, witness,
//! state, visited set, undo stack, interner, trail and every other buffer —
//! lives in one [`SearchScratch`], which a worker threads from run to run
//! ([`ModelChecker::run_in`]), so a warm worker sets a task up without
//! allocating and steady-state runs allocate nothing on the step path.

use crate::options::SearchOptions;
use crate::por::{
    decision_independent, independent_decision, PorDecision, PorHeuristic, VerdictCounts,
};
use crate::scratch::SearchScratch;
use crate::stats::SearchStats;
use crate::trail::Trail;
use crate::undo::UndoFrame;
use crate::visited::{state_hash, state_term};
use plankton_net::failure::FailureSet;
use plankton_net::topology::NodeId;
use plankton_protocols::rpvp::{ConvergedState, EnabledChoice, IncrementalEnabled, Rpvp};
use plankton_protocols::{ProtocolModel, ReversePeer, RouteHandle};
use plankton_telemetry::{Counter, Gauge};
use std::sync::{Arc, OnceLock};

/// Decision-independence searches of one run: run, avoided because the
/// heuristic's answer already was independence's, and avoided because the
/// dependence witness already knew the answer.
#[derive(Clone, Copy, Debug, Default)]
struct IndependenceSearches {
    run: u64,
    skipped: u64,
    witnessed: u64,
}

/// An O(1) witness that decision independence (§4.1.3) fails: the number of
/// peer-graph pairs `(u, v)`, `v ∈ peers(u)`, `u ≠ v`, whose ends are both
/// enabled and undecided ("active"), counted with multiplicity.
///
/// A positive count names two active nodes next to each other, so the
/// search from either reaches the other through no decided node and
/// [`decision_independent`] answers `None` (under its assumption that peers
/// are symmetric). A step changes the activity of the stepped node and of
/// the nodes whose entries it displaced, and of no other; `apply` and
/// `undo_one` re-read exactly those, so the count costs O(degree) per node
/// whose activity flipped.
#[derive(Default)]
pub(crate) struct DependenceWitness {
    /// `active[n]` ⟺ node `n` is counted as enabled and undecided.
    active: Vec<bool>,
    /// The number of active pairs.
    pairs: usize,
}

impl DependenceWitness {
    /// Start a run with every node inactive.
    fn reset(&mut self, nodes: usize) {
        self.active.clear();
        self.active.resize(nodes, false);
        self.pairs = 0;
    }

    /// Re-read whether `x` is active and move the count by the active pairs
    /// `x` enters or leaves: its own peer slots, and the slots other nodes
    /// hold for it.
    fn update(
        &mut self,
        model: &dyn ProtocolModel,
        enabled: &IncrementalEnabled,
        decided: &[bool],
        x: NodeId,
    ) {
        let now = enabled.contains(x) && !decided[x.index()];
        if now == self.active[x.index()] {
            return;
        }
        self.active[x.index()] = now;
        let active = &self.active;
        let mut touching = model
            .peers(x)
            .iter()
            .filter(|&&v| v != x && active[v.index()])
            .count();
        for r in enabled.reverse_peers(x) {
            if r.node == x || !active[r.node.index()] {
                continue;
            }
            touching += if r.slot == ReversePeer::REPEATED {
                model.peers(r.node).iter().filter(|&&p| p == x).count()
            } else {
                1
            };
        }
        if now {
            self.pairs += touching;
        } else {
            self.pairs -= touching;
        }
    }
}

/// Fold one finished search into the process-global metrics. Handles are
/// resolved once and cached: this runs once per (PEC-component × failure
/// scenario) task, and must stay off the per-step path entirely.
fn record_run_metrics(
    stats: &SearchStats,
    enabled: &IncrementalEnabled,
    searches: IndependenceSearches,
    verdicts: VerdictCounts,
) {
    type Cell = OnceLock<Arc<Counter>>;
    fn add(cell: &'static Cell, name: &'static str, help: &'static str, value: u64) {
        cell.get_or_init(|| plankton_telemetry::metrics::global().counter(name, help))
            .add(value);
    }
    static STEPS: Cell = OnceLock::new();
    static EDGE_UPDATES: Cell = OnceLock::new();
    static FULL_RECOMPUTES: Cell = OnceLock::new();
    static STEPPED_SKIPS: Cell = OnceLock::new();
    static UNBUILT: Cell = OnceLock::new();
    static SEARCHES: Cell = OnceLock::new();
    static SEARCHES_SKIPPED: Cell = OnceLock::new();
    static SEARCHES_WITNESSED: Cell = OnceLock::new();
    static VERDICTS_RECOMPUTED: Cell = OnceLock::new();
    static VERDICTS_REUSED: Cell = OnceLock::new();
    static UNDO_DEPTH: OnceLock<Arc<Gauge>> = OnceLock::new();
    add(
        &STEPS,
        "plankton_rpvp_steps_total",
        "RPVP transitions applied by the model checker.",
        stats.steps,
    );
    add(
        &EDGE_UPDATES,
        "plankton_enabled_edge_updates_total",
        "Enabled-set entries patched for the one advertisement a step changed.",
        enabled.edge_update_count(),
    );
    add(
        &FULL_RECOMPUTES,
        "plankton_enabled_full_recomputes_total",
        "Enabled-set entries re-derived from every peer's advertisement: after a step, and the origins' listeners at a rebuild.",
        stats.enabled_recomputed_nodes,
    );
    add(
        &STEPPED_SKIPS,
        "plankton_enabled_stepped_skips_total",
        "Stepped-node entries dropped without a re-derivation (the node adopted a maximal update).",
        enabled.stepped_skip_count(),
    );
    add(
        &UNBUILT,
        "plankton_edge_updates_unbuilt_total",
        "Enabled-set edge patches that ranked the changed advertisement without building it, and did not keep it.",
        enabled.edge_update_unbuilt_count(),
    );
    add(
        &SEARCHES,
        "plankton_independence_searches_total",
        "Decision-independence searches run by the model checker.",
        searches.run,
    );
    add(
        &SEARCHES_SKIPPED,
        "plankton_independence_searches_skipped_total",
        "Decision-independence searches avoided because the POR heuristic already chose the independent step.",
        searches.skipped,
    );
    add(
        &SEARCHES_WITNESSED,
        "plankton_independence_searches_witnessed_total",
        "Decision-independence searches avoided because two adjacent enabled, undecided nodes already showed dependence.",
        searches.witnessed,
    );
    add(
        &VERDICTS_RECOMPUTED,
        "plankton_bgp_pick_verdicts_recomputed_total",
        "Per-node BGP deterministic-node verdicts derived because a step or undo touched the node.",
        verdicts.recomputed,
    );
    add(
        &VERDICTS_REUSED,
        "plankton_bgp_pick_verdicts_reused_total",
        "Per-node BGP deterministic-node verdicts reused from an earlier pick of the same search.",
        verdicts.reused,
    );
    UNDO_DEPTH
        .get_or_init(|| {
            plankton_telemetry::metrics::global().gauge(
                "plankton_undo_depth_max",
                "Deepest apply/undo stack observed across all searches.",
            )
        })
        .record_max(stats.undo_depth_max);
}

/// What the policy callback wants the explorer to do after seeing a
/// converged state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Keep exploring for further converged states.
    Continue,
    /// Stop the search (e.g. a violation was found and one counterexample is
    /// enough).
    Stop,
}

/// The explicit-state model checker for one protocol instance: the question
/// (model, heuristic, options, policy sources, failure scenario). Every
/// buffer a run fills lives in the [`SearchScratch`] it runs in.
pub struct ModelChecker<'m> {
    rpvp: Rpvp<'m>,
    por: Box<dyn PorHeuristic + 'm>,
    options: SearchOptions,
    stats: SearchStats,
    /// The failure scenario, recorded in the trail (already applied when
    /// the model was built).
    failures: FailureSet,
    sources: Option<Vec<NodeId>>,
    stop: bool,
    /// How often the decision-independence search ran, and how often it was
    /// not needed.
    searches: IndependenceSearches,
    /// The Zobrist hash of the live state, kept by `apply` and `undo_one`.
    hash: u64,
}

impl<'m> ModelChecker<'m> {
    /// Build a checker for `model` under `failures` (already applied when the
    /// model was constructed; recorded here only for the trail). Allocates
    /// only the RPVP layer's origin mask: everything sized by the run lives
    /// in the scratch it runs in.
    pub fn new(
        model: &'m dyn ProtocolModel,
        por: Box<dyn PorHeuristic + 'm>,
        options: SearchOptions,
        failures: FailureSet,
    ) -> Self {
        let mut options = options.effective();
        // Hoist the source list out of the per-run options: the checker owns
        // its options, so the list is moved, not copied.
        let sources = options.source_nodes.take();
        ModelChecker {
            rpvp: Rpvp::new(model),
            por,
            options,
            stats: SearchStats::default(),
            failures,
            sources,
            stop: false,
            searches: IndependenceSearches::default(),
            hash: 0,
        }
    }

    /// Run the exhaustive search, invoking `callback` on every converged
    /// state. Returns the search statistics. [`ModelChecker::run_in`] over a
    /// fresh scratch.
    pub fn run<F>(self, callback: &mut F) -> SearchStats
    where
        F: FnMut(&ConvergedState<'_>, &Trail) -> Verdict,
    {
        self.run_in(&mut SearchScratch::new(), callback)
    }

    /// [`ModelChecker::run`] on a worker's `scratch`, which the run prepares
    /// for its model and options and leaves holding its allocations for the
    /// next run: the zero-allocation path.
    pub fn run_in<F>(mut self, s: &mut SearchScratch, callback: &mut F) -> SearchStats
    where
        F: FnMut(&ConvergedState<'_>, &Trail) -> Verdict,
    {
        s.prepare(&self.options);
        let model = self.rpvp.model();
        let n = model.node_count();
        s.state.reset(model, &mut s.interner);
        self.hash = state_hash(&s.state.best, &s.interner);
        s.decided.clear();
        s.decided.resize(n, false);
        for &o in model.origins() {
            s.decided[o.index()] = true;
        }
        s.trail.failures = std::mem::take(&mut self.failures);
        s.trail.events.clear();
        // Influence pruning (§4.2) folds into the enabled set's eligibility
        // mask: disallowed nodes are never recomputed, never enabled.
        let sources = self
            .sources
            .as_deref()
            .filter(|_| self.options.influence_pruning);
        let eligible = eligible_nodes(&self.rpvp, sources, &mut s.allowed, &mut s.frontier);
        s.enabled.reset(model.reverse_peers(), eligible);
        s.enabled.rebuild(&self.rpvp, &s.state, &mut s.interner);
        // Only an enabled node can be active: the enabled set is all the
        // witness has to read, not every node.
        s.witness.reset(n);
        for choice in s.enabled.view().iter() {
            s.witness.update(model, &s.enabled, &s.decided, choice.node);
        }
        self.dfs(s, 0, callback);
        self.stats.enabled_recomputed_nodes = s.enabled.recompute_count();
        // Run-scoped interner stats: the table may be warm from a previous
        // run on this worker, so report what a fresh interner would hold.
        self.stats.interned_routes = s.interner.run_interned();
        self.stats.visited_states = s.visited.len() as u64;
        self.stats.approx_memory_bytes =
            (s.interner.run_approx_bytes() + s.visited.approx_bytes()) as u64;
        record_run_metrics(
            &self.stats,
            &s.enabled,
            self.searches,
            self.por.verdict_counts(),
        );
        s.enabled.release();
        self.stats
    }

    fn all_sources_decided(&self, s: &SearchScratch) -> bool {
        match &self.sources {
            None => false,
            Some(sources) => {
                !sources.is_empty()
                    && sources
                        .iter()
                        .all(|&n| s.state.has_route(n) || self.rpvp.is_origin(n))
            }
        }
    }

    fn emit<F>(&mut self, s: &SearchScratch, callback: &mut F)
    where
        F: FnMut(&ConvergedState<'_>, &Trail) -> Verdict,
    {
        self.stats.converged_states += 1;
        let converged = ConvergedState::new(&s.state.best, &s.interner);
        if callback(&converged, &s.trail) == Verdict::Stop {
            self.stop = true;
        }
    }

    /// Apply one step in place, recording an undo frame: swap in the
    /// already-interned advertisement the enabled-set computation derived,
    /// and refresh the enabled set's dirty neighborhood.
    fn apply(
        &mut self,
        s: &mut SearchScratch,
        node: NodeId,
        peer: Option<NodeId>,
        adopt: RouteHandle,
        deterministic: bool,
    ) {
        let idx = node.index();
        let prev_best = self
            .rpvp
            .step_adopting(&mut s.state, &s.interner, node, adopt);
        self.hash ^= state_term(idx, prev_best, &s.interner)
            ^ state_term(idx, s.state.best[idx], &s.interner);
        let prev_decided = s.decided[idx];
        if peer.is_some() {
            s.decided[idx] = true;
        }
        let enabled_mark = s.undo.enabled_mark();
        s.enabled.refresh_after_step(
            &self.rpvp,
            &s.state,
            &mut s.interner,
            node,
            prev_best,
            &mut s.undo.enabled_prev,
        );
        let model = self.rpvp.model();
        s.witness.update(model, &s.enabled, &s.decided, node);
        for &(m, _) in &s.undo.enabled_prev[enabled_mark..] {
            s.witness.update(model, &s.enabled, &s.decided, m);
        }
        s.undo.push_frame(UndoFrame {
            node,
            prev_best,
            prev_decided,
            enabled_mark,
        });
        self.stats.undo_depth_max = self.stats.undo_depth_max.max(s.undo.depth() as u64);
        s.trail.push(node, peer, deterministic);
        self.stats.steps += 1;
        if deterministic {
            self.stats.deterministic_steps += 1;
        }
    }

    /// Revert the most recent applied step: state, `decided`, displaced
    /// enabled-set entries — and the step's trail event. Every `apply`
    /// pushes exactly one trail event and exactly one undo frame, so
    /// popping them together keeps the trail equal to the live DFS path at
    /// all times (the seed shipped with a bug here: deterministic steps of
    /// abandoned sibling branches leaked into emitted trails because frames
    /// never popped them on exit).
    fn undo_one(&mut self, s: &mut SearchScratch) {
        s.trail.pop();
        let frame = s.undo.pop_frame();
        let model = self.rpvp.model();
        while s.undo.enabled_prev.len() > frame.enabled_mark {
            let (m, prev) = s.undo.enabled_prev.pop().expect("mark within stack");
            s.enabled.set_entry(m, prev);
            // Final for every node but the stepped one, whose `decided`
            // bit is restored below and which is re-read after it.
            s.witness.update(model, &s.enabled, &s.decided, m);
        }
        let idx = frame.node.index();
        s.decided[idx] = frame.prev_decided;
        s.witness.update(model, &s.enabled, &s.decided, frame.node);
        s.enabled.mark_changed(frame.node);
        self.hash ^= state_term(idx, s.state.best[idx], &s.interner)
            ^ state_term(idx, frame.prev_best, &s.interner);
        self.rpvp
            .undo_step(&mut s.state, frame.node, frame.prev_best);
    }

    fn unwind_to(&mut self, s: &mut SearchScratch, mark: usize) {
        while s.undo.depth() > mark {
            self.undo_one(s);
        }
    }

    /// Record the live state in the visited set, under the hash `apply` and
    /// `undo_one` keep (debug builds fold it afresh and compare).
    fn insert_visited(&mut self, s: &mut SearchScratch) -> bool {
        debug_assert_eq!(
            self.hash,
            state_hash(&s.state.best, &s.interner),
            "the incrementally kept state hash differs from the fold"
        );
        s.visited.insert(&s.state.best, self.hash)
    }

    fn dfs<F>(&mut self, s: &mut SearchScratch, depth: u64, callback: &mut F)
    where
        F: FnMut(&ConvergedState<'_>, &Trail) -> Verdict,
    {
        let undo_mark = s.undo.depth();
        let mut depth = depth;
        loop {
            if self.stop {
                break;
            }
            if self.stats.steps >= self.options.max_steps {
                self.stats.truncated = true;
                self.stop = true;
                break;
            }
            self.stats.max_depth = self.stats.max_depth.max(depth);

            // Consistent-execution pruning (§4.1.1): a node that has already
            // selected a path but is enabled again would have to change it —
            // evidence that this execution is not consistent with any
            // converged state, so abandon it. The enabled set counts such
            // entries as it swaps them in and out.
            debug_assert_eq!(
                s.enabled.inconsistent_count(),
                s.enabled
                    .view()
                    .iter()
                    .filter(|c| c.invalid || s.state.has_route(c.node))
                    .count(),
                "the enabled set's consistency counter disagrees with a scan"
            );
            if self.options.consistent_executions && s.enabled.inconsistent_count() > 0 {
                self.stats.pruned_inconsistent += 1;
                break;
            }

            // Policy-based pruning (§4.2): once every source node has made
            // its decision the rest of the execution cannot change the
            // policy's verdict.
            if self.options.policy_pruning && self.all_sources_decided(s) {
                self.stats.pruned_by_policy += 1;
                self.emit(s, callback);
                break;
            }

            if s.enabled.is_empty() {
                self.emit(s, callback);
                break;
            }

            match self.decide(s) {
                PorDecision::Deterministic { node, update } => {
                    // Copy the (peer, handle) pair out before applying: both
                    // are `Copy`, so the enabled-set borrow ends here.
                    let (peer, adopt) = {
                        let c = s
                            .enabled
                            .view()
                            .get_node(node)
                            .expect("deterministic node is enabled");
                        match c.best_updates.get(update) {
                            Some(&(p, h)) => (Some(p), h),
                            None => (None, RouteHandle::NONE),
                        }
                    };
                    self.apply(s, node, peer, adopt, true);
                    depth += 1;
                    continue;
                }
                PorDecision::BranchUpdates { node } => {
                    // The enabled set mutates during recursion, so branching
                    // snapshots the choices it iterates (branch points only —
                    // the deterministic fast path stays allocation-free).
                    let snapshot = [s
                        .enabled
                        .view()
                        .get_node(node)
                        .expect("branch node is enabled")
                        .clone()];
                    self.branch(s, depth, callback, &snapshot, false);
                    break;
                }
                PorDecision::BranchAll => {
                    let mut snapshot = s.snapshots.pop().unwrap_or_default();
                    snapshot.clear();
                    snapshot.extend(s.enabled.view().iter().cloned());
                    self.branch(s, depth, callback, &snapshot, true);
                    s.snapshots.push(snapshot);
                    break;
                }
            }
        }
        // Revert every deterministic step this frame applied — except in
        // the outermost frame: the finished run discards its state, enabled
        // set and trail, and restoring them (heap and witness included)
        // would be a whole chain of undos for nothing.
        if undo_mark > 0 {
            self.unwind_to(s, undo_mark);
        }
    }

    /// Partial order reduction: the same decision as "decision independence
    /// (§4.1.3) if it holds, else the heuristic", asked the other way round.
    /// Independence, when it holds, picks the first enabled node
    /// ([`independent_decision`]); when the heuristic already picked exactly
    /// that, the answer is the same whether or not independence holds, so
    /// the search is skipped. Needs a non-empty enabled set.
    fn decide(&mut self, s: &mut SearchScratch) -> PorDecision {
        let view = s.enabled.view();
        let picked = if self.options.deterministic_nodes {
            self.por.pick(&s.state, &view, &s.decided, &s.interner)
        } else {
            PorDecision::BranchAll
        };
        if !self.options.decision_independence {
            return picked;
        }
        let model = self.rpvp.model();
        let first = view.first().expect("decide needs an enabled node");
        if picked == independent_decision(first) {
            self.searches.skipped += 1;
            if cfg!(debug_assertions) {
                let searched = decision_independent(model, &view, &s.decided, &mut s.independence);
                assert_eq!(
                    searched.unwrap_or(picked),
                    picked,
                    "skipping the independence search changed the decision"
                );
            }
            return picked;
        }
        if s.witness.pairs > 0 {
            self.searches.witnessed += 1;
            debug_assert_eq!(
                decision_independent(model, &view, &s.decided, &mut s.independence),
                None,
                "the dependence witness named a pair the independence search did not find"
            );
            return picked;
        }
        self.searches.run += 1;
        decision_independent(model, &view, &s.decided, &mut s.independence).unwrap_or(picked)
    }

    /// Branch over the given enabled choices: for each choice, one branch per
    /// best update (plus a clear-only branch for invalid paths when
    /// `include_clears` and the node has no usable update). Each alternative
    /// is applied in place, explored, and undone.
    fn branch<F>(
        &mut self,
        s: &mut SearchScratch,
        depth: u64,
        callback: &mut F,
        choices: &[EnabledChoice],
        include_clears: bool,
    ) where
        F: FnMut(&ConvergedState<'_>, &Trail) -> Verdict,
    {
        self.stats.branch_points += 1;
        for choice in choices {
            let clear_only = choice.best_updates.is_empty() && include_clears && choice.invalid;
            let alternatives = if clear_only {
                1
            } else {
                choice.best_updates.len()
            };
            for alt in 0..alternatives {
                if self.stop {
                    return;
                }
                self.stats.branches += 1;
                let (peer, adopt) = if clear_only {
                    (None, RouteHandle::NONE)
                } else {
                    let (p, h) = choice.best_updates[alt];
                    (Some(p), h)
                };
                self.apply(s, choice.node, peer, adopt, false);
                // Visited-state detection at branch points only.
                if !self.insert_visited(s) {
                    self.stats.pruned_visited += 1;
                    self.undo_one(s);
                    continue;
                }
                self.dfs(s, depth + 1, callback);
                self.undo_one(s);
            }
        }
    }
}

/// The eligibility mask of a search, one bit per node: every non-origin,
/// restricted when `sources` is given (influence pruning, §4.2) to the nodes
/// that can influence a source through chains of advertisements — reverse
/// reachability over the peer graph, computed into `allowed` with
/// `frontier` as its queue.
pub(crate) fn eligible_nodes<'a>(
    rpvp: &'a Rpvp<'_>,
    sources: Option<&[NodeId]>,
    allowed: &'a mut Vec<bool>,
    frontier: &mut Vec<NodeId>,
) -> impl Iterator<Item = bool> + 'a {
    let model = rpvp.model();
    let n = model.node_count();
    allowed.clear();
    allowed.resize(n, sources.is_none());
    frontier.clear();
    for &s in sources.unwrap_or_default() {
        if s.index() < n && !allowed[s.index()] {
            allowed[s.index()] = true;
            frontier.push(s);
        }
    }
    let mut head = 0;
    while let Some(&u) = frontier.get(head) {
        head += 1;
        for &p in model.peers(u) {
            if !allowed[p.index()] {
                allowed[p.index()] = true;
                frontier.push(p);
            }
        }
    }
    let allowed = &*allowed;
    (0..n).map(move |i| allowed[i] && !rpvp.is_origin(NodeId(i as u32)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::por::{BgpPor, NoPor, OspfPor};
    use plankton_config::scenarios::{disagree_gadget, ring_ospf};
    use plankton_net::ip::Prefix;
    use plankton_protocols::bgp::{BgpModel, UniformUnderlay};
    use plankton_protocols::ospf::OspfModel;
    use plankton_protocols::rpvp::{EnabledView, RpvpState};
    use plankton_protocols::{Preference, Route, RouteInterner};
    use std::collections::HashSet;
    use std::sync::Arc;

    /// Run the search, recording every converged state as the next hop of
    /// each node (the view itself only lives for the callback).
    fn collect_converged(
        model: &dyn ProtocolModel,
        por: Box<dyn PorHeuristic + '_>,
        options: SearchOptions,
    ) -> (Vec<Vec<Option<NodeId>>>, SearchStats) {
        let checker = ModelChecker::new(model, por, options, FailureSet::none());
        let mut states = Vec::new();
        let stats = checker.run(&mut |s, _| {
            states.push(
                (0..s.node_count() as u32)
                    .map(|n| s.next_hop(NodeId(n)))
                    .collect(),
            );
            Verdict::Continue
        });
        (states, stats)
    }

    #[test]
    fn ospf_ring_has_single_converged_state() {
        let s = ring_ospf(6);
        let model = OspfModel::new(
            &s.network,
            s.destination,
            vec![s.origin],
            &FailureSet::none(),
        );
        let (states, stats) = collect_converged(
            &model,
            Box::new(OspfPor),
            SearchOptions::all_optimizations(),
        );
        assert_eq!(states.len(), 1);
        assert!(stats.deterministic_steps > 0);
        assert_eq!(stats.branch_points, 0);
        // The delta maintenance recomputes far fewer nodes than a full
        // per-step recomputation would (steps × non-origin nodes).
        assert!(stats.enabled_recomputed_nodes > 0);
        assert!(stats.enabled_recomputed_nodes <= stats.steps.max(1) * 5 + 5);
        // Every node reaches the origin.
        for n in s.network.topology.node_ids() {
            if n != s.origin {
                assert!(states[0][n.index()].is_some());
            }
        }
    }

    #[test]
    fn unoptimized_search_finds_the_same_ospf_state() {
        let s = ring_ospf(4);
        let model = OspfModel::new(
            &s.network,
            s.destination,
            vec![s.origin],
            &FailureSet::none(),
        );
        let (optimized, _) = collect_converged(
            &model,
            Box::new(OspfPor),
            SearchOptions::all_optimizations(),
        );
        let (naive, naive_stats) =
            collect_converged(&model, Box::new(NoPor), SearchOptions::no_optimizations());
        // The naive search revisits the converged state through many
        // executions; the set of distinct converged forwarding states must
        // still be exactly the optimized one.
        let naive_set: HashSet<_> = naive.into_iter().collect();
        let opt_set: HashSet<_> = optimized.into_iter().collect();
        assert_eq!(naive_set, opt_set);
        assert!(naive_stats.steps > 0);
        assert!(naive_stats.undo_depth_max > 0);
    }

    #[test]
    fn disagree_gadget_yields_both_converged_states() {
        let g = disagree_gadget();
        let model = BgpModel::new(
            &g.network,
            g.destination,
            vec![g.origin],
            &FailureSet::none(),
            Arc::new(UniformUnderlay),
        );
        let por = BgpPor::from_model(&model);
        let (states, stats) =
            collect_converged(&model, Box::new(por), SearchOptions::all_optimizations());
        let a = g.actors[0];
        let b = g.actors[1];
        let outcomes: HashSet<(Option<NodeId>, Option<NodeId>)> = states
            .iter()
            .map(|s| (s[a.index()], s[b.index()]))
            .collect();
        assert!(
            outcomes.contains(&(Some(b), Some(g.origin))),
            "{outcomes:?}"
        );
        assert!(
            outcomes.contains(&(Some(g.origin), Some(a))),
            "{outcomes:?}"
        );
        assert!(stats.branch_points > 0, "the gadget requires branching");
    }

    #[test]
    fn consistent_execution_pruning_reduces_search() {
        // A 6-router OSPF ring explored with *no* partial order reduction:
        // some execution orders make a far-side router adopt the long way
        // round before the short route exists, which consistent-execution
        // pruning then abandons.
        let s = ring_ospf(6);
        let model = OspfModel::new(
            &s.network,
            s.destination,
            vec![s.origin],
            &FailureSet::none(),
        );
        let (with, with_stats) = collect_converged(
            &model,
            Box::new(NoPor),
            SearchOptions {
                consistent_executions: true,
                deterministic_nodes: false,
                decision_independence: false,
                policy_pruning: false,
                influence_pruning: false,
                ..SearchOptions::all_optimizations()
            },
        );
        let (without, without_stats) =
            collect_converged(&model, Box::new(NoPor), SearchOptions::no_optimizations());
        // Same distinct converged forwarding states, fewer or equal steps.
        let a: HashSet<_> = with.into_iter().collect();
        let b: HashSet<_> = without.into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1, "OSPF has a single converged forwarding state");
        assert!(with_stats.steps <= without_stats.steps);
        assert!(with_stats.pruned_inconsistent > 0);
    }

    #[test]
    fn stop_verdict_halts_the_search() {
        let g = disagree_gadget();
        let model = BgpModel::new(
            &g.network,
            g.destination,
            vec![g.origin],
            &FailureSet::none(),
            Arc::new(UniformUnderlay),
        );
        let por = BgpPor::from_model(&model);
        let checker = ModelChecker::new(
            &model,
            Box::new(por),
            SearchOptions::all_optimizations(),
            FailureSet::none(),
        );
        let mut seen = 0;
        let stats = checker.run(&mut |_, _| {
            seen += 1;
            Verdict::Stop
        });
        assert_eq!(seen, 1);
        assert_eq!(stats.converged_states, 1);
    }

    #[test]
    fn policy_pruning_finishes_early_with_sources() {
        let s = ring_ospf(8);
        let model = OspfModel::new(
            &s.network,
            s.destination,
            vec![s.origin],
            &FailureSet::none(),
        );
        // Source = the origin's immediate neighbor: its decision comes after
        // a single step, so the pruned run is much shorter.
        let source = s.ring.routers[1];
        let (states, stats) = collect_converged(
            &model,
            Box::new(OspfPor),
            SearchOptions::all_optimizations().with_sources(vec![source]),
        );
        assert_eq!(states.len(), 1);
        assert!(stats.pruned_by_policy > 0);
        assert!(
            stats.steps < 7,
            "policy pruning should finish after the source decides (took {} steps)",
            stats.steps
        );
        assert!(states[0][source.index()].is_some());
    }

    #[test]
    fn trail_records_nondeterministic_choices() {
        let g = disagree_gadget();
        let model = BgpModel::new(
            &g.network,
            g.destination,
            vec![g.origin],
            &FailureSet::none(),
            Arc::new(UniformUnderlay),
        );
        let por = BgpPor::from_model(&model);
        let checker = ModelChecker::new(
            &model,
            Box::new(por),
            SearchOptions::all_optimizations(),
            FailureSet::none(),
        );
        let mut trails = Vec::new();
        checker.run(&mut |_, trail| {
            trails.push(trail.clone());
            Verdict::Continue
        });
        assert!(!trails.is_empty());
        // Each trail replays to its converged state's length.
        for t in &trails {
            assert!(!t.is_empty());
            assert!(t.nondeterministic_steps() > 0);
        }
    }

    /// An origin (node 0), two relays (1, 2) listening to it, and `leaves`
    /// nodes listening to both relays that rank the two routes equal. Once
    /// the relays decide, the leaves are independent and each has two tied
    /// updates: decision independence branches over them.
    struct TiedLeaves(usize);

    impl ProtocolModel for TiedLeaves {
        fn node_count(&self) -> usize {
            3 + self.0
        }
        fn origins(&self) -> &[NodeId] {
            &[NodeId(0)]
        }
        fn peers(&self, n: NodeId) -> &[NodeId] {
            match n.0 {
                0 => &[],
                1 | 2 => &[NodeId(0)],
                _ => &[NodeId(1), NodeId(2)],
            }
        }
        fn advertise(&self, from: NodeId, to: NodeId, r: &Route) -> Option<Route> {
            (!r.traverses(to)).then(|| r.extended_through(from))
        }
        fn origin_route(&self, _o: NodeId) -> Route {
            Route::originated(Prefix::DEFAULT)
        }
        fn prefer(&self, _n: NodeId, a: &Route, b: &Route) -> Preference {
            match a.hop_count().cmp(&b.hop_count()) {
                std::cmp::Ordering::Less => Preference::Better,
                std::cmp::Ordering::Greater => Preference::Worse,
                std::cmp::Ordering::Equal => Preference::Tied,
            }
        }
        fn name(&self) -> &'static str {
            "tied-leaves"
        }
    }

    /// Always "step the first enabled node's first update".
    struct FirstUpdate;

    impl PorHeuristic for FirstUpdate {
        fn pick(
            &mut self,
            _state: &RpvpState,
            enabled: &EnabledView<'_>,
            _decided: &[bool],
            _interner: &RouteInterner,
        ) -> PorDecision {
            enabled
                .first()
                .map_or(PorDecision::BranchAll, |c| PorDecision::Deterministic {
                    node: c.node,
                    update: 0,
                })
        }
    }

    #[test]
    fn a_pick_on_the_first_node_does_not_replace_independence_branching() {
        // `pick` names the first enabled node but not independence's
        // decision for it (it has two tied updates), so the search must
        // still run and branch: the order the reference explorer asks in.
        let leaves = 3;
        let model = TiedLeaves(leaves);
        let options = SearchOptions::all_optimizations();
        let (states, stats) = collect_converged(&model, Box::new(FirstUpdate), options.clone());
        let reference = crate::ReferenceChecker::new(
            &model,
            Box::new(FirstUpdate),
            options,
            FailureSet::none(),
        )
        .run(&mut |_, _| Verdict::Continue);
        assert_eq!(states.len(), 1 << leaves);
        assert_eq!(
            stats.without_incremental_counters(),
            reference.without_incremental_counters()
        );
    }

    /// A symmetric peer graph routed by hop count, ties left to branching.
    struct HopGraph(Vec<Vec<NodeId>>);

    impl ProtocolModel for HopGraph {
        fn node_count(&self) -> usize {
            self.0.len()
        }
        fn origins(&self) -> &[NodeId] {
            &[NodeId(0)]
        }
        fn peers(&self, n: NodeId) -> &[NodeId] {
            &self.0[n.index()]
        }
        fn advertise(&self, from: NodeId, to: NodeId, r: &Route) -> Option<Route> {
            TiedLeaves(0).advertise(from, to, r)
        }
        fn origin_route(&self, o: NodeId) -> Route {
            TiedLeaves(0).origin_route(o)
        }
        fn prefer(&self, n: NodeId, a: &Route, b: &Route) -> Preference {
            TiedLeaves(0).prefer(n, a, b)
        }
        fn name(&self) -> &'static str {
            "hop-graph"
        }
    }

    #[test]
    fn branching_searches_match_the_reference_on_random_graphs() {
        // Branch points undo steps, so the dependence witness must follow
        // every undo: a stale pair would skip a search that finds
        // independence, and the tree would differ from the reference's.
        let mut x = 0x5851_F42D_4C95_7F2Du64;
        let mut below = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let mut branch_points = 0;
        for _ in 0..400 {
            let n = 3 + below(5);
            let mut peers = vec![Vec::new(); n];
            for _ in 0..n + below(n) {
                let (a, b) = (below(n), below(n));
                if a != b && !peers[a].contains(&NodeId(b as u32)) {
                    peers[a].push(NodeId(b as u32));
                    peers[b].push(NodeId(a as u32));
                }
            }
            for p in &mut peers {
                p.sort();
            }
            let model = HopGraph(peers);
            let options = SearchOptions::all_optimizations();
            for por in [0, 1] {
                let heuristic = || -> Box<dyn PorHeuristic> {
                    if por == 0 {
                        Box::new(NoPor)
                    } else {
                        Box::new(FirstUpdate)
                    }
                };
                let (_, stats) = collect_converged(&model, heuristic(), options.clone());
                let reference = crate::ReferenceChecker::new(
                    &model,
                    heuristic(),
                    options.clone(),
                    FailureSet::none(),
                )
                .run(&mut |_, _| Verdict::Continue);
                assert_eq!(
                    stats.without_incremental_counters(),
                    reference.without_incremental_counters(),
                    "{:?} heuristic {por}",
                    model.0
                );
                branch_points += stats.branch_points;
            }
        }
        assert!(branch_points > 1000, "{branch_points} branch points");
    }

    #[test]
    fn influence_set_limits_execution() {
        let s = ring_ospf(6);
        let model = OspfModel::new(
            &s.network,
            s.destination,
            vec![s.origin],
            &FailureSet::none(),
        );
        let rpvp = Rpvp::new(&model);
        let (mut allowed, mut frontier) = (Vec::new(), Vec::new());
        let sources = Some(&[s.ring.routers[2]][..]);
        let eligible: Vec<bool> =
            eligible_nodes(&rpvp, sources, &mut allowed, &mut frontier).collect();
        // The ring is connected, so everything can influence the source, and
        // every node but the origin may step.
        assert!(allowed.iter().all(|&a| a));
        assert_eq!(eligible.iter().filter(|&&e| !e).count(), 1);
        assert!(!eligible[s.origin.index()]);
    }
}
