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
//!   through the one advertisement `n` now sends it: `n` is recomputed and
//!   each reverse peer's cached entry is patched for that single edge
//!   ([`IncrementalEnabled`](plankton_protocols::IncrementalEnabled)),
//!   instead of calling `Rpvp::enabled()` from scratch every iteration.
//! * **Apply/undo DFS** — steps are applied in place and reverted from a
//!   compact undo stack ([`UndoStack`](crate::UndoStack)), eliminating the
//!   full `RpvpState` clone plus `decided.to_vec()` per branch alternative.
//! * **Handle-native states** — routes are interned by the enabled-set
//!   computation itself
//!   ([`RouteInterner`](plankton_protocols::RouteInterner) threaded below
//!   the RPVP layer), so the state is a flat vector of handles: a step is
//!   an integer swap (no route clone, no lazily-synced handle mirror), an
//!   undo frame is `Copy`, and a visited-set check is a direct handle
//!   comparison with no re-interning pass.
//! * **Borrowed converged states** — the callback receives a
//!   [`ConvergedState`] view of the live handle vector and the interner, so
//!   an emit copies nothing; what the caller keeps past the callback, it
//!   copies itself.
//!
//! All per-run scratch — visited set, undo stack, interner, branch-snapshot
//! buffers — lives in a [`ScratchParts`](crate::scratch::ScratchParts)
//! bundle that a worker threads from run to run via
//! [`SearchScratch`](crate::SearchScratch), so steady-state runs allocate
//! nothing on the step path.

use crate::options::SearchOptions;
use crate::por::{decision_independent, DiScratch, PorDecision, PorHeuristic};
use crate::scratch::{ScratchParts, SnapshotPool};
use crate::stats::SearchStats;
use crate::trail::Trail;
use crate::undo::{UndoFrame, UndoStack};
use crate::visited::VisitedSet;
use plankton_net::failure::FailureSet;
use plankton_net::topology::NodeId;
use plankton_protocols::rpvp::{
    ConvergedState, EnabledChoice, IncrementalEnabled, Rpvp, RpvpState,
};
use plankton_protocols::{ProtocolModel, RouteHandle, RouteInterner};

/// Fold one finished search into the process-global metrics. Handles are
/// resolved once and cached: this runs once per (PEC-component × failure
/// scenario) task, and must stay off the per-step path entirely.
fn record_run_metrics(stats: &SearchStats, edge_updates: u64) {
    use std::sync::OnceLock;
    static STEPS: OnceLock<std::sync::Arc<plankton_telemetry::Counter>> = OnceLock::new();
    static EDGE_UPDATES: OnceLock<std::sync::Arc<plankton_telemetry::Counter>> = OnceLock::new();
    static FULL_RECOMPUTES: OnceLock<std::sync::Arc<plankton_telemetry::Counter>> = OnceLock::new();
    static UNDO_DEPTH: OnceLock<std::sync::Arc<plankton_telemetry::Gauge>> = OnceLock::new();
    let registry = plankton_telemetry::metrics::global();
    STEPS
        .get_or_init(|| {
            registry.counter(
                "plankton_rpvp_steps_total",
                "RPVP transitions applied by the model checker.",
            )
        })
        .add(stats.steps);
    EDGE_UPDATES
        .get_or_init(|| {
            registry.counter(
                "plankton_enabled_edge_updates_total",
                "Enabled-set entries patched for the one advertisement a step changed.",
            )
        })
        .add(edge_updates);
    FULL_RECOMPUTES
        .get_or_init(|| {
            registry.counter(
                "plankton_enabled_full_recomputes_total",
                "Enabled-set entries re-derived from every peer's advertisement.",
            )
        })
        .add(stats.enabled_recomputed_nodes);
    UNDO_DEPTH
        .get_or_init(|| {
            registry.gauge(
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

/// The explicit-state model checker for one protocol instance.
pub struct ModelChecker<'m> {
    rpvp: Rpvp<'m>,
    por: Box<dyn PorHeuristic + 'm>,
    options: SearchOptions,
    interner: RouteInterner,
    visited: VisitedSet,
    stats: SearchStats,
    trail: Trail,
    sources: Option<Vec<NodeId>>,
    stop: bool,
    /// Delta-maintained enabled set (already restricted to allowed
    /// non-origin nodes, iterated in node-id order).
    enabled: IncrementalEnabled,
    /// The apply/undo stack (reusable across runs via
    /// [`SearchScratch`](crate::SearchScratch)).
    undo: UndoStack,
    /// Pooled buffers for branch-point enabled-set snapshots.
    snapshots: SnapshotPool,
    /// Reusable buffers for the decision-independence reachability search.
    di_scratch: DiScratch,
}

impl<'m> ModelChecker<'m> {
    /// Build a checker for `model` under `failures` (already applied when the
    /// model was constructed; recorded here only for the trail).
    pub fn new(
        model: &'m dyn ProtocolModel,
        por: Box<dyn PorHeuristic + 'm>,
        options: SearchOptions,
        failures: FailureSet,
    ) -> Self {
        let parts = ScratchParts::fresh(&options);
        Self::new_with_scratch(model, por, options, failures, parts)
    }

    /// Like [`ModelChecker::new`], but draws every reusable allocation —
    /// visited set, undo stack, interner, snapshot buffers — from `parts`
    /// (each cleared first): the zero-allocation path for
    /// [`SearchScratch`](crate::SearchScratch) reuse.
    pub fn new_with_scratch(
        model: &'m dyn ProtocolModel,
        por: Box<dyn PorHeuristic + 'm>,
        mut options: SearchOptions,
        failures: FailureSet,
        mut parts: ScratchParts,
    ) -> Self {
        parts.clear();
        // Hoist the source list out of the per-run options (the old code
        // cloned it on every run): the checker owns its options, so the
        // list is moved, not copied.
        let sources = options.source_nodes.take();
        // Influence pruning (§4.2) folds into the enabled set's eligibility
        // mask: disallowed nodes are never recomputed, never enabled.
        let allowed = if options.influence_pruning {
            sources.as_ref().map(|s| influence_set(model, s))
        } else {
            None
        };
        let rpvp = Rpvp::new(model);
        let n = model.node_count();
        let mut eligible: Vec<bool> = (0..n).map(|i| !rpvp.is_origin(NodeId(i as u32))).collect();
        if let Some(allowed) = &allowed {
            for (e, &a) in eligible.iter_mut().zip(allowed) {
                *e &= a;
            }
        }
        let enabled = IncrementalEnabled::new(model.reverse_peers(), eligible);
        ModelChecker {
            rpvp,
            por,
            options,
            interner: parts.interner,
            visited: parts.visited,
            stats: SearchStats::default(),
            trail: Trail::new(failures),
            sources,
            stop: false,
            enabled,
            undo: parts.undo,
            snapshots: parts.snapshots,
            di_scratch: DiScratch::new(),
        }
    }

    /// Run the exhaustive search, invoking `callback` on every converged
    /// state. Returns the search statistics.
    pub fn run<F>(self, callback: &mut F) -> SearchStats
    where
        F: FnMut(&ConvergedState<'_>, &Trail) -> Verdict,
    {
        self.run_returning(callback).0
    }

    /// Like [`ModelChecker::run`], but also hands back the scratch bundle so
    /// the caller can return it to a
    /// [`SearchScratch`](crate::SearchScratch) for the next run.
    pub fn run_returning<F>(mut self, callback: &mut F) -> (SearchStats, ScratchParts)
    where
        F: FnMut(&ConvergedState<'_>, &Trail) -> Verdict,
    {
        let mut state = self.rpvp.initial_state(&mut self.interner);
        let mut decided = vec![false; self.rpvp.model().node_count()];
        for &o in self.rpvp.model().origins() {
            decided[o.index()] = true;
        }
        {
            // Disjoint-field reborrow: `enabled` is rebuilt from `rpvp`.
            let (enabled, rpvp, interner) = (&mut self.enabled, &self.rpvp, &mut self.interner);
            enabled.rebuild(rpvp, &state, interner);
        }
        self.dfs(&mut state, &mut decided, 0, callback);
        self.stats.enabled_recomputed_nodes = self.enabled.recompute_count();
        // Run-scoped interner stats: the table may be warm from a previous
        // run on this worker, so report what a fresh interner would hold.
        self.stats.interned_routes = self.interner.run_interned();
        self.stats.visited_states = self.visited.len() as u64;
        self.stats.approx_memory_bytes =
            (self.interner.run_approx_bytes() + self.visited.approx_bytes()) as u64;
        record_run_metrics(&self.stats, self.enabled.edge_update_count());
        (
            self.stats,
            ScratchParts {
                visited: self.visited,
                undo: self.undo,
                interner: self.interner,
                snapshots: self.snapshots,
            },
        )
    }

    fn all_sources_decided(&self, state: &RpvpState) -> bool {
        match &self.sources {
            None => false,
            Some(sources) => {
                !sources.is_empty()
                    && sources
                        .iter()
                        .all(|s| state.has_route(*s) || self.rpvp.is_origin(*s))
            }
        }
    }

    fn emit<F>(&mut self, state: &RpvpState, callback: &mut F)
    where
        F: FnMut(&ConvergedState<'_>, &Trail) -> Verdict,
    {
        self.stats.converged_states += 1;
        let converged = ConvergedState::new(&state.best, &self.interner);
        if callback(&converged, &self.trail) == Verdict::Stop {
            self.stop = true;
        }
        if let Some(max) = self.options.max_converged_states {
            if self.stats.converged_states >= max as u64 {
                self.stop = true;
            }
        }
    }

    /// Apply one step in place, recording an undo frame: swap in the
    /// already-interned advertisement the enabled-set computation derived,
    /// and refresh the enabled set's dirty neighborhood.
    fn apply(
        &mut self,
        state: &mut RpvpState,
        decided: &mut [bool],
        node: NodeId,
        peer: Option<NodeId>,
        adopt: RouteHandle,
        deterministic: bool,
    ) {
        let idx = node.index();
        let prev_best = self.rpvp.step_adopting(state, &self.interner, node, adopt);
        let prev_decided = decided[idx];
        if peer.is_some() {
            decided[idx] = true;
        }
        let enabled_mark = self.undo.enabled_mark();
        self.enabled.refresh_after_step(
            &self.rpvp,
            state,
            &mut self.interner,
            node,
            prev_best,
            &mut self.undo.enabled_prev,
        );
        self.undo.push_frame(UndoFrame {
            node,
            prev_best,
            prev_decided,
            enabled_mark,
        });
        self.stats.undo_depth_max = self.stats.undo_depth_max.max(self.undo.depth() as u64);
        self.trail.push(node, peer, deterministic);
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
    fn undo_one(&mut self, state: &mut RpvpState, decided: &mut [bool]) {
        self.trail.pop();
        let frame = self.undo.pop_frame();
        while self.undo.enabled_prev.len() > frame.enabled_mark {
            let (m, prev) = self.undo.enabled_prev.pop().expect("mark within stack");
            self.enabled.set_entry(m, prev);
        }
        decided[frame.node.index()] = frame.prev_decided;
        self.rpvp.undo_step(state, frame.node, frame.prev_best);
    }

    fn unwind_to(&mut self, mark: usize, state: &mut RpvpState, decided: &mut [bool]) {
        while self.undo.depth() > mark {
            self.undo_one(state, decided);
        }
    }

    /// Record the state in the visited set. The state is already
    /// handle-native, so this is a direct lookup — no re-interning pass.
    fn insert_visited(&mut self, state: &RpvpState) -> bool {
        self.visited.insert(&state.best, &self.interner)
    }

    fn dfs<F>(&mut self, state: &mut RpvpState, decided: &mut [bool], depth: u64, callback: &mut F)
    where
        F: FnMut(&ConvergedState<'_>, &Trail) -> Verdict,
    {
        let undo_mark = self.undo.depth();
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
            // converged state, so abandon it.
            if self.options.consistent_executions {
                let inconsistent = self
                    .enabled
                    .view()
                    .iter()
                    .any(|c| c.invalid || state.has_route(c.node));
                if inconsistent {
                    self.stats.pruned_inconsistent += 1;
                    break;
                }
            }

            // Policy-based pruning (§4.2): once every source node has made
            // its decision the rest of the execution cannot change the
            // policy's verdict.
            if self.options.policy_pruning && self.all_sources_decided(state) {
                self.stats.pruned_by_policy += 1;
                self.emit(state, callback);
                break;
            }

            if self.enabled.is_empty() {
                self.emit(state, callback);
                break;
            }

            // Partial order reduction.
            let decision = if self.options.decision_independence {
                let view = self.enabled.view();
                decision_independent(self.rpvp.model(), &view, decided, &mut self.di_scratch)
            } else {
                None
            }
            .unwrap_or_else(|| {
                if self.options.deterministic_nodes {
                    self.por
                        .pick(state, &self.enabled.view(), decided, &self.interner)
                } else {
                    PorDecision::BranchAll
                }
            });

            match decision {
                PorDecision::Deterministic { node, update } => {
                    // Copy the (peer, handle) pair out before applying: both
                    // are `Copy`, so the enabled-set borrow ends here.
                    let (peer, adopt) = {
                        let c = self
                            .enabled
                            .view()
                            .get_node(node)
                            .expect("deterministic node is enabled");
                        match c.best_updates.get(update) {
                            Some(&(p, h)) => (Some(p), h),
                            None => (None, RouteHandle::NONE),
                        }
                    };
                    self.apply(state, decided, node, peer, adopt, true);
                    depth += 1;
                    continue;
                }
                PorDecision::BranchUpdates { node } => {
                    // The enabled set mutates during recursion, so branching
                    // snapshots the choices it iterates (branch points only —
                    // the deterministic fast path stays allocation-free).
                    let snapshot = [self
                        .enabled
                        .view()
                        .get_node(node)
                        .expect("branch node is enabled")
                        .clone()];
                    self.branch(state, decided, depth, callback, &snapshot, false);
                    break;
                }
                PorDecision::BranchAll => {
                    let mut snapshot = self.snapshots.pop();
                    snapshot.extend(self.enabled.view().iter().cloned());
                    self.branch(state, decided, depth, callback, &snapshot, true);
                    self.snapshots.push(snapshot);
                    break;
                }
            }
        }
        // Revert every deterministic step this frame applied.
        self.unwind_to(undo_mark, state, decided);
    }

    /// Branch over the given enabled choices: for each choice, one branch per
    /// best update (plus a clear-only branch for invalid paths when
    /// `include_clears` and the node has no usable update). Each alternative
    /// is applied in place, explored, and undone.
    fn branch<F>(
        &mut self,
        state: &mut RpvpState,
        decided: &mut [bool],
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
                self.apply(state, decided, choice.node, peer, adopt, false);
                // Visited-state detection at branch points only.
                if !self.insert_visited(state) {
                    self.stats.pruned_visited += 1;
                    self.undo_one(state, decided);
                    continue;
                }
                self.dfs(state, decided, depth + 1, callback);
                self.undo_one(state, decided);
            }
        }
    }
}

/// The set of nodes that can influence any of the `sources` through chains of
/// advertisements (§4.2): reverse reachability over the peer graph. Nodes
/// outside this set are not allowed to execute.
pub(crate) fn influence_set(model: &dyn ProtocolModel, sources: &[NodeId]) -> Vec<bool> {
    let n = model.node_count();
    let mut allowed = vec![false; n];
    let mut queue: std::collections::VecDeque<NodeId> = std::collections::VecDeque::new();
    for &s in sources {
        if s.index() < n && !allowed[s.index()] {
            allowed[s.index()] = true;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &p in model.peers(u) {
            if !allowed[p.index()] {
                allowed[p.index()] = true;
                queue.push_back(p);
            }
        }
    }
    allowed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::por::{BgpPor, NoPor, OspfPor};
    use plankton_config::scenarios::{disagree_gadget, ring_ospf};
    use plankton_protocols::bgp::{BgpModel, UniformUnderlay};
    use plankton_protocols::ospf::OspfModel;
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

    #[test]
    fn influence_set_limits_execution() {
        let s = ring_ospf(6);
        let model = OspfModel::new(
            &s.network,
            s.destination,
            vec![s.origin],
            &FailureSet::none(),
        );
        let allowed = influence_set(&model, &[s.ring.routers[2]]);
        // The ring is connected, so everything can influence the source.
        assert!(allowed.iter().all(|&a| a));
    }
}
