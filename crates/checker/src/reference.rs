//! The pre-incremental explorer, kept for differential testing.
//!
//! [`ReferenceChecker`] is the clone-based depth-first search the checker
//! shipped with before the incremental rewrite: it recomputes the full
//! enabled set from scratch at every step and clones the whole `RpvpState`
//! (and the `decided` vector) at every branch alternative. It is
//! deliberately **not** optimized — its only job is to define the behavior
//! the incremental [`ModelChecker`](crate::ModelChecker) must reproduce
//! exactly: identical converged states, identical trails, and identical
//! [`SearchStats`] (modulo the incremental-only observability counters,
//! which stay 0 here; see [`SearchStats::without_incremental_counters`]).
//!
//! Both explorers now share the handle-native RPVP layer (routes interned
//! at generation time). So that `interned_routes` and `approx_memory_bytes`
//! stay byte-identical between them, the reference restricts the enabled
//! computation to the *same eligible nodes* the incremental explorer
//! maintains (non-origins allowed by influence pruning) **before** deriving
//! candidate routes — a post-filter would intern advertisements for
//! disallowed nodes that the incremental explorer never evaluates.
//!
//! One deliberate deviation from the seed: the seed leaked deterministic
//! trail events of abandoned sibling branches into emitted trails (frames
//! never popped them on exit). Both explorers now discard a frame's
//! deterministic events when the frame exits, so trails are exactly the
//! live DFS path — the fix is applied to both in lockstep, keeping the
//! differential tests byte-identical.

use crate::explorer::{influence_set, Verdict};
use crate::options::SearchOptions;
use crate::por::{
    decision_independent, updates_from_decided, DiScratch, PorDecision, PorHeuristic,
};
use crate::scratch::SearchScratch;
use crate::stats::SearchStats;
use crate::trail::Trail;
use crate::visited::state_hash;
use plankton_net::failure::FailureSet;
use plankton_net::topology::NodeId;
use plankton_protocols::rpvp::{ConvergedState, EnabledChoice, EnabledView, Rpvp, RpvpState};
use plankton_protocols::ProtocolModel;

/// The pre-change explicit-state model checker (see module docs).
pub struct ReferenceChecker<'m> {
    rpvp: Rpvp<'m>,
    por: Box<dyn PorHeuristic + 'm>,
    options: SearchOptions,
    /// A fresh scratch per checker: only its interner and visited set are
    /// used.
    scratch: SearchScratch,
    stats: SearchStats,
    trail: Trail,
    /// Nodes the search may evaluate: non-origins allowed by influence
    /// pruning — the same mask as the incremental explorer's eligibility.
    eligible: Vec<bool>,
    sources: Option<Vec<NodeId>>,
    stop: bool,
    di_scratch: DiScratch,
}

impl<'m> ReferenceChecker<'m> {
    /// Build a reference checker for `model` under `failures`.
    pub fn new(
        model: &'m dyn ProtocolModel,
        por: Box<dyn PorHeuristic + 'm>,
        options: SearchOptions,
        failures: FailureSet,
    ) -> Self {
        let mut options = options.effective();
        let mut scratch = SearchScratch::new();
        scratch.prepare(&options);
        // Moved out of the run path, mirroring the incremental explorer.
        let sources = options.source_nodes.take();
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
        ReferenceChecker {
            rpvp,
            por,
            options,
            scratch,
            stats: SearchStats::default(),
            trail: Trail::new(failures),
            eligible,
            sources,
            stop: false,
            di_scratch: DiScratch::new(),
        }
    }

    /// Run the exhaustive search, invoking `callback` on every converged
    /// state. Returns the search statistics.
    pub fn run<F>(mut self, callback: &mut F) -> SearchStats
    where
        F: FnMut(&ConvergedState<'_>, &Trail) -> Verdict,
    {
        let mut state = self.rpvp.initial_state(&mut self.scratch.interner);
        let mut decided = vec![false; self.rpvp.model().node_count()];
        for &o in self.rpvp.model().origins() {
            decided[o.index()] = true;
        }
        self.dfs(&mut state, &mut decided, 0, callback);
        let scratch = &self.scratch;
        self.stats.interned_routes = scratch.interner.len() as u64;
        self.stats.visited_states = scratch.visited.len() as u64;
        self.stats.approx_memory_bytes =
            (scratch.interner.approx_bytes() + scratch.visited.approx_bytes()) as u64;
        self.stats
    }

    /// The full enabled set, recomputed from scratch (the reference's
    /// defining inefficiency), restricted to the eligible nodes.
    fn enabled(&mut self, state: &RpvpState) -> Vec<EnabledChoice> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for i in 0..self.eligible.len() {
            if !self.eligible[i] {
                continue;
            }
            if let Some(choice) = self.rpvp.enabled_at_with(
                state,
                &mut self.scratch.interner,
                NodeId(i as u32),
                &mut scratch,
            ) {
                out.push(choice);
            }
        }
        out
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
        let converged = ConvergedState::new(&state.best, &self.scratch.interner);
        if callback(&converged, &self.trail) == Verdict::Stop {
            self.stop = true;
        }
    }

    fn apply(
        &mut self,
        state: &mut RpvpState,
        decided: &mut [bool],
        node: NodeId,
        peer: Option<NodeId>,
        deterministic: bool,
    ) {
        self.rpvp
            .step(state, &mut self.scratch.interner, node, peer);
        if peer.is_some() {
            decided[node.index()] = true;
        }
        self.trail.push(node, peer, deterministic);
        self.stats.steps += 1;
        if deterministic {
            self.stats.deterministic_steps += 1;
        }
    }

    fn dfs<F>(&mut self, state: &mut RpvpState, decided: &mut [bool], depth: u64, callback: &mut F)
    where
        F: FnMut(&ConvergedState<'_>, &Trail) -> Verdict,
    {
        // Deterministic steps applied inside this frame push trail events
        // that belong to the frame; discard them when the frame exits so
        // abandoned sibling branches never leak events into later trails
        // (the fix mirrors the incremental explorer popping the trail in
        // `undo_one`).
        let trail_mark = self.trail.len();
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

            let enabled = self.enabled(state);

            if self.options.consistent_executions {
                let inconsistent = enabled.iter().any(|c| c.invalid || state.has_route(c.node));
                if inconsistent {
                    self.stats.pruned_inconsistent += 1;
                    break;
                }
            }

            if self.options.policy_pruning && self.all_sources_decided(state) {
                self.stats.pruned_by_policy += 1;
                self.emit(state, callback);
                break;
            }

            if enabled.is_empty() {
                self.emit(state, callback);
                break;
            }

            let view = EnabledView::Slice(&enabled);
            // Condition (a) of decision independence is tested here, not
            // assumed: the oracle for the invariant the explorer relies on.
            let search = self.options.decision_independence && updates_from_decided(&view, decided);
            let decision = if search {
                decision_independent(self.rpvp.model(), &view, decided, &mut self.di_scratch)
            } else {
                None
            }
            .unwrap_or_else(|| {
                if self.options.deterministic_nodes {
                    self.por.pick(state, &view, decided, &self.scratch.interner)
                } else {
                    PorDecision::BranchAll
                }
            });

            match decision {
                PorDecision::Deterministic { node, update } => {
                    let c = view.get_node(node).expect("deterministic node is enabled");
                    let peer = c.best_updates.get(update).map(|&(p, _)| p);
                    self.apply(state, decided, node, peer, true);
                    depth += 1;
                    continue;
                }
                PorDecision::BranchUpdates { node } => {
                    let c = view.get_node(node).expect("branch node is enabled").clone();
                    self.branch(state, decided, depth, callback, &[c], false);
                    break;
                }
                PorDecision::BranchAll => {
                    self.branch(state, decided, depth, callback, &enabled, true);
                    break;
                }
            }
        }
        self.trail.truncate(trail_mark);
    }

    fn branch<F>(
        &mut self,
        state: &RpvpState,
        decided: &[bool],
        depth: u64,
        callback: &mut F,
        choices: &[EnabledChoice],
        include_clears: bool,
    ) where
        F: FnMut(&ConvergedState<'_>, &Trail) -> Verdict,
    {
        self.stats.branch_points += 1;
        for choice in choices {
            let mut alternatives: Vec<Option<NodeId>> =
                choice.best_updates.iter().map(|&(p, _)| Some(p)).collect();
            if alternatives.is_empty() && include_clears && choice.invalid {
                alternatives.push(None);
            }
            for peer in alternatives {
                if self.stop {
                    return;
                }
                self.stats.branches += 1;
                let mut child = state.clone();
                let mut child_decided = decided.to_vec();
                self.apply(&mut child, &mut child_decided, choice.node, peer, false);
                // The state is already handle-native — no re-interning pass.
                let scratch = &mut self.scratch;
                let hash = state_hash(&child.best);
                if !scratch.visited.insert(&child.best, hash, &scratch.interner) {
                    self.stats.pruned_visited += 1;
                    self.trail.pop();
                    continue;
                }
                self.dfs(&mut child, &mut child_decided, depth + 1, callback);
                self.trail.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::por::OspfPor;
    use plankton_config::scenarios::ring_ospf;
    use plankton_protocols::ospf::OspfModel;

    #[test]
    fn reference_checker_finds_the_ring_converged_state() {
        let s = ring_ospf(6);
        let model = OspfModel::new(
            &s.network,
            s.destination,
            vec![s.origin],
            &FailureSet::none(),
        );
        let checker = ReferenceChecker::new(
            &model,
            Box::new(OspfPor),
            SearchOptions::all_optimizations(),
            FailureSet::none(),
        );
        let mut states = Vec::new();
        let stats = checker.run(&mut |c, _| {
            states.push(c.to_routes());
            Verdict::Continue
        });
        assert_eq!(states.len(), 1);
        assert!(stats.deterministic_steps > 0);
        assert_eq!(stats.enabled_recomputed_nodes, 0, "reference has no deltas");
        assert_eq!(stats.undo_depth_max, 0, "reference has no undo stack");
    }
}
