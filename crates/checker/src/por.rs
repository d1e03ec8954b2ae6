//! Partial order reduction heuristics (§4.1 of the paper).
//!
//! At every step the explorer asks a [`PorHeuristic`] what to do with the
//! enabled set:
//!
//! * [`PorDecision::Deterministic`] — one enabled node's pending update is
//!   provably its converged selection (Theorem 2 makes processing it without
//!   branching safe);
//! * [`PorDecision::BranchUpdates`] — one node's pending updates cannot be
//!   beaten by anything that could arrive later, but they tie among
//!   themselves: branch only over that node's updates;
//! * [`PorDecision::BranchAll`] — no reduction applies: branch over every
//!   enabled node and every one of its best updates.
//!
//! Decisions are keyed by *node id* (not positional index): the incremental
//! explorer's enabled set lives in per-node slots behind an
//! [`EnabledView`], where positions are not stable across mutations but
//! node lookups are O(1).
//!
//! [`OspfPor`] implements the paper's OSPF heuristic (process nodes in
//! shortest-path order — realized here as "the enabled node with the globally
//! cheapest pending update", which is the same Dijkstra greedy argument
//! without needing a separate cached computation). On the explorer's enabled
//! set that node is the top of a cost heap the set maintains
//! ([`EnabledView::cheapest`]), so the pick costs O(1) rather than a pass
//! over every entry. [`BgpPor`] implements the conservative BGP
//! decision-process walk: a pass over the enabled set that rates each node
//! against every peer that could still advertise to it. On the explorer's
//! enabled set a node's rating is cached and re-derived only when the set's
//! change stamps ([`EnabledView::clock`]) say a step or undo touched the
//! node, so the pass costs a few reads per entry rather than a dominance test
//! per update and peer. [`NoPor`] disables the optimization (Figure 8's
//! ablations).

use plankton_net::topology::NodeId;
use plankton_protocols::bgp::BgpModel;
use plankton_protocols::rpvp::{EnabledChoice, EnabledView, RpvpState};
use plankton_protocols::{ProtocolModel, Route, RouteInterner, SessionType};

/// What the explorer should do at the current state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PorDecision {
    /// Process `enabled-choice-of(node).best_updates[update]` without
    /// branching. An `update` index at or past the node's `best_updates`
    /// length denotes the clear-an-invalid-path step.
    Deterministic {
        /// The enabled node to step.
        node: NodeId,
        /// Index into that node's `best_updates`.
        update: usize,
    },
    /// Branch only over `node`'s best updates.
    BranchUpdates {
        /// The enabled node to branch over.
        node: NodeId,
    },
    /// Branch over every enabled node and all of its updates.
    BranchAll,
}

/// Per-node verdicts a heuristic's `pick` re-derived and reused (see
/// [`PorHeuristic::verdict_counts`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Verdicts derived because the node was stamped since the last one.
    pub recomputed: u64,
    /// Verdicts reused from an earlier pick.
    pub reused: u64,
}

/// A partial-order-reduction heuristic.
pub trait PorHeuristic: Sync {
    /// Decide how to treat the enabled set of `state`. `decided[n]` is true
    /// when node `n` has already made its (final, under consistent-execution
    /// pruning) best-path selection in the current execution. Routes inside
    /// the enabled choices are interned; resolve them through `interner`.
    /// A heuristic may keep what it derived about a node for later picks of
    /// the same search, valid while the view's change stamps allow.
    fn pick(
        &mut self,
        state: &RpvpState,
        enabled: &EnabledView<'_>,
        decided: &[bool],
        interner: &RouteInterner,
    ) -> PorDecision;

    /// Does `pick` read [`EnabledView::cheapest`]? The explorer keeps its
    /// enabled set's cost heap only for a heuristic that does.
    fn reads_cost_heap(&self) -> bool {
        false
    }

    /// Does `pick` read [`EnabledView::clock`]? The explorer keeps its
    /// enabled set's change stamps only for a heuristic that does.
    fn reads_change_stamps(&self) -> bool {
        false
    }

    /// The per-node verdicts `pick` re-derived and reused so far (zero for a
    /// heuristic that caches none).
    fn verdict_counts(&self) -> VerdictCounts {
        VerdictCounts::default()
    }
}

/// No reduction: always branch over everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoPor;

impl PorHeuristic for NoPor {
    fn pick(
        &mut self,
        _state: &RpvpState,
        _enabled: &EnabledView<'_>,
        _decided: &[bool],
        _interner: &RouteInterner,
    ) -> PorDecision {
        PorDecision::BranchAll
    }
}

/// The OSPF heuristic: shortest-path protocols admit a Dijkstra argument —
/// among all pending updates, the one with the globally minimal cost can
/// never be displaced by a later advertisement, so its node is
/// deterministic.
///
/// The argument needs every link cost to be **positive** (RFC 2328 App.
/// C.3): at cost 0 an equal-cost path with fewer hops — which OSPF's ranking
/// prefers — can arrive after the node has stepped. `Network::validate`
/// refuses such configurations, and `OspfAdjacency::new` asserts it in debug
/// builds.
///
/// The pick is the first cheapest update in enabled (node-id) order, with
/// invalid-only entries last. On the explorer's enabled set it is read off
/// the cost heap in O(1) ([`EnabledView::cheapest`]); on a view without one
/// it is a scan, and debug builds check the heap against the scan at every
/// decision.
#[derive(Clone, Copy, Debug, Default)]
pub struct OspfPor;

impl OspfPor {
    /// The pick by a pass over every pending update.
    fn scan(enabled: &EnabledView<'_>, interner: &RouteInterner) -> PorDecision {
        let mut best: Option<(NodeId, usize, u64)> = None;
        for choice in enabled.iter() {
            for (ui, &(_, handle)) in choice.best_updates.iter().enumerate() {
                let cost = interner
                    .resolve(handle)
                    .map(|r| r.igp_cost)
                    .unwrap_or(u64::MAX);
                if best.map(|(_, _, c)| cost < c).unwrap_or(true) {
                    best = Some((choice.node, ui, cost));
                }
            }
        }
        match best {
            Some((node, update, _)) => PorDecision::Deterministic { node, update },
            // Only invalid-path clears are pending: processing any of them is
            // order-independent (`update: 0` past an empty best_updates list
            // denotes the clear step).
            None => match enabled.first() {
                Some(c) => PorDecision::Deterministic {
                    node: c.node,
                    update: 0,
                },
                None => PorDecision::BranchAll,
            },
        }
    }
}

impl PorHeuristic for OspfPor {
    fn pick(
        &mut self,
        _state: &RpvpState,
        enabled: &EnabledView<'_>,
        _decided: &[bool],
        interner: &RouteInterner,
    ) -> PorDecision {
        let Some(choice) = enabled.cheapest() else {
            return Self::scan(enabled, interner);
        };
        // The entry's first update at its least cost (index 0 past an empty
        // list is the clear step).
        let update = choice
            .best_updates
            .iter()
            .position(|&(_, h)| interner.resolve(h).map(|r| r.igp_cost) == Some(choice.least_cost))
            .unwrap_or(0);
        let picked = PorDecision::Deterministic {
            node: choice.node,
            update,
        };
        debug_assert_eq!(
            picked,
            Self::scan(enabled, interner),
            "the cost heap's pick differs from the scan"
        );
        picked
    }

    fn reads_cost_heap(&self) -> bool {
        true
    }
}

/// How a pending update compares against everything that could still arrive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dominance {
    /// Strictly preferred over every present and possible future alternative.
    StrictWinner,
    /// At least as preferred as every alternative, but a decided peer's
    /// may tie.
    TiedWinner,
    /// Could be beaten by a future advertisement.
    Unknown,
}

/// What [`BgpPor::pick`] needs to know about one enabled node with pending
/// updates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct NodeVerdict {
    /// A single pending update that strictly dominates everything that
    /// could still arrive: the node is deterministic.
    strict_single: bool,
    /// No pending update can be beaten (ties allowed).
    all_known: bool,
}

/// The conservative BGP deterministic-node detector (§4.1.2).
///
/// A node's [`NodeVerdict`] reads only its enabled entry and, for each peer
/// it listens to, that peer's route and `decided` bit. A step or undo at `x`
/// changes those inputs for `x` and its reverse peers only — the nodes the
/// explorer's enabled set stamps ([`EnabledView::changed_at`]). So on a view
/// with change stamps each verdict is kept with the clock it was derived at
/// and re-derived only when its node was stamped since; the pick is the
/// same node-order pass either way. A view without stamps (the reference
/// explorer's) gets the full pass, and debug builds compare the two at
/// every decision.
pub struct BgpPor {
    /// The highest LOCAL_PREF any import policy could assign.
    max_local_pref: u32,
    /// Per node, the minimum AS-path length any route for this prefix could
    /// ever have when held by that node.
    min_as_dist: Vec<u32>,
    /// Per node, its BGP peers with (is_ebgp, igp_cost, can_threaten) — the
    /// fixed parts of the optimistic bound for updates from that peer.
    /// `can_threaten` is false for iBGP peers that can never produce an
    /// advertisement (no eBGP sessions, not an origin): split horizon stops
    /// them from re-advertising iBGP-learned routes.
    peer_bounds: Vec<Vec<(NodeId, bool, u64, bool)>>,
    /// Per node, its last verdict and the view clock it was derived at (0:
    /// never derived; clocks start at 1).
    verdicts: Vec<(u64, NodeVerdict)>,
    /// Verdicts re-derived and reused by cached picks.
    counts: VerdictCounts,
}

impl BgpPor {
    /// Precompute the bounds for a BGP model instance.
    pub fn from_model(model: &BgpModel) -> Self {
        let max_local_pref = model.max_import_local_pref_global();
        let min_as_dist = model.min_as_path_distances();
        let mut peer_bounds = Vec::with_capacity(model.node_count());
        for i in 0..model.node_count() {
            let n = NodeId(i as u32);
            let bounds = model
                .peers(n)
                .iter()
                .map(|&p| {
                    let is_ebgp = matches!(
                        model.session_kind(n, p),
                        Some(plankton_config::bgp::BgpSessionKind::Ebgp)
                    );
                    let can_threaten =
                        is_ebgp || model.origins().contains(&p) || model.has_ebgp_session(p);
                    (p, is_ebgp, model.underlay_cost(n, p), can_threaten)
                })
                .collect();
            peer_bounds.push(bounds);
        }
        BgpPor {
            max_local_pref,
            min_as_dist,
            peer_bounds,
            verdicts: vec![(0, NodeVerdict::default()); model.node_count()],
            counts: VerdictCounts::default(),
        }
    }

    /// BGP decision-process comparison on (local_pref, as_path_len,
    /// is_ebgp, igp_cost) tuples. Returns `Greater` when `a` is preferred.
    fn compare(a: (u32, u32, bool, u64), b: (u32, u32, bool, u64)) -> std::cmp::Ordering {
        a.0.cmp(&b.0) // higher local pref preferred
            .then_with(|| b.1.cmp(&a.1)) // shorter AS path preferred
            .then_with(|| a.2.cmp(&b.2)) // eBGP preferred over iBGP
            .then_with(|| b.3.cmp(&a.3)) // lower IGP cost preferred
    }

    fn route_key(route: &Route) -> (u32, u32, bool, u64) {
        (
            route.attrs.local_pref,
            route.attrs.as_path_len() as u32,
            route.learned_via == SessionType::Ebgp,
            route.igp_cost,
        )
    }

    /// How does the pending update `update` at `node` fare against the best
    /// alternative any other peer could still provide?
    fn dominance(
        &self,
        state: &RpvpState,
        interner: &RouteInterner,
        decided: &[bool],
        node: NodeId,
        from_peer: NodeId,
        update: &Route,
    ) -> Dominance {
        let update_key = Self::route_key(update);
        let mut result = Dominance::StrictWinner;
        for &(peer, is_ebgp, igp, can_threaten) in &self.peer_bounds[node.index()] {
            if peer == from_peer {
                continue;
            }
            if !can_threaten && !decided[peer.index()] {
                // An iBGP-only, non-originating peer can never advertise.
                continue;
            }
            // The most preferred route this peer could ever hand us. Peers
            // that have already decided can only offer what their selected
            // path exports; we bound that by its current key (attribute
            // rewrites on export/import are already reflected in what the
            // enabled-set computation saw, so the coarse bound here is the
            // peer's own selection "one eBGP hop closer").
            let alternative = if decided[peer.index()] {
                match state.best(peer, interner) {
                    None => continue, // a decided peer with no route is no threat
                    Some(peer_best) => (
                        self.max_local_pref_for(is_ebgp, peer_best),
                        peer_best.attrs.as_path_len() as u32 + if is_ebgp { 1 } else { 0 },
                        is_ebgp,
                        igp,
                    ),
                }
            } else {
                (
                    self.max_local_pref,
                    self.min_as_dist
                        .get(peer.index())
                        .copied()
                        .unwrap_or(u32::MAX)
                        .saturating_add(if is_ebgp { 1 } else { 0 }),
                    is_ebgp,
                    igp,
                )
            };
            match Self::compare(update_key, alternative) {
                std::cmp::Ordering::Greater => {}
                // A tie with an undecided peer is a route that may arrive
                // later and would have to be branched over here; which of
                // the two is seen first must not depend on node ids.
                std::cmp::Ordering::Equal if !decided[peer.index()] => return Dominance::Unknown,
                std::cmp::Ordering::Equal => {
                    if result == Dominance::StrictWinner {
                        result = Dominance::TiedWinner;
                    }
                }
                std::cmp::Ordering::Less => return Dominance::Unknown,
            }
        }
        result
    }

    fn max_local_pref_for(&self, is_ebgp: bool, peer_best: &Route) -> u32 {
        if is_ebgp {
            // Import policy may raise it up to the network-wide maximum.
            self.max_local_pref
        } else {
            // iBGP carries the peer's local pref unchanged (import maps could
            // still raise it; stay conservative).
            self.max_local_pref.max(peer_best.attrs.local_pref)
        }
    }

    /// Rate an enabled node with pending updates, streamed per update: an
    /// `Unknown` verdict short-circuits the node's remaining updates (it can
    /// neither be a strict singleton nor all-known).
    fn verdict(
        &self,
        state: &RpvpState,
        interner: &RouteInterner,
        decided: &[bool],
        choice: &EnabledChoice,
    ) -> NodeVerdict {
        let mut first = Dominance::Unknown;
        let mut all_known = true;
        for (ui, &(peer, handle)) in choice.best_updates.iter().enumerate() {
            let Some(route) = interner.resolve(handle) else {
                all_known = false;
                break;
            };
            let d = self.dominance(state, interner, decided, choice.node, peer, route);
            if ui == 0 {
                first = d;
            }
            if d == Dominance::Unknown {
                all_known = false;
                break;
            }
        }
        NodeVerdict {
            strict_single: choice.best_updates.len() == 1 && first == Dominance::StrictWinner,
            all_known,
        }
    }

    /// The decision from the verdicts of the enabled nodes with pending
    /// updates, in node-id order (consumed only up to a deterministic node).
    fn decide<'c>(verdicts: impl Iterator<Item = (&'c EnabledChoice, NodeVerdict)>) -> PorDecision {
        // First pass: a node with a single pending update that strictly
        // dominates everything else is deterministic.
        let mut tied_candidate: Option<(NodeId, usize)> = None;
        for (choice, verdict) in verdicts {
            if verdict.strict_single {
                return PorDecision::Deterministic {
                    node: choice.node,
                    update: 0,
                };
            }
            if tied_candidate.is_none() && verdict.all_known {
                tied_candidate = Some((choice.node, choice.best_updates.len()));
            }
        }
        // Second pass: a node whose (possibly multiple) pending updates
        // cannot be beaten, only tied — branch over exactly those updates.
        if let Some((node, updates)) = tied_candidate {
            if updates == 1 {
                // A single unbeatable-but-tieable update. Ties are only with
                // decided peers (a tie with an undecided one is `Unknown`),
                // and a decided peer's best never changes, so an
                // advertisement of its that truly ties is already pending
                // here — among `best_updates`, which holds just this one.
                // No route this node can still receive beats or ties it:
                // stepping it is the only choice.
                return PorDecision::Deterministic { node, update: 0 };
            }
            return PorDecision::BranchUpdates { node };
        }
        PorDecision::BranchAll
    }

    /// The pick with every verdict derived afresh.
    fn full_pass(
        &self,
        state: &RpvpState,
        enabled: &EnabledView<'_>,
        decided: &[bool],
        interner: &RouteInterner,
    ) -> PorDecision {
        Self::decide(
            enabled
                .iter()
                .filter(|c| !c.best_updates.is_empty())
                .map(|c| (c, self.verdict(state, interner, decided, c))),
        )
    }
}

impl PorHeuristic for BgpPor {
    fn pick(
        &mut self,
        state: &RpvpState,
        enabled: &EnabledView<'_>,
        decided: &[bool],
        interner: &RouteInterner,
    ) -> PorDecision {
        let Some(clock) = enabled.clock() else {
            return self.full_pass(state, enabled, decided, interner);
        };
        let mut verdicts = std::mem::take(&mut self.verdicts);
        let mut counts = self.counts;
        let picked = Self::decide(
            enabled
                .iter()
                .filter(|c| !c.best_updates.is_empty())
                .map(|c| {
                    let (at, verdict) = &mut verdicts[c.node.index()];
                    if *at < enabled.changed_at(c.node) {
                        *at = clock;
                        *verdict = self.verdict(state, interner, decided, c);
                        counts.recomputed += 1;
                    } else {
                        counts.reused += 1;
                    }
                    (c, *verdict)
                }),
        );
        self.verdicts = verdicts;
        self.counts = counts;
        debug_assert_eq!(
            picked,
            self.full_pass(state, enabled, decided, interner),
            "the cached verdicts' pick differs from the full pass"
        );
        picked
    }

    fn reads_change_stamps(&self) -> bool {
        true
    }

    fn verdict_counts(&self) -> VerdictCounts {
        self.counts
    }
}

/// Reusable buffers for [`decision_independent`], so the per-step fast path
/// performs no heap allocation once warmed up.
#[derive(Default)]
pub struct DiScratch {
    /// `stamp[n] == epoch` ⟺ the current call's search already reached `n`
    /// (bumping `epoch` un-reaches every node without touching the vector).
    stamp: Vec<u32>,
    epoch: u32,
    /// The breadth-first frontier.
    queue: Vec<NodeId>,
}

impl DiScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a fresh search over `n` nodes.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() != n || self.epoch == u32::MAX {
            self.stamp.clear();
            self.stamp.resize(n, 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }
}

/// Condition (a) of [`decision_independent`]: does every pending update come
/// from a peer that has already decided? In a search that marks a node
/// decided whenever it adopts a peer's route, this always holds (see there);
/// the reference explorer still tests it, as an oracle for that argument.
pub fn updates_from_decided(enabled: &EnabledView<'_>, decided: &[bool]) -> bool {
    enabled.iter().all(|choice| {
        choice
            .best_updates
            .iter()
            .all(|(peer, _)| decided[peer.index()])
    })
}

/// Decision independence (§4.1.3), generic across protocols.
///
/// The execution order between the enabled nodes is irrelevant when (a) every
/// pending update comes from a peer that has already made its final decision,
/// and (b) no advertisement can flow between any two enabled nodes without
/// passing through an already-decided node: the enabled nodes lie in
/// pairwise-distinct connected components of the peer graph restricted to
/// undecided nodes. When both hold, a single arbitrary order is explored:
/// the first enabled node's updates.
///
/// (a) is an invariant of the search, not a test: an update from a peer
/// needs that peer to hold a route, a node holds one only as an origin
/// (decided from the start) or after a step that adopted a peer's route
/// (which marks it decided), and undo restores route and mark together. The
/// caller must uphold it; debug builds assert it
/// ([`updates_from_decided`]), and only (b) is searched.
///
/// (b) is checked by a breadth-first search from each enabled node over
/// undecided nodes that gives up the moment it reaches a second enabled
/// node — the common outcome, a few hops away — rather than by labelling
/// every component first. Searches share one set of reached-marks, so the
/// worst case (the answer is "independent") is still a single O(V+E) pass.
/// Decided nodes belong to no component: one enabled node that is itself
/// decided is independent of everything, two are treated as dependent. The
/// peer relation is taken to be symmetric, as it is for every adjacency- and
/// session-based model.
pub fn decision_independent(
    model: &dyn ProtocolModel,
    enabled: &EnabledView<'_>,
    decided: &[bool],
    scratch: &mut DiScratch,
) -> Option<PorDecision> {
    let first = enabled.first()?;
    debug_assert!(
        updates_from_decided(enabled, decided),
        "a pending update comes from an undecided peer"
    );
    if enabled.len() > 1 {
        scratch.begin(model.node_count());
        let (stamp, epoch, queue) = (&mut scratch.stamp, scratch.epoch, &mut scratch.queue);
        let mut decided_enabled = false;
        for choice in enabled.iter() {
            let start = choice.node;
            if decided[start.index()] {
                if decided_enabled {
                    return None;
                }
                decided_enabled = true;
                continue;
            }
            stamp[start.index()] = epoch;
            queue.clear();
            queue.push(start);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &p in model.peers(u) {
                    if decided[p.index()] || stamp[p.index()] == epoch {
                        continue;
                    }
                    if enabled.get_node(p).is_some() {
                        // Two enabled nodes can still influence each other
                        // through undecided nodes: independence does not
                        // apply.
                        return None;
                    }
                    stamp[p.index()] = epoch;
                    queue.push(p);
                }
            }
        }
    }
    Some(independent_decision(first))
}

/// What the explorer does with `first`, the first enabled node, when
/// decision independence holds: order does not matter, but a node's tied
/// updates are still branched over.
pub fn independent_decision(first: &EnabledChoice) -> PorDecision {
    if first.best_updates.len() > 1 {
        PorDecision::BranchUpdates { node: first.node }
    } else {
        PorDecision::Deterministic {
            node: first.node,
            update: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plankton_config::scenarios::{disagree_gadget, fat_tree_bgp_rfc7938, ring_ospf};
    use plankton_net::failure::FailureSet;
    use plankton_protocols::bgp::UniformUnderlay;
    use plankton_protocols::ospf::OspfModel;
    use plankton_protocols::rpvp::{EnabledChoice, Rpvp};
    use plankton_protocols::{Preference, RouteHandle};
    use std::sync::Arc;

    #[test]
    fn ospf_por_picks_cheapest_pending_update() {
        let s = ring_ospf(6);
        let model = OspfModel::new(
            &s.network,
            s.destination,
            vec![s.origin],
            &FailureSet::none(),
        );
        let rpvp = Rpvp::new(&model);
        let mut interner = RouteInterner::new();
        let state = rpvp.initial_state(&mut interner);
        let enabled = rpvp.enabled(&state, &mut interner);
        // Both neighbors of the origin are enabled with cost-1 updates; the
        // heuristic must pick one deterministically.
        assert_eq!(enabled.len(), 2);
        let decided = vec![false; 6];
        let view = EnabledView::Slice(&enabled);
        match OspfPor.pick(&state, &view, &decided, &interner) {
            PorDecision::Deterministic { node, update } => {
                let choice = view.get_node(node).expect("picked node is enabled");
                let (_, handle) = choice.best_updates[update];
                assert_eq!(interner.resolve(handle).unwrap().igp_cost, 1);
            }
            other => panic!("expected deterministic pick, got {other:?}"),
        }
    }

    #[test]
    fn no_por_always_branches() {
        let s = ring_ospf(4);
        let model = OspfModel::new(
            &s.network,
            s.destination,
            vec![s.origin],
            &FailureSet::none(),
        );
        let rpvp = Rpvp::new(&model);
        let mut interner = RouteInterner::new();
        let state = rpvp.initial_state(&mut interner);
        let enabled = rpvp.enabled(&state, &mut interner);
        assert_eq!(
            NoPor.pick(
                &state,
                &EnabledView::Slice(&enabled),
                &[false; 4],
                &interner
            ),
            PorDecision::BranchAll
        );
    }

    #[test]
    fn bgp_por_detects_deterministic_first_hop() {
        // In the RFC 7938 fat tree, an edge switch adjacent to the origin
        // receives a 1-AS-hop route which nothing can beat (all local prefs
        // are default): it must be detected as deterministic.
        let s = fat_tree_bgp_rfc7938(4, 3);
        let origin = s.fat_tree.edge[0][0];
        let prefix = s.fat_tree.prefix_of_edge(origin).unwrap();
        let model = plankton_protocols::bgp::BgpModel::new(
            &s.network,
            prefix,
            vec![origin],
            &FailureSet::none(),
            Arc::new(UniformUnderlay),
        );
        let mut por = BgpPor::from_model(&model);
        let rpvp = Rpvp::new(&model);
        let mut interner = RouteInterner::new();
        let state = rpvp.initial_state(&mut interner);
        let enabled = rpvp.enabled(&state, &mut interner);
        assert!(!enabled.is_empty());
        let mut decided = vec![false; model.node_count()];
        decided[origin.index()] = true;
        match por.pick(&state, &EnabledView::Slice(&enabled), &decided, &interner) {
            PorDecision::Deterministic { node, .. } => {
                // The picked node is one of the origin's pod aggregation
                // switches (1 AS hop from the origin).
                assert!(s.fat_tree.aggregation[0].contains(&node));
            }
            other => panic!("expected deterministic pick, got {other:?}"),
        }
    }

    #[test]
    fn bgp_por_leaves_genuine_ties_to_branching() {
        // In the DISAGREE gadget both actors prefer each other's route
        // (local pref 200) over the direct one, and the maximum import local
        // pref in the network is 200, so the direct cost-1 routes are not
        // clear winners: the heuristic must not declare the initial updates
        // deterministic.
        let g = disagree_gadget();
        let model = plankton_protocols::bgp::BgpModel::new(
            &g.network,
            g.destination,
            vec![g.origin],
            &FailureSet::none(),
            Arc::new(UniformUnderlay),
        );
        let mut por = BgpPor::from_model(&model);
        let rpvp = Rpvp::new(&model);
        let mut interner = RouteInterner::new();
        let state = rpvp.initial_state(&mut interner);
        let enabled = rpvp.enabled(&state, &mut interner);
        let mut decided = vec![false; model.node_count()];
        decided[g.origin.index()] = true;
        let decision = por.pick(&state, &EnabledView::Slice(&enabled), &decided, &interner);
        assert_eq!(decision, PorDecision::BranchAll);
    }

    #[test]
    fn decision_independence_requires_separated_components() {
        let s = ring_ospf(4);
        let model = OspfModel::new(
            &s.network,
            s.destination,
            vec![s.origin],
            &FailureSet::none(),
        );
        let rpvp = Rpvp::new(&model);
        let mut interner = RouteInterner::new();
        let state = rpvp.initial_state(&mut interner);
        let enabled = rpvp.enabled(&state, &mut interner);
        let view = EnabledView::Slice(&enabled);
        let mut decided = vec![false; 4];
        let mut scratch = DiScratch::new();
        // Pending updates come from the (undecided) origin: condition (a)
        // fails, which no search state can produce (an origin starts decided).
        assert!(!updates_from_decided(&view, &decided));
        decided[s.origin.index()] = true;
        assert!(updates_from_decided(&view, &decided));
        // Updates now come from a decided node, but the two enabled neighbors
        // of the origin can still reach each other through the undecided far
        // side of the ring, so independence still must not apply.
        assert!(decision_independent(&model, &view, &decided, &mut scratch).is_none());
        // Once the far-side routers are decided too, the enabled nodes are
        // isolated from each other and the order genuinely cannot matter.
        decided[s.ring.routers[2].index()] = true;
        assert!(decision_independent(&model, &view, &decided, &mut scratch).is_some());
    }

    /// The label-everything pass `decision_independent` replaced, kept as
    /// its oracle: label every connected component of the undecided
    /// subgraph, then require pairwise-distinct labels of the enabled nodes.
    fn decision_independent_by_labelling(
        model: &dyn ProtocolModel,
        enabled: &EnabledView<'_>,
        decided: &[bool],
    ) -> Option<PorDecision> {
        let first = enabled.first()?;
        let all_from_decided = enabled.iter().all(|choice| {
            choice
                .best_updates
                .iter()
                .all(|(peer, _)| decided[peer.index()])
        });
        if !all_from_decided {
            return None;
        }
        if enabled.len() > 1 {
            let n = model.node_count();
            let mut component = vec![usize::MAX; n];
            let mut stack = Vec::new();
            let mut next = 0usize;
            for start in 0..n {
                if decided[start] || component[start] != usize::MAX {
                    continue;
                }
                let label = next;
                next += 1;
                stack.push(NodeId(start as u32));
                component[start] = label;
                while let Some(u) = stack.pop() {
                    for &p in model.peers(u) {
                        if !decided[p.index()] && component[p.index()] == usize::MAX {
                            component[p.index()] = label;
                            stack.push(p);
                        }
                    }
                }
            }
            let mut seen = Vec::new();
            for choice in enabled.iter() {
                let label = component[choice.node.index()];
                if seen.contains(&label) {
                    return None;
                }
                seen.push(label);
            }
        }
        if first.best_updates.len() > 1 {
            Some(PorDecision::BranchUpdates { node: first.node })
        } else {
            Some(PorDecision::Deterministic {
                node: first.node,
                update: 0,
            })
        }
    }

    /// A bare symmetric peer graph; the independence test reads nothing else.
    struct PeerGraph(Vec<Vec<NodeId>>);

    impl ProtocolModel for PeerGraph {
        fn node_count(&self) -> usize {
            self.0.len()
        }
        fn origins(&self) -> &[NodeId] {
            &[]
        }
        fn peers(&self, n: NodeId) -> &[NodeId] {
            &self.0[n.index()]
        }
        fn advertise(&self, _: NodeId, _: NodeId, _: &Route) -> Option<Route> {
            None
        }
        fn origin_route(&self, _: NodeId) -> Route {
            unreachable!("no origins")
        }
        fn prefer(&self, _: NodeId, _: &Route, _: &Route) -> Preference {
            Preference::Tied
        }
        fn name(&self) -> &'static str {
            "graph"
        }
    }

    #[test]
    fn early_exit_search_agrees_with_component_labelling() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let mut scratch = DiScratch::new();
        let (mut independent, mut dependent, mut witnessed_cases) = (0, 0, 0);
        for _ in 0..2000 {
            let n = 2 + below(23);
            // Sparse graphs, so the undecided subgraph falls apart into
            // several components often enough to see both answers.
            let mut peers = vec![Vec::new(); n];
            for _ in 0..below(2 * n) {
                let (a, b) = (below(n), below(n));
                if a != b && !peers[a].contains(&NodeId(b as u32)) {
                    peers[a].push(NodeId(b as u32));
                    peers[b].push(NodeId(a as u32));
                }
            }
            let model = PeerGraph(peers);
            for _ in 0..3 {
                let density = 1 + below(4);
                let decided: Vec<bool> = (0..n).map(|_| below(5) < density).collect();
                for _ in 0..3 {
                    // Enabled nodes may be decided themselves; pending
                    // updates mostly (not always) come from decided peers.
                    let mut enabled: Vec<EnabledChoice> = Vec::new();
                    for i in 0..n {
                        if below(n) >= 3 {
                            continue;
                        }
                        let node = NodeId(i as u32);
                        let updates = below(3);
                        let best_updates = model
                            .peers(node)
                            .iter()
                            .filter(|p| decided[p.index()] || below(8) == 0)
                            .take(updates)
                            .map(|&p| (p, RouteHandle(1)))
                            .collect();
                        enabled.push(EnabledChoice {
                            node,
                            invalid: false,
                            routed: false,
                            least_cost: 0,
                            best_updates,
                        });
                    }
                    let view = EnabledView::Slice(&enabled);
                    // Condition (a) is the caller's, as in the reference
                    // explorer; the oracle still tests it itself.
                    let got = if updates_from_decided(&view, &decided) {
                        decision_independent(&model, &view, &decided, &mut scratch)
                    } else {
                        None
                    };
                    let want = decision_independent_by_labelling(&model, &view, &decided);
                    assert_eq!(got, want, "{:?} decided={decided:?} {enabled:?}", model.0);
                    // The explorer's dependence witness: a peer pair whose
                    // ends are both enabled and undecided.
                    let active = |n: NodeId| !decided[n.index()] && view.get_node(n).is_some();
                    let witnessed = enabled
                        .iter()
                        .any(|c| active(c.node) && model.peers(c.node).iter().any(|&p| active(p)));
                    if witnessed {
                        witnessed_cases += 1;
                        assert_eq!((got, want), (None, None), "a witnessed pair is dependent");
                    }
                    if enabled.len() > 1 {
                        match got {
                            Some(_) => independent += 1,
                            None => dependent += 1,
                        }
                    }
                }
            }
        }
        assert!(
            independent > 500 && dependent > 500,
            "one-sided oracle run: {independent} independent, {dependent} dependent"
        );
        assert!(
            witnessed_cases > 100 && witnessed_cases < dependent,
            "{witnessed_cases} witnessed of {dependent} dependent"
        );
    }
}
