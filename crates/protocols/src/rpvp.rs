//! The Reduced Path Vector Protocol (RPVP, §3.4.2, Algorithm 1).
//!
//! RPVP replaces SPVP's message passing with a shared-memory model: the
//! network state is just `best-path(n)` for every node. At each step the set
//! of *enabled* nodes is computed (nodes whose best path is invalid, or for
//! which some peer could advertise something strictly better); one enabled
//! node and one of its best-update peers are chosen non-deterministically and
//! the node adopts that advertisement. When no node is enabled the state is
//! converged. Theorem 1 of the paper shows that the converged states
//! reachable this way are exactly the converged states of extended SPVP, so
//! model checking RPVP is sound and complete for converged-state policies.
//!
//! The layer is **handle-native**: routes are interned the moment the
//! enabled-set computation derives them
//! ([`RouteInterner`](crate::interner::RouteInterner) threaded through every
//! method), so [`RpvpState`] is a flat vector of
//! [`RouteHandle`](crate::interner::RouteHandle)s, a step is an integer
//! swap, an undo record is a single `Copy` handle, an enabled entry's
//! maximal updates are an inline [`UpdateVec`] of `(peer, handle)` pairs
//! (the same inline vector as a route's path), and visited-state checks
//! upstream hash and compare handles with no re-interning pass. Converged
//! states leave the layer the same way: a [`ConvergedState`] is a borrowed
//! view of the live handle vector and the interner, so emitting one to a
//! policy callback copies no route.
//!
//! Two routines define the enabled set. [`Rpvp::enabled_at_with`] derives one
//! node's entry from scratch — every peer's advertisement, the usable ones,
//! the maximal among those — and is the only definition of an entry:
//! [`Rpvp::enabled`], the reference explorer and
//! [`IncrementalEnabled::rebuild`] are loops over it. A search does not call
//! it per node per step, though. [`IncrementalEnabled`] keeps the entries
//! across steps. After a step at `n` that adopted one of `n`'s own cached
//! maximal updates, `n`'s entry is simply dropped (nothing beats a maximal
//! update); any other step re-derives it. Each node listening to `n` has its
//! cached entry *patched* for the single advertisement that changed, which
//! costs a comparison or two instead of a pass over its peers: the
//! advertisement is ranked before it is built
//! ([`ProtocolModel::prefer_advertisement`]), and built and interned only
//! when the node keeps it — for OSPF, one patch in thirteen on a k=16 fat
//! tree. A step is O(deg) comparisons rather than O(deg²) route
//! derivations, plus O(log n) per changed entry for the cost heap the OSPF
//! heuristic reads; the rules, the argument that they are exact, and the
//! cases that fall back to the full routine are on the type.

use crate::hopvec::InlineVec;
use crate::interner::{RouteHandle, RouteInterner};
use crate::model::{Preference, ProtocolModel, ReversePeer, ReversePeers};
use crate::route::Route;
use plankton_net::topology::NodeId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The RPVP network state: the best route of every node, as interned
/// handles (`RouteHandle::NONE` is the paper's `⊥`).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RpvpState {
    /// `best[n]` = the handle of the best route currently selected by node
    /// `n` (interned in the run's [`RouteInterner`]).
    pub best: Vec<RouteHandle>,
}

impl RpvpState {
    /// The initial state for a protocol model: origins hold `ε`, everyone
    /// else holds `⊥`.
    pub fn initial(model: &dyn ProtocolModel, interner: &mut RouteInterner) -> Self {
        let mut best = vec![RouteHandle::NONE; model.node_count()];
        for &o in model.origins() {
            best[o.index()] = interner.intern_owned(model.origin_route(o));
        }
        RpvpState { best }
    }

    /// Build a state from owned per-node routes, interning each (used by
    /// cross-checks that obtain a state from outside RPVP, e.g. SPVP).
    pub fn from_routes(routes: &[Option<Route>], interner: &mut RouteInterner) -> Self {
        RpvpState {
            best: routes
                .iter()
                .map(|r| interner.intern_opt(r.as_ref()))
                .collect(),
        }
    }

    /// The handle of node `n`'s best route (`NONE` = `⊥`).
    pub fn handle(&self, n: NodeId) -> RouteHandle {
        self.best[n.index()]
    }

    /// Does node `n` currently hold a route?
    pub fn has_route(&self, n: NodeId) -> bool {
        self.best[n.index()].is_some()
    }

    /// The best route of node `n`, resolved through the interner.
    pub fn best<'i>(&self, n: NodeId, interner: &'i RouteInterner) -> Option<&'i Route> {
        interner.resolve(self.best[n.index()])
    }

    /// Nodes that currently hold some route.
    pub fn nodes_with_routes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.best
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_some())
            .map(|(i, _)| NodeId(i as u32))
    }
}

/// The `(peer, interned advertisement)` pairs of
/// [`EnabledChoice::best_updates`], inline up to four entries: branch-heavy
/// searches clone enabled choices at every branch point, and inline that
/// clone is a `memcpy`.
pub type UpdateVec = InlineVec<(NodeId, RouteHandle), 4>;

/// One entry of the enabled set: a node that must still act, why it is
/// enabled, and the peers whose advertisements are maximal for it (the
/// paper's set `U`; more than one peer means a non-deterministic choice).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnabledChoice {
    /// The enabled node.
    pub node: NodeId,
    /// Is the node's current best path invalid (its next hop no longer
    /// carries the matching path)?
    pub invalid: bool,
    /// Did the node hold a route when this entry was derived? (`invalid`
    /// implies it.) An enabled node that holds a route would have to change
    /// or clear it, which is what consistent-execution pruning (§4.1.1)
    /// abandons an execution for. The flag travels with the entry, so a
    /// cache that restores entries before routes on undo
    /// ([`IncrementalEnabled`]) still counts such entries exactly.
    pub routed: bool,
    /// The least `igp_cost` among `best_updates` (`u64::MAX` when there are
    /// none): the key of [`IncrementalEnabled`]'s cost heap. Like `routed`
    /// it is stored with the entry, because undo restores entries before
    /// routes.
    pub least_cost: u64,
    /// The peers producing the highest-ranked usable advertisements, together
    /// with those advertisements (interned). Empty iff the node is enabled
    /// only because its path is invalid.
    pub best_updates: UpdateVec,
}

/// A borrowed view of an enabled set, iterated in node-id order.
///
/// The incremental explorer keeps its enabled set in per-node slots with a
/// presence bitset (no contiguous list to hand out), while the reference
/// explorer and the tests hold plain sorted vectors; this view lets the
/// partial-order-reduction heuristics serve both without copying.
#[derive(Clone, Copy)]
pub enum EnabledView<'a> {
    /// A contiguous slice, already sorted by node id.
    Slice(&'a [EnabledChoice]),
    /// Per-node slots with a presence bitset (`bits[i/64] >> (i%64) & 1`).
    Slots {
        /// `slots[n]` = node `n`'s enabled choice, if enabled.
        slots: &'a [Option<EnabledChoice>],
        /// The presence bitset over node ids.
        bits: &'a [u64],
        /// Number of enabled nodes.
        len: usize,
        /// The top of the cost heap, when the set keeps one
        /// ([`IncrementalEnabled::with_cost_heap`]) and is not empty.
        cheapest: Option<NodeId>,
        /// The change clock and per-node stamps, when the set keeps them
        /// ([`IncrementalEnabled::with_change_stamps`]).
        stamps: Option<(u64, &'a [u64])>,
    },
}

impl<'a> EnabledView<'a> {
    /// Number of enabled nodes.
    pub fn len(&self) -> usize {
        match self {
            EnabledView::Slice(s) => s.len(),
            EnabledView::Slots { len, .. } => *len,
        }
    }

    /// Is the enabled set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The enabled choice of `node`, if it is enabled.
    pub fn get_node(&self, node: NodeId) -> Option<&'a EnabledChoice> {
        match self {
            EnabledView::Slice(s) => s
                .binary_search_by_key(&node.0, |c| c.node.0)
                .ok()
                .map(|i| &s[i]),
            EnabledView::Slots { slots, .. } => slots.get(node.index()).and_then(Option::as_ref),
        }
    }

    /// The first enabled choice in node-id order.
    pub fn first(&self) -> Option<&'a EnabledChoice> {
        self.iter().next()
    }

    /// The entry with the least key (has no update, `least_cost`, node id)
    /// — the first cheapest entry in node-id order, entries without an
    /// update last — read off the cost heap in O(1). `None` when the view
    /// has no heap (a slice, or a set without one) or is empty.
    pub fn cheapest(&self) -> Option<&'a EnabledChoice> {
        match self {
            EnabledView::Slice(_) => None,
            EnabledView::Slots { cheapest, .. } => cheapest.and_then(|n| self.get_node(n)),
        }
    }

    /// The change clock, when the view has change stamps
    /// ([`IncrementalEnabled::with_change_stamps`]): something derived about
    /// node `n` from this view at clock `t` — from its entry, and from the
    /// routes and decisions of the peers it listens to — still holds while
    /// [`EnabledView::changed_at`]`(n) <= t`. `None` for a view without
    /// stamps (a slice, or a set without them).
    pub fn clock(&self) -> Option<u64> {
        match self {
            EnabledView::Slice(_) => None,
            EnabledView::Slots { stamps, .. } => stamps.map(|(clock, _)| clock),
        }
    }

    /// The clock of the last step or undo that could change what
    /// [`EnabledView::clock`] promises about `node`: a step at `node` or at
    /// a peer it listens to. 0 without stamps.
    pub fn changed_at(&self, node: NodeId) -> u64 {
        match self {
            EnabledView::Slice(_) => 0,
            EnabledView::Slots { stamps, .. } => stamps.map_or(0, |(_, s)| s[node.index()]),
        }
    }

    /// Iterate the enabled choices in node-id order.
    pub fn iter(&self) -> EnabledIter<'a> {
        match self {
            EnabledView::Slice(s) => EnabledIter::Slice(s.iter()),
            EnabledView::Slots { slots, bits, .. } => EnabledIter::Slots {
                slots,
                bits,
                word: 0,
                mask: bits.first().copied().unwrap_or(0),
            },
        }
    }

    /// Clone the enabled choices into a vector (test/diagnostic helper).
    pub fn to_vec(&self) -> Vec<EnabledChoice> {
        self.iter().cloned().collect()
    }
}

/// Iterator over an [`EnabledView`], in node-id order.
pub enum EnabledIter<'a> {
    /// Contiguous-slice iteration.
    Slice(std::slice::Iter<'a, EnabledChoice>),
    /// Bitset sweep over slots: `mask` holds the unvisited bits of `word`.
    Slots {
        /// The per-node slots.
        slots: &'a [Option<EnabledChoice>],
        /// The presence bitset.
        bits: &'a [u64],
        /// Index of the word `mask` was drawn from.
        word: usize,
        /// Remaining set bits of the current word.
        mask: u64,
    },
}

impl<'a> Iterator for EnabledIter<'a> {
    type Item = &'a EnabledChoice;

    fn next(&mut self) -> Option<&'a EnabledChoice> {
        match self {
            EnabledIter::Slice(it) => it.next(),
            EnabledIter::Slots {
                slots,
                bits,
                word,
                mask,
            } => loop {
                if *mask == 0 {
                    *word += 1;
                    if *word >= bits.len() {
                        return None;
                    }
                    *mask = bits[*word];
                    continue;
                }
                let bit = mask.trailing_zeros() as usize;
                *mask &= *mask - 1;
                let idx = *word * 64 + bit;
                match slots[idx].as_ref() {
                    Some(c) => return Some(c),
                    // A set bit always has a filled slot; tolerate skew in
                    // release builds rather than panicking mid-search.
                    None => continue,
                }
            },
        }
    }
}

/// A converged RPVP state, viewed in place: the explorer's live handle
/// vector plus the interner that resolves it. Handing one to a callback
/// copies nothing; the view is valid for the callback only, so a consumer
/// that keeps a state past it copies the routes out
/// ([`ConvergedState::to_routes`]).
#[derive(Clone, Copy)]
pub struct ConvergedState<'a> {
    best: &'a [RouteHandle],
    interner: &'a RouteInterner,
}

impl<'a> ConvergedState<'a> {
    /// View `best` (one handle per node) through `interner`.
    pub fn new(best: &'a [RouteHandle], interner: &'a RouteInterner) -> Self {
        ConvergedState { best, interner }
    }

    /// Number of nodes in the state.
    pub fn node_count(&self) -> usize {
        self.best.len()
    }

    /// The best route of node `n`.
    pub fn best(&self, n: NodeId) -> Option<&'a Route> {
        self.interner.resolve(self.best[n.index()])
    }

    /// Does any node hold a route?
    pub fn has_routes(&self) -> bool {
        self.best.iter().any(|h| h.is_some())
    }

    /// The best route of every node, copied out of the interner.
    pub fn to_routes(&self) -> Vec<Option<Route>> {
        self.best
            .iter()
            .map(|&h| self.interner.resolve(h).cloned())
            .collect()
    }

    /// The forwarding next hop of node `n`, if it has a route and is not the
    /// origin itself.
    pub fn next_hop(&self, n: NodeId) -> Option<NodeId> {
        self.best(n).and_then(|r| r.next_hop())
    }

    /// Follow next hops from `start` until an origin, a node without a
    /// route, or a repeated node is reached. Returns the nodes visited in
    /// order (including `start`). Repeats are detected with a visited bitvec
    /// sized to the network, so the walk is O(path) rather than O(path²).
    pub fn walk_from(&self, start: NodeId) -> Vec<NodeId> {
        let mut visited = vec![false; self.best.len()];
        visited[start.index()] = true;
        let mut seen = vec![start];
        let mut cur = start;
        loop {
            match self.next_hop(cur) {
                Some(next) => {
                    seen.push(next);
                    if visited[next.index()] {
                        return seen;
                    }
                    visited[next.index()] = true;
                    cur = next;
                }
                None => return seen,
            }
        }
    }
}

/// The RPVP step machinery over a protocol model.
pub struct Rpvp<'m> {
    model: &'m dyn ProtocolModel,
    /// `origin_mask[n]` ⟺ `n ∈ origins()`, so the per-node-per-step origin
    /// check is a bit test instead of a linear scan of the origin list.
    origin_mask: Vec<bool>,
}

impl<'m> Rpvp<'m> {
    /// Wrap a protocol model.
    pub fn new(model: &'m dyn ProtocolModel) -> Self {
        let mut origin_mask = vec![false; model.node_count()];
        for &o in model.origins() {
            origin_mask[o.index()] = true;
        }
        Rpvp { model, origin_mask }
    }

    /// The underlying protocol model.
    pub fn model(&self) -> &dyn ProtocolModel {
        self.model
    }

    /// The initial state.
    pub fn initial_state(&self, interner: &mut RouteInterner) -> RpvpState {
        RpvpState::initial(self.model, interner)
    }

    /// Is node `n` an origin?
    pub fn is_origin(&self, n: NodeId) -> bool {
        self.origin_mask.get(n.index()).copied().unwrap_or(false)
    }

    /// The advertisement `from` would currently offer `to`
    /// (`import_{to,from}(export_{from,to}(best(from)))`), if any.
    pub fn advertisement(
        &self,
        state: &RpvpState,
        interner: &RouteInterner,
        from: NodeId,
        to: NodeId,
    ) -> Option<Route> {
        let best_from = state.best(from, interner)?;
        self.model.advertise(from, to, best_from)
    }

    /// Is `n`'s current best path invalid: its next hop's best path is not
    /// the continuation of `n`'s path (`best-path(best-path(n).head) ≠
    /// best-path(n).rest`)?
    pub fn invalid(&self, state: &RpvpState, interner: &RouteInterner, n: NodeId) -> bool {
        let Some(route) = state.best(n, interner) else {
            return false;
        };
        let Some(head) = route.next_hop() else {
            // The origin's own route never becomes invalid.
            return false;
        };
        match state.best(head, interner) {
            None => true,
            Some(head_route) => head_route.path.as_slice() != route.rest(),
        }
    }

    /// The enabled set of a state (the paper's `E`, line 5 of Algorithm 1),
    /// with each node's best-update peers (`U`, line 13) precomputed.
    /// Origins are never enabled.
    pub fn enabled(&self, state: &RpvpState, interner: &mut RouteInterner) -> Vec<EnabledChoice> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for i in 0..self.model.node_count() {
            let n = NodeId(i as u32);
            if let Some(choice) = self.enabled_at_with(state, interner, n, &mut scratch) {
                out.push(choice);
            }
        }
        out
    }

    /// The enabled-choice entry for a single node, if it is enabled.
    pub fn enabled_at(
        &self,
        state: &RpvpState,
        interner: &mut RouteInterner,
        n: NodeId,
    ) -> Option<EnabledChoice> {
        let mut scratch = Vec::new();
        self.enabled_at_with(state, interner, n, &mut scratch)
    }

    /// [`Rpvp::enabled_at`] with a caller-owned candidate buffer, so the
    /// steady-state search path performs no heap allocation: candidate
    /// routes are derived into `scratch` (capacity retained across calls),
    /// only the maximal ones are interned, and the returned choice carries
    /// handles in an inline [`UpdateVec`].
    pub fn enabled_at_with(
        &self,
        state: &RpvpState,
        interner: &mut RouteInterner,
        n: NodeId,
        scratch: &mut Vec<(NodeId, Route)>,
    ) -> Option<EnabledChoice> {
        if self.is_origin(n) {
            return None;
        }
        let invalid = self.invalid(state, interner, n);
        scratch.clear();
        {
            let current = interner.resolve(state.best[n.index()]);
            for &peer in self.model.peers(n) {
                let Some(best_from) = interner.resolve(state.best[peer.index()]) else {
                    continue;
                };
                let Some(adv) = self.model.advertise(peer, n, best_from) else {
                    continue;
                };
                let usable = match current {
                    None => true,
                    Some(cur) => self.model.prefer(n, &adv, cur) == Preference::Better,
                };
                if usable {
                    scratch.push((peer, adv));
                }
            }
        }
        if scratch.is_empty() && !invalid {
            return None;
        }
        // Keep only the maximal advertisements (the paper's
        // `best({n' | can-update(n')})`), preserving candidate order —
        // exactly `ProtocolModel::best_indices` — and intern only those.
        let mut best_updates = UpdateVec::new();
        let mut least_cost = u64::MAX;
        for i in 0..scratch.len() {
            let mut dominated = false;
            for j in 0..scratch.len() {
                if j != i
                    && self.model.prefer(n, &scratch[j].1, &scratch[i].1) == Preference::Better
                {
                    dominated = true;
                    break;
                }
            }
            if !dominated {
                let handle = interner.intern(&scratch[i].1);
                best_updates.push((scratch[i].0, handle));
                least_cost = least_cost.min(scratch[i].1.igp_cost);
            }
        }
        Some(EnabledChoice {
            node: n,
            invalid,
            routed: state.has_route(n),
            least_cost,
            best_updates,
        })
    }

    /// Is node `n` enabled in `state`? Equivalent to
    /// `enabled_at(...).is_some()` but derives no maximal set and interns
    /// nothing, so it only needs shared access to the interner.
    pub fn is_enabled(&self, state: &RpvpState, interner: &RouteInterner, n: NodeId) -> bool {
        if self.is_origin(n) {
            return false;
        }
        if self.invalid(state, interner, n) {
            return true;
        }
        let current = interner.resolve(state.best[n.index()]);
        for &peer in self.model.peers(n) {
            let Some(best_from) = interner.resolve(state.best[peer.index()]) else {
                continue;
            };
            let Some(adv) = self.model.advertise(peer, n, best_from) else {
                continue;
            };
            let usable = match current {
                None => true,
                Some(cur) => self.model.prefer(n, &adv, cur) == Preference::Better,
            };
            if usable {
                return true;
            }
        }
        false
    }

    /// Perform one RPVP step: node `n` (which must be enabled) clears an
    /// invalid path and, if `from` is given, adopts that peer's
    /// advertisement. `from` must be one of the node's best-update peers.
    pub fn step(
        &self,
        state: &mut RpvpState,
        interner: &mut RouteInterner,
        n: NodeId,
        from: Option<NodeId>,
    ) {
        let adopt = match from {
            Some(peer) => {
                let adv = self
                    .advertisement(state, interner, peer, n)
                    .expect("step() called with a peer that offers no advertisement");
                interner.intern_owned(adv)
            }
            None => RouteHandle::NONE,
        };
        self.step_adopting(state, interner, n, adopt);
    }

    /// Perform one RPVP step in place, adopting an already-interned
    /// advertisement, and return the node's previous best handle as the
    /// (`Copy`) undo record for [`Rpvp::undo_step`].
    ///
    /// This is the explorers' apply primitive: the enabled-set computation
    /// already produced — and interned — the exact route the node adopts
    /// ([`EnabledChoice::best_updates`]), so a step is an integer swap.
    /// `adopt == RouteHandle::NONE` is the clear-an-invalid-path step.
    pub fn step_adopting(
        &self,
        state: &mut RpvpState,
        interner: &RouteInterner,
        n: NodeId,
        adopt: RouteHandle,
    ) -> RouteHandle {
        if adopt.is_some() {
            // Clearing an invalid path before adopting is subsumed by the
            // adoption itself; a single swap preserves `step()` semantics.
            std::mem::replace(&mut state.best[n.index()], adopt)
        } else if self.invalid(state, interner, n) {
            std::mem::replace(&mut state.best[n.index()], RouteHandle::NONE)
        } else {
            // A clear-only step on a valid path is a no-op (the explorer
            // never issues one); keep undo exact anyway.
            state.best[n.index()]
        }
    }

    /// Revert a step applied by [`Rpvp::step_adopting`], restoring the
    /// node's previous best route.
    pub fn undo_step(&self, state: &mut RpvpState, n: NodeId, prev_best: RouteHandle) {
        state.best[n.index()] = prev_best;
    }

    /// Is the state converged (no node enabled)?
    pub fn converged(&self, state: &RpvpState, interner: &RouteInterner) -> bool {
        (0..self.model.node_count() as u32)
            .map(NodeId)
            .all(|n| !self.is_enabled(state, interner, n))
    }

    /// View a converged state through `interner`.
    pub fn converged_state<'s>(
        &self,
        state: &'s RpvpState,
        interner: &'s RouteInterner,
    ) -> ConvergedState<'s> {
        debug_assert!(self.converged(state, interner), "state is not converged");
        ConvergedState::new(&state.best, interner)
    }
}

/// A delta-maintained RPVP enabled set.
///
/// The paper's Algorithm 1 recomputes the enabled set `E` from scratch at
/// every step — O(nodes × peers) route derivations per transition. But a
/// step at node `n` only changes `best(n)`, and a node `m`'s entry depends
/// solely on `best(m)` and on `best(p)` for `p ∈ peers(m)`: the only entries
/// that can change are `n`'s own and those of the reverse peers of `n`
/// ([`ProtocolModel::reverse_peers`]) — and a reverse peer `m` sees the step
/// through exactly one advertisement, `n → m`.
///
/// # The stepped node
///
/// When `n` adopted a member `a` of its own cached maximal set `U`, its
/// entry becomes empty without a re-derivation: its peers' routes did not
/// change, so neither did its candidates, and a candidate strictly preferred
/// over `a` would have been usable before the step too (it beats `a`, which
/// beat the route `n` held, if any) and so would have dominated `a` — but
/// nothing dominates a maximal element of a strict partial order. A freshly
/// adopted path is valid, so `n` is not enabled at all. This holds whatever
/// `n` held before; it needs only that `n` does not listen to itself. Any
/// other step at `n` (a clear-only step, a self-listening node) re-derives
/// the entry in full ([`Rpvp::enabled_at_with`]).
///
/// # The single-edge rule
///
/// For a reverse peer `m`, when `n` held `⊥` before the step, the candidate
/// set of `m` gained at most one element — `a = advertise(n→m, best(n))`,
/// if `m` can use it — and lost none, so the cached maximal set `U` is
/// patched instead of re-derived:
///
/// * some `u ∈ U` is strictly preferred over `a` ⇒ the entry is unchanged;
/// * otherwise `a` is maximal: the members it beats leave `U`, and `a` is
///   inserted at `n`'s slot in `peers(m)` (candidate order, which is the
///   order branches are explored in);
/// * `invalid(m)` is re-evaluated only when `best(m).head == n`.
///
/// Comparing `a` with `U` alone — not with the dominated candidates nobody
/// cached — is exact because [`ProtocolModel::prefer`] is a strict partial
/// order: every dominated candidate sits below some member of `U`, so by
/// transitivity it can neither beat `a` unless that member does, nor become
/// maximal when `a` removes that member (then `a` beats it too). For the same
/// reason an `a` that is beaten by one member cannot beat another.
///
/// The comparisons rank `a` before it exists
/// ([`ProtocolModel::prefer_advertisement`]): a model that can tell from
/// `best(n)` alone how `a` compares (OSPF) builds and interns `a` only when
/// `m` keeps it, and the default builds it at most once.
///
/// The rule needs the old contribution of `n` to be empty and `n`'s slot to
/// be unique; when `n` held a route before the step (a path change, only
/// reachable with consistent-execution pruning off) or occurs twice in
/// `peers(m)`, `m` falls back to the full recomputation. That routine stays
/// the single definition of an entry: debug builds re-derive every patched
/// slot and every dropped stepped-node entry with it and assert equality, so
/// any debug test run audits both rules.
///
/// # Storage
///
/// One slot per node plus a presence bitset: installing, replacing or
/// removing an entry is O(1), and iteration in node-id order — the same
/// order as [`Rpvp::enabled`] — is a word-at-a-time bitset sweep
/// ([`EnabledView::Slots`]). Displaced entries are handed back to the caller
/// so an apply/undo search can restore them exactly when it backtracks.
///
/// The reverse-peer index is the model's flat one
/// ([`ProtocolModel::reverse_peers`]), held by `Arc`: an OSPF model shares
/// one index across every task under the same failure set, so a set built
/// over it allocates per node only its own slots, not per-node lists.
///
/// The same O(1) slot swap keeps a count of entries whose node holds a route
/// ([`EnabledChoice::routed`]), so the §4.1.1 consistency question "is any
/// enabled node already routed?" is
/// [`IncrementalEnabled::inconsistent_count`]` > 0`, not a scan.
///
/// A set built [`with_cost_heap`](IncrementalEnabled::with_cost_heap) also
/// keeps its entries in an indexed binary min-heap keyed by (has no update,
/// [`EnabledChoice::least_cost`], node id), updated by the same slot swap in
/// O(log n). Its top ([`EnabledView::cheapest`]) is the first cheapest entry
/// in node-id order, which is what the OSPF heuristic steps. Undo replays
/// [`IncrementalEnabled::set_entry`], so it restores the heap too.
///
/// A set built [`with_change_stamps`](IncrementalEnabled::with_change_stamps)
/// also stamps, with a clock bumped per step and per undo, every node whose
/// entry or whose peers' routes that step or undo may have changed: the
/// stepped node and its reverse peers, the set [`refresh_after_step`]
/// already visits (undo marks it with
/// [`IncrementalEnabled::mark_changed`]). A heuristic that caches per-node
/// verdicts re-derives only the nodes stamped after it last looked
/// ([`EnabledView::clock`]).
///
///
/// # Initialization
///
/// [`IncrementalEnabled::rebuild`] derives only the entries that can be
/// non-empty: a node with no route whose peers hold none has no candidate
/// and nothing to invalidate. So it visits the nodes that hold a route and
/// their reverse peers — in the initial state, the origins' listeners — in
/// node-id order, the order a full pass would derive (and intern) them in.
/// Debug builds re-derive every eligible node afterwards and assert the
/// result equals the full pass. The rebuild counts one recomputation per
/// entry it derived ([`IncrementalEnabled::recompute_count`]); the entries
/// it settles empty by the rule above cost no derivation and count none.
///
/// [`refresh_after_step`]: IncrementalEnabled::refresh_after_step
pub struct IncrementalEnabled {
    /// `slots[n]` = node `n`'s enabled choice, if currently enabled.
    slots: Vec<Option<EnabledChoice>>,
    /// Presence bitset over node ids (`bits[n/64] >> (n%64) & 1`).
    bits: Vec<u64>,
    /// Number of enabled nodes.
    len: usize,
    /// Number of enabled entries whose node holds a route.
    inconsistent: usize,
    /// The cost heap, for heuristics that read it.
    costs: Option<CostHeap>,
    /// The change clock and per-node stamps, for heuristics that read them.
    stamps: Option<(u64, Vec<u64>)>,
    /// `rev_peers[n]` = nodes that consider advertisements from `n`, each
    /// with `n`'s slot in their peer list.
    rev_peers: Arc<ReversePeers>,
    /// Nodes that may ever be enabled (non-origins, and allowed by any
    /// influence pruning the search applies). Ineligible nodes are skipped
    /// entirely, never recomputed.
    eligible: Vec<bool>,
    /// Full `enabled_at` recomputations performed (the pre-incremental
    /// explorer did one per node per step).
    recomputed: u64,
    /// Single-edge updates performed in place of a full recomputation.
    edge_updates: u64,
    /// Stepped-node entries dropped in place of a full recomputation.
    stepped_skips: u64,
    /// Single-edge updates that built no advertisement (the model ranked
    /// it without building, and `m` did not keep it).
    edge_updates_unbuilt: u64,
    /// Candidate-route buffer threaded into
    /// [`Rpvp::enabled_at_with`], reused across every recomputation.
    candidates: Vec<(NodeId, Route)>,
    /// The nodes [`IncrementalEnabled::rebuild`] derives, reused.
    touched: Vec<NodeId>,
}

impl IncrementalEnabled {
    /// An enabled set over the given reverse-peer index and eligibility mask.
    /// Call [`IncrementalEnabled::rebuild`] before use.
    pub fn new(rev_peers: Arc<ReversePeers>, eligible: Vec<bool>) -> Self {
        let n = eligible.len();
        debug_assert_eq!(rev_peers.len(), n, "one reverse-peer row per node");
        IncrementalEnabled {
            slots: (0..n).map(|_| None).collect(),
            bits: vec![0; n.div_ceil(64)],
            len: 0,
            inconsistent: 0,
            costs: None,
            stamps: None,
            rev_peers,
            eligible,
            recomputed: 0,
            edge_updates: 0,
            stepped_skips: 0,
            edge_updates_unbuilt: 0,
            candidates: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Also keep the cost heap (see the type docs), so that views expose
    /// [`EnabledView::cheapest`].
    pub fn with_cost_heap(mut self) -> Self {
        self.costs = Some(CostHeap::new(self.slots.len()));
        self
    }

    /// Also keep change stamps (see the type docs), so that views expose
    /// [`EnabledView::clock`].
    pub fn with_change_stamps(mut self) -> Self {
        self.stamps = Some((0, vec![0; self.slots.len()]));
        self
    }

    /// Recompute the whole enabled set from scratch (initialization),
    /// deriving only the nodes that hold a route and their reverse peers
    /// (see the type docs). Every node counts as changed.
    pub fn rebuild(&mut self, rpvp: &Rpvp, state: &RpvpState, interner: &mut RouteInterner) {
        if let Some((clock, stamps)) = &mut self.stamps {
            *clock += 1;
            stamps.fill(*clock);
        }
        for slot in &mut self.slots {
            *slot = None;
        }
        self.bits.fill(0);
        self.len = 0;
        self.inconsistent = 0;
        if let Some(costs) = &mut self.costs {
            costs.clear();
        }
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        for n in state.nodes_with_routes() {
            touched.push(n);
            touched.extend(self.rev_peers[n].iter().map(|r| r.node));
        }
        touched.sort_unstable();
        touched.dedup();
        for &node in &touched {
            if !self.eligible[node.index()] {
                continue;
            }
            self.recomputed += 1;
            let entry = rpvp.enabled_at_with(state, interner, node, &mut self.candidates);
            self.set_entry(node, entry);
        }
        self.touched = touched;
        for i in 0..self.eligible.len() {
            if self.eligible[i] {
                self.audit(rpvp, state, interner, NodeId(i as u32), "sparse rebuild");
            }
        }
    }

    /// A view of the enabled choices, iterable in node-id order — exactly
    /// the (eligible subset of the) list [`Rpvp::enabled`] would return for
    /// the current state.
    pub fn view(&self) -> EnabledView<'_> {
        EnabledView::Slots {
            slots: &self.slots,
            bits: &self.bits,
            len: self.len,
            cheapest: self.costs.as_ref().and_then(CostHeap::top),
            stamps: self.stamps.as_ref().map(|(clock, s)| (*clock, &s[..])),
        }
    }

    /// Number of currently enabled nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Stamp `x` and its reverse peers as changed at a new clock: the nodes
    /// whose entries, or whose peers' routes and decisions, a step at `x` —
    /// or its undo — may change. [`IncrementalEnabled::refresh_after_step`]
    /// calls it; an undo must call it for the node it reverts. A no-op
    /// without change stamps.
    pub fn mark_changed(&mut self, x: NodeId) {
        if let Some((clock, stamps)) = &mut self.stamps {
            *clock += 1;
            stamps[x.index()] = *clock;
            for r in &self.rev_peers[x] {
                stamps[r.node.index()] = *clock;
            }
        }
    }

    /// Is `node` currently enabled? O(1).
    pub fn contains(&self, node: NodeId) -> bool {
        self.slots[node.index()].is_some()
    }

    /// The nodes that listen to `n`, each with `n`'s slot in their peer
    /// list ([`ProtocolModel::reverse_peers`]).
    pub fn reverse_peers(&self, n: NodeId) -> &[ReversePeer] {
        &self.rev_peers[n]
    }

    /// Is the enabled set empty (i.e. the state converged)?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of full `enabled_at` derivations so far: one per entry a
    /// rebuild derived (see the type docs) and one per recomputation after a
    /// step.
    pub fn recompute_count(&self) -> u64 {
        self.recomputed
    }

    /// Number of single-edge updates performed so far.
    pub fn edge_update_count(&self) -> u64 {
        self.edge_updates
    }

    /// Number of stepped-node entries dropped without a re-derivation so far
    /// (see the type docs); each is a full recomputation avoided.
    pub fn stepped_skip_count(&self) -> u64 {
        self.stepped_skips
    }

    /// Number of single-edge updates so far that built no advertisement.
    pub fn edge_update_unbuilt_count(&self) -> u64 {
        self.edge_updates_unbuilt
    }

    /// Number of enabled entries whose node holds a route
    /// ([`EnabledChoice::routed`]). The state is consistent in the §4.1.1
    /// sense iff this is zero. O(1): maintained by every slot swap.
    pub fn inconsistent_count(&self) -> usize {
        self.inconsistent
    }

    /// Install `entry` as node `node`'s cache slot (None = not enabled) and
    /// return the displaced previous slot. O(1): a slot swap plus a bitset
    /// and counter update (O(log n) more with the cost heap). Used both for
    /// delta maintenance and for restoring displaced entries on undo.
    pub fn set_entry(
        &mut self,
        node: NodeId,
        entry: Option<EnabledChoice>,
    ) -> Option<EnabledChoice> {
        let idx = node.index();
        let now = entry.is_some();
        let routed_now = entry.as_ref().is_some_and(|c| c.routed);
        if let Some(costs) = &mut self.costs {
            costs.set(node, entry.as_ref().map(CostHeap::key));
        }
        let prev = std::mem::replace(&mut self.slots[idx], entry);
        let was = prev.is_some();
        if now != was {
            let bit = 1u64 << (idx % 64);
            if now {
                self.bits[idx / 64] |= bit;
                self.len += 1;
            } else {
                self.bits[idx / 64] &= !bit;
                self.len -= 1;
            }
        }
        self.inconsistent += usize::from(routed_now);
        self.inconsistent -= usize::from(prev.as_ref().is_some_and(|c| c.routed));
        prev
    }

    /// Bring the cache up to date after `node`'s best route changed from
    /// `prev` to `state.best[node]`: `node`'s own entry is dropped or
    /// recomputed, each reverse peer gets a single-edge update or, when its
    /// preconditions do not hold, a full recomputation (see the type docs).
    /// Every displaced cache slot is pushed onto `displaced` (in update
    /// order) so the caller can undo the step by replaying them in reverse
    /// through [`IncrementalEnabled::set_entry`].
    pub fn refresh_after_step(
        &mut self,
        rpvp: &Rpvp,
        state: &RpvpState,
        interner: &mut RouteInterner,
        node: NodeId,
        prev: RouteHandle,
        displaced: &mut Vec<(NodeId, Option<EnabledChoice>)>,
    ) {
        self.mark_changed(node);
        let adopted = state.best[node.index()];
        let adopted_maximal = adopted.is_some()
            && self.slots[node.index()]
                .as_ref()
                .is_some_and(|c| c.best_updates.iter().any(|&(_, h)| h == adopted));
        let listens_to_itself = self.rev_peers[node]
            .binary_search_by_key(&node, |r| r.node)
            .is_ok();
        if adopted_maximal && !listens_to_itself {
            self.stepped_skips += 1;
            let prev_entry = self.set_entry(node, None);
            displaced.push((node, prev_entry));
            self.audit(rpvp, state, interner, node, "stepped-node skip");
        } else {
            self.refresh_node(rpvp, state, interner, node, displaced);
        }
        for k in 0..self.rev_peers[node].len() {
            let to = self.rev_peers[node][k];
            if to.node == node {
                continue;
            }
            if prev.is_none() && to.slot != ReversePeer::REPEATED {
                self.edge_update(rpvp, state, interner, node, to, displaced);
            } else {
                self.refresh_node(rpvp, state, interner, to.node, displaced);
            }
        }
    }

    fn refresh_node(
        &mut self,
        rpvp: &Rpvp,
        state: &RpvpState,
        interner: &mut RouteInterner,
        m: NodeId,
        displaced: &mut Vec<(NodeId, Option<EnabledChoice>)>,
    ) {
        if !self.eligible[m.index()] {
            return;
        }
        self.recomputed += 1;
        let entry = rpvp.enabled_at_with(state, interner, m, &mut self.candidates);
        let had_new = entry.is_some();
        let prev = self.set_entry(m, entry);
        // (None → None) transitions need no undo record.
        if had_new || prev.is_some() {
            displaced.push((m, prev));
        }
    }

    /// Patch the entry of `to.node` for the one advertisement that changed:
    /// `n`, which held `⊥` before the step and sits at `peers(m)[to.slot]`
    /// only, now holds `state.best[n]`.
    fn edge_update(
        &mut self,
        rpvp: &Rpvp,
        state: &RpvpState,
        interner: &mut RouteInterner,
        n: NodeId,
        to: ReversePeer,
        displaced: &mut Vec<(NodeId, Option<EnabledChoice>)>,
    ) {
        let m = to.node;
        if !self.eligible[m.index()] {
            return;
        }
        self.edge_updates += 1;
        let model = rpvp.model;
        let old = self.slots[m.index()].as_ref();
        let current = interner.resolve(state.best[m.index()]);
        let routed = current.is_some();
        let invalid = if current.and_then(Route::next_hop) == Some(n) {
            rpvp.invalid(state, interner, m)
        } else {
            old.is_some_and(|c| c.invalid)
        };
        let old_updates = old.map_or(&[][..], |c| &c.best_updates);
        // Does `m` keep the new advertisement — usable over its current
        // route, and dominated by no cached maximal update? It is ranked
        // before it is built; `kept` collects the updates it ties with, and
        // `kept_cost` their least cost.
        let best_n = interner.resolve(state.best[n.index()]);
        let mut built = None;
        let mut kept = UpdateVec::new();
        let mut kept_cost = u64::MAX;
        let keeps = best_n.is_some_and(|best_n| {
            let mut rank =
                |other: &Route| model.prefer_advertisement(n, m, best_n, other, &mut built);
            current.is_none_or(|cur| rank(cur) == Some(Preference::Better))
                && old_updates.iter().all(|&(p, u)| {
                    let cached = interner.resolve(u).expect("cached update is interned");
                    match rank(cached) {
                        None | Some(Preference::Worse) => false,
                        Some(Preference::Better) => true,
                        Some(Preference::Tied) => {
                            kept.push((p, u));
                            kept_cost = kept_cost.min(cached.igp_cost);
                            true
                        }
                    }
                })
        });
        let adv = if keeps {
            built
                .take()
                .or_else(|| best_n.and_then(|best_n| model.advertise(n, m, best_n)))
        } else {
            None
        };
        if adv.is_none() && built.is_none() {
            self.edge_updates_unbuilt += 1;
        }
        let (best_updates, least_cost) = match adv {
            None if old.is_some_and(|c| c.invalid) == invalid => {
                return self.audit(rpvp, state, interner, m, "single-edge update");
            }
            None => (
                old_updates.iter().copied().collect(),
                old.map_or(u64::MAX, |c| c.least_cost),
            ),
            Some(adv) => {
                // Survivors keep their order; `adv` goes where `n` sits in
                // `peers(m)`. A survivor precedes it iff its peer occupies an
                // earlier slot: walk the slots before `n`'s, matching the
                // survivors as the subsequence of the peer list they are.
                let mut before = 0;
                if !kept.is_empty() {
                    for &p in &model.peers(m)[..to.slot as usize] {
                        if before < kept.len() && kept[before].0 == p {
                            before += 1;
                        }
                    }
                }
                let least_cost = kept_cost.min(adv.igp_cost);
                let handle = interner.intern_owned(adv);
                let mut updates = UpdateVec::new();
                for &e in &kept[..before] {
                    updates.push(e);
                }
                updates.push((n, handle));
                for &e in &kept[before..] {
                    updates.push(e);
                }
                (updates, least_cost)
            }
        };
        let entry = (invalid || !best_updates.is_empty()).then_some(EnabledChoice {
            node: m,
            invalid,
            routed,
            least_cost,
            best_updates,
        });
        let prev = self.set_entry(m, entry);
        displaced.push((m, prev));
        self.audit(rpvp, state, interner, m, "single-edge update");
    }

    /// Debug builds challenge every patched or dropped slot by re-deriving it
    /// with the full routine (which interns nothing the shortcut did not).
    fn audit(
        &mut self,
        rpvp: &Rpvp,
        state: &RpvpState,
        interner: &mut RouteInterner,
        m: NodeId,
        rule: &str,
    ) {
        if cfg!(debug_assertions) {
            assert_eq!(
                self.slots[m.index()],
                rpvp.enabled_at_with(state, interner, m, &mut self.candidates),
                "{rule} of {m} diverged from the full recomputation"
            );
        }
    }
}

/// An indexed binary min-heap over the enabled nodes of an
/// [`IncrementalEnabled`], keyed by (has no update, least update cost, node
/// id). The node id makes keys unique, so the top does not depend on the
/// order entries arrived in — an undo that replays them differently lands on
/// the same top.
struct CostHeap {
    /// Heap-ordered `(no update, least cost, node id)` keys.
    heap: Vec<(bool, u64, u32)>,
    /// `pos[n]` = index of node `n`'s key in `heap`, or [`CostHeap::ABSENT`].
    pos: Vec<u32>,
}

impl CostHeap {
    const ABSENT: u32 = u32::MAX;

    fn new(nodes: usize) -> Self {
        CostHeap {
            heap: Vec::with_capacity(nodes),
            pos: vec![Self::ABSENT; nodes],
        }
    }

    /// The key of an entry, without its node id.
    fn key(choice: &EnabledChoice) -> (bool, u64) {
        (choice.best_updates.is_empty(), choice.least_cost)
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.pos.fill(Self::ABSENT);
    }

    fn top(&self) -> Option<NodeId> {
        self.heap.first().map(|&(_, _, n)| NodeId(n))
    }

    /// Insert, re-key or (with `None`) remove `node`.
    fn set(&mut self, node: NodeId, key: Option<(bool, u64)>) {
        let at = self.pos[node.index()];
        match (at, key) {
            (Self::ABSENT, None) => {}
            (Self::ABSENT, Some((empty, cost))) => {
                self.heap.push((empty, cost, node.0));
                let i = self.heap.len() - 1;
                self.pos[node.index()] = i as u32;
                self.sift_up(i);
            }
            (i, Some((empty, cost))) => {
                self.heap[i as usize] = (empty, cost, node.0);
                self.sift(i as usize);
            }
            (i, None) => {
                self.pos[node.index()] = Self::ABSENT;
                let last = self.heap.pop().expect("a present node is in the heap");
                if (i as usize) < self.heap.len() {
                    self.heap[i as usize] = last;
                    self.pos[last.2 as usize] = i;
                    self.sift(i as usize);
                }
            }
        }
    }

    /// Restore the heap order around a key that changed at `i`.
    fn sift(&mut self, i: usize) {
        let i = self.sift_up(i);
        self.sift_down(i);
    }

    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] >= self.heap[parent] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
        i
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                return;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.heap[right] < self.heap[left] {
                right
            } else {
                left
            };
            if self.heap[child] >= self.heap[i] {
                return;
            }
            self.swap(i, child);
            i = child;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].2 as usize] = a as u32;
        self.pos[self.heap[b].2 as usize] = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Preference;
    use plankton_net::ip::Prefix;

    /// A 4-node line 0-1-2-3 where node 0 originates; ranking prefers fewer
    /// hops, ties broken deterministically by lower next-hop id (total
    /// order), so RPVP has a single converged state.
    struct Line4;

    impl ProtocolModel for Line4 {
        fn node_count(&self) -> usize {
            4
        }
        fn origins(&self) -> &[NodeId] {
            const O: [NodeId; 1] = [NodeId(0)];
            &O
        }
        fn peers(&self, n: NodeId) -> &[NodeId] {
            const P0: [NodeId; 1] = [NodeId(1)];
            const P1: [NodeId; 2] = [NodeId(0), NodeId(2)];
            const P2: [NodeId; 2] = [NodeId(1), NodeId(3)];
            const P3: [NodeId; 1] = [NodeId(2)];
            match n.0 {
                0 => &P0,
                1 => &P1,
                2 => &P2,
                _ => &P3,
            }
        }
        fn advertise(&self, from: NodeId, to: NodeId, r: &Route) -> Option<Route> {
            if r.traverses(to) {
                return None;
            }
            Some(r.extended_through(from))
        }
        fn origin_route(&self, _o: NodeId) -> Route {
            Route::originated(Prefix::DEFAULT)
        }
        fn prefer(&self, _n: NodeId, a: &Route, b: &Route) -> Preference {
            match a
                .hop_count()
                .cmp(&b.hop_count())
                .then_with(|| a.next_hop().map(|x| x.0).cmp(&b.next_hop().map(|x| x.0)))
            {
                std::cmp::Ordering::Less => Preference::Better,
                std::cmp::Ordering::Greater => Preference::Worse,
                std::cmp::Ordering::Equal => Preference::Tied,
            }
        }
        fn name(&self) -> &'static str {
            "line4"
        }
    }

    #[test]
    fn initial_state_has_origin_epsilon() {
        let m = Line4;
        let rpvp = Rpvp::new(&m);
        let mut interner = RouteInterner::new();
        let s = rpvp.initial_state(&mut interner);
        assert!(s.best(NodeId(0), &interner).unwrap().is_origin());
        assert!(s.best(NodeId(1), &interner).is_none());
        assert!(s.has_route(NodeId(0)));
        assert!(!s.has_route(NodeId(1)));
        assert_eq!(s.nodes_with_routes().count(), 1);
    }

    #[test]
    fn enabled_set_grows_as_routes_propagate() {
        let m = Line4;
        let rpvp = Rpvp::new(&m);
        let mut interner = RouteInterner::new();
        let mut s = rpvp.initial_state(&mut interner);
        // Initially only node 1 (adjacent to the origin) is enabled.
        let enabled = rpvp.enabled(&s, &mut interner);
        assert_eq!(enabled.len(), 1);
        assert_eq!(enabled[0].node, NodeId(1));
        assert!(!enabled[0].invalid);
        assert_eq!(enabled[0].best_updates.len(), 1);
        // After node 1 acts, node 2 becomes enabled.
        rpvp.step(&mut s, &mut interner, NodeId(1), Some(NodeId(0)));
        let enabled = rpvp.enabled(&s, &mut interner);
        assert_eq!(enabled.len(), 1);
        assert_eq!(enabled[0].node, NodeId(2));
    }

    #[test]
    fn full_execution_converges_to_shortest_paths() {
        let m = Line4;
        let rpvp = Rpvp::new(&m);
        let mut interner = RouteInterner::new();
        let mut s = rpvp.initial_state(&mut interner);
        let mut steps = 0;
        while let Some(choice) = rpvp.enabled(&s, &mut interner).into_iter().next() {
            let peer = choice.best_updates.first().map(|(p, _)| *p);
            rpvp.step(&mut s, &mut interner, choice.node, peer);
            steps += 1;
            assert!(steps <= 10, "execution did not converge");
        }
        assert!(rpvp.converged(&s, &interner));
        let c = rpvp.converged_state(&s, &interner);
        assert_eq!(c.next_hop(NodeId(1)), Some(NodeId(0)));
        assert_eq!(c.next_hop(NodeId(2)), Some(NodeId(1)));
        assert_eq!(c.next_hop(NodeId(3)), Some(NodeId(2)));
        assert_eq!(
            c.walk_from(NodeId(3)),
            vec![NodeId(3), NodeId(2), NodeId(1), NodeId(0)]
        );
        assert!(c.has_routes());
        assert_eq!(c.node_count(), 4);
        let routes = c.to_routes();
        assert!(routes.iter().all(Option::is_some));
        assert_eq!(routes[2].as_ref(), c.best(NodeId(2)));
    }

    #[test]
    fn invalid_detection_when_upstream_withdraws() {
        let m = Line4;
        let rpvp = Rpvp::new(&m);
        let mut interner = RouteInterner::new();
        let mut s = rpvp.initial_state(&mut interner);
        rpvp.step(&mut s, &mut interner, NodeId(1), Some(NodeId(0)));
        rpvp.step(&mut s, &mut interner, NodeId(2), Some(NodeId(1)));
        // Manually clear node 1's path: node 2's path is now invalid.
        s.best[1] = RouteHandle::NONE;
        assert!(rpvp.invalid(&s, &interner, NodeId(2)));
        assert!(!rpvp.invalid(&s, &interner, NodeId(3)));
        let choice = rpvp.enabled_at(&s, &mut interner, NodeId(2)).unwrap();
        assert!(choice.invalid);
        // Stepping with no peer clears the invalid path.
        rpvp.step(&mut s, &mut interner, NodeId(2), None);
        assert!(s.best(NodeId(2), &interner).is_none());
    }

    #[test]
    fn origins_are_never_enabled() {
        let m = Line4;
        let rpvp = Rpvp::new(&m);
        let mut interner = RouteInterner::new();
        let s = rpvp.initial_state(&mut interner);
        assert!(rpvp.enabled_at(&s, &mut interner, NodeId(0)).is_none());
        assert!(!rpvp.is_enabled(&s, &interner, NodeId(0)));
        assert!(rpvp.is_origin(NodeId(0)));
        assert!(!rpvp.is_origin(NodeId(1)));
    }

    #[test]
    fn converged_detection() {
        let m = Line4;
        let rpvp = Rpvp::new(&m);
        let mut interner = RouteInterner::new();
        let s = rpvp.initial_state(&mut interner);
        assert!(!rpvp.converged(&s, &interner));
        assert!(rpvp.is_enabled(&s, &interner, NodeId(1)));
    }

    #[test]
    fn step_adopting_round_trips_through_undo() {
        let m = Line4;
        let rpvp = Rpvp::new(&m);
        let mut interner = RouteInterner::new();
        let mut s = rpvp.initial_state(&mut interner);
        let before = s.clone();
        let choice = rpvp.enabled(&s, &mut interner).remove(0);
        let (peer, handle) = choice.best_updates[0];
        // Adoption matches the peer-recomputing step()...
        let prev = rpvp.step_adopting(&mut s, &interner, choice.node, handle);
        let mut via_step = before.clone();
        rpvp.step(&mut via_step, &mut interner, choice.node, Some(peer));
        assert_eq!(s, via_step);
        // ...and undo restores the exact prior state.
        rpvp.undo_step(&mut s, choice.node, prev);
        assert_eq!(s, before);
    }

    #[test]
    fn clear_step_round_trips_through_undo() {
        let m = Line4;
        let rpvp = Rpvp::new(&m);
        let mut interner = RouteInterner::new();
        let mut s = rpvp.initial_state(&mut interner);
        rpvp.step(&mut s, &mut interner, NodeId(1), Some(NodeId(0)));
        rpvp.step(&mut s, &mut interner, NodeId(2), Some(NodeId(1)));
        s.best[1] = RouteHandle::NONE; // node 2's path is now invalid
        let before = s.clone();
        let prev = rpvp.step_adopting(&mut s, &interner, NodeId(2), RouteHandle::NONE);
        assert!(s.best(NodeId(2), &interner).is_none());
        assert!(prev.is_some());
        rpvp.undo_step(&mut s, NodeId(2), prev);
        assert_eq!(s, before);
    }

    #[test]
    fn from_routes_round_trips() {
        let m = Line4;
        let rpvp = Rpvp::new(&m);
        let mut interner = RouteInterner::new();
        let mut s = rpvp.initial_state(&mut interner);
        rpvp.step(&mut s, &mut interner, NodeId(1), Some(NodeId(0)));
        let routes: Vec<Option<Route>> = s
            .best
            .iter()
            .map(|&h| interner.resolve(h).cloned())
            .collect();
        let rebuilt = RpvpState::from_routes(&routes, &mut interner);
        assert_eq!(rebuilt, s, "re-interning the same routes hits same handles");
    }

    fn eligible_for(m: &dyn ProtocolModel) -> Vec<bool> {
        let rpvp = Rpvp::new(m);
        (0..m.node_count())
            .map(|i| !rpvp.is_origin(NodeId(i as u32)))
            .collect()
    }

    #[test]
    fn incremental_enabled_tracks_full_recompute() {
        let m = Line4;
        let rpvp = Rpvp::new(&m);
        let mut interner = RouteInterner::new();
        let mut s = rpvp.initial_state(&mut interner);
        let mut inc = IncrementalEnabled::new(m.reverse_peers(), eligible_for(&m));
        inc.rebuild(&rpvp, &s, &mut interner);
        let mut displaced = Vec::new();
        let mut steps = 0;
        while let Some(choice) = inc.view().first().cloned() {
            let adopt = choice
                .best_updates
                .first()
                .map(|&(_, h)| h)
                .unwrap_or(RouteHandle::NONE);
            let prev = rpvp.step_adopting(&mut s, &interner, choice.node, adopt);
            inc.refresh_after_step(&rpvp, &s, &mut interner, choice.node, prev, &mut displaced);
            assert_eq!(inc.view().to_vec(), rpvp.enabled(&s, &mut interner));
            assert_eq!(inc.len(), inc.view().iter().count());
            steps += 1;
            assert!(steps <= 10, "execution did not converge");
        }
        assert!(rpvp.converged(&s, &interner));
        assert!(inc.is_empty());
        assert!(inc.recompute_count() > 0);
    }

    /// [`Line4`] with node 2 listing its upstream peer twice: the reverse
    /// index cannot name one slot for it, so steps at node 1 must fall back
    /// to recomputing node 2 in full.
    struct Line4Doubled;

    impl ProtocolModel for Line4Doubled {
        fn node_count(&self) -> usize {
            4
        }
        fn origins(&self) -> &[NodeId] {
            Line4.origins()
        }
        fn peers(&self, n: NodeId) -> &[NodeId] {
            const P2: [NodeId; 3] = [NodeId(1), NodeId(3), NodeId(1)];
            match n.0 {
                2 => &P2,
                _ => Line4.peers(n),
            }
        }
        fn advertise(&self, from: NodeId, to: NodeId, r: &Route) -> Option<Route> {
            Line4.advertise(from, to, r)
        }
        fn origin_route(&self, o: NodeId) -> Route {
            Line4.origin_route(o)
        }
        fn prefer(&self, n: NodeId, a: &Route, b: &Route) -> Preference {
            Line4.prefer(n, a, b)
        }
        fn name(&self) -> &'static str {
            "line4-doubled"
        }
    }

    #[test]
    fn a_peer_listed_twice_falls_back_to_the_full_recomputation() {
        let m = Line4Doubled;
        let rev = m.reverse_peers();
        assert_eq!(
            rev[NodeId(1)],
            [
                ReversePeer {
                    node: NodeId(0),
                    slot: 0
                },
                ReversePeer {
                    node: NodeId(2),
                    slot: ReversePeer::REPEATED
                }
            ]
        );
        let rpvp = Rpvp::new(&m);
        let mut interner = RouteInterner::new();
        let mut s = rpvp.initial_state(&mut interner);
        let mut inc = IncrementalEnabled::new(rev, eligible_for(&m));
        inc.rebuild(&rpvp, &s, &mut interner);
        let mut displaced = Vec::new();
        while let Some(choice) = inc.view().first().cloned() {
            let (full, edges) = (inc.recompute_count(), inc.edge_update_count());
            let prev = rpvp.step_adopting(&mut s, &interner, choice.node, choice.best_updates[0].1);
            inc.refresh_after_step(&rpvp, &s, &mut interner, choice.node, prev, &mut displaced);
            assert_eq!(inc.view().to_vec(), rpvp.enabled(&s, &mut interner));
            if choice.node == NodeId(1) {
                // Node 2 in full; node 1 adopted a maximal update, so its
                // own entry is dropped; the origin is not eligible.
                assert_eq!(inc.recompute_count(), full + 1);
                assert_eq!(inc.stepped_skip_count(), 1);
                assert_eq!(inc.edge_update_count(), edges);
                // Both copies of the advertisement are maximal.
                assert_eq!(inc.view().first().unwrap().best_updates.len(), 2);
            }
        }
        assert!(rpvp.converged(&s, &interner));
        assert!(
            inc.edge_update_count() > 0,
            "node 3 ↔ node 2 are plain edges"
        );
    }

    #[test]
    fn edge_update_revalidates_a_path_through_the_stepped_node() {
        let m = Line4;
        let rpvp = Rpvp::new(&m);
        let mut interner = RouteInterner::new();
        let mut s = rpvp.initial_state(&mut interner);
        rpvp.step(&mut s, &mut interner, NodeId(1), Some(NodeId(0)));
        rpvp.step(&mut s, &mut interner, NodeId(2), Some(NodeId(1)));
        let route_of_1 = std::mem::replace(&mut s.best[1], RouteHandle::NONE);
        let mut inc = IncrementalEnabled::new(m.reverse_peers(), eligible_for(&m));
        inc.rebuild(&rpvp, &s, &mut interner);
        assert!(inc.view().get_node(NodeId(2)).unwrap().invalid);
        // Node 1 re-adopts the very path node 2's route continues: node 2
        // gains no update, but is no longer invalid — and no longer enabled.
        let prev = rpvp.step_adopting(&mut s, &interner, NodeId(1), route_of_1);
        let mut displaced = Vec::new();
        inc.refresh_after_step(&rpvp, &s, &mut interner, NodeId(1), prev, &mut displaced);
        assert_eq!(inc.edge_update_count(), 1);
        assert_eq!(inc.view().get_node(NodeId(2)), None);
        assert_eq!(inc.view().to_vec(), rpvp.enabled(&s, &mut interner));
    }

    #[test]
    fn incremental_enabled_undo_restores_displaced_entries() {
        let m = Line4;
        let rpvp = Rpvp::new(&m);
        let mut interner = RouteInterner::new();
        let mut s = rpvp.initial_state(&mut interner);
        let mut inc = IncrementalEnabled::new(m.reverse_peers(), eligible_for(&m));
        inc.rebuild(&rpvp, &s, &mut interner);
        let before = inc.view().to_vec();
        let choice = inc.view().first().cloned().unwrap();
        let adopt = choice
            .best_updates
            .first()
            .map(|&(_, h)| h)
            .unwrap_or(RouteHandle::NONE);
        let prev_best = rpvp.step_adopting(&mut s, &interner, choice.node, adopt);
        let mut displaced = Vec::new();
        inc.refresh_after_step(
            &rpvp,
            &s,
            &mut interner,
            choice.node,
            prev_best,
            &mut displaced,
        );
        assert_ne!(inc.view().to_vec(), before);
        // Undo: revert the state, then replay displaced entries in reverse.
        rpvp.undo_step(&mut s, choice.node, prev_best);
        for (node, entry) in displaced.into_iter().rev() {
            inc.set_entry(node, entry);
        }
        assert_eq!(inc.view().to_vec(), before);
        assert_eq!(inc.view().to_vec(), rpvp.enabled(&s, &mut interner));
    }

    #[test]
    fn enabled_view_lookup_and_order() {
        let m = Line4;
        let rpvp = Rpvp::new(&m);
        let mut interner = RouteInterner::new();
        let mut s = rpvp.initial_state(&mut interner);
        rpvp.step(&mut s, &mut interner, NodeId(1), Some(NodeId(0)));
        s.best[1] = RouteHandle::NONE; // nodes 1 and 2 both enabled now
        let list = rpvp.enabled(&s, &mut interner);
        let slice_view = EnabledView::Slice(&list);
        let mut inc = IncrementalEnabled::new(m.reverse_peers(), eligible_for(&m));
        inc.rebuild(&rpvp, &s, &mut interner);
        let nodes: Vec<NodeId> = inc.view().iter().map(|c| c.node).collect();
        assert!(nodes.windows(2).all(|w| w[0].0 < w[1].0), "node-id order");
        assert_eq!(inc.view().to_vec(), list);
        for c in &list {
            assert_eq!(slice_view.get_node(c.node), Some(c));
            assert_eq!(inc.view().get_node(c.node), Some(c));
        }
        assert_eq!(slice_view.get_node(NodeId(0)), None);
        assert_eq!(inc.view().get_node(NodeId(0)), None);
        assert_eq!(slice_view.first(), list.first());
        assert_eq!(inc.view().first(), list.first());
    }
}
