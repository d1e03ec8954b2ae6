//! The abstract protocol model interface (extended SPVP's import/export
//! filters and ranking functions, §3.4.1 of the paper).

use crate::route::Route;
use plankton_net::topology::NodeId;

/// The result of comparing two candidate routes at a node.
///
/// The ranking function is a *partial* order (the paper's extension of SPVP):
/// [`Preference::Tied`] means the node may legitimately select either route —
/// e.g. BGP age-based tie-breaking, where the winner depends on arrival
/// order. Ties are exactly where the model checker must branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Preference {
    /// The first route is strictly preferred.
    Better,
    /// The second route is strictly preferred.
    Worse,
    /// Neither is preferred: a non-deterministic choice.
    Tied,
}

impl Preference {
    /// Flip the comparison direction.
    pub fn reverse(self) -> Preference {
        match self {
            Preference::Better => Preference::Worse,
            Preference::Worse => Preference::Better,
            Preference::Tied => Preference::Tied,
        }
    }
}

/// One entry of [`ProtocolModel::reverse_peers`]`()[n]`: a node that listens
/// to `n`, and where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReversePeer {
    /// The listening node `m` (`n ∈ peers(m)`).
    pub node: NodeId,
    /// The index of `n` in `peers(m)`, or [`ReversePeer::REPEATED`] when `n`
    /// occurs there more than once.
    pub slot: u32,
}

impl ReversePeer {
    /// The `slot` of a node that lists the same peer more than once.
    pub const REPEATED: u32 = u32::MAX;
}

/// A routing protocol instance for **one destination prefix**: the abstract
/// import/export filters and ranking function that RPVP executes over.
///
/// The model is queried, never mutated — all non-determinism lives in the
/// RPVP execution, which keeps protocol instances trivially shareable across
/// verification threads.
pub trait ProtocolModel: Sync {
    /// Number of nodes in the network (node ids are dense `0..node_count`).
    fn node_count(&self) -> usize;

    /// The nodes that originate the destination prefix (their best path is
    /// `ε` in the initial state and never changes).
    fn origins(&self) -> &[NodeId];

    /// The peers of `n` whose advertisements `n` may consider. For OSPF these
    /// are the adjacent routers over live, protocol-enabled links; for BGP
    /// the configured sessions that are currently up.
    fn peers(&self, n: NodeId) -> &[NodeId];

    /// The route `to` would obtain if `from` advertised its current best
    /// route `best_of_from` to it: `import_{to,from}(export_{from,to}(r))`.
    /// Returns `None` if either filter rejects the route (including loop
    /// rejection). The returned route must already be extended through
    /// `from` (i.e. `from` is its next hop) with all attribute rewrites
    /// applied.
    fn advertise(&self, from: NodeId, to: NodeId, best_of_from: &Route) -> Option<Route>;

    /// The route an origin holds for the destination (`ε` plus any
    /// origination attributes).
    fn origin_route(&self, origin: NodeId) -> Route;

    /// The ranking function of `n`: compare two candidate routes. "Strictly
    /// preferred" must be a strict partial order — in particular
    /// *transitive* — which the delta-maintained enabled set relies on
    /// ([`IncrementalEnabled`](crate::rpvp::IncrementalEnabled)).
    fn prefer(&self, n: NodeId, a: &Route, b: &Route) -> Preference;

    /// `prefer(to, advertise(from, to, best_of_from), other)`, or `None` when
    /// `advertise` rejects the route — asked before the advertisement is
    /// built, so a model that can rank it from `best_of_from` alone builds
    /// nothing. `built` caches the advertisement across the calls of one
    /// candidate: the default builds it on the first call and reuses it
    /// after, and the caller takes it from there when it keeps the
    /// candidate, so the route is built at most once. Overrides must answer
    /// exactly what the default does.
    fn prefer_advertisement(
        &self,
        from: NodeId,
        to: NodeId,
        best_of_from: &Route,
        other: &Route,
        built: &mut Option<Route>,
    ) -> Option<Preference> {
        if built.is_none() {
            *built = Some(self.advertise(from, to, best_of_from)?);
        }
        built.as_ref().map(|adv| self.prefer(to, adv, other))
    }

    /// A short protocol name for reporting ("ospf", "bgp").
    fn name(&self) -> &'static str;

    /// The reverse-peer index: `reverse_peers()[n]` lists the nodes that
    /// consider advertisements *from* `n` (every `m` with `n ∈ peers(m)`),
    /// sorted by node and deduplicated, each with the slot `n` occupies in
    /// `peers(m)` ([`ReversePeer`]). An RPVP step at `n` can only change the
    /// enabled status of `n` itself and of these nodes, and only through the
    /// one advertisement `n → m` — which is what makes delta-maintained
    /// enabled sets sound, and single-edge updates of them possible. Built
    /// once per checker run (O(edges)).
    fn reverse_peers(&self) -> Vec<Vec<ReversePeer>> {
        let n = self.node_count();
        let mut rev: Vec<Vec<ReversePeer>> = vec![Vec::new(); n];
        for i in 0..n {
            let m = NodeId(i as u32);
            for (slot, &p) in self.peers(m).iter().enumerate() {
                // Nodes are visited in id order, so each list stays sorted
                // and a repeat of `m` can only be the entry pushed last.
                match rev[p.index()].last_mut() {
                    Some(last) if last.node == m => last.slot = ReversePeer::REPEATED,
                    _ => rev[p.index()].push(ReversePeer {
                        node: m,
                        slot: slot as u32,
                    }),
                }
            }
        }
        rev
    }

    /// Select the most-preferred routes among `candidates` according to `n`'s
    /// ranking function. Returns the indices of the maximal elements: more
    /// than one index means the choice among them is non-deterministic.
    fn best_indices(&self, n: NodeId, candidates: &[Route]) -> Vec<usize> {
        let mut best: Vec<usize> = Vec::new();
        'outer: for (i, c) in candidates.iter().enumerate() {
            // Discard c if any other candidate is strictly better.
            for (j, other) in candidates.iter().enumerate() {
                if i != j && self.prefer(n, other, c) == Preference::Better {
                    continue 'outer;
                }
            }
            best.push(i);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::Route;
    use plankton_net::ip::Prefix;

    /// A toy model over a line 0-1-2 where node 2 originates and lower
    /// local-pref loses.
    struct Line;

    impl ProtocolModel for Line {
        fn node_count(&self) -> usize {
            3
        }
        fn origins(&self) -> &[NodeId] {
            const O: [NodeId; 1] = [NodeId(2)];
            &O
        }
        fn peers(&self, n: NodeId) -> &[NodeId] {
            const P0: [NodeId; 1] = [NodeId(1)];
            const P1: [NodeId; 2] = [NodeId(0), NodeId(2)];
            const P2: [NodeId; 1] = [NodeId(1)];
            match n.0 {
                0 => &P0,
                1 => &P1,
                _ => &P2,
            }
        }
        fn advertise(&self, from: NodeId, to: NodeId, r: &Route) -> Option<Route> {
            if r.traverses(to) {
                return None;
            }
            Some(r.extended_through(from))
        }
        fn origin_route(&self, _origin: NodeId) -> Route {
            Route::originated(Prefix::DEFAULT)
        }
        fn prefer(&self, _n: NodeId, a: &Route, b: &Route) -> Preference {
            match a.attrs.local_pref.cmp(&b.attrs.local_pref) {
                std::cmp::Ordering::Greater => Preference::Better,
                std::cmp::Ordering::Less => Preference::Worse,
                std::cmp::Ordering::Equal => Preference::Tied,
            }
        }
        fn name(&self) -> &'static str {
            "line"
        }
    }

    #[test]
    fn preference_reverse() {
        assert_eq!(Preference::Better.reverse(), Preference::Worse);
        assert_eq!(Preference::Worse.reverse(), Preference::Better);
        assert_eq!(Preference::Tied.reverse(), Preference::Tied);
    }

    #[test]
    fn best_indices_picks_maximal_elements() {
        let m = Line;
        let mut a = Route::originated(Prefix::DEFAULT);
        a.attrs.local_pref = 200;
        let mut b = Route::originated(Prefix::DEFAULT);
        b.attrs.local_pref = 100;
        let c = b.clone();
        let best = m.best_indices(NodeId(0), &[a.clone(), b.clone(), c.clone()]);
        assert_eq!(best, vec![0]);
        let tied = m.best_indices(NodeId(0), &[b, c]);
        assert_eq!(tied, vec![0, 1]);
        let empty: Vec<usize> = m.best_indices(NodeId(0), &[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn reverse_peers_inverts_the_peer_relation() {
        let m = Line;
        let rev = m.reverse_peers();
        assert_eq!(rev.len(), 3);
        for i in 0..3u32 {
            let n = NodeId(i);
            // m ∈ rev[n] ⟺ n ∈ peers(m).
            for j in 0..3u32 {
                let mm = NodeId(j);
                let slot = m.peers(mm).iter().position(|&p| p == n);
                let entry = rev[n.index()].iter().find(|r| r.node == mm);
                assert_eq!(
                    entry.map(|r| r.slot as usize),
                    slot,
                    "rev[{n}] vs peers({mm})"
                );
            }
            // Sorted and deduplicated.
            assert!(rev[n.index()].windows(2).all(|w| w[0].node < w[1].node));
        }
    }

    #[test]
    fn loop_rejection_in_advertise() {
        let m = Line;
        let r = Route::originated(Prefix::DEFAULT).extended_through(NodeId(1));
        assert!(m.advertise(NodeId(0), NodeId(1), &r).is_none());
        assert!(m.advertise(NodeId(1), NodeId(0), &r).is_some());
    }
}
