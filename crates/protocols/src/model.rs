//! The abstract protocol model interface (extended SPVP's import/export
//! filters and ranking functions, §3.4.1 of the paper).

use crate::route::Route;
use plankton_net::topology::NodeId;
use std::sync::Arc;

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

/// One entry of a [`ReversePeers`] row: a node that listens to the row's
/// node `n`, and where.
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

/// The reverse-peer index of a peer relation ([`ProtocolModel::reverse_peers`])
/// in compressed sparse rows: one flat entry array, and per node an offset
/// into it. Row `n` (`rev[n]`) lists every `m` with `n ∈ peers(m)`, sorted by
/// node and deduplicated, each with the slot `n` occupies in `peers(m)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReversePeers {
    /// Row `n` is `entries[offsets[n]..offsets[n + 1]]`.
    offsets: Vec<u32>,
    entries: Vec<ReversePeer>,
}

impl ReversePeers {
    /// Invert the peer relation `peers` over nodes `0..node_count`: a
    /// counting pass sizes the rows, a second pass fills them. Listeners are
    /// visited in id order, so each row comes out sorted, and a repeat of a
    /// listener can only be the entry its row received last.
    pub(crate) fn build<'p>(node_count: usize, peers: impl Fn(NodeId) -> &'p [NodeId]) -> Self {
        // `last[p]` = the last listener counted (then placed) in row `p`.
        let mut last = vec![u32::MAX; node_count];
        let mut offsets = vec![0u32; node_count + 1];
        for m in 0..node_count as u32 {
            for &p in peers(NodeId(m)) {
                if last[p.index()] != m {
                    last[p.index()] = m;
                    offsets[p.index() + 1] += 1;
                }
            }
        }
        for i in 0..node_count {
            offsets[i + 1] += offsets[i];
        }
        let placeholder = ReversePeer {
            node: NodeId(0),
            slot: 0,
        };
        let mut entries = vec![placeholder; offsets[node_count] as usize];
        // `cursor[p]` = where row `p`'s next entry goes.
        let mut cursor = offsets[..node_count].to_vec();
        last.fill(u32::MAX);
        for m in 0..node_count as u32 {
            for (slot, &p) in peers(NodeId(m)).iter().enumerate() {
                let row = p.index();
                if last[row] == m {
                    entries[cursor[row] as usize - 1].slot = ReversePeer::REPEATED;
                } else {
                    last[row] = m;
                    entries[cursor[row] as usize] = ReversePeer {
                        node: NodeId(m),
                        slot: slot as u32,
                    };
                    cursor[row] += 1;
                }
            }
        }
        ReversePeers { offsets, entries }
    }

    /// The number of rows: one per node.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Heap bytes the index holds.
    pub(crate) fn bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.entries.capacity() * std::mem::size_of::<ReversePeer>()
    }
}

impl std::ops::Index<NodeId> for ReversePeers {
    type Output = [ReversePeer];

    fn index(&self, n: NodeId) -> &[ReversePeer] {
        let i = n.index();
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
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

    /// The reverse-peer index ([`ReversePeers`]): row `n` lists the nodes
    /// that consider advertisements *from* `n` (every `m` with
    /// `n ∈ peers(m)`), each with the slot `n` occupies in `peers(m)`. An
    /// RPVP step at `n` can only change the enabled status of `n` itself and
    /// of these nodes, and only through the one advertisement `n → m` —
    /// which is what makes delta-maintained enabled sets sound, and
    /// single-edge updates of them possible. The default inverts
    /// [`ProtocolModel::peers`] in O(nodes + edges) on every call; a model
    /// whose peer relation is shared across instances (OSPF, per failure
    /// set) hands out its shared index instead.
    fn reverse_peers(&self) -> Arc<ReversePeers> {
        Arc::new(ReversePeers::build(self.node_count(), |m| self.peers(m)))
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
                let entry = rev[n].iter().find(|r| r.node == mm);
                assert_eq!(
                    entry.map(|r| r.slot as usize),
                    slot,
                    "rev[{n}] vs peers({mm})"
                );
            }
            // Sorted and deduplicated.
            assert!(rev[n].windows(2).all(|w| w[0].node < w[1].node));
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
