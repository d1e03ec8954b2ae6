//! BGP as a protocol model: eBGP and iBGP sessions, import/export route
//! maps, and the BGP decision process as a partial-order ranking function.
//!
//! The decision process implemented here follows the steps the paper's
//! deterministic-node heuristic walks (§4.1.2): local preference, AS-path
//! length, eBGP-over-iBGP, IGP cost to the next hop — and then *stops*:
//! anything still tied is an age-based (arrival-order) tie, which is exactly
//! the protocol non-determinism the model checker must explore.
//!
//! iBGP sessions peer between loopbacks and are only "up" when the IGP
//! underlay can reach the peer; the underlay also supplies the IGP cost used
//! in the decision process. The underlay is provided by the verifier from the
//! converged outcomes of the PECs this PEC depends on (§3.2).

use crate::model::{Preference, ProtocolModel};
use crate::route::{Route, SessionType};
use plankton_config::bgp::BgpSessionKind;
use plankton_config::route_map::{RouteAttrs, RouteMap};
use plankton_config::Network;
use plankton_net::failure::FailureSet;
use plankton_net::ip::Prefix;
use plankton_net::topology::NodeId;
use std::collections::HashMap;
use std::sync::Arc;

/// The IGP underlay consulted by iBGP: can `from` reach `to` (a loopback
/// owner), and at what IGP cost?
pub trait IgpUnderlay: Send + Sync {
    /// IGP cost from `from` to `to`, or `None` if unreachable.
    fn cost_between(&self, from: NodeId, to: NodeId) -> Option<u64>;
}

/// An underlay in which every node reaches every other at cost 0. Suitable
/// for pure-eBGP networks (which never consult the underlay) and for tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformUnderlay;

impl IgpUnderlay for UniformUnderlay {
    fn cost_between(&self, _from: NodeId, _to: NodeId) -> Option<u64> {
        Some(0)
    }
}

/// An underlay backed by an explicit cost table (used by the verifier to
/// expose the converged IGP state of dependency PECs, and by tests).
#[derive(Clone, Debug, Default)]
pub struct TableUnderlay {
    costs: HashMap<(NodeId, NodeId), u64>,
}

impl TableUnderlay {
    /// An empty table (nothing reachable).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `from` reaches `to` at `cost`.
    pub fn set(&mut self, from: NodeId, to: NodeId, cost: u64) {
        self.costs.insert((from, to), cost);
    }
}

impl IgpUnderlay for TableUnderlay {
    fn cost_between(&self, from: NodeId, to: NodeId) -> Option<u64> {
        if from == to {
            return Some(0);
        }
        self.costs.get(&(from, to)).copied()
    }
}

/// One configured, currently-up BGP session as seen from one side, with the
/// route maps this side applies on it.
#[derive(Clone, Debug)]
struct Session {
    peer: NodeId,
    kind: BgpSessionKind,
    /// Applied to advertisements received from `peer`.
    import: RouteMap,
    /// Applied to advertisements sent to `peer`.
    export: RouteMap,
}

/// A BGP instance for a single destination prefix.
pub struct BgpModel {
    node_count: usize,
    origins: Vec<NodeId>,
    prefix: Prefix,
    /// Per node: the sessions that are up.
    sessions: Vec<Vec<Session>>,
    /// Per node: peer list (same order as `sessions`), for `peers()`.
    peer_lists: Vec<Vec<NodeId>>,
    asn: Vec<u32>,
    underlay: Arc<dyn IgpUnderlay>,
    /// [`BgpModel::max_import_local_pref_global`], computed once.
    max_import_local_pref: u32,
}

impl BgpModel {
    /// Build the BGP model for `prefix` with the given originating routers,
    /// under a set of failed links and over an IGP underlay. eBGP sessions
    /// are up when a live link joins the two routers; iBGP sessions are up
    /// when the underlay reports the peer reachable.
    pub fn new(
        network: &Network,
        prefix: Prefix,
        origins: Vec<NodeId>,
        failures: &FailureSet,
        underlay: Arc<dyn IgpUnderlay>,
    ) -> Self {
        let topo = &network.topology;
        let node_count = topo.node_count();
        let mut sessions: Vec<Vec<Session>> = vec![Vec::new(); node_count];
        let mut asn = vec![0u32; node_count];

        for n in topo.node_ids() {
            let Some(bgp) = &network.device(n).bgp else {
                continue;
            };
            asn[n.index()] = bgp.asn;
            for nbr in &bgp.neighbors {
                let up = match nbr.kind {
                    BgpSessionKind::Ebgp => topo
                        .links_between(n, nbr.peer)
                        .into_iter()
                        .any(|l| !failures.contains(l)),
                    BgpSessionKind::Ibgp => underlay.cost_between(n, nbr.peer).is_some(),
                };
                // The peer must run BGP too.
                if up && network.device(nbr.peer).runs_bgp() {
                    // The maps of the first neighbor entry for the peer,
                    // which is the one a lookup by peer finds.
                    let cfg = bgp.neighbor(nbr.peer).expect("nbr is one of bgp.neighbors");
                    sessions[n.index()].push(Session {
                        peer: nbr.peer,
                        kind: nbr.kind,
                        import: cfg.import.clone(),
                        export: cfg.export.clone(),
                    });
                }
            }
        }
        let peer_lists = sessions
            .iter()
            .map(|s| s.iter().map(|x| x.peer).collect())
            .collect();

        let mut origins = origins;
        origins.sort();
        origins.dedup();
        origins.retain(|o| network.device(*o).runs_bgp());

        BgpModel {
            node_count,
            origins,
            prefix,
            sessions,
            peer_lists,
            asn,
            underlay,
            max_import_local_pref: max_import_local_pref(network),
        }
    }

    /// The destination prefix.
    pub fn prefix(&self) -> Prefix {
        self.prefix
    }

    /// The AS number of a node (0 if it does not run BGP).
    pub fn asn(&self, n: NodeId) -> u32 {
        self.asn[n.index()]
    }

    /// The session kind between `n` and `peer`, if a session is up.
    pub fn session_kind(&self, n: NodeId, peer: NodeId) -> Option<BgpSessionKind> {
        self.session(n, peer).map(|s| s.kind)
    }

    /// Does `n` have any eBGP session that is up? A node with only iBGP
    /// sessions and no origination can never produce an advertisement for its
    /// iBGP peers (split horizon), which the deterministic-node heuristic
    /// exploits.
    pub fn has_ebgp_session(&self, n: NodeId) -> bool {
        self.sessions[n.index()]
            .iter()
            .any(|s| s.kind == BgpSessionKind::Ebgp)
    }

    /// The IGP cost `n` pays to reach routes learned from `peer`
    /// (0 for eBGP sessions).
    pub fn underlay_cost(&self, n: NodeId, peer: NodeId) -> u64 {
        match self.session_kind(n, peer) {
            Some(kind) => self.igp_cost_of(n, peer, kind),
            None => u64::MAX,
        }
    }

    /// The highest LOCAL_PREF any import route map in the network could
    /// assign (at least the default of 100). Used as a conservative bound by
    /// the deterministic-node heuristic (§4.1.2): no future advertisement can
    /// arrive with a higher local preference than this.
    pub fn max_import_local_pref_global(&self) -> u32 {
        self.max_import_local_pref
    }

    /// For every node, the minimum possible AS-path length of any route it
    /// could ever hold for this prefix: a 0/1-weight BFS over the up sessions
    /// from the origins, counting eBGP crossings. Used as the AS-path bound
    /// by the deterministic-node heuristic.
    pub fn min_as_path_distances(&self) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.node_count];
        let mut deque: std::collections::VecDeque<NodeId> = std::collections::VecDeque::new();
        for &o in &self.origins {
            dist[o.index()] = 0;
            deque.push_back(o);
        }
        while let Some(n) = deque.pop_front() {
            // Advertisements flow from n to every peer it has a session with.
            for s in &self.sessions[n.index()] {
                // The peer must also see the session as up.
                if self.session(s.peer, n).is_none() {
                    continue;
                }
                let weight = match s.kind {
                    BgpSessionKind::Ebgp => 1,
                    BgpSessionKind::Ibgp => 0,
                };
                let nd = dist[n.index()].saturating_add(weight);
                if nd < dist[s.peer.index()] {
                    dist[s.peer.index()] = nd;
                    if weight == 0 {
                        deque.push_front(s.peer);
                    } else {
                        deque.push_back(s.peer);
                    }
                }
            }
        }
        dist
    }

    fn session(&self, n: NodeId, peer: NodeId) -> Option<&Session> {
        self.sessions[n.index()].iter().find(|s| s.peer == peer)
    }

    /// The IGP cost `n` pays to reach the BGP next hop of `route` (the
    /// session peer for iBGP routes, 0 for eBGP/originated routes).
    fn igp_cost_of(&self, n: NodeId, peer: NodeId, kind: BgpSessionKind) -> u64 {
        match kind {
            BgpSessionKind::Ebgp => 0,
            BgpSessionKind::Ibgp => self.underlay.cost_between(n, peer).unwrap_or(u64::MAX),
        }
    }
}

/// The highest LOCAL_PREF any import route map of `network` sets, and at
/// least the default of 100.
fn max_import_local_pref(network: &Network) -> u32 {
    use plankton_config::route_map::SetAction;
    let mut max = 100u32;
    for n in network.topology.node_ids() {
        let Some(bgp) = &network.device(n).bgp else {
            continue;
        };
        for nbr in &bgp.neighbors {
            for clause in &nbr.import.clauses {
                for set in &clause.sets {
                    if let SetAction::LocalPref(v) = set {
                        max = max.max(*v);
                    }
                }
            }
        }
    }
    max
}

impl ProtocolModel for BgpModel {
    fn node_count(&self) -> usize {
        self.node_count
    }

    fn origins(&self) -> &[NodeId] {
        &self.origins
    }

    fn peers(&self, n: NodeId) -> &[NodeId] {
        &self.peer_lists[n.index()]
    }

    fn advertise(&self, from: NodeId, to: NodeId, best_of_from: &Route) -> Option<Route> {
        // Node-path loop rejection.
        if best_of_from.traverses(to) {
            return None;
        }
        let from_session = self.session(from, to)?;
        let to_session = self.session(to, from)?;

        // iBGP split horizon: routes learned over iBGP are not re-advertised
        // to other iBGP peers (no route reflection modeled).
        if best_of_from.learned_via == SessionType::Ibgp
            && from_session.kind == BgpSessionKind::Ibgp
        {
            return None;
        }

        // Export at `from`.
        let mut attrs: RouteAttrs = from_session.export.apply(&best_of_from.attrs, to)?;

        if from_session.kind == BgpSessionKind::Ebgp {
            // The exporting AS prepends itself.
            attrs.as_path.insert(0, self.asn(from));
        }

        // AS-path loop rejection at the receiver.
        if attrs.as_path.contains(&self.asn(to)) {
            return None;
        }

        // LOCAL_PREF is not transitive across AS boundaries: reset to the
        // default before the receiver's import policy runs.
        if to_session.kind == BgpSessionKind::Ebgp {
            attrs.local_pref = 100;
        }

        // Import at `to`.
        let attrs = to_session.import.apply(&attrs, from)?;

        let mut route = best_of_from.extended_through(from);
        route.attrs = attrs;
        route.learned_via = match to_session.kind {
            BgpSessionKind::Ebgp => SessionType::Ebgp,
            BgpSessionKind::Ibgp => SessionType::Ibgp,
        };
        route.igp_cost = self.igp_cost_of(to, from, to_session.kind);
        Some(route)
    }

    fn origin_route(&self, _origin: NodeId) -> Route {
        Route::originated(self.prefix)
    }

    fn prefer(&self, _n: NodeId, a: &Route, b: &Route) -> Preference {
        // An originated route always wins over anything learned.
        match (a.is_origin(), b.is_origin()) {
            (true, false) => return Preference::Better,
            (false, true) => return Preference::Worse,
            (true, true) => return Preference::Tied,
            (false, false) => {}
        }
        // 1. Highest LOCAL_PREF.
        match a.attrs.local_pref.cmp(&b.attrs.local_pref) {
            std::cmp::Ordering::Greater => return Preference::Better,
            std::cmp::Ordering::Less => return Preference::Worse,
            std::cmp::Ordering::Equal => {}
        }
        // 2. Shortest AS path.
        match a.attrs.as_path_len().cmp(&b.attrs.as_path_len()) {
            std::cmp::Ordering::Less => return Preference::Better,
            std::cmp::Ordering::Greater => return Preference::Worse,
            std::cmp::Ordering::Equal => {}
        }
        // 3. eBGP preferred over iBGP.
        let session_rank = |r: &Route| match r.learned_via {
            SessionType::Ebgp => 0u8,
            _ => 1,
        };
        match session_rank(a).cmp(&session_rank(b)) {
            std::cmp::Ordering::Less => return Preference::Better,
            std::cmp::Ordering::Greater => return Preference::Worse,
            std::cmp::Ordering::Equal => {}
        }
        // 4. Lowest IGP cost to the next hop.
        match a.igp_cost.cmp(&b.igp_cost) {
            std::cmp::Ordering::Less => return Preference::Better,
            std::cmp::Ordering::Greater => return Preference::Worse,
            std::cmp::Ordering::Equal => {}
        }
        // 5. Age-based tie breaking: genuinely non-deterministic.
        Preference::Tied
    }

    fn name(&self) -> &'static str {
        "bgp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::RouteInterner;
    use crate::rpvp::{Rpvp, RpvpState};
    use plankton_config::scenarios::{bgp_wedgie, disagree_gadget, fat_tree_bgp_rfc7938};

    /// Converge `model` along the first enabled choice; the state comes back
    /// with the interner that resolves it.
    fn converge_first_choice(model: &BgpModel) -> (RpvpState, RouteInterner) {
        let rpvp = Rpvp::new(model);
        let mut interner = RouteInterner::new();
        let mut state = rpvp.initial_state(&mut interner);
        let mut steps = 0usize;
        loop {
            let enabled = rpvp.enabled(&state, &mut interner);
            let Some(choice) = enabled.into_iter().next() else {
                break;
            };
            let peer = choice.best_updates.first().map(|(p, _)| *p);
            rpvp.step(&mut state, &mut interner, choice.node, peer);
            steps += 1;
            assert!(steps < 100_000, "BGP did not converge");
        }
        (state, interner)
    }

    #[test]
    fn ebgp_propagates_and_prepends_as_path() {
        let g = disagree_gadget();
        let model = BgpModel::new(
            &g.network,
            g.destination,
            vec![g.origin],
            &FailureSet::none(),
            Arc::new(UniformUnderlay),
        );
        let origin_route = model.origin_route(g.origin);
        let a = g.actors[0];
        let adv = model.advertise(g.origin, a, &origin_route).unwrap();
        assert_eq!(adv.next_hop(), Some(g.origin));
        assert_eq!(adv.attrs.as_path, vec![model.asn(g.origin)]);
        assert_eq!(adv.learned_via, SessionType::Ebgp);
    }

    #[test]
    fn as_path_loop_is_rejected() {
        let g = disagree_gadget();
        let model = BgpModel::new(
            &g.network,
            g.destination,
            vec![g.origin],
            &FailureSet::none(),
            Arc::new(UniformUnderlay),
        );
        let a = g.actors[0];
        let b = g.actors[1];
        // A route already carrying b's ASN cannot be advertised to b.
        let mut r = model.origin_route(g.origin).extended_through(g.origin);
        r.attrs.as_path = vec![model.asn(g.origin)];
        let via_a = model.advertise(a, b, &r).unwrap();
        assert!(
            model.advertise(b, a, &via_a).is_none() || !via_a.attrs.as_path.contains(&model.asn(a))
        );
        let mut looped = r.clone();
        looped.attrs.as_path.push(model.asn(b));
        assert!(model.advertise(a, b, &looped).is_none());
    }

    #[test]
    fn disagree_gadget_has_nondeterministic_tie() {
        let g = disagree_gadget();
        let model = BgpModel::new(
            &g.network,
            g.destination,
            vec![g.origin],
            &FailureSet::none(),
            Arc::new(UniformUnderlay),
        );
        // From a's point of view, the direct route (local pref 100, path len
        // 1) loses to the route through b (local pref 200, path len 2).
        let direct = model
            .advertise(g.origin, g.actors[0], &model.origin_route(g.origin))
            .unwrap();
        let b_route = model
            .advertise(g.origin, g.actors[1], &model.origin_route(g.origin))
            .unwrap();
        let via_b = model.advertise(g.actors[1], g.actors[0], &b_route).unwrap();
        assert_eq!(via_b.attrs.local_pref, 200);
        assert_eq!(
            model.prefer(g.actors[0], &via_b, &direct),
            Preference::Better
        );
    }

    #[test]
    fn disagree_gadget_converges_consistently() {
        let g = disagree_gadget();
        let model = BgpModel::new(
            &g.network,
            g.destination,
            vec![g.origin],
            &FailureSet::none(),
            Arc::new(UniformUnderlay),
        );
        let (state, interner) = converge_first_choice(&model);
        let converged = Rpvp::new(&model).converged_state(&state, &interner);
        // Exactly one of a, b uses the other as next hop; the other goes
        // direct (whichever order the first-choice walk took).
        let a = g.actors[0];
        let b = g.actors[1];
        let nh_a = converged.next_hop(a).unwrap();
        let nh_b = converged.next_hop(b).unwrap();
        assert!(
            (nh_a == b && nh_b == g.origin) || (nh_b == a && nh_a == g.origin),
            "unexpected converged state: {nh_a:?} {nh_b:?}"
        );
    }

    #[test]
    fn ibgp_session_requires_underlay_reachability() {
        // Two routers with an iBGP session but no IGP: the session is down.
        use plankton_config::{BgpConfig, BgpNeighborConfig, Network};
        use plankton_net::ip::Ipv4Addr;
        use plankton_net::topology::TopologyBuilder;
        let mut tb = TopologyBuilder::new();
        let a = tb.add_router("a");
        let b = tb.add_router("b");
        tb.set_loopback(a, Ipv4Addr::new(1, 1, 1, 1));
        tb.set_loopback(b, Ipv4Addr::new(2, 2, 2, 2));
        tb.add_link(a, b);
        let mut net = Network::unconfigured(tb.build());
        let prefix: Prefix = "99.0.0.0/16".parse().unwrap();
        net.device_mut(a).bgp = Some(
            BgpConfig::new(65000, 1)
                .with_network(prefix)
                .with_neighbor(BgpNeighborConfig::ibgp(b, 65000)),
        );
        net.device_mut(b).bgp =
            Some(BgpConfig::new(65000, 2).with_neighbor(BgpNeighborConfig::ibgp(a, 65000)));

        // Empty underlay: session down.
        let down = BgpModel::new(
            &net,
            prefix,
            vec![a],
            &FailureSet::none(),
            Arc::new(TableUnderlay::new()),
        );
        assert!(down.peers(b).is_empty());

        // Underlay with reachability: session up, route learned over iBGP.
        let mut table = TableUnderlay::new();
        table.set(a, b, 4);
        table.set(b, a, 4);
        let up = BgpModel::new(&net, prefix, vec![a], &FailureSet::none(), Arc::new(table));
        assert_eq!(up.peers(b), &[a]);
        let adv = up.advertise(a, b, &up.origin_route(a)).unwrap();
        assert_eq!(adv.learned_via, SessionType::Ibgp);
        assert_eq!(adv.igp_cost, 4);
        // iBGP does not prepend the AS path.
        assert!(adv.attrs.as_path.is_empty());
    }

    #[test]
    fn decision_process_order() {
        let g = fat_tree_bgp_rfc7938(4, 1);
        let model = BgpModel::new(
            &g.network,
            g.destinations[0],
            vec![g.fat_tree.edges_flat()[0]],
            &FailureSet::none(),
            Arc::new(UniformUnderlay),
        );
        let n = g.fat_tree.core[0];
        let mk = |local_pref: u32, as_len: usize, via: SessionType, igp: u64| {
            let mut r = Route::originated(g.destinations[0]).extended_through(NodeId(1));
            r.attrs.local_pref = local_pref;
            r.attrs.as_path = vec![65000; as_len];
            r.learned_via = via;
            r.igp_cost = igp;
            r
        };
        // Local pref dominates AS-path length.
        assert_eq!(
            model.prefer(
                n,
                &mk(200, 5, SessionType::Ebgp, 0),
                &mk(100, 1, SessionType::Ebgp, 0)
            ),
            Preference::Better
        );
        // AS-path length dominates session type.
        assert_eq!(
            model.prefer(
                n,
                &mk(100, 1, SessionType::Ibgp, 9),
                &mk(100, 2, SessionType::Ebgp, 0)
            ),
            Preference::Better
        );
        // eBGP beats iBGP at equal local pref and AS-path length.
        assert_eq!(
            model.prefer(
                n,
                &mk(100, 2, SessionType::Ebgp, 0),
                &mk(100, 2, SessionType::Ibgp, 0)
            ),
            Preference::Better
        );
        // IGP cost breaks iBGP ties.
        assert_eq!(
            model.prefer(
                n,
                &mk(100, 2, SessionType::Ibgp, 3),
                &mk(100, 2, SessionType::Ibgp, 8)
            ),
            Preference::Better
        );
        // Everything equal: a genuine (age-based) tie.
        assert_eq!(
            model.prefer(
                n,
                &mk(100, 2, SessionType::Ebgp, 0),
                &mk(100, 2, SessionType::Ebgp, 0)
            ),
            Preference::Tied
        );
    }

    #[test]
    fn wedgie_backup_route_gets_low_local_pref() {
        let g = bgp_wedgie();
        let model = BgpModel::new(
            &g.network,
            g.destination,
            vec![g.origin],
            &FailureSet::none(),
            Arc::new(UniformUnderlay),
        );
        let a2 = g.actors[0];
        let a4 = g.actors[2];
        let backup = model
            .advertise(g.origin, a2, &model.origin_route(g.origin))
            .unwrap();
        assert_eq!(backup.attrs.local_pref, 10);
        let primary = model
            .advertise(g.origin, a4, &model.origin_route(g.origin))
            .unwrap();
        assert_eq!(primary.attrs.local_pref, 200);
    }

    #[test]
    fn ebgp_session_down_when_link_failed() {
        let g = disagree_gadget();
        let link = g
            .network
            .topology
            .link_between(g.origin, g.actors[0])
            .unwrap();
        let model = BgpModel::new(
            &g.network,
            g.destination,
            vec![g.origin],
            &FailureSet::single(link),
            Arc::new(UniformUnderlay),
        );
        assert!(!model.peers(g.actors[0]).contains(&g.origin));
        assert!(model.peers(g.actors[1]).contains(&g.origin));
    }
}
