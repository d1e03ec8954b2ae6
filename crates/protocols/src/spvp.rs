//! Extended SPVP (Appendix A of the paper): the message-passing reference
//! semantics that RPVP reduces.
//!
//! Peers are connected by reliable FIFO buffers. Each step, one non-empty
//! buffer is chosen (here: by a seeded pseudo-random scheduler), the head
//! advertisement is imported, `rib-in` is updated, the best path is
//! re-selected, and—if it changed—the new best path is exported to every
//! peer. A state with all buffers empty is converged.
//!
//! This implementation exists to cross-check RPVP: Theorem 1 says every
//! converged state SPVP can reach is also reachable by RPVP (and vice versa,
//! soundness), which the property tests in this crate and in the integration
//! suite exercise on small networks.

use crate::model::ProtocolModel;
use crate::route::Route;
use plankton_net::topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// One advertisement in flight: the sender's best route at send time, or a
/// withdrawal (`None`).
type Message = Option<Route>;

/// The SPVP simulator state.
pub struct Spvp<'m> {
    model: &'m dyn ProtocolModel,
    /// rib_in[n][peer_index] = the latest advertisement imported from that
    /// peer.
    rib_in: Vec<Vec<Option<Route>>>,
    /// best[n] = the currently selected best route.
    best: Vec<Option<Route>>,
    /// buffers[n][peer_index] = FIFO of messages from that peer to `n`.
    buffers: Vec<Vec<VecDeque<Message>>>,
}

impl<'m> Spvp<'m> {
    /// Initialize: origins hold `ε` and have advertised it to all their
    /// peers; every other buffer is empty.
    pub fn new(model: &'m dyn ProtocolModel) -> Self {
        let n = model.node_count();
        let mut spvp = Spvp {
            model,
            rib_in: (0..n)
                .map(|i| vec![None; model.peers(NodeId(i as u32)).len()])
                .collect(),
            best: vec![None; n],
            buffers: (0..n)
                .map(|i| {
                    (0..model.peers(NodeId(i as u32)).len())
                        .map(|_| VecDeque::new())
                        .collect()
                })
                .collect(),
        };
        for &o in model.origins() {
            let route = model.origin_route(o);
            spvp.best[o.index()] = Some(route.clone());
            spvp.send_to_peers(o, &Some(route));
        }
        spvp
    }

    fn peer_index(&self, n: NodeId, peer: NodeId) -> Option<usize> {
        self.model.peers(n).iter().position(|&p| p == peer)
    }

    /// Queue `n`'s current best (post-export) to every peer. The export and
    /// import filters are applied at delivery time via
    /// [`ProtocolModel::advertise`], so what travels in the buffer is the
    /// sender's raw best path, exactly as in the SPVP formalization.
    fn send_to_peers(&mut self, n: NodeId, best: &Option<Route>) {
        for &peer in self.model.peers(n) {
            if let Some(idx) = self.peer_index(peer, n) {
                self.buffers[peer.index()][idx].push_back(best.clone());
            }
        }
    }

    /// Are all buffers empty (converged)?
    pub fn converged(&self) -> bool {
        self.buffers
            .iter()
            .all(|bufs| bufs.iter().all(|b| b.is_empty()))
    }

    /// The indices `(node, peer_index)` of every non-empty buffer.
    fn pending(&self) -> Vec<(NodeId, usize)> {
        let mut out = Vec::new();
        for (i, bufs) in self.buffers.iter().enumerate() {
            for (j, b) in bufs.iter().enumerate() {
                if !b.is_empty() {
                    out.push((NodeId(i as u32), j));
                }
            }
        }
        out
    }

    /// Deliver one message: node `n` takes the head of the buffer from its
    /// `peer_idx`-th peer, imports it, reselects its best path and, if it
    /// changed, advertises to its peers.
    fn deliver(&mut self, n: NodeId, peer_idx: usize) {
        let peer = self.model.peers(n)[peer_idx];
        let Some(message) = self.buffers[n.index()][peer_idx].pop_front() else {
            return;
        };
        // Import (filters + loop rejection) happens on delivery.
        let imported = message.and_then(|sent_best| self.model.advertise(peer, n, &sent_best));
        self.rib_in[n.index()][peer_idx] = imported;

        // Origins never change their selection.
        if self.model.origins().contains(&n) {
            return;
        }

        // Re-select the best path from rib_in.
        let candidates: Vec<(usize, Route)> = self.rib_in[n.index()]
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.clone().map(|r| (i, r)))
            .collect();
        let new_best = if candidates.is_empty() {
            None
        } else {
            let routes: Vec<Route> = candidates.iter().map(|(_, r)| r.clone()).collect();
            let best_idx = self.model.best_indices(n, &routes);
            // Keep the current best if it is still among the maximal
            // candidates (the SPVP rule: do not churn on equal-rank paths).
            let current_still_best = self.best[n.index()].as_ref().map(|cur| {
                routes
                    .iter()
                    .enumerate()
                    .any(|(i, r)| best_idx.contains(&i) && r == cur)
            });
            if current_still_best == Some(true) {
                self.best[n.index()].clone()
            } else {
                best_idx.first().map(|&i| routes[i].clone())
            }
        };

        if new_best != self.best[n.index()] {
            self.best[n.index()] = new_best.clone();
            self.send_to_peers(n, &new_best);
        }
    }

    /// Run with a seeded pseudo-random scheduler until convergence or until
    /// `max_steps` deliveries have happened. Returns the converged best route
    /// of every node — owned, so the oracle shares no interner with the RPVP
    /// explorers it checks — or `None` if the run was cut off (which can
    /// legitimately happen: SPVP may diverge for some configurations).
    pub fn run(mut self, seed: u64, max_steps: usize) -> Option<Vec<Option<Route>>> {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..max_steps {
            let pending = self.pending();
            if pending.is_empty() {
                return Some(self.best);
            }
            let (n, idx) = pending[rng.gen_range(0..pending.len())];
            self.deliver(n, idx);
        }
        if self.converged() {
            Some(self.best)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::{BgpModel, UniformUnderlay};
    use crate::ospf::OspfModel;
    use plankton_config::scenarios::{disagree_gadget, ring_ospf};
    use plankton_net::failure::FailureSet;
    use std::sync::Arc;

    #[test]
    fn spvp_converges_on_ospf_ring_to_same_state_for_any_seed() {
        let s = ring_ospf(6);
        let model = OspfModel::new(
            &s.network,
            s.destination,
            vec![s.origin],
            &FailureSet::none(),
        );
        let baseline = Spvp::new(&model).run(1, 100_000).expect("must converge");
        for seed in 2..8u64 {
            let other = Spvp::new(&model).run(seed, 100_000).expect("must converge");
            for n in s.network.topology.node_ids() {
                assert_eq!(
                    baseline[n.index()].as_ref().map(|r| r.igp_cost),
                    other[n.index()].as_ref().map(|r| r.igp_cost),
                    "OSPF outcome must be deterministic"
                );
            }
        }
    }

    #[test]
    fn spvp_disagree_gadget_reaches_both_states_across_seeds() {
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
        let mut outcomes = std::collections::HashSet::new();
        for seed in 0..40u64 {
            if let Some(converged) = Spvp::new(&model).run(seed, 100_000) {
                let nh_a = converged[a.index()].as_ref().and_then(Route::next_hop);
                let nh_b = converged[b.index()].as_ref().and_then(Route::next_hop);
                outcomes.insert((nh_a, nh_b));
            }
        }
        // Both stable states must be observable across schedules.
        assert!(
            outcomes.contains(&(Some(b), Some(g.origin)))
                || outcomes.contains(&(Some(g.origin), Some(a)))
        );
        assert!(!outcomes.is_empty());
    }

    #[test]
    fn spvp_converged_states_are_stable_under_rpvp() {
        // Every SPVP-converged state should have an empty RPVP enabled set
        // (soundness direction of Theorem 1 at the state level).
        let g = disagree_gadget();
        let model = BgpModel::new(
            &g.network,
            g.destination,
            vec![g.origin],
            &FailureSet::none(),
            Arc::new(UniformUnderlay),
        );
        let rpvp = crate::rpvp::Rpvp::new(&model);
        let mut interner = crate::interner::RouteInterner::new();
        for seed in 0..10u64 {
            if let Some(converged) = Spvp::new(&model).run(seed, 100_000) {
                let state = crate::rpvp::RpvpState::from_routes(&converged, &mut interner);
                assert!(
                    rpvp.converged(&state, &interner),
                    "SPVP-converged state is not RPVP-stable (seed {seed})"
                );
            }
        }
    }
}
