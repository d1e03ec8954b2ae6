//! Scoped OSPF slices: the part of a task key that says which OSPF costs a
//! PEC's exploration can read, and the session memo that keeps the
//! Dijkstras behind them across requests.
//!
//! The competitive Dijkstra runs on the model's own [`OspfAdjacency`]:
//! the relation "live OSPF adjacency, cheapest parallel link each way" is
//! derived in one place, so the keys cannot drift from what the explorer
//! steps over.

use plankton_config::ClockTable;
use plankton_config::{Fingerprinter, Network};
use plankton_net::failure::FailureSet;
use plankton_net::topology::{LinkId, NodeId, SubgraphComponents};
use plankton_protocols::OspfAdjacency;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// A session-lifetime, thread-safe memo of competitive-cost fingerprints
/// (see [`OspfScopedSlices`]), shared by every request and every snapshot of
/// a verification session — it lives beside the result cache, and is the
/// same [`ClockTable`], over fingerprints.
///
/// **Soundness.** An entry is keyed by *content*: one 64-bit hash of the
/// region's per-link directional cost table hash, the sorted origin
/// devices and the failed links inside the region. Those are the whole
/// input of the Dijkstra the fingerprint is computed from, so equal key ⇒
/// identical input ⇒ identical fingerprint — the argument the result cache
/// itself rests on (and, like its keys, up to a 64-bit collision). Nothing
/// in the key names a snapshot, so an entry never goes stale and there is
/// no invalidation step: a delta that changes a cost changes the region
/// hash and simply looks up (or computes) a different entry, and a restore
/// to an earlier state finds the earlier entry again. Debug builds
/// recompute every hit and assert it equal.
///
/// **Bound.** The result cache's: second-chance eviction at
/// [`DEFAULT_CAPACITY`](plankton_config::clock::DEFAULT_CAPACITY) entries,
/// raised before each key pass to four times that pass's lookups
/// ([`TaskKeys`] calls [`ClockTable::fit_pass`]), so a pass never evicts
/// its own entries and a repeated pass runs no Dijkstra. An entry is 24
/// bytes plus its index slot. Eviction only costs a recomputation.
///
/// [`TaskKeys`]: crate::TaskKeys
pub type SliceMemo = ClockTable<u64>;

/// The memo key of one competitive Dijkstra: the region's cost-table hash,
/// then `[origin count, origins.., failed links..]`.
fn memo_key(region: u64, origins: &[NodeId], failed_in_scope: &[LinkId]) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_u8(b'K');
    fp.write_u64(region);
    fp.write_u64(origins.len() as u64);
    for o in origins {
        fp.write_u64(o.0 as u64);
    }
    for l in failed_in_scope {
        fp.write_u64(l.0 as u64);
    }
    fp.finish()
}

/// Per-PEC scoped OSPF slices: fingerprint only what one destination's OSPF
/// exploration can actually read, instead of the global
/// [`Network::ospf_slice_fingerprint`].
///
/// OSPF exploration is a single deterministic trajectory (the checker's
/// `OspfPor` processes the globally cheapest pending update — exactly
/// Dijkstra from the destination's origin set), so a task for a PEC with
/// OSPF origin devices `O` under effective failure set `F` observes exactly:
///
/// * the **structure** of the speaker components containing `O` — member
///   devices and the adjacency-enabled links joining them (down links and
///   failures deliberately *not* filtered out: they reach the task key
///   through the effective failure set, keeping fault-tolerance cache
///   entries valid for the link deltas that follow); and
/// * the **competitive directional costs** under `F`: a cost `c(n ← m)`
///   (configured at `n` for its cheapest live link towards `m`) is readable
///   only when `dist_F(m) + c ≤ dist_F(n)`, where `dist_F` is the
///   shortest-path distance from `O` with the failed links removed. Any
///   costlier advertisement is *shadowed*: the Dijkstra argument processes
///   candidates in nondecreasing cost order, so by the time such a candidate
///   could be picked its node has already converged on something at least as
///   good, and the enabled-set computation never surfaces it. The `≤` keeps
///   equal-cost candidates in scope — they decide ECMP next-hop sets and
///   tie-breaking.
///
/// A cost change outside a PEC's competitive set therefore leaves its task
/// key — and, provably, its byte-exact verification outcome — unchanged.
/// When scoping cannot be established (an origin that is not an OSPF
/// speaker), [`OspfScopedSlices::fingerprint`] returns `None` and the caller
/// falls back to the global slice.
///
/// **Cost.** The competitive fingerprint is one Dijkstra over the model's
/// [`OspfAdjacency`] under `F`. It is looked up in the session's
/// [`SliceMemo`] first, keyed by the content of exactly what that Dijkstra
/// reads (region cost table, origins, in-scope failed links — the soundness
/// argument is on [`SliceMemo`]), so a request whose regions are in a state
/// seen before — a static-route edit, a link coming back up, a cost
/// restored — runs none. Computing the key costs one pass over the region's
/// links per request. A miss reuses the adjacency of the previous miss when
/// its failed OSPF links are the same, and builds one otherwise; the slicer
/// holds only that one, so callers ask failure-set-major ([`TaskKeys`]
/// does). Nodes outside the origins' region add nothing: components are
/// closed under adjacency, so they stay at distance ∞, and inside it the
/// adjacency's rows are the region's links with the failed ones removed.
///
/// [`TaskKeys`]: crate::TaskKeys
pub struct OspfScopedSlices<'a> {
    network: &'a Network,
    memo: &'a SliceMemo,
    components: SubgraphComponents,
    /// Per-component structural fingerprints.
    structural: RefCell<HashMap<usize, u64>>,
    /// Per origin-component set: the hash of its per-link cost table.
    regions: RefCell<HashMap<Vec<usize>, u64>>,
    /// The live adjacency the last miss ran on, with its failed OSPF links.
    live: RefCell<Option<(Vec<LinkId>, OspfAdjacency)>>,
    memo_hits: Cell<u64>,
    memo_misses: Cell<u64>,
    memo_evictions: Cell<u64>,
}

impl<'a> OspfScopedSlices<'a> {
    /// The scoped OSPF slicing state for `network`: the OSPF speaker graph's
    /// connected components (speakers joined by links on which both ends
    /// form an adjacency) plus per-request closures, over the
    /// session-lifetime `memo` of competitive fingerprints. Compute once per
    /// key-derivation pass.
    pub fn new(network: &'a Network, memo: &'a SliceMemo) -> Self {
        let enabled = |n: NodeId, l: LinkId| {
            let ospf = network.device(n).ospf.as_ref();
            ospf.and_then(|o| o.cost(l)).is_some()
        };
        let components = network.topology.subgraph_components(
            |n| network.device(n).runs_ospf(),
            |l| enabled(l.a.node, l.id) && enabled(l.b.node, l.id),
        );
        OspfScopedSlices {
            network,
            memo,
            components,
            structural: RefCell::new(HashMap::new()),
            regions: RefCell::new(HashMap::new()),
            live: RefCell::new(None),
            memo_hits: Cell::new(0),
            memo_misses: Cell::new(0),
            memo_evictions: Cell::new(0),
        }
    }

    /// The speaker-graph components underlying the slices.
    pub fn components(&self) -> &SubgraphComponents {
        &self.components
    }

    /// `(hits, misses, evictions)` of this pass's lookups in the session
    /// memo: the entries its inserts evicted are the last figure.
    pub fn memo_stats(&self) -> (u64, u64, u64) {
        let evictions = self.memo_evictions.get();
        (self.memo_hits.get(), self.memo_misses.get(), evictions)
    }

    /// The scoped slice fingerprint for a task whose OSPF origin devices are
    /// `origins`, under effective failure set `failures`; `None` when
    /// scoping cannot be proven sound for these origins (caller falls back
    /// to the global slice).
    pub fn fingerprint(&self, origins: &[NodeId], failures: &FailureSet) -> Option<u64> {
        let mut origins = origins.to_vec();
        origins.sort_unstable();
        origins.dedup();
        let comps = self.components.reachable_components(&origins)?;
        let mut fp = Fingerprinter::new();
        fp.write_u8(b'o');
        fp.write_u64(comps.len() as u64);
        for &c in &comps {
            fp.write_u64(self.structural_fingerprint(c));
        }
        fp.write_u64(self.competitive_fingerprint(&origins, &comps, failures));
        Some(fp.finish())
    }

    /// The structural fingerprint of one component: members plus
    /// adjacency-enabled links (memoized).
    fn structural_fingerprint(&self, c: usize) -> u64 {
        if let Some(&fp) = self.structural.borrow().get(&c) {
            return fp;
        }
        let mut fp = Fingerprinter::new();
        fp.write_u8(b'C');
        let members = self.components.members(c);
        fp.write_u64(members.len() as u64);
        for &n in members {
            fp.write_u64(n.0 as u64);
        }
        let links = self.components.links(c);
        fp.write_u64(links.len() as u64);
        for &l in links {
            let link = self.network.topology.link(l);
            fp.write_u64(l.0 as u64);
            fp.write_u64(link.a.node.0 as u64);
            fp.write_u64(link.b.node.0 as u64);
        }
        let fp = fp.finish();
        self.structural.borrow_mut().insert(c, fp);
        fp
    }

    /// The competitive-cost fingerprint of `origins` over `comps` with
    /// `failures` removed: from the session memo when this exact Dijkstra
    /// input was seen before, computed (and remembered) otherwise.
    fn competitive_fingerprint(
        &self,
        origins: &[NodeId],
        comps: &[usize],
        failures: &FailureSet,
    ) -> u64 {
        let failed_in_scope: Vec<LinkId> = failures
            .links()
            .iter()
            .copied()
            .filter(|&l| {
                self.components
                    .component_of_link(l)
                    .is_some_and(|c| comps.contains(&c))
            })
            .collect();
        let key = memo_key(self.region_hash(comps), origins, &failed_in_scope);
        let remembered = self.memo.get(key);
        let count = |counter: &Cell<u64>| counter.set(counter.get() + 1);
        count(if remembered.is_some() {
            &self.memo_hits
        } else {
            &self.memo_misses
        });
        // Release builds trust a remembered answer; debug builds challenge
        // it: a stored answer must equal its recomputation.
        if let (Some(fp), false) = (remembered, cfg!(debug_assertions)) {
            return fp;
        }
        // The adjacency of the previous miss serves while the failed OSPF
        // links stay the same.
        let failed: Vec<LinkId> = failures
            .links()
            .iter()
            .copied()
            .filter(|&l| self.components.component_of_link(l).is_some())
            .collect();
        let mut live = self.live.borrow_mut();
        if live.as_ref().is_none_or(|(held, _)| *held != failed) {
            *live = Some((failed, OspfAdjacency::new(self.network, failures)));
        }
        let (_, adjacency) = live.as_ref().expect("set above");
        let fp = competitive_records(adjacency, origins);
        match remembered {
            Some(stored) => assert_eq!(
                stored, fp,
                "slice memo served a fingerprint its own inputs do not reproduce"
            ),
            None => {
                if self.memo.insert(key, fp).is_some_and(|s| s.evicted) {
                    count(&self.memo_evictions);
                }
            }
        }
        fp
    }

    /// The hash of the per-link cost table of `comps`, failures *not*
    /// removed: `(link, a, b, cost at a, cost at b)` in component-then-link
    /// order (one pass over the region's links, once per request).
    fn region_hash(&self, comps: &[usize]) -> u64 {
        if let Some(&hash) = self.regions.borrow().get(comps) {
            return hash;
        }
        let cost_at = |n: NodeId, l: LinkId| -> u64 {
            self.network
                .device(n)
                .ospf
                .as_ref()
                .and_then(|o| o.cost(l))
                .expect("component links are adjacency-enabled at both ends") as u64
        };
        let mut fp = Fingerprinter::new();
        fp.write_u8(b'G');
        let mut links = 0u64;
        for &c in comps {
            for &l in self.components.links(c) {
                let link = self.network.topology.link(l);
                let (a, b) = (link.a.node, link.b.node);
                for word in [
                    l.0 as u64,
                    a.0 as u64,
                    b.0 as u64,
                    cost_at(a, l),
                    cost_at(b, l),
                ] {
                    fp.write_u64(word);
                }
                links += 1;
            }
        }
        fp.write_u64(links);
        let hash = fp.finish();
        self.regions.borrow_mut().insert(comps.to_vec(), hash);
        hash
    }
}

/// The competitive-cost fingerprint from `origins`: every directional cost
/// the Dijkstra trajectory from `origins` can observe, `c(n ← m)` with
/// `dist(m) + c ≤ dist(n)`, in (n, m) order. Everything costlier is
/// shadowed.
fn competitive_records(adjacency: &OspfAdjacency, origins: &[NodeId]) -> u64 {
    let dist = adjacency.distances_from(origins);
    let mut fp = Fingerprinter::new();
    fp.write_u8(b'R');
    fp.write_u64(origins.len() as u64);
    for &o in origins {
        fp.write_u64(o.0 as u64);
    }
    let mut records = 0u64;
    for (n, &dn) in dist.iter().enumerate() {
        let (peers, costs) = adjacency.row(NodeId(n as u32));
        for (&m, &cost) in peers.iter().zip(costs) {
            let dm = dist[m.index()];
            if dm != u64::MAX && dm.saturating_add(u64::from(cost)) <= dn {
                fp.write_u64(n as u64);
                fp.write_u64(m.0 as u64);
                fp.write_u64(u64::from(cost));
                records += 1;
            }
        }
    }
    fp.write_u64(records);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::{OspfScopedSlices, SliceMemo};
    use plankton_config::scenarios::{fat_tree_ospf, ring_ospf, CoreStaticRoutes};
    use plankton_net::failure::FailureSet;

    #[test]
    fn scoped_slice_is_deterministic_and_origin_sensitive() {
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        let memo = SliceMemo::new();
        let slices = OspfScopedSlices::new(&s.network, &memo);
        let o1 = vec![s.fat_tree.edge[0][0]];
        let o2 = vec![s.fat_tree.edge[1][0]];
        let none = FailureSet::none();
        let a = slices.fingerprint(&o1, &none).unwrap();
        assert_eq!(a, slices.fingerprint(&o1, &none).unwrap(), "memo stable");
        assert_eq!(
            slices.memo_stats(),
            (1, 1, 0),
            "second lookup is a memo hit"
        );
        assert_ne!(
            a,
            slices.fingerprint(&o2, &none).unwrap(),
            "different origins, different competitive sets"
        );
        // A failure inside the component changes distances and thus the
        // competitive set.
        let failed = FailureSet::single(
            s.network
                .topology
                .link_between(s.fat_tree.edge[0][0], s.fat_tree.aggregation[0][0])
                .unwrap(),
        );
        assert_ne!(a, slices.fingerprint(&o1, &failed).unwrap());
    }

    #[test]
    fn non_competitive_cost_change_leaves_scoped_slice_alone() {
        // The aggregation-side cost of an edge link is competitive only for
        // the prefix at that edge switch: a remote pod's scoped slice must
        // not move, while the local pod's must.
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        let agg = s.fat_tree.aggregation[0][0];
        let edge = s.fat_tree.edge[0][0];
        let link = s.network.topology.link_between(agg, edge).unwrap();
        let local = vec![edge];
        let remote = vec![s.fat_tree.edge[2][0]];
        let none = FailureSet::none();
        let memo = SliceMemo::new();
        let before = OspfScopedSlices::new(&s.network, &memo);
        let (local_before, remote_before) = (
            before.fingerprint(&local, &none).unwrap(),
            before.fingerprint(&remote, &none).unwrap(),
        );
        let mut net = s.network.clone();
        if let Some(ospf) = &mut net.device_mut(agg).ospf {
            ospf.interface_costs.insert(link, 42);
        }
        let after = OspfScopedSlices::new(&net, &memo);
        assert_ne!(local_before, after.fingerprint(&local, &none).unwrap());
        assert_eq!(remote_before, after.fingerprint(&remote, &none).unwrap());
        // The global slice is coarser: it moves for both.
        assert_ne!(
            s.network.ospf_slice_fingerprint(),
            net.ospf_slice_fingerprint()
        );
    }

    #[test]
    fn scoped_slice_is_down_link_agnostic() {
        let s = ring_ospf(6);
        let origins = vec![s.origin];
        let none = FailureSet::none();
        let memo = SliceMemo::new();
        let before = OspfScopedSlices::new(&s.network, &memo).fingerprint(&origins, &none);
        let mut net = s.network.clone();
        net.set_link_down(s.ring.links[2]);
        // Down-ness reaches keys through the effective failure set; the
        // slice itself must not move, or fault-tolerance cache entries would
        // be lost to every link delta.
        assert_eq!(
            OspfScopedSlices::new(&net, &memo).fingerprint(&origins, &none),
            before
        );
    }

    #[test]
    fn non_speaker_origin_forces_global_fallback() {
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        let mut net = s.network.clone();
        let edge = s.fat_tree.edge[0][0];
        net.device_mut(edge).ospf = None;
        let memo = SliceMemo::new();
        let slices = OspfScopedSlices::new(&net, &memo);
        assert_eq!(slices.fingerprint(&[edge], &FailureSet::none()), None);
    }

    #[test]
    fn component_split_changes_scoped_slice() {
        // Draining a device's OSPF process splits / shrinks its component:
        // every PEC scoped to that component must re-key.
        let s = ring_ospf(6);
        let origins = vec![s.origin];
        let none = FailureSet::none();
        let memo = SliceMemo::new();
        let before = OspfScopedSlices::new(&s.network, &memo)
            .fingerprint(&origins, &none)
            .unwrap();
        let mut net = s.network.clone();
        net.device_mut(s.ring.routers[3]).ospf = None;
        let after = OspfScopedSlices::new(&net, &memo)
            .fingerprint(&origins, &none)
            .unwrap();
        assert_ne!(before, after);
    }

    #[test]
    fn memo_stays_under_its_bound_and_eviction_never_changes_a_fingerprint() {
        // 5 000 distinct region states (one cost value each) x 6 origins
        // fill the memo twice over. The resident entries must never exceed
        // the bound, and every fingerprint served through the shared memo —
        // fresh, remembered, or recomputed after eviction — must equal the
        // one a fresh memo computes.
        let s = ring_ospf(6);
        let none = FailureSet::none();
        let shared = SliceMemo::new();
        let mut net = s.network.clone();
        let (mut peak, mut evictions) = (0, 0);
        for state in 0..5_000u32 {
            if let Some(ospf) = &mut net.device_mut(s.ring.routers[0]).ospf {
                ospf.interface_costs.insert(s.ring.links[0], 1 + state);
            }
            let fresh = SliceMemo::new();
            let (warm, cold) = (
                OspfScopedSlices::new(&net, &shared),
                OspfScopedSlices::new(&net, &fresh),
            );
            for &origin in &s.ring.routers {
                assert_eq!(
                    warm.fingerprint(&[origin], &none),
                    cold.fingerprint(&[origin], &none),
                    "state {state}, origin {origin:?}"
                );
            }
            evictions += warm.memo_stats().2;
            peak = peak.max(shared.len());
            assert!(peak <= shared.capacity(), "{peak} entries");
        }
        assert_eq!(
            peak,
            shared.capacity(),
            "the walk must fill the memo, or it tests no eviction"
        );
        assert_eq!(evictions as usize, 5_000 * 6 - shared.len());
        // The base state was seen first and evicted long ago: asking again
        // recomputes it, to the same value.
        let base = OspfScopedSlices::new(&s.network, &shared);
        let oracle = SliceMemo::new();
        assert_eq!(
            base.fingerprint(&[s.origin], &none),
            OspfScopedSlices::new(&s.network, &oracle).fingerprint(&[s.origin], &none)
        );
        assert_eq!(base.memo_stats().1, 1, "evicted");
    }

    #[test]
    fn a_hot_entry_survives_a_flood_of_cold_inserts() {
        let s = ring_ospf(6);
        let none = FailureSet::none();
        let memo = SliceMemo::new();
        let hot = [s.origin];
        OspfScopedSlices::new(&s.network, &memo).fingerprint(&hot, &none);
        let mut net = s.network.clone();
        let mut evictions = 0;
        for state in 0..4_000u32 {
            if let Some(ospf) = &mut net.device_mut(s.ring.routers[0]).ospf {
                ospf.interface_costs.insert(s.ring.links[0], 100 + state);
            }
            let slices = OspfScopedSlices::new(&net, &memo);
            for &origin in &s.ring.routers {
                slices.fingerprint(&[origin], &none);
            }
            evictions += slices.memo_stats().2;
            // The hot entry is asked for between the cold ones, as the base
            // state is between a benchmark's forward deltas.
            let base = OspfScopedSlices::new(&s.network, &memo);
            base.fingerprint(&hot, &none);
            assert_eq!(
                base.memo_stats(),
                (1, 0, 0),
                "hot entry lost at state {state}"
            );
        }
        assert!(evictions > 0, "the flood must overflow the memo");
    }
}
