//! Delta-aware PEC invalidation: which equivalence classes does a
//! configuration change dirty, and what content key identifies a
//! (PEC × failure-scenario) verification task?
//!
//! Two mechanisms cooperate:
//!
//! * **Content keys** (authoritative): [`TaskKeys`] hashes, per PEC,
//!   everything its verification run reads — the PEC's own range and prefix
//!   configuration, the network slices consumed by the protocol models it
//!   instantiates, the verifying policy/options fingerprints, the failure
//!   set, and (composed recursively, in dependency order) the keys of every
//!   PEC it transitively depends on. Two tasks with equal keys have
//!   bit-identical inputs, so a result cache keyed this way can never serve
//!   a stale outcome: any delta that could change a task's result changes
//!   some input in its key, directly or through a dependency's key.
//! * **Touch mapping** (advisory, for reporting/statistics): a
//!   [`DeltaTouch`](plankton_config::DeltaTouch) from the config diff layer
//!   is mapped through the PEC set — prefix touches via range overlap (the
//!   trie's partition), device/link touches via the protocol slices — and
//!   closed under reverse dependencies, yielding the set of PECs the delta
//!   *may* have dirtied.

use crate::dependency::PecDependencies;
use crate::pec::{OriginProtocol, Pec, PecId, PecSet};
use plankton_config::static_routes::StaticNextHop;
use plankton_config::{DeltaTouch, Fingerprinter, Network, OspfScopedSlices, SliceMemo};
use plankton_net::failure::FailureSet;
use plankton_net::topology::NodeId;
use std::collections::BTreeSet;

/// The content fingerprint of a PEC itself: its address range plus every
/// contributing prefix's configuration (origins, static routes), which is
/// exactly what [`compute_pecs`](crate::compute_pecs) derived from the
/// network for this slice of the header space.
pub fn pec_content_fingerprint(pec: &Pec) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_u8(b'P');
    fp.write(&pec.range);
    fp.write(&pec.prefixes);
    fp.finish()
}

/// How [`TaskKeys`] composes the OSPF network slice into task keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OspfSliceMode {
    /// Per-(PEC × failure-set) scoped slices
    /// ([`Network::ospf_scoped_slices`]), falling back to the global slice
    /// for any PEC whose scoping cannot be proven sound. Only valid when the
    /// exploration runs with deterministic-node detection enabled — the
    /// scoped-slice soundness argument is the `OspfPor` Dijkstra trajectory;
    /// with `BranchAll` exploration every cost in a component is readable.
    Scoped,
    /// The global [`Network::ospf_slice_fingerprint`] for every OSPF PEC:
    /// the conservative mode (and the differential oracle the soak tests
    /// cross-check scoped keys against).
    Global,
}

/// The network-level slice fingerprints shared by every PEC of one request,
/// computed once (each is an O(network) traversal — per-PEC recomputation
/// would dominate small-delta re-verification latency). The scoped OSPF
/// slicer memoizes its per-component closures across PECs the same way, and
/// its Dijkstras across requests in the session's [`SliceMemo`].
struct NetworkSlices<'a> {
    ospf_global: u64,
    bgp: u64,
    ownership: u64,
    scoped: Option<OspfScopedSlices<'a>>,
}

impl<'a> NetworkSlices<'a> {
    fn of(network: &'a Network, mode: OspfSliceMode, memo: &'a SliceMemo) -> Self {
        NetworkSlices {
            ospf_global: network.ospf_slice_fingerprint(),
            bgp: network.bgp_slice_fingerprint(),
            ownership: network.address_ownership_fingerprint(),
            scoped: match mode {
                OspfSliceMode::Scoped => Some(network.ospf_scoped_slices(memo)),
                OspfSliceMode::Global => None,
            },
        }
    }
}

/// The failure-agnostic network-slice fingerprint of a PEC: everything its
/// `PecSession` reads from the network *besides* the PEC content, the
/// failure set, the OSPF slice (composed per failure set by [`TaskKeys`] —
/// scoped or global) and the converged records of dependency PECs (keyed
/// separately).
fn pec_slice_with(
    network: &Network,
    slices: &NetworkSlices<'_>,
    pec: &Pec,
    has_dependencies: bool,
) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_u8(b'S');
    // Data planes, control-route vectors and policy views are all sized to
    // the node count.
    fp.write_u64(network.node_count() as u64);
    let mut runs_bgp = false;
    for cfg in &pec.prefixes {
        runs_bgp |= cfg.originated_into(OriginProtocol::Bgp);
        for (device, sr) in &cfg.static_routes {
            if let StaticNextHop::Interface(nbr) = sr.next_hop {
                fp.write_u64(network.interface_liveness_fingerprint(*device, nbr));
            }
        }
    }
    if runs_bgp {
        fp.write_u64(slices.bgp);
    }
    if has_dependencies || !pec.recursive_next_hops().is_empty() {
        // Dependency underlays are assembled from loopback/interface
        // ownership; recursive next hops resolve through the same table.
        fp.write_u64(slices.ownership);
    }
    fp.finish()
}

/// The per-prefix OSPF origin device sets of a PEC — one entry per
/// contributing prefix that is originated into OSPF (each prefix gets its
/// own `OspfModel` with exactly these origins).
fn ospf_origin_sets(pec: &Pec) -> Vec<Vec<NodeId>> {
    pec.prefixes
        .iter()
        .filter(|cfg| cfg.originated_into(OriginProtocol::Ospf))
        .map(|cfg| {
            cfg.origins
                .iter()
                .filter(|(_, p)| *p == OriginProtocol::Ospf)
                .map(|(n, _)| *n)
                .collect()
        })
        .collect()
}

/// Is a PEC's verification outcome independent of the failure environment?
///
/// A PEC whose prefixes carry only `Connected` origins and no static routes
/// runs no protocol and installs only local-delivery FIB entries: its data
/// plane, statistics and policy verdicts are identical under every failure
/// set — only the failure *annotations* on trails/violations differ, and
/// the merge layer rewrites those. Such PECs (loopback host prefixes are
/// the common case) are keyed with a constant failure slot, so one cached
/// outcome serves every explored failure combination.
pub fn pec_failure_invariant(pec: &Pec) -> bool {
    pec.prefixes.iter().all(|cfg| {
        cfg.static_routes.is_empty()
            && cfg
                .origins
                .iter()
                .all(|(_, proto)| *proto == OriginProtocol::Connected)
    })
}

/// The per-(PEC × failure-set) task keys of one verification request.
#[derive(Clone, Debug)]
pub struct TaskKeys {
    /// `keys[pec.index()][failure_idx]` — an empty row for PECs the request
    /// does not run (never derived, and a lookup panics).
    keys: Vec<Vec<u64>>,
    /// This pass's `(hits, misses)` in the session's slice memo.
    memo_stats: (u64, u64),
}

impl TaskKeys {
    /// Compute the keys for `pecs` under every failure set, for a request
    /// identified by `(policy_fp, options_fp)`.
    ///
    /// `run_flags(p)` must encode the request-level per-PEC execution mode
    /// bits — whether any other needed PEC depends on `p`'s component
    /// (flips the session's pruning configuration and whether converged
    /// records are produced) and whether the policy verdict is evaluated
    /// for `p` at all. Both change a task's observable outcome without
    /// changing the network, so they are part of the key.
    ///
    /// Derives the keys of every PEC from nothing:
    /// [`TaskKeys::compute_with_memo`] over an empty memo.
    #[allow(clippy::too_many_arguments)] // a keyed compute: every input is a key input
    pub fn compute(
        network: &Network,
        pecs: &PecSet,
        deps: &PecDependencies,
        failure_sets: &[FailureSet],
        policy_fp: u64,
        options_fp: u64,
        mode: OspfSliceMode,
        run_flags: impl Fn(PecId) -> u8,
    ) -> TaskKeys {
        Self::compute_with_memo(
            &SliceMemo::new(),
            network,
            pecs,
            deps,
            failure_sets,
            policy_fp,
            options_fp,
            mode,
            |p| Some(run_flags(p)),
        )
    }

    /// [`TaskKeys::compute`] over the session's slice memo: scoped OSPF
    /// slices whose Dijkstra input was seen before — by any earlier request,
    /// against any snapshot — are looked up instead of recomputed. The keys
    /// are identical to the ones an empty memo yields (see [`SliceMemo`]).
    ///
    /// `run_flags(p)` is `None` for a PEC the request does not run: its keys
    /// are not derived — on a restricted request over a large network the
    /// un-needed PECs' slices would cost more than the verification. The
    /// PECs with flags must be closed under dependencies (a dependent's key
    /// composes its dependencies' keys).
    #[allow(clippy::too_many_arguments)]
    pub fn compute_with_memo(
        memo: &SliceMemo,
        network: &Network,
        pecs: &PecSet,
        deps: &PecDependencies,
        failure_sets: &[FailureSet],
        policy_fp: u64,
        options_fp: u64,
        mode: OspfSliceMode,
        run_flags: impl Fn(PecId) -> Option<u8>,
    ) -> TaskKeys {
        let nf = failure_sets.len();
        let failure_fps: Vec<u64> = failure_sets
            .iter()
            .map(|f| {
                let mut fp = Fingerprinter::new();
                fp.write_u8(b'F');
                fp.write(f);
                fp.finish()
            })
            .collect();
        let slices = NetworkSlices::of(network, mode, memo);
        let mut keys = vec![Vec::new(); pecs.len()];
        // Components are listed dependencies-first, so every dependency's
        // keys exist by the time a dependent composes them.
        for component in &deps.components {
            for &pec_id in component {
                let Some(flags) = run_flags(pec_id) else {
                    continue;
                };
                let pec = pecs.pec(pec_id);
                let comp = deps.component_of(pec_id);
                let dependency_pecs = deps.transitive_dependencies(comp);
                let mut base = Fingerprinter::new();
                base.write_u8(b'T');
                base.write_u64(pec_content_fingerprint(pec));
                base.write_u64(pec_slice_with(
                    network,
                    &slices,
                    pec,
                    !dependency_pecs.is_empty(),
                ));
                base.write_u64(policy_fp);
                base.write_u64(options_fp);
                base.write_u8(flags);
                // PECs verified together in one SCC share the run.
                base.write_u64(component.len() as u64);
                let base = base.finish();
                // Failure-invariant PECs (no protocols, no static routes, no
                // dependencies, nothing depending on them — bit 0 of the run
                // flags) share one outcome across every failure set; the
                // merge layer rewrites the failure annotations.
                let invariant =
                    pec_failure_invariant(pec) && dependency_pecs.is_empty() && flags & 1 == 0;
                let origin_sets = ospf_origin_sets(pec);
                let mut row = Vec::with_capacity(nf);
                for f in 0..nf {
                    let mut fp = Fingerprinter::new();
                    fp.write_u64(base);
                    fp.write_u64(if invariant { 0 } else { failure_fps[f] });
                    // The OSPF slice, composed per (PEC × failure-set): each
                    // contributing OSPF prefix contributes its scoped slice
                    // under this failure set, or — when any prefix's scoping
                    // cannot be proven sound — the whole PEC conservatively
                    // takes the global slice.
                    if !origin_sets.is_empty() {
                        let scoped_fps: Option<Vec<u64>> =
                            slices.scoped.as_ref().and_then(|scoped| {
                                origin_sets
                                    .iter()
                                    .map(|origins| scoped.fingerprint(origins, &failure_sets[f]))
                                    .collect()
                            });
                        match scoped_fps {
                            Some(fps) => {
                                fp.write_u8(1);
                                fp.write_u64(fps.len() as u64);
                                for v in fps {
                                    fp.write_u64(v);
                                }
                            }
                            None => {
                                fp.write_u8(2);
                                fp.write_u64(slices.ospf_global);
                            }
                        }
                    }
                    for &dep in &dependency_pecs {
                        fp.write_u64(keys[dep.index()][f]);
                    }
                    row.push(fp.finish());
                }
                keys[pec_id.index()] = row;
            }
        }
        let memo_stats = slices
            .scoped
            .as_ref()
            .map_or((0, 0), OspfScopedSlices::memo_stats);
        TaskKeys { keys, memo_stats }
    }

    /// `(hits, misses)` of this derivation's lookups in the slice memo.
    pub fn memo_stats(&self) -> (u64, u64) {
        self.memo_stats
    }

    /// The key of `(pec, failure_idx)`.
    pub fn key(&self, pec: PecId, failure_idx: usize) -> u64 {
        self.keys[pec.index()][failure_idx]
    }
}

/// Map a config-diff touch set onto the PEC set: the PECs the delta may have
/// dirtied, closed under reverse dependencies. A superset of the truly
/// dirty PECs (content keys decide re-execution); used for reporting and
/// cache-eviction accounting.
pub fn pecs_touched_by(
    network: &Network,
    pecs: &PecSet,
    deps: &PecDependencies,
    touch: &DeltaTouch,
) -> BTreeSet<PecId> {
    let mut dirty: BTreeSet<PecId> = BTreeSet::new();

    // Prefix touches: every PEC whose range the prefix overlaps (the trie
    // partition property: a prefix's addresses land in exactly these PECs).
    for prefix in &touch.prefixes {
        for pec in pecs.pecs_overlapping(prefix) {
            dirty.insert(pec.id);
        }
    }

    // Device touches: PECs carrying configuration from those devices.
    for pec in pecs.iter() {
        if dirty.contains(&pec.id) {
            continue;
        }
        let touches_device = pec.prefixes.iter().any(|cfg| {
            cfg.origins.iter().any(|(n, _)| touch.devices.contains(n))
                || cfg
                    .static_routes
                    .iter()
                    .any(|(n, _)| touch.devices.contains(n))
        });
        if touches_device {
            dirty.insert(pec.id);
        }
    }

    // Topology touches: a changed link dirties every PEC whose protocol can
    // see it — OSPF PECs when both endpoints speak OSPF, BGP PECs when the
    // link can carry one of their eBGP sessions, and PECs with interface
    // static routes across the link.
    if touch.topology {
        for pec in pecs.iter() {
            if dirty.contains(&pec.id) {
                continue;
            }
            let mut affected = false;
            for &link in &touch.links {
                if link.index() >= network.topology.link_count() {
                    continue;
                }
                let l = network.topology.link(link);
                let (a, b) = l.endpoints();
                for cfg in &pec.prefixes {
                    if cfg.originated_into(OriginProtocol::Ospf)
                        && network.device(a).runs_ospf()
                        && network.device(b).runs_ospf()
                        // When the delta reports the OSPF region it can
                        // influence (the touched device's speaker component),
                        // only PECs with an origin inside that region are
                        // advisory-dirty — a cost change cannot leak across
                        // component boundaries.
                        && touch.ospf_region.as_ref().is_none_or(|region| {
                            cfg.origins.iter().any(|(n, p)| {
                                *p == OriginProtocol::Ospf && region.contains(n)
                            })
                        })
                    {
                        affected = true;
                    }
                    if cfg.originated_into(OriginProtocol::Bgp)
                        && network.device(a).runs_bgp()
                        && network.device(b).runs_bgp()
                    {
                        affected = true;
                    }
                    if cfg.static_routes.iter().any(|(device, sr)| {
                        matches!(sr.next_hop, StaticNextHop::Interface(nbr)
                                 if (*device == a && nbr == b) || (*device == b && nbr == a))
                    }) {
                        affected = true;
                    }
                }
            }
            if affected {
                dirty.insert(pec.id);
            }
        }
    }

    // Close under reverse dependencies: a dirty dependency dirties every
    // transitive dependent.
    let mut grown = true;
    while grown {
        grown = false;
        for pec in pecs.iter() {
            if dirty.contains(&pec.id) {
                continue;
            }
            let comp = deps.component_of(pec.id);
            if deps
                .transitive_dependencies(comp)
                .iter()
                .any(|d| dirty.contains(d))
            {
                dirty.insert(pec.id);
                grown = true;
            }
        }
    }
    dirty
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::compute_pecs;
    use plankton_config::scenarios::{fat_tree_ospf, isp_ibgp_over_ospf, CoreStaticRoutes};
    use plankton_config::static_routes::StaticRoute;
    use plankton_config::ConfigDelta;
    use plankton_net::generators::as_topo::AsTopologySpec;

    fn keys_for_mode(
        network: &Network,
        failure_sets: &[FailureSet],
        mode: OspfSliceMode,
    ) -> (PecSet, TaskKeys) {
        let pecs = compute_pecs(network);
        let deps = PecDependencies::compute(network, &pecs);
        let keys = TaskKeys::compute(network, &pecs, &deps, failure_sets, 1, 2, mode, |_| 0);
        (pecs, keys)
    }

    fn keys_for(network: &Network, failure_sets: &[FailureSet]) -> (PecSet, TaskKeys) {
        keys_for_mode(network, failure_sets, OspfSliceMode::Scoped)
    }

    #[test]
    fn identical_networks_produce_identical_keys() {
        let net = fat_tree_ospf(4, CoreStaticRoutes::None).network;
        let sets = vec![FailureSet::none()];
        let (pecs, a) = keys_for(&net, &sets);
        let (_, b) = keys_for(&net.clone(), &sets);
        for pec in pecs.iter() {
            assert_eq!(a.key(pec.id, 0), b.key(pec.id, 0));
        }
    }

    #[test]
    fn static_route_delta_changes_only_overlapping_pec_keys() {
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        let sets = vec![FailureSet::none()];
        let (pecs, before) = keys_for(&s.network, &sets);
        let mut net = s.network.clone();
        let device = s.fat_tree.core[0];
        let prefix = s.destinations[0];
        ConfigDelta::StaticRouteAdd {
            device,
            route: StaticRoute::null(prefix),
        }
        .apply(&mut net)
        .unwrap();
        let (pecs_after, after) = keys_for(&net, &sets);
        assert_eq!(
            pecs.len(),
            pecs_after.len(),
            "no repartition for an existing prefix"
        );
        let mut changed = 0;
        for pec in pecs_after.iter() {
            if after.key(pec.id, 0) != before.key(pec.id, 0) {
                changed += 1;
                assert!(pec.range.overlaps(&prefix.range()));
            }
        }
        assert_eq!(changed, 1, "exactly the touched PEC re-keys");
    }

    #[test]
    fn link_touch_dirties_protocol_pecs_but_not_connected_only_pecs() {
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        let pecs = compute_pecs(&s.network);
        let deps = PecDependencies::compute(&s.network, &pecs);
        let link = s.network.topology.links()[0].id;
        let mut net = s.network.clone();
        let touch = ConfigDelta::LinkDown { link }.apply(&mut net).unwrap();
        let dirty = pecs_touched_by(&net, &pecs, &deps, &touch);
        assert!(!dirty.is_empty());
        // Loopback host PECs carry only Connected origins: a link change
        // cannot dirty them (their data plane is local delivery only)...
        for pec in pecs.iter() {
            let connected_only = !pec.is_inert()
                && pec.prefixes.iter().all(|c| {
                    c.static_routes.is_empty()
                        && c.origins
                            .iter()
                            .all(|(_, p)| *p == OriginProtocol::Connected)
                });
            if connected_only {
                assert!(!dirty.contains(&pec.id), "{} wrongly dirtied", pec.id);
            }
        }
        // ...so the dirty set is a strict subset of the active PECs.
        assert!(dirty.len() < pecs.active_pecs().len());
    }

    #[test]
    fn dependency_dirt_propagates_to_dependents() {
        let s = isp_ibgp_over_ospf(&AsTopologySpec::paper_as(3967));
        let pecs = compute_pecs(&s.network);
        let deps = PecDependencies::compute(&s.network, &pecs);
        // Touch a loopback PEC (an IGP dependency of the BGP PECs).
        let lb = s
            .network
            .topology
            .nodes()
            .iter()
            .find_map(|n| n.loopback)
            .unwrap();
        let lb_pec = pecs.pec_containing(lb).unwrap();
        let touch = DeltaTouch {
            prefixes: vec![plankton_net::ip::Prefix::host(lb)],
            ..Default::default()
        };
        let dirty = pecs_touched_by(&s.network, &pecs, &deps, &touch);
        assert!(dirty.contains(&lb_pec.id));
        // Every BGP destination PEC depends on the loopback PECs.
        for p in &s.bgp_destinations {
            let pec = pecs.pecs_overlapping(p)[0];
            if deps
                .transitive_dependencies(deps.component_of(pec.id))
                .contains(&lb_pec.id)
            {
                assert!(dirty.contains(&pec.id), "{} must be dirtied", pec.id);
            }
        }
    }

    #[test]
    fn edge_local_ospf_cost_change_re_keys_few_pecs() {
        // A cost change on the aggregation side of an edge link is
        // competitive only for the prefix originated at that edge switch:
        // every other OSPF PEC's scoped key must survive, while the global
        // oracle dirties them all.
        let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
        let sets = vec![FailureSet::none()];
        let (pecs, scoped_before) = keys_for(&s.network, &sets);
        let (_, global_before) = keys_for_mode(&s.network, &sets, OspfSliceMode::Global);
        let device = s.fat_tree.aggregation[0][0];
        let edge = s.fat_tree.edge[0][0];
        let link = s.network.topology.link_between(device, edge).unwrap();
        let mut net = s.network.clone();
        ConfigDelta::OspfCostChange {
            device,
            link,
            cost: 42,
        }
        .apply(&mut net)
        .unwrap();
        let (_, scoped_after) = keys_for(&net, &sets);
        let (_, global_after) = keys_for_mode(&net, &sets, OspfSliceMode::Global);

        let mut scoped_dirty = 0;
        let mut global_dirty = 0;
        let mut ospf_pecs = 0;
        for pec in pecs.iter() {
            let is_ospf = pec
                .prefixes
                .iter()
                .any(|c| c.originated_into(OriginProtocol::Ospf));
            ospf_pecs += is_ospf as usize;
            if scoped_before.key(pec.id, 0) != scoped_after.key(pec.id, 0) {
                scoped_dirty += 1;
                assert!(is_ospf, "{} is not an OSPF PEC", pec.id);
            }
            if global_before.key(pec.id, 0) != global_after.key(pec.id, 0) {
                global_dirty += 1;
            }
        }
        assert_eq!(global_dirty, ospf_pecs, "the oracle dirties every OSPF PEC");
        assert!(scoped_dirty >= 1, "the local PEC must re-key");
        assert!(
            scoped_dirty * 3 <= ospf_pecs,
            "scoped keys must dirty ≤ 1/3 of the {ospf_pecs} OSPF PECs, got {scoped_dirty}"
        );
    }

    #[test]
    fn scoped_keys_never_miss_where_global_keys_hit() {
        // Precision may only grow: any key the global oracle leaves clean
        // must stay clean under scoping (the soak test asserts the converse
        // direction — scoped-clean implies unchanged outcome — end to end).
        let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
        let sets = vec![
            FailureSet::none(),
            FailureSet::single(s.network.topology.links()[0].id),
        ];
        let (pecs, scoped_before) = keys_for(&s.network, &sets);
        let (_, global_before) = keys_for_mode(&s.network, &sets, OspfSliceMode::Global);
        let mut net = s.network.clone();
        ConfigDelta::OspfCostChange {
            device: s.fat_tree.core[0],
            link: s.network.topology.neighbors(s.fat_tree.core[0])[0].1,
            cost: 77,
        }
        .apply(&mut net)
        .unwrap();
        let (_, scoped_after) = keys_for(&net, &sets);
        let (_, global_after) = keys_for_mode(&net, &sets, OspfSliceMode::Global);
        for pec in pecs.iter() {
            for f in 0..sets.len() {
                if global_before.key(pec.id, f) == global_after.key(pec.id, f) {
                    assert_eq!(
                        scoped_before.key(pec.id, f),
                        scoped_after.key(pec.id, f),
                        "{} f={f}: scoped key dirtied where the oracle is clean",
                        pec.id
                    );
                }
            }
        }
    }

    #[test]
    fn node_add_re_keys_every_task_conservatively() {
        // Growing the topology re-keys every task through the node count the
        // slices carry (per-node state vectors resize) — the conservative
        // "fallback to re-verify everything" behavior for shape changes,
        // scoped OSPF slices or not.
        use plankton_config::DeviceConfig;
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        let sets = vec![FailureSet::none()];
        let (pecs, before) = keys_for(&s.network, &sets);
        let mut net = s.network.clone();
        // No loopback and no referenced prefixes: the PEC partition is
        // unchanged, so keys are comparable one-to-one.
        ConfigDelta::NodeAdd {
            name: "grown".into(),
            loopback: None,
            links: vec![s.fat_tree.core[0], s.fat_tree.core[1]],
            config: DeviceConfig::empty().with_ospf(plankton_config::OspfConfig::enabled()),
        }
        .apply(&mut net)
        .unwrap();
        let (pecs_after, after) = keys_for(&net, &sets);
        assert_eq!(pecs.len(), pecs_after.len(), "no repartition");
        for pec in pecs.iter() {
            assert_ne!(
                before.key(pec.id, 0),
                after.key(pec.id, 0),
                "{} must re-key after a topology grow",
                pec.id
            );
        }
    }

    #[test]
    fn ospf_region_refines_advisory_touch() {
        // A cost change reports its speaker component as the region, and the
        // region-refined advisory dirty set is a subset of the unrefined one
        // (on this one-component fat tree they coincide; the cross-component
        // case — an out-of-region edit leaving the slice untouched — is
        // covered by tests/properties.rs).
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        let pecs = compute_pecs(&s.network);
        let deps = PecDependencies::compute(&s.network, &pecs);
        let device = s.fat_tree.aggregation[0][0];
        let link = s.network.topology.neighbors(device)[0].1;
        let mut net = s.network.clone();
        let touch = ConfigDelta::OspfCostChange {
            device,
            link,
            cost: 5,
        }
        .apply(&mut net)
        .unwrap();
        let region = touch
            .ospf_region
            .clone()
            .expect("cost change reports its region");
        assert!(region.contains(&device));
        // The fat tree is one speaker component: the advisory set matches the
        // unrefined one. Dropping the region must never shrink the dirty set.
        let with_region = pecs_touched_by(&net, &pecs, &deps, &touch);
        let mut without = touch.clone();
        without.ospf_region = None;
        let unrefined = pecs_touched_by(&net, &pecs, &deps, &without);
        assert!(with_region.is_subset(&unrefined));
    }

    #[test]
    fn dependency_key_change_re_keys_dependents() {
        let s = isp_ibgp_over_ospf(&AsTopologySpec::paper_as(3967));
        let sets = vec![FailureSet::none()];
        let (pecs, before) = keys_for(&s.network, &sets);
        // Change the OSPF slice (cost change on a backbone link): loopback
        // PECs (OSPF) re-key, and so must the BGP PECs that depend on them.
        let mut net = s.network.clone();
        let device = s.as_topology.backbone[0];
        let link = net.topology.neighbors(device)[0].1;
        ConfigDelta::OspfCostChange {
            device,
            link,
            cost: 777,
        }
        .apply(&mut net)
        .unwrap();
        let (_, after) = keys_for(&net, &sets);
        for p in &s.bgp_destinations {
            let pec = pecs.pecs_overlapping(p)[0];
            assert_ne!(before.key(pec.id, 0), after.key(pec.id, 0));
        }
    }
}
