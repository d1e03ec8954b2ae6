//! The enabled set's cost heap, checked where the debug-build assertion
//! cannot reach (`--release`, where it is compiled out): the OSPF pick read
//! off the heap equals the pick by a pass over every pending update at every
//! decision on OSPF fat trees, and the heap's top survives free walks with
//! undo.

use plankton_checker::{ModelChecker, OspfPor, PorDecision, PorHeuristic, SearchOptions, Verdict};
use plankton_config::scenarios::{fat_tree_ospf, CoreStaticRoutes};
use plankton_net::failure::FailureSet;
use plankton_net::topology::NodeId;
use plankton_protocols::rpvp::{EnabledChoice, EnabledView, IncrementalEnabled, Rpvp, RpvpState};
use plankton_protocols::{OspfModel, ProtocolModel, RouteHandle, RouteInterner};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`OspfPor`] on the live view (the heap), checked against [`OspfPor`] on
/// a copied slice of the same entries (the scan).
struct HeapAgainstScan<'a> {
    decisions: &'a AtomicU64,
}

impl PorHeuristic for HeapAgainstScan<'_> {
    fn pick(
        &self,
        state: &RpvpState,
        enabled: &EnabledView<'_>,
        decided: &[bool],
        interner: &RouteInterner,
    ) -> PorDecision {
        assert!(
            enabled.cheapest().is_some(),
            "the explorer keeps a cost heap for a heuristic that reads it"
        );
        let heap = OspfPor.pick(state, enabled, decided, interner);
        let entries = enabled.to_vec();
        let scan = OspfPor.pick(state, &EnabledView::Slice(&entries), decided, interner);
        assert_eq!(heap, scan, "heap and scan disagree on {entries:?}");
        self.decisions.fetch_add(1, Ordering::Relaxed);
        heap
    }

    fn reads_cost_heap(&self) -> bool {
        true
    }
}

/// The heap's top against a scan of the entries' keys, and each entry's
/// `least_cost` against its resolved updates.
fn assert_heap_matches(inc: &IncrementalEnabled, interner: &RouteInterner, what: &str) {
    let view = inc.view();
    for c in view.iter() {
        let least = c
            .best_updates
            .iter()
            .map(|&(_, h)| interner.resolve(h).expect("interned").igp_cost)
            .min()
            .unwrap_or(u64::MAX);
        assert_eq!(c.least_cost, least, "{what}: least cost of {}", c.node);
    }
    let scanned = view
        .iter()
        .min_by_key(|c| (c.best_updates.is_empty(), c.least_cost, c.node))
        .map(|c| c.node);
    assert_eq!(view.cheapest().map(|c| c.node), scanned, "{what}");
}

/// Free RPVP walks (any enabled node, any update, paths that change and
/// clear) with undo, on the explorer's enabled set with a cost heap: entries
/// are re-keyed as better updates arrive, and undo restores them in reverse,
/// both of which a deterministic OSPF search never does.
#[test]
fn heap_top_survives_free_walks_with_undo() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut below = move |n: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n.max(1) as u64) as usize
    };
    let (mut undos, mut rekeys) = (0, 0);
    for (k, seed) in [(4, 1usize), (4, 2), (6, 3)] {
        let s = fat_tree_ospf(k, CoreStaticRoutes::None);
        let origin = s.fat_tree.edge[seed % k][0];
        let prefix = s.fat_tree.prefix_of_edge(origin).expect("edge prefix");
        let model = OspfModel::new(&s.network, prefix, vec![origin], &FailureSet::none());
        let rpvp = Rpvp::new(&model);
        let mut interner = RouteInterner::new();
        let mut state = rpvp.initial_state(&mut interner);
        let eligible = (0..model.node_count())
            .map(|i| !rpvp.is_origin(NodeId(i as u32)))
            .collect();
        let mut inc = IncrementalEnabled::new(model.reverse_peers(), eligible).with_cost_heap();
        inc.rebuild(&rpvp, &state, &mut interner);
        assert_heap_matches(&inc, &interner, "rebuild");
        let mut displaced: Vec<(NodeId, Option<EnabledChoice>)> = Vec::new();
        let mut frames: Vec<(NodeId, RouteHandle, usize)> = Vec::new();
        for op in 0..3000 {
            let enabled = inc.view().to_vec();
            if !enabled.is_empty() && (frames.is_empty() || below(3) > 0) {
                let choice = &enabled[below(enabled.len())];
                let adopt = if choice.best_updates.is_empty() || (choice.invalid && below(3) == 0) {
                    RouteHandle::NONE
                } else {
                    choice.best_updates[below(choice.best_updates.len())].1
                };
                let mark = displaced.len();
                let prev = rpvp.step_adopting(&mut state, &interner, choice.node, adopt);
                inc.refresh_after_step(
                    &rpvp,
                    &state,
                    &mut interner,
                    choice.node,
                    prev,
                    &mut displaced,
                );
                rekeys += displaced[mark..]
                    .iter()
                    .filter(|(m, old)| {
                        old.as_ref()
                            .zip(inc.view().get_node(*m))
                            .is_some_and(|(o, n)| o.least_cost != n.least_cost)
                    })
                    .count();
                frames.push((choice.node, prev, mark));
                assert_heap_matches(&inc, &interner, &format!("k={k} apply #{op}"));
            } else if let Some((node, prev, mark)) = frames.pop() {
                while displaced.len() > mark {
                    let (m, entry) = displaced.pop().expect("above the mark");
                    inc.set_entry(m, entry);
                }
                rpvp.undo_step(&mut state, node, prev);
                undos += 1;
                assert_heap_matches(&inc, &interner, &format!("k={k} undo #{op}"));
            }
        }
    }
    assert!(
        undos > 1000 && rekeys > 100,
        "{undos} undos, {rekeys} re-keyed entries"
    );
}

#[test]
fn heap_pick_equals_the_scan_on_fat_trees_under_every_single_link_failure() {
    for k in [4, 6] {
        let s = fat_tree_ospf(k, CoreStaticRoutes::None);
        let mut failure_sets = vec![FailureSet::none()];
        failure_sets.extend(
            (0..s.network.topology.link_count())
                .map(|l| FailureSet::single(plankton_net::topology::LinkId(l as u32))),
        );
        let decisions = AtomicU64::new(0);
        for &origin in s.fat_tree.edge.iter().flatten() {
            let prefix = s.fat_tree.prefix_of_edge(origin).expect("edge prefix");
            for failures in &failure_sets {
                let model = OspfModel::new(&s.network, prefix, vec![origin], failures);
                let checker = ModelChecker::new(
                    &model,
                    Box::new(HeapAgainstScan {
                        decisions: &decisions,
                    }),
                    SearchOptions::all_optimizations(),
                    failures.clone(),
                );
                let stats = checker.run(&mut |_, _| Verdict::Continue);
                assert_eq!(stats.converged_states, 1, "OSPF converges one way");
            }
        }
        assert!(decisions.load(Ordering::Relaxed) > 0);
    }
}
