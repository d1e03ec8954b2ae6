//! One worker's [`SearchScratch`] threaded through a sequence of unlike runs
//! must be invisible: every run returns what a fresh checker returns.
//!
//! The sequence switches the visited set between exact storage and two
//! bitstate sizes (so the filter is replaced, not just cleared) and switches
//! between OSPF and BGP models of different node counts (so the exact set's
//! state width resets), while the interner stays warm throughout.

use plankton_checker::{
    BgpPor, ModelChecker, NoPor, OspfPor, PorHeuristic, SearchOptions, SearchScratch, SearchStats,
    Trail, Verdict,
};
use plankton_config::scenarios::{bgp_wedgie, disagree_gadget, ring_ospf, GadgetScenario};
use plankton_net::failure::FailureSet;
use plankton_protocols::bgp::{BgpModel, UniformUnderlay};
use plankton_protocols::ospf::OspfModel;
use plankton_protocols::{ProtocolModel, Route};
use std::sync::Arc;

/// What a run returns: its statistics and each converged state with its
/// trail, in emission order.
type Outcome = (SearchStats, Vec<(Vec<Option<Route>>, Trail)>);

fn explore(checker: ModelChecker<'_>, scratch: Option<&mut SearchScratch>) -> Outcome {
    let mut found = Vec::new();
    let mut callback = |state: &plankton_protocols::ConvergedState<'_>, trail: &Trail| {
        found.push((state.to_routes(), trail.clone()));
        Verdict::Continue
    };
    let stats = match scratch {
        Some(scratch) => checker.run_in(scratch, &mut callback),
        None => checker.run(&mut callback),
    };
    (stats, found)
}

fn bgp_model(g: &GadgetScenario) -> BgpModel {
    BgpModel::new(
        &g.network,
        g.destination,
        vec![g.origin],
        &FailureSet::none(),
        Arc::new(UniformUnderlay),
    )
}

#[test]
fn a_reused_scratch_returns_what_a_fresh_checker_returns() {
    let (ring6, ring5) = (ring_ospf(6), ring_ospf(5));
    let (disagree, wedgie) = (disagree_gadget(), bgp_wedgie());
    let ospf6 = OspfModel::new(
        &ring6.network,
        ring6.destination,
        vec![ring6.origin],
        &FailureSet::none(),
    );
    let ospf5 = OspfModel::new(
        &ring5.network,
        ring5.destination,
        vec![ring5.origin],
        &FailureSet::none(),
    );
    let (bgp_disagree, bgp_wedgie) = (bgp_model(&disagree), bgp_model(&wedgie));
    type Heuristic<'m> = Box<dyn Fn() -> Box<dyn PorHeuristic + 'm> + 'm>;
    // OSPF and BGP alternate, and consecutive models differ in node count.
    let cases: [(&dyn ProtocolModel, Heuristic<'_>); 4] = [
        (&ospf6, Box::new(|| Box::new(OspfPor))),
        (
            &bgp_disagree,
            Box::new(|| Box::new(BgpPor::from_model(&bgp_disagree))),
        ),
        (&ospf5, Box::new(|| Box::new(NoPor))),
        (&bgp_wedgie, Box::new(|| Box::new(NoPor))),
    ];
    let counts: Vec<usize> = cases.iter().map(|(m, _)| m.node_count()).collect();
    assert!(
        (0..4).all(|i| counts[i] != counts[(i + 1) % 4]),
        "{counts:?}"
    );
    let visited_kinds = [
        SearchOptions::no_optimizations(),
        SearchOptions::no_optimizations().with_bitstate(1 << 12),
        SearchOptions::no_optimizations().with_bitstate(1 << 16),
        SearchOptions::all_optimizations(),
        SearchOptions::all_optimizations().with_bitstate(1 << 16),
    ];

    let mut scratch = SearchScratch::new();
    let mut runs = 0;
    let mut branched = 0;
    for options in &visited_kinds {
        for (i, (model, heuristic)) in cases.iter().enumerate() {
            let checker =
                || ModelChecker::new(*model, heuristic(), options.clone(), FailureSet::none());
            let fresh = explore(checker(), None);
            let reused = explore(checker(), Some(&mut scratch));
            assert!(!fresh.1.is_empty(), "model {i} converges");
            assert_eq!(reused, fresh, "model {i} under {options:?}");
            runs += 1;
            branched += u64::from(fresh.0.visited_states > 0);
        }
    }
    assert!(
        branched > runs / 2,
        "{branched} of {runs} runs recorded states"
    );
    // The visited set was kept on every run but the first of each kind.
    assert_eq!(scratch.reuse_count(), runs - visited_kinds.len() as u64);
}
