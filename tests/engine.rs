//! Integration tests for the work-stealing verification engine: N workers
//! must produce the report one worker produces (the engine at one worker is
//! the sequential oracle), dependency ordering must hold through the outcome
//! table, and the first violation must drain the remaining task fleet.

use plankton::net::generators::as_topo::AsTopologySpec;
use plankton::prelude::*;

#[test]
fn four_worker_report_equals_one_worker_on_ring() {
    let s = plankton::config::scenarios::ring_ospf(8);
    let sources: Vec<NodeId> = s.ring.routers[1..].to_vec();
    let plankton = Plankton::new(s.network.clone());
    let run = |options: PlanktonOptions| {
        plankton.verify(
            &Reachability::new(sources.clone()),
            &FailureScenario::up_to(2),
            &options
                .restricted_to(vec![s.destination])
                .without_lec_pruning()
                .collect_all_violations(),
        )
    };
    let sequential = run(PlanktonOptions::with_cores(1));
    let parallel = run(PlanktonOptions::with_cores(4));

    assert_eq!(sequential.holds(), parallel.holds());
    assert_eq!(
        sequential.stats, parallel.stats,
        "search work must be identical"
    );
    assert_eq!(sequential.data_planes_checked, parallel.data_planes_checked);
    assert_eq!(sequential.pecs_verified, parallel.pecs_verified);
    assert_eq!(
        sequential.failure_sets_explored,
        parallel.failure_sets_explored
    );
    assert_eq!(
        serde_json::to_string(&sequential.violations).unwrap(),
        serde_json::to_string(&parallel.violations).unwrap(),
        "sorted violation lists must match exactly"
    );
    let engine = parallel.engine.expect("engine stats present");
    assert_eq!(engine.tasks_executed, engine.tasks_total as u64);
    assert_eq!(engine.tasks_pending, 0);
}

#[test]
fn four_worker_report_equals_one_worker_on_fat_tree() {
    use plankton::config::scenarios::{fat_tree_ospf, CoreStaticRoutes};
    let s = fat_tree_ospf(4, CoreStaticRoutes::Looping);
    let plankton = Plankton::new(s.network.clone());
    let run = |options: PlanktonOptions| {
        plankton.verify(
            &LoopFreedom::everywhere(),
            &FailureScenario::no_failures(),
            &options.collect_all_violations(),
        )
    };
    let sequential = run(PlanktonOptions::with_cores(1));
    let parallel = run(PlanktonOptions::with_cores(4));

    assert!(!sequential.holds() && !parallel.holds());
    assert_eq!(sequential.stats, parallel.stats);
    assert_eq!(sequential.data_planes_checked, parallel.data_planes_checked);
    assert_eq!(
        serde_json::to_string(&sequential.violations).unwrap(),
        serde_json::to_string(&parallel.violations).unwrap()
    );
}

/// Dependency ordering end to end: iBGP destination PECs can only converge
/// if the loopback PECs' outcomes were stored before the dependent tasks
/// ran. A scheduling bug would leave the iBGP sessions down and flip the
/// verdict of some backbone router — at either worker count, so the verdict
/// the scenario is built to have is asserted on its own, not only that the
/// two runs agree.
#[test]
fn engine_honors_ibgp_dependencies() {
    use plankton::config::scenarios::isp_ibgp_over_ospf;
    let s = isp_ibgp_over_ospf(&AsTopologySpec::paper_as(3967));
    let plankton = Plankton::new(s.network.clone());
    assert!(
        plankton.dependencies().graph.edge_count() > 0,
        "scenario must actually have cross-PEC dependencies"
    );
    let run = |options: PlanktonOptions| {
        plankton.verify(
            &Reachability::new(s.network.topology.node_ids().collect()),
            &FailureScenario::no_failures(),
            &options
                .restricted_to(s.bgp_destinations.clone())
                .collect_all_violations(),
        )
    };
    let sequential = run(PlanktonOptions::with_cores(1));
    let parallel = run(PlanktonOptions::with_cores(4));
    // Built verdict: every router of the iBGP mesh (the backbone, which the
    // policy walks first) delivers; the BGP-free access routers have no
    // route, so each destination's violation names the first of them.
    let first_access = s.as_topology.access[0];
    assert!(s.as_topology.backbone.iter().all(|&b| b < first_access));
    assert_eq!(sequential.violations.len(), s.bgp_destinations.len());
    for violation in &sequential.violations {
        assert!(
            violation
                .reason
                .starts_with(&format!("traffic from {first_access} ")),
            "a backbone router lost its iBGP route: {violation}"
        );
    }
    assert_eq!(sequential.holds(), parallel.holds());
    assert_eq!(sequential.stats, parallel.stats);
    assert_eq!(
        serde_json::to_string(&sequential.violations).unwrap(),
        serde_json::to_string(&parallel.violations).unwrap()
    );
}

/// Early stop: under stop-at-first-violation semantics the violation must
/// halt the remaining task fleet (drained as "skipped"), not run it to
/// completion.
#[test]
fn early_stop_halts_remaining_tasks() {
    use plankton::config::scenarios::{fat_tree_ospf, CoreStaticRoutes};
    let s = fat_tree_ospf(4, CoreStaticRoutes::Looping);
    let plankton = Plankton::new(s.network.clone());
    let report = plankton.verify(
        &LoopFreedom::everywhere(),
        &FailureScenario::no_failures(),
        &PlanktonOptions::with_cores(1), // stop_at_first_violation is the default
    );
    assert!(!report.holds());
    let engine = report.engine.expect("engine stats present");
    assert!(
        engine.tasks_skipped > 0,
        "violation must drain the remaining fleet: {engine}"
    );
    assert_eq!(
        engine.tasks_executed + engine.tasks_skipped,
        engine.tasks_total as u64,
        "every task accounted for: {engine}"
    );
    assert_eq!(engine.tasks_pending, 0);

    // The all-violations mode, in contrast, runs every task.
    let full = plankton.verify(
        &LoopFreedom::everywhere(),
        &FailureScenario::no_failures(),
        &PlanktonOptions::with_cores(1).collect_all_violations(),
    );
    let engine = full.engine.expect("engine stats present");
    assert_eq!(engine.tasks_skipped, 0);
    assert!(full.violations.len() >= report.violations.len());
}

/// The per-worker scratch actually gets reused across a multi-task run.
#[test]
fn engine_reuses_search_scratch() {
    use plankton::config::scenarios::{fat_tree_ospf, CoreStaticRoutes};
    let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
    let plankton = Plankton::new(s.network.clone());
    let report = plankton.verify(
        &LoopFreedom::everywhere(),
        &FailureScenario::no_failures(),
        &PlanktonOptions::with_cores(2),
    );
    assert!(report.holds(), "{report}");
    let engine = report.engine.expect("engine stats present");
    assert!(
        engine.scratch_reuses > 0,
        "visited-set allocations must be reused across runs: {engine}"
    );
    assert!(engine.interned_routes > 0 || plankton.dependencies().graph.edge_count() == 0);
}
