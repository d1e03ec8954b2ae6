//! The Figure 7(d)/(g) scenario as an application: a RocketFuel-scale ISP
//! topology running OSPF with weighted links, verified for single-link fault
//! tolerance from a multihomed ingress, with an ARC-style graph baseline run
//! on the same question for comparison.
//!
//! ```text
//! cargo run --release --example isp_failures
//! ```

use plankton::baselines::ArcBaseline;
use plankton::config::scenarios::isp_ospf;
use plankton::net::generators::as_topo::AsTopologySpec;
use plankton::prelude::*;
use std::time::Instant;

fn main() {
    let scenario = isp_ospf(&AsTopologySpec::paper_as(3967));
    println!(
        "{}: {} routers, {} links, {} customer prefixes",
        scenario.as_topology.name,
        scenario.network.node_count(),
        scenario.network.topology.link_count(),
        scenario.destinations.len()
    );

    let verifier = Plankton::new(scenario.network.clone());
    println!(
        "{} packet equivalence classes, largest dependency SCC = {}",
        verifier.pecs().len(),
        verifier.dependencies().largest_component()
    );

    // Check a sample of customer prefixes for reachability from the ingress
    // under any single link failure.
    let sample: Vec<Prefix> = scenario.destinations.iter().take(12).copied().collect();
    let start = Instant::now();
    let report = verifier.verify(
        &Reachability::new(vec![scenario.ingress]),
        &FailureScenario::up_to(1),
        &PlanktonOptions::with_cores(4)
            .restricted_to(sample.clone())
            .collect_all_violations(),
    );
    println!(
        "\nPlankton, ≤1 failure, {} prefixes: {} in {:.3}s",
        sample.len(),
        if report.holds() {
            "all reachable"
        } else {
            "violations found"
        },
        start.elapsed().as_secs_f64()
    );
    println!("  {}", report.summary());
    for violation in report.violations.iter().take(3) {
        println!("  e.g. {violation}");
    }

    // The ARC-style baseline answers the same question with one max-flow per
    // source/destination pair (shortest-path routing only).
    let arc = ArcBaseline::new(&scenario.network);
    let probes: Vec<NodeId> = scenario
        .as_topology
        .access
        .iter()
        .take(12)
        .copied()
        .collect();
    let start = Instant::now();
    let arc_report = arc.all_to_all(&probes, 1);
    println!(
        "ARC-style baseline, same question over {} pairs: {} in {:.3}s",
        arc_report.flow_computations,
        if arc_report.holds() {
            "all reachable"
        } else {
            "vulnerable pairs exist"
        },
        start.elapsed().as_secs_f64()
    );
    for (src, dst) in arc_report.vulnerable_pairs.iter().take(3) {
        println!("  vulnerable pair: {src} -> {dst}");
    }
}
