//! The Figure 7(c) scenario as an application: an RFC 7938 BGP data center
//! (every switch its own AS, eBGP on every link) where the operator intends
//! all inter-pod traffic to cross a set of monitoring waypoints on the
//! aggregation layer — but nothing in the configuration steers routes that
//! way, so whether the policy holds depends on non-deterministic protocol
//! convergence (age-based tie breaking). Plankton explores the convergence
//! non-determinism and finds the violating event sequence.
//!
//! ```text
//! cargo run --release --example datacenter_bgp
//! ```

use plankton::config::scenarios::fat_tree_bgp_rfc7938;
use plankton::prelude::*;

fn main() {
    let scenario = fat_tree_bgp_rfc7938(4, 7);
    let (src, dst) = scenario.monitored_edges;
    let dst_prefix = scenario
        .fat_tree
        .prefix_of_edge(dst)
        .expect("destination edge originates a prefix");

    println!(
        "BGP data center: {} switches, {} waypoints on the aggregation layer",
        scenario.network.node_count(),
        scenario.waypoints.len()
    );
    println!(
        "checking: traffic from {} to {} ({dst_prefix}) must cross a waypoint",
        scenario.network.topology.node(src).name,
        scenario.network.topology.node(dst).name,
    );

    let verifier = Plankton::new(scenario.network.clone());
    let policy = Waypoint::new(vec![src], scenario.waypoints.clone());
    let report = verifier.verify(
        &policy,
        &FailureScenario::no_failures(),
        &PlanktonOptions::default().restricted_to(vec![dst_prefix]),
    );

    println!("{}", report.summary());
    match report.first_violation() {
        Some(violation) => {
            println!("\nA convergence that bypasses every waypoint exists.");
            println!("Non-deterministic choices on the violating execution:");
            for event in violation.trail.events.iter().filter(|e| !e.deterministic) {
                println!(
                    "  {} adopted the advertisement from {:?}",
                    event.node, event.from_peer
                );
            }
            println!("\nreason: {}", violation.reason);
        }
        None => {
            println!("every possible convergence happens to cross a waypoint");
        }
    }

    // Reachability, by contrast, holds in every converged state.
    let report = verifier.verify(
        &Reachability::new(vec![src]),
        &FailureScenario::no_failures(),
        &PlanktonOptions::default().restricted_to(vec![dst_prefix]),
    );
    println!("\nreachability of the same prefix: {}", report.summary());

    // The same question on a k=8 data center, over every prefix and with
    // every violation collected: the question the `cold_bgp_dc` benchmark
    // workload times. Its counts pin the branching BGP search's explored
    // tree exactly.
    let scenario = fat_tree_bgp_rfc7938(8, 7938);
    let verifier = Plankton::new(scenario.network.clone());
    let report = verifier.verify(
        &Waypoint::new(vec![scenario.monitored_edges.0], scenario.waypoints.clone()),
        &FailureScenario::no_failures(),
        &PlanktonOptions::default().collect_all_violations(),
    );
    println!("\nk=8, every prefix, all violations: {}", report.summary());
}
