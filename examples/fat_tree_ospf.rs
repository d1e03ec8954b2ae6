//! The question the `cold_ospf_fattree` benchmark workload times, as an
//! application: loop freedom on a k=16 OSPF fat tree (320 switches) under
//! any single link failure, on one core. The core switches carry static
//! routes; with `MatchingOspf` they agree with OSPF and the policy holds,
//! with `Looping` they bounce traffic back into the pod and Plankton finds
//! the loop.
//!
//! ```text
//! cargo run --release --example fat_tree_ospf
//! ```
//!
//! Every OSPF task runs one deterministic RPVP chain, so the PEC, failure
//! set, data-plane and state counts in the summaries pin the explored tree
//! exactly.

use plankton::config::scenarios::{fat_tree_ospf, CoreStaticRoutes};
use plankton::prelude::*;
use std::time::Instant;

fn main() {
    for (routes, label) in [
        (
            CoreStaticRoutes::MatchingOspf,
            "static routes matching OSPF",
        ),
        (CoreStaticRoutes::Looping, "looping static routes"),
    ] {
        let scenario = fat_tree_ospf(16, routes);
        let verifier = Plankton::new(scenario.network.clone());
        let start = Instant::now();
        let report = verifier.verify(
            &LoopFreedom::everywhere(),
            &FailureScenario::up_to(1),
            &PlanktonOptions::with_cores(1),
        );
        println!(
            "k=16, {label}, ≤1 failure, 1 core, {:.3}s: {}",
            start.elapsed().as_secs_f64(),
            report.summary()
        );
    }
}
