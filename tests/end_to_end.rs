//! End-to-end integration tests: the paper's "basic correctness" scenarios
//! (§5) run through the full public API — hand-created topologies with
//! shortest-path routing, non-deterministic protocol convergence, recursive
//! routing and BGP wedgies.

use plankton::config::scenarios::{
    bgp_wedgie, disagree_gadget, fat_tree_ospf, ring_ospf, static_route_self_loop, CoreStaticRoutes,
};
use plankton::prelude::*;

#[test]
fn ring_reachability_is_single_link_fault_tolerant() {
    let scenario = ring_ospf(8);
    let verifier = Plankton::new(scenario.network.clone());
    let sources: Vec<NodeId> = scenario.ring.routers[1..].to_vec();
    let report = verifier.verify(
        &Reachability::new(sources.clone()),
        &FailureScenario::up_to(1),
        &PlanktonOptions::default().restricted_to(vec![scenario.destination]),
    );
    assert!(report.holds(), "{report}");

    // Two failures can partition the ring.
    let report = verifier.verify(
        &Reachability::new(sources),
        &FailureScenario::up_to(2),
        &PlanktonOptions::default()
            .restricted_to(vec![scenario.destination])
            .without_lec_pruning(),
    );
    assert!(!report.holds());
    assert_eq!(report.first_violation().unwrap().failures.len(), 2);
}

#[test]
fn fat_tree_static_route_loop_detection_matches_configuration() {
    for (mode, expect_loop) in [
        (CoreStaticRoutes::None, false),
        (CoreStaticRoutes::MatchingOspf, false),
        (CoreStaticRoutes::Looping, true),
    ] {
        let scenario = fat_tree_ospf(4, mode);
        let verifier = Plankton::new(scenario.network.clone());
        let report = verifier.verify(
            &LoopFreedom::everywhere(),
            &FailureScenario::no_failures(),
            &PlanktonOptions::default(),
        );
        assert_eq!(report.holds(), !expect_loop, "mode {mode:?}: {report}");
    }
}

#[test]
fn disagree_gadget_exposes_nondeterministic_convergence() {
    let gadget = disagree_gadget();
    let verifier = Plankton::new(gadget.network.clone());

    // Reachability holds in every converged state.
    let report = verifier.verify(
        &Reachability::new(gadget.actors.clone()),
        &FailureScenario::no_failures(),
        &PlanktonOptions::default().restricted_to(vec![gadget.destination]),
    );
    assert!(report.holds(), "{report}");

    // "Traffic from b goes directly to the origin" only holds in one of the
    // two converged states, so Plankton must find a violation.
    let report = verifier.verify(
        &BoundedPathLength::new(vec![gadget.actors[1]], 1),
        &FailureScenario::no_failures(),
        &PlanktonOptions::default().restricted_to(vec![gadget.destination]),
    );
    assert!(!report.holds());
    assert!(
        report
            .first_violation()
            .unwrap()
            .trail
            .nondeterministic_steps()
            > 0
    );
}

#[test]
fn bgp_wedgie_violation_is_found() {
    let gadget = bgp_wedgie();
    let verifier = Plankton::new(gadget.network.clone());
    let backup_provider = gadget.actors[0]; // AS2

    // Intended state: AS2 reaches the customer through its transit provider
    // (3 hops: AS2 -> AS3 -> AS4 -> AS1). In the wedged state AS2 uses the
    // backup link directly (1 hop). A policy demanding that the backup link
    // carries no traffic ("AS2's path is longer than 1 hop") is therefore
    // violated only under some orderings — which the model checker finds.
    let report = verifier.verify(
        &Waypoint::new(
            vec![backup_provider],
            vec![gadget.actors[1], gadget.actors[2]],
        ),
        &FailureScenario::no_failures(),
        &PlanktonOptions::default().restricted_to(vec![gadget.destination]),
    );
    assert!(
        !report.holds(),
        "the wedged converged state (backup link in use) must be reachable"
    );

    // Reachability holds in both converged states.
    let report = verifier.verify(
        &Reachability::new(gadget.actors.clone()),
        &FailureScenario::no_failures(),
        &PlanktonOptions::default().restricted_to(vec![gadget.destination]),
    );
    assert!(report.holds(), "{report}");
}

#[test]
fn self_looping_static_route_is_handled() {
    // A static route whose next hop lies inside its own prefix produces a
    // self-loop in the PEC dependency graph (observed in the paper's
    // real-world configs); verification must still terminate and report the
    // blackhole/loop-free facts consistently.
    let gadget = static_route_self_loop();
    let verifier = Plankton::new(gadget.network.clone());
    assert_eq!(verifier.dependencies().self_loops().len(), 1);
    let report = verifier.verify(
        &LoopFreedom::everywhere(),
        &FailureScenario::no_failures(),
        &PlanktonOptions::default(),
    );
    // The route cannot resolve (its target PEC has no converged route before
    // itself), so there is no forwarding loop.
    assert!(report.holds(), "{report}");
}

#[test]
fn verification_report_serializes() {
    let scenario = ring_ospf(4);
    let verifier = Plankton::new(scenario.network.clone());
    let report = verifier.verify(
        &Reachability::new(vec![scenario.ring.routers[2]]),
        &FailureScenario::no_failures(),
        &PlanktonOptions::default().restricted_to(vec![scenario.destination]),
    );
    let json = serde_json::to_string(&report).expect("report serializes");
    assert!(json.contains("reachability"));
}

/// Routers `o, y, a, b, x` (created in that order), links `o–x, x–y, y–a,
/// o–b, b–a`, `o` originating 203.0.113.0/24; `x` costs 5 on `o–x`, `y` 5 on
/// `x–y`, `a` costs `a_cost` on both of its links, everything else the
/// default. From `a`, the path via `b` and the path via `y, x` cost the same
/// whenever `a_cost` is; the one via `b` has fewer hops and wins.
fn equal_cost_detour(a_cost: u32) -> (Network, [NodeId; 5], [LinkId; 5], Prefix) {
    use plankton::config::{DeviceConfig, OspfConfig};
    let mut tb = TopologyBuilder::new();
    let [o, y, a, b, x] = ["o", "y", "a", "b", "x"].map(|name| tb.add_router(name));
    let links = [(o, x), (x, y), (y, a), (o, b), (b, a)].map(|(u, v)| tb.add_link(u, v));
    let [ox, xy, ya, ob, ba] = links;
    let prefix: Prefix = "203.0.113.0/24".parse().unwrap();
    let mut net = Network::unconfigured(tb.build());
    let ospf = |config: OspfConfig| DeviceConfig::empty().with_ospf(config);
    *net.device_mut(o) = ospf(OspfConfig::originating(vec![prefix]));
    *net.device_mut(x) = ospf(OspfConfig::enabled().with_cost(ox, 5));
    *net.device_mut(y) = ospf(OspfConfig::enabled().with_cost(xy, 5));
    *net.device_mut(a) = ospf(
        OspfConfig::enabled()
            .with_cost(ya, a_cost)
            .with_cost(ba, a_cost),
    );
    *net.device_mut(b) = ospf(OspfConfig::enabled());
    (net, [o, y, a, b, x], [ox, xy, ya, ob, ba], prefix)
}

/// At interface cost 0 the OSPF reduction's "cheapest pending update is
/// final" does not hold: `a` can step via `y, x` before the equal-cost,
/// shorter path via `b` reaches it, and the default options answered HOLDS
/// for `a`'s waypoint `x` although the converged state routes `a` via `b`.
/// RFC 2328 requires costs of at least 1, so cost 0 is refused wherever a
/// configuration comes in.
#[test]
fn zero_ospf_costs_are_refused_at_every_input_boundary() {
    let (net, [_, _, a, _, x], [_, _, ya, _, _], prefix) = equal_cost_detour(0);
    assert_eq!(
        net.validate(),
        vec![plankton::config::ConfigError::ZeroOspfCost {
            device: a,
            link: ya
        }]
    );

    // The CLI refuses it as a usage error.
    let dir = std::env::temp_dir().join(format!("plankton-zero-cost-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let config = dir.join("zero-cost.json");
    std::fs::write(&config, net.to_json()).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_plankton"))
        .args(["verify", "--config", config.to_str().unwrap()])
        .args(["--policy", "waypoint", "--source", "a", "--waypoint", "x"])
        .args(["--prefix", "203.0.113.0/24"])
        .output()
        .expect("run plankton");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cost 0"), "{stderr}");
    assert!(out.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);

    // So does a delta that would introduce it.
    let (mut net, ..) = equal_cost_detour(1);
    let delta = plankton::config::ConfigDelta::OspfCostChange {
        device: a,
        link: ya,
        cost: 0,
    };
    assert!(matches!(
        delta.apply(&mut net),
        Err(plankton::config::DeltaError::ZeroOspfCost(n, l)) if n == a && l == ya
    ));
    assert!(net.validate().is_empty());

    // At cost 1 the same shape verifies correctly with every reduction on:
    // `a` routes via `b`, never through `x`.
    let report = Plankton::new(net).verify(
        &Waypoint::new(vec![a], vec![x]),
        &FailureScenario::no_failures(),
        &PlanktonOptions::default().restricted_to(vec![prefix]),
    );
    assert!(!report.holds(), "{report}");
}

/// A reader that stops early (`plankton pecs … | head -1`) closes the CLI's
/// stdout before it writes: `plankton` leaves quietly with the exit status
/// the command has anyway, not with a panic (status 101) on the write. The
/// config is served through a FIFO, so the read end is closed before the
/// child can have loaded it, let alone written anything.
#[cfg(unix)]
#[test]
fn cli_exits_with_its_own_status_when_stdout_is_closed() {
    use std::os::unix::ffi::OsStrExt;
    extern "C" {
        fn mkfifo(path: *const std::ffi::c_char, mode: u32) -> i32;
    }
    let json = ring_ospf(6).network.to_json();
    let dir = std::env::temp_dir().join(format!("plankton-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fifo = dir.join("ring6.json");
    let path = std::ffi::CString::new(fifo.as_os_str().as_bytes()).unwrap();
    // SAFETY: `path` is a NUL-terminated string that outlives the call.
    assert_eq!(
        unsafe { mkfifo(path.as_ptr(), 0o600) },
        0,
        "mkfifo {fifo:?}"
    );
    let config = fifo.to_str().unwrap();
    let verify = |failures: &'static str| {
        vec![
            "verify",
            "--config",
            config,
            "--policy",
            "reachability",
            "--source",
            "r3",
            "--prefix",
            "10.99.0.0/24",
            "--max-failures",
            failures,
        ]
    };
    for (args, status) in [
        (vec!["pecs", "--config", config], 0),
        (verify("1"), 0),
        // Two failures partition the ring: a violation, and a trail to print.
        (verify("2"), 1),
    ] {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_plankton"))
            .args(&args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("run plankton");
        drop(child.stdout.take());
        // Opening the FIFO waits for the child to open it for reading.
        std::fs::write(&fifo, &json).expect("serve the config");
        let out = child.wait_with_output().expect("wait for plankton");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(status), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Five eBGP routers, each its own AS: `d` originates 198.51.100.0/24, and
/// the source `s` reaches it through the waypoint `a` (`s–a–d`, a 2-AS path)
/// or through the detour `s–b–c–d` (3 ASes). Shorter AS paths win, so every
/// converged state routes `s` through `a`.
fn waypoint_detour() -> (Network, Prefix, [NodeId; 5]) {
    use plankton::config::{BgpConfig, BgpNeighborConfig};
    let mut tb = TopologyBuilder::new();
    let routers = ["s", "a", "b", "c", "d"].map(|name| tb.add_router(name));
    let [s, a, b, c, d] = routers;
    let sessions = [(s, a), (a, d), (s, b), (b, c), (c, d)];
    for (u, v) in sessions {
        tb.add_link(u, v);
    }
    let prefix: Prefix = "198.51.100.0/24".parse().unwrap();
    let mut net = Network::unconfigured(tb.build());
    for n in routers {
        let mut bgp = BgpConfig::new(65000 + n.0, n.0 + 1);
        for &(u, v) in &sessions {
            let peer = if u == n {
                v
            } else if v == n {
                u
            } else {
                continue;
            };
            bgp = bgp.with_neighbor(BgpNeighborConfig::ebgp(peer, 65000 + peer.0));
        }
        if n == d {
            bgp = bgp.with_network(prefix);
        }
        net.device_mut(n).bgp = Some(bgp);
    }
    (net, prefix, routers)
}

/// Dropping the deterministic-node optimization is an ablation: it may cost
/// time, never change a verdict. Without it the search branches over every
/// enabled node, so `s` can adopt the detour before the shorter path reaches
/// it; policy pruning used to stop there, as if `s` had decided, and
/// reported the detour as a waypoint violation though no converged state
/// has it. Every ablation must find exactly the full optimization's
/// violations, in both explorers.
#[test]
fn ablations_report_only_converged_violations() {
    use plankton::checker::SearchOptions;
    use std::collections::BTreeSet;
    let (net, prefix, [s, a, b, ..]) = waypoint_detour();
    let verifier = Plankton::new(net);
    let violations = |policy: &Waypoint, search: SearchOptions, reference_explorer: bool| {
        let options = PlanktonOptions {
            search,
            reference_explorer,
            ..PlanktonOptions::default()
                .restricted_to(vec![prefix])
                .collect_all_violations()
        };
        let report = verifier.verify(policy, &FailureScenario::up_to(1), &options);
        report
            .violations
            .iter()
            .map(|v| (v.failures.to_string(), v.reason.clone()))
            .collect::<BTreeSet<_>>()
    };
    let through_a = Waypoint::new(vec![s], vec![a]);
    let through_b = Waypoint::new(vec![s], vec![b]);
    for (policy, failure_free_holds) in [(&through_a, true), (&through_b, false)] {
        let full = violations(policy, SearchOptions::all_optimizations(), false);
        // Failing `a`'s links is the only way to push `s` onto the detour.
        assert_eq!(
            full.iter()
                .any(|(failures, _)| *failures == FailureSet::none().to_string()),
            !failure_free_holds,
            "{full:?}"
        );
        for reference_explorer in [false, true] {
            for (label, search) in [
                (
                    "all but deterministic nodes",
                    SearchOptions::all_optimizations().without_deterministic_nodes(),
                ),
                ("none", SearchOptions::no_optimizations()),
            ] {
                assert_eq!(
                    violations(policy, search, reference_explorer),
                    full,
                    "{label}, reference explorer {reference_explorer}"
                );
            }
        }
    }
}

/// `network` with node ids reversed (`n` becomes `count - 1 - n`): nodes,
/// link endpoints, adjacency, device order and BGP peers follow; names,
/// loopbacks, link ids and router ids stay.
fn with_node_ids_reversed(network: &Network) -> Network {
    let count = network.node_count();
    let map = |n: NodeId| NodeId((count - 1 - n.index()) as u32);
    let mut topology = TopologyBuilder::new();
    for node in network.topology.nodes().iter().rev() {
        let id = topology.add_node(&node.name, node.kind);
        if let Some(loopback) = node.loopback {
            topology.set_loopback(id, loopback);
        }
    }
    for link in network.topology.links() {
        topology.add_link_addressed(map(link.a.node), link.a.addr, map(link.b.node), link.b.addr);
    }
    let devices = network.devices.iter().rev().map(|device| {
        assert!(
            device.static_routes.is_empty(),
            "static next hops are not remapped"
        );
        let mut device = device.clone();
        for neighbor in device.bgp.iter_mut().flat_map(|bgp| &mut bgp.neighbors) {
            neighbor.peer = map(neighbor.peer);
        }
        device
    });
    Network {
        topology: topology.build(),
        devices: devices.collect(),
        down_links: network.down_links.clone(),
    }
}

/// A report's violations with every node id (`n7`) in their explanations
/// replaced by the device's name.
fn violations_by_name(network: &Network, report: &VerificationReport) -> Vec<String> {
    let mut named: Vec<String> = report
        .violations
        .iter()
        .map(|v| {
            let mut out = String::new();
            let mut chars = v.reason.chars().peekable();
            while let Some(c) = chars.next() {
                let starts_id = c == 'n'
                    && !out.ends_with(|p: char| p.is_alphanumeric())
                    && chars.peek().is_some_and(char::is_ascii_digit);
                if !starts_id {
                    out.push(c);
                    continue;
                }
                let mut id = 0u32;
                while let Some(d) = chars.peek().and_then(|d| d.to_digit(10)) {
                    id = id * 10 + d;
                    chars.next();
                }
                out.push_str(&network.topology.node(NodeId(id)).name);
            }
            format!("{:?} under {}: {out}", v.prefix, v.failures)
        })
        .collect();
    named.sort();
    named.dedup();
    named
}

/// The same question on a network and on a copy with node ids reversed
/// gets the same answer. On the RFC 7938 k=4 tree, the tie-breaking of the
/// deterministic-node rule once stepped a tied BGP update without
/// branching over its tie partner when ids put the partner second, and the
/// reversed copy answered HOLDS.
#[test]
fn a_verdict_does_not_depend_on_node_numbering() {
    let original = plankton::config::scenarios::fat_tree_bgp_rfc7938(4, 7).network;
    let reversed = with_node_ids_reversed(&original);
    let prefix: Prefix = "10.0.2.0/24".parse().unwrap();
    for policy_pruning in [true, false] {
        let answers: Vec<Vec<String>> = [&original, &reversed]
            .into_iter()
            .map(|network| {
                let id = |name: &str| network.topology.node_by_name(name).unwrap();
                let waypoint = Waypoint::new(
                    vec![id("edge0_0")],
                    vec![id("agg2_0"), id("agg2_1"), id("agg0_1")],
                );
                let search = plankton::checker::SearchOptions {
                    policy_pruning,
                    ..Default::default()
                };
                let options = PlanktonOptions::default()
                    .restricted_to(vec![prefix])
                    .with_search(search)
                    .collect_all_violations();
                let report = Plankton::new(network.clone()).verify(
                    &waypoint,
                    &FailureScenario::no_failures(),
                    &options,
                );
                assert!(!report.holds(), "policy pruning {policy_pruning}: {report}");
                violations_by_name(network, &report)
            })
            .collect();
        assert_eq!(answers[0], answers[1], "policy pruning {policy_pruning}");
    }
}
