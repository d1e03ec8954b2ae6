//! Delta-correctness tests for the incremental verification service.
//!
//! For every delta kind, the incremental re-verification after the delta
//! must produce a `VerificationReport` identical — including exact
//! `SearchStats` — to a from-scratch `Plankton::verify` on the post-delta
//! network, while observably re-exploring fewer PECs than a full run where
//! the delta is small. Engine pool statistics are nulled before comparison
//! (how many tasks the *pool* executed legitimately differs; what they
//! computed must not).

use plankton::config::scenarios::{fat_tree_ospf, isp_ibgp_over_ospf, ring_ospf, CoreStaticRoutes};
use plankton::config::static_routes::StaticRoute;
use plankton::config::{ConfigDelta, DeviceConfig, OspfConfig, RouteMap};
use plankton::core::{IncrementalVerifier, Plankton};
use plankton::net::generators::as_topo::AsTopologySpec;
use plankton::policy::Policy;
use plankton::prelude::*;

/// Verify once to warm the cache, apply the delta, re-verify incrementally,
/// and assert the merged report equals a from-scratch verification of the
/// post-delta network. Returns (pecs_reexplored, pecs_checked, tasks_cached).
fn assert_delta_incremental(
    label: &str,
    network: &Network,
    delta: ConfigDelta,
    policy: &dyn Policy,
    scenario: &FailureScenario,
    options: PlanktonOptions,
) -> (usize, usize, usize) {
    let session = IncrementalVerifier::new(network.clone());
    let (warm, warm_stats) = session.verify(policy, 99, scenario, &options);
    assert_eq!(warm_stats.tasks_cached, 0, "{label}: cold cache");

    let applied = session
        .apply_delta(&delta)
        .unwrap_or_else(|e| panic!("{label}: delta failed: {e}"));

    let (incremental, run) = session.verify(policy, 99, scenario, &options);
    let scratch =
        Plankton::new(session.snapshot().network().clone()).verify(policy, scenario, &options);
    assert_eq!(
        incremental.normalized_json(),
        scratch.normalized_json(),
        "{label}: incremental report must equal from-scratch verification \
         (delta {}, {} PECs re-explored)",
        applied.kind,
        run.pecs_reexplored,
    );
    // Sanity: the warm report was computed on the pre-delta network; nothing
    // requires it to match, but it must at least be well-formed.
    assert!(warm.pecs_verified > 0, "{label}");
    (run.pecs_reexplored, run.pecs_checked, run.tasks_cached)
}

fn default_options() -> PlanktonOptions {
    PlanktonOptions::default().collect_all_violations()
}

#[test]
fn ring_all_delta_kinds_match_from_scratch() {
    let s = ring_ospf(6);
    let sources: Vec<NodeId> = s.ring.routers[1..].to_vec();
    let policy = Reachability::new(sources);
    let scenario = FailureScenario::up_to(1);
    let options = default_options().restricted_to(vec![s.destination]);
    let deltas: Vec<(&str, ConfigDelta)> = vec![
        (
            "link down",
            ConfigDelta::LinkDown {
                link: s.ring.links[2],
            },
        ),
        (
            "ospf cost",
            ConfigDelta::OspfCostChange {
                device: s.ring.routers[1],
                link: s.ring.links[1],
                cost: 50,
            },
        ),
        (
            "static add",
            ConfigDelta::StaticRouteAdd {
                device: s.ring.routers[3],
                route: StaticRoute::to_interface(s.destination, s.ring.routers[2]),
            },
        ),
        (
            "node add",
            ConfigDelta::NodeAdd {
                name: "chord".into(),
                loopback: Some(Ipv4Addr::new(10, 255, 0, 1)),
                links: vec![s.ring.routers[0], s.ring.routers[3]],
                config: DeviceConfig::empty().with_ospf(OspfConfig::enabled()),
            },
        ),
        (
            "node remove",
            ConfigDelta::NodeRemove {
                device: s.ring.routers[4],
            },
        ),
    ];
    for (label, delta) in deltas {
        assert_delta_incremental(
            label,
            &s.network,
            delta,
            &policy,
            &scenario,
            options.clone(),
        );
    }
}

#[test]
fn ring_link_up_matches_from_scratch() {
    // Start from a ring with a link already down and bring it back.
    let s = ring_ospf(6);
    let mut network = s.network.clone();
    network.set_link_down(s.ring.links[0]);
    let sources: Vec<NodeId> = s.ring.routers[1..].to_vec();
    assert_delta_incremental(
        "link up",
        &network,
        ConfigDelta::LinkUp {
            link: s.ring.links[0],
        },
        &Reachability::new(sources),
        &FailureScenario::up_to(1),
        default_options().restricted_to(vec![s.destination]),
    );
}

#[test]
fn fat_tree_small_deltas_reexplore_strictly_fewer_pecs() {
    let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
    let policy = LoopFreedom::everywhere();
    let scenario = FailureScenario::no_failures();

    // A static-route delta touches one destination prefix: exactly the PECs
    // overlapping it re-run.
    let (reexplored, checked, cached) = assert_delta_incremental(
        "fat tree static add",
        &s.network,
        ConfigDelta::StaticRouteAdd {
            device: s.fat_tree.aggregation[0][0],
            route: StaticRoute::to_interface(s.destinations[0], s.fat_tree.edge[0][0]),
        },
        &policy,
        &scenario,
        default_options(),
    );
    assert!(
        reexplored < checked,
        "static delta must re-explore strictly fewer PECs ({reexplored}/{checked})"
    );
    assert!(cached > 0, "clean results must come from the cache");
    assert!(
        reexplored <= 2,
        "a one-prefix delta dirties at most the overlapping PECs, got {reexplored}"
    );
}

#[test]
fn fat_tree_single_link_delta_reexplores_strictly_fewer_pecs() {
    let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
    let policy = LoopFreedom::everywhere();
    // Explore single-link failures up front: the link-down delta's effective
    // failure sets are then already cached, and connected-only loopback PECs
    // share their failure-free outcomes too.
    let scenario = FailureScenario::up_to(1);
    let link = s.network.topology.links()[0].id;
    let (reexplored, checked, cached) = assert_delta_incremental(
        "fat tree link down",
        &s.network,
        ConfigDelta::LinkDown { link },
        &policy,
        &scenario,
        default_options(),
    );
    assert!(cached > 0, "pre-explored failure scenarios must be reused");
    assert!(
        reexplored < checked,
        "single-link delta must re-explore strictly fewer PECs ({reexplored}/{checked})"
    );
}

#[test]
fn fat_tree_static_remove_and_policy_violation_flow() {
    // Install a looping static route via a delta (the report must flip to
    // violated, identically to from-scratch), then remove it again (the
    // report must flip back and the original cache entries must hit).
    let s = fat_tree_ospf(4, CoreStaticRoutes::None);
    let policy = LoopFreedom::everywhere();
    let scenario = FailureScenario::no_failures();
    let options = default_options();
    let session = IncrementalVerifier::new(s.network.clone());
    let (clean, _) = session.verify(&policy, 5, &scenario, &options);
    assert!(clean.holds());

    // edge[0][0] → agg[0][0] → back: a loop for a remote pod's prefix.
    let device = s.fat_tree.aggregation[0][0];
    let victim_prefix = s.destinations[2 * 2]; // pod 2's first edge prefix
    let add = ConfigDelta::StaticRouteAdd {
        device,
        route: StaticRoute::to_interface(victim_prefix, s.fat_tree.edge[0][0]),
    };
    session.apply_delta(&add).unwrap();
    // Also give the edge switch a route pointing back up: a 2-node loop.
    let back = ConfigDelta::StaticRouteAdd {
        device: s.fat_tree.edge[0][0],
        route: StaticRoute::to_interface(victim_prefix, device),
    };
    session.apply_delta(&back).unwrap();

    let (broken, run) = session.verify(&policy, 5, &scenario, &options);
    assert!(!broken.holds(), "the injected loop must be found");
    let scratch =
        Plankton::new(session.snapshot().network().clone()).verify(&policy, &scenario, &options);
    assert_eq!(broken.normalized_json(), scratch.normalized_json());
    assert!(run.tasks_cached > 0, "unrelated PECs stay cached");

    // Roll both routes back: the original (clean) cache entries hit again.
    session
        .apply_delta(&ConfigDelta::StaticRouteRemove {
            device,
            prefix: victim_prefix,
        })
        .unwrap();
    session
        .apply_delta(&ConfigDelta::StaticRouteRemove {
            device: s.fat_tree.edge[0][0],
            prefix: victim_prefix,
        })
        .unwrap();
    let (restored, run) = session.verify(&policy, 5, &scenario, &options);
    assert!(restored.holds());
    assert_eq!(run.tasks_rerun, 0, "rollback restores every key: {run:?}");
    assert_eq!(restored.normalized_json(), clean.normalized_json());
}

/// A policy quantified over no sources (or no waypoints) would hold
/// vacuously; `Verify` refuses it as a bad request instead of answering
/// `holds: true`.
#[test]
fn verify_refuses_empty_source_and_waypoint_lists() {
    use plankton::service::{handle_line, Response, ServiceSession};
    let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
    let edge = s.network.topology.node(s.fat_tree.edge[0][0]).name.clone();
    let session = ServiceSession::with_network(s.network.clone());
    for policy in [
        r#"{"Reachability": {"sources": []}}"#.to_string(),
        r#"{"BoundedPathLength": {"sources": [], "max_hops": 4}}"#.to_string(),
        format!(r#"{{"Waypoint": {{"sources": [], "waypoints": ["{edge}"]}}}}"#),
        format!(r#"{{"Waypoint": {{"sources": ["{edge}"], "waypoints": []}}}}"#),
    ] {
        let line = format!(r#"{{"Verify": {{"policy": {policy}}}}}"#);
        let (reply, _) = handle_line(&session, &line);
        match serde_json::from_str::<Response>(&reply).unwrap() {
            Response::Error { kind, message, .. } => {
                assert_eq!(kind, "request", "{line}");
                assert!(message.contains("at least one"), "{message}");
            }
            other => panic!("{line} answered {other:?}"),
        }
    }
    assert_eq!(session.stats().verifies, 0);
}

/// Seeded random-delta soak: drive one incremental session through a random
/// delta sequence and cross-check the scoped OSPF keys against the
/// global-slice oracle at every step.
///
/// Two directions are asserted:
/// * **Precision is monotone** — any (PEC × failure-set) key the global
///   oracle leaves clean is also clean under scoping (scoping only ever
///   removes inputs a task cannot read).
/// * **Extra cleanliness is sound** — where a scoped key stays clean while
///   the oracle would re-run (the savings this PR exists for), the merged
///   incremental report must still be byte-identical to a from-scratch
///   verification of the post-delta network, exact `SearchStats` included.
///   A scoped key that wrongly survived a delta would surface here as a
///   divergent merge.
///
/// The soak also asserts it actually exercised the interesting case (scoped
/// clean ∧ oracle dirty) — otherwise it would vacuously pass.
#[test]
fn seeded_random_delta_soak_cross_checks_scoped_keys_against_the_global_oracle() {
    use plankton::net::failure::FailureSet;
    use plankton::pec::{compute_pecs, OspfSliceMode, PecDependencies, PecId, TaskKeys};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
    let policy = LoopFreedom::everywhere();
    let scenario = FailureScenario::no_failures();
    let options = PlanktonOptions::default().collect_all_violations();

    let keys_of = |network: &Network, mode: OspfSliceMode| {
        let pecs = compute_pecs(network);
        let deps = PecDependencies::compute(network, &pecs);
        let failures = vec![network.down_links.iter().copied().collect::<FailureSet>()];
        let keys = TaskKeys::compute(network, &pecs, &deps, &failures, 7, 9, mode, |_| 0);
        (pecs.len(), keys)
    };
    let random_delta = |rng: &mut StdRng, network: &Network| -> ConfigDelta {
        let device = NodeId(rng.gen_range(0..network.node_count() as u32));
        let link_count = network.topology.link_count() as u32;
        match rng.gen_range(0..5u8) {
            0 => {
                let neighbors = network.topology.neighbors(device);
                let (_, link) = neighbors[rng.gen_range(0..neighbors.len())];
                ConfigDelta::OspfCostChange {
                    device,
                    link,
                    cost: rng.gen_range(20..60),
                }
            }
            1 => ConfigDelta::LinkDown {
                link: LinkId(rng.gen_range(0..link_count)),
            },
            2 => ConfigDelta::LinkUp {
                link: LinkId(rng.gen_range(0..link_count)),
            },
            3 => ConfigDelta::StaticRouteAdd {
                device,
                route: StaticRoute::null(s.destinations[rng.gen_range(0..s.destinations.len())]),
            },
            _ => ConfigDelta::StaticRouteRemove {
                device,
                prefix: s.destinations[rng.gen_range(0..s.destinations.len())],
            },
        }
    };

    let mut scoped_savings = 0usize;
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(5000 + seed);
        let session = IncrementalVerifier::new(s.network.clone());
        session.verify(&policy, 7, &scenario, &options);
        for step in 0..4 {
            let pre = session.snapshot().network().clone();
            let delta = random_delta(&mut rng, &pre);
            if session.apply_delta(&delta).is_err() {
                continue; // NoOp (e.g. raising an up link): nothing to check
            }
            let post = session.snapshot().network().clone();

            let (n_pre, scoped_pre) = keys_of(&pre, OspfSliceMode::Scoped);
            let (n_post, scoped_post) = keys_of(&post, OspfSliceMode::Scoped);
            let (_, global_pre) = keys_of(&pre, OspfSliceMode::Global);
            let (_, global_post) = keys_of(&post, OspfSliceMode::Global);
            assert_eq!(n_pre, n_post, "seed {seed} step {step}: partition stable");
            for p in 0..n_pre {
                let pec = PecId(p as u32);
                let global_clean = global_pre.key(pec, 0) == global_post.key(pec, 0);
                let scoped_clean = scoped_pre.key(pec, 0) == scoped_post.key(pec, 0);
                assert!(
                    !global_clean || scoped_clean,
                    "seed {seed} step {step} {pec}: scoped key dirtied where the oracle is clean \
                     (delta {})",
                    delta.kind()
                );
                scoped_savings += (scoped_clean && !global_clean) as usize;
            }

            let (incremental, _) = session.verify(&policy, 7, &scenario, &options);
            let scratch = Plankton::new(post).verify(&policy, &scenario, &options);
            assert_eq!(
                incremental.normalized_json(),
                scratch.normalized_json(),
                "seed {seed} step {step}: merged report diverged after {}",
                delta.kind()
            );
        }
    }
    assert!(
        scoped_savings > 0,
        "the soak never exercised a scoped-clean/oracle-dirty key — it proves nothing"
    );
}

#[test]
fn planktond_exits_nonzero_when_any_request_fails_to_parse() {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_planktond"))
        .args(["--scenario", "ring:4"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn planktond");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"this is not json\n\"Stats\"\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        !out.status.success(),
        "a parse failure must surface in the exit code"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("bad request"), "error reply served: {text}");
    assert!(
        text.contains("\"parse_errors\":1"),
        "the loop keeps serving and counts the bad line: {text}"
    );
}

#[test]
fn planktond_exits_zero_on_a_clean_stream() {
    use std::io::Write;
    use std::process::{Command, Stdio};
    for input in ["\"Stats\"\n\"Shutdown\"\n", "\"Stats\"\n"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_planktond"))
            .args(["--scenario", "ring:4"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn planktond");
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "clean stream (shutdown or EOF) must exit 0"
        );
    }
}

#[test]
fn ibgp_over_ospf_deltas_match_from_scratch() {
    let s = isp_ibgp_over_ospf(&AsTopologySpec::paper_as(3967));
    let sources: Vec<NodeId> = s
        .as_topology
        .backbone
        .iter()
        .filter(|n| !s.borders.contains(n))
        .take(2)
        .copied()
        .collect();
    let policy = Reachability::new(sources);
    let scenario = FailureScenario::no_failures();
    let options = default_options().restricted_to(s.bgp_destinations.clone());

    // A BGP policy edit on a border router.
    let border = s.borders[0];
    let peer = s
        .network
        .device(border)
        .bgp
        .as_ref()
        .unwrap()
        .neighbors
        .first()
        .unwrap()
        .peer;
    assert_delta_incremental(
        "ibgp policy edit",
        &s.network,
        ConfigDelta::BgpPolicyEdit {
            device: border,
            peer,
            import: Some(RouteMap::permit_all()),
            export: None,
        },
        &policy,
        &scenario,
        options.clone(),
    );

    // An OSPF cost change in the underlay must propagate through the
    // dependency graph and re-verify the dependent BGP PECs too.
    let device = s.as_topology.backbone[0];
    let link = s.network.topology.neighbors(device)[0].1;
    assert_delta_incremental(
        "ibgp underlay cost change",
        &s.network,
        ConfigDelta::OspfCostChange {
            device,
            link,
            cost: 321,
        },
        &policy,
        &scenario,
        options,
    );
}

/// The deterministic fields of a wire report summary — everything except
/// wall clock and cache accounting (how much was served from cache depends
/// on request interleaving; what was computed must not).
fn semantic_key(r: &plankton::service::ReportSummary) -> (bool, usize, usize, usize, u64, u64) {
    (
        r.holds,
        r.violations,
        r.pecs_verified,
        r.failure_sets_explored,
        r.data_planes_checked,
        r.states_explored,
    )
}

/// Concurrent-client soak against one daemon: N reader threads issue
/// interleaved `Verify`/`Query`/`Stats` over their own socket connections
/// while a writer connection toggles a static-route delta on and off.
/// Every report any reader receives must semantically equal the fresh
/// single-threaded verification of one of the two network states (the
/// byte-level identity of full merged reports under this exact race is
/// asserted by `concurrent_verifies_race_deltas_without_torn_snapshots` in
/// plankton-core, where full reports are reachable).
#[cfg(unix)]
#[test]
fn concurrent_client_soak_matches_single_threaded_oracles() {
    use plankton::service::{
        connect_with_retry, PolicySpec, Request, Response, ServeOptions, ServiceSession,
    };
    use std::io::{BufRead, BufReader, Write};
    use std::time::Duration;

    let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
    let verify = Request::Verify {
        policy: PolicySpec::LoopFreedom,
        options: None,
    };
    let add = ConfigDelta::StaticRouteAdd {
        device: s.fat_tree.core[0],
        route: StaticRoute::null(s.destinations[0]),
    };
    let remove = ConfigDelta::StaticRouteRemove {
        device: s.fat_tree.core[0],
        prefix: s.destinations[0],
    };

    // Oracles: fresh single-threaded sessions, one per network state.
    let oracle_of = |network: &Network| {
        let session = ServiceSession::with_network(network.clone());
        let Response::Report(report) = session.handle(&verify) else {
            panic!("oracle verify failed");
        };
        semantic_key(&report)
    };
    let base_oracle = oracle_of(&s.network);
    let mut edited = s.network.clone();
    add.apply(&mut edited).unwrap();
    let edited_oracle = oracle_of(&edited);

    let dir = std::env::temp_dir().join(format!("plankton-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("planktond.sock");
    let session = ServiceSession::with_network(s.network.clone()).with_options(ServeOptions {
        workers: 8,
        ..ServeOptions::default()
    });
    let timeout = Duration::from_secs(30);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| plankton::service::serve_unix(&session, &path).unwrap());
        let readers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    let stream = connect_with_retry(&path, timeout).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut reports = Vec::new();
                    for round in 0..4 {
                        let request = if round % 2 == 0 {
                            verify.to_line()
                        } else {
                            "\"Stats\"".to_string()
                        };
                        writer.write_all(format!("{request}\n").as_bytes()).unwrap();
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        match serde_json::from_str::<Response>(&line).unwrap() {
                            Response::Report(summary) => reports.push(semantic_key(&summary)),
                            Response::Stats(_) => {}
                            other => panic!("unexpected response {other:?}"),
                        }
                    }
                    reports
                })
            })
            .collect();
        let writer_thread = scope.spawn(|| {
            let stream = connect_with_retry(&path, timeout).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for i in 0..6 {
                let delta = if i % 2 == 0 { &add } else { &remove };
                let request = Request::ApplyDelta {
                    delta: delta.clone(),
                };
                writer
                    .write_all(format!("{}\n", request.to_line()).as_bytes())
                    .unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(
                    matches!(
                        serde_json::from_str::<Response>(&line).unwrap(),
                        Response::DeltaApplied(_)
                    ),
                    "delta rejected: {line}"
                );
            }
        });
        writer_thread.join().unwrap();
        for reader in readers {
            for key in reader.join().unwrap() {
                assert!(
                    key == base_oracle || key == edited_oracle,
                    "a concurrent report matched neither network state: {key:?}"
                );
            }
        }
        // Shut the daemon down and verify the drain completes.
        let stream = connect_with_retry(&path, timeout).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(b"\"Shutdown\"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        server.join().unwrap();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill-and-restart: a daemon with `--cache-dir` persists its result cache
/// at shutdown, and the restarted daemon serves a delta-free re-verify
/// entirely from the warm cache — `tasks_cached` equals the task count,
/// zero tasks re-run, and the report's semantic fields match the cold run.
#[test]
fn daemon_restart_with_cache_dir_serves_reverify_from_warm_cache() {
    use plankton::service::Response;
    use std::io::Write;
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("plankton-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run_daemon = |input: &str| -> Vec<Response> {
        let mut child = Command::new(env!("CARGO_BIN_EXE_planktond"))
            .args([
                "--scenario",
                "fat-tree:4",
                "--cache-dir",
                dir.to_str().unwrap(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn planktond");
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "daemon exited non-zero");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(|l| serde_json::from_str(l).expect("response parses"))
            .collect()
    };

    let verify_line = r#"{"Verify": {"policy": "LoopFreedom", "options": {"max_failures": 1}}}"#;
    let cold = run_daemon(&format!("{verify_line}\n\"Shutdown\"\n"));
    let Response::Report(cold_report) = &cold[0] else {
        panic!("expected report, got {:?}", cold[0]);
    };
    assert!(cold_report.run.tasks_rerun > 0, "cold run does fresh work");
    assert!(
        dir.join("cache.json").exists(),
        "shutdown persisted the cache"
    );

    // The restarted process is a genuinely new daemon: only the cache file
    // connects it to the first run.
    let warm = run_daemon(&format!("{verify_line}\n\"Stats\"\n\"Shutdown\"\n"));
    let Response::Report(warm_report) = &warm[0] else {
        panic!("expected report, got {:?}", warm[0]);
    };
    assert_eq!(warm_report.run.tasks_rerun, 0, "{:?}", warm_report.run);
    assert!(warm_report.run.tasks_cached > 0);
    assert_eq!(
        warm_report.run.tasks_cached, warm_report.run.tasks_total,
        "a delta-free re-verify is served fully from the cache"
    );
    assert_eq!(semantic_key(warm_report), semantic_key(cold_report));
    let Response::Stats(stats) = &warm[1] else {
        panic!("expected stats, got {:?}", warm[1]);
    };
    assert!(stats.cache_entries > 0, "warm-started entries resident");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `planktonctl --pipeline` drives a multi-request batch against a freshly
/// spawned daemon: the connect retry absorbs the bind race and the client
/// gets one response line per request, in order.
#[cfg(unix)]
#[test]
fn planktonctl_pipelines_a_batch_against_a_starting_daemon() {
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("plankton-ctl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("planktond.sock");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_planktond"))
        .args(["--scenario", "ring:4", "--socket", sock.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn planktond");
    // No wait loop here: planktonctl's own retry must absorb the race.
    let out = Command::new(env!("CARGO_BIN_EXE_planktonctl"))
        .args([
            "--socket",
            sock.to_str().unwrap(),
            "--timeout",
            "30",
            "--pipeline",
            r#"{"Verify": {"policy": "LoopFreedom"}}"#,
            r#"{"ApplyDelta": {"delta": {"LinkDown": {"link": 0}}}}"#,
            r#"{"Verify": {"policy": "LoopFreedom"}}"#,
            "\"Stats\"",
            "\"Shutdown\"",
        ])
        .output()
        .expect("run planktonctl");
    assert!(out.status.success(), "planktonctl failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let responses: Vec<&str> = stdout.lines().collect();
    assert_eq!(responses.len(), 5, "one response per request: {stdout}");
    assert!(responses[0].contains("\"Report\""));
    assert!(responses[1].contains("\"DeltaApplied\""));
    assert!(responses[2].contains("\"Report\""));
    assert!(responses[3].contains("\"Stats\""));
    assert!(responses[4].contains("\"Ok\""));
    assert!(daemon.wait().unwrap().success(), "daemon shut down cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}
