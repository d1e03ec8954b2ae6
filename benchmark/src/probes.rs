//! The layer-probe pass of a traced run: the inputs the workload generated
//! are replayed, in-process, through each layer's public functions, one span
//! per call. Nothing here touches crate internals; a layer without a public
//! entry point is listed in the README instead.

use crate::proc::Env;
use crate::trace::{SpanId, Tracer, NO_PARENT};
use crate::workloads::{Measured, Metrics, ProbeInputs, Question};
use plankton::checker::{BgpPor, ModelChecker, OspfPor, PorHeuristic, SearchOptions, Verdict};
use plankton::config::{ConfigDelta, Network};
use plankton::core::failures::failure_sets_to_explore;
use plankton::core::session::PecSession;
use plankton::core::underlay::DependencyUnderlay;
use plankton::core::{
    IncrementalVerifier, Plankton, PlanktonOptions, PolicyOutcome, ResultCache, VerificationReport,
};
use plankton::dataplane::fib::{FibEntry, NetworkFib, RouteSource};
use plankton::dataplane::forwarding::ForwardingGraph;
use plankton::engine::{Engine, TaskGraph};
use plankton::net::failure::{FailureScenario, FailureSet};
use plankton::net::topology::NodeId;
use plankton::pec::{compute_pecs, OriginProtocol, OspfSliceMode, Pec, PecDependencies, TaskKeys};
use plankton::policy::{ConvergedView, LoopFreedom, Policy, Waypoint};
use plankton::protocols::{
    BgpModel, OspfModel, ProtocolModel, Route, RouteInterner, Rpvp, UniformUnderlay,
};
use plankton::service::{
    coalesce_batch, handle_line, DeltaQueue, PolicySpec, Request, Response, ServiceSession,
    VerifyOptions,
};
use plankton_telemetry::{trace as ttrace, Field, FlightRecorder, Level};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The spans of one probe pass hang under one root per layer call tree.
struct Probe<'t> {
    tracer: &'t mut Tracer,
    root: SpanId,
    next_request: u64,
    metrics: Metrics,
}

impl Probe<'_> {
    /// Call `f` `reps` times, one span each; returns each call's microseconds.
    fn time<T>(&mut self, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
        self.next_request += 1;
        let request = self.next_request;
        (0..reps)
            .map(|_| {
                let span = self.tracer.begin(name, self.root, request);
                let start = Instant::now();
                black_box(f());
                let us = start.elapsed().as_secs_f64() * 1e6;
                self.tracer.end(span);
                us
            })
            .collect()
    }

    /// Median microseconds of `reps` calls, stored under `metric`.
    fn median_us<T>(
        &mut self,
        metric: &'static str,
        span: &'static str,
        reps: usize,
        f: impl FnMut() -> T,
    ) -> f64 {
        let m = Measured::median_of(self.time(span, reps, f));
        self.metrics.insert(metric, m);
        m.value
    }

    fn set(&mut self, metric: &'static str, value: f64, n: usize) {
        self.metrics.insert(
            metric,
            Measured {
                n,
                ..Measured::single(value)
            },
        );
    }
}

/// The workload's question as a policy object, failure scenario and options
/// — what the CLI or the daemon builds from the same flags.
struct Asked {
    policy: Box<dyn Policy>,
    spec: PolicySpec,
    scenario: FailureScenario,
    options: PlanktonOptions,
    verify_options: VerifyOptions,
}

fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    args.windows(2)
        .filter(|w| w[0] == flag)
        .map(|w| w[1].as_str())
        .collect()
}

fn asked(network: &Network, question: &Question) -> Result<Asked, String> {
    match question {
        Question::LoopFreedom { max_failures } => Ok(Asked {
            policy: Box::new(LoopFreedom::everywhere()),
            spec: PolicySpec::LoopFreedom,
            scenario: FailureScenario::up_to(*max_failures),
            // The CLI stops at the first violation, the daemon collects all;
            // on a network where the policy holds the work is the same.
            options: PlanktonOptions::default().collect_all_violations(),
            verify_options: VerifyOptions {
                max_failures: *max_failures,
                ..Default::default()
            },
        }),
        Question::Waypoint { case } => {
            let resolve = |names: Vec<&str>| -> Result<Vec<NodeId>, String> {
                names
                    .into_iter()
                    .map(|n| {
                        network
                            .topology
                            .node_by_name(n)
                            .ok_or_else(|| format!("unknown device {n:?}"))
                    })
                    .collect()
            };
            let sources = flag_values(&case.args, "--source");
            let waypoints = flag_values(&case.args, "--waypoint");
            let prefixes: Vec<plankton::net::ip::Prefix> = flag_values(&case.args, "--prefix")
                .into_iter()
                .map(|p| p.parse().map_err(|e| format!("bad prefix {p:?}: {e}")))
                .collect::<Result<_, _>>()?;
            let mut options = PlanktonOptions::default().collect_all_violations();
            if !prefixes.is_empty() {
                options = options.restricted_to(prefixes.clone());
            }
            Ok(Asked {
                policy: Box::new(Waypoint::new(
                    resolve(sources.clone())?,
                    resolve(waypoints.clone())?,
                )),
                spec: PolicySpec::Waypoint {
                    sources: sources.iter().map(|s| s.to_string()).collect(),
                    waypoints: waypoints.iter().map(|s| s.to_string()).collect(),
                },
                scenario: FailureScenario::no_failures(),
                options,
                verify_options: VerifyOptions {
                    restrict_prefixes: prefixes,
                    ..Default::default()
                },
            })
        }
    }
}

/// The active PEC in the middle of the id order that runs a protocol.
fn median_protocol_pec(plankton: &Plankton) -> Option<&Pec> {
    let candidates: Vec<&Pec> = plankton
        .pecs()
        .active_pecs()
        .into_iter()
        .filter(|p| {
            p.most_specific().is_some_and(|c| {
                c.originated_into(OriginProtocol::Ospf) || c.originated_into(OriginProtocol::Bgp)
            })
        })
        .collect();
    candidates.get(candidates.len() / 2).copied()
}

/// The protocol model of a PEC's most specific prefix, with no link failed.
enum Model {
    Ospf(OspfModel),
    Bgp(BgpModel),
}

impl Model {
    fn of(network: &Network, pec: &Pec) -> Model {
        let cfg = pec.most_specific().expect("a protocol PEC has a prefix");
        let origins = |protocol| -> Vec<NodeId> {
            cfg.origins
                .iter()
                .filter(|(_, p)| *p == protocol)
                .map(|(n, _)| *n)
                .collect()
        };
        let bgp = origins(OriginProtocol::Bgp);
        if bgp.is_empty() {
            Model::Ospf(OspfModel::new(
                network,
                cfg.prefix,
                origins(OriginProtocol::Ospf),
                &FailureSet::none(),
            ))
        } else {
            Model::Bgp(BgpModel::new(
                network,
                cfg.prefix,
                bgp,
                &FailureSet::none(),
                Arc::new(UniformUnderlay),
            ))
        }
    }

    fn as_dyn(&self) -> &dyn ProtocolModel {
        match self {
            Model::Ospf(m) => m,
            Model::Bgp(m) => m,
        }
    }

    /// The partial-order reduction the verifier pairs with this protocol.
    fn por(&self) -> Box<dyn PorHeuristic + '_> {
        match self {
            Model::Ospf(_) => Box::new(OspfPor),
            Model::Bgp(m) => Box::new(BgpPor::from_model(m)),
        }
    }
}

pub fn run(inputs: &ProbeInputs, env: &Env, tracer: &mut Tracer) -> Result<Metrics, String> {
    let root = tracer.begin("probe.pass", NO_PARENT, 0);
    let mut p = Probe {
        tracer,
        root,
        next_request: 10_000_000,
        metrics: Metrics::new(),
    };
    let network = &inputs.network;
    let json = &inputs.network_json;
    let mb = json.len() as f64 / 1e6;

    // --- net / config / serde_json: what set-up pays -----------------------
    let gen_us = p.time("net.generate", 3, || (inputs.generate)());
    p.metrics.insert(
        "net.generate_ms",
        Measured::median_of(gen_us.iter().map(|us| us / 1e3).collect()),
    );
    let parse_us = p.median_us("config.parse_us", "config.parse", 3, || {
        Network::from_json(json).expect("the generated network parses")
    });
    p.set("config.parse_mb_per_s", mb / (parse_us / 1e6), 3);
    let value: serde::Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let value_parse_us = p.time("serde_json.parse", 3, || {
        serde_json::from_str::<serde::Value>(json).expect("valid JSON")
    });
    p.set(
        "serde_json.parse_mb_per_s",
        mb / (Measured::median_of(value_parse_us).value / 1e6),
        3,
    );
    let value_write_us = p.time("serde_json.write", 3, || {
        serde_json::to_string(&value).expect("values serialize")
    });
    p.set(
        "serde_json.write_mb_per_s",
        mb / (Measured::median_of(value_write_us).value / 1e6),
        3,
    );

    // --- pec / core build ---------------------------------------------------
    p.median_us("pec.compute_us", "pec.compute", 5, || compute_pecs(network));
    let pecs = compute_pecs(network);
    p.median_us("pec.deps_us", "pec.deps", 5, || {
        PecDependencies::compute(network, &pecs)
    });
    let mut clones: Vec<Network> = (0..3).map(|_| network.clone()).collect();
    p.median_us("core.build_us", "core.build", 3, || {
        Plankton::new(clones.pop().expect("one clone per call"))
    });
    let plankton = Plankton::new(network.clone());

    // --- config deltas: apply alone, then through the incremental core ------
    let deltas: &[ConfigDelta] = &inputs.deltas;
    {
        let mut scratch = network.clone();
        let mut it = deltas.iter();
        let apply_us = p.time("config.delta_apply", deltas.len(), || {
            it.next()
                .expect("one delta per call")
                .apply(&mut scratch)
                .is_ok()
        });
        p.metrics
            .insert("config.delta_apply_us", Measured::median_of(apply_us));
    }

    // --- the workload's own question, in-process, at 1 and 2 workers --------
    let asked = asked(network, &inputs.question)?;
    let verify = |cores: usize| -> VerificationReport {
        let mut options = asked.options.clone();
        options.parallelism = cores;
        plankton.verify(asked.policy.as_ref(), &asked.scenario, &options)
    };
    let one = {
        let span = p.tracer.begin("core.verify_1core", root, 1);
        let r = verify(1);
        p.tracer.end(span);
        r
    };
    let two = {
        let span = p.tracer.begin("core.verify_2core", root, 2);
        let r = verify(2);
        p.tracer.end(span);
        r
    };
    if one.normalized_json() != two.normalized_json() {
        return Err("probe: 1-worker and 2-worker reports differ".to_string());
    }
    let s = &one.stats;
    let explore_s = one.phases.exploration_micros as f64 / 1e6;
    p.set("checker.steps", s.steps as f64, 1);
    p.set(
        "checker.steps_per_s",
        s.steps as f64 / explore_s.max(1e-9),
        1,
    );
    p.set(
        "checker.enabled_recomputed_per_step",
        s.enabled_recomputed_nodes as f64 / (s.steps.max(1)) as f64,
        s.steps as usize,
    );
    p.set("checker.branch_points", s.branch_points as f64, 1);
    p.set("checker.pruned_visited", s.pruned_visited as f64, 1);
    p.set("checker.visited_states", s.visited_states as f64, 1);
    p.set("checker.interned_routes", s.interned_routes as f64, 1);
    p.set("checker.undo_depth_max", s.undo_depth_max as f64, 1);
    p.set(
        "checker.approx_memory_bytes",
        s.approx_memory_bytes as f64,
        1,
    );
    p.set(
        "core.data_planes_checked",
        one.data_planes_checked as f64,
        1,
    );
    p.set("core.verify_1core_ms", one.elapsed.as_secs_f64() * 1e3, 1);
    p.set("core.verify_2core_ms", two.elapsed.as_secs_f64() * 1e3, 1);
    // Base: the 1-worker in-process verify (core.verify_1core_ms).
    p.set(
        "engine.speedup_2core",
        one.elapsed.as_secs_f64() / two.elapsed.as_secs_f64().max(1e-9),
        1,
    );
    if let Some(e) = &two.engine {
        p.set("engine.tasks_executed", e.tasks_executed as f64, 1);
        p.set("engine.tasks_stolen", e.tasks_stolen as f64, 1);
        p.set(
            "engine.busy_share",
            e.utilization(),
            e.tasks_executed as usize,
        );
        p.set("engine.queue_depth_max", e.queue_depth_max as f64, 1);
    }
    // The probes' phase view; a daemon workload overrides these with the
    // medians of the phase timings its reports carried over the wire.
    p.set(
        "core.phase_key_compute_us",
        one.phases.key_compute_micros as f64,
        1,
    );
    p.set(
        "core.phase_exploration_us",
        one.phases.exploration_micros as f64,
        1,
    );
    p.set("core.phase_merge_us", one.phases.merge_micros as f64, 1);
    p.set("core.phase_invalidation_us", 0.0, 1);
    p.set("core.phase_cache_io_us", 0.0, 1);
    p.set(
        "core.tasks_rerun",
        one.engine.as_ref().map_or(0, |e| e.tasks_executed) as f64,
        1,
    );
    p.set("core.tasks_cached", 0.0, 1);

    let noop_tasks = 20_000;
    let graph = TaskGraph::new(noop_tasks);
    let noop_us = p.time("engine.noop_run", 3, || {
        Engine::new(1).run(&graph, |_, _| {})
    });
    p.set(
        "engine.noop_task_ns",
        Measured::median_of(noop_us).value * 1e3 / noop_tasks as f64,
        noop_tasks,
    );

    // --- task keys and the result cache -------------------------------------
    let interesting = asked.policy.interesting_nodes().unwrap_or_default();
    let lec = asked.options.lec_failure_pruning && plankton.dependencies().graph.edge_count() == 0;
    let failure_sets = failure_sets_to_explore(network, &asked.scenario, &interesting, lec);
    let tasks = plankton.pecs().active_pecs().len() * failure_sets.len();
    let keys_us = p.median_us("pec.task_keys_us", "pec.task_keys", 3, || {
        TaskKeys::compute(
            network,
            plankton.pecs(),
            plankton.dependencies(),
            &failure_sets,
            asked.spec.fingerprint(),
            asked.options.cache_fingerprint(),
            OspfSliceMode::Scoped,
            |_| 2,
        )
    });
    p.set(
        "pec.task_keys_us_per_task",
        keys_us / tasks.max(1) as f64,
        tasks,
    );

    let cache_ops = 20_000u64;
    let outcome = Arc::new(PolicyOutcome::default());
    let cache = ResultCache::new();
    let insert_us = p.time("core.cache_insert", 1, || {
        for key in 0..cache_ops {
            cache.insert(key.wrapping_mul(0x9e37_79b9_7f4a_7c15), outcome.clone());
        }
    });
    p.set(
        "core.cache_insert_ns",
        insert_us[0] * 1e3 / cache_ops as f64,
        cache_ops as usize,
    );
    let get_us = p.time("core.cache_get", 1, || {
        let mut hits = 0u64;
        for key in 0..cache_ops {
            hits += cache.get(key.wrapping_mul(0x9e37_79b9_7f4a_7c15)).is_some() as u64;
        }
        hits
    });
    p.set(
        "core.cache_get_ns",
        get_us[0] * 1e3 / cache_ops as f64,
        cache_ops as usize,
    );

    // --- the incremental core: a filled cache, deltas, persistence ----------
    let incremental = IncrementalVerifier::new(network.clone());
    let span = p.tracer.begin("core.incremental_cold_verify", root, 3);
    let (_, cold_run) = incremental.verify(
        asked.policy.as_ref(),
        asked.spec.fingerprint(),
        &asked.scenario,
        &asked.options,
    );
    p.tracer.end(span);
    let span = p.tracer.begin("core.incremental_warm_verify", root, 3);
    let (_, warm_run) = incremental.verify(
        asked.policy.as_ref(),
        asked.spec.fingerprint(),
        &asked.scenario,
        &asked.options,
    );
    p.tracer.end(span);
    if warm_run.tasks_rerun != 0 || cold_run.tasks_cached != 0 {
        return Err(format!(
            "probe: cold run cached {} tasks, warm run re-ran {}",
            cold_run.tasks_cached, warm_run.tasks_rerun
        ));
    }
    p.set(
        "core.cache_hit_ratio",
        incremental.cache().hits() as f64
            / (incremental.cache().hits() + incremental.cache().misses()).max(1) as f64,
        (incremental.cache().hits() + incremental.cache().misses()) as usize,
    );
    let cache_file = env.tmp.join("probe_cache.json");
    let save_us = p.time("core.cache_save", 3, || {
        incremental
            .cache()
            .save_to(&cache_file)
            .expect("cache saves")
    });
    p.metrics.insert(
        "core.cache_save_ms",
        Measured::median_of(save_us.iter().map(|us| us / 1e3).collect()),
    );
    let load_us = p.time("core.cache_load", 3, || {
        ResultCache::new()
            .load_from(&cache_file)
            .expect("cache loads")
    });
    p.metrics.insert(
        "core.cache_load_ms",
        Measured::median_of(load_us.iter().map(|us| us / 1e3).collect()),
    );
    {
        let single = deltas.len().min(8);
        let mut it = deltas[..single].iter();
        let us = p.time("core.apply_delta", single, || {
            incremental
                .apply_delta(it.next().expect("one delta per call"))
                .is_ok()
        });
        p.metrics
            .insert("core.apply_delta_us", Measured::median_of(us));
        let rest = &deltas[single..];
        let us = p.time("core.apply_batch", 1, || {
            incremental.apply_deltas(rest).applied
        });
        p.set("core.apply_batch_us", us[0], rest.len());
    }

    // --- checker / protocols / dataplane / policy on the median PEC ---------
    if let Some(pec) = median_protocol_pec(&plankton) {
        let concrete = Model::of(network, pec);
        let model = concrete.as_dyn();
        // The search the verifier would run on this PEC: its options plus
        // the policy's sources (without them policy-based pruning is off and
        // a BGP PEC's orderings explode), with a step cap as a safety net.
        let search = SearchOptions {
            source_nodes: asked.policy.sources(),
            max_steps: 5_000_000,
            ..asked.options.search.clone()
        };
        let run_us = p.time("checker.single_pec_run", 3, || {
            ModelChecker::new(model, concrete.por(), search.clone(), FailureSet::none())
                .run(&mut |_, _| Verdict::Continue)
        });
        p.metrics
            .insert("checker.single_pec_run_us", Measured::median_of(run_us));

        // A seeded random walk of RPVP steps from the initial state.
        let rpvp = Rpvp::new(model);
        let mut interner = RouteInterner::new();
        let mut state = rpvp.initial_state(&mut interner);
        let mut rng = crate::gen::Rng::new(0x7a1c);
        let (mut steps, mut enabled_calls) = (0u64, 0u64);
        let mut enabled_s = 0.0f64;
        let mut walked: Vec<Route> = Vec::new();
        let walk_span = p.tracer.begin("protocols.rpvp_walk", root, 4);
        let walk_start = Instant::now();
        while steps < 3_000 {
            let t = Instant::now();
            let enabled = rpvp.enabled(&state, &mut interner);
            enabled_s += t.elapsed().as_secs_f64();
            enabled_calls += 1;
            if enabled.is_empty() {
                state = rpvp.initial_state(&mut interner);
                continue;
            }
            let choice = &enabled[rng.below(enabled.len())];
            let updates = choice.best_updates.as_slice();
            let adopt = if updates.is_empty() {
                plankton::protocols::RouteHandle::NONE
            } else {
                updates[rng.below(updates.len())].1
            };
            if let Some(route) = interner.resolve(adopt) {
                walked.push(route.clone());
            }
            rpvp.step_adopting(&mut state, &interner, choice.node, adopt);
            steps += 1;
        }
        let walk_s = walk_start.elapsed().as_secs_f64();
        p.tracer.end(walk_span);
        p.set(
            "protocols.rpvp_steps_per_s",
            steps as f64 / walk_s,
            steps as usize,
        );
        p.set(
            "protocols.enabled_us_per_call",
            enabled_s * 1e6 / enabled_calls as f64,
            enabled_calls as usize,
        );
        // Interning the routes the walk adopted, in order, into a fresh table.
        let mut fresh = RouteInterner::new();
        let intern_us = p.time("protocols.intern", 1, || {
            for route in &walked {
                black_box(fresh.intern(route));
            }
        });
        let ops = walked.len().max(1);
        p.set(
            "protocols.intern_ns_per_op",
            intern_us[0] * 1e3 / ops as f64,
            ops,
        );
        p.set(
            "protocols.intern_hit_ratio",
            1.0 - fresh.len() as f64 / ops as f64,
            ops,
        );

        // Data planes of that PEC, then the policy on each.
        let session = PecSession {
            network,
            pec,
            failures: &FailureSet::none(),
            underlay: Arc::new(DependencyUnderlay::new()),
            options: &asked.options,
            policy_sources: asked.policy.sources(),
            has_dependents: false,
            has_dependencies: false,
            scratch: None,
        };
        let (planes, _) = session.data_planes();
        let prefix = pec
            .most_specific()
            .expect("a protocol PEC has a prefix")
            .prefix;
        let fibs: Vec<NetworkFib> = planes
            .iter()
            .map(|plane| {
                let mut fib = NetworkFib::new(network.node_count());
                for (i, hops) in plane.forwarding.next_hops.iter().enumerate() {
                    let node = NodeId(i as u32);
                    if plane.forwarding.delivers[i] {
                        fib.fib_mut(node)
                            .add(FibEntry::local(prefix, RouteSource::Connected));
                    } else if !hops.is_empty() {
                        fib.fib_mut(node).add(FibEntry::via(
                            prefix,
                            hops.clone(),
                            RouteSource::Ospf,
                        ));
                    }
                }
                fib
            })
            .collect();
        let mut it = fibs.iter().cycle();
        let build_us = p.time("dataplane.build", planes.len().max(20), || {
            ForwardingGraph::from_fib(it.next().expect("cycle"), pec.representative())
        });
        p.metrics.insert(
            "dataplane.build_us_per_plane",
            Measured::median_of(build_us),
        );
        let mut it = planes.iter().cycle();
        let check_us = p.time("policy.check", planes.len().max(20), || {
            let plane = it.next().expect("cycle");
            asked
                .policy
                .check(&ConvergedView {
                    pec,
                    forwarding: &plane.forwarding,
                    control_routes: &plane.control_routes,
                })
                .holds()
        });
        p.metrics
            .insert("policy.check_us_per_plane", Measured::median_of(check_us));
    }

    // --- service: parse, handle, serialize, coalesce, queue -----------------
    let verify_line = Request::Verify {
        policy: asked.spec.clone(),
        options: Some(asked.verify_options.clone()),
    }
    .to_line();
    let session = ServiceSession::with_network(network.clone());
    let mut request_lines = inputs.request_lines.clone();
    request_lines.push(verify_line.clone());
    let mut response_lines = inputs.response_lines.clone();
    for (name, line) in [
        ("service.handle_verify_cold", &verify_line),
        ("service.handle_verify_warm", &verify_line),
    ] {
        let span = p.tracer.begin(name, root, 5);
        let (response, _) = handle_line(&session, line);
        p.tracer.end(span);
        response_lines.push(response);
    }
    let stats_us = p.time("service.handle_stats", 20, || {
        handle_line(&session, "\"Stats\"")
    });
    p.metrics
        .insert("service.handle_stats_us", Measured::median_of(stats_us));
    response_lines.push(handle_line(&session, "\"Stats\"").0);
    let mut it = request_lines.iter().cycle();
    let parse_us = p.time("service.parse", request_lines.len() * 5, || {
        serde_json::from_str::<Request>(it.next().expect("cycle")).expect("request lines parse")
    });
    p.metrics
        .insert("service.parse_us", Measured::median_of(parse_us));
    let responses: Vec<Response> = response_lines
        .iter()
        .map(|l| serde_json::from_str(l).map_err(|e| format!("response line does not parse: {e}")))
        .collect::<Result<_, _>>()?;
    let mut it = responses.iter().cycle();
    let ser_us = p.time("service.serialize", responses.len() * 5, || {
        it.next().expect("cycle").to_line()
    });
    p.metrics
        .insert("service.serialize_us", Measured::median_of(ser_us));

    let n_deltas = deltas.len().max(1);
    let coalesce_us = p.time("service.coalesce", 5, || coalesce_batch(deltas.to_vec()));
    p.set(
        "service.coalesce_ns_per_delta",
        Measured::median_of(coalesce_us).value * 1e3 / n_deltas as f64,
        n_deltas,
    );
    let queue = DeltaQueue::new();
    let push_us = p.time("service.queue_push", 1, || {
        for delta in deltas {
            let _ = queue.push(delta.clone(), u64::MAX);
        }
    });
    p.set(
        "service.queue_push_ns",
        push_us[0] * 1e3 / n_deltas as f64,
        n_deltas,
    );

    // --- telemetry: an event with no sink, with the recorder, the registry --
    let events = 100_000u64;
    let emit = |n: u64| {
        for i in 0..n {
            ttrace::event(Level::Info, "probe", &[Field::u64("i", i)]);
        }
    };
    let off_us = p.time("telemetry.event_disabled", 1, || emit(events));
    p.set(
        "telemetry.event_disabled_ns",
        off_us[0] * 1e3 / events as f64,
        events as usize,
    );
    ttrace::add_sink(Level::Trace, Arc::new(FlightRecorder::with_capacity(2048)));
    let on_us = p.time("telemetry.event_recorder", 1, || emit(events));
    ttrace::clear_sinks();
    p.set(
        "telemetry.event_recorder_ns",
        on_us[0] * 1e3 / events as f64,
        events as usize,
    );
    p.median_us(
        "telemetry.metrics_render_us",
        "telemetry.metrics_render",
        5,
        || plankton_telemetry::metrics::global().render(),
    );

    p.tracer.end(root);
    Ok(p.metrics)
}
