//! The daemon workloads: `planktond` driven over its Unix socket.

use super::{
    ms, overhead_share, repeat_setup, tail_note, write_file, Measured, Metrics, ProbeInputs,
    Question, RunConfig, WorkloadOutput,
};
use crate::gen::{self, DeltaOp, OpClass, StormGen};
use crate::proc::{Conn, Daemon, Env, RequestTiming};
use crate::stats::{windowed_rates, OpenLoop};
use crate::trace::{Tracer, NO_PARENT};
use plankton::config::Network;
use plankton::core::{PhaseTimings, Plankton, PlanktonOptions};
use plankton::net::failure::FailureScenario;
use plankton::policy::LoopFreedom;
use plankton::service::{ReportSummary, Request, Response};
use std::time::{Duration, Instant};

/// A re-verify past this is a failed op and misses every latency metric.
const REVERIFY_LIMIT: Duration = Duration::from_secs(5);

/// A daemon that has loaded the base network and answered one cold verify.
struct WarmDaemon {
    daemon: Daemon,
    conn: Conn,
    base: plankton::config::scenarios::FatTreeOspfScenario,
    base_json: String,
    /// The cold verify's report: must equal a from-scratch verify of base.
    cold_report: ReportSummary,
}

fn expect_report(response: Response, what: &str) -> Result<ReportSummary, String> {
    match response {
        Response::Report(summary) => Ok(summary),
        other => Err(format!(
            "{what}: expected a Report, got {}",
            other.to_line()
        )),
    }
}

fn daemon_setup(env: &Env, cfg: &RunConfig, tag: &str) -> Result<WarmDaemon, String> {
    let k = cfg.sizes.daemon_k;
    let base = gen::daemon_base(k);
    let base_json = gen::network_json(&base.network);
    let path = env.tmp.join(format!("daemon_k{k}.json"));
    write_file(&path, &base_json)?;
    let daemon =
        Daemon::spawn(env, &path, tag, 2).map_err(|e| format!("cannot start planktond: {e}"))?;
    let mut conn = daemon
        .connect()
        .map_err(|e| format!("cannot connect to planktond: {e}"))?;
    let io = |e: std::io::Error| format!("daemon request failed: {e}");
    let hello = conn.ask("\"Hello\"").map_err(io)?;
    if !matches!(hello, Response::Welcome { .. }) {
        return Err(format!("Hello: unexpected reply {}", hello.to_line()));
    }
    let cold = conn.ask(&gen::daemon_verify_line()).map_err(io)?;
    Ok(WarmDaemon {
        daemon,
        conn,
        base,
        base_json,
        cold_report: expect_report(cold, "warm-up verify")?,
    })
}

fn discard_daemon(mut warm: WarmDaemon) {
    // A failed graceful stop is not fatal here: Drop kills the process.
    let _ = warm.daemon.shutdown(&mut warm.conn);
}

impl WarmDaemon {
    /// The end of a daemon workload: on a traced run what the daemon says
    /// about itself, then its peak RSS and a graceful stop. Returns the
    /// `peak_rss_mb` metric; an unclean exit is a failed op.
    fn stop(
        &mut self,
        traced: bool,
        per_layer: &mut Metrics,
        failed: &mut u64,
        notes: &mut Vec<String>,
    ) -> Result<Measured, String> {
        if traced {
            daemon_self_report(&mut self.conn, per_layer)?;
        }
        let peak_kb = self.daemon.vm_hwm_kb().unwrap_or(0);
        let clean_exit = self
            .daemon
            .shutdown(&mut self.conn)
            .map_err(|e| format!("shutdown failed: {e}"))?;
        if !clean_exit {
            *failed += 1;
            notes.push("planktond did not exit cleanly".to_string());
        }
        Ok(Measured::single(peak_kb as f64 / 1024.0))
    }

    /// What the probes replay after this workload.
    fn into_probe(
        self,
        cfg: &RunConfig,
        request_lines: Vec<String>,
        response_lines: Vec<String>,
        deltas: Vec<plankton::config::ConfigDelta>,
    ) -> ProbeInputs {
        let k = cfg.sizes.daemon_k;
        ProbeInputs {
            generate: Box::new(move || gen::daemon_base(k).network),
            network: self.base.network,
            network_json: self.base_json,
            question: Question::LoopFreedom { max_failures: 0 },
            request_lines,
            response_lines,
            deltas,
        }
    }
}

/// From-scratch loop-freedom verify of `network` in the harness, summarised
/// the way the wire does; the deterministic fields must match the daemon's.
fn oracle_summary(network: &Network) -> ReportSummary {
    let plankton = Plankton::new(network.clone());
    let report = plankton.verify(
        &LoopFreedom::everywhere(),
        &FailureScenario::up_to(0),
        &PlanktonOptions::default().collect_all_violations(),
    );
    ReportSummary::of(&report, Default::default())
}

/// Compare the fields of a wire report that do not depend on timing or on
/// what was cached.
fn same_verdict(wire: &ReportSummary, oracle: &ReportSummary) -> Result<(), String> {
    let key = |r: &ReportSummary| {
        (
            r.policy.clone(),
            r.holds,
            r.violations,
            r.pecs_verified,
            r.failure_sets_explored,
            r.data_planes_checked,
            r.states_explored,
        )
    };
    if key(wire) == key(oracle) {
        Ok(())
    } else {
        Err(format!(
            "daemon {:?} != from-scratch {:?}",
            key(wire),
            key(oracle)
        ))
    }
}

/// Off the clock, with the network back at base: the daemon's answer now, and
/// its cold answer at set-up, must both equal a from-scratch verify of base.
/// Returns the number of wrong verdicts.
fn check_back_at_base(warm: &mut WarmDaemon, notes: &mut Vec<String>) -> Result<u64, String> {
    let oracle = oracle_summary(&warm.base.network);
    let last = warm
        .conn
        .ask(&gen::daemon_verify_line())
        .map_err(|e| format!("final verify failed: {e}"))?;
    let last = expect_report(last, "final verify")?;
    let mut wrong = 0;
    for (what, report) in [("cold verify", &warm.cold_report), ("final verify", &last)] {
        if let Err(e) = same_verdict(report, &oracle) {
            wrong += 1;
            notes.push(format!("WRONG VERDICT ({what}): {e}"));
        }
    }
    Ok(wrong)
}

/// What the daemon says about itself at the end of a traced run.
fn daemon_self_report(conn: &mut Conn, m: &mut Metrics) -> Result<(), String> {
    let io = |e: std::io::Error| format!("daemon request failed: {e}");
    let stats = conn.ask("\"Stats\"").map_err(io)?;
    let Response::Stats(stats) = stats else {
        return Err(format!("Stats: unexpected reply {}", stats.to_line()));
    };
    let top = conn.ask(&Request::Top { k: 5 }.to_line()).map_err(io)?;
    let Response::Top {
        total_micros,
        tasks_tracked,
        ..
    } = top
    else {
        return Err(format!("Top: unexpected reply {}", top.to_line()));
    };
    m.insert(
        "core.cache_hit_ratio",
        Measured {
            n: (stats.cache_hits + stats.cache_misses) as usize,
            ..Measured::single(stats.cache_hit_rate)
        },
    );
    m.insert(
        "service.coalesced_ratio",
        Measured {
            n: stats.deltas_enqueued as usize,
            ..Measured::single(if stats.deltas_enqueued > 0 {
                stats.deltas_coalesced as f64 / stats.deltas_enqueued as f64
            } else {
                0.0
            })
        },
    );
    m.insert(
        "service.drain_batches",
        Measured::single(stats.delta_batches as f64),
    );
    m.insert(
        "service.max_batch",
        Measured::single(stats.max_batch as f64),
    );
    m.insert(
        "service.lag_p50_ms",
        Measured::single(stats.verify_lag_p50_ms),
    );
    m.insert(
        "service.lag_p99_ms",
        Measured::single(stats.verify_lag_p99_ms),
    );
    m.insert("service.shed", Measured::single(stats.deltas_shed as f64));
    m.insert(
        "core.task_us_total",
        Measured {
            n: tasks_tracked as usize,
            ..Measured::single(total_micros as f64)
        },
    );
    Ok(())
}

/// Server-side phase medians over the reports of one traced run.
fn phase_metrics(phases: &[PhaseTimings], m: &mut Metrics) {
    let col = |f: fn(&PhaseTimings) -> u64| {
        Measured::median_of(phases.iter().map(|p| f(p) as f64).collect())
    };
    m.insert("core.phase_key_compute_us", col(|p| p.key_compute_micros));
    m.insert("core.phase_invalidation_us", col(|p| p.invalidation_micros));
    m.insert("core.phase_cache_io_us", col(|p| p.cache_io_micros));
    m.insert("core.phase_merge_us", col(|p| p.merge_micros));
    m.insert("core.phase_exploration_us", col(|p| p.exploration_micros));
}

/// One finished `delta_reverify` op.
struct DoneOp {
    /// Index into the op stream.
    index: usize,
    class: OpClass,
    apply: RequestTiming,
    verify: RequestTiming,
    report: ReportSummary,
    traced: bool,
}

pub fn delta_reverify(
    env: &Env,
    cfg: &RunConfig,
    tracer: &mut Tracer,
) -> Result<WorkloadOutput, String> {
    let verify_line = gen::daemon_verify_line();
    let ((mut warm, ops, lines), setup) = repeat_setup(
        cfg.setups,
        || {
            let warm = daemon_setup(env, cfg, "r")?;
            // More blocks than any run gets through; lines are serialized
            // here so the timed loop only sends them.
            let ops = gen::delta_reverify_stream(&warm.base, cfg.seed, 150);
            let lines: Vec<String> = ops
                .iter()
                .map(|op| {
                    Request::ApplyDelta {
                        delta: op.delta.clone(),
                    }
                    .to_line()
                })
                .collect();
            Ok((warm, ops, lines))
        },
        |(warm, _, _)| discard_daemon(warm),
    )?;

    let mut notes = Vec::new();
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    let mut done: Vec<DoneOp> = Vec::new();
    let mut sample_responses: Vec<String> = Vec::new();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let traced = tracer.enabled();
    let start = Instant::now();
    // Whole blocks only: every block has the same class mix, so the number
    // of ops a run completes does not depend on where in a block it stopped.
    let mut block = Duration::ZERO;
    let mut next = 0usize;
    while next + gen::BLOCK_OPS <= ops.len() && (next == 0 || start.elapsed() + block <= budget) {
        tracer.set_enabled(traced && start.elapsed() >= budget / 2);
        let block_start = Instant::now();
        for i in next..next + gen::BLOCK_OPS {
            let op: &DeltaOp = &ops[i];
            attempted += 1;
            let root = tracer.begin("op.apply_then_verify", NO_PARENT, attempted);
            let applied = warm.conn.request(&lines[i], tracer, root, attempted);
            if sample_responses.len() < 2 {
                sample_responses.push(warm.conn.last_line().to_string());
            }
            let verified = warm.conn.request(&verify_line, tracer, root, attempted);
            tracer.end(root);
            let (applied, verified) = match (applied, verified) {
                (Ok(a), Ok(v)) => (a, v),
                (a, v) => {
                    return Err(format!(
                        "op {i}: connection failed: {:?} / {:?}",
                        a.err(),
                        v.err()
                    ))
                }
            };
            let (Response::DeltaApplied(_), Response::Report(report)) = (&applied.0, &verified.0)
            else {
                failed += 1;
                notes.push(format!(
                    "op {i} ({:?}) failed: {} / {}",
                    op.delta.kind(),
                    applied.0.to_line(),
                    verified.0.to_line()
                ));
                continue;
            };
            if verified.1.total() > REVERIFY_LIMIT {
                failed += 1;
                notes.push(format!("op {i}: re-verify took {:?}", verified.1.total()));
                continue;
            }
            // Every state of the stream keeps the fat tree loop free: the
            // static routes agree with OSPF and a null route cannot loop.
            if !report.holds {
                wrong += 1;
                notes.push(format!("op {i}: WRONG VERDICT: loop freedom violated"));
            }
            done.push(DoneOp {
                index: i,
                class: op.class,
                apply: applied.1,
                verify: verified.1,
                report: report.clone(),
                traced: tracer.enabled(),
            });
        }
        block = block_start.elapsed();
        next += gen::BLOCK_OPS;
    }
    let timed_s = start.elapsed().as_secs_f64();
    tracer.set_enabled(traced);
    sample_responses.push(warm.conn.last_line().to_string());

    wrong += check_back_at_base(&mut warm, &mut notes)?;
    // Spot check: the first op of each class against a from-scratch verify
    // of base with that one delta applied.
    for class in [OpClass::Cheap, OpClass::Medium, OpClass::Expensive] {
        let Some(i) = (0..next).step_by(2).find(|&i| ops[i].class == class) else {
            continue;
        };
        let mut network = warm.base.network.clone();
        ops[i]
            .delta
            .apply(&mut network)
            .map_err(|e| format!("op {i} does not apply to base: {e}"))?;
        let Some(seen) = done.iter().find(|d| d.index == i) else {
            continue;
        };
        if let Err(e) = same_verdict(&seen.report, &oracle_summary(&network)) {
            wrong += 1;
            notes.push(format!("WRONG VERDICT (op {i}, {}): {e}", class.name()));
        }
    }

    let mut per_layer = Metrics::new();
    let peak_rss = warm.stop(traced, &mut per_layer, &mut failed, &mut notes)?;

    let verify_ms: Vec<f64> = done.iter().map(|d| ms(d.verify.total())).collect();
    notes.push(tail_note("re-verify", &verify_ms));
    let apply_ms: Vec<f64> = done.iter().map(|d| ms(d.apply.total())).collect();
    let mut end_to_end = Metrics::new();
    end_to_end.insert("setup_s", setup);
    end_to_end.insert("verdict_p50_ms", Measured::median_of(verify_ms.clone()));
    end_to_end.insert(
        "ops_per_s",
        Measured {
            n: done.len(),
            ..Measured::single(done.len() as f64 / timed_s)
        },
    );
    end_to_end.insert("peak_rss_mb", peak_rss);

    if traced {
        per_layer.insert(
            "client.reverify_p50_ms",
            Measured::median_of(verify_ms.clone()),
        );
        per_layer.insert(
            "client.reverify_p90_ms",
            Measured::quantile_of(verify_ms.clone(), 0.90),
        );
        per_layer.insert("client.delta_apply_p50_ms", Measured::median_of(apply_ms));
        for class in [OpClass::Cheap, OpClass::Medium, OpClass::Expensive] {
            let name = match class {
                OpClass::Cheap => "delta_reverify.cheap_ms",
                OpClass::Medium => "delta_reverify.medium_ms",
                OpClass::Expensive => "delta_reverify.expensive_ms",
            };
            per_layer.insert(
                name,
                Measured::median_of(
                    done.iter()
                        .filter(|d| d.class == class)
                        .map(|d| ms(d.verify.total()))
                        .collect(),
                ),
            );
        }
        let phases: Vec<PhaseTimings> = done.iter().map(|d| d.report.phase_timings).collect();
        phase_metrics(&phases, &mut per_layer);
        let sum = |f: fn(&DoneOp) -> usize| done.iter().map(f).sum::<usize>() as f64;
        per_layer.insert(
            "core.tasks_cached",
            Measured::single(sum(|d| d.report.run.tasks_cached)),
        );
        per_layer.insert(
            "core.tasks_rerun",
            Measured::single(sum(|d| d.report.run.tasks_rerun)),
        );
        client_stage_metrics(&done, &mut per_layer);
        per_layer.insert(
            "bench.trace_overhead_share",
            overhead_share(
                done.iter()
                    .filter(|d| d.class == OpClass::Cheap)
                    .map(|d| (ms(d.verify.total()), d.traced)),
            ),
        );
    }

    let mut request_lines: Vec<String> = lines.iter().take(BLOCK_SAMPLE).cloned().collect();
    request_lines.push(verify_line);
    let deltas = ops
        .iter()
        .take(BLOCK_SAMPLE)
        .map(|op| op.delta.clone())
        .collect();
    Ok(WorkloadOutput {
        attempted,
        failed,
        wrong_verdicts: wrong,
        end_to_end,
        per_layer,
        notes,
        probe: warm.into_probe(cfg, request_lines, sample_responses, deltas),
    })
}

/// How many ops of a stream the probes replay.
const BLOCK_SAMPLE: usize = 2 * gen::BLOCK_OPS;

/// Where a cheap re-verify's client-side time goes: the stages measured by
/// the client, the server's own phase sum, and what neither accounts for.
fn client_stage_metrics(done: &[DoneOp], m: &mut Metrics) {
    let cheap: Vec<&DoneOp> = done.iter().filter(|d| d.class == OpClass::Cheap).collect();
    let us = |f: &dyn Fn(&DoneOp) -> f64| Measured::median_of(cheap.iter().map(|d| f(d)).collect());
    m.insert("client.send_us", us(&|d| d.verify.send.as_secs_f64() * 1e6));
    m.insert("client.wait_us", us(&|d| d.verify.wait.as_secs_f64() * 1e6));
    m.insert("client.recv_us", us(&|d| d.verify.recv.as_secs_f64() * 1e6));
    m.insert(
        "client.parse_us",
        us(&|d| d.verify.parse.as_secs_f64() * 1e6),
    );
    // Round trip minus the server's own phase sum: request parse, response
    // serialize, the socket both ways, scheduling. The probes measure parse
    // and serialize apart (service.parse_us, service.serialize_us).
    m.insert(
        "service.transport_us",
        us(&|d| {
            (d.verify.send + d.verify.wait + d.verify.recv).as_secs_f64() * 1e6
                - d.report.phase_timings.sum_micros() as f64
        }),
    );
    m.insert(
        "service.phase_share",
        us(&|d| {
            d.report.phase_timings.sum_micros() as f64
                / (d.verify.total().as_secs_f64() * 1e6).max(1.0)
        }),
    );
}

/// Window of the phase-B ingest rate, seconds.
const STORM_WINDOW_S: f64 = 0.25;

/// What one `update_storm` connection measured.
#[derive(Default)]
struct StormSide {
    attempted: u64,
    failed: u64,
    wrong: u64,
    notes: Vec<String>,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    phases: Vec<PhaseTimings>,
    tasks_cached: usize,
    tasks_rerun: usize,
    /// Per `latency_ms` entry: were spans on?
    traced: Vec<bool>,
    sample_response: Option<String>,
}

pub fn update_storm(
    env: &Env,
    cfg: &RunConfig,
    tracer: &mut Tracer,
) -> Result<WorkloadOutput, String> {
    let verify_line = gen::daemon_verify_line();
    let (mut warm, setup) =
        repeat_setup(cfg.setups, || daemon_setup(env, cfg, "s"), discard_daemon)?;
    let mut verify_conn = warm
        .daemon
        .connect()
        .map_err(|e| format!("cannot open the second connection: {e}"))?;
    let mut storm = StormGen::new(&warm.base, cfg.seed);
    let batch = cfg.sizes.storm_batch;

    // Phase A: three quarters of the time, open loop on both connections.
    let phase_a = Duration::from_secs_f64(cfg.seconds * 0.75);
    let phase_b = Duration::from_secs_f64(cfg.seconds * 0.25);
    let start = Instant::now();
    let traced = tracer.enabled();
    let mut verify_tracer = tracer.fork();
    let mut sample_requests: Vec<String> = Vec::new();
    let (acks, verifies) = std::thread::scope(|scope| {
        let verifier = scope.spawn(|| {
            let mut side = StormSide::default();
            let period = Duration::from_millis(cfg.sizes.storm_verify_period_ms);
            // Verifies are due half a period after the batches start.
            let mut schedule = OpenLoop::new(start + period / 2, period);
            while schedule.next_due() < start + phase_a {
                let due = schedule.wait_next();
                side.attempted += 1;
                let id = 1_000_000 + side.attempted;
                let root = verify_tracer.begin("op.storm_verify", NO_PARENT, id);
                let sent = Instant::now();
                let result = verify_conn.request(&verify_line, &mut verify_tracer, root, id);
                verify_tracer.end(root);
                match result {
                    Ok((Response::Report(report), timing)) => {
                        if timing.total() > REVERIFY_LIMIT {
                            side.failed += 1;
                            side.notes
                                .push(format!("storm verify took {:?}", timing.total()));
                            continue;
                        }
                        if !report.holds {
                            side.wrong += 1;
                            side.notes
                                .push("storm verify: WRONG VERDICT: loop freedom violated".into());
                        }
                        schedule.record(due, sent, Instant::now());
                        side.phases.push(report.phase_timings);
                        side.tasks_cached += report.run.tasks_cached;
                        side.tasks_rerun += report.run.tasks_rerun;
                        side.sample_response = Some(verify_conn.last_line().to_string());
                    }
                    Ok((other, _)) => {
                        side.failed += 1;
                        side.notes
                            .push(format!("storm verify refused: {}", other.to_line()));
                    }
                    Err(e) => {
                        side.failed += 1;
                        side.notes.push(format!("storm verify failed: {e}"));
                        break;
                    }
                }
            }
            side.latency_ms = std::mem::take(&mut schedule.latency_ms);
            side.late_ms = std::mem::take(&mut schedule.late_ms);
            side
        });

        let mut side = StormSide::default();
        let mut schedule = OpenLoop::new(start, Duration::from_millis(gen::STORM_PERIOD_MS));
        while schedule.next_due() < start + phase_a {
            // Build the line before its due time: generation is not latency.
            let line = gen::storm_line(storm.next_batch(batch));
            if sample_requests.is_empty() {
                sample_requests.push(line.clone());
            }
            let due = schedule.wait_next();
            side.attempted += 1;
            // Spans on for the second half only: the halves' difference is
            // the tracing overhead.
            tracer.set_enabled(traced && start.elapsed() >= phase_a / 2);
            let root = tracer.begin("op.storm_batch", NO_PARENT, side.attempted);
            let sent = Instant::now();
            let result = warm.conn.request(&line, tracer, root, side.attempted);
            tracer.end(root);
            match result {
                Ok((Response::DeltasAccepted { .. }, _)) => {
                    schedule.record(due, sent, Instant::now());
                    side.traced.push(tracer.enabled());
                    if side.sample_response.is_none() {
                        side.sample_response = Some(warm.conn.last_line().to_string());
                    }
                }
                Ok((other, _)) => {
                    side.failed += 1;
                    side.notes
                        .push(format!("batch refused: {}", other.to_line()));
                }
                Err(e) => {
                    side.failed += 1;
                    side.notes.push(format!("batch failed: {e}"));
                    break;
                }
            }
        }
        side.latency_ms = std::mem::take(&mut schedule.latency_ms);
        side.late_ms = std::mem::take(&mut schedule.late_ms);
        (
            side,
            verifier.join().expect("verifier thread does not panic"),
        )
    });
    tracer.set_enabled(traced);
    tracer.absorb(verify_tracer);

    // Phase B: the same batches back to back, closed loop, one connection.
    let b_start = Instant::now();
    let (mut b_batches, mut b_failed) = (0u64, 0u64);
    // Per accepted batch: when its ack arrived (seconds into phase B) and
    // how many deltas it carried.
    let mut b_acked: Vec<(f64, u64)> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    while b_start.elapsed() < phase_b {
        let line = gen::storm_line(storm.next_batch(batch));
        b_batches += 1;
        let root = tracer.begin("op.storm_batch_closed", NO_PARENT, 2_000_000 + b_batches);
        let result = warm
            .conn
            .request(&line, tracer, root, 2_000_000 + b_batches);
        tracer.end(root);
        match result {
            Ok((Response::DeltasAccepted { deltas, .. }, _)) => {
                b_acked.push((b_start.elapsed().as_secs_f64(), deltas.len() as u64));
            }
            Ok((other, _)) => {
                b_failed += 1;
                notes.push(format!("phase B batch refused: {}", other.to_line()));
            }
            Err(e) => return Err(format!("phase B batch failed: {e}")),
        }
    }
    // Deltas per second in each quarter-second window of phase B; the median
    // window is the ingest rate, so one stall does not set the number.
    let ingest = Measured::median_of(windowed_rates(
        &b_acked,
        STORM_WINDOW_S,
        b_start.elapsed().as_secs_f64(),
    ));

    // The last batch restores base.
    let mut wrong = acks.wrong + verifies.wrong;
    let restore = storm.restore_batch();
    if !restore.is_empty() {
        let line = Request::ApplyDeltas {
            deltas: restore,
            ack: "verified".to_string(),
        }
        .to_line();
        let reply = warm
            .conn
            .ask(&line)
            .map_err(|e| format!("restore batch failed: {e}"))?;
        let rejected = match &reply {
            Response::DeltasAccepted { deltas, .. } => {
                deltas.iter().filter(|d| d.status == "rejected").count()
            }
            _ => usize::MAX,
        };
        if rejected != 0 {
            wrong += 1;
            notes.push(format!(
                "WRONG STATE: restore batch not fully applied: {}",
                reply.to_line()
            ));
        }
    }
    wrong += check_back_at_base(&mut warm, &mut notes)?;

    let mut per_layer = Metrics::new();
    let mut failed = acks.failed + verifies.failed + b_failed;
    let peak_rss = warm.stop(traced, &mut per_layer, &mut failed, &mut notes)?;
    notes.extend(acks.notes.iter().cloned());
    notes.extend(verifies.notes.iter().cloned());
    notes.push(tail_note("batch ack from due time", &acks.latency_ms));
    notes.push(tail_note(
        "storm verify from due time",
        &verifies.latency_ms,
    ));

    let mut end_to_end = Metrics::new();
    end_to_end.insert("setup_s", setup);
    end_to_end.insert(
        "verdict_p50_ms",
        Measured::median_of(verifies.latency_ms.clone()),
    );
    end_to_end.insert("ops_per_s", ingest);
    end_to_end.insert("peak_rss_mb", peak_rss);

    if traced {
        per_layer.insert(
            "client.ack_p50_ms",
            Measured::median_of(acks.latency_ms.clone()),
        );
        per_layer.insert(
            "client.ack_p99_ms",
            Measured::quantile_of(acks.latency_ms.clone(), 0.99),
        );
        per_layer.insert(
            "client.storm_verify_p50_ms",
            Measured::median_of(verifies.latency_ms.clone()),
        );
        per_layer.insert("client.ingest_deltas_per_s", ingest);
        let mut late = acks.late_ms.clone();
        late.extend(&verifies.late_ms);
        per_layer.insert("bench.gen_late_p99_ms", Measured::quantile_of(late, 0.99));
        phase_metrics(&verifies.phases, &mut per_layer);
        per_layer.insert(
            "core.tasks_cached",
            Measured::single(verifies.tasks_cached as f64),
        );
        per_layer.insert(
            "core.tasks_rerun",
            Measured::single(verifies.tasks_rerun as f64),
        );
        per_layer.insert(
            "bench.trace_overhead_share",
            overhead_share(
                acks.latency_ms
                    .iter()
                    .copied()
                    .zip(acks.traced.iter().copied()),
            ),
        );
    }

    let mut response_lines: Vec<String> = Vec::new();
    response_lines.extend(acks.sample_response.clone());
    response_lines.extend(verifies.sample_response.clone());
    sample_requests.push(verify_line);
    // The probes replay a fresh stream with the same seed, not the consumed one.
    let deltas = StormGen::new(&warm.base, cfg.seed).next_batch(4 * batch);
    Ok(WorkloadOutput {
        attempted: acks.attempted + verifies.attempted + b_batches,
        failed,
        wrong_verdicts: wrong,
        end_to_end,
        per_layer,
        notes,
        probe: warm.into_probe(cfg, sample_requests, response_lines, deltas),
    })
}
