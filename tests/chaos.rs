//! Chaos and graceful-degradation tests: the daemon under injected faults.
//!
//! Every test drives a fault through the `plankton_faultinject` failpoint
//! crate (in-process via `configure`, in spawned daemons via the
//! `PLANKTON_FAILPOINTS` env var) and asserts the *survivability contract*:
//!
//! - a fault produces a structured `Error {kind}` response, never a crash
//!   and never a wrong report;
//! - partial results of an abandoned run are not cached and not served;
//! - the very next clean request succeeds, and its report is identical to
//!   what an unfaulted daemon computes;
//! - a damaged persisted cache degrades to a cold start, never to a crash
//!   or a wrong warm answer.
//!
//! Failpoints are process-global, so the in-process tests serialize on one
//! mutex; the spawned-process tests are isolated by construction (the env
//! var only reaches the child).

use plankton::config::scenarios::ring_ospf;
use plankton::service::{
    error_kind, PolicySpec, Request, Response, ServeOptions, ServiceSession, VerifyOptions,
};
use std::sync::Mutex;

/// Serializes every in-process test that arms failpoints (the table is
/// process-global) or touches a shared cache file.
static FAILPOINTS: Mutex<()> = Mutex::new(());

fn verify_request(deadline_ms: u64) -> Request {
    Request::Verify {
        policy: PolicySpec::LoopFreedom,
        options: Some(VerifyOptions {
            max_failures: 1,
            cores: 2,
            deadline_ms,
            ..Default::default()
        }),
    }
}

/// A task-panic failpoint yields a structured `task_panicked` error; the
/// next (clean) verify on the *same* session produces a report
/// byte-identical to an unfaulted session's — the poisoned run leaked
/// nothing into the cache.
#[test]
fn task_panic_is_contained_and_the_next_verify_matches_a_clean_run() {
    let _guard = FAILPOINTS.lock().unwrap();
    let network = ring_ospf(4).network;

    plankton_faultinject::configure("task=panic*1").unwrap();
    let faulted = ServiceSession::with_network(network.clone());
    let first = faulted.handle(&verify_request(0));
    plankton_faultinject::clear();
    let Response::Error { kind, message, .. } = &first else {
        panic!("expected a structured error, got {first:?}");
    };
    assert_eq!(kind, error_kind::TASK_PANICKED);
    assert!(message.contains("panicked"), "{message}");
    assert!(
        faulted.last_report("loop-freedom").is_none(),
        "an abandoned run must not be stored for queries"
    );
    assert_eq!(faulted.stats().tasks_panicked, 1);

    let second = faulted.handle(&verify_request(0));
    assert!(matches!(second, Response::Report(_)), "{second:?}");

    let clean = ServiceSession::with_network(network);
    let clean_response = clean.handle(&verify_request(0));
    assert!(matches!(clean_response, Response::Report(_)));
    assert_eq!(
        faulted
            .last_report("loop-freedom")
            .expect("clean retry stored")
            .normalized_json(),
        clean
            .last_report("loop-freedom")
            .expect("clean run stored")
            .normalized_json(),
        "post-fault retry must be byte-identical to an unfaulted run"
    );
}

/// A deadline that cannot be met (1ms budget with a 20ms-per-task delay
/// failpoint) yields `deadline_exceeded`, serves nothing, and the session
/// recovers the moment the budget constraint is lifted.
#[test]
fn deadline_exceeded_is_structured_and_never_serves_a_report() {
    let _guard = FAILPOINTS.lock().unwrap();
    let session = ServiceSession::with_network(ring_ospf(4).network);

    plankton_faultinject::configure("task=delay:20ms").unwrap();
    let response = session.handle(&verify_request(1));
    plankton_faultinject::clear();
    let Response::Error { kind, .. } = &response else {
        panic!("expected a structured error, got {response:?}");
    };
    assert_eq!(kind, error_kind::DEADLINE_EXCEEDED);
    assert!(
        session.last_report("loop-freedom").is_none(),
        "an incomplete report must never be served"
    );
    assert_eq!(session.stats().deadline_exceeded, 1);

    let retry = session.handle(&verify_request(0));
    assert!(matches!(retry, Response::Report(_)), "{retry:?}");
}

/// `--max-inflight 0` sheds every verify with a machine-actionable
/// `overloaded` error carrying a retry hint; non-verify requests still
/// work, and the shed count is observable in `Stats`.
#[test]
fn overload_shedding_refuses_excess_verifies_with_a_retry_hint() {
    let session = ServiceSession::with_network(ring_ospf(4).network).with_options(ServeOptions {
        max_inflight: Some(0),
        ..ServeOptions::default()
    });
    let response = session.handle(&verify_request(0));
    let Response::Error {
        kind,
        retry_after_ms,
        ..
    } = &response
    else {
        panic!("expected a structured error, got {response:?}");
    };
    assert_eq!(kind, error_kind::OVERLOADED);
    assert!(retry_after_ms.unwrap_or(0) > 0, "retry hint present");
    let Response::Stats(stats) = session.handle(&Request::Stats) else {
        panic!("non-verify requests must still be served");
    };
    assert_eq!(stats.requests_shed, 1);
    assert_eq!(stats.verifies, 0, "a shed request never ran");
}

/// Every flavor of snapshot damage — truncation, a flipped bit, a stripped
/// checksum footer — is detected at load: the session cold-starts (zero
/// warm entries, `cache_recoveries` counted) and verification still works.
/// The undamaged file still warm-starts afterwards.
#[test]
fn corrupt_cache_snapshots_cold_start_without_crashing() {
    let _guard = FAILPOINTS.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("plankton-chaos-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let network = ring_ospf(4).network;

    let writer = ServiceSession::with_network(network.clone()).with_cache_dir(&dir);
    assert!(matches!(
        writer.handle(&verify_request(0)),
        Response::Report(_)
    ));
    let Response::Persisted { entries, .. } = writer.handle(&Request::Persist) else {
        panic!("persist failed");
    };
    assert!(entries > 0);
    let cache_file = dir.join(ServiceSession::CACHE_FILE);
    let pristine = std::fs::read_to_string(&cache_file).unwrap();

    let corruptions: Vec<(&str, String)> = vec![
        ("truncated", pristine[..pristine.len() / 2].to_string()),
        ("bit-flipped", {
            let mut bytes = pristine.clone().into_bytes();
            bytes[10] ^= 0x41;
            String::from_utf8_lossy(&bytes).into_owned()
        }),
        (
            "footer-stripped",
            pristine
                .lines()
                .next()
                .map(|body| format!("{body}\n"))
                .unwrap(),
        ),
    ];
    for (label, damaged) in corruptions {
        std::fs::write(&cache_file, damaged).unwrap();
        let session = ServiceSession::new().with_cache_dir(&dir);
        let Response::Loaded {
            cache_warm_entries, ..
        } = session.load(network.clone())
        else {
            panic!("{label}: load must survive a damaged cache");
        };
        assert_eq!(cache_warm_entries, 0, "{label}: damaged cache is rejected");
        assert_eq!(session.stats().cache_recoveries, 1, "{label}");
        assert!(
            matches!(session.handle(&verify_request(0)), Response::Report(_)),
            "{label}: verification works after the cold start"
        );
    }

    // Control: the pristine bytes still warm-start — the recoveries above
    // detected damage, not the format itself.
    std::fs::write(&cache_file, &pristine).unwrap();
    let session = ServiceSession::new().with_cache_dir(&dir);
    let Response::Loaded {
        cache_warm_entries, ..
    } = session.load(network)
    else {
        panic!("pristine load failed");
    };
    assert_eq!(cache_warm_entries, entries);
    assert_eq!(session.stats().cache_recoveries, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panic inside a mutation handler (`snapshot_swap` failpoint inside
/// `apply_delta`) is contained by the request-level catch: the client gets
/// `internal_panic`, the old snapshot keeps serving, and later mutations
/// succeed — no lock is poisoned, no state is torn.
#[test]
fn handler_panic_is_contained_and_the_old_snapshot_keeps_serving() {
    let _guard = FAILPOINTS.lock().unwrap();
    let s = ring_ospf(4);
    let session = ServiceSession::with_network(s.network.clone());
    assert!(matches!(
        session.handle(&verify_request(0)),
        Response::Report(_)
    ));

    plankton_faultinject::configure("snapshot_swap=panic*1").unwrap();
    let delta = Request::ApplyDelta {
        delta: plankton::config::ConfigDelta::LinkDown {
            link: s.ring.links[0],
        },
    };
    let response = session.handle(&delta);
    plankton_faultinject::clear();
    let Response::Error { kind, .. } = &response else {
        panic!("expected a structured error, got {response:?}");
    };
    assert_eq!(kind, error_kind::INTERNAL_PANIC);

    // The old snapshot still answers, and the same delta now applies.
    assert!(matches!(
        session.handle(&verify_request(0)),
        Response::Report(_)
    ));
    assert!(
        matches!(session.handle(&delta), Response::DeltaApplied(_)),
        "locks released across the contained panic"
    );
}

// ---------------------------------------------------------------------------
// Spawned-process chaos: faults that only mean something across a process
// boundary (SIGKILL, env-armed failpoints, client-observed timeouts).
// ---------------------------------------------------------------------------

fn spawn_daemon(args: &[&str], failpoints: Option<&str>) -> std::process::Child {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_planktond"));
    cmd.args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null());
    if let Some(spec) = failpoints {
        cmd.env(plankton_faultinject::ENV_VAR, spec);
    }
    cmd.spawn().expect("spawn planktond")
}

fn run_daemon_stdin(args: &[&str], failpoints: Option<&str>, input: &str) -> Vec<Response> {
    use std::io::Write;
    let mut child = spawn_daemon(args, failpoints);
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).expect("response parses"))
        .collect()
}

const VERIFY_LINE: &str =
    r#"{"Verify": {"policy": "LoopFreedom", "options": {"max_failures": 1, "cores": 2}}}"#;

/// SIGKILL while a persist is in flight (a `cache_save` delay failpoint
/// holds the write window open) never damages the snapshot: the atomic
/// tmp-file+rename protocol means the previous complete snapshot survives,
/// and the next daemon warm-starts with zero re-run tasks.
#[test]
fn sigkill_during_delayed_persist_leaves_a_warm_consistent_cache() {
    use std::io::Write;
    let dir = std::env::temp_dir().join(format!("plankton-chaos-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dir_str = dir.to_str().unwrap();
    let args = ["--scenario", "ring:4", "--cache-dir", dir_str];

    // Seed a complete snapshot.
    let seeded = run_daemon_stdin(&args, None, &format!("{VERIFY_LINE}\n\"Shutdown\"\n"));
    assert!(matches!(seeded[0], Response::Report(_)), "{:?}", seeded[0]);
    assert!(dir.join(ServiceSession::CACHE_FILE).exists());

    // A second daemon is SIGKILLed while its Persist sits in the failpoint's
    // 10s delay window — mid-persist, before the rename can land.
    let mut victim = spawn_daemon(&args, Some("cache_save=delay:10000ms"));
    victim
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"\"Persist\"\n")
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(500));
    victim.kill().expect("SIGKILL the daemon");
    let _ = victim.wait();

    // The survivor warm-starts from the seeded snapshot: nothing re-runs.
    let warm = run_daemon_stdin(&args, None, &format!("{VERIFY_LINE}\n\"Shutdown\"\n"));
    let Response::Report(report) = &warm[0] else {
        panic!("expected report, got {:?}", warm[0]);
    };
    assert_eq!(report.run.tasks_rerun, 0, "{:?}", report.run);
    assert!(report.run.tasks_cached > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An env-armed task panic in a spawned daemon: the first verify answers a
/// structured `task_panicked` error, the second verify succeeds with the
/// same semantic result as an unfaulted daemon, and the metrics scrape
/// shows exactly one contained panic.
#[test]
fn env_armed_task_panic_daemon_answers_next_request_and_counts_the_metric() {
    let args = ["--scenario", "ring:4"];
    let input = format!("{VERIFY_LINE}\n{VERIFY_LINE}\n\"Metrics\"\n\"Shutdown\"\n");
    let faulted = run_daemon_stdin(&args, Some("task=panic*1"), &input);

    let Response::Error { kind, .. } = &faulted[0] else {
        panic!("expected a structured error, got {:?}", faulted[0]);
    };
    assert_eq!(kind, "task_panicked");
    let Response::Report(recovered) = &faulted[1] else {
        panic!("expected report, got {:?}", faulted[1]);
    };
    let Response::MetricsText { text } = &faulted[2] else {
        panic!("expected metrics, got {:?}", faulted[2]);
    };
    assert!(
        text.contains("plankton_tasks_panicked_total 1"),
        "metrics must count the contained panic:\n{text}"
    );

    let clean = run_daemon_stdin(&args, None, &format!("{VERIFY_LINE}\n\"Shutdown\"\n"));
    let Response::Report(baseline) = &clean[0] else {
        panic!("expected report, got {:?}", clean[0]);
    };
    // Semantic identity with the unfaulted run (run/timing stats
    // legitimately differ: the recovery was partially cache-served).
    assert_eq!(recovered.holds, baseline.holds);
    assert_eq!(recovered.violations, baseline.violations);
    assert_eq!(recovered.pecs_verified, baseline.pecs_verified);
    assert_eq!(
        recovered.failure_sets_explored,
        baseline.failure_sets_explored
    );
    assert_eq!(recovered.data_planes_checked, baseline.data_planes_checked);
    assert_eq!(recovered.states_explored, baseline.states_explored);
}

/// `planktonctl --timeout` bounds socket reads: against a daemon whose
/// response writes stall (a `write` delay failpoint), the client exits
/// non-zero with a timeout diagnostic instead of hanging forever.
#[cfg(unix)]
#[test]
fn planktonctl_read_timeout_fails_loudly_against_a_stalled_daemon() {
    let dir = std::env::temp_dir().join(format!("plankton-chaos-stall-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("planktond.sock");
    let mut daemon = spawn_daemon(
        &["--scenario", "ring:4", "--socket", sock.to_str().unwrap()],
        Some("write=delay:30000ms"),
    );
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_planktonctl"))
        .args([
            "--socket",
            sock.to_str().unwrap(),
            "--timeout",
            "2",
            "\"Stats\"",
        ])
        .output()
        .expect("run planktonctl");
    assert!(!out.status.success(), "a stalled read must not exit 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("timed out"), "{stderr}");
    daemon.kill().expect("kill daemon");
    let _ = daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shed verify (`--max-inflight 0` sheds everything) is retried by
/// `planktonctl` with the daemon's retry hint until the client's timeout,
/// then surfaced as the structured `overloaded` error — scripts observe
/// overload as a response, never as a hang or a crash.
#[cfg(unix)]
#[test]
fn planktonctl_retries_overloaded_verifies_with_the_daemon_hint() {
    let dir = std::env::temp_dir().join(format!("plankton-chaos-shed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("planktond.sock");
    let mut daemon = spawn_daemon(
        &[
            "--scenario",
            "ring:4",
            "--socket",
            sock.to_str().unwrap(),
            "--max-inflight",
            "0",
        ],
        None,
    );
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_planktonctl"))
        .args([
            "--socket",
            sock.to_str().unwrap(),
            "--timeout",
            "1",
            r#"{"Verify": {"policy": "LoopFreedom"}}"#,
        ])
        .output()
        .expect("run planktonctl");
    assert!(
        out.status.success(),
        "overload is a response, not a failure"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("\"overloaded\""), "{stdout}");
    assert!(stderr.contains("retrying"), "the client retried: {stderr}");
    let shutdown = std::process::Command::new(env!("CARGO_BIN_EXE_planktonctl"))
        .args(["--socket", sock.to_str().unwrap(), "\"Shutdown\""])
        .output()
        .expect("run planktonctl");
    assert!(shutdown.status.success());
    let _ = daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
