//! End-to-end observability tests: drive a real `planktond` process and
//! assert (a) the JSONL event log reconstructs the causal chain of a delta
//! (request → delta applied → keys invalidated → tasks re-run → report
//! merged) with one trace id per request, and (b) the `Metrics` request
//! renders the live metric families as Prometheus text exposition. Also:
//! (c) planes the per-(PEC × failure set) cap keeps from the policy are
//! never silent — a counter, a warn event per capped task, and a note from
//! `plankton verify`. And (d): `Stats` reads the instruments the session's
//! `Metrics` renders, and each session counts only its own requests.

use plankton::config::scenarios::fat_tree_bgp_rfc7938;
use plankton::policy::Waypoint;
use plankton::prelude::*;
use plankton::service::{Request, Response, ServiceSession, ServiceStats};
use plankton_telemetry::trace::{self, Event, FieldValue, Level, Sink};
use std::io::Write;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};

/// Spawn `planktond --scenario ring:4 --log-json <log>` and feed it
/// `input` on stdin; returns (stdout, exit-success).
fn run_daemon_logged(input: &str, log: &std::path::Path) -> (String, bool) {
    run_daemon_logged_with(&[], input, log)
}

/// [`run_daemon_logged`] with extra daemon flags.
fn run_daemon_logged_with(flags: &[&str], input: &str, log: &std::path::Path) -> (String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_planktond"))
        .args(["--scenario", "ring:4", "--log-json", log.to_str().unwrap()])
        .args(flags)
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
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

fn events_of(log: &std::path::Path) -> Vec<serde::Value> {
    std::fs::read_to_string(log)
        .expect("log file written")
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e}")))
        .collect()
}

fn field_u64(event: &serde::Value, key: &str) -> u64 {
    match event.get(key) {
        Some(serde::Value::UInt(n)) => *n,
        Some(serde::Value::Int(n)) if *n >= 0 => *n as u64,
        other => panic!("event field {key} is not a u64: {other:?} in {event:?}"),
    }
}

fn field_str<'a>(event: &'a serde::Value, key: &str) -> &'a str {
    match event.get(key) {
        Some(serde::Value::Str(s)) => s,
        other => panic!("event field {key} is not a string: {other:?} in {event:?}"),
    }
}

/// The tentpole's reconstruction guarantee: from the JSONL log alone, a
/// delta's whole causal chain is recoverable, keyed by trace id — and a
/// malformed request line is attributable by position at parse time.
#[test]
fn jsonl_log_reconstructs_the_causal_chain_of_a_delta() {
    let dir = std::env::temp_dir().join(format!("plankton-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("events.jsonl");
    let verify = r#"{"Verify": {"policy": "LoopFreedom", "options": {"max_failures": 1}}}"#;
    let input = format!(
        "{verify}\n{}\n{verify}\nthis is not json\n\"Shutdown\"\n",
        r#"{"ApplyDelta": {"delta": {"LinkDown": {"link": 0}}}}"#
    );
    let (_, success) = run_daemon_logged(&input, &log);
    assert!(!success, "the malformed line must surface in the exit code");
    let events = events_of(&log);

    // Every event line carries the full schema: timestamp, level, trace,
    // event name.
    for event in &events {
        assert!(field_u64(event, "ts_us") > 0, "{event:?}");
        field_str(event, "level");
        event.get("trace").expect("trace field present");
        field_str(event, "event");
    }

    // One request event per parsed request, each under a fresh trace id.
    let requests: Vec<&serde::Value> = events
        .iter()
        .filter(|e| field_str(e, "event") == "request")
        .collect();
    assert_eq!(requests.len(), 4, "verify, apply_delta, verify, shutdown");
    let trace_ids: Vec<u64> = requests.iter().map(|e| field_u64(e, "trace")).collect();
    for (i, id) in trace_ids.iter().enumerate() {
        assert!(*id > 0, "request events get real trace ids");
        assert!(
            !trace_ids[..i].contains(id),
            "each request gets its own trace id: {trace_ids:?}"
        );
    }
    assert_eq!(field_str(requests[1], "kind"), "apply_delta");

    // The delta's chain: its request trace covers the delta_applied event,
    // and the *following* verify's trace covers invalidation → re-run →
    // merge, in causal order.
    let chain_of = |trace: u64| -> Vec<&str> {
        events
            .iter()
            .filter(|e| field_u64(e, "trace") == trace)
            .map(|e| field_str(e, "event"))
            .collect()
    };
    assert_eq!(chain_of(trace_ids[1]), ["request", "delta_applied"]);
    let reverify = chain_of(trace_ids[2]);
    assert_eq!(
        reverify,
        [
            "request",
            "keys_invalidated",
            "tasks_rerun",
            "report_merged"
        ],
        "the re-verify after the delta logs its full causal chain"
    );
    // And the invalidation event proves the delta actually invalidated a
    // strict subset: some tasks re-ran, some were served from cache.
    let invalidated = events
        .iter()
        .find(|e| {
            field_u64(e, "trace") == trace_ids[2] && field_str(e, "event") == "keys_invalidated"
        })
        .unwrap();
    assert!(field_u64(invalidated, "tasks_rerun") > 0);
    assert!(field_u64(invalidated, "tasks_cached") > 0);

    // The malformed line is attributed at parse time: a warn event with the
    // line's byte length and 1-based position in the stream.
    let parse_error = events
        .iter()
        .find(|e| field_str(e, "event") == "parse_error")
        .expect("parse_error event logged");
    assert_eq!(field_str(parse_error, "level"), "warn");
    assert_eq!(
        field_u64(parse_error, "byte_len"),
        "this is not json".len() as u64
    );
    assert_eq!(
        field_u64(parse_error, "position"),
        4,
        "4th line of the stream"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A `Metrics` request after real work renders every instrumented family —
/// service, cache, engine, and checker — in Prometheus text exposition.
#[test]
fn metrics_request_renders_prometheus_text_with_live_families() {
    let dir = std::env::temp_dir().join(format!("plankton-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("events.jsonl");
    let verify = r#"{"Verify": {"policy": "LoopFreedom", "options": {"max_failures": 1}}}"#;
    let input = format!(
        "{verify}\n{}\n{verify}\n\"Metrics\"\n\"Shutdown\"\n",
        r#"{"ApplyDelta": {"delta": {"LinkDown": {"link": 0}}}}"#
    );
    let (stdout, success) = run_daemon_logged(&input, &log);
    assert!(success, "clean stream exits zero");
    let metrics_line = stdout
        .lines()
        .find(|l| l.contains("\"MetricsText\""))
        .expect("MetricsText response served");
    let response: serde::Value = serde_json::from_str(metrics_line).unwrap();
    let text = response
        .get("MetricsText")
        .and_then(|v| v.get("text"))
        .map(|v| match v {
            serde::Value::Str(s) => s.as_str(),
            other => panic!("text is not a string: {other:?}"),
        })
        .expect("MetricsText.text present");

    for family in [
        "plankton_requests_total",
        "plankton_request_seconds",
        "plankton_cache_hits_total",
        "plankton_cache_misses_total",
        "plankton_cache_entries",
        "plankton_tasks_rerun_total",
        "plankton_tasks_cached_total",
        "plankton_snapshot_swap_seconds",
        "plankton_task_seconds",
        "plankton_rpvp_steps_total",
        "plankton_undo_depth_max",
        "plankton_enabled_edge_updates_total",
        "plankton_enabled_full_recomputes_total",
        "plankton_enabled_stepped_skips_total",
        "plankton_independence_searches_total",
        "plankton_independence_searches_skipped_total",
        "plankton_independence_searches_witnessed_total",
        "plankton_edge_updates_unbuilt_total",
        "plankton_bgp_pick_verdicts_recomputed_total",
        "plankton_bgp_pick_verdicts_reused_total",
        "plankton_cache_capacity",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family}")),
            "family {family} missing from exposition:\n{text}"
        );
    }
    // Labelled series render with their label sets, and the post-delta
    // re-verify made the cache-hit counter move.
    assert!(
        text.contains(r#"plankton_requests_total{kind="verify"} 2"#),
        "{text}"
    );
    assert!(
        text.contains(r#"plankton_requests_total{kind="apply_delta"} 1"#),
        "{text}"
    );
    let hits_line = text
        .lines()
        .find(|l| l.starts_with("plankton_cache_hits_total "))
        .expect("cache hits rendered");
    let hits: u64 = hits_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(hits > 0, "the re-verify hit the cache: {hits_line}");
    // Histograms render cumulative buckets ending in +Inf, plus sum/count.
    assert!(
        text.contains(r#"plankton_request_seconds_bucket{kind="verify",le="+Inf"} 2"#),
        "{text}"
    );
    assert!(
        text.contains(r#"plankton_request_seconds_count{kind="verify"} 2"#),
        "{text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Deltas that only ever arrive enqueue-acked go through the same apply as
/// v1 ones: the `Verify` that flushes them logs `delta_applied` in its own
/// chain, and the advisory dirty counter — the denominator of the
/// invalidation-precision ratio — counts them.
#[test]
fn enqueued_deltas_are_logged_and_counted_like_v1_deltas() {
    let dir = std::env::temp_dir().join(format!("plankton-enqueued-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("events.jsonl");
    let input = [
        r#"{"ApplyDeltas": {"deltas": [{"LinkDown": {"link": 0}}], "ack": "enqueued"}}"#,
        r#"{"Verify": {"policy": "LoopFreedom"}}"#,
        r#""Metrics""#,
        r#""Shutdown""#,
    ]
    .join("\n")
        + "\n";
    // A lag bound far past the test's life: the Verify, not the background
    // drain, applies the enqueued delta.
    let (stdout, success) = run_daemon_logged_with(&["--max-lag-ms", "600000"], &input, &log);
    assert!(success, "clean stream exits zero");

    let events = events_of(&log);
    let verify_trace = events
        .iter()
        .find(|e| field_str(e, "event") == "request" && field_str(e, "kind") == "verify")
        .map(|e| field_u64(e, "trace"))
        .expect("verify request logged");
    let chain: Vec<&str> = events
        .iter()
        .filter(|e| field_u64(e, "trace") == verify_trace)
        .map(|e| field_str(e, "event"))
        .collect();
    assert!(chain.contains(&"delta_applied"), "{chain:?}");

    let metrics_line = stdout
        .lines()
        .find(|l| l.contains("\"MetricsText\""))
        .expect("MetricsText response served");
    let response: serde::Value = serde_json::from_str(metrics_line).unwrap();
    let Some(serde::Value::Str(text)) = response.get("MetricsText").and_then(|v| v.get("text"))
    else {
        panic!("MetricsText.text missing: {metrics_line}");
    };
    let dirty: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("plankton_pecs_dirty_advisory_total "))
        .map(|n| n.parse().unwrap())
        .unwrap_or(0);
    assert!(
        dirty > 0,
        "the enqueued delta's dirty PECs went uncounted:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `planktonctl metrics` against a live socket daemon prints the raw
/// exposition (not a JSON envelope), ready for a scraper.
#[cfg(unix)]
#[test]
fn planktonctl_metrics_prints_raw_exposition() {
    let dir = std::env::temp_dir().join(format!("plankton-ctlm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("planktond.sock");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_planktond"))
        .args(["--scenario", "ring:4", "--socket", sock.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn planktond");
    let ctl = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_planktonctl"))
            .args(["--socket", sock.to_str().unwrap(), "--timeout", "30"])
            .args(args)
            .output()
            .expect("run planktonctl")
    };
    let verified = ctl(&[r#"{"Verify": {"policy": "LoopFreedom"}}"#]);
    assert!(verified.status.success());
    let out = ctl(&["metrics"]);
    assert!(out.status.success(), "planktonctl metrics failed");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.lines()
            .next()
            .unwrap_or_default()
            .starts_with("# HELP"),
        "raw exposition, not JSON: {text}"
    );
    assert!(text.contains("plankton_requests_total"), "{text}");
    let shutdown = ctl(&["\"Shutdown\""]);
    assert!(shutdown.status.success());
    assert!(daemon.wait().unwrap().success(), "daemon shut down cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `data_planes_capped` events seen, as (pec, failures, converged, cap).
#[derive(Default)]
struct CappedEvents(Mutex<Vec<(u64, String, u64, u64)>>);

impl Sink for CappedEvents {
    fn emit(&self, event: &Event<'_>) {
        if event.name != "data_planes_capped" {
            return;
        }
        let field = |key: &str| event.fields.iter().find(|f| f.key == key).map(|f| f.value);
        let number = |key: &str| match field(key) {
            Some(FieldValue::U64(n)) => n,
            other => panic!("{key} is not a number: {other:?}"),
        };
        let failures = match field("failures") {
            Some(FieldValue::Str(s)) => s.to_string(),
            other => panic!("failures is not a string: {other:?}"),
        };
        let seen = (number("pec"), failures, number("converged"), number("cap"));
        self.0.lock().unwrap().push(seen);
    }
}

/// A cap of 3 on the RFC 7938 k=4 data center, whose PECs converge in more
/// ways than that: every capped (PEC × failure set) leaves a warn event, and
/// the counter moves by exactly the planes the events say were skipped.
#[test]
fn capped_planes_are_counted_and_reported() {
    let s = fat_tree_bgp_rfc7938(4, 7938);
    let policy = Waypoint::new(vec![s.monitored_edges.0], s.waypoints.clone());
    let mut options = PlanktonOptions::with_cores(1).collect_all_violations();
    options.max_data_planes_per_pec = 3;
    let sink = Arc::new(CappedEvents::default());
    trace::add_sink(Level::Warn, sink.clone());
    let counter = plankton::core::data_planes_capped_counter();
    let before = counter.get();
    Plankton::new(s.network.clone()).verify(&policy, &FailureScenario::up_to(1), &options);
    let after = counter.get();
    trace::clear_sinks();
    let events = std::mem::take(&mut *sink.0.lock().unwrap());
    assert!(!events.is_empty(), "some PEC converges in more than 3 ways");
    let mut skipped = 0;
    for (pec, failures, converged, cap) in &events {
        assert_eq!(*cap, 3, "pec{pec} under {failures}");
        assert!(
            *converged > 3,
            "pec{pec} under {failures}: {converged} planes"
        );
        skipped += converged - cap;
    }
    assert!(
        events
            .iter()
            .any(|(_, failures, ..)| failures != "(no failures)"),
        "failure sets are named"
    );
    assert_eq!(after - before, skipped);
}

/// `plankton verify` says on stderr when the cap kept planes from the
/// policy (the report itself does not change), and says nothing otherwise.
#[test]
fn plankton_verify_notes_capped_planes_on_stderr() {
    let dir = std::env::temp_dir().join(format!("plankton-capped-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (k, capped) in [(4, None), (8, Some(14_336))] {
        let s = fat_tree_bgp_rfc7938(k, 7938);
        let config = dir.join(format!("bgp_k{k}.json"));
        std::fs::write(&config, s.network.to_json()).unwrap();
        let name = |n: NodeId| s.network.topology.node(n).name.clone();
        let mut args = vec![
            "verify".to_string(),
            "--config".into(),
            config.display().to_string(),
            "--policy".into(),
            "waypoint".into(),
            "--all-violations".into(),
            "--source".into(),
            name(s.monitored_edges.0),
        ];
        for &w in &s.waypoints {
            args.extend(["--waypoint".to_string(), name(w)]);
        }
        let out = Command::new(env!("CARGO_BIN_EXE_plankton"))
            .args(&args)
            .output()
            .expect("run plankton");
        let stderr = String::from_utf8_lossy(&out.stderr);
        match capped {
            None => assert!(stderr.is_empty(), "k={k}: {stderr}"),
            Some(n) => {
                let prefix = format!("note: {n} converged data planes were not checked");
                assert_eq!(stderr.lines().count(), 1, "k={k}: {stderr}");
                assert!(stderr.starts_with(&prefix), "k={k}: {stderr}");
                let stdout = String::from_utf8_lossy(&out.stdout);
                assert!(
                    stdout.contains(", 120 data planes, 38825 states,"),
                    "{stdout}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `plankton verify` builds its policy through the same `PolicySpec` check
/// as the daemon: no sources (or no waypoints) is a usage error, exit 2,
/// not a vacuous HOLDS.
#[test]
fn plankton_verify_refuses_a_policy_without_sources() {
    let dir = std::env::temp_dir().join(format!("plankton-nosrc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let s = plankton::config::scenarios::ring_ospf(4);
    let config = dir.join("ring4.json");
    std::fs::write(&config, s.network.to_json()).unwrap();
    let router = s.network.topology.node(s.ring.routers[1]).name.clone();
    for extra in [
        vec!["--policy", "reachability"],
        vec!["--policy", "bounded-path-length"],
        vec!["--policy", "waypoint", "--waypoint", &router],
        vec!["--policy", "waypoint", "--source", &router],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_plankton"))
            .args(["verify", "--config", config.to_str().unwrap()])
            .args(&extra)
            .output()
            .expect("run plankton");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains("at least one"), "{extra:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{extra:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// `Stats` is a view of the session's registry: every count it reports is the
// value of one exposition series, and each session counts only its own.
// ---------------------------------------------------------------------------

/// Exposition series (name plus label set) → rendered value.
fn series_of(text: &str) -> std::collections::BTreeMap<&str, &str> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .collect()
}

/// Assert every `Stats` counter equals its exposition series, and that no
/// family is rendered twice (one instrument per count, one registry per
/// family).
fn assert_stats_match_metrics(stats: &ServiceStats, text: &str) {
    let series = series_of(text);
    let read = |name: &str| -> u64 {
        series
            .get(name)
            .unwrap_or_else(|| panic!("series {name} not rendered:\n{text}"))
            .parse()
            .unwrap()
    };
    for (name, value) in [
        ("plankton_verifies_total", stats.verifies),
        ("plankton_parse_errors_total", stats.parse_errors),
        ("plankton_connections_open", stats.connections_open),
        ("plankton_connections_total", stats.connections_served),
        (
            "plankton_connections_drained_total",
            stats.connections_drained,
        ),
        ("plankton_tasks_panicked_total", stats.tasks_panicked),
        ("plankton_requests_shed_total", stats.requests_shed),
        ("plankton_deadline_exceeded_total", stats.deadline_exceeded),
        ("plankton_cache_recoveries_total", stats.cache_recoveries),
        ("plankton_cache_hits_total", stats.cache_hits),
        ("plankton_cache_misses_total", stats.cache_misses),
        ("plankton_cache_evictions_total", stats.cache_evictions),
        ("plankton_delta_queue_depth", stats.queue_depth),
        ("plankton_deltas_enqueued_total", stats.deltas_enqueued),
        ("plankton_deltas_coalesced_total", stats.deltas_coalesced),
        ("plankton_deltas_shed_total", stats.deltas_shed),
        ("plankton_delta_batches_total", stats.delta_batches),
        ("plankton_delta_batch_max", stats.max_batch),
    ] {
        assert_eq!(read(name), value, "Stats and {name} disagree:\n{text}");
    }
    assert_eq!(stats.cache_shard_entries.len(), 16);
    for (shard, &entries) in stats.cache_shard_entries.iter().enumerate() {
        let name = format!("plankton_cache_entries{{shard=\"{shard}\"}}");
        assert_eq!(read(&name), entries as u64, "shard {shard}:\n{text}");
    }
    let mut families: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    let rendered = families.len();
    families.sort_unstable();
    families.dedup();
    assert_eq!(
        families.len(),
        rendered,
        "a family is rendered twice:\n{text}"
    );
}

/// Run `planktond --scenario ring:4 <flags>` over `requests` (with
/// `"Stats"`, `"Metrics"` and `"Shutdown"` appended) and return the replies.
fn stats_and_metrics_of(
    flags: &[&str],
    failpoints: Option<&str>,
    requests: &[&str],
) -> (Vec<Response>, ServiceStats, String) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_planktond"));
    command
        .args(["--scenario", "ring:4"])
        .args(flags)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(spec) = failpoints {
        command.env(plankton_faultinject::ENV_VAR, spec);
    }
    let mut child = command.spawn().expect("spawn planktond");
    let input: String = requests
        .iter()
        .chain(&[r#""Stats""#, r#""Metrics""#, r#""Shutdown""#])
        .map(|line| format!("{line}\n"))
        .collect();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let mut replies: Vec<Response> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).expect("response parses"))
        .collect();
    replies.pop(); // Shutdown's Ok
    let Some(Response::MetricsText { text }) = replies.pop() else {
        panic!("expected a MetricsText reply");
    };
    let Some(Response::Stats(stats)) = replies.pop() else {
        panic!("expected a Stats reply");
    };
    (replies, stats, text)
}

/// Two daemon runs between them drive every counter `Stats` reports: a
/// parse error, a shed verify, enqueued deltas that coalesce and hit the
/// high-water mark, an unusable persisted cache, a verify past its
/// deadline, a verify that flushes the queue and one that hits the cache.
/// In both, each `Stats` counter equals its series in the same daemon's
/// `Metrics` reply, and no family is rendered twice.
#[test]
fn stats_counters_equal_their_exposition_series() {
    // A lag bound past the test's life: only a verify drains the queue.
    let lag = ["--max-lag-ms", "600000", "--max-lag-deltas", "1000"];
    let storm = r#"{"ApplyDeltas": {"deltas": [{"LinkDown": {"link": 0}}, {"LinkUp": {"link": 0}}, {"LinkDown": {"link": 1}}, {"LinkDown": {"link": 2}}], "ack": "enqueued"}}"#;
    let (replies, stats, text) = stats_and_metrics_of(
        &[
            &lag[..],
            &["--max-inflight", "0", "--max-pending-deltas", "2"],
        ]
        .concat(),
        None,
        &[
            "this is not json",
            r#"{"Verify": {"policy": "LoopFreedom"}}"#,
            storm,
        ],
    );
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert_eq!(
        (stats.parse_errors, stats.requests_shed, stats.verifies),
        (1, 1, 0)
    );
    assert_eq!(
        (
            stats.deltas_enqueued,
            stats.deltas_coalesced,
            stats.deltas_shed
        ),
        (3, 1, 1)
    );
    assert_eq!(stats.queue_depth, 2);
    assert_stats_match_metrics(&stats, &text);

    let dir = std::env::temp_dir().join(format!("plankton-view-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(ServiceSession::CACHE_FILE), "not a cache snapshot").unwrap();
    let verify = r#"{"Verify": {"policy": "LoopFreedom", "options": {"max_failures": 1}}}"#;
    let (_, stats, text) = stats_and_metrics_of(
        &[&lag[..], &["--cache-dir", dir.to_str().unwrap()]].concat(),
        Some("task=delay:5ms"),
        &[
            r#"{"Verify": {"policy": "LoopFreedom", "options": {"deadline_ms": 1}}}"#,
            r#"{"ApplyDeltas": {"deltas": [{"LinkDown": {"link": 0}}, {"LinkDown": {"link": 1}}, {"LinkUp": {"link": 1}}], "ack": "enqueued"}}"#,
            verify,
            verify,
        ],
    );
    assert_eq!(
        (
            stats.cache_recoveries,
            stats.deadline_exceeded,
            stats.verifies
        ),
        (1, 1, 3)
    );
    assert_eq!((stats.delta_batches, stats.max_batch), (1, 2));
    assert!(stats.cache_hits > 0 && stats.cache_misses > 0, "{stats:?}");
    assert!(stats.cache_shard_entries.iter().any(|&n| n > 0));
    assert_stats_match_metrics(&stats, &text);
    let _ = std::fs::remove_dir_all(&dir);
}

fn metrics_of(session: &ServiceSession) -> String {
    match session.handle(&Request::Metrics) {
        Response::MetricsText { text } => text,
        other => panic!("expected metrics, got {other:?}"),
    }
}

/// Two sessions in one process count apart: each one's `Stats` and
/// `Metrics` show its own parse errors, verifies and cache traffic only.
#[test]
fn each_session_counts_only_its_own_requests() {
    let network = plankton::config::scenarios::ring_ospf(4).network;
    let first = ServiceSession::with_network(network.clone());
    let second = ServiceSession::with_network(network);
    first.note_parse_error();
    for _ in 0..2 {
        second.note_parse_error();
    }
    let verify = Request::Verify {
        policy: plankton::service::PolicySpec::LoopFreedom,
        options: None,
    };
    assert!(matches!(first.handle(&verify), Response::Report(_)));

    let (one, two) = (first.stats(), second.stats());
    assert_eq!((one.parse_errors, two.parse_errors), (1, 2));
    assert_eq!((one.verifies, two.verifies), (1, 0));
    assert!(one.cache_misses > 0);
    assert_eq!(two.cache_hits + two.cache_misses, 0);

    let (one_text, two_text) = (metrics_of(&first), metrics_of(&second));
    for (text, expected) in [
        (
            &one_text,
            ["plankton_parse_errors_total 1", "plankton_verifies_total 1"],
        ),
        (
            &two_text,
            ["plankton_parse_errors_total 2", "plankton_verifies_total 0"],
        ),
    ] {
        for line in expected {
            assert!(text.lines().any(|l| l == line), "{line} missing:\n{text}");
        }
    }
    assert!(two_text
        .lines()
        .any(|l| l == "plankton_cache_misses_total 0"));
    assert_stats_match_metrics(&one, &one_text);
    assert_stats_match_metrics(&two, &two_text);
}

/// A `Load` replaces the result cache, and the shard gauges follow: after
/// Load → Verify → Load, every `plankton_cache_entries{shard}` series reads
/// the new (empty) cache's occupancy, as `Stats.cache_shard_entries` does,
/// while the cache's hit and miss counts carry on for the session.
#[test]
fn shard_gauges_follow_the_cache_a_load_installs() {
    let network = plankton::config::scenarios::ring_ospf(4).network;
    let session = ServiceSession::new();
    let load = Request::Load {
        network: network.clone(),
    };
    assert!(matches!(session.handle(&load), Response::Loaded { .. }));
    let verify = Request::Verify {
        policy: plankton::service::PolicySpec::LoopFreedom,
        options: None,
    };
    assert!(matches!(session.handle(&verify), Response::Report(_)));
    let before = session.stats();
    assert!(before.cache_entries > 0);
    assert!(matches!(session.handle(&load), Response::Loaded { .. }));

    let stats = session.stats();
    assert_eq!(stats.cache_entries, 0);
    let text = metrics_of(&session);
    let series = series_of(&text);
    for (shard, entries) in stats.cache_shard_entries.iter().enumerate() {
        let name = format!("plankton_cache_entries{{shard=\"{shard}\"}}");
        assert_eq!(
            series.get(name.as_str()),
            Some(&entries.to_string().as_str()),
            "{name} still reads the replaced cache:\n{text}"
        );
    }
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        (before.cache_hits, before.cache_misses),
        "the session's cache counts outlive the cache a Load replaces"
    );
    assert_stats_match_metrics(&stats, &text);
}
