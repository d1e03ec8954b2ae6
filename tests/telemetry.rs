//! End-to-end observability tests: drive a real `planktond` process and
//! assert (a) the JSONL event log reconstructs the causal chain of a delta
//! (request → delta applied → keys invalidated → tasks re-run → report
//! merged) with one trace id per request, and (b) the `Metrics` request
//! renders the live metric families as Prometheus text exposition.

use std::io::Write;
use std::process::{Command, Stdio};

/// Spawn `planktond --scenario ring:4 --log-json <log>` and feed it
/// `input` on stdin; returns (stdout, exit-success).
fn run_daemon_logged(input: &str, log: &std::path::Path) -> (String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_planktond"))
        .args(["--scenario", "ring:4", "--log-json", log.to_str().unwrap()])
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
