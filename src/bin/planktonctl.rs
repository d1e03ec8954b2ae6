//! `planktonctl` — client for a running `planktond --socket` daemon.
//!
//! Each positional argument is one JSON request line; with no arguments,
//! request lines are read from stdin. Responses are printed one per line.
//! Connection attempts retry with a short backoff until `--timeout` (the
//! daemon may still be binding its socket), and `--pipeline` writes every
//! request before reading any response — one round trip for a whole batch
//! against the concurrent daemon.
//!
//! ```text
//! planktonctl --socket /tmp/p.sock '"Stats"'
//! planktonctl --socket /tmp/p.sock --timeout 10 --pipeline \
//!   '{"ApplyDelta": {"delta": {"LinkDown": {"link": 3}}}}' \
//!   '{"Verify": {"policy": "LoopFreedom"}}' \
//!   '"Persist"'
//! planktonctl --socket /tmp/p.sock metrics   # Prometheus text exposition
//! ```
//!
//! The `metrics` subcommand sends a `Metrics` request and prints the
//! daemon's metrics registries (process-global, then the session's) as
//! Prometheus text exposition (unwrapped from the JSON response), ready to
//! pipe to a file a scraper reads.
//!
//! The `top` subcommand is a live view over the daemon's per-task cost
//! attribution: it polls `Top` and `Stats` every `--interval` seconds and
//! renders the hottest (PEC × failure-set) tasks plus poll-over-poll deltas
//! (tasks/sec, cache hit rate). `--once` prints a single sample and exits —
//! the scriptable form. The `dump` subcommand fetches the in-memory flight
//! recorder (`--trace <id>` filters to one request's causal chain, `--last
//! <n>` truncates) and prints each retained event as its JSONL rendering —
//! post-mortem debugging with no log file configured ahead of time.

use std::process::exit;

/// Write to stdout through its lock. When the reader has gone away
/// (`planktonctl … | head -1`) the write fails with `BrokenPipe`: exit
/// quietly with status 0, as a finished batch would. Any other write error
/// is reported, with exit status 1.
fn print_or_exit(text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_fmt(text).and_then(|()| stdout.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("planktonctl: cannot write to stdout: {e}");
        exit(1);
    }
}

/// `print!` through [`print_or_exit`].
macro_rules! out {
    ($($arg:tt)*) => {
        print_or_exit(format_args!($($arg)*))
    };
}

/// `println!` through [`print_or_exit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        print_or_exit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn usage() -> ! {
    eprintln!("usage:\n  planktonctl --socket <path> [--timeout <secs>] [--pipeline] [REQUEST_JSON]...\n  planktonctl --socket <path> [--timeout <secs>] metrics\n  planktonctl --socket <path> [--timeout <secs>] top [--once] [--interval <secs>] [-k <N>]\n  planktonctl --socket <path> [--timeout <secs>] dump [--trace <id>] [--last <N>]\n\nWith no REQUEST_JSON arguments, request lines are read from stdin.\n--timeout bounds the connect retry loop, each socket read, and the\noverloaded-retry loop (default 5s; 0 disables the read timeout);\n--pipeline sends every request before reading the responses. When the\ndaemon sheds a request (`overloaded`, from planktond --max-inflight),\nnon-pipelined requests are retried with the daemon's retry_after_ms\nhint until --timeout elapses. The `metrics` subcommand prints the\ndaemon's metrics as Prometheus text exposition. `top` renders the\nhottest (PEC x failure-set) tasks live (default every 2s; --once for a\nsingle sample); `dump` prints the daemon's in-memory flight recorder as\nJSON lines (--trace filters to one request's causal chain).");
    exit(2);
}

/// `1234567` µs → `"1.23s"`; keeps the table columns narrow.
fn fmt_micros(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

#[cfg(unix)]
fn main() {
    use std::io::{BufRead, BufReader, Write};

    let mut socket: Option<String> = None;
    let mut timeout_secs: f64 = 5.0;
    let mut pipeline = false;
    let mut metrics = false;
    let mut top = false;
    let mut dump = false;
    let mut once = false;
    let mut interval_secs: f64 = 2.0;
    let mut top_k: usize = 10;
    let mut dump_trace: Option<u64> = None;
    let mut dump_last: Option<usize> = None;
    let mut requests: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => socket = Some(args.next().unwrap_or_else(|| usage())),
            "--timeout" => {
                timeout_secs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--pipeline" => pipeline = true,
            "metrics" => metrics = true,
            "top" => top = true,
            "dump" => dump = true,
            "--once" => once = true,
            "--interval" => {
                interval_secs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "-k" => {
                top_k = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--trace" => {
                dump_trace = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--last" => {
                dump_last = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--help" | "-h" => usage(),
            // Blank requests get no response line from the daemon; sending
            // one would desync the request/response accounting below.
            _ if arg.trim().is_empty() => {}
            _ => requests.push(arg),
        }
    }
    let subcommands = usize::from(metrics) + usize::from(top) + usize::from(dump);
    if subcommands > 1 || (subcommands == 1 && (pipeline || !requests.is_empty())) {
        usage();
    }
    if (once || interval_secs != 2.0 || top_k != 10) && !top {
        usage();
    }
    if (dump_trace.is_some() || dump_last.is_some()) && !dump {
        usage();
    }
    let Some(path) = socket else { usage() };
    let timeout = std::time::Duration::from_secs_f64(timeout_secs.max(0.0));
    let stream = plankton_service::connect_with_retry(path.as_ref(), timeout).unwrap_or_else(|e| {
        eprintln!("cannot connect to {path}: {e}");
        exit(1);
    });
    // `--timeout` also bounds each socket read: a daemon that accepted the
    // connection but stopped responding (wedged, SIGSTOPped, mid-crash)
    // fails this client loudly instead of hanging it forever. 0 disables.
    if !timeout.is_zero() {
        stream
            .set_read_timeout(Some(timeout))
            .expect("set read timeout");
    }
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = stream;

    let send = |writer: &mut std::os::unix::net::UnixStream, line: &str| {
        writer
            .write_all(format!("{}\n", line.trim()).as_bytes())
            .expect("write request");
    };
    let read_response = |reader: &mut BufReader<std::os::unix::net::UnixStream>| -> String {
        let mut response = String::new();
        match reader.read_line(&mut response) {
            // EOF before the response: the daemon died or dropped the
            // connection mid-session. Scripts key on the exit code — a
            // truncated batch must not look like success.
            Ok(0) => {
                eprintln!("planktonctl: connection closed by daemon before a response");
                exit(1);
            }
            Ok(_) => response,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                eprintln!("planktonctl: timed out after {timeout_secs}s waiting for a response");
                exit(1);
            }
            Err(e) => {
                eprintln!("planktonctl: read error: {e}");
                exit(1);
            }
        }
    };
    let receive = |reader: &mut BufReader<std::os::unix::net::UnixStream>| {
        out!("{}", read_response(reader));
    };

    // v2 handshake, once per connection: the daemon advertises its protocol
    // version and feature set. A major version this client does not know
    // means the wire format may have changed incompatibly — refuse rather
    // than mis-parse responses. An `Error` reply means a pre-handshake (v1)
    // daemon; v1 requests still work, so warn and continue.
    send(&mut writer, "\"Hello\"");
    let hello_response = read_response(&mut reader);
    match serde_json::from_str::<plankton_service::Response>(&hello_response) {
        Ok(plankton_service::Response::Welcome { proto_version, .. }) => {
            let major = proto_version
                .split('.')
                .next()
                .and_then(|m| m.parse::<u64>().ok());
            if major != Some(plankton_service::PROTO_VERSION_MAJOR) {
                eprintln!(
                    "planktonctl: daemon speaks protocol {proto_version}, this client speaks {} — refusing",
                    plankton_service::PROTO_VERSION
                );
                exit(1);
            }
        }
        Ok(plankton_service::Response::Error { .. }) => {
            eprintln!(
                "planktonctl: daemon predates the Hello handshake; continuing with v1 requests"
            );
        }
        Ok(other) => {
            eprintln!("planktonctl: unexpected handshake response: {other:?}");
            exit(1);
        }
        Err(e) => {
            eprintln!("planktonctl: bad handshake response: {e}");
            exit(1);
        }
    }
    // Lockstep paths retry a shed request (`overloaded` from planktond
    // --max-inflight) with the daemon's own retry hint, bounded by
    // --timeout — transient overload looks like a slow response, not a
    // failure. Pipelined batches are not retried: responses interleave and
    // a mid-batch re-send would desync request/response accounting.
    let send_with_retry = |writer: &mut std::os::unix::net::UnixStream,
                           reader: &mut BufReader<std::os::unix::net::UnixStream>,
                           line: &str| {
        let start = std::time::Instant::now();
        loop {
            send(writer, line);
            let response = read_response(reader);
            if let Ok(plankton_service::Response::Error {
                kind,
                retry_after_ms,
                ..
            }) = serde_json::from_str::<plankton_service::Response>(&response)
            {
                if kind == "overloaded" && start.elapsed() < timeout {
                    let wait = retry_after_ms.unwrap_or(100);
                    eprintln!("planktonctl: daemon overloaded, retrying in {wait}ms");
                    std::thread::sleep(std::time::Duration::from_millis(wait));
                    continue;
                }
            }
            out!("{response}");
            return;
        }
    };

    if metrics {
        // One request, one response — but the payload is a whole Prometheus
        // text page, so unwrap it from the JSON envelope instead of echoing
        // the response line.
        send(&mut writer, "\"Metrics\"");
        let response = read_response(&mut reader);
        match serde_json::from_str::<plankton_service::Response>(&response) {
            Ok(plankton_service::Response::MetricsText { text }) => out!("{text}"),
            Ok(other) => {
                eprintln!("planktonctl: unexpected response: {other:?}");
                exit(1);
            }
            Err(e) => {
                eprintln!("planktonctl: bad response line: {e}");
                exit(1);
            }
        }
        return;
    }

    if dump {
        // One-shot post-mortem fetch: print each retained event's JSONL
        // rendering (the same line a --log-json sink would have written), a
        // summary on stderr so stdout stays machine-parsable.
        let trace = dump_trace.map_or("null".to_string(), |t| t.to_string());
        let last = dump_last.map_or("null".to_string(), |n| n.to_string());
        send(
            &mut writer,
            &format!("{{\"Dump\":{{\"trace_id\":{trace},\"last\":{last}}}}}"),
        );
        let response = read_response(&mut reader);
        match serde_json::from_str::<plankton_service::Response>(&response) {
            Ok(plankton_service::Response::Dump {
                events,
                total_recorded,
                dropped,
            }) => {
                for event in &events {
                    outln!("{}", event.json);
                }
                eprintln!(
                    "planktonctl: {} event(s) ({total_recorded} recorded, {dropped} overwritten)",
                    events.len()
                );
            }
            Ok(plankton_service::Response::Error { message, .. }) => {
                eprintln!("planktonctl: dump failed: {message}");
                exit(1);
            }
            Ok(other) => {
                eprintln!("planktonctl: unexpected response: {other:?}");
                exit(1);
            }
            Err(e) => {
                eprintln!("planktonctl: bad response line: {e}");
                exit(1);
            }
        }
        return;
    }

    if top {
        // Live hottest-tasks view: poll Top + Stats, render the attribution
        // table plus poll-over-poll rates. --once prints one sample (no
        // screen clearing) for scripts and CI.
        let interval = std::time::Duration::from_secs_f64(interval_secs.max(0.1));
        let mut prev: Option<(std::time::Instant, u64, u64, u64)> = None; // (at, runs, hits, misses)
        loop {
            send(&mut writer, &format!("{{\"Top\":{{\"k\":{top_k}}}}}"));
            let top_response = read_response(&mut reader);
            send(&mut writer, "\"Stats\"");
            let stats_response = read_response(&mut reader);
            let (rows, total_micros, tasks_tracked) =
                match serde_json::from_str::<plankton_service::Response>(&top_response) {
                    Ok(plankton_service::Response::Top {
                        rows,
                        total_micros,
                        tasks_tracked,
                    }) => (rows, total_micros, tasks_tracked),
                    Ok(other) => {
                        eprintln!("planktonctl: unexpected response: {other:?}");
                        exit(1);
                    }
                    Err(e) => {
                        eprintln!("planktonctl: bad response line: {e}");
                        exit(1);
                    }
                };
            let stats = match serde_json::from_str::<plankton_service::Response>(&stats_response) {
                Ok(plankton_service::Response::Stats(stats)) => stats,
                Ok(other) => {
                    eprintln!("planktonctl: unexpected response: {other:?}");
                    exit(1);
                }
                Err(e) => {
                    eprintln!("planktonctl: bad response line: {e}");
                    exit(1);
                }
            };

            let now = std::time::Instant::now();
            let runs: u64 = rows.iter().map(|r| r.runs).sum();
            let mut rates = String::new();
            if let Some((at, prev_runs, prev_hits, prev_misses)) = prev {
                let dt = now.duration_since(at).as_secs_f64().max(1e-9);
                let tasks_per_sec = runs.saturating_sub(prev_runs) as f64 / dt;
                let d_hits = stats.cache_hits.saturating_sub(prev_hits);
                let d_misses = stats.cache_misses.saturating_sub(prev_misses);
                let d_lookups = d_hits + d_misses;
                if d_lookups > 0 {
                    rates = format!(
                        "  +{tasks_per_sec:.1} tasks/s  {:.0}% hit (interval)",
                        100.0 * d_hits as f64 / d_lookups as f64
                    );
                } else {
                    rates = format!("  +{tasks_per_sec:.1} tasks/s");
                }
            }
            prev = Some((now, runs, stats.cache_hits, stats.cache_misses));

            if !once {
                // Clear + home, like top(1): each poll repaints in place.
                out!("\x1b[H\x1b[2J");
            }
            let lookups = stats.cache_hits + stats.cache_misses;
            let lifetime_hit = if lookups > 0 {
                format!("{:.0}%", 100.0 * stats.cache_hits as f64 / lookups as f64)
            } else {
                "-".to_string()
            };
            outln!(
                "plankton top — {tasks_tracked} task(s) tracked, {} total, hit rate {lifetime_hit}{rates}",
                fmt_micros(total_micros)
            );
            outln!(
                "{:>6}  {:<24} {:>6} {:>9} {:>9} {:>10} {:>6} {:>6}",
                "PEC",
                "FAILURES",
                "RUNS",
                "TOTAL",
                "MAX",
                "STATES",
                "HITS",
                "PANIC"
            );
            for row in &rows {
                let mut failures = row.failures.clone();
                if failures.len() > 24 {
                    failures.truncate(23);
                    failures.push('…');
                }
                outln!(
                    "{:>6}  {:<24} {:>6} {:>9} {:>9} {:>10} {:>6} {:>6}",
                    row.pec,
                    failures,
                    row.runs,
                    fmt_micros(row.total_micros),
                    fmt_micros(row.max_micros),
                    row.states,
                    row.cache_hits,
                    row.panics
                );
            }
            if rows.is_empty() {
                outln!("(no tasks recorded yet — run a Verify)");
            }
            if once {
                return;
            }
            std::thread::sleep(interval);
        }
    }

    if pipeline {
        // One batch, full duplex: a reader thread prints responses while the
        // batch is still being written, so a large batch can never deadlock
        // with both sides blocked on full socket buffers. The daemon
        // processes lines in order and writes one response per request, so
        // reading N lines back cannot desync.
        if requests.is_empty() {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let line = line.expect("read stdin");
                if line.trim().is_empty() {
                    continue;
                }
                requests.push(line);
            }
        }
        let expected = requests.len();
        std::thread::scope(|scope| {
            let printer = scope.spawn(move || {
                for _ in 0..expected {
                    receive(&mut reader);
                }
            });
            for request in &requests {
                send(&mut writer, request);
            }
            printer.join().expect("read responses");
        });
    } else if requests.is_empty() {
        // Streaming lockstep: each stdin line is sent — and its response
        // printed — immediately, so interactive drivers and `tail -f`-style
        // pipes see responses as they go, not at EOF.
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.expect("read stdin");
            if line.trim().is_empty() {
                continue;
            }
            send_with_retry(&mut writer, &mut reader, &line);
        }
    } else {
        for request in &requests {
            send_with_retry(&mut writer, &mut reader, request);
        }
    }
}

#[cfg(not(unix))]
fn main() {
    eprintln!("planktonctl requires a Unix platform");
    exit(2);
}
