//! `planktond` — the persistent incremental verification daemon.
//!
//! Accepts a network once (from a config file, a built-in scenario, or a
//! `Load` request), then serves a stream of newline-delimited JSON requests:
//! `Verify`, `ApplyDelta`, `ApplyDeltas`, `Query`, `Stats`, `Persist`,
//! `Shutdown`. Re-verification after a delta re-explores only the PECs the
//! delta dirtied; everything else is served from the content-addressed
//! result cache. With `--socket` the daemon serves concurrent client
//! connections (readiness-multiplexed over one shared session: unbounded
//! connections, `--threads` workers); with `--cache-dir` the
//! result cache is persisted on shutdown (and on `Persist`) and
//! warm-started on the next run, so a restarted daemon re-verifies an
//! unchanged network entirely from cache.
//!
//! `--threads`, `--max-inflight`, `--slow-task-ms`, `--max-lag-deltas`,
//! `--max-lag-ms` and `--max-pending-deltas` fill one
//! [`ServeOptions`] that the session holds
//! for its lifetime; no request overrides them. A `Verify` request carries
//! only its own five `VerifyOptions` (failures, prefixes, stop-at-first,
//! cores, deadline).
//!
//! ```text
//! planktond --scenario fat-tree:4                # stdio, demo network
//! planktond --config net.json --socket /tmp/p.sock --threads 8
//! planktond --scenario ring:6 --cache-dir /var/lib/plankton
//! echo '"Stats"' | planktond --scenario ring:6
//! ```

use plankton::config::scenarios::{fat_tree_ospf, isp_ibgp_over_ospf, ring_ospf, CoreStaticRoutes};
use plankton::net::generators::as_topo::AsTopologySpec;
use plankton::prelude::Network;
use plankton_service::{ServeOptions, ServiceSession};
use std::io::{self, Write};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  planktond [--config <file.json> | --scenario <ring:N|fat-tree:K|ibgp:ASN>]\n            [--socket <path>] [--threads <N>] [--cache-dir <dir>]\n            [--max-inflight <N>] [--slow-task-ms <N>]\n            [--max-lag-deltas <N>] [--max-lag-ms <N>] [--max-pending-deltas <N>]\n            [--recorder-capacity <N>]\n            [--log-json <file.jsonl>] [--log-level <error|warn|info|debug|trace>]\n\nWithout --socket the daemon serves newline-delimited JSON requests on\nstdin/stdout; with it, on a Unix socket. Connections are readiness-\nmultiplexed: the count is unbounded, --threads sizes the worker pool\npumping ready connections (default 4). With --cache-dir the result cache\nis persisted on shutdown and warm-started on the next run. Without\n--config/--scenario, start with a `Load` request.\n\n--threads, --max-inflight, --slow-task-ms and the three streaming flags\nare daemon-wide settings; a request cannot override them.\n\n--max-inflight bounds concurrently running Verify requests: excess\nverifies get a structured `overloaded` error with a retry_after_ms hint\ninstead of queuing (planktonctl retries these automatically).\n\nStreaming deltas (`ApplyDeltas {{ack: \"enqueued\"}}`) queue, coalesce, and\nare verified at bounded lag by a background drain: --max-lag-deltas (64)\nand --max-lag-ms (50) bound how many deltas / how long a delta may wait\nbefore the batch is applied; --max-pending-deltas (4096) is the queue\nhigh-water mark past which new deltas are shed with `overloaded`.\n\n--slow-task-ms sets the slow_task warn threshold (default 250).\n--recorder-capacity sizes the in-memory flight recorder serving `Dump`\nrequests (default 2048 events; 0 disables it).\n\n--log-json appends every trace event as one JSON line to the given file;\n--log-level pretty-prints events at or above the level to stderr.\n\nFault injection for chaos testing: set PLANKTON_FAILPOINTS, e.g.\nPLANKTON_FAILPOINTS='task=panic*1,cache_save=io_err' (see README)."
    );
    exit(2);
}

fn builtin_scenario(spec: &str) -> Option<Network> {
    let (kind, param) = spec.split_once(':')?;
    match kind {
        "ring" => Some(ring_ospf(param.parse().ok()?).network),
        "fat-tree" => {
            Some(fat_tree_ospf(param.parse().ok()?, CoreStaticRoutes::MatchingOspf).network)
        }
        "ibgp" => Some(isp_ibgp_over_ospf(&AsTopologySpec::paper_as(param.parse().ok()?)).network),
        _ => None,
    }
}

fn main() {
    // Arm failpoints first: faults configured via PLANKTON_FAILPOINTS must
    // cover everything after this line, including network load and cache
    // warm-start. A malformed spec warns and stays disarmed — fault
    // injection config must never take down a production daemon.
    let failpoints = plankton_faultinject::init_from_env();
    if failpoints > 0 {
        eprintln!("planktond: {failpoints} failpoint(s) armed via PLANKTON_FAILPOINTS");
    }

    let mut config: Option<String> = None;
    let mut scenario: Option<String> = None;
    let mut socket: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut log_json: Option<String> = None;
    let mut log_level: Option<String> = None;
    let mut options = ServeOptions::default();
    let mut recorder_capacity: usize = plankton_telemetry::recorder::DEFAULT_CAPACITY;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--config" => config = Some(value()),
            "--scenario" => scenario = Some(value()),
            "--socket" => socket = Some(value()),
            "--cache-dir" => cache_dir = Some(value()),
            "--log-json" => log_json = Some(value()),
            "--log-level" => log_level = Some(value()),
            "--threads" => {
                options.workers = value().parse().unwrap_or_else(|_| usage());
                if options.workers == 0 {
                    usage();
                }
            }
            "--max-inflight" => {
                options.max_inflight = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            "--slow-task-ms" => options.slow_task_ms = value().parse().unwrap_or_else(|_| usage()),
            "--max-lag-deltas" => {
                options.max_lag_deltas = value().parse().unwrap_or_else(|_| usage());
            }
            "--max-lag-ms" => options.max_lag_ms = value().parse().unwrap_or_else(|_| usage()),
            "--max-pending-deltas" => {
                options.max_pending_deltas = value().parse().unwrap_or_else(|_| usage());
            }
            "--recorder-capacity" => {
                recorder_capacity = value().parse().unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
    }

    // The always-on flight recorder: post-mortem `Dump` works even when no
    // JSONL sink was configured ahead of the failure.
    plankton_telemetry::recorder::install_global(recorder_capacity);

    if let Some(path) = &log_json {
        if let Err(e) = plankton_telemetry::trace::init_json_file(path.as_ref()) {
            eprintln!("cannot open log file {path}: {e}");
            exit(1);
        }
    }
    if let Some(spec) = &log_level {
        let Some(level) = plankton_telemetry::Level::parse(spec) else {
            eprintln!("unknown log level {spec:?} (error, warn, info, debug, trace)");
            exit(2);
        };
        plankton_telemetry::trace::init_stderr(level);
    }

    let mut session = ServiceSession::new().with_options(options);
    if let Some(dir) = &cache_dir {
        session = session.with_cache_dir(dir);
    }
    if let Some(path) = &config {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        });
        let network = Network::from_json(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            exit(1);
        });
        session.load(network);
        eprintln!("planktond: loaded {path}");
    } else if let Some(spec) = &scenario {
        let Some(network) = builtin_scenario(spec) else {
            eprintln!("unknown scenario {spec:?} (ring:N, fat-tree:K, ibgp:ASN)");
            exit(2);
        };
        session.load(network);
        eprintln!("planktond: loaded built-in scenario {spec}");
    }

    // The background drain enforcing the bounded-lag contract for
    // `ApplyDeltas {ack: "enqueued"}`; stopping it (below) drains whatever
    // is still queued before the daemon persists and exits.
    let session = std::sync::Arc::new(session);
    let streaming = session.start_streaming();

    match socket {
        Some(path) => {
            #[cfg(unix)]
            {
                eprintln!(
                    "planktond: listening on {path} ({} worker threads)",
                    session.options().workers
                );
                if let Err(e) = plankton_service::serve_unix(&session, path.as_ref()) {
                    eprintln!("planktond: socket error: {e}");
                    exit(1);
                }
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                eprintln!("planktond: --socket requires a Unix platform");
                exit(2);
            }
        }
        None => {
            let stdin = io::stdin();
            let mut stdout = io::stdout();
            if let Err(e) = plankton_service::serve(&session, stdin.lock(), &mut stdout) {
                eprintln!("planktond: I/O error: {e}");
                exit(1);
            }
            let _ = stdout.flush();
        }
    }

    // Final drain: enqueued-but-unverified deltas are applied before the
    // cache is persisted, so nothing acknowledged is lost at shutdown.
    streaming.stop();

    // Persist the cache at exit (shutdown request or end of stream) so the
    // next daemon warm-starts. An explicit `Persist` request does the same
    // mid-flight.
    if cache_dir.is_some() && session.verifier().is_some() {
        match session.persist() {
            Ok(entries) => eprintln!("planktond: persisted {entries} cache entries"),
            Err(e) => eprintln!("planktond: cache persist failed: {e}"),
        }
    }

    // The last event of a graceful exit, then fsync the JSONL sink: the log
    // must end with `shutdown` on disk even if the machine dies right after.
    plankton_telemetry::trace::event(
        plankton_telemetry::Level::Info,
        "shutdown",
        &[plankton_telemetry::Field::u64(
            "parse_errors",
            session.parse_errors(),
        )],
    );
    plankton_telemetry::trace::sync_sinks();

    // Every malformed request got an Error reply inline, but a scripted
    // pipeline reads the exit code: surface that something in the stream
    // never parsed as a request.
    if session.parse_errors() > 0 {
        eprintln!(
            "planktond: {} request line(s) failed to parse",
            session.parse_errors()
        );
        exit(1);
    }
}
