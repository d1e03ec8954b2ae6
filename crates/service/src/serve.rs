//! The request loop: newline-delimited JSON over any `BufRead`/`Write`
//! pair (stdin/stdout, a Unix socket connection, or an in-memory buffer in
//! tests), plus the concurrent Unix-socket server for `planktond --socket`.
//!
//! The socket server is thread-per-connection over one shared
//! [`ServiceSession`]: reads (`Verify`/`Query`/`Stats`) from different
//! clients run concurrently against the session's current analysis
//! snapshot, mutations are serialized inside the session, and a `Shutdown`
//! request from any client drains the others gracefully — their in-flight
//! request finishes and its response is written before the connection is
//! closed.

use crate::proto::{Request, Response};
use crate::session::ServiceSession;
use plankton_telemetry::trace::{self, Field, Level};
use std::io::{self, BufRead, Write};

/// Handle one request line, returning the response line and whether the
/// daemon should shut down afterwards.
pub fn handle_line(session: &ServiceSession, line: &str) -> (String, bool) {
    handle_line_at(session, line, 0)
}

/// [`handle_line`], tagged with the line's 1-based position in its stream
/// so a malformed request is attributable in the event log (position 0 =
/// caller did not track one).
pub fn handle_line_at(session: &ServiceSession, line: &str, position: u64) -> (String, bool) {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return (String::new(), false);
    }
    // One trace id per request *line*, installed before parsing so even a
    // malformed line's `parse_error` event and `Error` reply share an id a
    // client can `Dump`. `ServiceSession::handle` reuses the scope.
    let _line_scope = trace::scope(trace::next_trace_id());
    match serde_json::from_str::<Request>(trimmed) {
        Ok(request) => {
            let shutdown = matches!(request, Request::Shutdown);
            (session.handle(&request).to_line(), shutdown)
        }
        Err(e) => {
            session.note_parse_error();
            trace::event(
                Level::Warn,
                "parse_error",
                &[
                    Field::u64("byte_len", trimmed.len() as u64),
                    Field::u64("position", position),
                ],
            );
            (
                Response::error(format!("bad request: {e}")).to_line(),
                false,
            )
        }
    }
}

/// Serve requests from `reader`, writing one response line per request to
/// `writer`, until EOF or a `Shutdown` request. Returns whether a shutdown
/// was requested (as opposed to the peer closing the stream).
///
/// Requests on one stream are processed strictly in order, but a client may
/// *pipeline*: write several request lines without waiting, then read the
/// same number of response lines (`planktonctl --pipeline` does exactly
/// this) — the loop never requires lockstep turns.
pub fn serve<R: BufRead, W: Write>(
    session: &ServiceSession,
    reader: R,
    writer: &mut W,
) -> io::Result<bool> {
    let mut position: u64 = 0;
    for line in reader.lines() {
        let line = line?;
        position += 1;
        let (response, shutdown) = handle_line_at(session, &line, position);
        if response.is_empty() {
            continue;
        }
        // Failpoint: a failed/slow response write models a dead or stalled
        // client socket — the connection errors out, the daemon survives.
        plankton_faultinject::trigger("write")?;
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// The daemon's settings, one per `planktond` flag and held by the
/// [`ServiceSession`] ([`ServiceSession::with_options`]). A request cannot
/// override them: its own surface is [`VerifyOptions`](crate::VerifyOptions).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads handling *ready* connections (`--threads`). The
    /// connection count itself is unbounded: connections are
    /// readiness-multiplexed, so an idle client costs one fd, not a thread.
    pub workers: usize,
    /// Bound on concurrently running verifies (`--max-inflight`); excess
    /// verifies are shed with `overloaded + retry_after_ms`. `None` = no
    /// bound.
    pub max_inflight: Option<u64>,
    /// `slow_task` warn threshold in milliseconds (`--slow-task-ms`).
    pub slow_task_ms: u64,
    /// Streaming: drain once this many deltas are pending (`--max-lag-deltas`).
    pub max_lag_deltas: u64,
    /// Streaming: drain once the oldest pending delta is this old, even
    /// below the count threshold (`--max-lag-ms`).
    pub max_lag_ms: u64,
    /// Streaming: queue high-water mark past which further deltas are shed
    /// with `overloaded + retry_after_ms` (`--max-pending-deltas`).
    pub max_pending_deltas: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            max_inflight: None,
            slow_task_ms: plankton_core::DEFAULT_SLOW_TASK_MICROS / 1_000,
            max_lag_deltas: 64,
            max_lag_ms: 50,
            max_pending_deltas: 4096,
        }
    }
}

/// Upper bound on one response write. A client that stops reading stalls
/// its worker at most this long (then the connection errors out), so a
/// non-reading client can never wedge the worker pool or the shutdown
/// drain.
#[cfg(unix)]
const WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// Readiness-driven Unix-socket server state shared between the event loop
/// and the worker pool.
#[cfg(unix)]
mod unix_server {
    use super::*;
    use crate::readiness::{Poller, TOKEN_FIRST_CONN, TOKEN_LISTENER};
    use std::collections::{HashMap, VecDeque};
    use std::io::Read;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Instant;

    /// One live connection. Exactly one worker owns it at a time (its fd is
    /// registered `EPOLLONESHOT`), so `state` is uncontended in practice —
    /// the mutex is for the shutdown drain racing a worker.
    struct Conn {
        stream: UnixStream,
        state: Mutex<ConnState>,
    }

    #[derive(Default)]
    struct ConnState {
        /// Bytes read but not yet terminated by a newline.
        pending: Vec<u8>,
        /// 1-based line position for parse-error attribution.
        position: u64,
    }

    /// What a worker decided about a connection after pumping it.
    enum Pump {
        /// More may come: re-arm and wait.
        KeepOpen,
        /// EOF or connection error: deregister and drop.
        Close,
        /// The connection requested daemon shutdown (response already
        /// written).
        Shutdown,
    }

    /// Ready-connection tokens, fed by the event loop, drained by workers.
    struct WorkQueue {
        ready: Mutex<(VecDeque<u64>, bool)>,
        available: Condvar,
    }

    impl WorkQueue {
        fn new() -> WorkQueue {
            WorkQueue {
                ready: Mutex::new((VecDeque::new(), false)),
                available: Condvar::new(),
            }
        }

        fn push(&self, token: u64) {
            let mut ready = self.ready.lock().unwrap();
            if ready.1 {
                return;
            }
            ready.0.push_back(token);
            drop(ready);
            self.available.notify_one();
        }

        fn pop(&self) -> Option<u64> {
            let mut ready = self.ready.lock().unwrap();
            loop {
                if let Some(token) = ready.0.pop_front() {
                    return Some(token);
                }
                if ready.1 {
                    return None;
                }
                ready = self.available.wait(ready).unwrap();
            }
        }

        fn stop(&self) {
            self.ready.lock().unwrap().1 = true;
            self.available.notify_all();
        }
    }

    /// Write one response line to a nonblocking stream, bounded by
    /// [`WRITE_TIMEOUT`].
    fn write_line(stream: &UnixStream, line: &str) -> io::Result<()> {
        // Failpoint: a failed/slow response write models a dead or stalled
        // client socket — the connection errors out, the daemon survives.
        plankton_faultinject::trigger("write")?;
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let deadline = Instant::now() + WRITE_TIMEOUT;
        let mut writer = stream;
        let mut written = 0;
        while written < bytes.len() {
            match writer.write(&bytes[written..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "client closed mid-response",
                    ))
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "client stopped reading; response write timed out",
                        ));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Drain everything currently readable on `conn`, handling each
    /// complete request line in arrival order (pipelined clients get their
    /// responses strictly in request order: one worker owns the connection
    /// for the whole pump).
    fn pump(session: &ServiceSession, conn: &Conn) -> io::Result<Pump> {
        let mut state = conn.state.lock().unwrap();
        let mut chunk = [0u8; 16 * 1024];
        let mut saw_eof = false;
        loop {
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => state.pending.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Handle every complete line gathered so far.
        while let Some(end) = state.pending.iter().position(|b| *b == b'\n') {
            let line: Vec<u8> = state.pending.drain(..=end).collect();
            state.position += 1;
            let position = state.position;
            let line = String::from_utf8_lossy(&line[..end]);
            let (response, shutdown) = handle_line_at(session, &line, position);
            if !response.is_empty() {
                write_line(&conn.stream, &response)?;
            }
            if shutdown {
                return Ok(Pump::Shutdown);
            }
        }
        Ok(if saw_eof { Pump::Close } else { Pump::KeepOpen })
    }

    /// See [`serve_unix`].
    pub fn run(session: &ServiceSession, path: &std::path::Path) -> io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        // The listener is level-triggered: it stays ready while the backlog
        // is non-empty, so the event loop never misses queued connects.
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, false)?;
        let shutdown = AtomicBool::new(false);
        let conns: Mutex<HashMap<u64, Arc<Conn>>> = Mutex::new(HashMap::new());
        let queue = WorkQueue::new();
        let mut next_token = TOKEN_FIRST_CONN;

        let result = std::thread::scope(|scope| -> io::Result<()> {
            for _ in 0..session.options().workers.max(1) {
                let (queue, conns, poller) = (&queue, &conns, &poller);
                let (session, shutdown) = (&session, &shutdown);
                scope.spawn(move || {
                    while let Some(token) = queue.pop() {
                        let Some(conn) = conns.lock().unwrap().get(&token).cloned() else {
                            continue;
                        };
                        // Contain a panicking pump: request-level panics are
                        // already caught in `ServiceSession::handle`; this is
                        // the backstop for the serve loop itself, so one bad
                        // connection cannot abort the daemon via the scope
                        // join.
                        let verdict =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                pump(session, &conn)
                            }));
                        let close = match verdict {
                            Ok(Ok(Pump::KeepOpen)) => {
                                // Re-arm; a failure means the fd is already
                                // gone, so fall through to closing it.
                                poller.rearm(conn.stream.as_raw_fd(), token).is_err()
                            }
                            Ok(Ok(Pump::Close)) => true,
                            Ok(Ok(Pump::Shutdown)) => {
                                shutdown.store(true, Ordering::Relaxed);
                                queue.stop();
                                poller.wake();
                                true
                            }
                            Ok(Err(e)) => {
                                eprintln!("planktond: connection error: {e}");
                                true
                            }
                            Err(_) => {
                                eprintln!("planktond: connection handler panicked; dropped");
                                true
                            }
                        };
                        if close && conns.lock().unwrap().remove(&token).is_some() {
                            let _ = poller.delete(conn.stream.as_raw_fd());
                            session.connection_closed();
                        }
                    }
                });
            }

            // Event loop: accept new connections, dispatch readable ones.
            // It must *fall through* to the drain on any error — returning
            // early would leave workers parked in `pop` and the scope join
            // would hang.
            let mut loop_error: Option<io::Error> = None;
            let mut events = Vec::new();
            while !shutdown.load(Ordering::Relaxed) {
                if let Err(e) = poller.wait(&mut events, None) {
                    loop_error = Some(e);
                    break;
                }
                for event in &events {
                    if event.token != TOKEN_LISTENER {
                        queue.push(event.token);
                        continue;
                    }
                    // Accept everything queued behind this readiness edge.
                    loop {
                        let stream = match listener.accept() {
                            Ok((stream, _)) => stream,
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            // Transient accept errors (signal delivery, a
                            // client that reset before we picked up its
                            // connection) must not take the daemon down.
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    io::ErrorKind::Interrupted
                                        | io::ErrorKind::ConnectionAborted
                                        | io::ErrorKind::ConnectionReset
                                ) =>
                            {
                                let error = e.to_string();
                                trace::event(
                                    Level::Warn,
                                    "accept_retry",
                                    &[Field::str("error", &error)],
                                );
                                continue;
                            }
                            Err(e) => {
                                loop_error = Some(e);
                                break;
                            }
                        };
                        // Per-connection setup; a failure (e.g. EMFILE under
                        // fd pressure) drops only this connection.
                        if let Err(e) = stream.set_nonblocking(true) {
                            eprintln!("planktond: dropping connection (setup failed: {e})");
                            continue;
                        }
                        let token = next_token;
                        next_token += 1;
                        let conn = Arc::new(Conn {
                            stream,
                            state: Mutex::new(ConnState::default()),
                        });
                        conns.lock().unwrap().insert(token, Arc::clone(&conn));
                        if let Err(e) = poller.add(conn.stream.as_raw_fd(), token, true) {
                            conns.lock().unwrap().remove(&token);
                            eprintln!("planktond: dropping connection (register failed: {e})");
                            continue;
                        }
                        session.connection_opened();
                    }
                    if loop_error.is_some() {
                        break;
                    }
                }
                if loop_error.is_some() {
                    break;
                }
            }
            // Stop the workers; the scope join below waits for each to
            // finish the connection it is currently pumping (responses to
            // requests already in flight are written, bounded by the write
            // timeout).
            queue.stop();
            match loop_error {
                Some(e) => Err(e),
                None => Ok(()),
            }
        });
        // Drain: every connection still open gets both sides shut down, so
        // parked clients read EOF instead of hanging.
        for (_, conn) in conns.lock().unwrap().drain() {
            session.note_connection_drained();
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            session.connection_closed();
        }
        let _ = std::fs::remove_file(path);
        result
    }
}

/// Bind a Unix socket and serve connections concurrently, sharing one
/// `session` (deltas applied through one connection are visible to every
/// other: the whole point of a persistent daemon).
///
/// Connections are *readiness-multiplexed* (`poll(2)` —
/// [`crate::readiness`]): idle connections are parked in the
/// kernel at no per-connection thread cost, and a fixed worker pool
/// ([`ServeOptions::workers`]) pumps whichever connections are readable.
/// Connection fds are registered oneshot, so one worker owns a connection
/// at a time and pipelined requests keep strict response order. Connection
/// count may therefore dwarf `--threads`.
///
/// Returns when a client sends `Shutdown`: accepting stops, workers finish
/// the connections they are pumping (writing those responses), and every
/// remaining connection is shut down so parked clients read EOF.
#[cfg(unix)]
pub fn serve_unix(session: &ServiceSession, path: &std::path::Path) -> io::Result<()> {
    unix_server::run(session, path)
}

/// Connect to a daemon socket, retrying with a short backoff until
/// `timeout` elapses — a client racing the daemon's bind (tests, scripts
/// that just spawned `planktond`) should wait, not fail.
#[cfg(unix)]
pub fn connect_with_retry(
    path: &std::path::Path,
    timeout: std::time::Duration,
) -> io::Result<std::os::unix::net::UnixStream> {
    let start = std::time::Instant::now();
    let backoff = std::time::Duration::from_millis(20);
    loop {
        match std::os::unix::net::UnixStream::connect(path) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if start.elapsed() >= timeout {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("{}: {e} (gave up after {:?})", path.display(), timeout),
                    ));
                }
                std::thread::sleep(backoff);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{PolicySpec, Query};
    use plankton_config::scenarios::ring_ospf;
    use plankton_config::ConfigDelta;
    use std::io::Cursor;

    fn lines_of(output: &[u8]) -> Vec<Response> {
        String::from_utf8_lossy(output)
            .lines()
            .map(|l| serde_json::from_str(l).expect("response parses"))
            .collect()
    }

    #[test]
    fn ndjson_session_end_to_end() {
        let s = ring_ospf(4);
        let session = ServiceSession::new();
        let mut input = String::new();
        input.push_str(&format!(
            "{}\n",
            serde_json::to_string(&Request::Load {
                network: s.network.clone()
            })
            .unwrap()
        ));
        let verify = Request::Verify {
            policy: PolicySpec::LoopFreedom,
            options: Some(crate::proto::VerifyOptions {
                max_failures: 1,
                ..Default::default()
            }),
        };
        input.push_str(&format!("{}\n", serde_json::to_string(&verify).unwrap()));
        input.push_str(&format!(
            "{}\n",
            serde_json::to_string(&Request::ApplyDelta {
                delta: ConfigDelta::LinkDown {
                    link: s.ring.links[0]
                }
            })
            .unwrap()
        ));
        input.push_str(&format!("{}\n", serde_json::to_string(&verify).unwrap()));
        input.push_str("\"Stats\"\n\"Shutdown\"\n");

        let mut output = Vec::new();
        let shutdown = serve(&session, Cursor::new(input), &mut output).unwrap();
        assert!(shutdown);
        let responses = lines_of(&output);
        assert_eq!(responses.len(), 6);
        assert!(matches!(responses[0], Response::Loaded { pecs, .. } if pecs > 0));
        let Response::Report(first) = &responses[1] else {
            panic!("expected report, got {:?}", responses[1]);
        };
        assert!(first.holds);
        assert_eq!(first.run.tasks_cached, 0);
        assert!(matches!(&responses[2], Response::DeltaApplied(d) if d.kind == "link_down"));
        let Response::Report(second) = &responses[3] else {
            panic!("expected report, got {:?}", responses[3]);
        };
        // The first verification explored every single-link failure, so the
        // post-delta tasks whose effective failure set is {downed link} (or
        // {downed link} alone of the pairs already seen) hit the cache.
        assert!(second.run.tasks_cached > 0, "{:?}", second.run);
        assert!(second.run.tasks_rerun > 0, "pairs are new work");
        let Response::Stats(stats) = &responses[4] else {
            panic!("expected stats, got {:?}", responses[4]);
        };
        assert_eq!(stats.deltas_applied, 1);
        assert_eq!(stats.verifies, 2);
        assert!(stats.cache_hits > 0);
        assert!(matches!(&responses[5], Response::Ok { .. }));
    }

    #[test]
    fn bad_requests_do_not_kill_the_loop() {
        let session = ServiceSession::new();
        let input = "this is not json\n\"Stats\"\n";
        let mut output = Vec::new();
        let shutdown = serve(&session, Cursor::new(input), &mut output).unwrap();
        assert!(!shutdown, "EOF, not shutdown");
        let responses = lines_of(&output);
        assert!(matches!(&responses[0], Response::Error { .. }));
        assert!(matches!(&responses[1], Response::Stats(_)));
    }

    #[test]
    fn persist_without_a_cache_dir_is_an_error() {
        let session = ServiceSession::with_network(ring_ospf(4).network);
        let response = session.handle(&Request::Persist);
        assert!(
            matches!(&response, Response::Error { message, .. } if message.contains("cache-dir")),
            "{response:?}"
        );
    }

    #[test]
    fn persist_and_warm_start_through_a_cache_dir() {
        let dir = std::env::temp_dir().join(format!("plankton-persist-{}", std::process::id()));
        let s = ring_ospf(4);
        let verify = Request::Verify {
            policy: PolicySpec::LoopFreedom,
            options: None,
        };
        let cold_entries;
        {
            let session = ServiceSession::new().with_cache_dir(&dir);
            session.load(s.network.clone());
            let Response::Report(report) = session.handle(&verify) else {
                panic!("verify failed");
            };
            assert_eq!(report.run.tasks_cached, 0, "cold run");
            let Response::Persisted { entries, path } = session.handle(&Request::Persist) else {
                panic!("persist failed");
            };
            assert!(entries > 0);
            assert!(path.ends_with(ServiceSession::CACHE_FILE));
            cold_entries = entries;
        }
        // "Restart": a fresh session over the same cache dir warm-starts.
        let session = ServiceSession::new().with_cache_dir(&dir);
        let Response::Loaded {
            cache_warm_entries, ..
        } = session.load(s.network.clone())
        else {
            panic!("load failed");
        };
        assert_eq!(cache_warm_entries, cold_entries);
        let Response::Report(report) = session.handle(&verify) else {
            panic!("warm verify failed");
        };
        assert_eq!(report.run.tasks_rerun, 0, "{:?}", report.run);
        assert!(report.run.tasks_cached > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queries_read_the_stored_report() {
        let s = ring_ospf(4);
        let session = ServiceSession::with_network(s.network.clone());
        let verify = Request::Verify {
            policy: PolicySpec::Reachability {
                sources: vec![s.network.topology.node(s.ring.routers[1]).name.clone()],
            },
            options: Some(crate::proto::VerifyOptions {
                restrict_prefixes: vec![s.destination],
                ..Default::default()
            }),
        };
        let Response::Report(report) = session.handle(&verify) else {
            panic!("verify failed");
        };
        assert!(report.holds);
        let Response::Violations { violations, .. } = session.handle(&Request::Query {
            query: Query::Violations {
                policy: "reachability".into(),
            },
        }) else {
            panic!("query failed");
        };
        assert!(violations.is_empty());
        let response = session.handle(&Request::Query {
            query: Query::Pec {
                prefix: s.destination,
            },
        });
        assert!(matches!(response, Response::PecInfo { .. }), "{response:?}");
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_serves_and_shuts_down() {
        use std::io::{BufRead, BufReader, Write};
        let dir = std::env::temp_dir().join(format!("plankton-sock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("planktond.sock");
        let s = ring_ospf(4);
        let network = s.network.clone();
        let sock_path = path.clone();
        let server = std::thread::spawn(move || {
            let session = ServiceSession::with_network(network);
            serve_unix(&session, &sock_path).unwrap();
        });
        let stream =
            connect_with_retry(&path, std::time::Duration::from_secs(10)).expect("daemon binds");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(b"\"Stats\"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response: Response = serde_json::from_str(&line).unwrap();
        assert!(matches!(response, Response::Stats(st) if st.loaded && st.connections_open == 1));
        writer.write_all(b"\"Shutdown\"\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        server.join().unwrap();
        assert!(!path.exists(), "socket file cleaned up");
    }

    /// Two clients are served *at the same time*: the second connection gets
    /// its response while the first is still open and idle — which the old
    /// sequential accept loop could not do (it served connections to
    /// completion, one after another).
    #[cfg(unix)]
    #[test]
    fn concurrent_connections_are_served_while_earlier_ones_stay_open() {
        use std::io::{BufRead, BufReader, Write};
        let dir = std::env::temp_dir().join(format!("plankton-sock2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("planktond.sock");
        let s = ring_ospf(4);
        let network = s.network.clone();
        let sock_path = path.clone();
        let server = std::thread::spawn(move || {
            let session = ServiceSession::with_network(network);
            serve_unix(&session, &sock_path).unwrap();
        });
        let timeout = std::time::Duration::from_secs(10);
        // First connection: open, exchange one request, then stay idle.
        let first = connect_with_retry(&path, timeout).unwrap();
        let mut first_reader = BufReader::new(first.try_clone().unwrap());
        let mut first_writer = first;
        first_writer.write_all(b"\"Stats\"\n").unwrap();
        let mut line = String::new();
        first_reader.read_line(&mut line).unwrap();
        // Second connection while the first is still open: must be served.
        let second = connect_with_retry(&path, timeout).unwrap();
        let mut second_reader = BufReader::new(second.try_clone().unwrap());
        let mut second_writer = second;
        second_writer.write_all(b"\"Stats\"\n").unwrap();
        line.clear();
        second_reader.read_line(&mut line).unwrap();
        let response: Response = serde_json::from_str(&line).unwrap();
        let Response::Stats(stats) = response else {
            panic!("expected stats, got {line}");
        };
        assert_eq!(stats.connections_open, 2, "both connections live");
        assert_eq!(stats.connections_served, 2);
        // The first connection still works after the second was served.
        first_writer.write_all(b"\"Stats\"\n").unwrap();
        line.clear();
        first_reader.read_line(&mut line).unwrap();
        assert!(serde_json::from_str::<Response>(&line).is_ok());
        // Shutdown from the second connection drains the first (EOF).
        second_writer.write_all(b"\"Shutdown\"\n").unwrap();
        line.clear();
        second_reader.read_line(&mut line).unwrap();
        server.join().unwrap();
        line.clear();
        let drained = first_reader.read_line(&mut line).unwrap();
        assert_eq!(drained, 0, "drained connection reads EOF, not an error");
    }
}
