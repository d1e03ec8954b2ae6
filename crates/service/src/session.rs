//! The service session: one loaded network, its incremental verifier, and
//! the stored reports follow-up queries read — shared by every client
//! connection.
//!
//! The session is a *shared-state core*: every method takes `&self`, so the
//! concurrent Unix-socket server hands one session to a thread per
//! connection. Reads (`Verify`, `Query`, `Stats`) run concurrently — a
//! verification clones the current analysis snapshot (`Arc`) and works
//! off-lock for its whole duration — while mutations (`Load`, `ApplyDelta`)
//! are serialized inside [`IncrementalVerifier`] and land as an atomic
//! copy-on-write snapshot swap. The shared
//! [`ResultCache`](plankton_core::ResultCache) means concurrent clients warm
//! each other's verifications.
//!
//! With a cache directory configured ([`ServiceSession::with_cache_dir`]),
//! the content-addressed result cache also survives process restarts:
//! `Load` warm-starts from `<dir>/cache.json` when the file's
//! fingerprint-scheme version matches, and the cache is written back on
//! daemon shutdown or an explicit `Persist` request.

use crate::proto::{
    error_kind, DeltaAck, DeltaAckMode, DeltaSummary, DumpEvent, LagSummary, PolicySpec, Query,
    ReportSummary, Request, Response, ServiceStats, TaskCostSummary, VerifyOptions,
    ViolationSummary, PROTO_FEATURES, PROTO_VERSION,
};
use crate::queue::{coalesce_batch, BatchFate, DeltaQueue, PushError};
use parking_lot::{Mutex, RwLock};
use plankton_config::{ConfigDelta, Network};
use plankton_core::{IncrementalVerifier, Plankton, PlanktonOptions, Tuning, VerificationReport};
use plankton_telemetry::trace::{self, Field, Level};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Retry hint handed to shed clients. A verify on any non-trivial network
/// takes longer than this, so an immediate retry storm is avoided without
/// making well-behaved clients wait out a long fixed penalty.
const SHED_RETRY_AFTER_MS: u64 = 100;

/// Process-global service-level instruments, resolved once. Per-request
/// series (`plankton_requests_total{kind}`, `plankton_request_seconds{kind}`)
/// go through the registry on each request instead — one short map lookup
/// against a full JSON parse is noise, and it keeps the kind set open.
struct ServiceMetrics {
    inflight: Arc<plankton_telemetry::Gauge>,
    parse_errors: Arc<plankton_telemetry::Counter>,
    connections_open: Arc<plankton_telemetry::Gauge>,
    connections_total: Arc<plankton_telemetry::Counter>,
    connections_drained: Arc<plankton_telemetry::Counter>,
    requests_shed: Arc<plankton_telemetry::Counter>,
    deadline_exceeded: Arc<plankton_telemetry::Counter>,
    cache_recoveries: Arc<plankton_telemetry::Counter>,
    request_panics: Arc<plankton_telemetry::Counter>,
}

fn service_metrics() -> &'static ServiceMetrics {
    static METRICS: OnceLock<ServiceMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = plankton_telemetry::metrics::global();
        // Build identity, exposed once so scrapes can tell which daemon
        // build (and cache fingerprint scheme) produced the series.
        let scheme = plankton_config::FINGERPRINT_SCHEME_VERSION.to_string();
        registry
            .gauge_with(
                "plankton_build_info",
                "Build identity of the daemon; constant 1, the labels carry the information.",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("fingerprint_scheme", &scheme),
                ],
            )
            .set(1);
        ServiceMetrics {
            inflight: registry.gauge(
                "plankton_requests_inflight",
                "Requests currently being handled.",
            ),
            parse_errors: registry.counter(
                "plankton_parse_errors_total",
                "Request lines that failed to parse.",
            ),
            connections_open: registry.gauge(
                "plankton_connections_open",
                "Client connections currently open (socket mode).",
            ),
            connections_total: registry.counter(
                "plankton_connections_total",
                "Client connections accepted since the daemon started.",
            ),
            connections_drained: registry.counter(
                "plankton_connections_drained_total",
                "Connections forcibly unblocked by the shutdown drain.",
            ),
            requests_shed: registry.counter(
                "plankton_requests_shed_total",
                "Verify requests refused with `overloaded` by the --max-inflight gate.",
            ),
            deadline_exceeded: registry.counter(
                "plankton_deadline_exceeded_total",
                "Verify requests abandoned at their deadline_ms budget.",
            ),
            cache_recoveries: registry.counter(
                "plankton_cache_recoveries_total",
                "Persisted-cache loads that failed and degraded to a cold start.",
            ),
            request_panics: registry.counter(
                "plankton_request_panics_total",
                "Request handlers that panicked and were contained as internal_panic errors.",
            ),
        }
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A stored report tagged with the analysis snapshot it was computed
/// against.
type SnapshotReport = (Arc<Plankton>, Arc<VerificationReport>);

/// A policy the background drain re-verifies after each drained batch:
/// every policy a `Verify` request has successfully run since load, with
/// the request's effective options (minus its deadline — a streaming
/// re-verify must not inherit a one-shot request's time budget).
#[derive(Clone)]
struct StreamingPolicy {
    spec: PolicySpec,
    options: PlanktonOptions,
    max_failures: usize,
}

/// Server-side state behind the request loop(s).
pub struct ServiceSession {
    verifier: RwLock<Option<Arc<IncrementalVerifier>>>,
    /// Serializes session-level mutations (`Load`, `ApplyDelta`) with each
    /// other: without it a `Load` could replace the verifier while a
    /// concurrent delta is applying to the old one — the delta would be
    /// acknowledged and then silently discarded with no defined order.
    mutate: Mutex<()>,
    /// Last full report per policy report name, for follow-up queries —
    /// tagged with the analysis snapshot it was computed against. PEC ids
    /// are partition-relative, so queries only read reports whose snapshot
    /// *is* the current one (`Arc::ptr_eq`); a verify that raced a delta and
    /// stored a report for the superseded network is simply never served.
    last_reports: Mutex<BTreeMap<String, SnapshotReport>>,
    verifies: AtomicU64,
    /// Request lines that failed to parse. The request loop keeps serving
    /// after a malformed line (one bad client line must not take the daemon
    /// down), but `planktond` exits non-zero at end of stream when any
    /// request failed to parse, so scripted pipelines cannot silently
    /// mistake a typo'd request for success.
    parse_errors: AtomicU64,
    /// Client connections currently open (socket mode).
    connections_open: AtomicU64,
    /// Client connections accepted over the session's lifetime.
    connections_served: AtomicU64,
    /// Connections forcibly unblocked by the shutdown drain.
    connections_drained: AtomicU64,
    /// Where the result cache is persisted across restarts, when configured.
    cache_dir: Option<PathBuf>,
    /// The CLI/default tuning layer ([`Tuning`]): admission bound, slow-task
    /// threshold, streaming lag and queue bounds. A request's
    /// `VerifyOptions::tuning` overlays this (request > CLI > default).
    tuning: Tuning,
    /// The streaming delta queue (`ApplyDeltas {ack: "enqueued"}`), drained
    /// by [`ServiceSession::start_streaming`]'s background thread or
    /// synchronously flushed by `Verify` / `ack: "verified"`.
    queue: Arc<DeltaQueue>,
    /// Policies the background drain re-verifies after each batch.
    streaming_policies: Mutex<BTreeMap<String, StreamingPolicy>>,
    /// `Verify` requests currently inside the verifier.
    verifies_inflight: AtomicU64,
    /// Engine tasks that panicked and were contained (lifetime).
    tasks_panicked: AtomicU64,
    /// Verifies refused by the admission gate (lifetime).
    requests_shed: AtomicU64,
    /// Verifies abandoned at their deadline (lifetime).
    deadline_exceeded: AtomicU64,
    /// Corrupt persisted-cache loads degraded to cold starts (lifetime).
    cache_recoveries: AtomicU64,
    started: Instant,
}

impl Default for ServiceSession {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceSession {
    /// File name of the persisted cache inside the cache directory.
    pub const CACHE_FILE: &'static str = "cache.json";

    /// An empty session (no network loaded).
    pub fn new() -> Self {
        ServiceSession {
            verifier: RwLock::new(None),
            mutate: Mutex::new(()),
            last_reports: Mutex::new(BTreeMap::new()),
            verifies: AtomicU64::new(0),
            parse_errors: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            connections_served: AtomicU64::new(0),
            connections_drained: AtomicU64::new(0),
            cache_dir: None,
            tuning: Tuning::default(),
            queue: Arc::new(DeltaQueue::new()),
            streaming_policies: Mutex::new(BTreeMap::new()),
            verifies_inflight: AtomicU64::new(0),
            tasks_panicked: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            cache_recoveries: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Configure a directory the result cache is persisted to (on shutdown
    /// and on `Persist` requests) and warm-started from (on `Load`),
    /// builder-style.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The configured cache directory, if any.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// Install the session-level (CLI) tuning layer, builder-style. Knobs a
    /// request sets in `VerifyOptions::tuning` overlay these.
    pub fn with_tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// The session-level tuning layer.
    pub fn tuning(&self) -> &Tuning {
        &self.tuning
    }

    /// The streaming delta queue.
    pub fn queue(&self) -> &DeltaQueue {
        &self.queue
    }

    /// Bound concurrently running `Verify` requests, builder-style
    /// (`planktond --max-inflight`). Excess verifies are shed with a
    /// structured `overloaded` reply carrying `retry_after_ms`.
    pub fn with_max_inflight(mut self, max: u64) -> Self {
        self.tuning.max_inflight = Some(max);
        self
    }

    /// Set the `slow_task` warn threshold applied to every verification,
    /// builder-style (`planktond --slow-task-ms`).
    pub fn with_slow_task_threshold(mut self, threshold: Duration) -> Self {
        self.tuning.slow_task_ms = Some(threshold.as_millis() as u64);
        self
    }

    /// The persisted-cache path, if a cache directory is configured.
    pub fn cache_file(&self) -> Option<PathBuf> {
        self.cache_dir.as_ref().map(|d| d.join(Self::CACHE_FILE))
    }

    /// Record one request line that failed to parse.
    pub fn note_parse_error(&self) {
        self.parse_errors.fetch_add(1, Ordering::Relaxed);
        service_metrics().parse_errors.inc();
    }

    /// Request lines that failed to parse since the session started.
    pub fn parse_errors(&self) -> u64 {
        self.parse_errors.load(Ordering::Relaxed)
    }

    /// Record one client connection opening (socket mode).
    pub fn connection_opened(&self) {
        self.connections_open.fetch_add(1, Ordering::Relaxed);
        self.connections_served.fetch_add(1, Ordering::Relaxed);
        service_metrics().connections_open.add(1);
        service_metrics().connections_total.inc();
    }

    /// Record one client connection closing (socket mode).
    pub fn connection_closed(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
        service_metrics().connections_open.sub(1);
    }

    /// Record one connection the shutdown drain forcibly unblocked.
    pub fn note_connection_drained(&self) {
        self.connections_drained.fetch_add(1, Ordering::Relaxed);
        service_metrics().connections_drained.inc();
    }

    /// Client connections currently open.
    pub fn connections_open(&self) -> u64 {
        self.connections_open.load(Ordering::Relaxed)
    }

    /// A session pre-loaded with a network.
    pub fn with_network(network: Network) -> Self {
        let s = Self::new();
        s.load(network);
        s
    }

    /// Load (or replace) the network. With a cache directory configured the
    /// fresh verifier warm-starts from the persisted cache — content keys
    /// guarantee entries from a different network (or a stale
    /// fingerprint-scheme version, which is rejected outright) can never be
    /// wrongly served.
    pub fn load(&self, network: Network) -> Response {
        let _serialize = self.mutate.lock();
        let devices = network.node_count();
        let links = network.topology.link_count();
        let verifier = Arc::new(IncrementalVerifier::new(network));
        let mut cache_warm_entries = 0;
        if let Some(path) = self.cache_file() {
            if path.exists() {
                match verifier.cache().load_from(&path) {
                    Ok(n) => cache_warm_entries = n,
                    Err(e) => {
                        // A corrupt/truncated snapshot (checksum mismatch,
                        // bad JSON, failpoint) degrades to a cold start —
                        // worst case is re-verification work, never a wrong
                        // answer served from a damaged cache.
                        self.cache_recoveries.fetch_add(1, Ordering::Relaxed);
                        service_metrics().cache_recoveries.inc();
                        let shown_path = path.display().to_string();
                        let error = e.to_string();
                        trace::event(
                            Level::Warn,
                            "cache_recovery",
                            &[Field::str("path", &shown_path), Field::str("error", &error)],
                        );
                        eprintln!("planktond: persisted cache unusable, cold-starting: {e}");
                    }
                }
            }
        }
        let snapshot = verifier.snapshot();
        *self.verifier.write() = Some(verifier);
        self.last_reports.lock().clear();
        self.streaming_policies.lock().clear();
        // Deltas enqueued against the replaced network are meaningless now.
        self.queue.clear();
        Response::Loaded {
            devices,
            links,
            pecs: snapshot.pecs().len(),
            active_pecs: snapshot.pecs().active_pecs().len(),
            cache_warm_entries,
        }
    }

    /// The session's verifier, if a network is loaded.
    pub fn verifier(&self) -> Option<Arc<IncrementalVerifier>> {
        self.verifier.read().clone()
    }

    /// Persist the result cache to the configured cache directory. Returns
    /// the number of entries written.
    pub fn persist(&self) -> Result<usize, String> {
        let Some(path) = self.cache_file() else {
            return Err("no --cache-dir configured".into());
        };
        let Some(verifier) = self.verifier() else {
            return Err("no network loaded".into());
        };
        verifier
            .cache()
            .save_to(&path)
            .map_err(|e| format!("cannot persist cache to {}: {e}", path.display()))
    }

    /// Handle one request: run it under a trace id for its causal chain
    /// (every event the handler emits — delta apply, key invalidation, task
    /// re-runs, report merge — shares it, and `Error` replies are stamped
    /// with it), record the per-kind latency and count, then dispatch. The
    /// request loop installs a per-line scope before parsing; that id is
    /// reused so the wire line and its handling share one chain. Direct
    /// callers (tests, embedding) get a fresh id here.
    pub fn handle(&self, request: &Request) -> Response {
        let kind = request.kind();
        let _trace_scope = match trace::current() {
            0 => Some(trace::scope(trace::next_trace_id())),
            _ => None,
        };
        trace::event(Level::Info, "request", &[Field::str("kind", kind)]);
        let metrics = service_metrics();
        metrics.inflight.add(1);
        let start = Instant::now();
        // A panic anywhere in a handler (engine join bug, shim edge case,
        // `internal_panic` failpoint) is contained to this request: the
        // client gets a structured error and the daemon keeps serving.
        // catch_unwind also keeps the inflight gauge and latency accounting
        // below panic-safe.
        let response =
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.dispatch(request)))
            {
                Ok(response) => response,
                Err(payload) => {
                    let message = panic_text(payload.as_ref());
                    metrics.request_panics.inc();
                    trace::event(
                        Level::Error,
                        "request_panicked",
                        &[Field::str("kind", kind), Field::str("message", &message)],
                    );
                    Response::error_kind(
                        error_kind::INTERNAL_PANIC,
                        format!("request handler panicked: {message}"),
                    )
                }
            };
        let registry = plankton_telemetry::metrics::global();
        registry
            .histogram_with(
                "plankton_request_seconds",
                "Request handling latency by request kind.",
                plankton_telemetry::Unit::Micros,
                &[("kind", kind)],
            )
            .observe(start.elapsed().as_micros() as u64);
        registry
            .counter_with(
                "plankton_requests_total",
                "Requests handled by request kind.",
                &[("kind", kind)],
            )
            .inc();
        metrics.inflight.sub(1);
        response
    }

    fn dispatch(&self, request: &Request) -> Response {
        match request {
            Request::Load { network } => {
                let problems = network.validate();
                if !problems.is_empty() {
                    let rendered: Vec<String> = problems.iter().map(|p| p.to_string()).collect();
                    return Response::error(format!(
                        "invalid configuration: {}",
                        rendered.join("; ")
                    ));
                }
                self.load(network.clone())
            }
            Request::Verify { policy, options } => self.verify(policy, options.as_ref()),
            Request::Hello => Response::Welcome {
                proto_version: PROTO_VERSION.to_string(),
                features: PROTO_FEATURES.iter().map(|f| f.to_string()).collect(),
            },
            Request::ApplyDeltas { deltas, ack } => self.apply_deltas(deltas, ack),
            Request::ApplyDelta { delta } => {
                let _serialize = self.mutate.lock();
                let Some(verifier) = self.verifier() else {
                    return Response::error("no network loaded");
                };
                // Program order: deltas this client enqueued earlier land
                // before this one.
                self.flush_queue_locked(&verifier);
                match verifier.apply_delta(delta) {
                    Ok(applied) => {
                        self.last_reports.lock().clear();
                        let snapshot = verifier.snapshot();
                        let network = snapshot.network();
                        Response::DeltaApplied(DeltaSummary {
                            kind: applied.kind.to_string(),
                            devices_touched: applied
                                .touch
                                .devices
                                .iter()
                                .map(|n| network.topology.node(*n).name.clone())
                                .collect(),
                            prefixes_touched: applied
                                .touch
                                .prefixes
                                .iter()
                                .map(|p| p.to_string())
                                .collect(),
                            topology_changed: applied.touch.topology,
                            pecs_touched: applied.pecs_touched.len(),
                            pecs_total: applied.pecs_total,
                        })
                    }
                    Err(e) => Response::error(e.to_string()),
                }
            }
            Request::Query { query } => self.query(query),
            Request::Stats => Response::Stats(self.stats()),
            Request::Metrics => Response::MetricsText {
                text: plankton_telemetry::metrics::global().render(),
            },
            Request::Persist => match self.persist() {
                Ok(entries) => {
                    // `Persist` is the durability point: the log tail goes
                    // to stable storage together with the cache snapshot.
                    trace::sync_sinks();
                    Response::Persisted {
                        entries,
                        path: self
                            .cache_file()
                            .expect("persist() checked the cache dir")
                            .display()
                            .to_string(),
                    }
                }
                Err(message) => Response::error(message),
            },
            Request::Shutdown => Response::Ok {
                message: "shutting down".into(),
            },
            Request::Dump { trace_id, last } => self.dump(*trace_id, *last),
            Request::Top { k } => self.top(*k),
        }
    }

    /// Answer `Dump`: the flight recorder's retained events, oldest first.
    fn dump(&self, trace_id: Option<u64>, last: Option<usize>) -> Response {
        let Some(recorder) = plankton_telemetry::recorder::global() else {
            return Response::error(
                "no flight recorder installed (planktond installs one by default; \
                 was it started with --recorder-capacity 0?)",
            );
        };
        let events = recorder
            .dump(trace_id, last)
            .into_iter()
            .map(|e| DumpEvent {
                seq: e.seq,
                mono_us: e.mono_us,
                trace: e.trace_id,
                level: e.level.as_str().to_string(),
                event: e.name,
                json: e.json,
            })
            .collect();
        Response::Dump {
            events,
            total_recorded: recorder.total_recorded(),
            dropped: recorder.dropped(),
        }
    }

    /// Answer `Top`: the K hottest (PEC × failure-set) tasks by total
    /// accumulated duration (`k` 0 = 10).
    fn top(&self, k: usize) -> Response {
        let costs = plankton_telemetry::taskstats::global();
        let all = costs.snapshot();
        let total_micros = all.iter().map(|r| r.total_micros).sum();
        let tasks_tracked = all.len() as u64;
        let rows = costs
            .top(if k == 0 { 10 } else { k })
            .into_iter()
            .map(|r| TaskCostSummary {
                pec: r.group,
                failures: r.label,
                runs: r.runs,
                total_micros: r.total_micros,
                max_micros: r.max_micros,
                states: r.states,
                cache_hits: r.cache_hits,
                panics: r.panics,
            })
            .collect();
        Response::Top {
            rows,
            total_micros,
            tasks_tracked,
        }
    }

    fn verify(&self, spec: &PolicySpec, options: Option<&VerifyOptions>) -> Response {
        // Admission control first: shedding is only useful if it costs
        // nothing, so it runs before snapshot pinning or policy building.
        // Increment-then-check keeps the gate race-free without a lock; the
        // guard decrements on every exit path, including panics.
        struct InflightGuard<'a>(&'a AtomicU64);
        impl Drop for InflightGuard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Relaxed);
            }
        }
        self.verifies_inflight.fetch_add(1, Ordering::Relaxed);
        let _inflight = InflightGuard(&self.verifies_inflight);
        if let Some(max) = self.tuning.max_inflight {
            if self.verifies_inflight.load(Ordering::Relaxed) > max {
                self.requests_shed.fetch_add(1, Ordering::Relaxed);
                service_metrics().requests_shed.inc();
                trace::event(
                    Level::Warn,
                    "request_shed",
                    &[Field::u64("max_inflight", max)],
                );
                return Response::overloaded(
                    format!("daemon at --max-inflight {max} verifies; retry later"),
                    SHED_RETRY_AFTER_MS,
                );
            }
        }
        let Some(verifier) = self.verifier() else {
            return Response::error("no network loaded");
        };
        // Read-your-writes: everything the client enqueued before this
        // verify is applied first (an empty queue makes this a no-op).
        self.flush_queue(&verifier);
        // Pin the snapshot for name resolution *and* verification: a delta
        // landing between the two must not tear this request.
        let snapshot = verifier.snapshot();
        let policy = match spec.build(snapshot.network()) {
            Ok(p) => p,
            Err(message) => return Response::error(message),
        };
        let defaults = VerifyOptions::default();
        let opts = options.unwrap_or(&defaults);
        // One precedence order for every knob: the request's `tuning`
        // overlays its own legacy fields (v1 `cores`/`deadline_ms`), which
        // overlay the session (CLI) layer; whatever is still unset falls
        // through to the defaults baked into PlanktonOptions.
        let legacy = Tuning {
            cores: (opts.cores > 0).then_some(opts.cores as u64),
            deadline_ms: (opts.deadline_ms > 0).then_some(opts.deadline_ms),
            ..Default::default()
        };
        let effective = opts.tuning.overlaid_on(&legacy).overlaid_on(&self.tuning);
        let mut plankton_options = PlanktonOptions::default();
        if !opts.restrict_prefixes.is_empty() {
            plankton_options = plankton_options.restricted_to(opts.restrict_prefixes.clone());
        }
        if !opts.stop_at_first {
            plankton_options = plankton_options.collect_all_violations();
        }
        effective.apply_to(&mut plankton_options);
        let deadline_ms = effective.deadline_ms.unwrap_or(0);
        let scenario = plankton_net::failure::FailureScenario::up_to(opts.max_failures);
        // The failure environment is keyed per task (each task's effective
        // failure set is in its content key), so `max_failures` stays out of
        // the policy fingerprint — a fault-tolerance verification's entries
        // then serve the no-failure tasks of later requests, and explored
        // failure scenarios pre-pay for matching link-down deltas.
        let policy_fp = spec.fingerprint();
        let (report, run) = snapshot.verify_with_cache(
            policy.as_ref(),
            policy_fp,
            &scenario,
            &plankton_options,
            verifier.cache(),
        );
        self.verifies.fetch_add(1, Ordering::Relaxed);
        // A run with contained task panics or an expired deadline is
        // *incomplete*: its verdict is not trustworthy, so it is neither
        // served as a report nor stored for follow-up queries. (The result
        // cache is already safe — incomplete per-task results are never
        // inserted — so a clean retry recomputes only what was abandoned.)
        if let Some(engine) = &report.engine {
            if engine.tasks_panicked > 0 {
                self.tasks_panicked
                    .fetch_add(engine.tasks_panicked, Ordering::Relaxed);
                let detail = engine
                    .failures
                    .first()
                    .map(|f| format!("task {}: {}", f.task, f.message))
                    .unwrap_or_else(|| "no failure detail".into());
                trace::event(
                    Level::Error,
                    "verify_task_panicked",
                    &[
                        Field::u64("tasks_panicked", engine.tasks_panicked),
                        Field::str("first_failure", &detail),
                    ],
                );
                return Response::error_kind(
                    error_kind::TASK_PANICKED,
                    format!(
                        "verification abandoned: {} task(s) panicked ({detail}); \
                         partial results were not cached",
                        engine.tasks_panicked
                    ),
                );
            }
        }
        if report.deadline_exceeded {
            self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            service_metrics().deadline_exceeded.inc();
            trace::event(
                Level::Warn,
                "verify_deadline_exceeded",
                &[Field::u64("deadline_ms", deadline_ms)],
            );
            return Response::error_kind(
                error_kind::DEADLINE_EXCEEDED,
                format!(
                    "verification exceeded its {deadline_ms}ms deadline; \
                     partial results were not served"
                ),
            );
        }
        let summary = ReportSummary::of(&report, run);
        self.last_reports
            .lock()
            .insert(report.policy.clone(), (snapshot, Arc::new(report)));
        // Register for streaming: the background drain re-verifies this
        // policy after every drained batch, with the same effective options
        // minus the deadline (a one-shot time budget must not recur).
        let mut streaming_options = plankton_options.clone();
        streaming_options.deadline = None;
        self.streaming_policies.lock().insert(
            summary.policy.clone(),
            StreamingPolicy {
                spec: spec.clone(),
                options: streaming_options,
                max_failures: opts.max_failures,
            },
        );
        Response::Report(summary)
    }

    /// Handle `ApplyDeltas {deltas, ack}` — the batched v2 delta surface.
    fn apply_deltas(&self, deltas: &[ConfigDelta], ack: &str) -> Response {
        let Some(mode) = DeltaAckMode::parse(ack) else {
            return Response::error(format!(
                "unknown ack mode {ack:?} (use \"verified\" or \"enqueued\")"
            ));
        };
        if deltas.is_empty() {
            return Response::DeltasAccepted {
                ack: mode.as_str().to_string(),
                deltas: Vec::new(),
                coalesced: 0,
                lag: self.lag_summary(),
            };
        }
        match mode {
            DeltaAckMode::Enqueued => self.enqueue_deltas(deltas),
            DeltaAckMode::Verified => self.apply_deltas_now(deltas),
        }
    }

    /// `ack: "enqueued"`: append to the streaming queue and return without
    /// waiting for the rebuild. Backpressure: at the high-water mark the
    /// whole request is refused with the `overloaded + retry_after_ms`
    /// contract (nothing past the shed point is enqueued).
    fn enqueue_deltas(&self, deltas: &[ConfigDelta]) -> Response {
        if self.verifier().is_none() {
            return Response::error("no network loaded");
        }
        let high_water = self.tuning.effective_max_pending_deltas();
        let mut acks = Vec::with_capacity(deltas.len());
        let mut coalesced = 0u64;
        for delta in deltas {
            match self.queue.push(delta.clone(), high_water) {
                Ok(folded) => {
                    coalesced += folded;
                    acks.push(DeltaAck {
                        kind: delta.kind().to_string(),
                        status: if folded > 0 { "coalesced" } else { "enqueued" }.to_string(),
                        detail: if folded > 0 {
                            format!("folded {folded} pending delta(s)")
                        } else {
                            String::new()
                        },
                    });
                }
                Err(PushError::HighWater) => {
                    let retry = self.tuning.effective_max_lag_ms().max(SHED_RETRY_AFTER_MS);
                    trace::event(
                        Level::Warn,
                        "deltas_shed",
                        &[Field::u64("high_water", high_water)],
                    );
                    return Response::overloaded(
                        format!(
                            "delta queue at high water ({high_water} pending); \
                             {} of {} deltas enqueued, retry the rest later",
                            acks.len(),
                            deltas.len()
                        ),
                        retry,
                    );
                }
                Err(PushError::Stopped) => {
                    return Response::error("daemon shutting down; delta queue stopped");
                }
            }
        }
        Response::DeltasAccepted {
            ack: "enqueued".to_string(),
            deltas: acks,
            coalesced,
            lag: self.lag_summary(),
        }
    }

    /// `ack: "verified"`: flush anything already pending (read-your-writes),
    /// coalesce the request's own batch, and apply it in one analysis
    /// rebuild before replying — per-delta acks report `applied`,
    /// `coalesced` or `rejected` (a rejected delta, e.g. a no-op, leaves the
    /// network unchanged exactly as sequential replay would).
    fn apply_deltas_now(&self, deltas: &[ConfigDelta]) -> Response {
        let _serialize = self.mutate.lock();
        let Some(verifier) = self.verifier() else {
            return Response::error("no network loaded");
        };
        self.flush_queue_locked(&verifier);
        let batch = coalesce_batch(deltas.to_vec());
        let outcome = verifier.apply_deltas(&batch.deltas);
        self.last_reports.lock().clear();
        let acks = deltas
            .iter()
            .zip(&batch.fates)
            .map(|(delta, fate)| match fate {
                BatchFate::Coalesced => DeltaAck {
                    kind: delta.kind().to_string(),
                    status: "coalesced".to_string(),
                    detail: String::new(),
                },
                BatchFate::Survivor { output } => match &outcome.outcomes[*output] {
                    Ok(applied) => DeltaAck {
                        kind: applied.kind.to_string(),
                        status: "applied".to_string(),
                        detail: format!(
                            "{} of {} PECs touched",
                            applied.pecs_touched.len(),
                            applied.pecs_total
                        ),
                    },
                    Err(e) => DeltaAck {
                        kind: delta.kind().to_string(),
                        status: "rejected".to_string(),
                        detail: e.to_string(),
                    },
                },
            })
            .collect();
        Response::DeltasAccepted {
            ack: "verified".to_string(),
            deltas: acks,
            coalesced: batch.coalesced,
            lag: self.lag_summary(),
        }
    }

    /// Apply everything pending in the streaming queue, serialized against
    /// other mutations. Called by `Verify` (read-your-writes: a verify must
    /// observe every delta the client enqueued before it).
    fn flush_queue(&self, verifier: &Arc<IncrementalVerifier>) {
        if self.queue.depth() == 0 {
            return;
        }
        let _serialize = self.mutate.lock();
        self.flush_queue_locked(verifier);
    }

    /// The mutate-lock-held flush body ([`Mutex`] here is not reentrant, so
    /// paths already holding the lock call this directly).
    fn flush_queue_locked(&self, verifier: &IncrementalVerifier) {
        let start = Instant::now();
        let batch = self.queue.take_all();
        if batch.is_empty() {
            return;
        }
        let (deltas, enqueued): (Vec<_>, Vec<_>) = batch.into_iter().unzip();
        let _ = verifier.apply_deltas(&deltas);
        self.last_reports.lock().clear();
        // Lag is enqueue→applied here; the caller's verify completes against
        // the flushed snapshot immediately after.
        self.queue.record_drain(&enqueued, start.elapsed());
    }

    /// Pending/oldest/percentile lag figures for `DeltasAccepted` replies.
    fn lag_summary(&self) -> LagSummary {
        let lag = self.queue.lag();
        LagSummary {
            pending: self.queue.depth(),
            oldest_ms: self
                .queue
                .oldest_age()
                .map(|age| age.as_millis() as u64)
                .unwrap_or(0),
            p50_ms: lag.p50_micros as f64 / 1_000.0,
            p99_ms: lag.p99_micros as f64 / 1_000.0,
        }
    }

    /// Drain everything pending in the streaming queue: apply it in one
    /// rebuild, then re-verify every registered streaming policy against
    /// the pinned post-batch snapshot so follow-up queries keep getting
    /// served. The take happens *under* the mutate lock — a concurrent
    /// `Verify` flush therefore either applies these deltas itself (and
    /// this drain takes an empty batch) or waits and pins the post-batch
    /// snapshot; a signalled batch can never fall between a flush and its
    /// pinned snapshot. Verification runs off the lock — a delta landing
    /// mid-verify just means the stored report fails its snapshot-identity
    /// check and is refreshed on the next drain.
    fn drain_pending(&self) {
        let start = Instant::now();
        let guard = self.mutate.lock();
        let batch = self.queue.take_all();
        if batch.is_empty() {
            return;
        }
        let (deltas, enqueued): (Vec<_>, Vec<_>) = batch.into_iter().unzip();
        let Some(verifier) = self.verifier() else {
            return; // Load raced the drain; its queue.clear() owns cleanup.
        };
        let outcome = verifier.apply_deltas(&deltas);
        self.last_reports.lock().clear();
        drop(guard);
        let snapshot = outcome.snapshot.clone();
        let policies: Vec<StreamingPolicy> =
            self.streaming_policies.lock().values().cloned().collect();
        let mut reverified = 0u64;
        for streaming in &policies {
            // A policy can stop building after a structural delta (e.g. its
            // device was removed); it is skipped, not fatal.
            let Ok(policy) = streaming.spec.build(snapshot.network()) else {
                continue;
            };
            let scenario = plankton_net::failure::FailureScenario::up_to(streaming.max_failures);
            let (report, _run) = snapshot.verify_with_cache(
                policy.as_ref(),
                streaming.spec.fingerprint(),
                &scenario,
                &streaming.options,
                verifier.cache(),
            );
            if let Some(engine) = &report.engine {
                if engine.tasks_panicked > 0 {
                    continue;
                }
            }
            reverified += 1;
            self.last_reports
                .lock()
                .insert(report.policy.clone(), (snapshot.clone(), Arc::new(report)));
        }
        self.queue.record_drain(&enqueued, start.elapsed());
        trace::event(
            Level::Info,
            "stream_drain",
            &[
                Field::u64("batch", deltas.len() as u64),
                Field::u64("applied", outcome.applied as u64),
                Field::u64("policies_reverified", reverified),
                Field::u64("elapsed_us", start.elapsed().as_micros() as u64),
            ],
        );
    }

    /// Start the background drain thread enforcing the bounded-lag contract:
    /// it wakes when `max_lag_deltas` deltas are pending or the oldest
    /// pending delta is `max_lag_ms` old (session tuning), drains the whole
    /// coalesced batch in one rebuild, and re-verifies streaming policies.
    /// Dropping (or `stop`ping) the handle drains what is left and joins.
    pub fn start_streaming(self: &Arc<Self>) -> StreamingHandle {
        let session = Arc::clone(self);
        let max_lag_deltas = self.tuning.effective_max_lag_deltas();
        let max_lag = Duration::from_millis(self.tuning.effective_max_lag_ms());
        let queue = Arc::clone(&self.queue);
        let thread = std::thread::Builder::new()
            .name("plankton-drain".into())
            .spawn(move || {
                while session.queue.wait_drain_needed(max_lag_deltas, max_lag) {
                    session.drain_pending();
                }
            })
            .expect("spawn streaming drain thread");
        StreamingHandle {
            queue,
            thread: Some(thread),
        }
    }

    fn query(&self, query: &Query) -> Response {
        match query {
            Query::Violations { policy } => match self.last_report(policy) {
                Some(report) => Response::Violations {
                    policy: policy.clone(),
                    violations: report.violations.iter().map(ViolationSummary::of).collect(),
                },
                None => Response::error(format!("no stored report for policy {policy:?}")),
            },
            Query::Pec { prefix } => {
                let Some(verifier) = self.verifier() else {
                    return Response::error("no network loaded");
                };
                let snapshot = verifier.snapshot();
                let pecs = snapshot.pecs();
                let Some(pec) = pecs.pec_containing(prefix.addr()) else {
                    return Response::error(format!("no PEC covers {prefix}"));
                };
                let verdicts = self
                    .last_reports
                    .lock()
                    .iter()
                    .filter(|(_, (of, _))| Arc::ptr_eq(of, &snapshot))
                    .map(|(name, (_, report))| {
                        let holds = !report.violations.iter().any(|v| v.pec == pec.id);
                        (name.clone(), holds)
                    })
                    .collect();
                Response::PecInfo {
                    pec: pec.id.0,
                    range: pec.range.to_string(),
                    prefixes: pec.prefixes.iter().map(|p| p.prefix.to_string()).collect(),
                    verdicts,
                }
            }
            Query::Trail { policy, index } => match self.last_report(policy) {
                Some(report) => match report.violations.get(*index) {
                    Some(v) => Response::Trail {
                        policy: policy.clone(),
                        index: *index,
                        trail: v.trail.to_string(),
                    },
                    None => Response::error(format!(
                        "report for {policy:?} has {} violations, no index {index}",
                        report.violations.len()
                    )),
                },
                None => Response::error(format!("no stored report for policy {policy:?}")),
            },
        }
    }

    /// Current aggregate statistics.
    pub fn stats(&self) -> ServiceStats {
        let verifier = self.verifier();
        let mut stats = ServiceStats {
            loaded: verifier.is_some(),
            verifies: self.verifies.load(Ordering::Relaxed),
            parse_errors: self.parse_errors(),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            connections_served: self.connections_served.load(Ordering::Relaxed),
            connections_drained: self.connections_drained.load(Ordering::Relaxed),
            tasks_panicked: self.tasks_panicked.load(Ordering::Relaxed),
            requests_shed: self.requests_shed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            cache_recoveries: self.cache_recoveries.load(Ordering::Relaxed),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            ..Default::default()
        };
        let counters = self.queue.counters();
        let lag = self.queue.lag();
        stats.queue_depth = counters.depth;
        stats.deltas_enqueued = counters.enqueued;
        stats.deltas_coalesced = counters.coalesced;
        stats.deltas_shed = counters.shed;
        stats.delta_batches = counters.batches;
        stats.max_batch = counters.max_batch;
        stats.verify_lag_p50_ms = lag.p50_micros as f64 / 1_000.0;
        stats.verify_lag_p99_ms = lag.p99_micros as f64 / 1_000.0;
        stats.streaming_policies = self.streaming_policies.lock().len() as u64;
        if let Some(v) = verifier {
            stats.deltas_applied = v.deltas_applied();
            stats.cache_entries = v.cache().len();
            stats.cache_hits = v.cache().hits();
            stats.cache_misses = v.cache().misses();
            stats.cache_evictions = v.cache().evictions();
            stats.cache_shard_entries = v.cache().shard_occupancy();
            let consulted = stats.cache_hits + stats.cache_misses;
            if consulted > 0 {
                stats.cache_hit_rate = stats.cache_hits as f64 / consulted as f64;
            }
            stats.pecs_total = v.snapshot().pecs().len();
        }
        stats
    }

    /// Look up a stored report — only if it was computed against the
    /// *current* analysis snapshot (PEC ids are partition-relative; a
    /// report that raced a delta must not be read against the new
    /// partition).
    pub fn last_report(&self, policy: &str) -> Option<Arc<VerificationReport>> {
        let current = self.verifier()?.snapshot();
        let reports = self.last_reports.lock();
        let (of, report) = reports.get(policy)?;
        Arc::ptr_eq(of, &current).then(|| report.clone())
    }

    /// Does any stored current-snapshot report violate for this PEC?
    pub fn pec_holds_everywhere(&self, pec: plankton_pec::PecId) -> bool {
        let Some(verifier) = self.verifier() else {
            return true;
        };
        let current = verifier.snapshot();
        self.last_reports
            .lock()
            .values()
            .filter(|(of, _)| Arc::ptr_eq(of, &current))
            .all(|(_, r)| !r.violations.iter().any(|v| v.pec == pec))
    }
}

/// Owner of the background drain thread started by
/// [`ServiceSession::start_streaming`]. `stop` (or dropping the handle)
/// stops the queue — pending deltas get one final drain, pushes start
/// failing with [`PushError::Stopped`] — and joins the thread.
pub struct StreamingHandle {
    queue: Arc<DeltaQueue>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl StreamingHandle {
    /// Stop the drain: final-drain what is pending, then join.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.queue.stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for StreamingHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}
