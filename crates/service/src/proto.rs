//! The wire protocol of the verification service: newline-delimited JSON.
//!
//! One request per line in, one response per line out. Requests and
//! responses are serde enums in externally-tagged form — e.g.
//!
//! ```json
//! {"Verify": {"policy": {"Reachability": {"sources": ["edge-1-0"]}}}}
//! ```
//!
//! Device references are *names*, not ids: names are stable across node-add
//! deltas (ids are append-only but names are what operators type), and the
//! session resolves them against the currently loaded topology.

use plankton_config::{ConfigDelta, Network};
use plankton_core::{
    IncrementalRunStats, PhaseTimings, PlanktonOptions, VerificationReport, Violation,
};
use plankton_net::failure::FailureScenario;
use plankton_net::ip::Prefix;
use plankton_net::topology::NodeId;
use plankton_policy::{
    BlackholeFreedom, BoundedPathLength, LoopFreedom, Policy, Reachability, Waypoint,
};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The protocol version answered by [`Response::Welcome`]. Major bumps mean
/// incompatible changes (a client refusing an unknown major is correct);
/// minor bumps are additive — v1 request lines parse unchanged under v2.
/// 3.0 removed `DeltaApplied`'s four advisory touch fields and the applied
/// `DeltaAck` detail that echoed them; request lines are unchanged.
pub const PROTO_VERSION: &str = "3.0";
/// The major component of [`PROTO_VERSION`], for client-side refusal.
pub const PROTO_VERSION_MAJOR: u64 = 3;
/// Capabilities advertised by [`Response::Welcome`].
pub const PROTO_FEATURES: [&str; 4] = ["streaming", "dump", "top", "persist"];

/// How `ApplyDeltas` acknowledges: synchronously applied, or enqueued into
/// the streaming queue for the bounded-lag drain. On the wire this is the
/// `ack` string field: `"verified"` (the default) or `"enqueued"`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeltaAckMode {
    /// Flush the queue, then apply this batch before responding: a
    /// subsequent `Verify` is guaranteed to reflect every delta. This is
    /// the previously *implicit* `ApplyDelta` contract, now explicit.
    #[default]
    Verified,
    /// Coalesce into the streaming queue and return immediately; the
    /// background drain applies and verifies within the lag bounds.
    Enqueued,
}

impl DeltaAckMode {
    /// Parse the wire string (empty = the `"verified"` default).
    pub fn parse(s: &str) -> Option<DeltaAckMode> {
        match s {
            "" | "verified" => Some(DeltaAckMode::Verified),
            "enqueued" => Some(DeltaAckMode::Enqueued),
            _ => None,
        }
    }

    /// The wire string.
    pub fn as_str(&self) -> &'static str {
        match self {
            DeltaAckMode::Verified => "verified",
            DeltaAckMode::Enqueued => "enqueued",
        }
    }
}

/// Which policy to verify, with every parameter on the wire (the policy
/// cache fingerprint is derived from this spec, so two specs that could
/// yield different verdicts always hash differently).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Every source reaches the destination prefix's owners.
    Reachability {
        /// Source device names.
        sources: Vec<String>,
    },
    /// No forwarding loops anywhere.
    LoopFreedom,
    /// No blackholes (configured destinations are delivered).
    BlackholeFreedom,
    /// Traffic from the sources traverses one of the waypoints.
    Waypoint {
        /// Source device names.
        sources: Vec<String>,
        /// Waypoint device names.
        waypoints: Vec<String>,
    },
    /// Paths from the sources stay within a hop bound.
    BoundedPathLength {
        /// Source device names.
        sources: Vec<String>,
        /// Maximum allowed hops.
        max_hops: usize,
    },
}

impl PolicySpec {
    /// The cache fingerprint of this spec (covers every parameter).
    pub fn fingerprint(&self) -> u64 {
        plankton_config::fingerprint_of(self)
    }

    /// Resolve device names and build the policy object. An empty source
    /// or waypoint list is refused: a policy quantified over no sources
    /// would hold vacuously.
    pub fn build(&self, network: &Network) -> Result<Box<dyn Policy>, String> {
        let resolve = |role: &str, names: &[String]| -> Result<Vec<NodeId>, String> {
            if names.is_empty() {
                return Err(format!("the policy needs at least one {role}"));
            }
            names
                .iter()
                .map(|name| {
                    network
                        .topology
                        .node_by_name(name)
                        .ok_or_else(|| format!("unknown device {name:?}"))
                })
                .collect()
        };
        Ok(match self {
            PolicySpec::Reachability { sources } => {
                Box::new(Reachability::new(resolve("source", sources)?))
            }
            PolicySpec::LoopFreedom => Box::new(LoopFreedom::everywhere()),
            PolicySpec::BlackholeFreedom => Box::<BlackholeFreedom>::default(),
            PolicySpec::Waypoint { sources, waypoints } => Box::new(Waypoint::new(
                resolve("source", sources)?,
                resolve("waypoint", waypoints)?,
            )),
            PolicySpec::BoundedPathLength { sources, max_hops } => Box::new(
                BoundedPathLength::new(resolve("source", sources)?, *max_hops),
            ),
        })
    }
}

/// Per-request verification options (all fields optional on the wire) —
/// with [`PolicySpec`], the whole verification question. `planktond`'s own
/// settings (workers, admission bound, slow-task threshold, streaming lag)
/// are daemon-wide and not part of a request.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct VerifyOptions {
    /// Explore up to this many simultaneous link failures (default 0).
    #[serde(default)]
    pub max_failures: usize,
    /// Restrict verification to PECs overlapping these prefixes (empty =
    /// every active PEC).
    #[serde(default)]
    pub restrict_prefixes: Vec<Prefix>,
    /// Stop at the first violation instead of collecting all of them. The
    /// service defaults to *collecting all* — a cache serving many queries
    /// wants complete, deterministic per-task outcomes.
    #[serde(default)]
    pub stop_at_first: bool,
    /// Engine worker threads (0 or 1 = one worker).
    #[serde(default)]
    pub cores: usize,
    /// Abandon the verification after this many milliseconds and answer
    /// with `Error {kind: "deadline_exceeded"}` instead of a report
    /// (0 = no deadline). The abandoned run's partial results are never
    /// cached and never stored for queries.
    #[serde(default)]
    pub deadline_ms: u64,
}

impl VerifyOptions {
    /// The verifier options and failure environment these options ask for —
    /// the one resolution `planktond`'s `Verify`, its streaming re-verify and
    /// `plankton verify` share. Everything not on the wire keeps its
    /// [`PlanktonOptions::default`] (all §4 optimizations on); the deadline
    /// starts counting now.
    pub fn resolve(&self) -> (PlanktonOptions, FailureScenario) {
        let mut options = PlanktonOptions::with_cores(self.cores);
        if !self.restrict_prefixes.is_empty() {
            options = options.restricted_to(self.restrict_prefixes.clone());
        }
        if !self.stop_at_first {
            options = options.collect_all_violations();
        }
        if self.deadline_ms > 0 {
            options = options.with_deadline(Duration::from_millis(self.deadline_ms));
        }
        (options, FailureScenario::up_to(self.max_failures))
    }
}

/// Follow-up queries against the session's last results.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Query {
    /// Violations of the last verification of the named policy
    /// ("reachability", "loop-freedom", ...).
    Violations {
        /// The policy report name.
        policy: String,
    },
    /// Which PEC covers a prefix, and its verdict in every stored report.
    Pec {
        /// The prefix to look up.
        prefix: Prefix,
    },
    /// The full counterexample trail of one violation of a stored report.
    Trail {
        /// The policy report name.
        policy: String,
        /// Index into the report's violation list.
        index: usize,
    },
}

/// A request line.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Request {
    /// Load (or replace) the network under verification.
    Load {
        /// The network document (`Network::to_json` format).
        network: Network,
    },
    /// Verify a policy on the current network, incrementally.
    Verify {
        /// The policy to verify.
        policy: PolicySpec,
        /// Options (defaults when omitted).
        #[serde(default)]
        options: Option<VerifyOptions>,
    },
    /// Capability handshake: answered with [`Response::Welcome`]. v1
    /// clients never send it and are untouched; `planktonctl` sends it once
    /// per connection and refuses an unknown major version.
    Hello,
    /// Apply one configuration delta, synchronously: exactly a one-element
    /// `ApplyDeltas {ack: "verified"}` — the same session routine applies
    /// the pending queue and this delta in one rebuild — answered, for wire
    /// compatibility, with [`Response::DeltaApplied`] for an applied delta
    /// and an `Error` carrying the `rejected` detail otherwise.
    ApplyDelta {
        /// The delta.
        delta: ConfigDelta,
    },
    /// Apply a batch of deltas. `ack: "verified"` (default) flushes the
    /// streaming queue and applies the batch before responding;
    /// `ack: "enqueued"` coalesces into the queue and returns immediately,
    /// leaving verification to the bounded-lag background drain. Answered
    /// with [`Response::DeltasAccepted`].
    ApplyDeltas {
        /// The deltas, applied in order (after coalescing).
        deltas: Vec<ConfigDelta>,
        /// `"verified"` (default) or `"enqueued"` — see [`DeltaAckMode`].
        #[serde(default)]
        ack: String,
    },
    /// Query stored results.
    Query {
        /// The query.
        query: Query,
    },
    /// Service statistics.
    Stats,
    /// The process-global and the session's metrics registries, rendered as
    /// Prometheus-style text exposition (answered with [`Response::MetricsText`]).
    Metrics,
    /// Write the result cache to the daemon's `--cache-dir` now (it is also
    /// written automatically on shutdown). Errors when no cache directory
    /// is configured.
    Persist,
    /// Stop the daemon: stop accepting connections, drain in-flight
    /// requests, persist the cache when a `--cache-dir` is configured.
    Shutdown,
    /// Recent flight-recorder events — the post-hoc view of what the daemon
    /// just did, available even with no `--log-json` sink configured.
    /// Answered with [`Response::Dump`].
    Dump {
        /// Only events of this trace id (an `Error` reply carries its
        /// `trace_id`, so a failed request's causal chain is one `Dump`
        /// away). `None` returns every retained event.
        #[serde(default)]
        trace_id: Option<u64>,
        /// Only the last N events (applied after the trace filter).
        #[serde(default)]
        last: Option<usize>,
    },
    /// The K hottest (PEC × failure-set) tasks by accumulated duration.
    /// Answered with [`Response::Top`].
    Top {
        /// Rows to return (0 = the default of 10).
        #[serde(default)]
        k: usize,
    },
}

impl Request {
    /// The request's kind tag, the `kind` label of the per-request metrics
    /// (`plankton_requests_total`, `plankton_request_seconds`).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Load { .. } => "load",
            Request::Verify { .. } => "verify",
            Request::Hello => "hello",
            Request::ApplyDelta { .. } => "apply_delta",
            Request::ApplyDeltas { .. } => "apply_deltas",
            Request::Query { .. } => "query",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Persist => "persist",
            Request::Shutdown => "shutdown",
            Request::Dump { .. } => "dump",
            Request::Top { .. } => "top",
        }
    }
}

/// One flight-recorder event on the wire.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DumpEvent {
    /// Recorder sequence number (global, monotonically increasing).
    pub seq: u64,
    /// Monotonic microseconds since the recorder was created.
    pub mono_us: u64,
    /// The trace id the event was emitted under (0 = none).
    pub trace: u64,
    /// Severity name (`trace|debug|info|warn|error`).
    pub level: String,
    /// The event name (`request`, `slow_task`, ...).
    pub event: String,
    /// The full JSONL rendering (wall-clock timestamp and all fields).
    pub json: String,
}

/// One row of the hottest-tasks table: the accumulated cost of a single
/// (PEC × failure-set) task identity.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TaskCostSummary {
    /// The PEC id.
    pub pec: u64,
    /// The failure set, rendered.
    pub failures: String,
    /// Completed executions.
    pub runs: u64,
    /// Total execution time, microseconds.
    pub total_micros: u64,
    /// Longest single execution, microseconds.
    pub max_micros: u64,
    /// Model-checker states explored across executions.
    pub states: u64,
    /// Executions avoided entirely by the result cache.
    pub cache_hits: u64,
    /// Executions that panicked.
    pub panics: u64,
}

/// One violation, summarized for the wire.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ViolationSummary {
    /// The PEC id.
    pub pec: u32,
    /// The most specific prefix of that PEC.
    pub prefix: Option<String>,
    /// The failure scenario, rendered.
    pub failures: String,
    /// The policy's reason.
    pub reason: String,
    /// Non-deterministic protocol choices in the counterexample trail.
    pub nondeterministic_steps: usize,
}

impl ViolationSummary {
    /// Summarize a report violation.
    pub fn of(v: &Violation) -> Self {
        ViolationSummary {
            pec: v.pec.0,
            prefix: v.prefix.map(|p| p.to_string()),
            failures: v.failures.to_string(),
            reason: v.reason.clone(),
            nondeterministic_steps: v.trail.nondeterministic_steps(),
        }
    }
}

/// A verification report, summarized for the wire.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReportSummary {
    /// The policy report name.
    pub policy: String,
    /// Did the policy hold?
    pub holds: bool,
    /// Number of violations found.
    pub violations: usize,
    /// The first violation, if any.
    pub first_violation: Option<ViolationSummary>,
    /// PECs whose verdict the request needed.
    pub pecs_verified: usize,
    /// Failure scenarios explored per PEC.
    pub failure_sets_explored: usize,
    /// Converged data planes the policy was evaluated on.
    pub data_planes_checked: u64,
    /// Model-checker states explored (cached + fresh).
    pub states_explored: u64,
    /// Wall-clock milliseconds.
    pub elapsed_ms: u64,
    /// Where the wall time went, per phase. Carried explicitly here because
    /// [`VerificationReport`] skips it in serialization (it would perturb
    /// normalized-report identity checks).
    #[serde(default)]
    pub phase_timings: PhaseTimings,
    /// What the incremental layer did (re-explored vs cached).
    pub run: IncrementalRunStats,
}

impl ReportSummary {
    /// Summarize a report plus its incremental run statistics.
    pub fn of(report: &VerificationReport, run: IncrementalRunStats) -> Self {
        ReportSummary {
            policy: report.policy.clone(),
            holds: report.holds(),
            violations: report.violations.len(),
            first_violation: report.first_violation().map(ViolationSummary::of),
            pecs_verified: report.pecs_verified,
            failure_sets_explored: report.failure_sets_explored,
            data_planes_checked: report.data_planes_checked,
            states_explored: report.stats.states_explored(),
            elapsed_ms: report.elapsed.as_millis() as u64,
            phase_timings: report.phases,
            run,
        }
    }
}

/// The result of an `ApplyDelta` request. What the delta made stale is
/// decided by content keys at the next `Verify`, whose `run` reports it
/// (`tasks_rerun`, `pecs_reexplored`, `key_misses`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeltaSummary {
    /// The delta kind tag.
    pub kind: String,
    /// Total PECs in the new partition.
    pub pecs_total: usize,
}

/// One delta's fate inside a `DeltasAccepted` response, in request order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeltaAck {
    /// The delta kind tag.
    pub kind: String,
    /// `"applied"` (took effect now), `"enqueued"` (pending in the
    /// streaming queue), `"coalesced"` (folded into another pending delta —
    /// its effect survives there), or `"rejected"` (apply error; the
    /// network is unchanged by this delta).
    pub status: String,
    /// For `"rejected"`: the apply error.
    #[serde(default)]
    pub detail: String,
}

/// The streaming queue's lag picture at response time.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LagSummary {
    /// Deltas pending in the queue (after coalescing).
    #[serde(default)]
    pub pending: u64,
    /// Age of the oldest pending delta, milliseconds.
    #[serde(default)]
    pub oldest_ms: u64,
    /// Median enqueue→verified lag over recent drains, milliseconds.
    #[serde(default)]
    pub p50_ms: f64,
    /// 99th-percentile enqueue→verified lag over recent drains, milliseconds.
    #[serde(default)]
    pub p99_ms: f64,
}

/// Aggregate statistics of the running service: a view of the instruments in
/// the session's registry that `Metrics` renders. Each field's doc gives its scope: the
/// *session* (its lifetime, across `Load`s), the *network* or *cache* the last `Load`
/// installed, or *live*.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Is a network loaded? Live.
    pub loaded: bool,
    /// Deltas applied. Network.
    pub deltas_applied: u64,
    /// Verify requests admitted that ran the verifier. Session.
    pub verifies: u64,
    /// Resident result-cache entries. Cache.
    pub cache_entries: usize,
    /// Per-task cache key hits. Session.
    pub cache_hits: u64,
    /// Per-task cache key misses. Session.
    pub cache_misses: u64,
    /// Request lines that failed to parse (the daemon replies with an `Error` and keeps
    /// serving, but exits non-zero at end of stream). Session.
    #[serde(default)]
    pub parse_errors: u64,
    /// Entries evicted by the cache capacity bound (second chance). Session.
    pub cache_evictions: u64,
    /// Client connections currently open (socket mode; 0 on stdio). Live.
    #[serde(default)]
    pub connections_open: u64,
    /// Client connections accepted. Session.
    #[serde(default)]
    pub connections_served: u64,
    /// Connections forcibly unblocked by the shutdown drain (their streams were shut
    /// down while a request might still have been in flight). Session.
    #[serde(default)]
    pub connections_drained: u64,
    /// Resident result-cache entries per shard, in shard order (occupancy
    /// skew means the key hash is not spreading). Cache.
    #[serde(default)]
    pub cache_shard_entries: Vec<usize>,
    /// Cache hit rate, `hits / (hits + misses)` (0.0 when the cache was
    /// never consulted). Session.
    #[serde(default)]
    pub cache_hit_rate: f64,
    /// PECs in the partition. Network.
    pub pecs_total: usize,
    /// Milliseconds since the session started.
    pub uptime_ms: u64,
    /// Engine tasks that panicked and were contained as structured errors,
    /// in `Verify` requests and streaming re-verifies alike. Session.
    #[serde(default)]
    pub tasks_panicked: u64,
    /// Verify requests refused with `overloaded` by the `--max-inflight`
    /// admission gate. Session.
    #[serde(default)]
    pub requests_shed: u64,
    /// Verify requests abandoned at their `deadline_ms` budget. Session.
    #[serde(default)]
    pub deadline_exceeded: u64,
    /// Persisted-cache loads that failed (corrupt/truncated/stale snapshot)
    /// and degraded to a cold start instead of an error. Session.
    #[serde(default)]
    pub cache_recoveries: u64,
    /// Deltas pending in the streaming queue (after coalescing). Live.
    #[serde(default)]
    pub queue_depth: u64,
    /// Deltas accepted into the streaming queue. Session.
    #[serde(default)]
    pub deltas_enqueued: u64,
    /// Pending deltas coalesced away before verification (the work the
    /// queue saved). Session.
    #[serde(default)]
    pub deltas_coalesced: u64,
    /// Deltas shed at the queue high-water mark (`--max-pending-deltas`). Session.
    #[serde(default)]
    pub deltas_shed: u64,
    /// Coalesced batches drained from the streaming queue. Session.
    #[serde(default)]
    pub delta_batches: u64,
    /// Largest drained batch. Session.
    #[serde(default)]
    pub max_batch: u64,
    /// Median enqueue→verified lag over recent drains, milliseconds. Session.
    #[serde(default)]
    pub verify_lag_p50_ms: f64,
    /// 99th-percentile enqueue→verified lag over recent drains, milliseconds. Session.
    #[serde(default)]
    pub verify_lag_p99_ms: f64,
    /// Policies the background drain re-verifies after each batch (every
    /// policy a `Verify` request has run since load). Network.
    #[serde(default)]
    pub streaming_policies: u64,
}

/// A response line.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Response {
    /// Generic success.
    Ok {
        /// Human-readable detail.
        message: String,
    },
    /// A network was loaded.
    Loaded {
        /// Devices in the topology.
        devices: usize,
        /// Links in the topology.
        links: usize,
        /// PECs computed.
        pecs: usize,
        /// PECs carrying configuration.
        active_pecs: usize,
        /// Result-cache entries warm-started from the persisted cache file
        /// (0 without `--cache-dir`, on a cold start, or when the persisted
        /// snapshot's fingerprint-scheme version was stale and rejected).
        #[serde(default)]
        cache_warm_entries: usize,
    },
    /// The capability handshake reply.
    Welcome {
        /// The protocol version ([`PROTO_VERSION`]), `"major.minor"`.
        proto_version: String,
        /// Advertised capabilities ([`PROTO_FEATURES`]).
        features: Vec<String>,
    },
    /// A verification finished.
    Report(ReportSummary),
    /// A delta was applied.
    DeltaApplied(DeltaSummary),
    /// A delta batch was accepted (`ApplyDeltas`).
    DeltasAccepted {
        /// The ack mode that was honored (`"verified"` or `"enqueued"`).
        ack: String,
        /// Per-delta fates, in request order.
        deltas: Vec<DeltaAck>,
        /// Deltas coalesced away by this request (within the batch and
        /// against already-pending deltas).
        #[serde(default)]
        coalesced: u64,
        /// The queue's lag picture after this request.
        #[serde(default)]
        lag: LagSummary,
    },
    /// Violations of a stored report.
    Violations {
        /// The policy report name.
        policy: String,
        /// The violations.
        violations: Vec<ViolationSummary>,
    },
    /// PEC lookup result.
    PecInfo {
        /// The PEC id.
        pec: u32,
        /// The PEC's address range, rendered.
        range: String,
        /// Contributing prefixes, rendered.
        prefixes: Vec<String>,
        /// `(policy, holds-for-this-pec)` per stored report.
        verdicts: Vec<(String, bool)>,
    },
    /// A counterexample trail, rendered.
    Trail {
        /// The policy report name.
        policy: String,
        /// The violation index.
        index: usize,
        /// The rendered trail (failure scenario + RPVP steps).
        trail: String,
    },
    /// Service statistics.
    Stats(ServiceStats),
    /// Both metrics registries in Prometheus text exposition format.
    MetricsText {
        /// The rendered exposition.
        text: String,
    },
    /// The result cache was persisted.
    Persisted {
        /// Entries written.
        entries: usize,
        /// The file they were written to.
        path: String,
    },
    /// Recent flight-recorder events, oldest first.
    Dump {
        /// The retained events matching the request's filters.
        events: Vec<DumpEvent>,
        /// Events ever recorded (including overwritten ones).
        total_recorded: u64,
        /// Events lost to ring overwriting.
        dropped: u64,
    },
    /// The hottest-tasks attribution table, hottest first.
    Top {
        /// The K hottest (PEC × failure-set) rows by total duration.
        rows: Vec<TaskCostSummary>,
        /// Sum of `total_micros` over *every* tracked task (not just the
        /// returned rows) — comparable against `plankton_task_seconds`.
        total_micros: u64,
        /// Task identities tracked in the registry.
        tasks_tracked: u64,
    },
    /// The request failed.
    Error {
        /// What went wrong.
        message: String,
        /// Machine-readable failure kind: `"request"` (bad input),
        /// `"task_panicked"`, `"deadline_exceeded"`, `"overloaded"`, or
        /// `"internal_panic"`. Clients branch on this, not on `message`.
        #[serde(default)]
        kind: String,
        /// For `"overloaded"`: how long the client should back off before
        /// retrying.
        #[serde(default)]
        retry_after_ms: Option<u64>,
        /// The trace id the failing request ran under (0 = none): pass it to
        /// `Dump {trace_id}` to retrieve the causal chain post-hoc.
        #[serde(default)]
        trace_id: u64,
    },
}

/// The `kind` values carried by [`Response::Error`].
pub mod error_kind {
    /// Bad input: unparsable line, unknown device, missing network, ...
    pub const REQUEST: &str = "request";
    /// A verification task panicked; the run was contained and abandoned.
    pub const TASK_PANICKED: &str = "task_panicked";
    /// The verification exceeded its `deadline_ms` budget.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// The `--max-inflight` admission gate refused the verify.
    pub const OVERLOADED: &str = "overloaded";
    /// The request handler itself panicked (a service bug, contained).
    pub const INTERNAL_PANIC: &str = "internal_panic";
}

impl Response {
    /// A bad-input error (`kind: "request"`).
    pub fn error(message: impl Into<String>) -> Response {
        Response::error_kind(error_kind::REQUEST, message)
    }

    /// An error with an explicit machine-readable kind, stamped with the
    /// emitting thread's current trace id (request handlers run inside a
    /// trace scope, so the stamp matches the events the request logged).
    pub fn error_kind(kind: &str, message: impl Into<String>) -> Response {
        Response::Error {
            message: message.into(),
            kind: kind.to_string(),
            retry_after_ms: None,
            trace_id: plankton_telemetry::trace::current(),
        }
    }

    /// An admission-control refusal carrying a retry hint.
    pub fn overloaded(message: impl Into<String>, retry_after_ms: u64) -> Response {
        Response::Error {
            message: message.into(),
            kind: error_kind::OVERLOADED.to_string(),
            retry_after_ms: Some(retry_after_ms),
            trace_id: plankton_telemetry::trace::current(),
        }
    }
}

impl Request {
    /// Serialize to one wire line.
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("requests always serialize")
    }
}

impl Response {
    /// Serialize to one wire line.
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("responses always serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let req = Request::Verify {
            policy: PolicySpec::Reachability {
                sources: vec!["r1".into(), "r2".into()],
            },
            options: Some(VerifyOptions {
                max_failures: 1,
                ..Default::default()
            }),
        };
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        match back {
            Request::Verify { policy, options } => {
                assert_eq!(
                    policy,
                    PolicySpec::Reachability {
                        sources: vec!["r1".into(), "r2".into()]
                    }
                );
                assert_eq!(options.unwrap().max_failures, 1);
            }
            other => panic!("bad roundtrip: {other:?}"),
        }
    }

    #[test]
    fn omitted_options_default() {
        let back: Request =
            serde_json::from_str(r#"{"Verify": {"policy": "LoopFreedom"}}"#).unwrap();
        match back {
            Request::Verify { policy, options } => {
                assert_eq!(policy, PolicySpec::LoopFreedom);
                assert!(options.is_none());
            }
            other => panic!("bad parse: {other:?}"),
        }
        let back: Request = serde_json::from_str(r#""Stats""#).unwrap();
        assert!(matches!(back, Request::Stats));
    }

    #[test]
    fn hello_and_apply_deltas_roundtrip() {
        let back: Request = serde_json::from_str(r#""Hello""#).unwrap();
        assert!(matches!(back, Request::Hello));
        assert_eq!(back.kind(), "hello");

        // `ack` is serde-defaulted: a batch without it is synchronous.
        let line = r#"{"ApplyDeltas": {"deltas": [{"LinkDown": {"link": 3}}]}}"#;
        let back: Request = serde_json::from_str(line).unwrap();
        let Request::ApplyDeltas { deltas, ack } = back else {
            panic!("bad parse");
        };
        assert_eq!(deltas.len(), 1);
        assert_eq!(DeltaAckMode::parse(&ack), Some(DeltaAckMode::Verified));
        assert_eq!(
            DeltaAckMode::parse("enqueued"),
            Some(DeltaAckMode::Enqueued)
        );
        assert_eq!(DeltaAckMode::parse("nonsense"), None);
    }

    #[test]
    fn v1_stats_and_options_still_parse_under_v2() {
        // A v1 `Stats` payload (no streaming fields) deserializes with the
        // new fields defaulted — old clients and old daemons interoperate.
        let v1 = r#"{"loaded":true,"deltas_applied":2,"verifies":1,"cache_entries":0,
                     "cache_hits":0,"cache_misses":0,"cache_evictions":0,
                     "pecs_total":63,"uptime_ms":5}"#;
        let stats: ServiceStats = serde_json::from_str(v1).unwrap();
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.deltas_coalesced, 0);

        let opts: VerifyOptions = serde_json::from_str(r#"{"max_failures":1}"#).unwrap();
        assert_eq!(opts.max_failures, 1);
    }

    #[test]
    fn a_verify_line_still_carrying_tuning_parses() {
        // Lines written for daemons that read a per-request `tuning` object
        // still parse; the unknown field is ignored.
        let line = r#"{"Verify": {"policy": "LoopFreedom", "options":
                      {"cores": 2, "tuning": {"max_inflight": 0, "cores": 8}}}}"#;
        let Request::Verify { options, .. } = serde_json::from_str(line).unwrap() else {
            panic!("bad parse");
        };
        assert_eq!(options.unwrap().cores, 2);
    }

    #[test]
    fn resolution_table() {
        let (options, scenario) = VerifyOptions::default().resolve();
        assert_eq!(options.parallelism, 1, "cores 0 is one worker");
        assert!(options.deadline.is_none(), "deadline_ms 0 is no deadline");
        assert!(!options.stop_at_first_violation, "the service collects all");
        assert!(
            options.restrict_to_prefixes.is_none(),
            "empty = unrestricted"
        );
        assert_eq!(scenario.max_failures, 0);
        assert!(scenario.candidates.is_none());
        // Everything off the wire keeps its default: all §4 optimizations on.
        assert_eq!(
            options.cache_fingerprint(),
            PlanktonOptions::default()
                .collect_all_violations()
                .cache_fingerprint()
        );

        let prefix: Prefix = "10.0.0.0/24".parse().unwrap();
        let (options, scenario) = VerifyOptions {
            max_failures: 2,
            restrict_prefixes: vec![prefix],
            stop_at_first: true,
            cores: 3,
            deadline_ms: 60_000,
        }
        .resolve();
        assert_eq!(options.parallelism, 3);
        assert!(options.deadline.is_some());
        assert!(options.stop_at_first_violation);
        assert_eq!(options.restrict_to_prefixes, Some(vec![prefix]));
        assert_eq!(scenario.max_failures, 2);
    }

    #[test]
    fn cores_deadline_and_slow_task_never_change_the_cache_fingerprint() {
        let (plain, _) = VerifyOptions::default().resolve();
        let (mut tuned, _) = VerifyOptions {
            cores: 16,
            deadline_ms: 1,
            ..Default::default()
        }
        .resolve();
        tuned.slow_task_micros = 1_000;
        assert_eq!(tuned.parallelism, 16);
        assert!(tuned.deadline.is_some());
        assert_eq!(plain.cache_fingerprint(), tuned.cache_fingerprint());
    }

    #[test]
    fn welcome_advertises_version_and_features() {
        let welcome = Response::Welcome {
            proto_version: PROTO_VERSION.to_string(),
            features: PROTO_FEATURES.iter().map(|f| f.to_string()).collect(),
        };
        let line = welcome.to_line();
        assert!(line.contains("3.0"));
        assert!(line.contains("streaming"));
        let major: u64 = PROTO_VERSION.split('.').next().unwrap().parse().unwrap();
        assert_eq!(major, PROTO_VERSION_MAJOR);
    }

    #[test]
    fn spec_fingerprints_cover_parameters() {
        let a = PolicySpec::BoundedPathLength {
            sources: vec!["x".into()],
            max_hops: 4,
        };
        let b = PolicySpec::BoundedPathLength {
            sources: vec!["x".into()],
            max_hops: 5,
        };
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }
}
