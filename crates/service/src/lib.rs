//! # plankton-service
//!
//! The incremental verification service: a long-running daemon that accepts
//! a network once, then serves a stream of requests — `Verify`,
//! `ApplyDelta` (link up/down, link-cost change, static-route add/remove,
//! BGP policy edit, node add/remove), `Query` (per-PEC/per-policy results,
//! counterexample trails) and `Stats` — over newline-delimited JSON on
//! stdin/stdout or a Unix socket (`planktond`, with `planktonctl` as the
//! matching client).
//!
//! Real operators re-verify after every small change; re-running Plankton
//! from scratch each time throws away almost all of the previous run. The
//! service instead keeps a content-addressed result cache
//! ([`plankton_core::ResultCache`]): each (PEC × failure-scenario) task is
//! keyed by a hash of everything it reads (PEC content, protocol network
//! slices, policy/options, failure set, and — recursively — its dependency
//! PECs' keys), a delta rebuilds only the cheap analysis layers, and the
//! next verification re-submits *only* the dirtied tasks to the
//! work-stealing engine while clean results are served from the cache. The
//! merged report is identical to a from-scratch verification of the
//! post-delta network.

pub mod proto;
pub mod queue;
#[cfg(unix)]
pub mod readiness;
pub mod serve;
pub mod session;

pub use proto::{
    error_kind, DeltaAck, DeltaAckMode, DeltaSummary, DumpEvent, LagSummary, PolicySpec, Query,
    ReportSummary, Request, Response, ServiceStats, TaskCostSummary, VerifyOptions,
    ViolationSummary, PROTO_FEATURES, PROTO_VERSION, PROTO_VERSION_MAJOR,
};
pub use queue::{
    coalesce_batch, BatchFate, CoalescedBatch, Coalescer, DeltaQueue, LagSnapshot, PushError,
};
#[cfg(unix)]
pub use serve::{connect_with_retry, serve_unix};
pub use serve::{handle_line, handle_line_at, serve, ServeOptions};
pub use session::{ServiceSession, StreamingHandle};
