//! # plankton-telemetry
//!
//! The measurement substrate of the verifier: **metrics registries**
//! (counters, gauges, fixed-log-bucket histograms, rendered as
//! Prometheus-style text exposition — one process-global for verification
//! runs, one per service session for its own counts) and lightweight
//! **structured tracing** (levelled events and spans tagged with a
//! per-request trace id, written as JSON lines to a pluggable sink).
//!
//! Like the other `crates/shims`-era infrastructure, this crate is built for
//! an offline environment: it depends on `std` only — no registry crates, no
//! macros-by-proc-macro, no global ceremony beyond two `OnceLock`s.
//!
//! Two properties the rest of the workspace relies on:
//!
//! * **Zero cost when disabled.** With no trace sink installed,
//!   [`trace::event`] is a single relaxed atomic load and an early return —
//!   no allocation, no formatting, no lock. Callers that need to format a
//!   field value first must guard with [`trace::enabled`]. Metrics are
//!   always on, but every instrument is a plain atomic the hot paths update
//!   at task/run granularity, never per model-checking step.
//! * **Deterministic exposition.** [`metrics::Registry::render`] orders
//!   families and series lexicographically, so equal registry contents
//!   render byte-identically — tests and scrapers can diff outputs.
//!
//! On top of those sit two post-hoc introspection surfaces (PR 8):
//!
//! * [`recorder`] — a fixed-capacity, lock-striped **flight recorder** ring
//!   that retains the last N events in memory even with no JSONL sink
//!   configured, dumpable by trace id after a failure already happened.
//! * [`taskstats`] — always-on **per-task cost attribution** keyed by an
//!   opaque (group × sub) identity (the verifier uses PEC × failure-set),
//!   accumulating runs / total / max duration / states / cache hits /
//!   panics in relaxed atomics, queryable as a top-K hottest-tasks table.

pub mod metrics;
pub mod recorder;
pub mod taskstats;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Registry, Unit};
pub use recorder::{FlightRecorder, RecordedEvent};
pub use taskstats::{TaskCostRow, TaskCosts};
pub use trace::{Field, Level, Span};
