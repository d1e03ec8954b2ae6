//! # plankton-core
//!
//! The Plankton verifier: the orchestration layer that ties together PEC
//! computation, the dependency-aware scheduler, the protocol models, the
//! explicit-state model checker, the FIB/data-plane model and the policy API
//! into the pipeline of Figure 3 of the paper:
//!
//! ```text
//! config ─→ PECs ─→ dependency graph ─→ scheduler ─→ model checker ─→ FIB ─→ policy
//!                                            ↑  converged outcomes of   │
//!                                            └──────── dependencies ────┘
//! ```
//!
//! The main entry point is [`Plankton`]: build it from a
//! [`Network`](plankton_config::Network), then call
//! [`Plankton::verify`] with a policy, a failure scenario and options.

pub mod cache;
pub mod failures;
pub mod incremental;
pub mod options;
pub mod outcome;
pub mod report;
pub mod session;
pub mod underlay;
pub mod verifier;

pub use cache::{CacheSnapshot, PolicyOutcome, ResultCache};
pub use failures::{DeviceEquivalence, LinkEquivalenceClasses};
pub use incremental::{AppliedBatch, AppliedDelta, IncrementalRunStats, IncrementalVerifier};
pub use options::{
    PlanktonOptions, Tuning, DEFAULT_MAX_LAG_DELTAS, DEFAULT_MAX_LAG_MS,
    DEFAULT_MAX_PENDING_DELTAS, DEFAULT_SLOW_TASK_MICROS,
};
pub use outcome::ConvergedRecord;
pub use report::{PhaseTimings, VerificationReport, Violation};
pub use verifier::Plankton;
