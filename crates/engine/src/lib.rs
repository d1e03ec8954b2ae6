//! # plankton-engine
//!
//! The work-stealing parallel verification engine: Plankton's answer to the
//! paper's claim (§3.2) that *"equivalence classes are verified in parallel,
//! limited only by the number of available cores"*.
//!
//! The paper's prototype forks one model-checking **process** per packet
//! equivalence class and lets the operating system schedule them, with
//! converged outcomes exchanged through an in-memory filesystem. Here the
//! same ordering is a dependency-counting task graph driven by a fixed
//! worker pool — no level barriers, so one slow component never stalls an
//! unrelated one, and the pool at one worker is the sequential execution
//! the tests compare every other worker count against:
//!
//! * [`graph::TaskGraph`] — the (PEC-component × failure-scenario) cross
//!   product as a DAG; a task becomes runnable the moment the outcomes of
//!   *its own* dependencies land, while unrelated components keep running
//!   (§3.2's dependency-aware ordering without the barrier);
//! * [`queue::TaskQueue`] — per-worker deques with LIFO local pops (cache
//!   locality: a finished component's dependents run next on the same
//!   worker, right where their dependency records are hot) and FIFO steals
//!   from the busiest end of a victim's deque;
//! * [`executor::Engine`] — the worker pool: release-on-completion
//!   dependency accounting, an `AtomicBool` early-stop broadcast that makes
//!   the whole fleet drain as soon as one worker finds a violation (unless
//!   the caller asked for all violations), and an [`stats::EngineStats`]
//!   snapshot of what the pool did;
//! * per-worker [`SearchScratch`](plankton_checker::SearchScratch) reuse —
//!   each worker hands the visited-set allocation of its previous
//!   model-checking run to the next one, killing the per-task allocation
//!   churn.
//!
//! The engine is deliberately generic: it executes *tasks* identified by
//! [`graph::TaskId`] and knows nothing about PECs beyond the convenience
//! constructor [`graph::pec_task_graph_sparse`]. `plankton-core` owns the
//! mapping from tasks to verification work and the outcome table; the
//! contract is simply that a task's side effects (outcome insertion) are
//! complete when its closure returns, which is exactly when the engine
//! releases its dependents.

pub mod executor;
pub mod graph;
pub mod queue;
pub mod stats;

pub use executor::{Engine, WorkerContext};
pub use graph::{pec_task_graph_sparse, SparseTaskMap, TaskGraph, TaskId};
pub use queue::TaskQueue;
pub use stats::{EngineStats, TaskFailure};
