//! # plankton-checker
//!
//! The explicit-state model checker that plays SPIN's role in the paper
//! (§3.3, §4): a depth-first search over the non-deterministic executions of
//! RPVP, emitting every converged state it finds to a caller-supplied
//! callback, with the paper's full optimization suite:
//!
//! * **consistent-execution pruning** (§4.1.1) — abandon any execution in
//!   which a node would have to change an already-selected best path;
//! * **deterministic-node partial order reduction** (§4.1.2) — when an
//!   enabled node's pending update provably equals its converged selection,
//!   process it without branching over the other enabled nodes;
//! * **decision independence** (§4.1.3) — when every pending update comes
//!   from peers that have already made their final decision, the execution
//!   order is irrelevant and a single arbitrary order is explored;
//! * **policy-based pruning** (§4.2) — finish an execution as soon as every
//!   policy source node has decided, and never execute nodes that cannot
//!   influence a source;
//! * **state hashing** (§4.4) — routes are interned once and states are
//!   vectors of 64-bit handles; visited-state detection works on those
//!   handles, exactly (a state arena) or through a Bloom filter (SPIN's
//!   bitstate hashing, Figure 9), both keyed by one Zobrist hash of route
//!   content hashes that the explorer moves per step.
//!
//! The search itself is **incremental**: delta-maintained enabled sets (only
//! the stepped node's reverse-peer neighborhood is recomputed per step) and
//! an apply/undo DFS (no state clones at branch points) — see [`explorer`].
//! States are handle-native end to end: routes are interned at generation
//! time in the protocol layer, so visited checks compare handle vectors
//! directly and steps move a single `u64`. Every buffer of a run — enabled
//! set, visited set, undo stack, interner, state, trail — lives in one
//! [`SearchScratch`] that a worker threads from run to run. The
//! pre-incremental search is preserved as [`reference::ReferenceChecker`]
//! and differentially tested against the incremental one.

pub mod explorer;
pub mod options;
pub mod por;
pub mod reference;
pub mod scratch;
pub mod stats;
pub mod trail;
pub mod undo;
pub mod visited;

pub use explorer::{ModelChecker, Verdict};
pub use options::SearchOptions;
pub use plankton_protocols::{RouteHandle, RouteInterner};
pub use por::{BgpPor, DiScratch, NoPor, OspfPor, PorDecision, PorHeuristic, VerdictCounts};
pub use reference::ReferenceChecker;
pub use scratch::SearchScratch;
pub use stats::SearchStats;
pub use trail::{Trail, TrailEvent};
pub use undo::UndoStack;
pub use visited::VisitedSet;
