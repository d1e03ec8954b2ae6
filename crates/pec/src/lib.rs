//! # plankton-pec
//!
//! Packet Equivalence Class (PEC) computation and dependency analysis — the
//! first phase of Plankton's analysis (§3.1, §3.2 of the paper).
//!
//! * [`trie`] — the binary prefix trie that collects every prefix referenced
//!   by the configuration and partitions the destination header space into
//!   contiguous ranges with identical covering-prefix sets (Figure 4).
//! * [`pec`] — the [`Pec`](pec::Pec) type: an address range plus the
//!   per-prefix configuration objects that contribute to it.
//! * [`compute`] — building PECs from a [`Network`](plankton_config::Network).
//! * [`dependency`] — the PEC dependency graph (recursive static routes,
//!   iBGP over an IGP), Tarjan SCCs and the condensation DAG (Figure 5):
//!   strongly connected components are verified together, dependencies
//!   first (§3.2) — the scheduling itself is `plankton-engine`'s.
//! * [`invalidation`] — the content keys of (PEC × failure-scenario)
//!   verification tasks, and the advisory delta → dirty-PEC mapping.

pub mod compute;
pub mod dependency;
pub mod invalidation;
pub mod pec;
pub mod trie;

pub use compute::compute_pecs;
pub use dependency::{DependencyGraph, PecDependencies};
pub use invalidation::{
    pec_content_fingerprint, pec_failure_invariant, pecs_touched_by, OspfSliceMode, TaskKeys,
};
pub use pec::{OriginProtocol, Pec, PecId, PecSet, PrefixConfig};
pub use trie::PrefixTrie;
