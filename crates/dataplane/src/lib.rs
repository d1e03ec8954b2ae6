//! # plankton-dataplane
//!
//! The data-plane model: per-device FIBs assembled from converged
//! control-plane states (combining protocols by administrative distance and
//! prefixes by longest match, §3.3 of the paper), and the per-PEC forwarding
//! graph over which policies are evaluated (path walks, equal-cost multipath
//! enumeration, loop and black-hole detection).

pub mod fib;
pub mod forwarding;

pub use fib::{Fib, FibEntry, Forward, Lookup, NetworkFib, RouteSource};
pub use forwarding::{ForwardingGraph, PathOutcome, WalkEnd};
