//! # plankton
//!
//! A from-scratch Rust implementation of **Plankton** (NSDI 2020): scalable
//! network configuration verification through equivalence partitioning of the
//! packet header space plus explicit-state model checking of an abstract
//! control plane.
//!
//! This umbrella crate re-exports the whole workspace so that applications
//! can depend on a single crate:
//!
//! * [`net`] — topology, addressing, failure environments, workload
//!   generators;
//! * [`config`] — OSPF/BGP/static-route configuration and ready-made
//!   evaluation scenarios;
//! * [`pec`] — packet equivalence classes, the dependency graph and the
//!   content keys of verification tasks;
//! * [`protocols`] — SPVP, RPVP and the OSPF/BGP protocol models;
//! * [`checker`] — the explicit-state model checker with partial order
//!   reduction, policy-based pruning and state hashing;
//! * [`engine`] — the work-stealing parallel verification engine driving
//!   the (PEC × failure-scenario) task graph across a worker pool;
//! * [`dataplane`] — FIBs and per-PEC forwarding graphs;
//! * [`policy`] — the policy API and the built-in policies;
//! * [`core`] — the [`prelude::Plankton`] verifier itself;
//! * [`baselines`] — the Minesweeper-style, ARC-style and Bonsai baselines.
//!
//! ## Quick start
//!
//! ```
//! use plankton::prelude::*;
//!
//! // An 8-router OSPF ring where router 0 originates 10.99.0.0/24.
//! let scenario = plankton::config::scenarios::ring_ospf(8);
//! let sources: Vec<_> = scenario.ring.routers[1..].to_vec();
//!
//! let verifier = Plankton::new(scenario.network.clone());
//! let report = verifier.verify(
//!     &Reachability::new(sources),
//!     &FailureScenario::up_to(1),
//!     &PlanktonOptions::default().restricted_to(vec![scenario.destination]),
//! );
//! assert!(report.holds());
//! ```

pub use plankton_baselines as baselines;
pub use plankton_checker as checker;
pub use plankton_config as config;
pub use plankton_core as core;
pub use plankton_dataplane as dataplane;
pub use plankton_engine as engine;
pub use plankton_net as net;
pub use plankton_pec as pec;
pub use plankton_policy as policy;
pub use plankton_protocols as protocols;
pub use plankton_service as service;

/// The most commonly used items, for `use plankton::prelude::*`.
pub mod prelude {
    pub use plankton_config::Network;
    pub use plankton_core::{Plankton, PlanktonOptions, VerificationReport};
    pub use plankton_net::failure::{FailureScenario, FailureSet};
    pub use plankton_net::ip::{IpRange, Ipv4Addr, Prefix};
    pub use plankton_net::topology::{LinkId, NodeId, Topology, TopologyBuilder};
    pub use plankton_policy::{
        BlackholeFreedom, BoundedPathLength, LoopFreedom, MultipathConsistency, PathConsistency,
        Policy, PolicyResult, Reachability, Waypoint,
    };
}
