//! # plankton-protocols
//!
//! The abstract control-plane model that Plankton's model checker explores
//! (§3.4 of the paper):
//!
//! * [`route`] — the route representation shared by all protocols: a path to
//!   an origin plus BGP-style attributes, IGP cost and session kind.
//! * [`model`] — the [`ProtocolModel`](model::ProtocolModel) trait: origins,
//!   peers, import/export (advertisement production) and the ranking
//!   function, which may be a *partial* order (ties express the
//!   non-determinism of e.g. age-based tie-breaking).
//! * [`rpvp`] — the Reduced Path Vector Protocol (Algorithm 1): a shared
//!   memory model whose non-deterministic executions reach exactly the
//!   converged states of extended SPVP.
//! * [`spvp`] — extended SPVP itself (Appendix A), a message-passing
//!   reference implementation used to cross-check RPVP in tests.
//! * [`ospf`] — OSPF as a protocol model: shortest paths over configured
//!   link costs, deterministic outcome, equal-cost multipath derived from the
//!   converged costs.
//! * [`bgp`] — BGP as a protocol model: import/export route maps, the BGP
//!   decision process as a partial-order ranking function, eBGP and iBGP
//!   sessions, with iBGP rankings driven by an IGP underlay supplied by the
//!   PEC dependency machinery.

pub mod bgp;
pub mod hopvec;
pub mod interner;
pub mod model;
pub mod ospf;
pub mod route;
pub mod rpvp;
pub mod spvp;

pub use bgp::{BgpModel, IgpUnderlay, TableUnderlay, UniformUnderlay};
pub use hopvec::HopVec;
pub use interner::{RouteHandle, RouteInterner};
pub use model::{Preference, ProtocolModel, ReversePeer};
pub use ospf::OspfModel;
pub use route::{Route, SessionType};
pub use rpvp::{
    ConvergedState, EnabledChoice, EnabledView, IncrementalEnabled, Rpvp, RpvpState, UpdateVec,
};
