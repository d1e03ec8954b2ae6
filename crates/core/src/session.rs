//! Verification of a single PEC under a single failure scenario.
//!
//! Plankton executes the control plane separately for each prefix
//! contributing to the PEC (§3.3): OSPF and BGP instances are model-checked
//! exhaustively, static routes and connected prefixes are resolved directly,
//! and the FIB model combines one converged alternative per prefix into a
//! complete data plane for the PEC, which is what policies see.
//!
//! The data planes are *streamed* ([`PecSession::stream_planes`]). Prefixes
//! run most specific first. Every prefix but the last keeps its converged
//! alternatives (usually one); the last prefix's explorer feeds each
//! converged state, viewed in place, straight into the plane builder, which
//! combines it with every selection of the earlier prefixes' alternatives —
//! in the cross product's odometer order, the most specific prefix turning
//! fastest — and writes the result into a reused forwarding-graph buffer
//! with exactly
//! [`Fib::lookup`](plankton_dataplane::Fib::lookup)'s arbitration
//! ([`Lookup`]). The sink sees a borrowed [`PlaneRef`] while the explorer is
//! still at that state: no converged state of the streamed prefix is
//! stored, and a plane's control routes and trail are copied only when the
//! sink asks for them. [`PecSession::data_planes`] is a collector over the
//! same stream.

use crate::options::PlanktonOptions;
use crate::outcome::ConvergedRecord;
use crate::underlay::DependencyUnderlay;
use plankton_checker::{
    BgpPor, ModelChecker, NoPor, OspfPor, PorHeuristic, ReferenceChecker, SearchOptions,
    SearchScratch, SearchStats, Trail, Verdict,
};
use plankton_config::{Network, StaticNextHop};
use plankton_dataplane::{FibEntry, Forward, ForwardingGraph, Lookup, RouteSource};
use plankton_net::failure::FailureSet;
use plankton_net::ip::{Ipv4Addr, Prefix};
use plankton_net::topology::NodeId;
use plankton_pec::{OriginProtocol, Pec, PrefixConfig};
use plankton_protocols::{BgpModel, ConvergedState, OspfModel, ProtocolModel, Route, SessionType};
use std::cell::RefCell;
use std::sync::Arc;

/// One converged alternative of a prefix whose states are collected rather
/// than streamed: the FIB entries it contributes per device, the converged
/// control routes, and the execution trail that produced it.
struct PrefixAlternative {
    entries: Vec<Vec<FibEntry>>,
    control_routes: Vec<Option<Route>>,
    /// Does any device hold a control route?
    has_routes: bool,
    trail: Trail,
}

impl PrefixAlternative {
    fn new(entries: Vec<Vec<FibEntry>>, control_routes: Vec<Option<Route>>, trail: Trail) -> Self {
        let has_routes = control_routes.iter().any(Option::is_some);
        PrefixAlternative {
            entries,
            control_routes,
            has_routes,
            trail,
        }
    }
}

/// The collected control-plane results for one prefix of the PEC: entries
/// common to every alternative (static routes, connected routes) plus the
/// alternatives produced by model checking the routing protocols.
struct PrefixRun {
    base_entries: Vec<Vec<FibEntry>>,
    /// At least one, possibly empty of routes.
    alternatives: Vec<PrefixAlternative>,
}

/// A complete data plane for the PEC (one alternative chosen per prefix),
/// owned.
#[derive(Clone, Debug)]
pub struct DataPlane {
    /// The combined forwarding graph.
    pub forwarding: ForwardingGraph,
    /// Control-plane routes of the most specific prefix with any.
    pub control_routes: Vec<Option<Route>>,
    /// The trail of the alternative that contributed the most specific
    /// prefix's routes.
    pub trail: Trail,
}

/// Where a plane's control routes come from.
#[derive(Clone, Copy)]
enum Control<'p> {
    /// No prefix produced a route.
    None,
    /// A collected alternative's routes.
    Routes(&'p [Option<Route>]),
    /// The routes of the converged state being streamed.
    Converged(ConvergedState<'p>),
}

/// A data plane as [`PecSession::stream_planes`] hands it out: the
/// forwarding graph is the builder's reused buffer, the control routes and
/// trail are read where they live and copied only on demand. Valid for the
/// sink call only.
pub struct PlaneRef<'p> {
    /// The combined forwarding graph.
    pub forwarding: &'p ForwardingGraph,
    /// The forwarding graph of the plane streamed just before this one for
    /// the same (PEC × failure set), if any, so that a sink can put off work
    /// on the first plane until it knows a second one exists.
    pub previous: Option<&'p ForwardingGraph>,
    control: Control<'p>,
    /// `None`: a fresh trail under `failures` (no prefix produced routes).
    trail: Option<&'p Trail>,
    failures: &'p FailureSet,
}

impl<'p> PlaneRef<'p> {
    /// Device `n`'s control-plane route for the most specific prefix that
    /// produced any.
    pub fn control_route(&self, n: NodeId) -> Option<&'p Route> {
        match self.control {
            Control::None => None,
            Control::Routes(routes) => routes[n.index()].as_ref(),
            Control::Converged(state) => state.best(n),
        }
    }

    /// Every device's control route, copied into `out` (replacing its
    /// contents, keeping its allocation).
    pub fn control_routes_into(&self, out: &mut Vec<Option<Route>>) {
        out.clear();
        out.extend(
            (0..self.forwarding.node_count() as u32)
                .map(|i| self.control_route(NodeId(i)).cloned()),
        );
    }

    /// The execution trail behind the plane, copied.
    pub fn trail(&self) -> Trail {
        match self.trail {
            Some(trail) => trail.clone(),
            None => Trail::new(self.failures.clone()),
        }
    }

    /// Copy the whole plane out.
    pub fn to_owned(&self) -> DataPlane {
        let mut control_routes = Vec::new();
        self.control_routes_into(&mut control_routes);
        DataPlane {
            forwarding: self.forwarding.clone(),
            control_routes,
            trail: self.trail(),
        }
    }
}

/// What one [`PecSession::stream_planes`] run did.
#[derive(Clone, Copy, Debug)]
pub struct PlaneStream {
    /// Model-checking statistics over every prefix's runs.
    pub stats: SearchStats,
    /// Planes handed to the sink.
    pub planes: u64,
    /// Planes of the cross product that
    /// [`PlanktonOptions::max_data_planes_per_pec`] kept from the sink.
    pub capped: u64,
}

/// How a protocol instance's converged routes become FIB entries.
enum Forwarder<'m> {
    /// OSPF: equal-cost multipath recovered from the converged costs.
    Ospf(&'m OspfModel),
    /// BGP: eBGP routes forward to the (adjacent) peer, iBGP routes along
    /// the IGP towards the BGP next hop.
    Bgp(&'m DependencyUnderlay),
}

impl Forwarder<'_> {
    /// The FIB source of a converged route.
    fn source(&self, route: &Route) -> RouteSource {
        match self {
            Forwarder::Ospf(_) => RouteSource::Ospf,
            Forwarder::Bgp(_) if route.learned_via == SessionType::Ibgp => RouteSource::Ibgp,
            Forwarder::Bgp(_) => RouteSource::Ebgp,
        }
    }

    /// The forwarding `node`'s converged `route` installs: delivery at the
    /// origin, otherwise the next hops (computed into `hops`), or nothing
    /// when none resolve.
    fn forward<'h>(
        &self,
        state: &ConvergedState<'_>,
        node: NodeId,
        route: &Route,
        hops: &'h mut Vec<NodeId>,
    ) -> Option<Forward<'h>> {
        hops.clear();
        if route.is_origin() {
            return Some(Forward::Deliver);
        }
        match self {
            Forwarder::Ospf(model) => {
                model.ecmp_next_hops(state, node, hops);
                if hops.is_empty() {
                    hops.extend(route.next_hop());
                }
            }
            Forwarder::Bgp(underlay) => {
                let bgp_next_hop = route.next_hop().expect("a non-origin route has a next hop");
                match route.learned_via {
                    // eBGP peers are directly connected: forward to them.
                    SessionType::Ebgp | SessionType::Igp | SessionType::Originated => {
                        hops.push(bgp_next_hop)
                    }
                    // iBGP: forward along the IGP towards the peer.
                    SessionType::Ibgp => {
                        hops.extend_from_slice(
                            underlay
                                .igp_next_hops(node, bgp_next_hop)
                                .unwrap_or_default(),
                        );
                    }
                }
            }
        }
        (!hops.is_empty()).then_some(Forward::Via(hops))
    }

    /// A converged state as a collected alternative for `prefix`.
    fn alternative(
        &self,
        prefix: Prefix,
        state: &ConvergedState<'_>,
        trail: &Trail,
        hops: &mut Vec<NodeId>,
    ) -> PrefixAlternative {
        let n = state.node_count();
        let mut entries = vec![Vec::new(); n];
        for (i, node_entries) in entries.iter_mut().enumerate() {
            let node = NodeId(i as u32);
            let Some(route) = state.best(node) else {
                continue;
            };
            let source = self.source(route);
            match self.forward(state, node, route, hops) {
                Some(Forward::Deliver) => node_entries.push(FibEntry::local(prefix, source)),
                Some(Forward::Via(h)) => {
                    node_entries.push(FibEntry::via(prefix, h.to_vec(), source))
                }
                _ => {}
            }
        }
        PrefixAlternative::new(entries, state.to_routes(), trail.clone())
    }
}

/// The converged state the streamed prefix's explorer is at.
struct Streamed<'a> {
    prefix: Prefix,
    state: ConvergedState<'a>,
    trail: &'a Trail,
    forwarder: &'a Forwarder<'a>,
}

/// Offer a collected entry list to `lookup`, in table order.
fn offer<'e>(lookup: &mut Lookup, winner: &mut Forward<'e>, entries: &'e [FibEntry]) {
    for e in entries {
        if lookup.offer(e.prefix, e.admin_distance) {
            *winner = e.action();
        }
    }
}

/// Builds the planes of one (PEC × failure set) from the collected prefixes
/// and the streamed prefix's converged states.
struct PlaneBuilder<'s> {
    /// The collected prefixes, most specific first.
    collected: &'s [PrefixRun],
    /// The streamed prefix's base entries.
    base: &'s [Vec<FibEntry>],
    addr: Ipv4Addr,
    failures: &'s FailureSet,
    cap: usize,
    /// The planes are built alternately in these two buffers, so the one
    /// before is still intact while the sink sees the current one.
    graphs: [ForwardingGraph; 2],
    /// Index of the buffer the next plane is built in.
    next: usize,
    /// Odometer over the collected prefixes' alternatives (position 0, the
    /// most specific prefix, turns fastest).
    selection: Vec<usize>,
    /// Next-hop scratch for the streamed entry.
    hops: Vec<NodeId>,
    /// Converged states the streamed prefix produced.
    states: u64,
    planes: u64,
    capped: u64,
}

impl<'s> PlaneBuilder<'s> {
    fn new(
        session: &'s PecSession<'_>,
        collected: &'s [PrefixRun],
        base: &'s [Vec<FibEntry>],
        cap: usize,
    ) -> Self {
        let n = session.network.node_count();
        PlaneBuilder {
            collected,
            base,
            addr: session.pec.representative(),
            failures: session.failures,
            cap,
            graphs: [ForwardingGraph::new(n), ForwardingGraph::new(n)],
            next: 0,
            selection: vec![0; collected.len()],
            hops: Vec::new(),
            states: 0,
            planes: 0,
            capped: 0,
        }
    }

    /// Emit every plane that pairs `streamed` (`None`: the streamed prefix
    /// contributes its base entries only) with a selection of the collected
    /// alternatives, in odometer order, until the cap is reached; count the
    /// rest as capped.
    fn emit(&mut self, streamed: Option<&Streamed<'_>>, sink: &mut dyn FnMut(&PlaneRef<'_>)) {
        let selections: usize = self
            .collected
            .iter()
            .map(|run| run.alternatives.len())
            .product();
        let build = selections.min(self.cap.saturating_sub(self.planes as usize));
        self.capped += (selections - build) as u64;
        self.selection.fill(0);
        for _ in 0..build {
            self.build(streamed);
            let (control, trail) = self.control(streamed);
            sink(&PlaneRef {
                forwarding: &self.graphs[self.next],
                previous: (self.planes > 0).then(|| &self.graphs[1 - self.next]),
                control,
                trail,
                failures: self.failures,
            });
            self.planes += 1;
            self.next = 1 - self.next;
            // Turn the odometer.
            for (pos, run) in self.collected.iter().enumerate() {
                self.selection[pos] += 1;
                if self.selection[pos] < run.alternatives.len() {
                    break;
                }
                self.selection[pos] = 0;
            }
        }
    }

    /// Write the plane of the current selection into the next buffer. Each
    /// device offers its candidate entries to [`Lookup`] in table order:
    /// per collected prefix its base entries, then its alternative's; then
    /// the streamed prefix's base entries and, last, the streamed entry.
    fn build(&mut self, streamed: Option<&Streamed<'_>>) {
        let graph = &mut self.graphs[self.next];
        for i in 0..graph.node_count() {
            let node = NodeId(i as u32);
            let mut lookup = Lookup::new(self.addr);
            let mut winner = Forward::NoRoute;
            for (run, &alt) in self.collected.iter().zip(&self.selection) {
                offer(&mut lookup, &mut winner, &run.base_entries[i]);
                offer(&mut lookup, &mut winner, &run.alternatives[alt].entries[i]);
            }
            offer(&mut lookup, &mut winner, &self.base[i]);
            if let Some(s) = streamed {
                if let Some(route) = s.state.best(node) {
                    // Derive the streamed entry only if it would win.
                    let distance = s.forwarder.source(route).default_distance();
                    if lookup.beats(s.prefix, distance) {
                        if let Some(action) =
                            s.forwarder.forward(&s.state, node, route, &mut self.hops)
                        {
                            winner = action;
                        }
                    }
                }
            }
            graph.set(i, winner);
        }
    }

    /// The control routes of the current selection — those of the first
    /// prefix, most specific first, whose alternative has any — and the
    /// trail of that alternative.
    fn control<'p>(&'p self, streamed: Option<&Streamed<'p>>) -> (Control<'p>, Option<&'p Trail>) {
        for (run, &alt) in self.collected.iter().zip(&self.selection) {
            let alt = &run.alternatives[alt];
            if alt.has_routes {
                return (Control::Routes(&alt.control_routes), Some(&alt.trail));
            }
        }
        match streamed {
            Some(s) if s.state.has_routes() => (Control::Converged(s.state), Some(s.trail)),
            _ => (Control::None, None),
        }
    }
}

/// Inputs describing how one PEC should be verified under one failure set.
pub struct PecSession<'a> {
    /// The network under verification.
    pub network: &'a Network,
    /// The PEC being verified.
    pub pec: &'a Pec,
    /// The failure scenario (links failed before protocol execution).
    pub failures: &'a FailureSet,
    /// Converged dependency information (loopback costs, recursive
    /// next hops).
    pub underlay: Arc<DependencyUnderlay>,
    /// Verifier options.
    pub options: &'a PlanktonOptions,
    /// Source nodes declared by the policy, if any.
    pub policy_sources: Option<Vec<NodeId>>,
    /// Does any other PEC depend on this one? (Disables policy-based and
    /// influence pruning, which are unsound in that case — §4.2.)
    pub has_dependents: bool,
    /// Does this PEC depend on other PECs (iBGP, recursive routes)? Early
    /// policy-based finishing is disabled then: the forwarding path of a
    /// source may traverse IGP transit nodes that have not yet selected
    /// their route in the partial state.
    pub has_dependencies: bool,
    /// The worker's search scratch, borrowed by each model-checking run,
    /// when the session runs inside the parallel engine. `None` allocates
    /// fresh state per run.
    pub scratch: Option<&'a RefCell<SearchScratch>>,
}

impl<'a> PecSession<'a> {
    fn search_options(&self, single_prefix: bool) -> SearchOptions {
        let mut search = self.options.search.clone();
        if self.has_dependents || self.has_dependencies {
            search.policy_pruning = false;
            search.influence_pruning = false;
            search.source_nodes = None;
        } else {
            search.source_nodes = self.policy_sources.clone();
            if !single_prefix {
                // Influence pruning is only sound for single-prefix PECs.
                search.influence_pruning = false;
            }
        }
        search
    }

    /// The entries of `cfg` present regardless of protocol convergence:
    /// connected prefixes (delivered at their owner) and static routes.
    fn base_entries(&self, cfg: &PrefixConfig) -> Vec<Vec<FibEntry>> {
        let mut base_entries: Vec<Vec<FibEntry>> = vec![Vec::new(); self.network.node_count()];
        for (owner, proto) in &cfg.origins {
            if *proto == OriginProtocol::Connected {
                base_entries[owner.index()]
                    .push(FibEntry::local(cfg.prefix, RouteSource::Connected));
            }
        }
        for (device, sr) in &cfg.static_routes {
            let entry = match sr.next_hop {
                StaticNextHop::Null => FibEntry::null(cfg.prefix),
                StaticNextHop::Interface(nbr) => {
                    // Only usable if some live link joins the two devices.
                    let alive = self
                        .network
                        .topology
                        .links_between(*device, nbr)
                        .into_iter()
                        .any(|l| !self.failures.contains(l));
                    if alive {
                        FibEntry::via(cfg.prefix, vec![nbr], RouteSource::Static)
                            .with_distance(sr.admin_distance)
                    } else {
                        continue;
                    }
                }
                StaticNextHop::Ip(addr) => {
                    match self.underlay.resolve_next_hops(*device, addr) {
                        // Recursive resolution through the dependency PEC.
                        Some(hops) if !hops.is_empty() => {
                            FibEntry::via(cfg.prefix, hops, RouteSource::Static)
                                .with_distance(sr.admin_distance)
                        }
                        // The device owns the next-hop address itself.
                        Some(_) => FibEntry::local(cfg.prefix, RouteSource::Static),
                        // Unresolvable next hop: the route is not installed.
                        None => continue,
                    }
                }
            };
            base_entries[device.index()].push(entry);
        }
        base_entries
    }

    /// Exhaustively model check `cfg`'s instance of `protocol` (OSPF or
    /// BGP, from the given origins), handing every converged state — with
    /// its trail and the forwarder that turns its routes into FIB entries —
    /// to `on_converged`.
    fn run_protocol(
        &self,
        cfg: &PrefixConfig,
        protocol: OriginProtocol,
        origins: Vec<NodeId>,
        single_prefix: bool,
        on_converged: &mut dyn FnMut(&ConvergedState<'_>, &Trail, &Forwarder<'_>),
    ) -> SearchStats {
        let (ospf, bgp);
        let (model, por, forwarder): (&dyn ProtocolModel, Box<dyn PorHeuristic>, _) =
            if protocol == OriginProtocol::Ospf {
                ospf = OspfModel::new(self.network, cfg.prefix, origins, self.failures);
                (&ospf, Box::new(OspfPor), Forwarder::Ospf(&ospf))
            } else {
                bgp = BgpModel::new(
                    self.network,
                    cfg.prefix,
                    origins,
                    self.failures,
                    self.underlay.clone(),
                );
                let por: Box<dyn PorHeuristic> = if self.options.search.deterministic_nodes {
                    Box::new(BgpPor::from_model(&bgp))
                } else {
                    Box::new(NoPor)
                };
                (&bgp, por, Forwarder::Bgp(&self.underlay))
            };
        let search_options = self.search_options(single_prefix);
        let mut callback = |converged: &ConvergedState<'_>, trail: &Trail| {
            on_converged(converged, trail, &forwarder);
            Verdict::Continue
        };
        if self.options.reference_explorer {
            // Differential-testing path: the pre-incremental clone-based
            // search (allocates fresh state; ignores the worker scratch).
            let checker = ReferenceChecker::new(model, por, search_options, self.failures.clone());
            return checker.run(&mut callback);
        }
        let checker = ModelChecker::new(model, por, search_options, self.failures.clone());
        match self.scratch {
            Some(scratch) => checker.run_in(&mut scratch.borrow_mut(), &mut callback),
            None => checker.run(&mut callback),
        }
    }

    /// Model check `cfg`'s instance of `protocol`, keeping every converged
    /// state as an alternative.
    fn collect(
        &self,
        cfg: &PrefixConfig,
        protocol: OriginProtocol,
        origins: Vec<NodeId>,
        single_prefix: bool,
    ) -> (Vec<PrefixAlternative>, SearchStats) {
        let mut alternatives = Vec::new();
        let mut hops = Vec::new();
        let stats = self.run_protocol(cfg, protocol, origins, single_prefix, &mut |s, t, f| {
            alternatives.push(f.alternative(cfg.prefix, s, t, &mut hops))
        });
        (alternatives, stats)
    }

    /// Run the control plane of a prefix that is not streamed and collect
    /// its alternatives: the cross product of the OSPF and BGP ones (usually
    /// one side is empty or both have a single element).
    fn collect_prefix(
        &self,
        cfg: &PrefixConfig,
        single_prefix: bool,
        stats: &mut SearchStats,
    ) -> PrefixRun {
        let n = self.network.node_count();
        let mut collect = |protocol| {
            let origins = origins_of(cfg, protocol);
            if origins.is_empty() {
                return Vec::new();
            }
            let (alternatives, s) = self.collect(cfg, protocol, origins, single_prefix);
            *stats += s;
            alternatives
        };
        let ospf_alts = collect(OriginProtocol::Ospf);
        let bgp_alts = collect(OriginProtocol::Bgp);
        let alternatives = match (ospf_alts.is_empty(), bgp_alts.is_empty()) {
            (true, true) => vec![PrefixAlternative::new(
                vec![Vec::new(); n],
                vec![None; n],
                Trail::new(self.failures.clone()),
            )],
            (false, true) => ospf_alts,
            (true, false) => bgp_alts,
            (false, false) => {
                let mut combined = Vec::new();
                for o in &ospf_alts {
                    for b in &bgp_alts {
                        let mut entries = o.entries.clone();
                        for (node, extra) in b.entries.iter().enumerate() {
                            entries[node].extend(extra.iter().cloned());
                        }
                        // Control-plane view: prefer the BGP route where both
                        // exist (admin distance does the same in the FIB).
                        let control_routes = o
                            .control_routes
                            .iter()
                            .zip(&b.control_routes)
                            .map(|(ospf, bgp)| bgp.clone().or_else(|| ospf.clone()))
                            .collect();
                        combined.push(PrefixAlternative::new(
                            entries,
                            control_routes,
                            b.trail.clone(),
                        ));
                    }
                }
                combined
            }
        };
        PrefixRun {
            base_entries: self.base_entries(cfg),
            alternatives,
        }
    }

    /// Verify the PEC under this session's failure set, handing each
    /// combined data plane to `sink` as it is built (bounded by
    /// [`PlanktonOptions::max_data_planes_per_pec`]; see the module docs).
    pub fn stream_planes(&self, sink: &mut dyn FnMut(&PlaneRef<'_>)) -> PlaneStream {
        let n = self.network.node_count();
        let single_prefix = self.pec.prefixes.len() <= 1;
        let mut stats = SearchStats::default();
        // The last prefix streams when one protocol originates it; a prefix
        // both OSPF and BGP originate keeps its collected cross product.
        let streamed = self.pec.prefixes.split_last().and_then(|(last, _)| {
            let ospf = origins_of(last, OriginProtocol::Ospf);
            let bgp = origins_of(last, OriginProtocol::Bgp);
            match (ospf.is_empty(), bgp.is_empty()) {
                (false, true) => Some((last, OriginProtocol::Ospf, ospf)),
                (true, false) => Some((last, OriginProtocol::Bgp, bgp)),
                _ => None,
            }
        });
        let collected_cfgs = match streamed {
            Some(_) => &self.pec.prefixes[..self.pec.prefixes.len() - 1],
            None => &self.pec.prefixes[..],
        };
        let collected: Vec<PrefixRun> = collected_cfgs
            .iter()
            .map(|cfg| self.collect_prefix(cfg, single_prefix, &mut stats))
            .collect();
        let base = match streamed {
            Some((last, ..)) => self.base_entries(last),
            None => vec![Vec::new(); n],
        };
        // A PEC with no configuration has a single all-blackhole data plane,
        // not counted against the cap.
        let cap = if self.pec.prefixes.is_empty() {
            usize::MAX
        } else {
            self.options.max_data_planes_per_pec
        };
        let mut builder = PlaneBuilder::new(self, &collected, &base, cap);
        if let Some((last, protocol, origins)) = streamed {
            let on_converged =
                &mut |state: &ConvergedState<'_>, trail: &Trail, forwarder: &Forwarder<'_>| {
                    builder.states += 1;
                    let streamed = Streamed {
                        prefix: last.prefix,
                        state: *state,
                        trail,
                        forwarder,
                    };
                    builder.emit(Some(&streamed), sink);
                };
            stats += self.run_protocol(last, protocol, origins, single_prefix, on_converged);
        }
        if builder.states == 0 {
            builder.emit(None, sink);
        }
        PlaneStream {
            stats,
            planes: builder.planes,
            capped: builder.capped,
        }
    }

    /// Every combined data plane of the PEC, owned: a collector over
    /// [`PecSession::stream_planes`].
    pub fn data_planes(&self) -> (Vec<DataPlane>, SearchStats) {
        let mut planes = Vec::new();
        let stream = self.stream_planes(&mut |plane| planes.push(plane.to_owned()));
        (planes, stream.stats)
    }

    /// Turn a data plane into the record stored for dependent PECs.
    pub fn record_of(&self, plane: &PlaneRef<'_>) -> ConvergedRecord {
        let mut control_routes = Vec::new();
        plane.control_routes_into(&mut control_routes);
        ConvergedRecord {
            failures: self.failures.clone(),
            owners: plane.forwarding.delivery_points(),
            forwarding: plane.forwarding.clone(),
            control_routes,
        }
    }
}

/// The devices originating `cfg`'s prefix into `protocol`.
fn origins_of(cfg: &PrefixConfig, protocol: OriginProtocol) -> Vec<NodeId> {
    cfg.origins
        .iter()
        .filter(|(_, p)| *p == protocol)
        .map(|(n, _)| *n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::PlanktonOptions;
    use plankton_config::scenarios::{disagree_gadget, fat_tree_ospf, ring_ospf, CoreStaticRoutes};
    use plankton_pec::compute_pecs;

    fn session_for<'a>(
        network: &'a Network,
        pec: &'a Pec,
        failures: &'a FailureSet,
        options: &'a PlanktonOptions,
    ) -> PecSession<'a> {
        PecSession {
            network,
            pec,
            failures,
            underlay: Arc::new(DependencyUnderlay::new()),
            options,
            policy_sources: None,
            has_dependents: false,
            has_dependencies: false,
            scratch: None,
        }
    }

    #[test]
    fn ring_pec_produces_single_data_plane_with_full_reachability() {
        let s = ring_ospf(6);
        let pecs = compute_pecs(&s.network);
        let pec = pecs.pecs_overlapping(&s.destination)[0];
        let options = PlanktonOptions::default();
        let failures = FailureSet::none();
        let session = session_for(&s.network, pec, &failures, &options);
        let (planes, stats) = session.data_planes();
        assert_eq!(planes.len(), 1);
        assert!(stats.steps > 0);
        for n in s.network.topology.node_ids() {
            assert!(
                planes[0].forwarding.walk(n).is_delivered(),
                "{n} cannot reach the destination"
            );
        }
        let mut records = Vec::new();
        session.stream_planes(&mut |plane| records.push(session.record_of(plane)));
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].owners, vec![s.origin]);
        assert_eq!(records[0].forwarding, planes[0].forwarding);
    }

    #[test]
    fn static_loops_show_up_in_the_data_plane() {
        let s = fat_tree_ospf(4, CoreStaticRoutes::Looping);
        let pecs = compute_pecs(&s.network);
        // Prefix 0 is one of the "wrong pod" prefixes (even index).
        let pec = pecs.pecs_overlapping(&s.destinations[0])[0];
        let options = PlanktonOptions::default();
        let failures = FailureSet::none();
        let session = session_for(&s.network, pec, &failures, &options);
        let (planes, _) = session.data_planes();
        assert_eq!(planes.len(), 1);
        assert!(
            planes[0].forwarding.has_loop(None).is_some(),
            "expected a forwarding loop from the misconfigured static routes"
        );
    }

    #[test]
    fn matching_static_routes_keep_the_fat_tree_loop_free() {
        let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
        let pecs = compute_pecs(&s.network);
        let options = PlanktonOptions::default();
        let failures = FailureSet::none();
        for prefix in &s.destinations {
            let pec = pecs.pecs_overlapping(prefix)[0];
            let session = session_for(&s.network, pec, &failures, &options);
            let (planes, _) = session.data_planes();
            for plane in &planes {
                assert!(plane.forwarding.has_loop(None).is_none(), "{prefix}");
            }
        }
    }

    #[test]
    fn disagree_pec_produces_two_data_planes() {
        let g = disagree_gadget();
        let pecs = compute_pecs(&g.network);
        let pec = pecs.pecs_overlapping(&g.destination)[0];
        let options = PlanktonOptions::default();
        let failures = FailureSet::none();
        let session = session_for(&g.network, pec, &failures, &options);
        let (planes, _) = session.data_planes();
        assert_eq!(planes.len(), 2);
        // The two planes differ in the next hop of at least one actor.
        let nh = |p: &DataPlane, n: NodeId| p.forwarding.next_hops[n.index()].clone();
        assert_ne!(
            (nh(&planes[0], g.actors[0]), nh(&planes[0], g.actors[1])),
            (nh(&planes[1], g.actors[0]), nh(&planes[1], g.actors[1]))
        );
    }

    #[test]
    fn failed_link_changes_the_forwarding_graph() {
        let s = ring_ospf(6);
        let pecs = compute_pecs(&s.network);
        let pec = pecs.pecs_overlapping(&s.destination)[0];
        let options = PlanktonOptions::default();
        let failures = FailureSet::single(s.ring.links[0]);
        let session = session_for(&s.network, pec, &failures, &options);
        let (planes, _) = session.data_planes();
        assert_eq!(planes.len(), 1);
        let r1 = s.ring.routers[1];
        // Router 1 lost its direct link to the origin and must go the long
        // way: 5 hops.
        let outcome = planes[0].forwarding.walk(r1);
        assert!(outcome.is_delivered());
        assert_eq!(outcome.hop_count(), 5);
    }

    #[test]
    fn inert_pec_yields_blackhole_plane() {
        let s = ring_ospf(4);
        let pecs = compute_pecs(&s.network);
        // The PEC below the destination prefix carries no configuration.
        let inert = pecs
            .iter()
            .find(|p| p.is_inert())
            .expect("ring network has inert PECs");
        let options = PlanktonOptions::default();
        let failures = FailureSet::none();
        let session = session_for(&s.network, inert, &failures, &options);
        let (planes, stats) = session.data_planes();
        assert_eq!(planes.len(), 1);
        assert_eq!(stats.steps, 0);
        assert!(planes[0].forwarding.delivery_points().is_empty());
    }
}
