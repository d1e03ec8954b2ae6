//! Per-device forwarding tables.
//!
//! Plankton executes the control plane separately for each prefix of a PEC;
//! the FIB model then combines the per-prefix, per-protocol results into one
//! forwarding decision per device (§3.3): the longest matching prefix wins,
//! and within a prefix the route source with the lowest administrative
//! distance wins.

use plankton_net::ip::Prefix;
use plankton_net::topology::NodeId;
use serde::{Deserialize, Serialize};

/// Where a FIB entry came from, with its default administrative distance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouteSource {
    /// A directly connected / locally originated prefix.
    Connected,
    /// A static route (the configured distance may differ from the default).
    Static,
    /// OSPF.
    Ospf,
    /// BGP over an external session.
    Ebgp,
    /// BGP over an internal session.
    Ibgp,
}

impl RouteSource {
    /// The default administrative distance of this source.
    pub fn default_distance(self) -> u8 {
        match self {
            RouteSource::Connected => plankton_config::admin_distance::CONNECTED,
            RouteSource::Static => plankton_config::admin_distance::STATIC,
            RouteSource::Ospf => plankton_config::admin_distance::OSPF,
            RouteSource::Ebgp => plankton_config::admin_distance::EBGP,
            RouteSource::Ibgp => plankton_config::admin_distance::IBGP,
        }
    }
}

/// One candidate forwarding entry at a device.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FibEntry {
    /// The destination prefix the entry matches.
    pub prefix: Prefix,
    /// The next-hop devices (more than one for equal-cost multipath). Empty
    /// means the traffic is delivered locally (the device owns the prefix) —
    /// or discarded, if `drop` is set.
    pub next_hops: Vec<NodeId>,
    /// Is this a null route (discard)?
    pub drop: bool,
    /// Where the entry came from.
    pub source: RouteSource,
    /// Administrative distance used to arbitrate between sources.
    pub admin_distance: u8,
}

impl FibEntry {
    /// A locally-delivered entry (the device owns the prefix).
    pub fn local(prefix: Prefix, source: RouteSource) -> Self {
        FibEntry {
            prefix,
            next_hops: Vec::new(),
            drop: false,
            source,
            admin_distance: source.default_distance(),
        }
    }

    /// A forwarding entry towards the given next hops.
    pub fn via(prefix: Prefix, next_hops: Vec<NodeId>, source: RouteSource) -> Self {
        FibEntry {
            prefix,
            next_hops,
            drop: false,
            source,
            admin_distance: source.default_distance(),
        }
    }

    /// A null route.
    pub fn null(prefix: Prefix) -> Self {
        FibEntry {
            prefix,
            next_hops: Vec::new(),
            drop: true,
            source: RouteSource::Static,
            admin_distance: RouteSource::Static.default_distance(),
        }
    }

    /// Override the administrative distance, builder-style.
    pub fn with_distance(mut self, distance: u8) -> Self {
        self.admin_distance = distance;
        self
    }

    /// Is the traffic delivered locally by this entry?
    pub fn is_local(&self) -> bool {
        !self.drop && self.next_hops.is_empty()
    }

    /// What a device whose lookup selects this entry does with the traffic.
    pub fn action(&self) -> Forward<'_> {
        if self.drop {
            Forward::Drop
        } else if self.next_hops.is_empty() {
            Forward::Deliver
        } else {
            Forward::Via(&self.next_hops)
        }
    }
}

/// The forwarding action a device takes for one destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Forward<'a> {
    /// No matching entry: the traffic is dropped silently.
    NoRoute,
    /// A null route: the traffic is discarded.
    Drop,
    /// The device owns the destination and delivers the traffic.
    Deliver,
    /// The traffic is forwarded to these next hops.
    Via(&'a [NodeId]),
}

/// [`Fib::lookup`]'s arbitration, fed one candidate at a time in table
/// order: among the candidates whose prefix contains the address, the
/// longest prefix wins, then the lowest administrative distance, and the
/// first candidate wins a tie. Callers that derive a candidate only when it
/// could win ask [`Lookup::beats`] before building it.
#[derive(Clone, Copy, Debug)]
pub struct Lookup {
    addr: plankton_net::ip::Ipv4Addr,
    best: Option<(std::cmp::Reverse<u8>, u8)>,
}

impl Lookup {
    /// A lookup of `addr` with no candidate seen yet.
    pub fn new(addr: plankton_net::ip::Ipv4Addr) -> Self {
        Lookup { addr, best: None }
    }

    /// Would a candidate for `prefix` at `admin_distance`, offered next,
    /// displace the current winner?
    pub fn beats(&self, prefix: Prefix, admin_distance: u8) -> bool {
        prefix.contains(self.addr)
            && self
                .best
                .is_none_or(|best| (std::cmp::Reverse(prefix.len()), admin_distance) < best)
    }

    /// Offer the next candidate; returns whether it is the new winner.
    pub fn offer(&mut self, prefix: Prefix, admin_distance: u8) -> bool {
        let wins = self.beats(prefix, admin_distance);
        if wins {
            self.best = Some((std::cmp::Reverse(prefix.len()), admin_distance));
        }
        wins
    }
}

/// The FIB of a single device: candidate entries for the prefixes of one PEC.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Fib {
    entries: Vec<FibEntry>,
}

impl Fib {
    /// An empty FIB.
    pub fn new() -> Self {
        Fib::default()
    }

    /// Add a candidate entry.
    pub fn add(&mut self, entry: FibEntry) {
        self.entries.push(entry);
    }

    /// All candidate entries.
    pub fn entries(&self) -> &[FibEntry] {
        &self.entries
    }

    /// Is the FIB empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The winning entry for a destination address: longest prefix match
    /// first, then lowest administrative distance.
    pub fn lookup(&self, addr: plankton_net::ip::Ipv4Addr) -> Option<&FibEntry> {
        let mut lookup = Lookup::new(addr);
        let mut winner = None;
        for e in &self.entries {
            if lookup.offer(e.prefix, e.admin_distance) {
                winner = Some(e);
            }
        }
        winner
    }
}

/// The FIBs of every device for one PEC.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkFib {
    /// Per-device FIB, indexed by node id.
    pub fibs: Vec<Fib>,
}

impl NetworkFib {
    /// An empty network FIB for `n` devices.
    pub fn new(n: usize) -> Self {
        NetworkFib {
            fibs: vec![Fib::new(); n],
        }
    }

    /// The FIB of device `n`.
    pub fn fib(&self, n: NodeId) -> &Fib {
        &self.fibs[n.index()]
    }

    /// Mutable access to the FIB of device `n`.
    pub fn fib_mut(&mut self, n: NodeId) -> &mut Fib {
        &mut self.fibs[n.index()]
    }

    /// The winning entry at device `n` for a destination address.
    pub fn lookup(&self, n: NodeId, addr: plankton_net::ip::Ipv4Addr) -> Option<&FibEntry> {
        self.fib(n).lookup(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plankton_net::ip::Ipv4Addr;

    #[test]
    fn longest_prefix_match_wins() {
        let mut fib = Fib::new();
        fib.add(FibEntry::via(
            "10.0.0.0/8".parse().unwrap(),
            vec![NodeId(1)],
            RouteSource::Ospf,
        ));
        fib.add(FibEntry::via(
            "10.1.0.0/16".parse().unwrap(),
            vec![NodeId(2)],
            RouteSource::Ospf,
        ));
        let e = fib.lookup(Ipv4Addr::new(10, 1, 2, 3)).unwrap();
        assert_eq!(e.next_hops, vec![NodeId(2)]);
        let e = fib.lookup(Ipv4Addr::new(10, 200, 0, 1)).unwrap();
        assert_eq!(e.next_hops, vec![NodeId(1)]);
        assert!(fib.lookup(Ipv4Addr::new(11, 0, 0, 1)).is_none());
    }

    #[test]
    fn admin_distance_breaks_same_prefix_ties() {
        let mut fib = Fib::new();
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        fib.add(FibEntry::via(p, vec![NodeId(1)], RouteSource::Ospf));
        fib.add(FibEntry::via(p, vec![NodeId(2)], RouteSource::Static));
        let e = fib.lookup(Ipv4Addr::new(10, 0, 0, 5)).unwrap();
        assert_eq!(e.source, RouteSource::Static);
        assert_eq!(e.next_hops, vec![NodeId(2)]);
    }

    #[test]
    fn static_beats_ospf_but_respects_floating_distance() {
        let mut fib = Fib::new();
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        fib.add(FibEntry::via(p, vec![NodeId(1)], RouteSource::Ospf));
        fib.add(FibEntry::via(p, vec![NodeId(2)], RouteSource::Static).with_distance(250));
        // The floating static route (distance 250) loses to OSPF (110).
        let e = fib.lookup(Ipv4Addr::new(10, 0, 0, 5)).unwrap();
        assert_eq!(e.source, RouteSource::Ospf);
    }

    #[test]
    fn local_and_null_entries() {
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        let local = FibEntry::local(p, RouteSource::Connected);
        assert!(local.is_local());
        let null = FibEntry::null(p);
        assert!(!null.is_local());
        assert!(null.drop);
    }

    #[test]
    fn admin_distance_defaults_are_ordered() {
        assert!(RouteSource::Connected.default_distance() < RouteSource::Static.default_distance());
        assert!(RouteSource::Static.default_distance() < RouteSource::Ebgp.default_distance());
        assert!(RouteSource::Ebgp.default_distance() < RouteSource::Ospf.default_distance());
        assert!(RouteSource::Ospf.default_distance() < RouteSource::Ibgp.default_distance());
    }

    #[test]
    fn network_fib_indexing() {
        let mut nf = NetworkFib::new(3);
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        nf.fib_mut(NodeId(1))
            .add(FibEntry::local(p, RouteSource::Connected));
        assert!(nf.fib(NodeId(0)).is_empty());
        assert!(nf.lookup(NodeId(1), Ipv4Addr::new(10, 0, 0, 1)).is_some());
        assert!(nf.lookup(NodeId(2), Ipv4Addr::new(10, 0, 0, 1)).is_none());
    }
}
