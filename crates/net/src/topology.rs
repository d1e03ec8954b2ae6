//! The device/link topology model.
//!
//! A [`Topology`] is an undirected multigraph of routers (and hosts) joined
//! by point-to-point links. Each endpoint of a link is an *interface* which
//! may carry an IPv4 address; routers additionally have a loopback address
//! used for iBGP peering and recursive routing.

use crate::ip::{Ipv4Addr, Prefix};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a device (router or host) in a [`Topology`].
///
/// Node ids are dense indices assigned in insertion order.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index of this node, for indexing per-node vectors.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an undirected link in a [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The index of this link, for indexing per-link vectors.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// The role of a device. Only routers participate in routing protocols;
/// hosts are traffic sources/sinks used by policies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum NodeKind {
    /// A router running one or more routing protocols.
    Router,
    /// An end host (never forwards transit traffic).
    Host,
}

/// A device in the topology.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Node {
    /// Dense identifier.
    pub id: NodeId,
    /// Human-readable name (unique within a topology).
    pub name: String,
    /// Router or host.
    pub kind: NodeKind,
    /// Loopback address, if assigned. iBGP sessions peer between loopbacks
    /// and recursive static routes may point at them.
    pub loopback: Option<Ipv4Addr>,
}

/// A numbered interface address: a host IP together with the subnet length
/// of the link it sits on (e.g. `192.168.1.1/30`). Unlike [`Prefix`], the
/// host bits are preserved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InterfaceAddr {
    /// The host address assigned to the interface.
    pub ip: Ipv4Addr,
    /// Subnet length of the connected link.
    pub prefix_len: u8,
}

impl InterfaceAddr {
    /// Construct an interface address.
    pub fn new(ip: Ipv4Addr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32);
        InterfaceAddr { ip, prefix_len }
    }

    /// The subnet this interface sits on (host bits masked away).
    pub fn subnet(&self) -> Prefix {
        Prefix::new(self.ip, self.prefix_len)
    }
}

/// One endpoint of a link.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Interface {
    /// The node owning this interface.
    pub node: NodeId,
    /// Interface address, if numbered.
    pub addr: Option<InterfaceAddr>,
}

/// An undirected point-to-point link between two interfaces.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Link {
    /// Dense identifier.
    pub id: LinkId,
    /// Endpoint A.
    pub a: Interface,
    /// Endpoint B.
    pub b: Interface,
}

impl Link {
    /// The node at the other end of the link from `n`.
    ///
    /// # Panics
    /// Panics if `n` is not an endpoint of this link.
    pub fn other(&self, n: NodeId) -> NodeId {
        if self.a.node == n {
            self.b.node
        } else if self.b.node == n {
            self.a.node
        } else {
            panic!("{n:?} is not an endpoint of {:?}", self.id)
        }
    }

    /// Does the link connect `n`?
    pub fn touches(&self, n: NodeId) -> bool {
        self.a.node == n || self.b.node == n
    }

    /// The interface of the link belonging to `n`, if any.
    pub fn interface_of(&self, n: NodeId) -> Option<&Interface> {
        if self.a.node == n {
            Some(&self.a)
        } else if self.b.node == n {
            Some(&self.b)
        } else {
            None
        }
    }

    /// The two endpoints as an ordered pair (lower node id first).
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        if self.a.node <= self.b.node {
            (self.a.node, self.b.node)
        } else {
            (self.b.node, self.a.node)
        }
    }
}

/// An immutable network topology.
///
/// Built with [`TopologyBuilder`]; once built, node and link ids are stable
/// dense indices which the rest of Plankton uses to index per-node state
/// vectors.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency[n] = list of (neighbor, link) pairs.
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    name_index: HashMap<String, NodeId>,
}

impl Topology {
    /// Number of devices.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All devices, in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, in id order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// The device with id `n`.
    pub fn node(&self, n: NodeId) -> &Node {
        &self.nodes[n.index()]
    }

    /// The link with id `l`.
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.index()]
    }

    /// Look a device up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied()
    }

    /// Neighbors of `n` as (neighbor, link) pairs (parallel links appear
    /// once per link).
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[n.index()]
    }

    /// Degree of `n` (number of incident links).
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency[n.index()].len()
    }

    /// The first link between `a` and `b`, if the nodes are adjacent.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adjacency[a.index()]
            .iter()
            .find(|(nbr, _)| *nbr == b)
            .map(|(_, l)| *l)
    }

    /// All links between `a` and `b` (there may be parallel links).
    pub fn links_between(&self, a: NodeId, b: NodeId) -> Vec<LinkId> {
        self.adjacency[a.index()]
            .iter()
            .filter(|(nbr, _)| *nbr == b)
            .map(|(_, l)| *l)
            .collect()
    }

    /// The node whose loopback or interface address owns `addr`, if any.
    /// Loopbacks and interface host addresses are matched exactly; if no
    /// exact match exists, the first interface whose subnet contains `addr`
    /// is returned (used to resolve "next hop somewhere on this LAN").
    pub fn owner_of_address(&self, addr: Ipv4Addr) -> Option<NodeId> {
        for node in &self.nodes {
            if node.loopback == Some(addr) {
                return Some(node.id);
            }
        }
        for link in &self.links {
            for ifc in [&link.a, &link.b] {
                if let Some(a) = ifc.addr {
                    if a.ip == addr {
                        return Some(ifc.node);
                    }
                }
            }
        }
        // Fall back to subnet containment.
        for link in &self.links {
            for ifc in [&link.a, &link.b] {
                if let Some(a) = ifc.addr {
                    if a.subnet().contains(addr) {
                        return Some(ifc.node);
                    }
                }
            }
        }
        None
    }

    /// Is the (undirected) topology connected, ignoring the links in
    /// `failed`? Hosts are included.
    pub fn is_connected_without(&self, failed: &[LinkId]) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(n) = stack.pop() {
            for &(nbr, l) in self.neighbors(n) {
                if failed.contains(&l) || seen[nbr.index()] {
                    continue;
                }
                seen[nbr.index()] = true;
                count += 1;
                stack.push(nbr);
            }
        }
        count == self.nodes.len()
    }

    /// Is the topology connected?
    pub fn is_connected(&self) -> bool {
        self.is_connected_without(&[])
    }

    // -----------------------------------------------------------------
    // Growth — used by the incremental verification service's node/link
    // deltas. Existing node and link ids are never renumbered: additions
    // append, so per-node/per-link state vectors held elsewhere stay
    // index-compatible after extension.
    // -----------------------------------------------------------------

    /// Append a device of the given kind. Names must be unique.
    ///
    /// # Panics
    /// Panics if the name is already used.
    pub fn grow_node(&mut self, name: &str, kind: NodeKind) -> NodeId {
        assert!(
            !self.name_index.contains_key(name),
            "duplicate node name {name:?}"
        );
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            name: name.to_string(),
            kind,
            loopback: None,
        });
        self.adjacency.push(Vec::new());
        self.name_index.insert(name.to_string(), id);
        id
    }

    /// Append an unnumbered link between two existing nodes.
    ///
    /// # Panics
    /// Panics on unknown endpoints or self-loops.
    pub fn grow_link(&mut self, a: NodeId, b: NodeId) -> LinkId {
        assert!(a.index() < self.nodes.len(), "unknown node {a:?}");
        assert!(b.index() < self.nodes.len(), "unknown node {b:?}");
        assert_ne!(a, b, "self-loop links are not allowed");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id,
            a: Interface {
                node: a,
                addr: None,
            },
            b: Interface {
                node: b,
                addr: None,
            },
        });
        self.adjacency[a.index()].push((b, id));
        self.adjacency[b.index()].push((a, id));
        id
    }

    /// Assign (or replace) a node's loopback address.
    pub fn assign_loopback(&mut self, n: NodeId, addr: Ipv4Addr) {
        self.nodes[n.index()].loopback = Some(addr);
    }

    /// Connected components of the subgraph induced by the nodes satisfying
    /// `node_in` and the links satisfying `link_in` (a link is kept only when
    /// both its endpoints are in). Used by the scoped-invalidation layer to
    /// slice a protocol's speaker graph into independently-fingerprintable
    /// regions.
    pub fn subgraph_components(
        &self,
        node_in: impl Fn(NodeId) -> bool,
        link_in: impl Fn(&Link) -> bool,
    ) -> SubgraphComponents {
        let n = self.nodes.len();
        let mut comp = vec![u32::MAX; n];
        let mut keep_link = vec![false; self.links.len()];
        for link in &self.links {
            keep_link[link.id.index()] =
                node_in(link.a.node) && node_in(link.b.node) && link_in(link);
        }
        let mut members: Vec<Vec<NodeId>> = Vec::new();
        for start in 0..n {
            let node = NodeId(start as u32);
            if comp[start] != u32::MAX || !node_in(node) {
                continue;
            }
            let label = members.len() as u32;
            let mut found = vec![node];
            comp[start] = label;
            let mut stack = vec![node];
            while let Some(u) = stack.pop() {
                for &(nbr, l) in self.neighbors(u) {
                    if keep_link[l.index()] && comp[nbr.index()] == u32::MAX {
                        comp[nbr.index()] = label;
                        found.push(nbr);
                        stack.push(nbr);
                    }
                }
            }
            found.sort();
            members.push(found);
        }
        let mut link_comp = vec![u32::MAX; self.links.len()];
        let mut links: Vec<Vec<LinkId>> = vec![Vec::new(); members.len()];
        for link in &self.links {
            if keep_link[link.id.index()] {
                let c = comp[link.a.node.index()];
                link_comp[link.id.index()] = c;
                links[c as usize].push(link.id);
            }
        }
        SubgraphComponents {
            comp,
            link_comp,
            members,
            links,
        }
    }
}

/// The connected components of a filtered subgraph of a [`Topology`],
/// computed by [`Topology::subgraph_components`].
///
/// This is the reachability substrate of scoped invalidation: the region a
/// verification task can read under a *failure budget* is the union of its
/// seed nodes' components in the **un-failed** subgraph — exploring failures
/// only removes links, so the reachable set under any concrete failure
/// choice is contained in (and the union over every choice equals) the
/// seeds' full components. The budget therefore never has to be enumerated
/// here; per-failure-set refinement happens in the cost layer on top.
#[derive(Clone, Debug)]
pub struct SubgraphComponents {
    /// `comp[n]` = component label of node `n`, `u32::MAX` outside.
    comp: Vec<u32>,
    /// `link_comp[l]` = component label of kept link `l`, `u32::MAX` for
    /// dropped links.
    link_comp: Vec<u32>,
    /// Per component, its member nodes in ascending id order.
    members: Vec<Vec<NodeId>>,
    /// Per component, its kept links in ascending id order.
    links: Vec<Vec<LinkId>>,
}

impl SubgraphComponents {
    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.members.len()
    }

    /// The component of `n`, or `None` when `n` is outside the subgraph.
    pub fn component_of(&self, n: NodeId) -> Option<usize> {
        match self.comp.get(n.index()) {
            Some(&c) if c != u32::MAX => Some(c as usize),
            _ => None,
        }
    }

    /// The component of link `l`, or `None` when the link was filtered out.
    pub fn component_of_link(&self, l: LinkId) -> Option<usize> {
        match self.link_comp.get(l.index()) {
            Some(&c) if c != u32::MAX => Some(c as usize),
            _ => None,
        }
    }

    /// Member nodes of component `c`, ascending.
    pub fn members(&self, c: usize) -> &[NodeId] {
        &self.members[c]
    }

    /// Kept links of component `c`, ascending.
    pub fn links(&self, c: usize) -> &[LinkId] {
        &self.links[c]
    }

    /// The components reachable from `seeds` under *any* failure budget
    /// (sorted, deduplicated), or `None` when some seed lies outside the
    /// subgraph — the caller cannot scope soundly and must fall back to a
    /// global view. Failures only remove links, so the seeds' components in
    /// the un-failed subgraph bound everything any failure choice can reach.
    pub fn reachable_components(&self, seeds: &[NodeId]) -> Option<Vec<usize>> {
        let mut out = Vec::with_capacity(seeds.len());
        for &s in seeds {
            out.push(self.component_of(s)?);
        }
        out.sort_unstable();
        out.dedup();
        Some(out)
    }
}

/// Incremental builder for [`Topology`].
///
/// ```
/// use plankton_net::topology::{TopologyBuilder, NodeKind};
/// let mut b = TopologyBuilder::new();
/// let r0 = b.add_router("r0");
/// let r1 = b.add_router("r1");
/// b.add_link(r0, r1);
/// let topo = b.build();
/// assert_eq!(topo.node_count(), 2);
/// assert!(topo.link_between(r0, r1).is_some());
/// assert_eq!(topo.node(r0).kind, NodeKind::Router);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    name_index: HashMap<String, NodeId>,
}

impl TopologyBuilder {
    /// A new, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a device of the given kind. Names must be unique.
    ///
    /// # Panics
    /// Panics if the name is already used.
    pub fn add_node(&mut self, name: &str, kind: NodeKind) -> NodeId {
        assert!(
            !self.name_index.contains_key(name),
            "duplicate node name {name:?}"
        );
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            name: name.to_string(),
            kind,
            loopback: None,
        });
        self.name_index.insert(name.to_string(), id);
        id
    }

    /// Add a router.
    pub fn add_router(&mut self, name: &str) -> NodeId {
        self.add_node(name, NodeKind::Router)
    }

    /// Add a host.
    pub fn add_host(&mut self, name: &str) -> NodeId {
        self.add_node(name, NodeKind::Host)
    }

    /// Assign a loopback address to a node.
    pub fn set_loopback(&mut self, n: NodeId, addr: Ipv4Addr) -> &mut Self {
        self.nodes[n.index()].loopback = Some(addr);
        self
    }

    /// Add an unnumbered link between two nodes.
    pub fn add_link(&mut self, a: NodeId, b: NodeId) -> LinkId {
        self.add_link_addressed(a, None, b, None)
    }

    /// Add a link with optional interface addresses on each end.
    pub fn add_link_addressed(
        &mut self,
        a: NodeId,
        a_addr: Option<InterfaceAddr>,
        b: NodeId,
        b_addr: Option<InterfaceAddr>,
    ) -> LinkId {
        assert!(a.index() < self.nodes.len(), "unknown node {a:?}");
        assert!(b.index() < self.nodes.len(), "unknown node {b:?}");
        assert_ne!(a, b, "self-loop links are not allowed");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id,
            a: Interface {
                node: a,
                addr: a_addr,
            },
            b: Interface {
                node: b,
                addr: b_addr,
            },
        });
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Finalize into an immutable [`Topology`].
    pub fn build(self) -> Topology {
        let mut adjacency = vec![Vec::new(); self.nodes.len()];
        for link in &self.links {
            adjacency[link.a.node.index()].push((link.b.node, link.id));
            adjacency[link.b.node.index()].push((link.a.node, link.id));
        }
        Topology {
            nodes: self.nodes,
            links: self.links,
            adjacency,
            name_index: self.name_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Topology, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let r0 = b.add_router("r0");
        let r1 = b.add_router("r1");
        let r2 = b.add_router("r2");
        b.add_link(r0, r1);
        b.add_link(r1, r2);
        b.add_link(r2, r0);
        (b.build(), r0, r1, r2)
    }

    #[test]
    fn build_triangle() {
        let (t, r0, r1, r2) = triangle();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 3);
        assert_eq!(t.degree(r0), 2);
        assert!(t.link_between(r0, r1).is_some());
        assert!(t.link_between(r1, r0).is_some());
        assert_eq!(t.node_by_name("r2"), Some(r2));
        assert_eq!(t.node_by_name("nope"), None);
        assert!(t.is_connected());
    }

    #[test]
    fn link_other_and_touches() {
        let (t, r0, r1, r2) = triangle();
        let l = t.link_between(r0, r1).unwrap();
        let link = t.link(l);
        assert_eq!(link.other(r0), r1);
        assert_eq!(link.other(r1), r0);
        assert!(link.touches(r0));
        assert!(!link.touches(r2));
        assert!(link.interface_of(r2).is_none());
    }

    #[test]
    #[should_panic]
    fn link_other_panics_for_non_endpoint() {
        let (t, r0, r1, r2) = triangle();
        let l = t.link_between(r0, r1).unwrap();
        t.link(l).other(r2);
    }

    #[test]
    #[should_panic]
    fn duplicate_names_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_router("r0");
        b.add_router("r0");
    }

    #[test]
    #[should_panic]
    fn self_loops_rejected() {
        let mut b = TopologyBuilder::new();
        let r0 = b.add_router("r0");
        b.add_link(r0, r0);
    }

    #[test]
    fn connectivity_under_failures() {
        let (t, r0, r1, r2) = triangle();
        let l01 = t.link_between(r0, r1).unwrap();
        let l12 = t.link_between(r1, r2).unwrap();
        assert!(t.is_connected_without(&[l01]));
        assert!(!t.is_connected_without(&[l01, l12]));
    }

    #[test]
    fn parallel_links() {
        let mut b = TopologyBuilder::new();
        let a = b.add_router("a");
        let c = b.add_router("c");
        b.add_link(a, c);
        b.add_link(a, c);
        let t = b.build();
        assert_eq!(t.links_between(a, c).len(), 2);
        assert_eq!(t.degree(a), 2);
    }

    #[test]
    fn loopback_and_address_ownership() {
        let mut b = TopologyBuilder::new();
        let a = b.add_router("a");
        let c = b.add_router("c");
        b.set_loopback(a, Ipv4Addr::new(10, 0, 0, 1));
        b.add_link_addressed(
            a,
            Some(InterfaceAddr::new(Ipv4Addr::new(192, 168, 1, 1), 30)),
            c,
            Some(InterfaceAddr::new(Ipv4Addr::new(192, 168, 1, 2), 30)),
        );
        let t = b.build();
        assert_eq!(t.owner_of_address(Ipv4Addr::new(10, 0, 0, 1)), Some(a));
        assert_eq!(t.owner_of_address(Ipv4Addr::new(192, 168, 1, 2)), Some(c));
        assert_eq!(t.owner_of_address(Ipv4Addr::new(8, 8, 8, 8)), None);
    }

    #[test]
    fn subgraph_components_split_and_filter() {
        // Two triangles joined by a bridge link; hosts excluded.
        let mut b = TopologyBuilder::new();
        let r: Vec<NodeId> = (0..6).map(|i| b.add_router(&format!("r{i}"))).collect();
        let h = b.add_host("h");
        for (x, y) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_link(r[x], r[y]);
        }
        let bridge = b.add_link(r[2], r[3]);
        b.add_link(r[0], h);
        let t = b.build();

        // Without the bridge, routers form two components; the host is out.
        let sc = t.subgraph_components(|n| t.node(n).kind == NodeKind::Router, |l| l.id != bridge);
        assert_eq!(sc.component_count(), 2);
        assert_eq!(sc.members(0), &r[0..3]);
        assert_eq!(sc.members(1), &r[3..6]);
        assert_eq!(sc.component_of(h), None);
        assert_eq!(sc.component_of_link(bridge), None);
        assert_eq!(sc.links(0).len(), 3);
        assert_eq!(sc.reachable_components(&[r[0], r[1]]), Some(vec![0]));
        assert_eq!(sc.reachable_components(&[r[0], r[5]]), Some(vec![0, 1]));
        assert_eq!(sc.reachable_components(&[r[0], h]), None);

        // With the bridge, one component holding all seven router links.
        let sc = t.subgraph_components(|n| t.node(n).kind == NodeKind::Router, |_| true);
        assert_eq!(sc.component_count(), 1);
        assert_eq!(sc.members(0).len(), 6);
        assert_eq!(sc.links(0).len(), 7);
        assert_eq!(sc.component_of_link(bridge), Some(0));
    }

    #[test]
    fn hosts_vs_routers() {
        let mut b = TopologyBuilder::new();
        let r = b.add_router("r");
        let h = b.add_host("h");
        b.add_link(r, h);
        let t = b.build();
        assert_eq!(t.node(r).kind, NodeKind::Router);
        assert_eq!(t.node(h).kind, NodeKind::Host);
    }
}
