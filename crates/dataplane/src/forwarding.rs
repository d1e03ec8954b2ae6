//! The per-PEC forwarding graph and path analysis.
//!
//! Once the FIBs for a PEC are assembled, forwarding behavior for that PEC is
//! a graph: each device has zero or more next hops (several with ECMP), is a
//! delivery point, or drops the traffic. Policies are functions over this
//! graph (§3.5), so the walks, loop detection and multipath enumeration here
//! are the substrate every policy is built on.

use crate::fib::{Forward, NetworkFib};
use plankton_net::ip::Ipv4Addr;
use plankton_net::topology::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// What happens to a packet injected at some device.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathOutcome {
    /// The packet reaches a delivery point; the path includes both endpoints.
    Delivered {
        /// The nodes traversed, source first, delivery point last.
        path: Vec<NodeId>,
    },
    /// The packet enters a forwarding loop; the path ends with the first
    /// repeated node.
    Loop {
        /// The nodes traversed until the repeat.
        path: Vec<NodeId>,
    },
    /// The packet is dropped (no route, or a null route) before delivery.
    Blackhole {
        /// The nodes traversed until the drop.
        path: Vec<NodeId>,
    },
}

impl PathOutcome {
    /// The traversed path regardless of outcome.
    pub fn path(&self) -> &[NodeId] {
        match self {
            PathOutcome::Delivered { path }
            | PathOutcome::Loop { path }
            | PathOutcome::Blackhole { path } => path,
        }
    }

    /// Was the packet delivered?
    pub fn is_delivered(&self) -> bool {
        matches!(self, PathOutcome::Delivered { .. })
    }

    /// Did the packet loop?
    pub fn is_loop(&self) -> bool {
        matches!(self, PathOutcome::Loop { .. })
    }

    /// Number of hops traversed (edges, not nodes).
    pub fn hop_count(&self) -> usize {
        self.path().len().saturating_sub(1)
    }
}

/// How a [`ForwardingGraph::walk_into`] ended (the [`PathOutcome`] without
/// its path).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkEnd {
    /// The packet reached a delivery point.
    Delivered,
    /// The packet entered a forwarding loop.
    Loop,
    /// The packet was dropped.
    Blackhole,
}

/// The forwarding graph of one PEC.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ForwardingGraph {
    /// Per device: its next hops for this PEC (empty for delivery points,
    /// drops and routeless devices).
    pub next_hops: Vec<Vec<NodeId>>,
    /// Per device: is traffic delivered here (the device owns a matching
    /// prefix)?
    pub delivers: Vec<bool>,
    /// Per device: does it explicitly discard this PEC's traffic (null route)?
    pub drops: Vec<bool>,
}

impl ForwardingGraph {
    /// An empty graph over `n` devices (everything is a blackhole).
    pub fn new(n: usize) -> Self {
        ForwardingGraph {
            next_hops: vec![Vec::new(); n],
            delivers: vec![false; n],
            drops: vec![false; n],
        }
    }

    /// Build the graph by looking up `addr` in every device's FIB.
    pub fn from_fib(fib: &NetworkFib, addr: Ipv4Addr) -> Self {
        let n = fib.fibs.len();
        let mut graph = ForwardingGraph::new(n);
        for i in 0..n {
            let action = fib
                .lookup(NodeId(i as u32), addr)
                .map_or(Forward::NoRoute, |entry| entry.action());
            graph.set(i, action);
        }
        graph
    }

    /// Make `action` device `i`'s forwarding, replacing whatever it was
    /// (the device's next-hop buffer is reused, not reallocated).
    pub fn set(&mut self, i: usize, action: Forward<'_>) {
        self.next_hops[i].clear();
        self.delivers[i] = action == Forward::Deliver;
        self.drops[i] = action == Forward::Drop;
        if let Forward::Via(hops) = action {
            self.next_hops[i].extend_from_slice(hops);
        }
    }

    /// Number of devices.
    pub fn node_count(&self) -> usize {
        self.next_hops.len()
    }

    /// The devices where traffic is delivered.
    pub fn delivery_points(&self) -> Vec<NodeId> {
        (0..self.node_count())
            .filter(|&i| self.delivers[i])
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// Walk from `src` following the *first* next hop at every device (the
    /// single-path view used by most policies).
    pub fn walk(&self, src: NodeId) -> PathOutcome {
        let mut path = Vec::new();
        let mut seen = vec![false; self.node_count()];
        match self.walk_into(src, &mut path, &mut seen) {
            WalkEnd::Delivered => PathOutcome::Delivered { path },
            WalkEnd::Loop => PathOutcome::Loop { path },
            WalkEnd::Blackhole => PathOutcome::Blackhole { path },
        }
    }

    /// [`ForwardingGraph::walk`] into caller-owned buffers: `path` is
    /// overwritten with the nodes traversed and the way the walk ended is
    /// returned. `seen` is a scratch flag per device, all `false` on entry
    /// and left all `false` again.
    pub fn walk_into(&self, src: NodeId, path: &mut Vec<NodeId>, seen: &mut [bool]) -> WalkEnd {
        path.clear();
        path.push(src);
        seen[src.index()] = true;
        let mut cur = src;
        let end = loop {
            if self.delivers[cur.index()] {
                break WalkEnd::Delivered;
            }
            if self.drops[cur.index()] {
                break WalkEnd::Blackhole;
            }
            match self.next_hops[cur.index()].first() {
                None => break WalkEnd::Blackhole,
                Some(&next) => {
                    path.push(next);
                    if seen[next.index()] {
                        break WalkEnd::Loop;
                    }
                    seen[next.index()] = true;
                    cur = next;
                }
            }
        };
        for n in path.iter() {
            seen[n.index()] = false;
        }
        end
    }

    /// Enumerate every multipath branch from `src`, up to `limit` paths.
    pub fn all_paths(&self, src: NodeId, limit: usize) -> Vec<PathOutcome> {
        let mut out = Vec::new();
        let mut stack = vec![(vec![src], HashSet::from([src]))];
        while let Some((path, seen)) = stack.pop() {
            if out.len() >= limit {
                break;
            }
            let cur = *path.last().expect("paths are never empty");
            if self.delivers[cur.index()] {
                out.push(PathOutcome::Delivered { path });
                continue;
            }
            if self.drops[cur.index()] || self.next_hops[cur.index()].is_empty() {
                out.push(PathOutcome::Blackhole { path });
                continue;
            }
            for &next in &self.next_hops[cur.index()] {
                let mut p = path.clone();
                p.push(next);
                if seen.contains(&next) {
                    out.push(PathOutcome::Loop { path: p });
                } else {
                    let mut s = seen.clone();
                    s.insert(next);
                    stack.push((p, s));
                }
            }
        }
        out
    }

    /// Does any forwarding loop exist that is reachable from one of
    /// `sources` (or from anywhere, if `sources` is `None`)? Considers every
    /// ECMP branch.
    pub fn has_loop(&self, sources: Option<&[NodeId]>) -> Option<Vec<NodeId>> {
        let starts: Vec<NodeId> = match sources {
            Some(s) => s.to_vec(),
            None => (0..self.node_count() as u32).map(NodeId).collect(),
        };
        // Reachable subgraph from the starts.
        let mut reachable = vec![false; self.node_count()];
        let mut queue: Vec<NodeId> = Vec::new();
        for s in starts {
            if !reachable[s.index()] {
                reachable[s.index()] = true;
                queue.push(s);
            }
        }
        while let Some(u) = queue.pop() {
            if self.delivers[u.index()] || self.drops[u.index()] {
                continue;
            }
            for &v in &self.next_hops[u.index()] {
                if !reachable[v.index()] {
                    reachable[v.index()] = true;
                    queue.push(v);
                }
            }
        }
        // Cycle detection (iterative DFS with colors) on the reachable part.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.node_count()];
        for start in 0..self.node_count() {
            if !reachable[start] || color[start] != Color::White {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = Color::Gray;
            let mut trail = vec![NodeId(start as u32)];
            while let Some(&(u, edge)) = stack.last() {
                let hops: &[NodeId] = if self.delivers[u] || self.drops[u] {
                    &[]
                } else {
                    &self.next_hops[u]
                };
                if edge < hops.len() {
                    let v = hops[edge];
                    stack.last_mut().expect("stack is non-empty").1 += 1;
                    match color[v.index()] {
                        Color::Gray => {
                            // Found a cycle: report the trail from v onwards.
                            let pos = trail.iter().position(|&x| x == v).unwrap_or(0);
                            let mut cycle = trail[pos..].to_vec();
                            cycle.push(v);
                            return Some(cycle);
                        }
                        Color::White => {
                            color[v.index()] = Color::Gray;
                            trail.push(v);
                            stack.push((v.index(), 0));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[u] = Color::Black;
                    stack.pop();
                    trail.pop();
                }
            }
        }
        None
    }

    /// The devices whose traffic ends in a blackhole (considering the first
    /// next hop at each step).
    pub fn blackhole_sources(&self) -> Vec<NodeId> {
        (0..self.node_count() as u32)
            .map(NodeId)
            .filter(|&n| matches!(self.walk(n), PathOutcome::Blackhole { .. }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a small graph by hand: 0 -> 1 -> 2 (delivers), 3 -> 4 (drops),
    /// 5 -> 6 -> 5 (loop), 7 has ECMP {1, 6}.
    fn sample() -> ForwardingGraph {
        let mut g = ForwardingGraph::new(8);
        g.next_hops[0] = vec![NodeId(1)];
        g.next_hops[1] = vec![NodeId(2)];
        g.delivers[2] = true;
        g.next_hops[3] = vec![NodeId(4)];
        g.drops[4] = true;
        g.next_hops[5] = vec![NodeId(6)];
        g.next_hops[6] = vec![NodeId(5)];
        g.next_hops[7] = vec![NodeId(1), NodeId(6)];
        g
    }

    #[test]
    fn walk_outcomes() {
        let g = sample();
        assert!(g.walk(NodeId(0)).is_delivered());
        assert_eq!(g.walk(NodeId(0)).hop_count(), 2);
        assert!(matches!(g.walk(NodeId(3)), PathOutcome::Blackhole { .. }));
        assert!(g.walk(NodeId(5)).is_loop());
        assert!(g.walk(NodeId(2)).is_delivered());
        assert_eq!(g.walk(NodeId(2)).hop_count(), 0);
    }

    #[test]
    fn all_paths_enumerates_ecmp_branches() {
        let g = sample();
        let paths = g.all_paths(NodeId(7), 16);
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().any(|p| p.is_delivered()));
        assert!(paths.iter().any(|p| p.is_loop()));
    }

    #[test]
    fn loop_detection_scoped_by_sources() {
        let g = sample();
        assert!(g.has_loop(None).is_some());
        assert!(g.has_loop(Some(&[NodeId(0)])).is_none());
        assert!(g.has_loop(Some(&[NodeId(5)])).is_some());
        assert!(g.has_loop(Some(&[NodeId(7)])).is_some());
        let cycle = g.has_loop(Some(&[NodeId(5)])).unwrap();
        assert_eq!(cycle.first(), cycle.last());
    }

    #[test]
    fn blackhole_sources_found() {
        let g = sample();
        let sinks = g.blackhole_sources();
        assert!(sinks.contains(&NodeId(3)));
        assert!(sinks.contains(&NodeId(4)));
        assert!(!sinks.contains(&NodeId(0)));
    }

    #[test]
    fn from_fib_builds_graph() {
        use crate::fib::{FibEntry, NetworkFib, RouteSource};
        let p = "10.0.0.0/24".parse().unwrap();
        let mut fib = NetworkFib::new(3);
        fib.fib_mut(NodeId(0))
            .add(FibEntry::via(p, vec![NodeId(1)], RouteSource::Ospf));
        fib.fib_mut(NodeId(1))
            .add(FibEntry::local(p, RouteSource::Connected));
        fib.fib_mut(NodeId(2)).add(FibEntry::null(p));
        let g = ForwardingGraph::from_fib(&fib, Ipv4Addr::new(10, 0, 0, 1));
        assert!(g.walk(NodeId(0)).is_delivered());
        assert!(g.delivers[1]);
        assert!(g.drops[2]);
        assert_eq!(g.delivery_points(), vec![NodeId(1)]);
    }

    #[test]
    fn empty_graph_is_all_blackholes() {
        let g = ForwardingGraph::new(4);
        assert_eq!(g.blackhole_sources().len(), 4);
        assert!(g.has_loop(None).is_none());
        assert!(g.delivery_points().is_empty());
    }
}
