//! Generic weighted-graph algorithms over a [`Topology`].
//!
//! These are used throughout Plankton: the OSPF deterministic-node heuristic
//! runs a network-wide shortest-path computation (§4.1.2 of the paper), the
//! ARC baseline needs shortest-path DAGs and max-flow, and Bonsai-style
//! compression needs connectivity queries.

use crate::failure::FailureSet;
use crate::topology::{LinkId, NodeId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cost of an unreachable node in shortest-path results.
pub const INFINITY: u64 = u64::MAX;

/// Result of a single-source shortest-path computation.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// The source of the computation.
    pub source: NodeId,
    /// `dist[n]` = cost of the best path from `source` to `n` (`INFINITY` if
    /// unreachable).
    pub dist: Vec<u64>,
    /// For every node, the set of predecessor nodes on *some* shortest path
    /// (supports equal-cost multipath).
    pub predecessors: Vec<Vec<NodeId>>,
}

impl ShortestPaths {
    /// Is `n` reachable from the source?
    pub fn reachable(&self, n: NodeId) -> bool {
        self.dist[n.index()] != INFINITY
    }

    /// Cost of the best path to `n`, or `None` if unreachable.
    pub fn cost(&self, n: NodeId) -> Option<u64> {
        let d = self.dist[n.index()];
        (d != INFINITY).then_some(d)
    }

    /// One shortest path from the source to `n` (source first), if reachable.
    pub fn path_to(&self, n: NodeId) -> Option<Vec<NodeId>> {
        if !self.reachable(n) {
            return None;
        }
        let mut path = vec![n];
        let mut cur = n;
        while cur != self.source {
            let pred = *self.predecessors[cur.index()].first()?;
            path.push(pred);
            cur = pred;
        }
        path.reverse();
        Some(path)
    }

    /// Nodes ordered by increasing distance from the source (unreachable
    /// nodes excluded). This is the execution order used by the OSPF
    /// deterministic-node heuristic.
    pub fn nodes_by_distance(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = (0..self.dist.len() as u32)
            .map(NodeId)
            .filter(|n| self.reachable(*n))
            .collect();
        nodes.sort_by_key(|n| (self.dist[n.index()], n.0));
        nodes
    }
}

/// Dijkstra single-source shortest paths over the topology, with a
/// per-(node, link) cost function and a set of failed links to skip.
///
/// `cost(from, link)` returns the cost of leaving `from` over `link`, or
/// `None` if the link may not be used in that direction (e.g. the protocol
/// is not enabled on it).
pub fn dijkstra<F>(
    topo: &Topology,
    source: NodeId,
    failures: &FailureSet,
    mut cost: F,
) -> ShortestPaths
where
    F: FnMut(NodeId, LinkId) -> Option<u64>,
{
    let n = topo.node_count();
    let mut dist = vec![INFINITY; n];
    let mut predecessors = vec![Vec::new(); n];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    dist[source.index()] = 0;
    heap.push(Reverse((0, source.0)));

    while let Some(Reverse((d, u))) = heap.pop() {
        let u = NodeId(u);
        if d > dist[u.index()] {
            continue;
        }
        for &(v, link) in topo.neighbors(u) {
            if failures.contains(link) {
                continue;
            }
            let Some(w) = cost(u, link) else { continue };
            let nd = d.saturating_add(w);
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                predecessors[v.index()] = vec![u];
                heap.push(Reverse((nd, v.0)));
            } else if nd == dist[v.index()]
                && nd != INFINITY
                && !predecessors[v.index()].contains(&u)
            {
                predecessors[v.index()].push(u);
            }
        }
    }

    ShortestPaths {
        source,
        dist,
        predecessors,
    }
}

/// Breadth-first search reachability from `source`, skipping failed links.
pub fn reachable_from(topo: &Topology, source: NodeId, failures: &FailureSet) -> Vec<bool> {
    let mut seen = vec![false; topo.node_count()];
    let mut queue = std::collections::VecDeque::new();
    seen[source.index()] = true;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &(v, link) in topo.neighbors(u) {
            if failures.contains(link) || seen[v.index()] {
                continue;
            }
            seen[v.index()] = true;
            queue.push_back(v);
        }
    }
    seen
}

/// Maximum number of edge-disjoint paths (unit-capacity max-flow) between
/// `source` and `sink`, skipping failed links.
///
/// The ARC baseline uses this to answer "is `sink` reachable from `source`
/// under any combination of at most `k` link failures": the answer is yes
/// iff the number of edge-disjoint paths exceeds `k` (Menger's theorem).
pub fn edge_disjoint_paths(
    topo: &Topology,
    source: NodeId,
    sink: NodeId,
    failures: &FailureSet,
) -> usize {
    if source == sink {
        return usize::MAX;
    }
    // Residual capacities per link per direction: cap[link][dir] with dir 0 =
    // a->b, 1 = b->a. Unit capacities on every live link.
    let m = topo.link_count();
    let mut cap = vec![[0u8; 2]; m];
    for l in topo.link_ids() {
        if !failures.contains(l) {
            cap[l.index()] = [1, 1];
        }
    }
    let mut flow = 0usize;
    loop {
        // BFS for an augmenting path.
        let mut parent: Vec<Option<(NodeId, LinkId, usize)>> = vec![None; topo.node_count()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(source);
        let mut found = false;
        'bfs: while let Some(u) = queue.pop_front() {
            for &(v, link) in topo.neighbors(u) {
                if parent[v.index()].is_some() || v == source {
                    continue;
                }
                let link_ref = topo.link(link);
                let dir = if link_ref.a.node == u { 0 } else { 1 };
                if cap[link.index()][dir] == 0 {
                    continue;
                }
                parent[v.index()] = Some((u, link, dir));
                if v == sink {
                    found = true;
                    break 'bfs;
                }
                queue.push_back(v);
            }
        }
        if !found {
            break;
        }
        // Augment along the path.
        let mut cur = sink;
        while cur != source {
            let (prev, link, dir) = parent[cur.index()].expect("path must be complete");
            cap[link.index()][dir] -= 1;
            cap[link.index()][1 - dir] += 1;
            cur = prev;
        }
        flow += 1;
    }
    flow
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    fn diamond() -> (Topology, [NodeId; 4]) {
        // 0 - 1
        // |   |
        // 2 - 3    plus a direct 0-3 link
        let mut b = TopologyBuilder::new();
        let n0 = b.add_router("n0");
        let n1 = b.add_router("n1");
        let n2 = b.add_router("n2");
        let n3 = b.add_router("n3");
        b.add_link(n0, n1);
        b.add_link(n0, n2);
        b.add_link(n1, n3);
        b.add_link(n2, n3);
        b.add_link(n0, n3);
        (b.build(), [n0, n1, n2, n3])
    }

    #[test]
    fn dijkstra_unit_costs() {
        let (t, [n0, n1, n2, n3]) = diamond();
        let sp = dijkstra(&t, n0, &FailureSet::none(), |_, _| Some(1));
        assert_eq!(sp.cost(n0), Some(0));
        assert_eq!(sp.cost(n1), Some(1));
        assert_eq!(sp.cost(n2), Some(1));
        assert_eq!(sp.cost(n3), Some(1));
        let order = sp.nodes_by_distance();
        assert_eq!(order[0], n0);
    }

    #[test]
    fn dijkstra_weighted_prefers_cheap_path() {
        let (t, [n0, _n1, _n2, n3]) = diamond();
        // Make the direct 0-3 link expensive.
        let direct = t.link_between(n0, n3).unwrap();
        let sp = dijkstra(&t, n0, &FailureSet::none(), |_, l| {
            Some(if l == direct { 100 } else { 1 })
        });
        assert_eq!(sp.cost(n3), Some(2));
        let path = sp.path_to(n3).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(path[0], n0);
        assert_eq!(path[2], n3);
    }

    #[test]
    fn dijkstra_ecmp_records_multiple_predecessors() {
        let (t, [n0, _n1, _n2, n3]) = diamond();
        let direct = t.link_between(n0, n3).unwrap();
        let sp = dijkstra(&t, n0, &FailureSet::none(), |_, l| {
            Some(if l == direct { 100 } else { 1 })
        });
        // Two equal-cost 2-hop paths to n3 (via n1 and via n2).
        assert_eq!(sp.predecessors[n3.index()].len(), 2);
    }

    #[test]
    fn dijkstra_respects_failures() {
        let (t, [n0, n1, n2, n3]) = diamond();
        let l01 = t.link_between(n0, n1).unwrap();
        let l03 = t.link_between(n0, n3).unwrap();
        let failures = FailureSet::from_links(vec![l01, l03]);
        let sp = dijkstra(&t, n0, &failures, |_, _| Some(1));
        assert_eq!(sp.cost(n1), Some(3)); // n0-n2-n3-n1
        assert_eq!(sp.cost(n2), Some(1));
    }

    #[test]
    fn dijkstra_unreachable_when_disconnected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_router("a");
        let c = b.add_router("c");
        let t = b.build();
        let sp = dijkstra(&t, a, &FailureSet::none(), |_, _| Some(1));
        assert!(!sp.reachable(c));
        assert_eq!(sp.path_to(c), None);
    }

    #[test]
    fn dijkstra_cost_filter_excludes_links() {
        let (t, [n0, n1, _, _]) = diamond();
        // Disallow every link: only the source is reachable.
        let sp = dijkstra(&t, n0, &FailureSet::none(), |_, _| None);
        assert!(sp.reachable(n0));
        assert!(!sp.reachable(n1));
    }

    #[test]
    fn bfs_reachability() {
        let (t, [n0, _, _, n3]) = diamond();
        let seen = reachable_from(&t, n0, &FailureSet::none());
        assert!(seen.iter().all(|&s| s));
        let all_links: Vec<_> = t.neighbors(n3).iter().map(|&(_, l)| l).collect();
        let seen = reachable_from(&t, n0, &FailureSet::from_links(all_links));
        assert!(!seen[n3.index()]);
    }

    #[test]
    fn edge_disjoint_paths_diamond() {
        let (t, [n0, _, _, n3]) = diamond();
        // Three edge-disjoint paths from n0 to n3: via n1, via n2, direct.
        assert_eq!(edge_disjoint_paths(&t, n0, n3, &FailureSet::none()), 3);
        let direct = t.link_between(n0, n3).unwrap();
        assert_eq!(
            edge_disjoint_paths(&t, n0, n3, &FailureSet::from_links(vec![direct])),
            2
        );
    }

    #[test]
    fn edge_disjoint_paths_line() {
        let mut b = TopologyBuilder::new();
        let a = b.add_router("a");
        let m = b.add_router("m");
        let z = b.add_router("z");
        b.add_link(a, m);
        b.add_link(m, z);
        let t = b.build();
        assert_eq!(edge_disjoint_paths(&t, a, z, &FailureSet::none()), 1);
        assert_eq!(
            edge_disjoint_paths(&t, a, a, &FailureSet::none()),
            usize::MAX
        );
    }
}
