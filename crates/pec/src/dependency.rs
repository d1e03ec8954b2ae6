//! The PEC dependency graph and its strongly connected components (§3.2,
//! Figure 5 of the paper).
//!
//! A PEC depends on another when its forwarding outcome cannot be determined
//! without knowing the other's converged state:
//!
//! * a **recursive static route** for a prefix in PEC *i* has a next-hop IP
//!   address that falls into PEC *j* → *i* depends on *j* (possibly *i = j*,
//!   the self-loop observed in real configurations);
//! * a prefix in PEC *i* is carried by **iBGP**: the iBGP session endpoints
//!   (the speakers' loopbacks) must be reachable through the IGP, so *i*
//!   depends on every PEC containing a loopback of an iBGP speaker.
//!
//! Mutually dependent PECs form strongly connected components which must be
//! verified together; SCCs are otherwise verified in dependency order, and
//! independent SCCs in parallel.

use crate::pec::{PecId, PecSet};
use plankton_config::Network;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The dependency graph over a [`PecSet`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DependencyGraph {
    /// `depends_on[i]` = the PECs that PEC `i` depends on (must be verified
    /// before `i`, unless they share an SCC).
    pub depends_on: Vec<Vec<PecId>>,
}

/// The result of SCC analysis over a [`DependencyGraph`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PecDependencies {
    /// The underlying edge set.
    pub graph: DependencyGraph,
    /// The strongly connected components, each a sorted list of PEC ids.
    /// Components are listed in *reverse topological order of dependencies*:
    /// a component appears after every component it depends on, so verifying
    /// them in list order satisfies all dependencies.
    pub components: Vec<Vec<PecId>>,
    /// `component_of[p]` = index into `components` for PEC `p`.
    pub component_of: Vec<usize>,
    /// `component_deps[c]` = the component indices that component `c`
    /// depends on (excluding itself).
    pub component_deps: Vec<Vec<usize>>,
}

impl DependencyGraph {
    /// Build the dependency edges for a PEC set over a network.
    pub fn build(network: &Network, pecs: &PecSet) -> Self {
        let n = pecs.len();
        let mut depends_on: Vec<BTreeSet<PecId>> = vec![BTreeSet::new(); n];

        // Recursive static routes: PEC -> PEC containing the next-hop IP.
        for pec in pecs.iter() {
            for nh in pec.recursive_next_hops() {
                if let Some(target) = pecs.pec_containing(nh) {
                    depends_on[pec.id.index()].insert(target.id);
                }
            }
        }

        // iBGP: any PEC that involves BGP depends on the PECs holding the
        // loopbacks of iBGP speakers (the session endpoints resolved through
        // the IGP).
        let mut ibgp_loopback_pecs: BTreeSet<PecId> = BTreeSet::new();
        for node in network.topology.node_ids() {
            let device = network.device(node);
            let Some(bgp) = &device.bgp else { continue };
            if bgp.ibgp_neighbors().next().is_none() {
                continue;
            }
            if let Some(lb) = network.topology.node(node).loopback {
                if let Some(p) = pecs.pec_containing(lb) {
                    ibgp_loopback_pecs.insert(p.id);
                }
            }
            // The peers' loopbacks as well (sessions are symmetric but the
            // peer may not itself list an iBGP neighbor back in a
            // misconfigured network).
            for nbr in bgp.ibgp_neighbors() {
                if let Some(lb) = network.topology.node(nbr.peer).loopback {
                    if let Some(p) = pecs.pec_containing(lb) {
                        ibgp_loopback_pecs.insert(p.id);
                    }
                }
            }
        }
        if !ibgp_loopback_pecs.is_empty() {
            for pec in pecs.iter() {
                if pec.involves_bgp() {
                    for &dep in &ibgp_loopback_pecs {
                        if dep != pec.id {
                            depends_on[pec.id.index()].insert(dep);
                        }
                    }
                }
            }
        }

        DependencyGraph {
            depends_on: depends_on
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
        }
    }

    /// Number of PECs (nodes in the graph).
    pub fn len(&self) -> usize {
        self.depends_on.len()
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.depends_on.is_empty()
    }

    /// Total number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.depends_on.iter().map(|d| d.len()).sum()
    }

    /// Does PEC `a` directly depend on PEC `b`?
    pub fn depends_directly(&self, a: PecId, b: PecId) -> bool {
        self.depends_on[a.index()].contains(&b)
    }

    /// Tarjan's strongly-connected-components algorithm, returning the full
    /// dependency analysis. Tarjan emits SCCs in reverse topological order of
    /// the edge direction used; with edges pointing *at dependencies*, the
    /// emitted order is exactly "dependencies first", which is the
    /// verification order the scheduler wants.
    pub fn analyze(self) -> PecDependencies {
        let n = self.len();
        let mut index_counter = 0usize;
        let mut stack: Vec<usize> = Vec::new();
        let mut on_stack = vec![false; n];
        let mut index = vec![usize::MAX; n];
        let mut lowlink = vec![usize::MAX; n];
        let mut components: Vec<Vec<PecId>> = Vec::new();
        let mut component_of = vec![usize::MAX; n];

        // Iterative Tarjan to avoid deep recursion on large PEC sets.
        enum Frame {
            Enter(usize),
            Continue(usize, usize),
        }
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut call_stack = vec![Frame::Enter(start)];
            while let Some(frame) = call_stack.pop() {
                match frame {
                    Frame::Enter(v) => {
                        index[v] = index_counter;
                        lowlink[v] = index_counter;
                        index_counter += 1;
                        stack.push(v);
                        on_stack[v] = true;
                        call_stack.push(Frame::Continue(v, 0));
                    }
                    Frame::Continue(v, mut edge_idx) => {
                        let mut descended = false;
                        while edge_idx < self.depends_on[v].len() {
                            let w = self.depends_on[v][edge_idx].index();
                            if index[w] == usize::MAX {
                                call_stack.push(Frame::Continue(v, edge_idx + 1));
                                call_stack.push(Frame::Enter(w));
                                descended = true;
                                break;
                            } else if on_stack[w] {
                                lowlink[v] = lowlink[v].min(index[w]);
                            }
                            edge_idx += 1;
                        }
                        if descended {
                            continue;
                        }
                        // All edges processed: close the SCC if v is a root.
                        if lowlink[v] == index[v] {
                            let mut component = Vec::new();
                            loop {
                                let w = stack.pop().expect("stack underflow in Tarjan");
                                on_stack[w] = false;
                                component_of[w] = components.len();
                                component.push(PecId(w as u32));
                                if w == v {
                                    break;
                                }
                            }
                            component.sort();
                            components.push(component);
                        }
                        // Propagate lowlink to the parent frame if any.
                        if let Some(Frame::Continue(parent, _)) = call_stack.last() {
                            let parent = *parent;
                            lowlink[parent] = lowlink[parent].min(lowlink[v]);
                        }
                    }
                }
            }
        }

        // Component-level dependency edges.
        let mut component_deps: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); components.len()];
        for v in 0..n {
            for dep in &self.depends_on[v] {
                let cv = component_of[v];
                let cd = component_of[dep.index()];
                if cv != cd {
                    component_deps[cv].insert(cd);
                }
            }
        }

        PecDependencies {
            graph: self,
            components,
            component_of,
            component_deps: component_deps
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
        }
    }
}

impl PecDependencies {
    /// Build and analyze the dependency graph for a network's PEC set.
    pub fn compute(network: &Network, pecs: &PecSet) -> Self {
        DependencyGraph::build(network, pecs).analyze()
    }

    /// Number of strongly connected components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// The size of the largest SCC (the paper expects this to almost always
    /// be 1 in practice).
    pub fn largest_component(&self) -> usize {
        self.components.iter().map(|c| c.len()).max().unwrap_or(0)
    }

    /// The component index of a PEC.
    pub fn component_of(&self, pec: PecId) -> usize {
        self.component_of[pec.index()]
    }

    /// Are there any self-loops (a PEC depending on itself)?
    pub fn self_loops(&self) -> Vec<PecId> {
        (0..self.graph.len() as u32)
            .map(PecId)
            .filter(|p| self.graph.depends_directly(*p, *p))
            .collect()
    }

    /// Group components into parallel "waves": every component in wave `k`
    /// depends only on components in waves `< k`. Components in the same wave
    /// can be verified concurrently.
    pub fn waves(&self) -> Vec<Vec<usize>> {
        let n = self.components.len();
        let mut level = vec![0usize; n];
        // components are in dependency order, so a single pass suffices.
        for c in 0..n {
            for &dep in &self.component_deps[c] {
                level[c] = level[c].max(level[dep] + 1);
            }
        }
        let max_level = level.iter().copied().max().unwrap_or(0);
        let mut waves = vec![Vec::new(); max_level + 1];
        for (c, &l) in level.iter().enumerate() {
            waves[l].push(c);
        }
        waves
    }

    /// All PECs that a component (transitively) depends on, excluding the
    /// component's own PECs. These are the converged outcomes the component's
    /// verification run needs as input.
    pub fn transitive_dependencies(&self, component: usize) -> Vec<PecId> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut stack = vec![component];
        while let Some(c) = stack.pop() {
            for &dep in &self.component_deps[c] {
                if seen.insert(dep) {
                    stack.push(dep);
                }
            }
        }
        let mut out: Vec<PecId> = seen
            .into_iter()
            .flat_map(|c| self.components[c].iter().copied())
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::compute_pecs;
    use plankton_config::scenarios::{
        isp_ibgp_over_ospf, isp_ospf, static_route_mutual_recursion, static_route_self_loop,
    };
    use plankton_net::generators::as_topo::AsTopologySpec;

    fn graph_from_edges(n: usize, edges: &[(u32, u32)]) -> DependencyGraph {
        let mut depends_on = vec![Vec::new(); n];
        for &(a, b) in edges {
            depends_on[a as usize].push(PecId(b));
        }
        DependencyGraph { depends_on }
    }

    #[test]
    fn tarjan_simple_chain() {
        // 0 depends on 1, 1 depends on 2: three singleton SCCs, order 2,1,0.
        let deps = graph_from_edges(3, &[(0, 1), (1, 2)]).analyze();
        assert_eq!(deps.component_count(), 3);
        assert_eq!(deps.largest_component(), 1);
        // Dependencies appear before dependents.
        let pos = |p: u32| {
            deps.components
                .iter()
                .position(|c| c.contains(&PecId(p)))
                .unwrap()
        };
        assert!(pos(2) < pos(1));
        assert!(pos(1) < pos(0));
    }

    #[test]
    fn tarjan_cycle_collapses() {
        let deps = graph_from_edges(4, &[(0, 1), (1, 0), (2, 0), (3, 3)]).analyze();
        assert_eq!(deps.largest_component(), 2);
        assert_eq!(deps.component_of(PecId(0)), deps.component_of(PecId(1)));
        assert_ne!(deps.component_of(PecId(2)), deps.component_of(PecId(0)));
        assert_eq!(deps.self_loops(), vec![PecId(3)]);
        // 2's component must come after 0/1's.
        assert!(
            deps.components
                .iter()
                .position(|c| c.contains(&PecId(0)))
                .unwrap()
                < deps
                    .components
                    .iter()
                    .position(|c| c.contains(&PecId(2)))
                    .unwrap()
        );
    }

    #[test]
    fn waves_group_independent_components() {
        // 0 -> 2, 1 -> 2, 3 independent.
        let deps = graph_from_edges(4, &[(0, 2), (1, 2)]).analyze();
        let waves = deps.waves();
        assert_eq!(waves.len(), 2);
        // Wave 0 holds 2's and 3's components, wave 1 holds 0's and 1's.
        let c2 = deps.component_of(PecId(2));
        let c3 = deps.component_of(PecId(3));
        assert!(waves[0].contains(&c2));
        assert!(waves[0].contains(&c3));
        assert_eq!(waves[1].len(), 2);
    }

    #[test]
    fn transitive_dependencies_follow_chains() {
        let deps = graph_from_edges(3, &[(0, 1), (1, 2)]).analyze();
        let c0 = deps.component_of(PecId(0));
        let tdeps = deps.transitive_dependencies(c0);
        assert_eq!(tdeps, vec![PecId(1), PecId(2)]);
    }

    #[test]
    fn ospf_only_network_has_no_dependencies() {
        let s = isp_ospf(&AsTopologySpec::paper_as(3967));
        let pecs = compute_pecs(&s.network);
        let deps = PecDependencies::compute(&s.network, &pecs);
        assert_eq!(deps.graph.edge_count(), 0);
        assert_eq!(deps.largest_component(), 1);
        assert_eq!(deps.waves().len(), 1);
    }

    #[test]
    fn ibgp_pecs_depend_on_loopback_pecs() {
        let s = isp_ibgp_over_ospf(&AsTopologySpec::paper_as(3967));
        let pecs = compute_pecs(&s.network);
        let deps = PecDependencies::compute(&s.network, &pecs);
        // Every BGP destination PEC depends on at least one loopback PEC, so
        // its component sits in a later wave.
        assert!(deps.graph.edge_count() > 0);
        assert_eq!(deps.largest_component(), 1, "iBGP must not create SCCs");
        let waves = deps.waves();
        assert_eq!(waves.len(), 2);
        for p in &s.bgp_destinations {
            let pec = pecs.pecs_overlapping(p)[0];
            let comp = deps.component_of(pec.id);
            assert!(waves[1].contains(&comp));
        }
    }

    #[test]
    fn mutual_static_recursion_forms_scc() {
        let g = static_route_mutual_recursion();
        let pecs = compute_pecs(&g.network);
        let deps = PecDependencies::compute(&g.network, &pecs);
        assert_eq!(deps.largest_component(), 2);
    }

    #[test]
    fn static_self_loop_detected() {
        let g = static_route_self_loop();
        let pecs = compute_pecs(&g.network);
        let deps = PecDependencies::compute(&g.network, &pecs);
        assert_eq!(deps.self_loops().len(), 1);
        assert_eq!(deps.largest_component(), 1);
    }
}
