//! The verification task graph.
//!
//! A task is one unit of schedulable work; edges point from a task to the
//! tasks it depends on. For Plankton the tasks are the cross product of PEC
//! dependency components and failure scenarios (see
//! [`pec_task_graph_sparse`]): a
//! component's verification under failure set *F* needs the converged
//! outcomes of its dependency components under exactly *F* (§3.2 — topology
//! changes are matched across explorations), and nothing else. Tasks of
//! unrelated components — and tasks of the *same* component under different
//! failure sets — are independent and free to run concurrently.

use plankton_pec::PecDependencies;

/// Identifier of a task in a [`TaskGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl TaskId {
    /// The task's index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A dependency DAG over tasks.
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    /// `deps[t]` = tasks that must complete before `t` may run.
    deps: Vec<Vec<TaskId>>,
    /// `dependents[t]` = tasks waiting on `t` (reverse edges).
    dependents: Vec<Vec<TaskId>>,
}

impl TaskGraph {
    /// A graph of `tasks` tasks and no edges.
    pub fn new(tasks: usize) -> Self {
        TaskGraph {
            deps: vec![Vec::new(); tasks],
            dependents: vec![Vec::new(); tasks],
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Declare that `task` cannot run until `dep` has completed.
    pub fn add_dependency(&mut self, task: TaskId, dep: TaskId) {
        assert_ne!(task, dep, "a task cannot depend on itself");
        self.deps[task.index()].push(dep);
        self.dependents[dep.index()].push(task);
    }

    /// The tasks `task` depends on.
    pub fn dependencies(&self, task: TaskId) -> &[TaskId] {
        &self.deps[task.index()]
    }

    /// The tasks waiting on `task`.
    pub fn dependents(&self, task: TaskId) -> &[TaskId] {
        &self.dependents[task.index()]
    }

    /// Initial in-degrees (number of dependencies) per task.
    pub fn dependency_counts(&self) -> Vec<usize> {
        self.deps.iter().map(Vec::len).collect()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.deps.iter().map(Vec::len).sum()
    }

    /// Verify the graph is acyclic (a cycle would deadlock the executor).
    /// Returns `true` when every task is reachable through a topological
    /// order.
    pub fn is_acyclic(&self) -> bool {
        let mut pending = self.dependency_counts();
        let mut ready: Vec<usize> = (0..self.len()).filter(|&t| pending[t] == 0).collect();
        let mut seen = 0usize;
        while let Some(t) = ready.pop() {
            seen += 1;
            for d in &self.dependents[t] {
                pending[d.index()] -= 1;
                if pending[d.index()] == 0 {
                    ready.push(d.index());
                }
            }
        }
        seen == self.len()
    }
}

/// The encoding of an explicit task list: a verification runs only the
/// subset of the (component × failure-scenario) cross product whose outcome
/// its result cache does not hold — all of it on a cold cache.
#[derive(Clone, Debug, Default)]
pub struct SparseTaskMap {
    /// `tasks[t]` = the `(component, failure_idx)` pair of task `t`.
    tasks: Vec<(usize, usize)>,
}

impl SparseTaskMap {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Is the task list empty?
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The `(component, failure_idx)` pair of a task.
    pub fn decode(&self, task: TaskId) -> (usize, usize) {
        self.tasks[task.index()]
    }
}

/// Build the task graph for an explicit list of `(component, failure_idx)`
/// pairs — the dirty tasks of a verification: task *(c, F)* depends on
/// *(d, F)* for every component *d* that *c* depends on, and failure
/// scenarios never constrain each other. Edges are added only between
/// tasks *present in the list*: a dependency on a clean (cached) task needs
/// no scheduling edge because its outcome is already available from the
/// result cache. The list must therefore be closed
/// upwards — if `(c, f)` is dirty and `c` depends on `d`, then either
/// `(d, f)` is in the list or `(d, f)`'s cached outcome is current — which
/// is exactly the contract content-keyed invalidation provides (a dirty
/// dependency re-keys its dependents).
pub fn pec_task_graph_sparse(
    deps: &PecDependencies,
    tasks: &[(usize, usize)],
) -> (TaskGraph, SparseTaskMap) {
    let index: std::collections::BTreeMap<(usize, usize), usize> =
        tasks.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let mut graph = TaskGraph::new(tasks.len());
    for (i, &(c, f)) in tasks.iter().enumerate() {
        for d in &deps.component_deps[c] {
            if let Some(&j) = index.get(&(*d, f)) {
                graph.add_dependency(TaskId(i), TaskId(j));
            }
        }
    }
    debug_assert!(graph.is_acyclic(), "SCC condensation must be a DAG");
    (
        graph,
        SparseTaskMap {
            tasks: tasks.to_vec(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use plankton_pec::{DependencyGraph, PecId};

    fn deps_from_edges(n: usize, edges: &[(u32, u32)]) -> PecDependencies {
        let mut depends_on = vec![Vec::new(); n];
        for &(a, b) in edges {
            depends_on[a as usize].push(PecId(b));
        }
        DependencyGraph { depends_on }.analyze()
    }

    #[test]
    fn edges_and_counts() {
        let mut g = TaskGraph::new(3);
        g.add_dependency(TaskId(2), TaskId(0));
        g.add_dependency(TaskId(2), TaskId(1));
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.dependencies(TaskId(2)), &[TaskId(0), TaskId(1)]);
        assert_eq!(g.dependents(TaskId(0)), &[TaskId(2)]);
        assert_eq!(g.dependency_counts(), vec![0, 0, 2]);
        assert!(g.is_acyclic());
    }

    #[test]
    fn cycles_are_detected() {
        let mut g = TaskGraph::new(2);
        g.add_dependency(TaskId(0), TaskId(1));
        g.add_dependency(TaskId(1), TaskId(0));
        assert!(!g.is_acyclic());
    }

    #[test]
    fn full_cross_product_replicates_edges_per_failure_set() {
        // PEC 0 depends on PEC 1; 3 failure sets, every task listed.
        let deps = deps_from_edges(2, &[(0, 1)]);
        let c0 = deps.component_of(PecId(0));
        let c1 = deps.component_of(PecId(1));
        let tasks: Vec<(usize, usize)> = [c1, c0]
            .iter()
            .flat_map(|&c| (0..3).map(move |f| (c, f)))
            .collect();
        let (graph, map) = pec_task_graph_sparse(&deps, &tasks);
        assert_eq!(graph.len(), 6);
        assert_eq!(graph.edge_count(), 3);
        // Each dependent task points at its own failure set's producer.
        for f in 0..3 {
            assert_eq!(graph.dependencies(TaskId(3 + f)), &[TaskId(f)]);
            assert_eq!(map.decode(TaskId(3 + f)), (c0, f));
        }
        assert!(graph.is_acyclic());
    }

    #[test]
    fn sparse_graph_links_only_present_tasks() {
        // Component of PEC 0 depends on component of PEC 1.
        let deps = deps_from_edges(2, &[(0, 1)]);
        let c0 = deps.component_of(PecId(0));
        let c1 = deps.component_of(PecId(1));
        // Failure 0: both dirty → edge. Failure 1: only the dependent dirty
        // (its dependency is served from cache) → no edge.
        let tasks = vec![(c0, 0), (c1, 0), (c0, 1)];
        let (graph, map) = pec_task_graph_sparse(&deps, &tasks);
        assert_eq!(graph.len(), 3);
        assert_eq!(graph.edge_count(), 1);
        assert_eq!(graph.dependencies(TaskId(0)), &[TaskId(1)]);
        assert!(graph.dependencies(TaskId(2)).is_empty());
        assert_eq!(map.decode(TaskId(2)), (c0, 1));
        assert_eq!(map.len(), 3);
    }
}
