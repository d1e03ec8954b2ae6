//! Search options: the optimization toggles the paper evaluates in Figure 8
//! and Figure 9.

use plankton_net::topology::NodeId;

/// Options controlling one model-checking run (one PEC × one prefix × one
/// failure scenario).
#[derive(Clone, Debug)]
pub struct SearchOptions {
    /// §4.1.1 — explore only executions consistent with some converged state
    /// (abandon an execution as soon as a node would change a selected path).
    pub consistent_executions: bool,
    /// §4.1.2 — when a deterministic node can be identified, process it
    /// without branching over the other enabled nodes.
    pub deterministic_nodes: bool,
    /// §4.1.3 — when every pending update comes from already-decided peers,
    /// pick a single arbitrary execution order.
    pub decision_independence: bool,
    /// §4.2 — stop an execution once every policy source node has decided.
    /// Only sound when a decision is final, which the deterministic-node
    /// order guarantees: the checkers treat it as off when
    /// `deterministic_nodes` is.
    pub policy_pruning: bool,
    /// §4.2 — additionally restrict execution to nodes that can influence a
    /// source node (only sound for single-prefix PECs with no dependents).
    /// Off when `deterministic_nodes` is, like `policy_pruning`.
    pub influence_pruning: bool,
    /// The policy's source nodes, if it declared any (`None` = all nodes are
    /// potential sources, disabling policy-based pruning for this run).
    pub source_nodes: Option<Vec<NodeId>>,
    /// §4.4 / Figure 9 — use bitstate hashing (a Bloom filter with this many
    /// bits) instead of exact visited-state storage.
    pub bitstate_bits: Option<usize>,
    /// Abort the search after this many RPVP steps (safety net against state
    /// explosion when optimizations are disabled, as in Figure 8's "None"
    /// rows).
    pub max_steps: u64,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            consistent_executions: true,
            deterministic_nodes: true,
            decision_independence: true,
            policy_pruning: true,
            influence_pruning: true,
            source_nodes: None,
            bitstate_bits: None,
            max_steps: 200_000_000,
        }
    }
}

impl SearchOptions {
    /// All optimizations enabled (the default configuration).
    pub fn all_optimizations() -> Self {
        Self::default()
    }

    /// Every optimization disabled: the naive model checking of Figure 8's
    /// "None" rows.
    pub fn no_optimizations() -> Self {
        SearchOptions {
            consistent_executions: false,
            deterministic_nodes: false,
            decision_independence: false,
            policy_pruning: false,
            influence_pruning: false,
            source_nodes: None,
            bitstate_bits: None,
            max_steps: 200_000_000,
        }
    }

    /// Set the policy source nodes, builder-style.
    pub fn with_sources(mut self, sources: Vec<NodeId>) -> Self {
        self.source_nodes = Some(sources);
        self
    }

    /// Disable the deterministic-node heuristic, builder-style (Figure 8's
    /// "All but deterministic node opt" rows). Policy and influence pruning
    /// go with it: without the deterministic order a source may adopt a
    /// route it later gives up, so stopping once the sources have decided
    /// could report a state that never converges.
    pub fn without_deterministic_nodes(mut self) -> Self {
        self.deterministic_nodes = false;
        self
    }

    /// Disable policy-based pruning, builder-style.
    pub fn without_policy_pruning(mut self) -> Self {
        self.policy_pruning = false;
        self.influence_pruning = false;
        self
    }

    /// The options a checker runs with: policy and influence pruning are
    /// off unless deterministic nodes are on (see the fields).
    pub(crate) fn effective(mut self) -> Self {
        if !self.deterministic_nodes {
            self.policy_pruning = false;
            self.influence_pruning = false;
        }
        self
    }

    /// Enable bitstate hashing with the given number of bits, builder-style.
    pub fn with_bitstate(mut self, bits: usize) -> Self {
        self.bitstate_bits = Some(bits);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_everything() {
        let o = SearchOptions::default();
        assert!(o.consistent_executions);
        assert!(o.deterministic_nodes);
        assert!(o.decision_independence);
        assert!(o.policy_pruning);
        assert!(o.influence_pruning);
        assert!(o.bitstate_bits.is_none());
    }

    #[test]
    fn no_optimizations_disables_everything() {
        let o = SearchOptions::no_optimizations();
        assert!(!o.consistent_executions);
        assert!(!o.deterministic_nodes);
        assert!(!o.decision_independence);
        assert!(!o.policy_pruning);
        assert!(!o.influence_pruning);
    }

    #[test]
    fn builders_compose() {
        let o = SearchOptions::all_optimizations()
            .with_sources(vec![NodeId(1), NodeId(2)])
            .without_deterministic_nodes()
            .with_bitstate(1 << 20);
        assert_eq!(o.source_nodes.as_ref().unwrap().len(), 2);
        assert!(!o.deterministic_nodes);
        assert_eq!(o.bitstate_bits, Some(1 << 20));
        let p = SearchOptions::all_optimizations().without_policy_pruning();
        assert!(!p.policy_pruning);
        assert!(!p.influence_pruning);
    }
}
