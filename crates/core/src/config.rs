//! Search configuration and budgets.

use crate::cost::CpuCostModel;
use pmcts_util::{FaultPlan, SimTime};

/// How long a searcher may run.
///
/// The paper's experiments fix the *search time* per move ("the time limit
/// can be specified", §I) — on the simulator that is virtual time, so a GPU
/// player and a CPU player receive exactly comparable budgets. Iteration
/// budgets are used by tests that need exact determinism independent of the
/// cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchBudget {
    /// Run exactly this many MCTS iterations (an iteration may contain many
    /// simulations on the parallel searchers).
    Iterations(u64),
    /// Run until this much virtual time is spent.
    VirtualTime(SimTime),
}

impl SearchBudget {
    /// A virtual-time budget in milliseconds — the unit the figure
    /// regenerators use.
    pub fn millis(ms: u64) -> Self {
        SearchBudget::VirtualTime(SimTime::from_millis(ms))
    }
}

/// Parameters shared by every MCTS variant.
#[derive(Clone, Debug, PartialEq)]
pub struct MctsConfig {
    /// UCB exploration constant `C` (paper §II.1). The classic UCT value is
    /// `sqrt(2)`; Reversi play is fairly insensitive in `[0.7, 2]`.
    pub exploration_c: f64,
    /// Base RNG seed; every thread/block/lane derives an independent stream.
    pub seed: u64,
    /// Virtual cost model for host-side operations.
    pub cpu_cost: CpuCostModel,
    /// Deterministic fault-injection schedule. [`FaultPlan::none`] (the
    /// default) reproduces fault-free behaviour bit-for-bit: fault queries
    /// draw from their own derived streams, never from the search RNGs.
    pub faults: FaultPlan,
    /// Node capacity of each search tree. `None` (the default) grows trees
    /// without bound, reproducing the unbounded fingerprints bit-for-bit.
    /// `Some(n)` caps every tree built through this config at `n` arena
    /// slots: cold nodes are recycled by deterministic LRU eviction and a
    /// Zobrist transposition table recovers evicted statistics on
    /// re-expansion (see `SearchTree::bounded` and DESIGN.md §12).
    pub max_tree_nodes: Option<u32>,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            exploration_c: std::f64::consts::SQRT_2,
            seed: 0x00C0_FFEE,
            cpu_cost: CpuCostModel::xeon_x5670(),
            faults: FaultPlan::none(),
            max_tree_nodes: None,
        }
    }
}

impl MctsConfig {
    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the exploration constant.
    pub fn with_exploration(mut self, c: f64) -> Self {
        assert!(
            c.is_finite() && c >= 0.0,
            "exploration constant must be ≥ 0"
        );
        self.exploration_c = c;
        self
    }

    /// Replaces the CPU cost model.
    pub fn with_cpu_cost(mut self, cost: CpuCostModel) -> Self {
        self.cpu_cost = cost;
        self
    }

    /// Replaces the fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Caps every tree built through this config at `max_nodes` arena
    /// slots (LRU node recycling + transposition table).
    ///
    /// # Panics
    /// Panics if `max_nodes < 64`: the cap must comfortably exceed the
    /// deepest selection path, which is always pinned against eviction.
    pub fn with_tree_capacity(mut self, max_nodes: u32) -> Self {
        assert!(max_nodes >= 64, "tree capacity must be ≥ 64 nodes");
        self.max_tree_nodes = Some(max_nodes);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = MctsConfig::default();
        assert!((c.exploration_c - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn builder_methods() {
        let c = MctsConfig::default().with_seed(42).with_exploration(1.0);
        assert_eq!(c.seed, 42);
        assert_eq!(c.exploration_c, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be ≥ 0")]
    fn negative_exploration_rejected() {
        MctsConfig::default().with_exploration(-1.0);
    }

    #[test]
    fn budget_millis_helper() {
        assert_eq!(
            SearchBudget::millis(5),
            SearchBudget::VirtualTime(SimTime::from_millis(5))
        );
    }
}
