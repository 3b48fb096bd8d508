//! Search-tree analysis: principal variation, depth histograms, branching
//! statistics, and Elo-style strength estimation from win ratios.
//!
//! These tools back the experiment write-ups: Fig. 8 needs tree-depth
//! inspection, the "1 GPU ≈ 100–200 CPU threads" claim needs a way to turn
//! win ratios into comparable strength numbers, and debugging any searcher
//! starts with looking at its principal variation.

use crate::tree::SearchTree;
use pmcts_games::Game;

/// The principal variation: the path of most-visited children from the
/// root, with each node's visit count and mean value.
#[derive(Clone, Debug, PartialEq)]
pub struct PvEntry<M> {
    /// The move played at this step.
    pub mv: M,
    /// Simulations through the move.
    pub visits: u64,
    /// Mean reward for the player who made the move.
    pub mean: f64,
}

/// Extracts the principal variation (following most-visited children) up to
/// `max_len` plies.
pub fn principal_variation<G: Game>(tree: &SearchTree<G>, max_len: usize) -> Vec<PvEntry<G::Move>> {
    let mut pv = Vec::new();
    let mut id = tree.root();
    while pv.len() < max_len {
        let best = tree
            .children(id)
            .iter()
            .copied()
            .max_by_key(|&c| tree.visits(c));
        match best {
            Some(child) if tree.visits(child) > 0 => {
                pv.push(PvEntry {
                    mv: tree.move_into(child).expect("child has a move"),
                    visits: tree.visits(child),
                    mean: tree.mean(child),
                });
                id = child;
            }
            _ => break,
        }
    }
    pv
}

/// Aggregate shape statistics of a search tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TreeShape {
    /// Total nodes.
    pub nodes: u64,
    /// Deepest node.
    pub max_depth: u32,
    /// Node count per depth (index = depth).
    pub depth_histogram: Vec<u64>,
    /// Mean number of children over internal (expanded) nodes.
    pub mean_branching: f64,
    /// Number of leaf nodes (no children).
    pub leaves: u64,
}

/// Computes the shape statistics of a tree.
pub fn tree_shape<G: Game>(tree: &SearchTree<G>) -> TreeShape {
    let mut shape = TreeShape {
        nodes: tree.len() as u64,
        max_depth: tree.max_depth(),
        depth_histogram: vec![0; tree.max_depth() as usize + 1],
        ..Default::default()
    };
    let mut internal = 0u64;
    let mut child_total = 0u64;
    for id in 0..tree.len() as u32 {
        shape.depth_histogram[tree.depth(id) as usize] += 1;
        let n_children = tree.children(id).len();
        if n_children == 0 {
            shape.leaves += 1;
        } else {
            internal += 1;
            child_total += n_children as u64;
        }
    }
    shape.mean_branching = if internal == 0 {
        0.0
    } else {
        child_total as f64 / internal as f64
    };
    shape
}

/// Converts a win ratio into an Elo-style rating difference:
/// `diff = -400 · log10(1/p − 1)`. A 0.75 win ratio ≈ +191 Elo.
///
/// Ratios are clamped to `[1/(n+1), n/(n+1)]`-style bounds by the caller if
/// needed; this function clamps to `[0.001, 0.999]` to stay finite.
pub fn elo_diff(win_ratio: f64) -> f64 {
    let p = win_ratio.clamp(0.001, 0.999);
    -400.0 * (1.0 / p - 1.0).log10()
}

/// Inverse of [`elo_diff`]: expected win ratio at a rating difference.
pub fn expected_score(elo: f64) -> f64 {
    1.0 / (1.0 + 10f64.powf(-elo / 400.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MctsConfig, SearchBudget};
    use crate::searcher::BudgetTracker;
    use crate::sequential::SequentialSearcher;
    use pmcts_games::{Game, Reversi};

    fn grown_tree(iters: u64) -> SearchTree<Reversi> {
        let mut tree = SearchTree::new(Reversi::initial());
        let mut tracker = BudgetTracker::new(SearchBudget::Iterations(iters));
        let mut s = SequentialSearcher::<Reversi>::new(MctsConfig::default().with_seed(3));
        s.run_on_tree(
            &mut tree,
            &mut tracker,
            &mut crate::telemetry::PhaseBreakdown::new(),
        );
        tree
    }

    #[test]
    fn pv_follows_most_visited_children() {
        let tree = grown_tree(500);
        let pv = principal_variation(&tree, 10);
        assert!(!pv.is_empty());
        // First PV move = robust child of the root.
        let best = tree.best_move();
        assert_eq!(Some(pv[0].mv), best);
        // Visits are non-increasing along the PV.
        for w in pv.windows(2) {
            assert!(w[0].visits >= w[1].visits);
        }
        // Means are probabilities.
        for e in &pv {
            assert!((0.0..=1.0).contains(&e.mean));
        }
    }

    #[test]
    fn pv_respects_max_len() {
        let tree = grown_tree(500);
        assert!(principal_variation(&tree, 2).len() <= 2);
        assert!(principal_variation(&tree, 0).is_empty());
    }

    #[test]
    fn pv_of_fresh_tree_is_empty() {
        let tree = SearchTree::new(Reversi::initial());
        assert!(principal_variation(&tree, 5).is_empty());
    }

    #[test]
    fn tree_shape_accounts_every_node() {
        let tree = grown_tree(300);
        let shape = tree_shape(&tree);
        assert_eq!(shape.nodes, tree.len() as u64);
        assert_eq!(shape.depth_histogram.iter().sum::<u64>(), shape.nodes);
        assert_eq!(shape.depth_histogram[0], 1, "exactly one root");
        assert_eq!(shape.max_depth, tree.max_depth());
        assert!(shape.leaves > 0 && shape.leaves < shape.nodes);
        assert!(shape.mean_branching >= 1.0);
    }

    #[test]
    fn singleton_tree_shape() {
        let tree = SearchTree::new(Reversi::initial());
        let shape = tree_shape(&tree);
        assert_eq!(shape.nodes, 1);
        assert_eq!(shape.leaves, 1);
        assert_eq!(shape.mean_branching, 0.0);
    }

    #[test]
    fn elo_known_points() {
        assert!(elo_diff(0.5).abs() < 1e-9);
        assert!((elo_diff(0.75) - 190.848).abs() < 0.01);
        assert!(elo_diff(0.9) > 300.0);
        assert!(elo_diff(0.25) < -190.0);
    }

    #[test]
    fn elo_roundtrips_with_expected_score() {
        for p in [0.1, 0.25, 0.5, 0.6, 0.75, 0.9] {
            let back = expected_score(elo_diff(p));
            assert!((back - p).abs() < 1e-9, "{p} -> {back}");
        }
    }

    #[test]
    fn elo_is_clamped_at_extremes() {
        assert!(elo_diff(0.0).is_finite());
        assert!(elo_diff(1.0).is_finite());
        assert!(elo_diff(1.0) > 0.0);
    }
}
