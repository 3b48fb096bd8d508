//! Tree reuse between moves (extension).
//!
//! The paper's searchers start every move from a cold tree. A standard
//! engineering improvement is to keep the subtree of the position actually
//! reached — our move plus the opponent's reply — so earlier simulations
//! carry over. [`PersistentSearcher`] wraps the sequential engine with this
//! behaviour. Whether reuse buys strength at equal budget is undecided
//! (ROADMAP item 6).

use crate::config::{MctsConfig, SearchBudget};
use crate::searcher::{BudgetTracker, SearchReport, Searcher};
use crate::sequential::SequentialSearcher;
use crate::telemetry::PhaseBreakdown;
use crate::tree::SearchTree;
use pmcts_games::Game;

/// Sequential UCT with tree reuse across consecutive `search` calls.
#[derive(Clone, Debug)]
pub struct PersistentSearcher<G: Game> {
    inner: SequentialSearcher<G>,
    config: MctsConfig,
    /// The tree kept from the previous search, if any.
    carry: Option<SearchTree<G>>,
    /// Diagnostics: simulations inherited by the last search.
    last_reused_visits: u64,
}

impl<G: Game> PersistentSearcher<G> {
    /// Creates a tree-reusing sequential searcher.
    pub fn new(config: MctsConfig) -> Self {
        PersistentSearcher {
            inner: SequentialSearcher::new(config.clone()),
            config,
            carry: None,
            last_reused_visits: 0,
        }
    }

    /// Simulations inherited from the previous move's tree by the most
    /// recent `search` call (0 when the tree started cold).
    pub fn last_reused_visits(&self) -> u64 {
        self.last_reused_visits
    }

    /// Drops the carried tree (e.g. when starting a new game).
    pub fn reset(&mut self) {
        self.carry = None;
        self.last_reused_visits = 0;
    }
}

impl<G: Game> Searcher<G> for PersistentSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        // Try to re-root the carried tree at the new position (a cold
        // tree's root has no visits).
        let mut tree = SearchTree::rerooted(self.carry.take(), root, &self.config);
        self.last_reused_visits = tree.visits(tree.root());

        let mut tracker = BudgetTracker::new(budget);
        let mut phases = PhaseBreakdown::new();
        let mut simulations = 0;
        if !tree.is_terminal(tree.root()) {
            simulations = self.inner.run_on_tree(&mut tree, &mut tracker, &mut phases);
        }
        phases.budget_overshoot = tracker.overshoot();
        let report = SearchReport {
            best_move: tree.best_move(),
            simulations,
            iterations: tracker.iterations,
            tree_nodes: tree.live_nodes() as u64,
            max_depth: tree.max_depth(),
            elapsed: tracker.elapsed,
            root_stats: tree.root_stats(),
            phases,
        };
        self.carry = Some(tree);
        report
    }

    fn name(&self) -> String {
        "sequential MCTS with tree reuse".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::REROOT_DEPTH;
    use pmcts_games::{Game, MoveBuf, Reversi};

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    #[test]
    fn first_search_starts_cold() {
        let mut s = PersistentSearcher::<Reversi>::new(cfg(1));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(100));
        assert_eq!(s.last_reused_visits(), 0);
        assert!(r.best_move.is_some());
    }

    #[test]
    fn following_the_game_reuses_the_subtree() {
        let mut s = PersistentSearcher::<Reversi>::new(cfg(2));
        let mut state = Reversi::initial();
        let r1 = s.search(state, SearchBudget::Iterations(400));
        state.apply(r1.best_move.unwrap());
        // Opponent replies with the first legal move.
        let mut buf = MoveBuf::new();
        state.legal_moves(&mut buf);
        state.apply(buf[0]);
        let r2 = s.search(state, SearchBudget::Iterations(100));
        assert!(
            s.last_reused_visits() > 0,
            "grandchild of a 400-iteration tree must have visits"
        );
        // The reused tree plus new work exceeds the cold-tree node count.
        let mut cold = SequentialSearcher::<Reversi>::new(cfg(2));
        let cold_r = cold.search(state, SearchBudget::Iterations(100));
        assert!(
            r2.tree_nodes > cold_r.tree_nodes,
            "reuse should carry nodes over: {} <= {}",
            r2.tree_nodes,
            cold_r.tree_nodes
        );
    }

    #[test]
    fn unrelated_position_starts_cold_again() {
        let mut s = PersistentSearcher::<Reversi>::new(cfg(3));
        s.search(Reversi::initial(), SearchBudget::Iterations(50));
        // A position far from the previous root: play 10 scripted moves.
        let mut state = Reversi::initial();
        let mut rng = pmcts_util::Xoshiro256pp::new(77);
        for _ in 0..10 {
            let mv = state.random_move(&mut rng).unwrap();
            state.apply(mv);
        }
        s.search(state, SearchBudget::Iterations(50));
        assert_eq!(s.last_reused_visits(), 0);
    }

    #[test]
    fn chain_deeper_than_reroot_depth_starts_cold() {
        // A long pass chain can put the next search position more than
        // `REROOT_DEPTH` plies below the previous root. The searcher must
        // then start cold, not warm — `find_state` never scans past the
        // depth limit, even when the position exists deeper in the tree.
        let mut s = PersistentSearcher::<Reversi>::new(cfg(6));
        s.search(Reversi::initial(), SearchBudget::Iterations(4000));

        // Walk 5 plies (> REROOT_DEPTH = 4) down the most-visited line, so
        // the reached position is certain to exist in the carried tree.
        let deep = REROOT_DEPTH + 1;
        let carried = s.carry.clone().expect("tree is carried");
        let mut node = carried.root();
        for _ in 0..deep {
            node = *carried
                .children(node)
                .iter()
                .max_by_key(|&&c| carried.visits(c))
                .expect("searched line extends past REROOT_DEPTH");
        }
        let state = *carried.state(node);
        // Control: an unrestricted scan would find the position...
        assert!(carried.find_state(&state, deep).is_some());
        // ...but the depth-limited scan used for re-rooting does not.
        assert!(carried.find_state(&state, REROOT_DEPTH).is_none());

        s.search(state, SearchBudget::Iterations(50));
        assert_eq!(
            s.last_reused_visits(),
            0,
            "deeper-than-REROOT_DEPTH position must start a cold tree"
        );
    }

    #[test]
    fn reset_clears_carry() {
        let mut s = PersistentSearcher::<Reversi>::new(cfg(4));
        let r1 = s.search(Reversi::initial(), SearchBudget::Iterations(200));
        let mut state = Reversi::initial();
        state.apply(r1.best_move.unwrap());
        let mut buf = MoveBuf::new();
        state.legal_moves(&mut buf);
        state.apply(buf[0]);
        s.reset();
        s.search(state, SearchBudget::Iterations(50));
        assert_eq!(s.last_reused_visits(), 0);
    }

    #[test]
    fn searching_same_position_twice_reuses_everything() {
        let mut s = PersistentSearcher::<Reversi>::new(cfg(5));
        let r1 = s.search(Reversi::initial(), SearchBudget::Iterations(100));
        let r2 = s.search(Reversi::initial(), SearchBudget::Iterations(100));
        assert_eq!(s.last_reused_visits(), 100);
        assert!(r2.tree_nodes >= r1.tree_nodes);
        // Root visits accumulate across both searches.
        let total: u64 = r2.root_stats.iter().map(|st| st.visits).sum();
        assert_eq!(total, 200);
    }
}

#[cfg(test)]
mod subtree_tests {
    use crate::config::{MctsConfig, SearchBudget};
    use crate::searcher::BudgetTracker;
    use crate::sequential::SequentialSearcher;
    use crate::tree::SearchTree;
    use pmcts_games::Reversi;

    #[test]
    fn extract_subtree_preserves_statistics_and_structure() {
        let mut tree = SearchTree::new(pmcts_games::Game::initial());
        let mut tracker = BudgetTracker::new(SearchBudget::Iterations(300));
        let mut s = SequentialSearcher::<Reversi>::new(MctsConfig::default().with_seed(9));
        s.run_on_tree(
            &mut tree,
            &mut tracker,
            &mut crate::telemetry::PhaseBreakdown::new(),
        );

        let child = tree.children(tree.root())[0];
        let child_visits = tree.visits(child);
        let child_wins = tree.wins(child);
        let sub = tree.extract_subtree(child);

        assert_eq!(sub.visits(sub.root()), child_visits);
        assert_eq!(sub.wins(sub.root()), child_wins);
        assert_eq!(sub.depth(sub.root()), 0);
        assert_eq!(sub.parent(sub.root()), None);
        assert!(sub.len() <= tree.len());
        // Parent/depth links are consistent in the extracted tree.
        for id in 0..sub.len() as u32 {
            for &c in sub.children(id) {
                assert_eq!(sub.parent(c), Some(id));
                assert_eq!(sub.depth(c), sub.depth(id) + 1);
            }
        }
        // Child visit sums still bounded by parents.
        for id in 0..sub.len() as u32 {
            let total: u64 = sub.children(id).iter().map(|&c| sub.visits(c)).sum();
            assert!(total <= sub.visits(id));
        }
    }

    #[test]
    fn find_state_locates_children() {
        let mut tree = SearchTree::new(pmcts_games::Game::initial());
        let mut tracker = BudgetTracker::new(SearchBudget::Iterations(100));
        let mut s = SequentialSearcher::<Reversi>::new(MctsConfig::default().with_seed(10));
        s.run_on_tree(
            &mut tree,
            &mut tracker,
            &mut crate::telemetry::PhaseBreakdown::new(),
        );

        let child = tree.children(tree.root())[0];
        let state = *tree.state(child);
        let found = tree.find_state(&state, 2).expect("child state present");
        assert_eq!(*tree.state(found), state);
        // Depth restriction: the root itself is found at depth 0.
        let root_state = *tree.state(tree.root());
        assert_eq!(tree.find_state(&root_state, 0), Some(tree.root()));
    }
}
