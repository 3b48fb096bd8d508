//! The sequential UCT baseline (paper §II).
//!
//! One iteration = selection → expansion (one node) → one random playout →
//! backpropagation, repeated until the budget is spent. This searcher is
//! both the reference implementation every parallel scheme is tested
//! against and the "1 CPU core" opponent of the paper's Figs. 6–7.

use crate::config::{MctsConfig, SearchBudget};
use crate::searcher::{BudgetTracker, SearchReport, Searcher};
use crate::telemetry::PhaseBreakdown;
use crate::tree::SearchTree;
use pmcts_games::{play_lanes, random_playout, Game, Player, PlayoutResult, LANE_WIDTH};
use pmcts_util::{ArrayVec, Xoshiro256pp};

/// Single-threaded UCT searcher.
#[derive(Clone, Debug)]
pub struct SequentialSearcher<G: Game> {
    config: MctsConfig,
    rng: Xoshiro256pp,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> SequentialSearcher<G> {
    /// Creates a searcher; the RNG stream is derived from `config.seed`.
    pub fn new(config: MctsConfig) -> Self {
        let rng = Xoshiro256pp::derive(config.seed, 0);
        SequentialSearcher {
            config,
            rng,
            _game: std::marker::PhantomData,
        }
    }

    /// Creates a searcher running sub-stream `stream` of the seed — used by
    /// root parallelism to give every tree an independent stream.
    pub fn with_stream(config: MctsConfig, stream: u64) -> Self {
        let rng = Xoshiro256pp::derive(config.seed, stream);
        SequentialSearcher {
            config,
            rng,
            _game: std::marker::PhantomData,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MctsConfig {
        &self.config
    }

    /// Searches `root` and returns the report **and** the search tree, for
    /// callers that want to analyse the tree afterwards (principal
    /// variation, shape statistics — see `crate::analysis`).
    pub fn search_with_tree(
        &mut self,
        root: G,
        budget: SearchBudget,
    ) -> (SearchReport<G::Move>, SearchTree<G>) {
        let mut walk = Walk::new(root, &self.config, budget);
        if !walk.tree.is_terminal(walk.tree.root()) {
            self.run_on_tree(&mut walk.tree, &mut walk.tracker, &mut walk.phases);
        }
        walk.finish()
    }

    /// Runs the search while keeping the tree available to the caller —
    /// used by the hybrid scheme, which interleaves CPU iterations on a
    /// shared tree with GPU kernels. Returns simulations performed.
    pub(crate) fn run_on_tree(
        &mut self,
        tree: &mut SearchTree<G>,
        tracker: &mut BudgetTracker,
        phases: &mut PhaseBreakdown,
    ) -> u64 {
        let mut sims = 0;
        while tracker.may_continue() {
            sims += self.one_iteration(tree, tracker, phases);
        }
        sims
    }

    /// One full select/expand/simulate/backprop iteration; returns the
    /// number of simulations performed (always 1 here). Phase attribution:
    /// the depth-proportional tree-op share → `select`, the fixed share →
    /// `expand`, the playout → `kernel` (the CPU *is* the simulator here).
    pub(crate) fn one_iteration(
        &mut self,
        tree: &mut SearchTree<G>,
        tracker: &mut BudgetTracker,
        phases: &mut PhaseBreakdown,
    ) -> u64 {
        let node = self.descend(tree, phases);
        let result = random_playout(*tree.state(node), &mut self.rng);
        self.land(tree, node, result, tracker, phases);
        1
    }

    /// The first half of an iteration: selection and (at most) one
    /// expansion on this searcher's stream. Returns the node to simulate.
    fn descend(&mut self, tree: &mut SearchTree<G>, phases: &mut PhaseBreakdown) -> u32 {
        select_and_expand(tree, self.config.exploration_c, &mut self.rng, phases)
    }

    /// The second half, once the playout from `node` has run: backprop
    /// and the iteration's charge.
    fn land(
        &self,
        tree: &mut SearchTree<G>,
        node: u32,
        result: PlayoutResult,
        tracker: &mut BudgetTracker,
        phases: &mut PhaseBreakdown,
    ) {
        let cost = self.config.cpu_cost;
        let depth = tree.depth(node);
        tree.backprop(node, result.reward_for(Player::P1), 1);
        phases.select += cost.select_cost(depth);
        phases.expand += cost.expand_cost();
        phases.kernel += cost.playout(result.plies);
        phases.simulations += 1;
        tracker.charge(cost.tree_op(depth) + cost.playout(result.plies));
    }

    /// Searches `root` once per searcher (at most [`LANE_WIDTH`]), stepping
    /// the trees in lockstep. Each step, every tree whose budget still runs
    /// descends, in searcher order; their playouts play as one
    /// [`play_lanes`] call; then each lands, in searcher order. A tree
    /// leaves the group when its own budget stops. Trees share nothing and
    /// each stream draws its expansion pick and then its playout, so every
    /// report equals that searcher's solo [`search`](Searcher::search).
    pub(crate) fn search_lockstep(
        searchers: &mut [Self],
        root: G,
        budget: SearchBudget,
    ) -> Vec<SearchReport<G::Move>> {
        assert!(searchers.len() <= LANE_WIDTH, "one lane per tree");
        let mut walks: Vec<Walk<G>> = searchers
            .iter()
            .map(|s| Walk::new(root, &s.config, budget))
            .collect();
        let mut active: ArrayVec<usize, LANE_WIDTH> = if root.is_terminal() {
            ArrayVec::new()
        } else {
            (0..walks.len()).collect()
        };
        let mut nodes = [0u32; LANE_WIDTH];
        let mut landed: [Option<(PlayoutResult, Xoshiro256pp)>; LANE_WIDTH] =
            std::array::from_fn(|_| None);
        loop {
            active = active
                .iter()
                .copied()
                .filter(|&k| walks[k].tracker.may_continue())
                .collect();
            if active.is_empty() {
                break;
            }
            for (i, &k) in active.iter().enumerate() {
                let walk = &mut walks[k];
                nodes[i] = searchers[k].descend(&mut walk.tree, &mut walk.phases);
            }
            play_lanes(
                active.len(),
                |i| {
                    let k = active[i];
                    (*walks[k].tree.state(nodes[i]), searchers[k].rng.clone())
                },
                |i, result, rng| landed[i] = Some((result, rng)),
            );
            for (i, &k) in active.iter().enumerate() {
                let (result, rng) = landed[i].take().expect("every active tree landed");
                let (searcher, walk) = (&mut searchers[k], &mut walks[k]);
                searcher.rng = rng;
                searcher.land(
                    &mut walk.tree,
                    nodes[i],
                    result,
                    &mut walk.tracker,
                    &mut walk.phases,
                );
            }
        }
        walks.into_iter().map(|w| w.finish().0).collect()
    }
}

/// One sequential search in progress: its tree, budget and ledger.
struct Walk<G: Game> {
    tree: SearchTree<G>,
    tracker: BudgetTracker,
    phases: PhaseBreakdown,
}

impl<G: Game> Walk<G> {
    fn new(root: G, config: &MctsConfig, budget: SearchBudget) -> Self {
        Walk {
            tree: SearchTree::for_config(root, config),
            tracker: BudgetTracker::new(budget),
            phases: PhaseBreakdown::new(),
        }
    }

    /// The search's report, and its tree.
    fn finish(mut self) -> (SearchReport<G::Move>, SearchTree<G>) {
        self.phases.budget_overshoot = self.tracker.overshoot();
        let report = SearchReport {
            best_move: self.tree.best_move(),
            simulations: self.phases.simulations,
            iterations: self.tracker.iterations,
            tree_nodes: self.tree.live_nodes() as u64,
            max_depth: self.tree.max_depth(),
            elapsed: self.tracker.elapsed,
            root_stats: self.tree.root_stats(),
            phases: self.phases,
        };
        (report, self.tree)
    }
}

/// Selection plus (at most) one expansion, drawing at most one RNG value;
/// returns the node to simulate. Shared with leaf parallelism, which
/// simulates the node on the device instead.
pub(crate) fn select_and_expand<G: Game>(
    tree: &mut SearchTree<G>,
    exploration_c: f64,
    rng: &mut Xoshiro256pp,
    phases: &mut PhaseBreakdown,
) -> u32 {
    let selected = tree.select(exploration_c);
    if tree.list_moves(selected) == 0 {
        return selected; // terminal leaf: re-sample its outcome
    }
    phases.expansions += 1;
    tree.expand(selected, rng)
}

impl<G: Game> Searcher<G> for SequentialSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        self.search_with_tree(root, budget).0
    }

    fn name(&self) -> String {
        "sequential MCTS (1 CPU core)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_games::{MoveBuf, Reversi, TicTacToe};

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    #[test]
    fn respects_iteration_budget() {
        let mut s = SequentialSearcher::<Reversi>::new(cfg(1));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(100));
        assert_eq!(r.iterations, 100);
        assert_eq!(r.simulations, 100);
        assert!(r.tree_nodes > 1 && r.tree_nodes <= 101);
        assert!(r.best_move.is_some());
    }

    #[test]
    fn respects_virtual_time_budget() {
        let mut s = SequentialSearcher::<Reversi>::new(cfg(2));
        let budget = pmcts_util::SimTime::from_millis(20);
        let r = s.search(Reversi::initial(), SearchBudget::VirtualTime(budget));
        // The deadline-aware stopping rule lands within one iteration cost
        // of the budget on either side; with ~100µs iterations a 1ms slack
        // band is generous.
        let slack = pmcts_util::SimTime::from_millis(1);
        assert!(
            r.elapsed >= budget.saturating_sub(slack) && r.elapsed <= budget + slack,
            "elapsed {} should be within one iteration of {}",
            r.elapsed,
            budget
        );
        assert_eq!(r.phases.budget_overshoot, r.elapsed.saturating_sub(budget));
        // With the Xeon model (~10k playouts/s) 20ms is ~200 iterations;
        // allow a broad band.
        assert!(
            (50..=600).contains(&r.iterations),
            "{} iterations for 20ms budget",
            r.iterations
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let r1 = SequentialSearcher::<Reversi>::new(cfg(7))
            .search(Reversi::initial(), SearchBudget::Iterations(500));
        let r2 = SequentialSearcher::<Reversi>::new(cfg(7))
            .search(Reversi::initial(), SearchBudget::Iterations(500));
        assert_eq!(r1.best_move, r2.best_move);
        assert_eq!(r1.root_stats, r2.root_stats);
        assert_eq!(r1.elapsed, r2.elapsed);
    }

    #[test]
    fn different_streams_diverge() {
        let r1 = SequentialSearcher::<Reversi>::with_stream(cfg(7), 1)
            .search(Reversi::initial(), SearchBudget::Iterations(200));
        let r2 = SequentialSearcher::<Reversi>::with_stream(cfg(7), 2)
            .search(Reversi::initial(), SearchBudget::Iterations(200));
        assert_ne!(r1.root_stats, r2.root_stats);
    }

    #[test]
    fn terminal_root_yields_no_move() {
        let s = TicTacToe::parse("XXX OO. ...", pmcts_games::Player::P2).unwrap();
        let mut searcher = SequentialSearcher::<TicTacToe>::new(cfg(3));
        let r = searcher.search(s, SearchBudget::Iterations(50));
        assert_eq!(r.best_move, None);
        assert_eq!(r.simulations, 0);
    }

    #[test]
    fn finds_immediate_win_in_tictactoe() {
        // X to move, winning move is cell 2 (completes the top row).
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher = SequentialSearcher::<TicTacToe>::new(cfg(4));
        let r = searcher.search(s, SearchBudget::Iterations(2_000));
        assert_eq!(r.best_move, Some(2));
    }

    #[test]
    fn blocks_immediate_loss_in_tictactoe() {
        // O to move; X threatens cell 2. O must block at 2.
        let s = TicTacToe::parse("XX. O.. ..O", pmcts_games::Player::P2).unwrap();
        let mut searcher = SequentialSearcher::<TicTacToe>::new(cfg(5));
        let r = searcher.search(s, SearchBudget::Iterations(4_000));
        assert_eq!(r.best_move, Some(2));
    }

    #[test]
    fn root_visits_equal_iterations() {
        let mut s = SequentialSearcher::<Reversi>::new(cfg(6));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(300));
        let total: u64 = r.root_stats.iter().map(|s| s.visits).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn best_move_is_legal() {
        let mut s = SequentialSearcher::<Reversi>::new(cfg(8));
        let state = Reversi::initial();
        let r = s.search(state, SearchBudget::Iterations(50));
        let mv = r.best_move.unwrap();
        let mut buf = MoveBuf::new();
        state.legal_moves(&mut buf);
        assert!(buf.contains(&mv));
    }
}
