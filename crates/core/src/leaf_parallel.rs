//! Leaf parallelism on the (simulated) GPU — paper §III.5, Fig. 2a.
//!
//! One search tree lives on the CPU. Each iteration selects and expands one
//! node, then launches a kernel in which **every** thread of the whole grid
//! plays an independent playout from that same node; the result array is
//! read back and backpropagated as one batch. "The obtained result is the
//! same as in the basic CPU version except that the number of simulations
//! is greater and the accuracy is better" — but all those simulations
//! sample one node, which is why its playing strength saturates (Fig. 6).
//!
//! The round is `LeafEngine`, launched through the shared fault ladder of
//! the `wave` module. With one block it is also the search service's
//! sequential-tree session: one block of device lanes per selected node.

use crate::block_parallel::{cpu_playouts, report_from_trees};
use crate::config::{MctsConfig, SearchBudget};
use crate::gpu::{aggregate, LaneOutcome};
use crate::searcher::{SearchReport, Searcher};
use crate::sequential::select_and_expand;
use crate::tree::SearchTree;
use crate::wave::{Frontier, Ledger, PlayoutRequest, RoundEngine, Solo};
use pmcts_games::Game;
use pmcts_gpu_sim::{Device, LaunchConfig};
use pmcts_util::{SimTime, Xoshiro256pp};

/// Leaf-parallel GPU searcher.
#[derive(Clone, Debug)]
pub struct LeafParallelSearcher<G: Game> {
    solo: Solo,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> LeafParallelSearcher<G> {
    /// Creates a leaf-parallel searcher launching `launch` on `device`.
    pub fn new(config: MctsConfig, device: Device, launch: LaunchConfig) -> Self {
        Self::with_stream(config, device, launch, 0)
    }

    /// Like [`new`](Self::new) but drawing randomness from sub-stream
    /// `stream` of the seed (for multi-searcher experiments).
    pub fn with_stream(
        config: MctsConfig,
        device: Device,
        launch: LaunchConfig,
        stream: u64,
    ) -> Self {
        LeafParallelSearcher {
            solo: Solo::new(
                config,
                device,
                launch,
                stream,
                0x1EAF,
                0xD134_2543_DE82_EF95,
            ),
            _game: std::marker::PhantomData,
        }
    }
}

impl<G: Game> Searcher<G> for LeafParallelSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        let s = &mut self.solo;
        let mut engine = LeafEngine::new(
            root,
            s.config.clone(),
            s.launch.blocks,
            s.rng.clone(),
            s.ledger(budget),
        );
        let report = s.run(&mut engine);
        s.rng = engine.rng;
        report
    }

    fn name(&self) -> String {
        format!(
            "leaf parallelism ({} blocks × {} threads)",
            self.solo.launch.blocks, self.solo.launch.threads_per_block
        )
    }
}

/// The leaf-parallel round: one tree, one selected node, every block of
/// the grid simulating it.
pub(crate) struct LeafEngine<G: Game> {
    config: MctsConfig,
    tree: SearchTree<G>,
    rng: Xoshiro256pp,
    blocks: u32,
    ledger: Ledger,
    pending: Option<Frontier<G>>,
}

impl<G: Game> LeafEngine<G> {
    /// One tree searching `root`, its node simulated by `blocks` blocks.
    pub(crate) fn new(
        root: G,
        config: MctsConfig,
        blocks: u32,
        rng: Xoshiro256pp,
        ledger: Ledger,
    ) -> Self {
        LeafEngine {
            tree: SearchTree::for_config(root, &config),
            config,
            rng,
            blocks,
            ledger,
            pending: None,
        }
    }
}

impl<G: Game> RoundEngine<G> for LeafEngine<G> {
    fn ledger(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn begin_round(&mut self) -> Option<PlayoutRequest<G>> {
        let tree = &mut self.tree;
        if tree.is_terminal(tree.root()) {
            return None;
        }
        let c = self.config.exploration_c;
        let node = select_and_expand(tree, c, &mut self.rng, &mut self.ledger.phases);
        let frontier = vec![(node, *tree.state(node), tree.depth(node))];
        let mut request = PlayoutRequest::new(&frontier, &self.config.cpu_cost);
        request.blocks = self.blocks;
        self.pending = Some(frontier);
        Some(request)
    }

    /// Every block's lanes land on the one node as a single batch; an
    /// aborted block's lanes are void.
    fn complete_round(&mut self, lanes: &[LaneOutcome], voided: Option<usize>) {
        let (node, _, _) = self.pending.take().expect("no round in flight")[0];
        let (mut wins_p1, mut n) = aggregate(lanes);
        if let Some(b) = voided {
            // Rewards are multiples of ½, so the subtraction is exact.
            let tpb = lanes.len() / self.blocks as usize;
            let (w, c) = aggregate(&lanes[b * tpb..(b + 1) * tpb]);
            wins_p1 -= w;
            n -= c;
        }
        self.tree.backprop(node, wins_p1, n);
        self.ledger.phases.simulations += n;
    }

    fn degrade(&mut self) -> SimTime {
        let frontier = self.pending.take().expect("no round in flight");
        cpu_playouts(
            std::slice::from_mut(&mut self.tree),
            &frontier,
            &mut self.rng,
            &self.config.cpu_cost,
            &mut self.ledger.phases,
        )
    }

    fn finish(&mut self) -> SearchReport<G::Move> {
        report_from_trees(
            &self.config,
            std::slice::from_ref(&self.tree),
            &self.ledger.tracker,
            self.ledger.phases.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_games::{Reversi, TicTacToe};
    use pmcts_gpu_sim::DeviceSpec;

    fn device() -> Device {
        Device::new(DeviceSpec::tesla_c2050())
    }

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    #[test]
    fn one_iteration_runs_grid_size_simulations() {
        let mut s =
            LeafParallelSearcher::<Reversi>::new(cfg(1), device(), LaunchConfig::new(4, 64));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(3));
        assert_eq!(r.iterations, 3);
        assert_eq!(r.simulations, 3 * 256);
        assert_eq!(r.tree_nodes, 4); // root + one expansion per iteration
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            LeafParallelSearcher::<Reversi>::new(cfg(seed), device(), LaunchConfig::new(2, 32))
                .search(Reversi::initial(), SearchBudget::Iterations(8))
        };
        let a = run(9);
        let b = run(9);
        let c = run(10);
        assert_eq!(a.root_stats, b.root_stats);
        assert_eq!(a.best_move, b.best_move);
        assert_ne!(a.root_stats, c.root_stats);
    }

    #[test]
    fn virtual_time_includes_kernel_cost() {
        let mut s =
            LeafParallelSearcher::<Reversi>::new(cfg(2), device(), LaunchConfig::new(14, 64));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(2));
        // Two launches must cost at least two launch overheads.
        assert!(r.elapsed >= device().spec().launch_overhead * 2);
    }

    #[test]
    fn picks_winning_move_in_tictactoe() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher =
            LeafParallelSearcher::<TicTacToe>::new(cfg(3), device(), LaunchConfig::new(2, 32));
        let r = searcher.search(s, SearchBudget::Iterations(60));
        assert_eq!(r.best_move, Some(2));
    }

    #[test]
    fn terminal_root_reports_no_move() {
        let s = TicTacToe::parse("XXX OO. ...", pmcts_games::Player::P2).unwrap();
        let mut searcher =
            LeafParallelSearcher::<TicTacToe>::new(cfg(4), device(), LaunchConfig::new(1, 32));
        let r = searcher.search(s, SearchBudget::Iterations(5));
        assert_eq!(r.best_move, None);
        assert_eq!(r.simulations, 0);
    }

    #[test]
    fn root_visits_match_simulations() {
        let mut s =
            LeafParallelSearcher::<Reversi>::new(cfg(5), device(), LaunchConfig::new(2, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(10));
        let total: u64 = r.root_stats.iter().map(|st| st.visits).sum();
        assert_eq!(total, r.simulations);
    }
}
