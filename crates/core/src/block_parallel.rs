//! Block parallelism — the paper's contribution (§III.6, Fig. 2c).
//!
//! `B` independent trees live on the CPU, one per GPU *block*. Each
//! iteration the host performs selection + expansion on **every** tree
//! (this is the host part that grows with `B` and caps simulations/second —
//! Fig. 5), uploads the `B` frontier positions, and launches a single
//! kernel: block `b`'s threads all simulate tree `b`'s position, a
//! leaf-parallel batch per tree. Results are read back, backpropagated per
//! tree, and at the end root statistics are merged across trees exactly as
//! in root parallelism.
//!
//! The round is `BlockEngine`, run by the solo driver of the
//! `wave` module (and by the search service, one merged launch per
//! round), which also owns the fault ladder.
//!
//! The host tree phases run on the device's
//! [`WorkerPool`] in three stages
//! per iteration: pool-parallel selection over trees, a sequential pass
//! drawing every expansion pick from the shared RNG in block order, and
//! pool-parallel expansion (then, after the launch, pool-parallel
//! backpropagation). Virtual-time charging still models the paper's
//! single-core host — the pool only shrinks *wall-clock* host time — and
//! because RNG draws and all cost/statistics folding stay in block order,
//! reports are bit-identical for any pool size.
//!
//! The scheme matches the hardware hierarchy (Fig. 3): warps stay
//! divergence-coherent because all lanes of a block simulate the same
//! position, while distinct blocks/trees need no communication at all.

use crate::config::{MctsConfig, SearchBudget};
use crate::cost::CpuCostModel;
use crate::gpu::{aggregate, LaneOutcome};
use crate::searcher::{BudgetTracker, SearchReport, Searcher};
use crate::telemetry::PhaseBreakdown;
use crate::tree::{best_from_stats, merge_root_stats, SearchTree};
use crate::wave::{Frontier, Ledger, PlayoutRequest, RoundEngine, Solo, LANE_SEED_STEP};
use pmcts_games::{random_playout, Game, Player};
use pmcts_gpu_sim::{Device, LaunchConfig, WorkerPool};
use pmcts_util::{Rng64, SimTime, Xoshiro256pp};
use std::sync::Arc;

/// Block-parallel GPU searcher: one MCTS tree per GPU block.
#[derive(Clone, Debug)]
pub struct BlockParallelSearcher<G: Game> {
    solo: Solo,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> BlockParallelSearcher<G> {
    /// Creates a block-parallel searcher with `launch.blocks` trees and
    /// `launch.threads_per_block` simulations per tree per iteration.
    pub fn new(config: MctsConfig, device: Device, launch: LaunchConfig) -> Self {
        Self::with_stream(config, device, launch, 0)
    }

    /// Like [`new`](Self::new) but on RNG sub-stream `stream` (one stream
    /// per MPI rank in the multi-GPU setting).
    pub fn with_stream(
        config: MctsConfig,
        device: Device,
        launch: LaunchConfig,
        stream: u64,
    ) -> Self {
        BlockParallelSearcher {
            solo: Solo::new(config, device, launch, stream, 0xB10C, LANE_SEED_STEP),
            _game: std::marker::PhantomData,
        }
    }

    /// Number of trees (= blocks).
    pub fn trees(&self) -> u32 {
        self.solo.launch.blocks
    }
}

impl<G: Game> Searcher<G> for BlockParallelSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        let mut engine = BlockEngine::solo(&self.solo, root, budget);
        let report = self.solo.run(&mut engine);
        self.solo.rng = engine.rng;
        report
    }

    fn name(&self) -> String {
        format!(
            "block parallelism ({} blocks × {} threads)",
            self.solo.launch.blocks, self.solo.launch.threads_per_block
        )
    }
}

/// The block-parallel round: `B` independent trees, one block each.
pub(crate) struct BlockEngine<G: Game> {
    pub(crate) config: MctsConfig,
    pub(crate) trees: Vec<SearchTree<G>>,
    pub(crate) rng: Xoshiro256pp,
    pub(crate) pool: Arc<WorkerPool>,
    pub(crate) threads_per_block: usize,
    pub(crate) ledger: Ledger,
    /// The frontier between `begin_round` and its landing.
    pub(crate) pending: Option<Frontier<G>>,
}

impl<G: Game> BlockEngine<G> {
    /// A solo searcher's engine for its next search of `root`.
    pub(crate) fn solo(s: &Solo, root: G, budget: SearchBudget) -> Self {
        let (rng, ledger) = (s.rng.clone(), s.ledger(budget));
        Self::new(root, s.config.clone(), s.launch, s.pool(), rng, ledger)
    }

    /// `launch.blocks` trees searching `root`.
    pub(crate) fn new(
        root: G,
        config: MctsConfig,
        launch: LaunchConfig,
        pool: Arc<WorkerPool>,
        rng: Xoshiro256pp,
        ledger: Ledger,
    ) -> Self {
        BlockEngine {
            trees: (0..launch.blocks)
                .map(|_| SearchTree::for_config(root, &config))
                .collect(),
            config,
            rng,
            pool,
            threads_per_block: launch.threads_per_block as usize,
            ledger,
            pending: None,
        }
    }
}

impl<G: Game> RoundEngine<G> for BlockEngine<G> {
    fn ledger(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn begin_round(&mut self) -> Option<PlayoutRequest<G>> {
        if self.trees[0].is_terminal(self.trees[0].root()) {
            return None;
        }
        let frontier = select_and_expand_all(
            &mut self.trees,
            &mut self.rng,
            self.config.exploration_c,
            &self.pool,
            &mut self.ledger.phases,
        );
        let request = PlayoutRequest::new(&frontier, &self.config.cpu_cost);
        self.pending = Some(frontier);
        Some(request)
    }

    fn complete_round(&mut self, lanes: &[LaneOutcome], voided: Option<usize>) {
        let frontier = self.pending.take().expect("no round in flight");
        backprop_outputs(
            &mut self.trees,
            &frontier,
            lanes,
            self.threads_per_block,
            voided,
            &self.pool,
            &mut self.ledger.phases,
        );
    }

    fn degrade(&mut self) -> SimTime {
        let frontier = self.pending.take().expect("no round in flight");
        cpu_playouts(
            &mut self.trees,
            &frontier,
            &mut self.rng,
            &self.config.cpu_cost,
            &mut self.ledger.phases,
        )
    }

    fn finish(&mut self) -> SearchReport<G::Move> {
        report_from_trees(
            &self.trees,
            &self.ledger.tracker,
            self.ledger.phases.clone(),
        )
    }
}

/// The host half of one block-parallel round: pool-parallel selection over
/// every tree, expansion picks drawn from the shared RNG in block order,
/// and pool-parallel expansion. Returns each tree's frontier
/// `(node, state, depth)`; expansions are counted into `phases`.
///
/// Everything that affects results happens in block order on the calling
/// thread, so the output is bit-identical for any pool size.
pub(crate) fn select_and_expand_all<G: Game>(
    trees: &mut [SearchTree<G>],
    rng: &mut Xoshiro256pp,
    exploration_c: f64,
    pool: &WorkerPool,
    phases: &mut PhaseBreakdown,
) -> Frontier<G> {
    // Selection on every tree (pool-parallel; trees are independent,
    // selection is read-only).
    let selected: Vec<(u32, u32)> = pool.map_indexed(trees, |_, tree| {
        let sel = tree.select(exploration_c);
        (sel, tree.untried_len(sel) as u32)
    });
    // Draw expansion picks from the shared RNG in block order — exactly
    // the draw sequence of the sequential schedule, so the pinned
    // fingerprints are unaffected.
    let picks: Vec<Option<u32>> = selected
        .iter()
        .map(|&(_, untried)| {
            if untried != 0 {
                phases.expansions += 1;
                Some(rng.next_below(untried))
            } else {
                None
            }
        })
        .collect();
    // Expansion with the pre-drawn picks (pool-parallel), capturing each
    // tree's frontier node for the kernel.
    pool.map_indexed(trees, |b, tree| {
        let node = match picks[b] {
            Some(pick) => tree.expand_with_pick(selected[b].0, pick),
            None => selected[b].0,
        };
        (node, *tree.state(node), tree.depth(node))
    })
}

/// The readback half of one block-parallel round: block `b`'s `tpb` lanes
/// are aggregated and backpropagated into tree `b` (pool-parallel; each
/// tree's backprop walk is independent). A voided (aborted) block's tree
/// receives nothing. Simulation counts fold in block order.
pub(crate) fn backprop_outputs<G: Game>(
    trees: &mut [SearchTree<G>],
    frontier: &[(u32, G, u32)],
    outputs: &[LaneOutcome],
    tpb: usize,
    voided: Option<usize>,
    pool: &WorkerPool,
    phases: &mut PhaseBreakdown,
) {
    let counts: Vec<u64> = pool.map_indexed(trees, |b, tree| {
        if Some(b) == voided {
            return 0;
        }
        let lanes = &outputs[b * tpb..(b + 1) * tpb];
        let (wins_p1, n) = aggregate(lanes);
        tree.backprop(frontier[b].0, wins_p1, n);
        n
    });
    phases.simulations += counts.iter().sum::<u64>();
}

/// The degraded landing of a round: one CPU playout per frontier node,
/// drawn from `rng` in block order and backpropagated into tree
/// `b % trees.len()` (a shared tree receives every block's). Returns the
/// CPU time spent.
pub(crate) fn cpu_playouts<G: Game>(
    trees: &mut [SearchTree<G>],
    frontier: &[(u32, G, u32)],
    rng: &mut Xoshiro256pp,
    cpu: &CpuCostModel,
    phases: &mut PhaseBreakdown,
) -> SimTime {
    let mut cost = SimTime::ZERO;
    let n = trees.len();
    for (b, &(node, state, _)) in frontier.iter().enumerate() {
        let playout = random_playout(state, rng);
        cost += cpu.playout(playout.plies);
        trees[b % n].backprop(node, playout.reward_for(Player::P1), 1);
        phases.simulations += 1;
        phases.faults.degraded += 1;
    }
    cost
}

/// Merges per-tree reports into one `SearchReport` (shared by every
/// multi-tree and shared-tree scheme).
pub(crate) fn report_from_trees<G: Game>(
    trees: &[SearchTree<G>],
    tracker: &BudgetTracker,
    mut phases: PhaseBreakdown,
) -> SearchReport<G::Move> {
    let merged = merge_root_stats(&trees.iter().map(|t| t.root_stats()).collect::<Vec<_>>());
    phases.budget_overshoot = tracker.overshoot();
    SearchReport {
        best_move: best_from_stats(&merged),
        simulations: phases.simulations,
        iterations: tracker.iterations,
        tree_nodes: trees.iter().map(|t| t.live_nodes() as u64).sum(),
        max_depth: trees.iter().map(|t| t.max_depth()).max().unwrap_or(0),
        elapsed: tracker.elapsed,
        root_stats: merged,
        phases,
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
    fn simulations_equal_grid_times_iterations() {
        let mut s =
            BlockParallelSearcher::<Reversi>::new(cfg(1), device(), LaunchConfig::new(4, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(5));
        assert_eq!(r.iterations, 5);
        assert_eq!(r.simulations, 5 * 4 * 32);
        // One expansion per tree per iteration: 4 roots + 4*5 nodes.
        assert_eq!(r.tree_nodes, 4 + 20);
    }

    #[test]
    fn root_stats_are_merged_across_trees() {
        let mut s =
            BlockParallelSearcher::<Reversi>::new(cfg(2), device(), LaunchConfig::new(8, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(6));
        let total: u64 = r.root_stats.iter().map(|st| st.visits).sum();
        assert_eq!(total, r.simulations);
        // All 4 opening moves should be explored across 8 trees.
        assert_eq!(r.root_stats.len(), 4);
    }

    #[test]
    fn deterministic_per_seed_and_stream() {
        let run = |seed, stream| {
            BlockParallelSearcher::<Reversi>::with_stream(
                cfg(seed),
                device(),
                LaunchConfig::new(4, 32),
                stream,
            )
            .search(Reversi::initial(), SearchBudget::Iterations(4))
        };
        assert_eq!(run(3, 0).root_stats, run(3, 0).root_stats);
        assert_ne!(run(3, 0).root_stats, run(3, 1).root_stats);
        assert_ne!(run(3, 0).root_stats, run(4, 0).root_stats);
    }

    #[test]
    fn more_blocks_cost_more_host_time_per_iteration() {
        // The paper's key observation: more trees ⇒ more sequential CPU
        // work ⇒ fewer simulations per second.
        let sims_per_sec = |blocks| {
            let mut s = BlockParallelSearcher::<Reversi>::new(
                cfg(4),
                device(),
                LaunchConfig::new(blocks, 32),
            );
            let r = s.search(Reversi::initial(), SearchBudget::Iterations(6));
            r.sims_per_second() / (blocks as f64 * 32.0) // per-thread rate
        };
        let few = sims_per_sec(2);
        let many = sims_per_sec(64);
        assert!(
            many < few,
            "per-thread throughput should drop with tree count: {many} !< {few}"
        );
    }

    #[test]
    fn finds_tactical_move() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher =
            BlockParallelSearcher::<TicTacToe>::new(cfg(5), device(), LaunchConfig::new(4, 32));
        let r = searcher.search(s, SearchBudget::Iterations(40));
        assert_eq!(r.best_move, Some(2));
    }

    #[test]
    fn terminal_root_is_handled() {
        let s = TicTacToe::parse("XXX OO. ...", pmcts_games::Player::P2).unwrap();
        let mut searcher =
            BlockParallelSearcher::<TicTacToe>::new(cfg(6), device(), LaunchConfig::new(2, 32));
        let r = searcher.search(s, SearchBudget::Iterations(5));
        assert_eq!(r.best_move, None);
        assert_eq!(r.simulations, 0);
    }

    #[test]
    fn trees_develop_independently() {
        let mut s =
            BlockParallelSearcher::<Reversi>::new(cfg(7), device(), LaunchConfig::new(2, 32));
        let mut engine =
            BlockEngine::solo(&s.solo, Reversi::initial(), SearchBudget::Iterations(10));
        s.solo.run(&mut engine);
        let trees = engine.trees;
        // Two trees with independent randomness almost surely differ in
        // their root statistics after 10 iterations.
        assert_ne!(trees[0].root_stats(), trees[1].root_stats());
    }
}
