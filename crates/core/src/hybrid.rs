//! Hybrid CPU/GPU processing — paper §III-A, Fig. 4.
//!
//! The paper observes that GPU-built trees are *shallower* than CPU trees:
//! a kernel launch takes long, so the tree receives few (large) updates,
//! while a CPU performs many quick single simulations and grows the tree
//! toward the optimum faster. The fix: launch the kernel asynchronously
//! and let the CPU keep running ordinary MCTS iterations on the same trees
//! while the GPU simulates ("CPU can work here!" in Fig. 4), improving both
//! depth and playing strength (paper Fig. 8).
//!
//! Here the overlap lives in virtual time; launches run to completion.
//! `HybridEngine` is the block-parallel round plus a CPU shadow loop: after
//! the round's selection, plain sequential iterations run round-robin over
//! the same trees, and the kernel's results land after them. The loop is
//! bounded by the *previous* kernel's virtual duration, not by wall-clock
//! polling, so results are reproducible. The solo driver launches the
//! round through the shared fault ladder, and the engine's billing hook
//! charges the longer of kernel and shadow loop
//! (`Ledger::charge_overlapped`), recording the shorter as
//! `overlap_saved`.
//!
//! A hung kernel is not retried: its outputs are void, and the shadow loop
//! runs on to the hang deadline, so the window still makes progress.

use crate::block_parallel::BlockEngine;
use crate::config::{MctsConfig, SearchBudget};
use crate::gpu::LaneOutcome;
use crate::searcher::{BudgetTracker, SearchReport, Searcher};
use crate::sequential::SequentialSearcher;
use crate::telemetry::PhaseBreakdown;
use crate::wave::{HostTime, Ledger, PlayoutRequest, RoundEngine, Solo, Wave};
use pmcts_games::Game;
use pmcts_gpu_sim::{Device, LaunchConfig};
use pmcts_util::SimTime;

/// Hybrid's fault stream and RNG salt.
const HYBRID_KEY: u64 = 0x4B1D;

/// Hybrid's lane-seed epoch multiplier.
const HYBRID_SEED_STEP: u64 = 0x2545_F491_4F6C_DD1D;

/// Hybrid CPU+GPU block-parallel searcher.
#[derive(Clone, Debug)]
pub struct HybridSearcher<G: Game> {
    solo: Solo,
    cpu_worker: SequentialSearcher<G>,
}

impl<G: Game> HybridSearcher<G> {
    /// Creates a hybrid searcher: block-parallel GPU search plus CPU
    /// iterations overlapped with every kernel launch.
    pub fn new(config: MctsConfig, device: Device, launch: LaunchConfig) -> Self {
        let cpu_worker = SequentialSearcher::with_stream(config.clone(), 0xC0DE);
        let mut solo = Solo::new(config, device, launch, 0, HYBRID_KEY, HYBRID_SEED_STEP);
        solo.fault_key = HYBRID_KEY;
        HybridSearcher { solo, cpu_worker }
    }
}

impl<G: Game> Searcher<G> for HybridSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        let s = &mut self.solo;
        let cpu = s.config.cpu_cost;
        let mut engine = HybridEngine {
            block: BlockEngine::solo(s, root, budget),
            cpu: &mut self.cpu_worker,
            est_iter: (cpu.tree_op(8) + cpu.playout(G::MAX_GAME_LENGTH as u32 / 2))
                .max(SimTime::from_nanos(1)),
            window: None,
            turn: 0,
            shadow: BudgetTracker::new(SearchBudget::Iterations(0)),
            scratch: PhaseBreakdown::new(),
        };
        let report = s.run(&mut engine);
        s.rng = engine.block.rng;
        report
    }

    fn name(&self) -> String {
        format!(
            "hybrid CPU+GPU ({} blocks × {} threads)",
            self.solo.launch.blocks, self.solo.launch.threads_per_block
        )
    }
}

/// The hybrid round: a [`BlockEngine`] whose kernel flights are filled
/// with CPU shadow iterations on the same trees.
struct HybridEngine<'a, G: Game> {
    block: BlockEngine<G>,
    cpu: &'a mut SequentialSearcher<G>,
    /// The shadow window: the previous kernel's virtual duration (`None`
    /// before the first launch).
    window: Option<SimTime>,
    /// A rolling estimate of one shadow iteration's cost, so the loop never
    /// starts a simulation it cannot finish inside the window (floored at
    /// 1 ns so a free cost model cannot spin forever).
    est_iter: SimTime,
    /// Shadow iterations run so far; the next one takes tree
    /// `turn % blocks`.
    turn: usize,
    /// This round's shadow clock (its budget is never consulted), and its
    /// phase times and counters. The times land in the ledger only if the
    /// shadow side is critical.
    shadow: BudgetTracker,
    scratch: PhaseBreakdown,
}

impl<G: Game> HybridEngine<'_, G> {
    /// Runs shadow iterations while the next one still fits before
    /// `until` on this round's shadow clock.
    fn shadow_until(&mut self, until: SimTime) {
        let blocks = self.block.trees.len();
        while self.shadow.elapsed + self.est_iter <= until {
            let before = self.shadow.elapsed;
            let tree = &mut self.block.trees[self.turn % blocks];
            self.cpu
                .one_iteration(tree, &mut self.shadow, &mut self.scratch);
            self.est_iter = (self.shadow.elapsed - before).max(SimTime::from_nanos(1));
            self.turn += 1;
        }
    }
}

impl<G: Game> RoundEngine<G> for HybridEngine<'_, G> {
    fn ledger(&mut self) -> &mut Ledger {
        &mut self.block.ledger
    }

    fn begin_round(&mut self) -> Option<PlayoutRequest<G>> {
        let request = self.block.begin_round()?;
        self.shadow = BudgetTracker::new(SearchBudget::Iterations(0));
        self.scratch = PhaseBreakdown::new();
        if let Some(window) = self.window {
            self.shadow_until(window);
        }
        Some(request)
    }

    fn complete_round(&mut self, lanes: &[LaneOutcome], voided: Option<usize>) {
        self.block.complete_round(lanes, voided);
    }

    fn absorb_hang(&mut self, deadline: SimTime) -> bool {
        self.block.pending = None;
        self.block.ledger.phases.faults.degraded += 1;
        self.shadow_until(deadline);
        true
    }

    fn degrade(&mut self) -> SimTime {
        unreachable!("hybrid absorbs every hang, so no round degrades")
    }

    fn finish(&mut self) -> SearchReport<G::Move> {
        self.block.finish()
    }

    fn charge_solo(&mut self, host: HostTime, wave: &Wave) {
        // The next window is this kernel's own time, a hung one's too
        // (not its deadline).
        self.window = Some(wave.elapsed);
        let (upload, gpu) = wave.split_upload();
        let s = &mut self.scratch;
        s.shadow_iterations = self.shadow.iterations;
        let hidden = HostTime {
            select: s.select,
            expand: s.expand,
            playouts: s.kernel,
        };
        let ledger = &mut self.block.ledger;
        ledger.phases.absorb_counters(s);
        ledger.charge_overlapped(host, &upload, &gpu, hidden);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_parallel::BlockParallelSearcher;
    use pmcts_games::{Reversi, TicTacToe};
    use pmcts_gpu_sim::DeviceSpec;

    fn device() -> Device {
        Device::new(DeviceSpec::tesla_c2050())
    }

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    #[test]
    fn runs_and_reports() {
        let mut s = HybridSearcher::<Reversi>::new(cfg(1), device(), LaunchConfig::new(4, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(5));
        assert_eq!(r.iterations, 5);
        // GPU sims plus CPU shadow sims: at least the pure GPU amount.
        assert!(r.simulations >= 5 * 4 * 32);
        assert!(r.best_move.is_some());
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            HybridSearcher::<Reversi>::new(cfg(seed), device(), LaunchConfig::new(2, 32))
                .search(Reversi::initial(), SearchBudget::Iterations(6))
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.root_stats, b.root_stats);
        assert_eq!(a.simulations, b.simulations);
        assert_eq!(a.elapsed, b.elapsed);
    }

    #[test]
    fn cpu_overlap_adds_simulations_beyond_block_parallel() {
        let budget = SearchBudget::VirtualTime(SimTime::from_millis(30));
        let cfg_ = cfg(8);
        let launch = LaunchConfig::new(8, 64);
        let hybrid = HybridSearcher::<Reversi>::new(cfg_.clone(), device(), launch)
            .search(Reversi::initial(), budget);
        let block = BlockParallelSearcher::<Reversi>::new(cfg_, device(), launch)
            .search(Reversi::initial(), budget);
        assert!(
            hybrid.simulations > block.simulations,
            "hybrid {} should out-simulate block {}",
            hybrid.simulations,
            block.simulations
        );
    }

    #[test]
    fn hybrid_trees_grow_deeper_than_gpu_only() {
        // The paper's Fig. 8 claim: CPU overlap increases tree depth.
        let budget = SearchBudget::VirtualTime(SimTime::from_millis(40));
        let launch = LaunchConfig::new(8, 64);
        let hybrid = HybridSearcher::<Reversi>::new(cfg(9), device(), launch)
            .search(Reversi::initial(), budget);
        let block = BlockParallelSearcher::<Reversi>::new(cfg(9), device(), launch)
            .search(Reversi::initial(), budget);
        assert!(
            hybrid.max_depth >= block.max_depth,
            "hybrid depth {} < block depth {}",
            hybrid.max_depth,
            block.max_depth
        );
    }

    #[test]
    fn tactical_sanity() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher =
            HybridSearcher::<TicTacToe>::new(cfg(10), device(), LaunchConfig::new(2, 32));
        let r = searcher.search(s, SearchBudget::Iterations(40));
        assert_eq!(r.best_move, Some(2));
    }
}
