//! Hybrid CPU/GPU processing — paper §III-A, Fig. 4.
//!
//! The paper observes that GPU-built trees are *shallower* than CPU trees:
//! a kernel launch takes long, so the tree receives few (large) updates,
//! while a CPU performs many quick single simulations and grows the tree
//! toward the optimum faster. The fix: launch the kernel **asynchronously**
//! and let the CPU keep running ordinary MCTS iterations on the same trees
//! while the GPU simulates ("CPU can work here!" in Fig. 4), improving both
//! depth and playing strength (paper Fig. 8).
//!
//! Determinism: the amount of CPU shadow work per launch is bounded by the
//! *previous* kernel's virtual duration (an adaptive estimate), not by
//! wall-clock polling, so results are reproducible while the kernel still
//! genuinely executes in the background via
//! [`pmcts_gpu_sim::PendingLaunch`].

use crate::block_parallel::{backprop_outputs, report_from_trees, select_and_expand_all};
use crate::config::{MctsConfig, SearchBudget};
use crate::gpu::PlayoutKernel;
use crate::searcher::{BudgetTracker, SearchReport, Searcher};
use crate::sequential::SequentialSearcher;
use crate::telemetry::PhaseBreakdown;
use crate::tree::SearchTree;
use crate::wave::{slow_down, void_of, HostTime};
use pmcts_games::Game;
use pmcts_gpu_sim::{Device, GpuFault, LaunchConfig};
use pmcts_util::{SimTime, Xoshiro256pp};
use std::sync::Arc;

/// Hybrid CPU+GPU block-parallel searcher.
#[derive(Clone, Debug)]
pub struct HybridSearcher<G: Game> {
    config: MctsConfig,
    device: Device,
    launch: LaunchConfig,
    rng: Xoshiro256pp,
    cpu_worker: SequentialSearcher<G>,
    epoch: u64,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> HybridSearcher<G> {
    /// Creates a hybrid searcher: block-parallel GPU search plus CPU
    /// iterations overlapped with every kernel launch.
    pub fn new(config: MctsConfig, device: Device, launch: LaunchConfig) -> Self {
        let rng = Xoshiro256pp::derive(config.seed, 0x4B1D);
        let cpu_worker = SequentialSearcher::with_stream(config.clone(), 0xC0DE);
        HybridSearcher {
            config,
            device,
            launch,
            rng,
            cpu_worker,
            epoch: 0,
            _game: std::marker::PhantomData,
        }
    }

    fn next_stream_seed(&mut self) -> u64 {
        self.epoch += 1;
        self.config
            .seed
            .wrapping_add(self.epoch.wrapping_mul(0x2545_F491_4F6C_DD1D))
    }
}

impl<G: Game> Searcher<G> for HybridSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        let blocks = self.launch.blocks as usize;
        let tpb = self.launch.threads_per_block as usize;
        let mut trees: Vec<SearchTree<G>> = (0..blocks)
            .map(|_| SearchTree::for_config(root, &self.config))
            .collect();
        let mut tracker = BudgetTracker::new(budget);
        let mut phases = PhaseBreakdown::new();
        let cpu = self.config.cpu_cost;
        let mut kernel_estimate: Option<SimTime> = None;
        let mut cpu_turn = 0usize;
        // Rolling estimate of one CPU iteration's cost, so the shadow loop
        // never overshoots the overlap window (a real CPU would not start a
        // simulation it cannot finish before the kernel completes).
        // (floored at 1 ns so a free cost model cannot spin forever)
        let mut est_iter = (cpu.tree_op(8) + cpu.playout(G::MAX_GAME_LENGTH as u32 / 2))
            .max(SimTime::from_nanos(1));

        // Host tree phases are block parallelism's, fanned out over the
        // device's pool; RNG draw order and cost folding stay in block
        // order, so reports are bit-identical for any pool size.
        let pool = Arc::clone(self.device.worker_pool());

        if !trees[0].is_terminal(0) {
            let plan = self.config.faults;
            while tracker.may_continue() {
                let frontier = select_and_expand_all(
                    &mut trees,
                    &mut self.rng,
                    self.config.exploration_c,
                    &pool,
                    &mut phases,
                );
                let host = HostTime::of(&cpu, &frontier);
                host.bill(&mut phases);
                let host_cost = cpu.launch_prep + host.total();

                let kernel = Arc::new(PlayoutKernel::new(
                    frontier.iter().map(|&(_, s, _)| s).collect(),
                    self.next_stream_seed(),
                ));
                let fault = plan.gpu_fault(0x4B1D, self.epoch, self.launch.blocks);
                let upload = self.device.spec().transfer_time(kernel.upload_bytes());
                let pending = self.device.launch_async(kernel, self.launch);

                // CPU shadow work while the kernel flies: plain sequential
                // MCTS iterations, round-robin over the same trees, bounded
                // by the previous kernel's virtual duration so accounting
                // stays deterministic. Shadow phase times go into `scratch`
                // first: whether they land in the breakdown depends on which
                // side of the overlap is the critical path.
                let mut shadow_elapsed = SimTime::ZERO;
                let mut scratch = PhaseBreakdown::new();
                if let Some(est) = kernel_estimate {
                    let mut shadow = BudgetTracker::new(SearchBudget::VirtualTime(est));
                    while shadow.elapsed + est_iter <= est {
                        let before = shadow.elapsed;
                        let tree = &mut trees[cpu_turn % blocks];
                        self.cpu_worker
                            .one_iteration(tree, &mut shadow, &mut scratch);
                        est_iter = (shadow.elapsed - before).max(SimTime::from_nanos(1));
                        cpu_turn += 1;
                    }
                    shadow_elapsed = shadow.elapsed;
                    scratch.shadow_iterations = shadow.iterations;
                }

                let mut result = pending.wait();
                slow_down(&mut result.stats, &[fault]);
                let kernel_elapsed = result.stats.elapsed();

                // A hung kernel's outputs are void; instead of idling to the
                // virtual deadline the CPU absorbs the stall by *extending*
                // its shadow loop over the same trees, so the window still
                // makes progress. Completed launches (possibly slowed,
                // possibly with one aborted block) read back as usual.
                let gpu_side = if fault == GpuFault::Hang {
                    let deadline = plan.hang_deadline(kernel_elapsed);
                    phases.faults.injected += 1;
                    phases.faults.degraded += 1;
                    let mut shadow = BudgetTracker::new(SearchBudget::VirtualTime(deadline));
                    shadow.elapsed = shadow_elapsed;
                    while shadow.elapsed + est_iter <= deadline {
                        let before = shadow.elapsed;
                        let tree = &mut trees[cpu_turn % blocks];
                        self.cpu_worker
                            .one_iteration(tree, &mut shadow, &mut scratch);
                        est_iter = (shadow.elapsed - before).max(SimTime::from_nanos(1));
                        cpu_turn += 1;
                    }
                    scratch.shadow_iterations += shadow.iterations;
                    shadow_elapsed = shadow.elapsed;
                    deadline
                } else {
                    let voided = void_of(fault, &mut phases);
                    backprop_outputs(
                        &mut trees,
                        &frontier,
                        &result.outputs,
                        tpb,
                        voided,
                        &pool,
                        &mut phases,
                    );
                    phases.record_launch(&result.stats);
                    kernel_elapsed
                };

                // The CPU work overlapped the kernel: charge the longer of
                // the two, plus the non-overlapped host-sequential parts.
                // The breakdown charges the critical side's phases; the
                // hidden side's time is recorded as `overlap_saved`.
                phases.upload += cpu.launch_prep + upload;
                if gpu_side >= shadow_elapsed {
                    if fault == GpuFault::Hang {
                        phases.kernel += gpu_side;
                    } else {
                        phases.kernel += result.stats.launch_overhead + result.stats.device_time;
                        phases.readback += result.stats.readback_time;
                    }
                    phases.overlap_saved += shadow_elapsed;
                } else {
                    phases.select += scratch.select;
                    phases.expand += scratch.expand;
                    phases.kernel += scratch.kernel;
                    phases.overlap_saved += gpu_side;
                }
                phases.shadow_overlap += shadow_elapsed;
                phases.absorb_counters(&scratch);

                let overlapped = gpu_side.max(shadow_elapsed);
                tracker.charge(host_cost + upload + overlapped);
                kernel_estimate = Some(kernel_elapsed);
            }
        }

        report_from_trees(&self.config, &trees, &tracker, phases)
    }

    fn name(&self) -> String {
        format!(
            "hybrid CPU+GPU ({} blocks × {} threads)",
            self.launch.blocks, self.launch.threads_per_block
        )
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
