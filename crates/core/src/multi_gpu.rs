//! Multi-GPU search over (simulated) MPI — paper §IV/Fig. 9.
//!
//! Root parallelism at cluster scale: each MPI rank drives one GPU running
//! the block-parallel scheme, and root statistics are combined with an
//! allreduce at the end of the search ("For the root/block parallel
//! methods, the root node has to be updated by summing up results from all
//! other trees processed in parallel", §II.4 — here across ranks). All
//! ranks end up with identical merged statistics and hence choose the same
//! move. The rank driver, its fault handling and the merge are shared with
//! the multi-node CPU searcher (`root_parallel::run_ranks`).

use crate::block_parallel::BlockParallelSearcher;
use crate::config::{MctsConfig, SearchBudget};
use crate::root_parallel::run_ranks;
use crate::searcher::{SearchReport, Searcher};
use pmcts_games::Game;
use pmcts_gpu_sim::{Device, DeviceSpec, LaunchConfig, WorkerPool};
use pmcts_mpi_sim::NetworkModel;
use std::sync::Arc;

/// Root-parallel search over `ranks` simulated GPUs connected by MPI.
#[derive(Clone, Debug)]
pub struct MultiGpuSearcher<G: Game> {
    config: MctsConfig,
    ranks: usize,
    device_spec: DeviceSpec,
    launch: LaunchConfig,
    network: NetworkModel,
    /// One persistent pool shared by every rank's device: the host's cores
    /// are a single resource, and sharing avoids spawning `ranks` pools per
    /// search. Results are unaffected (block-order folding per launch).
    pool: Arc<WorkerPool>,
    generation: u64,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> MultiGpuSearcher<G> {
    /// Creates a multi-GPU searcher: `ranks` ranks, each with its own
    /// simulated `device_spec` GPU launching `launch`.
    pub fn new(
        config: MctsConfig,
        ranks: usize,
        device_spec: DeviceSpec,
        launch: LaunchConfig,
        network: NetworkModel,
    ) -> Self {
        assert!(ranks > 0, "need at least one rank");
        MultiGpuSearcher {
            config,
            ranks,
            device_spec,
            launch,
            network,
            pool: Arc::new(WorkerPool::with_available_parallelism()),
            generation: 0,
            _game: std::marker::PhantomData,
        }
    }

    /// Shares an existing worker pool across the ranks' devices instead of
    /// owning one. Virtual timing and results are unaffected.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = pool;
        self
    }

    /// Number of MPI ranks (= GPUs).
    pub fn ranks(&self) -> usize {
        self.ranks
    }
}

impl<G: Game> Searcher<G> for MultiGpuSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        self.generation += 1;
        // All ranks' devices execute on one shared persistent pool — the
        // host's cores are a single resource however many GPUs we simulate.
        run_ranks(
            &self.config,
            self.ranks,
            self.network,
            self.generation,
            budget,
            |stream| {
                let device =
                    Device::new_with_pool(self.device_spec.clone(), Arc::clone(&self.pool));
                BlockParallelSearcher::<G>::with_stream(
                    self.config.clone(),
                    device,
                    self.launch,
                    stream,
                )
                .search(root, budget)
            },
        )
    }

    fn name(&self) -> String {
        format!(
            "multi-GPU root parallelism ({} ranks × {} blocks × {} threads)",
            self.ranks, self.launch.blocks, self.launch.threads_per_block
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_games::Reversi;

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    fn searcher(seed: u64, ranks: usize) -> MultiGpuSearcher<Reversi> {
        MultiGpuSearcher::new(
            cfg(seed),
            ranks,
            DeviceSpec::tesla_c2050(),
            LaunchConfig::new(4, 32),
            NetworkModel::infiniband(),
        )
    }

    #[test]
    fn simulations_scale_with_ranks() {
        let r1 = searcher(1, 1).search(Reversi::initial(), SearchBudget::Iterations(4));
        let r4 = searcher(1, 4).search(Reversi::initial(), SearchBudget::Iterations(4));
        assert_eq!(r1.simulations, 4 * 4 * 32);
        assert_eq!(r4.simulations, 4 * r1.simulations);
    }

    #[test]
    fn merged_stats_cover_all_rank_simulations() {
        let r = searcher(2, 3).search(Reversi::initial(), SearchBudget::Iterations(5));
        let total: u64 = r.root_stats.iter().map(|s| s.visits).sum();
        assert_eq!(total, r.simulations);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = searcher(3, 2).search(Reversi::initial(), SearchBudget::Iterations(4));
        let b = searcher(3, 2).search(Reversi::initial(), SearchBudget::Iterations(4));
        assert_eq!(a.root_stats, b.root_stats);
        assert_eq!(a.best_move, b.best_move);
    }

    #[test]
    fn ranks_explore_different_streams() {
        // Two ranks' individual reports would differ; test via merged stats
        // differing from a doubled single rank.
        let single = searcher(5, 1).search(Reversi::initial(), SearchBudget::Iterations(6));
        let double = searcher(5, 2).search(Reversi::initial(), SearchBudget::Iterations(6));
        let doubled: Vec<u64> = single.root_stats.iter().map(|s| s.visits * 2).collect();
        let merged: Vec<u64> = double.root_stats.iter().map(|s| s.visits).collect();
        assert_ne!(doubled, merged);
    }
}
