//! Massively parallel CPU root parallelism over MPI — the authors' earlier
//! system (ref \[4\], "Massively Parallel Monte Carlo Tree Search", which
//! the paper's introduction says ran on thousands of CPU threads) rebuilt
//! on simulated MPI ranks.
//!
//! Each rank models one multi-core node running [`RootParallelSearcher`]
//! with `threads_per_rank` trees; rank statistics are merged by the same
//! rank driver as the multi-GPU searcher (`root_parallel::run_ranks`). This
//! completes the CPU-side scaling story behind Fig. 7's 2…256-thread sweep:
//! 256 threads is 22 nodes of the paper's 12-core Xeon X5670 machines.

use crate::config::{MctsConfig, SearchBudget};
use crate::cost::NetworkModel;
use crate::root_parallel::{run_ranks, RootParallelSearcher};
use crate::searcher::{SearchReport, Searcher};
use pmcts_games::Game;
use pmcts_gpu_sim::WorkerPool;
use std::sync::Arc;

/// Root parallelism across `ranks` simulated cluster nodes with
/// `threads_per_rank` CPU threads each.
#[derive(Clone, Debug)]
pub struct MultiNodeCpuSearcher<G: Game> {
    config: MctsConfig,
    ranks: usize,
    threads_per_rank: usize,
    network: NetworkModel,
    /// Persistent host workers that run the ranks and every rank's trees,
    /// so a search creates no thread. Rank results are keyed by rank id and
    /// tree results by tree index, so the pool never affects results.
    pool: Arc<WorkerPool>,
    generation: u64,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> MultiNodeCpuSearcher<G> {
    /// Creates a multi-node CPU searcher.
    pub fn new(
        config: MctsConfig,
        ranks: usize,
        threads_per_rank: usize,
        network: NetworkModel,
    ) -> Self {
        assert!(ranks > 0, "need at least one rank");
        assert!(threads_per_rank > 0, "need at least one thread per rank");
        MultiNodeCpuSearcher {
            config,
            ranks,
            threads_per_rank,
            network,
            pool: Arc::new(WorkerPool::with_available_parallelism()),
            generation: 0,
            _game: std::marker::PhantomData,
        }
    }

    /// Shares an existing worker pool for the ranks and their trees instead
    /// of owning one. Virtual timing and results are unaffected.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = pool;
        self
    }

    /// Total simulated CPU threads across the cluster.
    pub fn total_threads(&self) -> usize {
        self.ranks * self.threads_per_rank
    }
}

impl<G: Game> Searcher<G> for MultiNodeCpuSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        self.generation += 1;
        // Each rank's tree fan-out nests in the rank fan-out on the same
        // pool; that cannot deadlock, because the caller of a fan-out does
        // every job no worker has started.
        run_ranks(
            &self.config,
            &self.pool,
            self.ranks,
            self.network,
            self.generation,
            budget,
            |stream| {
                RootParallelSearcher::<G>::with_stream_on(
                    self.config.clone(),
                    self.threads_per_rank,
                    stream << 20,
                    Arc::clone(&self.pool),
                )
                .search(root, budget)
            },
        )
    }

    fn name(&self) -> String {
        format!(
            "multi-node root parallelism ({} ranks × {} CPU threads)",
            self.ranks, self.threads_per_rank
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

    fn searcher(seed: u64, ranks: usize, tpr: usize) -> MultiNodeCpuSearcher<Reversi> {
        MultiNodeCpuSearcher::new(cfg(seed), ranks, tpr, NetworkModel::infiniband())
    }

    #[test]
    fn simulations_scale_with_cluster_size() {
        let budget = SearchBudget::Iterations(20);
        let single = searcher(1, 1, 4).search(Reversi::initial(), budget);
        let cluster = searcher(1, 4, 4).search(Reversi::initial(), budget);
        assert_eq!(single.simulations, 4 * 20);
        assert_eq!(cluster.simulations, 16 * 20);
        assert_eq!(
            cluster.root_stats.iter().map(|s| s.visits).sum::<u64>(),
            320
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let budget = SearchBudget::Iterations(15);
        let a = searcher(2, 3, 2).search(Reversi::initial(), budget);
        let b = searcher(2, 3, 2).search(Reversi::initial(), budget);
        assert_eq!(a.root_stats, b.root_stats);
        assert_eq!(a.best_move, b.best_move);
        assert_eq!(a.elapsed, b.elapsed);
    }

    #[test]
    fn ranks_use_disjoint_streams() {
        let budget = SearchBudget::Iterations(15);
        let one = searcher(3, 1, 2).search(Reversi::initial(), budget);
        let two = searcher(3, 2, 2).search(Reversi::initial(), budget);
        let doubled: Vec<u64> = one.root_stats.iter().map(|s| s.visits * 2).collect();
        let merged: Vec<u64> = two.root_stats.iter().map(|s| s.visits).collect();
        assert_ne!(doubled, merged);
    }

    #[test]
    fn total_threads_reported() {
        assert_eq!(searcher(5, 8, 12).total_threads(), 96);
        assert!(searcher(5, 8, 12).name().contains("8 ranks × 12"));
    }
}
