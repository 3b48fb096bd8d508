//! Root parallelism on CPU threads — paper Fig. 2b, refs \[3\]\[4\] — and
//! the one ensemble merge every concurrent-tree scheme shares.
//!
//! `n` threads build `n` completely independent trees over the same root
//! (no communication until the end), then root statistics are merged by
//! summation and the most-visited move wins. This is the scheme the authors
//! scaled to thousands of CPU cores in ref \[4\] and the baseline the GPU
//! player is compared against in Fig. 7 ("one GPU can be compared to
//! 100–200 CPU threads").
//!
//! Budget semantics are wall-clock-like: every thread receives the full
//! virtual budget, because the real threads run concurrently.
//!
//! The trees fan out over the worker pool in groups of [`LANE_WIDTH`],
//! and each group steps its live trees in lockstep
//! (`SequentialSearcher::search_lockstep`): every tree whose own budget
//! still runs selects and expands, their playouts play as one
//! [`play_lanes`](pmcts_games::play_lanes) call — as the playout kernel's
//! warps and the device-resident blocks do — and each tree backprops and
//! charges its own budget. Each stream keeps its draw order (expansion
//! pick, then playout), so every tree's report equals its solo sequential
//! search; `MultiNodeCpuSearcher` ranks, being root-parallel searches,
//! step the same way.
//!
//! The paper combines parallel trees by one rule — "the root node has to be
//! updated by summing up results from all other trees" (§II.4) — on CPU
//! threads here and across MPI ranks in Fig. 9. The rule is written once,
//! in this module: `merge_reports` folds concurrent component reports into
//! one, and `run_ranks` is the MPI rank driver behind
//! [`MultiGpuSearcher`](crate::multi_gpu::MultiGpuSearcher) and
//! [`MultiNodeCpuSearcher`](crate::multi_node_cpu::MultiNodeCpuSearcher).
//! Trees and ranks alike fan out over one [`WorkerPool`].

use crate::config::{MctsConfig, SearchBudget};
use crate::cost::NetworkModel;
use crate::searcher::{empty_report, overshoot_of, SearchReport, Searcher};
use crate::sequential::SequentialSearcher;
use crate::telemetry::{critical_index, PhaseBreakdown};
use crate::tree::{best_from_stats, merge_root_stats, RootStat};
use pmcts_games::{Game, LANE_WIDTH};
use pmcts_gpu_sim::WorkerPool;
use pmcts_util::{FaultCounters, SimTime};
use std::sync::Arc;

/// Root-parallel CPU searcher: `n` independent trees, one per simulated
/// CPU thread.
///
/// The number of *simulated* CPU threads (= trees) is decoupled from the
/// number of real host worker threads: a 256-"CPU" player works fine on a
/// 8-core machine because every tree's time is virtual. Results are
/// bit-identical regardless of the host worker count.
#[derive(Clone, Debug)]
pub struct RootParallelSearcher<G: Game> {
    config: MctsConfig,
    threads: usize,
    /// Persistent host workers the trees are distributed over — owned by
    /// default, or shared (e.g. with a simulated device) via
    /// [`with_pool`](Self::with_pool).
    pool: Arc<WorkerPool>,
    /// Base stream offset so distinct searchers draw disjoint randomness.
    stream_base: u64,
    /// Bumped every search so consecutive moves explore differently.
    generation: u64,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> RootParallelSearcher<G> {
    /// Creates a root-parallel searcher over `threads` simulated CPU
    /// threads (= trees).
    pub fn new(config: MctsConfig, threads: usize) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(threads.max(1));
        Self::with_stream_on(config, threads, 0, Arc::new(WorkerPool::new(workers)))
    }

    /// Like [`new`](Self::new) with an explicit RNG stream base, running
    /// the trees on an existing shared pool instead of spawning an owned
    /// one — no thread creation at construction time. Virtual timing and
    /// results are unaffected by the pool choice.
    pub fn with_stream_on(
        config: MctsConfig,
        threads: usize,
        stream_base: u64,
        pool: Arc<WorkerPool>,
    ) -> Self {
        assert!(threads > 0, "need at least one thread");
        RootParallelSearcher {
            config,
            threads,
            pool,
            stream_base,
            generation: 0,
            _game: std::marker::PhantomData,
        }
    }

    /// Shares an existing worker pool (e.g. a simulated device's) instead
    /// of owning one. Virtual timing and results are unaffected.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = pool;
        self
    }

    /// Number of simulated CPU threads / trees.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl<G: Game> Searcher<G> for RootParallelSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        self.generation += 1;
        let config = &self.config;
        let gen = self.generation;
        let base = self.stream_base;

        // Each tree is an independent sequential search with its own RNG
        // stream, merged at the end (no communication — exactly the paper's
        // scheme). Groups of `LANE_WIDTH` consecutive trees fan out over the
        // persistent worker pool, and each group steps its live trees in
        // lockstep so their playouts run as lane batches; every tree's
        // report still equals its solo search. Results are keyed by tree
        // index, so merge order — and hence the report — is identical for
        // any pool size.
        // Dead-tree faults are keyed per (stream base, generation), so each
        // search draws a fresh schedule; tree 0 is never dead, so a merge
        // survivor always exists. Dead trees never join their group.
        let plan = config.faults;
        let fault_key = base ^ gen.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let dead = |i: usize| plan.component_dead(fault_key, i as u64);
        let mut groups: Vec<std::ops::Range<usize>> = (0..self.threads)
            .step_by(LANE_WIDTH)
            .map(|first| first..(first + LANE_WIDTH).min(self.threads))
            .collect();
        let grouped = self.pool.map_indexed(&mut groups, |_, trees| {
            let mut searchers: Vec<SequentialSearcher<G>> = trees
                .clone()
                .filter(|&i| !dead(i))
                .map(|i| {
                    let stream = base
                        .wrapping_add(i as u64)
                        .wrapping_add(gen.wrapping_mul(0x1000 * 31));
                    SequentialSearcher::with_stream(config.clone(), stream)
                })
                .collect();
            let mut live =
                SequentialSearcher::search_lockstep(&mut searchers, root, budget).into_iter();
            trees
                .clone()
                .map(|i| {
                    if dead(i) {
                        empty_report()
                    } else {
                        live.next().expect("one report per live tree")
                    }
                })
                .collect::<Vec<_>>()
        });
        let reports: Vec<SearchReport<G::Move>> = grouped.into_iter().flatten().collect();

        let merged = merge_root_stats(
            &reports
                .iter()
                .map(|r| r.root_stats.clone())
                .collect::<Vec<_>>(),
        );
        // Count dead trees by re-querying the pure plan (no search state).
        let dead = (0..self.threads).filter(|&i| dead(i)).count() as u64;
        let faults = FaultCounters {
            injected: dead,
            excluded: dead,
            ..FaultCounters::default()
        };
        merge_reports(&reports, merged, SimTime::ZERO, faults, budget)
    }

    fn name(&self) -> String {
        format!("root parallelism ({} CPU threads)", self.threads)
    }
}

/// Folds the reports of `components` that searched one root concurrently
/// into a single report around their `merged` root statistics.
///
/// Components run side by side, so elapsed is the critical component's
/// (slowest, first on ties) plus `merge_cost`, and the phase times are that
/// component's with `merge_cost` added to `merge` — they still sum to
/// elapsed exactly. Work counters are summed over all components, plus the
/// merge's own `faults`; `max_depth` is the deepest component's.
pub(crate) fn merge_reports<M: Copy>(
    components: &[SearchReport<M>],
    merged: Vec<RootStat<M>>,
    merge_cost: SimTime,
    faults: FaultCounters,
    budget: SearchBudget,
) -> SearchReport<M> {
    let mut phases = PhaseBreakdown::new();
    for r in components {
        phases.absorb_counters(&r.phases);
    }
    phases.faults.absorb(&faults);
    let crit = critical_index(components.iter().map(|r| r.elapsed));
    if let Some(i) = crit {
        phases.adopt_times(&components[i].phases);
    }
    phases.merge += merge_cost;
    let elapsed = crit.map_or(SimTime::ZERO, |i| components[i].elapsed) + merge_cost;
    phases.budget_overshoot = overshoot_of(budget, elapsed);
    SearchReport {
        best_move: best_from_stats(&merged),
        simulations: components.iter().map(|r| r.simulations).sum(),
        iterations: components.iter().map(|r| r.iterations).sum(),
        tree_nodes: components.iter().map(|r| r.tree_nodes).sum(),
        max_depth: components.iter().map(|r| r.max_depth).max().unwrap_or(0),
        elapsed,
        root_stats: merged,
        phases,
    }
}

/// Runs `ranks` simulated MPI ranks on `pool`, rank `r` searching with
/// `search(stream)` on stream `gen · ranks + r`, allreduces their root
/// statistics over `network` and merges the rank reports with
/// [`merge_reports`], the allreduce as merge cost.
///
/// The allreduce's result is the fold of the surviving contributions in
/// rank order, whichever worker ran which rank. Faults are keyed by the
/// search generation `gen`. A dead rank produces nothing; a live rank may
/// have its contribution dropped by the network (it searched, but its
/// statistics miss the merge). Each counts as one injected and one excluded
/// fault, and any such failure prices the allreduce at the detection
/// timeout; otherwise the network schedule may delay-spike it. Rank 0 is
/// never dead and never dropped, so a merge always exists.
pub(crate) fn run_ranks<M: Copy + Eq + Send>(
    config: &MctsConfig,
    pool: &WorkerPool,
    ranks: usize,
    network: NetworkModel,
    gen: u64,
    budget: SearchBudget,
    search: impl Fn(u64) -> SearchReport<M> + Sync,
) -> SearchReport<M> {
    let plan = config.faults;
    let mut slots: Vec<()> = vec![(); ranks];
    let reports = pool.map_indexed(&mut slots, |rank, ()| {
        if plan.component_dead(gen, rank as u64) {
            return empty_report();
        }
        search(gen * ranks as u64 + rank as u64)
    });
    let lost = |rank: u64| plan.component_dead(gen, rank) || plan.drops_contribution(gen, rank);
    let contributions: Vec<Vec<RootStat<M>>> = (0..ranks as u64)
        .zip(&reports)
        .filter(|&(rank, _)| !lost(rank))
        .map(|(_, r)| r.root_stats.clone())
        .collect();
    let merged = merge_root_stats(&contributions);

    let excluded = (0..ranks as u64).filter(|&rank| lost(rank)).count() as u64;
    let mut faults = FaultCounters {
        injected: excluded,
        excluded,
        ..FaultCounters::default()
    };
    let stats_bytes = (merged.len() * std::mem::size_of::<RootStat<M>>()) as u64;
    let base = network.allreduce_time(stats_bytes, ranks);
    let merge_cost = if excluded > 0 {
        plan.net_timeout(base)
    } else if let Some(factor) = plan.net_delay_spike(gen, 0) {
        faults.injected += 1;
        base * factor as u64
    } else {
        base
    };
    merge_reports(&reports, merged, merge_cost, faults, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_gpu::MultiGpuSearcher;
    use crate::multi_node_cpu::MultiNodeCpuSearcher;
    use pmcts_games::{Reversi, TicTacToe};
    use pmcts_gpu_sim::{DeviceSpec, LaunchConfig};

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    fn pool(workers: usize) -> Arc<WorkerPool> {
        Arc::new(WorkerPool::new(workers))
    }

    #[test]
    fn merges_simulations_across_threads() {
        let mut s = RootParallelSearcher::<Reversi>::new(cfg(1), 4);
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(100));
        assert_eq!(r.simulations, 400, "each thread runs the full budget");
        let total: u64 = r.root_stats.iter().map(|st| st.visits).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn elapsed_is_max_not_sum() {
        let mut s = RootParallelSearcher::<Reversi>::new(cfg(2), 8);
        let budget = pmcts_util::SimTime::from_millis(5);
        let r = s.search(Reversi::initial(), SearchBudget::VirtualTime(budget));
        // Concurrent threads: elapsed is one thread's time, near the budget,
        // not 8x the budget.
        assert!(r.elapsed >= budget / 2);
        assert!(r.elapsed < budget * 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            RootParallelSearcher::<Reversi>::new(cfg(seed), 3)
                .search(Reversi::initial(), SearchBudget::Iterations(50))
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.root_stats, b.root_stats);
        assert_eq!(a.best_move, b.best_move);
    }

    #[test]
    fn threads_explore_distinct_streams() {
        // With 2 threads the merged stats differ from a single tree doubled.
        let single = RootParallelSearcher::<Reversi>::new(cfg(6), 1)
            .search(Reversi::initial(), SearchBudget::Iterations(50));
        let double = RootParallelSearcher::<Reversi>::new(cfg(6), 2)
            .search(Reversi::initial(), SearchBudget::Iterations(50));
        let single_doubled: Vec<u64> = single.root_stats.iter().map(|s| s.visits * 2).collect();
        let merged: Vec<u64> = double.root_stats.iter().map(|s| s.visits).collect();
        assert_ne!(single_doubled, merged);
    }

    #[test]
    fn finds_tactical_move() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher = RootParallelSearcher::<TicTacToe>::new(cfg(7), 4);
        let r = searcher.search(s, SearchBudget::Iterations(500));
        assert_eq!(r.best_move, Some(2));
    }

    #[test]
    fn consecutive_searches_use_fresh_randomness() {
        let mut s = RootParallelSearcher::<Reversi>::new(cfg(8), 2);
        let a = s.search(Reversi::initial(), SearchBudget::Iterations(30));
        let b = s.search(Reversi::initial(), SearchBudget::Iterations(30));
        assert_ne!(
            a.root_stats, b.root_stats,
            "generation counter must vary streams between moves"
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        RootParallelSearcher::<Reversi>::new(cfg(9), 0);
    }

    #[test]
    fn results_independent_of_host_worker_count() {
        let run = |workers| {
            RootParallelSearcher::<Reversi>::new(cfg(10), 16)
                .with_pool(pool(workers))
                .search(Reversi::initial(), SearchBudget::Iterations(40))
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial.root_stats, parallel.root_stats);
        assert_eq!(serial.elapsed, parallel.elapsed);
        assert_eq!(serial.best_move, parallel.best_move);
    }

    #[test]
    fn many_simulated_threads_on_few_workers() {
        // 128 simulated CPU threads must work on a small host.
        let mut s = RootParallelSearcher::<Reversi>::new(cfg(11), 128).with_pool(pool(4));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(10));
        assert_eq!(r.simulations, 128 * 10);
    }

    #[test]
    fn allreduce_is_the_only_network_cost() {
        // Both rank searchers over an ideal and an InfiniBand network: the
        // ranks search identically, and the allreduce is the only
        // difference, charged once to `merge` and once to elapsed.
        let budget = SearchBudget::Iterations(4);
        let run = |net: NetworkModel| {
            [
                MultiGpuSearcher::<Reversi>::new(
                    cfg(12),
                    4,
                    DeviceSpec::tesla_c2050(),
                    LaunchConfig::new(2, 32),
                    net,
                )
                .with_pool(pool(2))
                .search(Reversi::initial(), budget),
                MultiNodeCpuSearcher::<Reversi>::new(cfg(12), 4, 2, net)
                    .with_pool(pool(2))
                    .search(Reversi::initial(), budget),
            ]
        };
        let ideal = run(NetworkModel::ideal());
        let infiniband = run(NetworkModel::infiniband());
        for (ideal, real) in ideal.iter().zip(&infiniband) {
            assert_eq!(ideal.phases.merge, SimTime::ZERO);
            assert!(real.phases.merge > SimTime::ZERO);
            assert_eq!(real.elapsed, ideal.elapsed + real.phases.merge);
            assert_eq!(real.root_stats, ideal.root_stats);
            assert_eq!(real.phases.phase_sum(), real.elapsed);
        }
    }
}
