//! Tree parallelism with virtual loss (Chaslot et al., the paper's ref \[3\]).
//!
//! All workers share **one** tree behind a lock; a worker descending the
//! tree applies a *virtual loss* (an extra visit with zero reward) to each
//! node on its path so that concurrent workers are repelled from the same
//! line; after the playout the reward is added back. The paper includes
//! this scheme in its taxonomy precisely because it does *not* map onto
//! GPUs — it needs fine-grained synchronisation that SIMD thread groups
//! cannot afford — so it serves here as the CPU-side contrast and
//! completes the §III scheme inventory.
//!
//! Unlike the other searchers this one is *not* deterministic: interleaving
//! of workers depends on the OS scheduler. Tests therefore assert
//! statistical properties only.

use crate::config::{MctsConfig, SearchBudget};
use crate::searcher::{SearchReport, Searcher};
use crate::telemetry::{critical_index, PhaseBreakdown};
use crate::tree::SearchTree;
use crate::ucb::ucb1;
use pmcts_games::{random_playout, Game, Player};
use pmcts_util::{Rng64, SimTime, Xoshiro256pp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shared-tree CPU searcher with virtual loss.
#[derive(Clone, Debug)]
pub struct TreeParallelSearcher<G: Game> {
    config: MctsConfig,
    threads: usize,
    /// Virtual-loss weight: how many pretend losses a descending worker
    /// deposits on its path (1 is standard).
    virtual_loss: u64,
    generation: u64,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> TreeParallelSearcher<G> {
    /// Creates a tree-parallel searcher over `threads` workers.
    pub fn new(config: MctsConfig, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        TreeParallelSearcher {
            config,
            threads,
            virtual_loss: 1,
            generation: 0,
            _game: std::marker::PhantomData,
        }
    }

    /// Overrides the virtual-loss weight.
    pub fn with_virtual_loss(mut self, vl: u64) -> Self {
        self.virtual_loss = vl;
        self
    }

    /// Selection + expansion + virtual-loss application under the lock;
    /// returns the node to simulate, its path to the root, and whether a
    /// new node was expanded.
    fn select_and_mark<R: Rng64>(
        tree: &mut SearchTree<G>,
        c: f64,
        vl: u64,
        rng: &mut R,
    ) -> (u32, Vec<u32>, bool) {
        // Selection (same rule as SearchTree::select, inlined because we
        // collect the path for the virtual loss).
        let mut id = tree.root();
        let mut path = vec![id];
        loop {
            let children = tree.children(id);
            if !tree.fully_expanded(id) || children.is_empty() {
                break;
            }
            let parent_visits = tree.visits(id);
            let mut best = children[0];
            let mut best_value = f64::NEG_INFINITY;
            for &child in children {
                let value = ucb1(parent_visits, tree.visits(child), tree.wins(child), c);
                if value > best_value {
                    best_value = value;
                    best = child;
                }
            }
            id = best;
            path.push(id);
        }
        let mut expanded = false;
        if !tree.fully_expanded(id) {
            id = tree.expand(id, rng);
            path.push(id);
            expanded = true;
        }
        // Virtual loss: pretend `vl` lost simulations along the path.
        for &n in &path {
            tree.add_visits(n, vl);
        }
        (id, path, expanded)
    }

    /// Removes the virtual loss and applies the real result.
    fn unmark_and_backprop(tree: &mut SearchTree<G>, path: &[u32], vl: u64, wins_p1: f64) {
        for &n in path {
            tree.sub_visits(n, vl);
        }
        let leaf = *path.last().expect("non-empty path");
        tree.backprop(leaf, wins_p1, 1);
    }
}

impl<G: Game> Searcher<G> for TreeParallelSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        self.generation += 1;
        let tree = Mutex::new(SearchTree::new(root));
        let iterations = AtomicU64::new(0);
        let config = &self.config;
        let vl = self.virtual_loss;
        let gen = self.generation;

        let terminal = tree.lock().expect("tree lock poisoned").is_terminal(0);
        let mut worker_results: Vec<(SimTime, PhaseBreakdown)> = Vec::new();
        if !terminal {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.threads)
                    .map(|w| {
                        let tree = &tree;
                        let iterations = &iterations;
                        scope.spawn(move || {
                            let mut rng = Xoshiro256pp::derive(
                                config.seed,
                                0x7EEE ^ (w as u64) ^ (gen << 32),
                            );
                            let cpu = config.cpu_cost;
                            let mut elapsed = SimTime::ZERO;
                            let mut mine = PhaseBreakdown::new();
                            loop {
                                match budget {
                                    SearchBudget::Iterations(n) => {
                                        // Claim an iteration slot; the total
                                        // across workers is exactly n.
                                        if iterations.fetch_add(1, Ordering::Relaxed) >= n {
                                            iterations.fetch_sub(1, Ordering::Relaxed);
                                            break;
                                        }
                                    }
                                    SearchBudget::VirtualTime(t) => {
                                        if elapsed >= t {
                                            break;
                                        }
                                        iterations.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                let (node, path, expanded) = {
                                    let mut t = tree.lock().expect("tree lock poisoned");
                                    Self::select_and_mark(
                                        &mut t,
                                        config.exploration_c,
                                        vl,
                                        &mut rng,
                                    )
                                };
                                let (state, depth) = {
                                    let t = tree.lock().expect("tree lock poisoned");
                                    (*t.state(node), t.depth(node))
                                };
                                let result = random_playout(state, &mut rng);
                                let wins_p1 = result.reward_for(Player::P1);
                                {
                                    let mut t = tree.lock().expect("tree lock poisoned");
                                    Self::unmark_and_backprop(&mut t, &path, vl, wins_p1);
                                }
                                elapsed += cpu.tree_op(depth) + cpu.playout(result.plies);
                                mine.select += cpu.select_cost(depth);
                                mine.expand += cpu.expand_cost();
                                mine.kernel += cpu.playout(result.plies);
                                mine.simulations += 1;
                                mine.expansions += u64::from(expanded);
                            }
                            (elapsed, mine)
                        })
                    })
                    .collect();
                for h in handles {
                    worker_results.push(h.join().expect("tree-parallel worker panicked"));
                }
            });
        }

        // Workers run concurrently: elapsed = the slowest worker, phase
        // times = that worker's (still summing to elapsed); counters are
        // summed over all workers. Like everything else in this searcher
        // the breakdown depends on scheduler interleaving.
        let mut phases = PhaseBreakdown::new();
        for (_, w) in &worker_results {
            phases.absorb_counters(w);
        }
        let crit = critical_index(worker_results.iter().map(|(e, _)| *e));
        if let Some(i) = crit {
            phases.adopt_times(&worker_results[i].1);
        }

        let tree = tree.into_inner().expect("tree lock poisoned");
        let iterations = iterations.load(Ordering::Relaxed);
        let elapsed = crit.map(|i| worker_results[i].0).unwrap_or(SimTime::ZERO);
        phases.budget_overshoot = crate::searcher::overshoot_of(budget, elapsed);
        SearchReport {
            best_move: tree.best_move(config.final_move),
            simulations: iterations,
            iterations,
            tree_nodes: tree.len() as u64,
            max_depth: tree.max_depth(),
            elapsed,
            root_stats: tree.root_stats(),
            phases,
        }
    }

    fn name(&self) -> String {
        format!(
            "tree parallelism ({} CPU threads, virtual loss)",
            self.threads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_games::{Reversi, TicTacToe};

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    #[test]
    fn iteration_budget_is_exact() {
        let mut s = TreeParallelSearcher::<Reversi>::new(cfg(1), 4);
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(200));
        assert_eq!(r.iterations, 200);
        let total: u64 = r.root_stats.iter().map(|st| st.visits).sum();
        assert_eq!(total, 200, "virtual losses must all be removed");
    }

    #[test]
    fn no_virtual_loss_residue() {
        let mut s = TreeParallelSearcher::<Reversi>::new(cfg(2), 8).with_virtual_loss(3);
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(300));
        // Every node's visits are real simulation counts afterwards; root
        // children sum to the number of simulations.
        let total: u64 = r.root_stats.iter().map(|st| st.visits).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn single_thread_matches_sequential_semantics() {
        let mut s = TreeParallelSearcher::<Reversi>::new(cfg(3), 1);
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(100));
        assert_eq!(r.simulations, 100);
        assert!(r.best_move.is_some());
        assert!(r.tree_nodes <= 101);
    }

    #[test]
    fn finds_tactical_move() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher = TreeParallelSearcher::<TicTacToe>::new(cfg(4), 4);
        let r = searcher.search(s, SearchBudget::Iterations(2_000));
        assert_eq!(r.best_move, Some(2));
    }

    #[test]
    fn terminal_root() {
        let s = TicTacToe::parse("XXX OO. ...", pmcts_games::Player::P2).unwrap();
        let mut searcher = TreeParallelSearcher::<TicTacToe>::new(cfg(5), 4);
        let r = searcher.search(s, SearchBudget::Iterations(10));
        assert_eq!(r.best_move, None);
        assert_eq!(r.simulations, 0);
    }

    #[test]
    fn virtual_time_budget_terminates() {
        let mut s = TreeParallelSearcher::<Reversi>::new(cfg(6), 4);
        let r = s.search(
            Reversi::initial(),
            SearchBudget::VirtualTime(SimTime::from_millis(5)),
        );
        assert!(r.iterations > 0);
        assert!(r.elapsed >= SimTime::from_millis(5));
    }
}
