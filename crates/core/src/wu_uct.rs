//! WU-UCT: block-parallel search with the "Watch the Unobserved"
//! correction (Liu et al., PAPERS.md) — the fix for parallel-search
//! exploration loss.
//!
//! Plain block parallelism grows `B` *independent* trees precisely because
//! a shared tree selected with uncorrected UCB would send every batch of a
//! wave down the same maximal path: selection acts as if the playouts
//! already dispatched do not exist. WU-UCT repairs that by tracking
//! **unobserved in-flight counts** `O` on the tree: each dispatched batch
//! registers its size on every node of its selection path, and selection
//! scores children with [`ucb1_corrected_with_ln`] — `N + O` in both the
//! exploitation denominator and the `ln(T + O)` term — so an in-flight
//! batch discounts its own path exactly as if its samples had landed with
//! unknown outcome.
//!
//! The implemented correction is Chaslot et al.'s virtual loss (the paper's
//! ref \[3\]) with weight = in-flight playouts and zero reward, term for
//! term what lock-based tree parallelism deposits on its path. This
//! searcher is therefore also the crate's tree parallelism, made
//! deterministic: wave composition is fixed in block order instead of by
//! lock interleaving. Liu et al. keep the exploitation term at the
//! observed mean instead; see [`ucb1_corrected_with_ln`].
//!
//! This searcher therefore runs **one shared tree**: per wave it performs
//! `B` corrected selections *sequentially in block order* (block `b` sees
//! the `O` registered by blocks `0..b` of the same wave — in-flight
//! membership is a pure function of the launch schedule, never of thread
//! timing), expands each frontier, launches one kernel with block `b`
//! simulating frontier `b`, and on readback rolls every block's `O` back
//! exactly before backpropagating its outcomes. The shared tree receives
//! `B` diversified updates per wave instead of one per private tree, which
//! buys back the exploration that width otherwise destroys (charted by the
//! `frontier` bench).
//!
//! At `B = 1` no selection ever observes a nonzero `O` (a wave's counts
//! are registered after its own selection and rolled back before the
//! next), the corrected arithmetic collapses bit-for-bit to plain UCB, and
//! the whole report is bit-identical to [`BlockParallelSearcher`]'s — the
//! zero-width oracle the tests pin.
//!
//! The round is `WuUctEngine`, run by the shared launch path of
//! the `wave` module and its fault ladder. In every landing — clean, voided
//! or degraded — each block's in-flight registration is rolled back
//! exactly once, so all `O` counters are zero after every wave (the
//! residue invariant).
//!
//! [`BlockParallelSearcher`]: crate::block_parallel::BlockParallelSearcher
//! [`ucb1_corrected_with_ln`]: crate::ucb::ucb1_corrected_with_ln

use crate::block_parallel::{cpu_playouts, report_from_trees};
use crate::config::{MctsConfig, SearchBudget};
use crate::gpu::{aggregate, LaneOutcome};
use crate::searcher::{SearchReport, Searcher};
use crate::telemetry::PhaseBreakdown;
use crate::tree::SearchTree;
use crate::wave::{Frontier, Ledger, PlayoutRequest, RoundEngine, Solo, LANE_SEED_STEP};
use pmcts_games::Game;
use pmcts_gpu_sim::{Device, LaunchConfig};
use pmcts_util::{Rng64, SimTime, Xoshiro256pp};

/// WU-UCT searcher: one shared tree, `B` in-flight batches per wave,
/// selection corrected by unobserved counts.
#[derive(Clone, Debug)]
pub struct WuUctSearcher<G: Game> {
    solo: Solo,
    _game: std::marker::PhantomData<fn() -> G>,
}

impl<G: Game> WuUctSearcher<G> {
    /// Creates a WU-UCT searcher with `launch.blocks` in-flight batches of
    /// `launch.threads_per_block` playouts per wave, all on one tree.
    pub fn new(config: MctsConfig, device: Device, launch: LaunchConfig) -> Self {
        Self::with_stream(config, device, launch, 0)
    }

    /// Like [`new`](Self::new) but on RNG sub-stream `stream`. The
    /// derivation matches [`BlockParallelSearcher`] exactly so the width-1
    /// oracle equivalence holds bit-for-bit.
    ///
    /// [`BlockParallelSearcher`]: crate::block_parallel::BlockParallelSearcher
    pub fn with_stream(
        config: MctsConfig,
        device: Device,
        launch: LaunchConfig,
        stream: u64,
    ) -> Self {
        WuUctSearcher {
            solo: Solo::new(config, device, launch, stream, 0xB10C, LANE_SEED_STEP),
            _game: std::marker::PhantomData,
        }
    }

    fn engine(&self, root: G, budget: SearchBudget) -> WuUctEngine<G> {
        let s = &self.solo;
        WuUctEngine::new(
            root,
            s.config.clone(),
            s.launch,
            s.rng.clone(),
            s.ledger(budget),
        )
    }
}

impl<G: Game> Searcher<G> for WuUctSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        let mut engine = self.engine(root, budget);
        let report = self.solo.run(&mut engine);
        self.solo.rng = engine.rng;
        report
    }

    fn name(&self) -> String {
        format!(
            "WU-UCT ({} batches × {} threads, shared tree)",
            self.solo.launch.blocks, self.solo.launch.threads_per_block
        )
    }
}

/// The WU-UCT round: `B` corrected selections on one shared tree. Between
/// `begin_round` and the landing the wave's `O` registrations are live on
/// the tree; every landing rolls them back exactly.
pub(crate) struct WuUctEngine<G: Game> {
    config: MctsConfig,
    tree: SearchTree<G>,
    rng: Xoshiro256pp,
    blocks: usize,
    threads_per_block: u32,
    ledger: Ledger,
    pending: Option<Frontier<G>>,
}

impl<G: Game> WuUctEngine<G> {
    /// `launch.blocks` batches a wave on one tree searching `root`.
    pub(crate) fn new(
        root: G,
        config: MctsConfig,
        launch: LaunchConfig,
        rng: Xoshiro256pp,
        ledger: Ledger,
    ) -> Self {
        WuUctEngine {
            tree: SearchTree::for_config(root, &config),
            config,
            rng,
            blocks: launch.blocks as usize,
            threads_per_block: launch.threads_per_block,
            ledger,
            pending: None,
        }
    }
}

impl<G: Game> RoundEngine<G> for WuUctEngine<G> {
    fn ledger(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn begin_round(&mut self) -> Option<PlayoutRequest<G>> {
        if self.tree.is_terminal(self.tree.root()) {
            return None;
        }
        let frontier = select_wave(
            &mut self.tree,
            self.blocks,
            self.threads_per_block,
            &mut self.rng,
            self.config.exploration_c,
            &mut self.ledger.phases,
        );
        let request = PlayoutRequest::new(&frontier, &self.config.cpu_cost);
        self.pending = Some(frontier);
        Some(request)
    }

    fn complete_round(&mut self, lanes: &[LaneOutcome], voided: Option<usize>) {
        let frontier = self.pending.take().expect("no round in flight");
        backprop_wave(
            &mut self.tree,
            &frontier,
            lanes,
            self.threads_per_block as usize,
            voided,
            &mut self.ledger.phases,
        );
    }

    fn inflight(&self) -> u64 {
        self.tree.inflight_total()
    }

    /// The dispatched batches are lost, so their unobserved counts roll
    /// back first; each block then lands one CPU playout.
    fn degrade(&mut self) -> SimTime {
        let frontier = self.pending.take().expect("no round in flight");
        for &(node, _, _) in &frontier {
            self.tree.sub_inflight_path(node, self.threads_per_block);
        }
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
            std::slice::from_ref(&self.tree),
            &self.ledger.tracker,
            self.ledger.phases.clone(),
        )
    }
}

/// The host half of one WU-UCT wave: `B` corrected selections in block
/// order on the shared tree, each expansion followed by registering the
/// batch's `tpb` unobserved playouts on its path — so block `b`'s
/// selection is discounted by the `O` of blocks `0..b`. Returns each
/// batch's frontier `(node, state, depth)`, billed like block
/// parallelism's host phase.
///
/// The loop is deliberately sequential: each selection *depends* on the
/// previous registrations, which is what makes in-flight membership a pure
/// function of the schedule (and host-thread independence trivial).
fn select_wave<G: Game>(
    tree: &mut SearchTree<G>,
    blocks: usize,
    tpb: u32,
    rng: &mut Xoshiro256pp,
    exploration_c: f64,
    phases: &mut PhaseBreakdown,
) -> Frontier<G> {
    let mut frontier: Frontier<G> = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        let sel = tree.select_corrected(exploration_c);
        let node = if tree.untried_len(sel) != 0 {
            phases.expansions += 1;
            let pick = rng.next_below(tree.untried_len(sel) as u32);
            tree.expand_with_pick(sel, pick)
        } else {
            sel
        };
        tree.add_inflight_path(node, tpb);
        frontier.push((node, *tree.state(node), tree.depth(node)));
    }
    frontier
}

/// The readback half of one WU-UCT wave: every block's in-flight
/// registration is rolled back exactly once (voided blocks included — a
/// voided launch still retires its unobserved counts), then each
/// non-voided block's `tpb` lanes aggregate and backpropagate into the
/// shared tree.
fn backprop_wave<G: Game>(
    tree: &mut SearchTree<G>,
    frontier: &[(u32, G, u32)],
    outputs: &[LaneOutcome],
    tpb: usize,
    voided: Option<usize>,
    phases: &mut PhaseBreakdown,
) {
    for (b, &(node, _, _)) in frontier.iter().enumerate() {
        tree.sub_inflight_path(node, tpb as u32);
        if Some(b) == voided {
            continue;
        }
        let (wins_p1, n) = aggregate(&outputs[b * tpb..(b + 1) * tpb]);
        tree.backprop(node, wins_p1, n);
        phases.simulations += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_parallel::BlockParallelSearcher;
    use pmcts_games::{Reversi, TicTacToe};
    use pmcts_gpu_sim::DeviceSpec;
    use pmcts_util::FaultPlan;

    /// Runs a search and hands back the shared tree with the report.
    fn search_tree(
        s: &mut WuUctSearcher<Reversi>,
        budget: SearchBudget,
    ) -> (SearchTree<Reversi>, SearchReport<pmcts_games::ReversiMove>) {
        let mut engine = s.engine(Reversi::initial(), budget);
        let report = s.solo.run(&mut engine);
        (engine.tree, report)
    }

    fn device() -> Device {
        Device::new(DeviceSpec::tesla_c2050())
    }

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    #[test]
    fn zero_width_oracle_matches_block_parallel_bit_identically() {
        // At one block no selection ever sees a nonzero O, so the corrected
        // search must replay plain block parallelism — the full report,
        // virtual times included, compared field for field.
        for seed in [1u64, 9, 77] {
            let launch = LaunchConfig::new(1, 32);
            let wu = WuUctSearcher::<Reversi>::new(cfg(seed), device(), launch)
                .search(Reversi::initial(), SearchBudget::Iterations(20));
            let block = BlockParallelSearcher::<Reversi>::new(cfg(seed), device(), launch)
                .search(Reversi::initial(), SearchBudget::Iterations(20));
            assert_eq!(
                wu, block,
                "width-1 WU-UCT diverged from plain UCB (seed {seed})"
            );
        }
    }

    #[test]
    fn simulations_equal_grid_times_iterations() {
        let mut s = WuUctSearcher::<Reversi>::new(cfg(1), device(), LaunchConfig::new(4, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(5));
        assert_eq!(r.iterations, 5);
        assert_eq!(r.simulations, 5 * 4 * 32);
        // One shared tree: root + one expansion per block per wave.
        assert_eq!(r.tree_nodes, 1 + 20);
    }

    #[test]
    fn no_inflight_residue_and_visits_account_exactly() {
        // The virtual-loss residue check: after the search every O
        // counter is zero and the root mass equals the
        // simulations — in-flight corrections never leak into statistics.
        let mut s = WuUctSearcher::<Reversi>::new(cfg(2), device(), LaunchConfig::new(8, 32));
        let (tree, r) = search_tree(&mut s, SearchBudget::Iterations(50));
        let sims = r.simulations;
        assert_eq!(tree.inflight_total(), 0, "unobserved counts leaked");
        assert_eq!(tree.visits(tree.root()), sims);
        let root_mass: u64 = tree.root_stats().iter().map(|st| st.visits).sum();
        assert_eq!(root_mass, sims);
    }

    #[test]
    fn no_inflight_residue_under_faults() {
        // Every fault path — hang-retry, degraded CPU playouts, voided
        // blocks — must roll registrations back exactly once.
        let plans = [
            FaultPlan::gpu_hang(11, 1.0),
            FaultPlan::gpu_abort(12, 1.0),
            FaultPlan::gpu_slowdown(13, 1.0, 3),
        ];
        for plan in plans {
            let mut s = WuUctSearcher::<Reversi>::new(
                cfg(3).with_faults(plan),
                device(),
                LaunchConfig::new(4, 32),
            );
            let (tree, r) = search_tree(&mut s, SearchBudget::Iterations(8));
            assert!(r.phases.faults.injected > 0, "plan must actually fire");
            assert_eq!(tree.inflight_total(), 0, "fault path leaked O counts");
        }
    }

    #[test]
    fn waves_diversify_the_frontier() {
        // The point of the correction: within one wave the B batches spread
        // over distinct root children instead of piling onto one path. With
        // 4 opening moves and 8 blocks, the very first wave must already
        // touch all 4 (untried moves are consumed first and O discounts the
        // rest).
        let mut s = WuUctSearcher::<Reversi>::new(cfg(4), device(), LaunchConfig::new(8, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(1));
        let explored = r.root_stats.iter().filter(|st| st.visits > 0).count();
        assert_eq!(explored, 4, "first wave failed to diversify");
    }

    #[test]
    fn shared_tree_grows_deeper_than_independent_trees() {
        // Equal budget, equal width: B batches deepening one tree reach
        // further than B private trees each deepening alone.
        let launch = LaunchConfig::new(32, 32);
        let budget = SearchBudget::Iterations(30);
        let wu = WuUctSearcher::<Reversi>::new(cfg(5), device(), launch)
            .search(Reversi::initial(), budget);
        let block = BlockParallelSearcher::<Reversi>::new(cfg(5), device(), launch)
            .search(Reversi::initial(), budget);
        assert!(
            wu.max_depth > block.max_depth,
            "shared corrected tree depth {} should beat private trees' {}",
            wu.max_depth,
            block.max_depth
        );
    }

    #[test]
    fn bounded_capacity_is_respected_with_batches_in_flight() {
        let mut s = WuUctSearcher::<Reversi>::new(
            cfg(6).with_tree_capacity(64),
            device(),
            LaunchConfig::new(8, 32),
        );
        let (tree, _) = search_tree(&mut s, SearchBudget::Iterations(60));
        assert!(tree.live_nodes() <= 64, "arena exceeded its cap");
        assert!(tree.evictions() > 0, "test must actually churn the arena");
        assert_eq!(tree.inflight_total(), 0);
        tree.debug_validate();
    }

    #[test]
    fn finds_tactical_move() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher =
            WuUctSearcher::<TicTacToe>::new(cfg(7), device(), LaunchConfig::new(4, 32));
        let r = searcher.search(s, SearchBudget::Iterations(40));
        assert_eq!(r.best_move, Some(2));
    }

    #[test]
    fn terminal_root_is_handled() {
        let s = TicTacToe::parse("XXX OO. ...", pmcts_games::Player::P2).unwrap();
        let mut searcher =
            WuUctSearcher::<TicTacToe>::new(cfg(8), device(), LaunchConfig::new(2, 32));
        let r = searcher.search(s, SearchBudget::Iterations(5));
        assert_eq!(r.best_move, None);
        assert_eq!(r.simulations, 0);
    }
}
