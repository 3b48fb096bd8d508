//! Device-resident tree search: whole MCTS iterations inside the kernel.
//!
//! The block-parallel scheme (Fig. 2c) keeps the trees on the host and
//! round-trips every iteration through it: select/expand on the CPU, one
//! launch of playouts, backprop on the CPU. That host round-trip is the
//! Fig. 5 ceiling — the sequential part grows with the tree count, and
//! every iteration pays a full launch + transfer wave. The device-resident
//! scheme moves the trees into GPU global memory (DESIGN.md §13): a
//! *persistent* kernel runs complete MCTS iterations per lane — UCB
//! descent, expansion via the device allocator, playout, backprop — and
//! the host's per-iteration work collapses to nothing. Upload is charged
//! once per search (the root-state delta); readback once per launch (the
//! root-child statistics); the `select`/`expand` telemetry phases are
//! legitimately zero because the kernel phase absorbs the tree walk.
//!
//! Layout mirrors block parallelism: `launch.blocks` independent trees,
//! one per block; each of a block's `threads_per_block` lanes runs one
//! full iteration per round against the block's tree, in lane order, so
//! one budget *iteration* (a round) performs `blocks × threads_per_block`
//! simulations — the same budget unit as
//! [`BlockParallelSearcher`](crate::block_parallel::BlockParallelSearcher). The
//! canonical order (rounds outer, lanes inner, sequential tree semantics)
//! makes the result a pure function of the seed: groups of
//! [`LANE_WIDTH`] blocks fan out over the worker pool, but every block's
//! work is internally sequential and all folding happens in block order,
//! so reports are bit-identical for any `--host-threads` (the oracle test
//! below replays the same order on the host reference path, one scalar
//! playout at a time).
//!
//! Within a group the blocks step in lockstep, the third caller of
//! [`play_lanes`] after the playout kernel's warps and root-parallel
//! trees: for each (round, lane) every live block selects and expands, in
//! block order; lane `l` of all of them plays as one lane batch; then
//! every block backprops, in block order. Lanes within a block stay
//! sequential (lane `l + 1` selects on the tree lane `l` just updated);
//! blocks share nothing, so only the wall clock sees the interleaving.
//!
//! Cost accounting lives in [`pmcts_gpu_sim::device_tree`]: warp
//! divergence settles once over each lane's *summed* steps (a lane
//! finishing a short playout immediately starts its next iteration), tree
//! steps are priced at the cheaper in-kernel tree-walk constant, and the
//! trees never leave the device between rounds or launches.
//!
//! Fault policy (matrix row `device_tree`): a slowdown stretches device
//! time; an aborted block skips the launch (its tree receives nothing); a
//! kernel hang costs the detection deadline and is retried once — a
//! second hang abandons the device for the move and falls back to the
//! host-driven block-parallel loop on the same resident trees.

use crate::block_parallel::{report_from_trees, BlockEngine};
use crate::config::{MctsConfig, SearchBudget};
use crate::searcher::{BudgetTracker, SearchReport, Searcher};
use crate::tree::SearchTree;
use crate::wave::{slow_down, void_of, Solo, LANE_SEED_STEP};
use pmcts_games::{play_lanes, Game, Player, PlayoutResult, LANE_WIDTH};
use pmcts_gpu_sim::{
    Device, DeviceAllocator, DeviceTreeSpec, GpuFault, LaunchConfig, TreeLaunchTrace,
};
use pmcts_util::{ArrayVec, Rng64, SimTime, Xoshiro256pp};

/// Upper bound on rounds planned into a single persistent launch under a
/// `VirtualTime` budget (keeps hang dry-runs and round cost distribution
/// bounded; iteration budgets run in one launch regardless).
const MAX_PLANNED_ROUNDS: u64 = 65_536;

/// Upper bound on the nodes a launch reserves per tree. A round adds at
/// most one node per lane, but a saturated game tree adds none, so the
/// plan only bounds the growth; the cap keeps a long plan on a small game
/// from reserving memory it never fills.
const MAX_RESERVED_NODES: usize = 1 << 16;

/// GPU searcher whose kernel owns the trees: one resident tree per block,
/// complete MCTS iterations per lane, host phases collapsed to zero.
#[derive(Clone, Debug)]
pub struct DeviceTreeSearcher<G: Game> {
    config: MctsConfig,
    device: Device,
    launch: LaunchConfig,
    /// The launch epoch and fault schedule, shared with the hang fallback:
    /// block parallelism on this stream (host RNG for expansion picks and
    /// degraded CPU playouts), so the fallback is the same machine.
    host: Solo,
    /// Trees left on the device by the previous search (re-rooted on the
    /// next one; `reset` drops them).
    resident: Option<Vec<SearchTree<G>>>,
}

/// Per-block result of one persistent launch, folded in block order.
#[derive(Clone, Debug, Default)]
struct BlockRun {
    /// Per-lane `(tree_steps, playout_steps)` summed over the rounds.
    per_lane: Vec<(u64, u64)>,
    /// Fresh node slots claimed, in allocation order.
    fresh: Vec<u32>,
    /// Expansions that recycled an evicted slot in place (bounded trees).
    recycled: u64,
    sims: u64,
    expansions: u64,
}

impl<G: Game> DeviceTreeSearcher<G> {
    /// Creates a device-resident tree searcher with `launch.blocks` trees
    /// and `launch.threads_per_block` iterations per tree per round.
    pub fn new(config: MctsConfig, device: Device, launch: LaunchConfig) -> Self {
        Self::with_stream(config, device, launch, 0)
    }

    /// Like [`new`](Self::new) but on RNG sub-stream `stream`.
    pub fn with_stream(
        config: MctsConfig,
        device: Device,
        launch: LaunchConfig,
        stream: u64,
    ) -> Self {
        launch.validate(device.spec());
        DeviceTreeSearcher {
            host: Solo::new(
                config.clone(),
                device.clone(),
                launch,
                stream,
                0xDE1C,
                LANE_SEED_STEP,
            ),
            config,
            device,
            launch,
            resident: None,
        }
    }

    /// Number of resident trees (= blocks).
    pub fn trees(&self) -> u32 {
        self.launch.blocks
    }

    /// Drops the resident trees (e.g. when starting a new game).
    pub fn reset(&mut self) {
        self.resident = None;
    }

    /// The trees the last search left on the device, one per block
    /// (`None` before the first search and after [`reset`](Self::reset)).
    pub fn resident_trees(&self) -> Option<&[SearchTree<G>]> {
        self.resident.as_deref()
    }

    /// Re-roots the resident trees at `root` (falling back to cold trees
    /// where the position is not found) and mirrors each into a fresh
    /// device allocator adopting the compacted live prefix.
    fn prepare(&mut self, root: G) -> (Vec<SearchTree<G>>, Vec<DeviceAllocator>) {
        let blocks = self.launch.blocks as usize;
        let resident = self.resident.take().filter(|old| old.len() == blocks);
        let mut old = resident.unwrap_or_default().into_iter();
        let trees: Vec<SearchTree<G>> = (0..blocks)
            .map(|_| SearchTree::rerooted(old.next(), root, &self.config))
            .collect();
        let allocs = trees
            .iter()
            .map(|t| {
                DeviceAllocator::with_live_prefix(
                    t.capacity().unwrap_or(u32::MAX),
                    t.live_nodes() as u32,
                )
            })
            .collect();
        (trees, allocs)
    }

    /// Rounds to plan into the next persistent launch: everything that is
    /// left for iteration budgets; a deadline-derived estimate (one round
    /// short, so the final top-ups are single rounds and overshoot stays
    /// bounded by one round's cost growth) for virtual-time budgets.
    fn planned_rounds(budget: SearchBudget, tracker: &BudgetTracker, last_round: SimTime) -> u64 {
        match budget {
            SearchBudget::Iterations(n) => n.saturating_sub(tracker.iterations).max(1),
            SearchBudget::VirtualTime(t) => {
                if last_round == SimTime::ZERO {
                    1
                } else {
                    let remaining =
                        t.saturating_sub(tracker.elapsed).as_nanos() / last_round.as_nanos().max(1);
                    remaining.saturating_sub(1).clamp(1, MAX_PLANNED_ROUNDS)
                }
            }
        }
    }
}

/// The first half of one lane's in-kernel MCTS iteration: UCB descent,
/// listing the selected node's moves if it is a fresh leaf, then expansion
/// with the pick drawn from the lane RNG. Returns the node to simulate and
/// records the lane's `depth+1` node reads for the descent and its one
/// allocator claim.
fn descend<G: Game>(
    tree: &mut SearchTree<G>,
    rng: &mut Xoshiro256pp,
    exploration_c: f64,
    run: &mut BlockRun,
    lane: usize,
) -> u32 {
    let sel = tree.select(exploration_c);
    let sel_depth = tree.depth(sel) as u64;
    let untried = tree.list_moves(sel);
    let node = if untried > 0 {
        let pick = rng.next_below(untried as u32);
        let live_before = tree.live_nodes();
        let id = tree.expand_with_pick(sel, pick);
        if tree.live_nodes() > live_before {
            run.fresh.push(id);
        } else {
            // Bounded tree at capacity: the expansion evicted an LRU leaf
            // and reused its slot in place.
            run.recycled += 1;
        }
        run.expansions += 1;
        id
    } else {
        sel
    };
    run.per_lane[lane].0 += sel_depth + 1 + 1;
    node
}

/// The second half: backprop of the lane's playout from `node` into the
/// resident tree. Records the `depth+1` updates of the backprop walk and
/// the playout plies.
fn land<G: Game>(
    tree: &mut SearchTree<G>,
    node: u32,
    playout: PlayoutResult,
    run: &mut BlockRun,
    lane: usize,
) {
    let node_depth = tree.depth(node) as u64;
    tree.backprop(node, playout.reward_for(Player::P1), 1);
    let cell = &mut run.per_lane[lane];
    cell.0 += node_depth + 1;
    cell.1 += (playout.plies as u64).max(1);
    run.sims += 1;
}

/// One complete in-kernel MCTS iteration for one lane, with a scalar
/// playout: the canonical iteration whose order (and nothing else) defines
/// the result. The searcher interleaves the blocks of a pool task around
/// lane batches; the oracle test replays this one lane at a time.
#[cfg(test)]
fn lane_iteration<G: Game>(
    tree: &mut SearchTree<G>,
    rng: &mut Xoshiro256pp,
    exploration_c: f64,
    run: &mut BlockRun,
    lane: usize,
) {
    let node = descend(tree, rng, exploration_c, run, lane);
    let playout = pmcts_games::random_playout(*tree.state(node), rng);
    land(tree, node, playout, run, lane);
}

/// Runs `rounds` rounds of the persistent kernel over the blocks of one
/// pool task, block `first` onwards, except the `voided` one. For each
/// (round, lane) every live block descends, in block order; lane `l` of
/// all of them plays as one [`play_lanes`] call; then every block lands,
/// in block order. Blocks share nothing, and each lane stream draws its
/// expansion pick and then its playout, so every block sees exactly the
/// rounds-outer, lanes-inner order of [`lane_iteration`].
fn run_group<G: Game>(
    trees: &mut [SearchTree<G>],
    first: usize,
    tpb: usize,
    rounds: u64,
    seed: u64,
    exploration_c: f64,
    voided: Option<usize>,
) -> Vec<BlockRun> {
    let mut runs: Vec<BlockRun> = trees
        .iter()
        .map(|_| BlockRun {
            per_lane: vec![(0, 0); tpb],
            ..BlockRun::default()
        })
        .collect();
    let live: ArrayVec<usize, LANE_WIDTH> = (0..trees.len())
        .filter(|&k| Some(first + k) != voided)
        .collect();
    // Lane RNGs derive exactly like the playout kernel's: one stream per
    // global thread id, fresh per launch. Block `k`'s lane `l` sits at
    // `k * tpb + l`.
    let mut rngs: Vec<Xoshiro256pp> = (0..trees.len() * tpb)
        .map(|i| Xoshiro256pp::derive(seed, (first * tpb + i) as u64))
        .collect();
    let mut nodes = [0u32; LANE_WIDTH];
    let mut landed: [Option<(PlayoutResult, Xoshiro256pp)>; LANE_WIDTH] =
        std::array::from_fn(|_| None);
    for _ in 0..rounds {
        for l in 0..tpb {
            for &k in &live {
                let rng = &mut rngs[k * tpb + l];
                nodes[k] = descend(&mut trees[k], rng, exploration_c, &mut runs[k], l);
            }
            play_lanes(
                live.len(),
                |i| {
                    let k = live[i];
                    (*trees[k].state(nodes[k]), rngs[k * tpb + l].clone())
                },
                |i, result, rng| landed[i] = Some((result, rng)),
            );
            for (i, &k) in live.iter().enumerate() {
                let (result, rng) = landed[i].take().expect("every live block landed");
                rngs[k * tpb + l] = rng;
                land(&mut trees[k], nodes[k], result, &mut runs[k], l);
            }
        }
    }
    runs
}

/// Runs `rounds` rounds of the persistent kernel over every block's tree
/// (groups of [`LANE_WIDTH`] blocks fan out over the pool; see
/// [`run_group`]). First reserves every live tree's node columns for the
/// nodes the launch plans to add, one per lane per round, so a move's
/// nodes land in one allocation per column, as in the device's pre-sized
/// node pool. Folds traces, allocator mirroring and counters in block
/// order, prices the launch, and returns `(stats, simulations,
/// expansions)`.
#[allow(clippy::too_many_arguments)]
fn run_rounds<G: Game>(
    trees: &mut [SearchTree<G>],
    allocs: &mut [DeviceAllocator],
    launch: LaunchConfig,
    device: &Device,
    rounds: u64,
    seed: u64,
    exploration_c: f64,
    voided: Option<usize>,
) -> (pmcts_gpu_sim::KernelStats, u64, u64) {
    let tpb = launch.threads_per_block as usize;
    let tree_spec = DeviceTreeSpec::c2050_resident();
    let planned = (rounds as usize)
        .saturating_mul(tpb)
        .min(MAX_RESERVED_NODES);
    for (b, tree) in trees.iter_mut().enumerate() {
        if Some(b) != voided {
            tree.reserve_nodes(planned);
        }
    }
    let mut groups: Vec<&mut [SearchTree<G>]> = trees.chunks_mut(LANE_WIDTH).collect();
    let runs = device.worker_pool().map_indexed(&mut groups, |g, group| {
        run_group(
            group,
            g * LANE_WIDTH,
            tpb,
            rounds,
            seed,
            exploration_c,
            voided,
        )
    });

    let mut sims = 0u64;
    let mut expansions = 0u64;
    let mut lanes = Vec::with_capacity(trees.len());
    for (b, run) in runs.into_iter().flatten().enumerate() {
        for &slot in &run.fresh {
            assert!(
                allocs[b].claim(slot),
                "device allocator rejected shadow-tree slot {slot}"
            );
        }
        allocs[b].note_recycled(run.recycled);
        debug_assert_eq!(
            allocs[b].live() as usize,
            trees[b].live_nodes(),
            "device allocator drifted from the shadow tree"
        );
        sims += run.sims;
        expansions += run.expansions;
        lanes.push(run.per_lane);
    }

    let readback_bytes: u64 = trees
        .iter()
        .map(|t| t.children(t.root()).len() as u64)
        .sum::<u64>()
        * tree_spec.root_stat_bytes;
    let trace = TreeLaunchTrace::from_lanes(launch.threads_per_block, lanes);
    let stats = trace.finish(&tree_spec, device.spec(), &launch, readback_bytes);
    (stats, sims, expansions)
}

impl<G: Game> Searcher<G> for DeviceTreeSearcher<G> {
    fn search(&mut self, root: G, budget: SearchBudget) -> SearchReport<G::Move> {
        let (mut trees, mut allocs) = self.prepare(root);
        let mut ledger = self.host.ledger(budget);
        let cpu = self.config.cpu_cost;
        let spec = self.device.spec().clone();
        let exploration_c = self.config.exploration_c;
        let plan = self.config.faults;

        let mut uploaded = false;
        let mut last_round_cost = SimTime::ZERO;
        let mut hang_retried = false;

        while !trees[0].is_terminal(trees[0].root()) && ledger.tracker.may_continue() {
            let rounds = Self::planned_rounds(budget, &ledger.tracker, last_round_cost);
            let (seed, fault) = self.host.next_launch(&mut ledger);

            if fault == GpuFault::Hang {
                // The persistent launch produced nothing observable. Cost
                // the detection deadline off the launch's nominal elapsed
                // time (computed on clones; the resident trees are
                // untouched), then retry once with a fresh epoch; a second
                // hang abandons the device for this move.
                let mut dry_trees = trees.clone();
                let mut dry_allocs = allocs.clone();
                let (stats, _, _) = run_rounds(
                    &mut dry_trees,
                    &mut dry_allocs,
                    self.launch,
                    &self.device,
                    rounds,
                    seed,
                    exploration_c,
                    None,
                );
                let deadline = plan.hang_deadline(stats.elapsed());
                ledger.phases.kernel += deadline;
                ledger.carried += deadline;
                ledger.phases.faults.injected += 1;
                if !hang_retried {
                    hang_retried = true;
                    ledger.phases.faults.retried += 1;
                    continue;
                }
                // Degraded mode: the device is abandoned for this move. The
                // block-parallel round drives the same resident trees
                // through the shared launch path and its fault ladder.
                ledger.phases.faults.degraded += 1;
                let mut engine = BlockEngine {
                    config: self.config.clone(),
                    trees,
                    rng: self.host.rng.clone(),
                    pool: self.host.pool(),
                    threads_per_block: self.launch.threads_per_block as usize,
                    ledger,
                    pending: None,
                };
                let report = self.host.run(&mut engine);
                self.host.rng = engine.rng;
                self.resident = Some(engine.trees);
                return report;
            }
            hang_retried = false;

            let voided = void_of(fault, &mut ledger.phases);
            let (mut stats, sims, expansions) = run_rounds(
                &mut trees,
                &mut allocs,
                self.launch,
                &self.device,
                rounds,
                seed,
                exploration_c,
                voided,
            );
            slow_down(&mut stats, &[fault]);

            // Exact ledger: launch prep + (first launch only) the root
            // state delta to the upload phase; overhead + device time to
            // the kernel phase; root-stat readback to the readback phase.
            let phases = &mut ledger.phases;
            let mut total = stats.elapsed() + cpu.launch_prep + std::mem::take(&mut ledger.carried);
            phases.upload += cpu.launch_prep;
            if !uploaded {
                uploaded = true;
                let delta = spec.transfer_time(G::device_state_bytes() as u64);
                phases.upload += delta;
                total += delta;
            }
            phases.kernel += stats.launch_overhead + stats.device_time;
            phases.readback += stats.readback_time;
            phases.record_launch(&stats);
            phases.simulations += sims;
            phases.expansions += expansions;

            // Charge the tracker round by round: the integer split sums
            // to the launch total exactly, so iterations count rounds and
            // the phase ledger still equals elapsed to the nanosecond.
            let total_ns = total.as_nanos();
            for i in 0..rounds {
                let share = total_ns * (i + 1) / rounds - total_ns * i / rounds;
                ledger.tracker.charge(SimTime::from_nanos(share));
            }
            last_round_cost = SimTime::from_nanos((total_ns / rounds).max(1));
        }

        let report = report_from_trees(&trees, &ledger.tracker, ledger.phases);
        self.resident = Some(trees);
        report
    }

    fn name(&self) -> String {
        format!(
            "device-resident tree ({} blocks × {} threads)",
            self.launch.blocks, self.launch.threads_per_block
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lane seed of launch `epoch` on `stream`.
    fn stream_seed(seed: u64, stream: u64, epoch: u64) -> u64 {
        seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(epoch.wrapping_mul(LANE_SEED_STEP))
    }
    use crate::block_parallel::BlockParallelSearcher;
    use pmcts_games::{Reversi, TicTacToe};
    use pmcts_gpu_sim::DeviceSpec;
    use pmcts_util::FaultPlan;

    fn device() -> Device {
        Device::new(DeviceSpec::tesla_c2050())
    }

    fn cfg(seed: u64) -> MctsConfig {
        MctsConfig::default().with_seed(seed)
    }

    /// Checksummable tree image: per-node (visits, win-sum bits).
    fn tree_image<G: Game>(tree: &SearchTree<G>) -> Vec<(u64, u64)> {
        (0..tree.len() as u32)
            .map(|id| (tree.visits(id), tree.wins(id).to_bits()))
            .collect()
    }

    #[test]
    fn oracle_matches_host_reference_path() {
        // The searcher's result must be bit-identical to a plain host-side
        // replay of the canonical order: cold trees, rounds outer, lanes
        // inner, lane RNGs derived from the launch stream seed.
        let seed = 7u64;
        let launch = LaunchConfig::new(4, 32);
        let rounds = 6u64;
        let mut s = DeviceTreeSearcher::<Reversi>::new(cfg(seed), device(), launch);
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(rounds));
        assert_eq!(r.iterations, rounds);
        let searched = s.resident.as_ref().expect("trees stay resident");
        assert_eq!(searched.len(), launch.blocks as usize);

        let config = cfg(seed);
        let launch_seed = stream_seed(seed, 0, 1);
        let tpb = launch.threads_per_block as usize;
        for (b, searched_tree) in searched.iter().enumerate() {
            let mut reference = SearchTree::for_config(Reversi::initial(), &config);
            let mut rngs: Vec<Xoshiro256pp> = (0..tpb)
                .map(|l| Xoshiro256pp::derive(launch_seed, (b * tpb + l) as u64))
                .collect();
            let mut run = BlockRun {
                per_lane: vec![(0, 0); tpb],
                ..BlockRun::default()
            };
            for _ in 0..rounds {
                for (l, rng) in rngs.iter_mut().enumerate() {
                    lane_iteration(&mut reference, rng, config.exploration_c, &mut run, l);
                }
            }
            assert_eq!(
                tree_image(searched_tree),
                tree_image(&reference),
                "block {b} diverged from the host reference"
            );
        }
    }

    #[test]
    fn simulations_count_grid_times_rounds_and_host_phases_are_zero() {
        let mut s = DeviceTreeSearcher::<Reversi>::new(cfg(1), device(), LaunchConfig::new(4, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(5));
        assert_eq!(r.iterations, 5);
        assert_eq!(r.simulations, 5 * 4 * 32);
        // The kernel absorbs the tree walk: no host select/expand time...
        assert_eq!(r.phases.select, SimTime::ZERO);
        assert_eq!(r.phases.expand, SimTime::ZERO);
        // ...yet the ledger still sums to elapsed exactly.
        assert_eq!(r.phases.phase_sum(), r.elapsed);
        assert_eq!(r.phases.kernel_launches, 1, "one persistent launch");
        assert!(r.phases.kernel > SimTime::ZERO);
        assert!(r.phases.readback > SimTime::ZERO);
        assert!(r.phases.upload > SimTime::ZERO, "root delta + prep");
    }

    #[test]
    fn deterministic_per_seed_and_stream() {
        let run = |seed, stream| {
            DeviceTreeSearcher::<Reversi>::with_stream(
                cfg(seed),
                device(),
                LaunchConfig::new(4, 32),
                stream,
            )
            .search(Reversi::initial(), SearchBudget::Iterations(4))
        };
        assert_eq!(run(3, 0), run(3, 0));
        assert_ne!(run(3, 0).root_stats, run(3, 1).root_stats);
        assert_ne!(run(3, 0).root_stats, run(4, 0).root_stats);
    }

    #[test]
    fn resident_trees_carry_across_searches() {
        let mut s = DeviceTreeSearcher::<Reversi>::new(cfg(2), device(), LaunchConfig::new(2, 32));
        let r1 = s.search(Reversi::initial(), SearchBudget::Iterations(3));
        let r2 = s.search(Reversi::initial(), SearchBudget::Iterations(3));
        // Same position re-searched: every tree re-roots at its old root,
        // so root visits accumulate across the two searches.
        let total: u64 = r2.root_stats.iter().map(|st| st.visits).sum();
        assert_eq!(total, r1.simulations + r2.simulations);
        s.reset();
        let r3 = s.search(Reversi::initial(), SearchBudget::Iterations(3));
        let fresh: u64 = r3.root_stats.iter().map(|st| st.visits).sum();
        assert_eq!(fresh, r3.simulations, "reset forgets the resident trees");
    }

    #[test]
    fn bounded_trees_recycle_on_device() {
        let config = cfg(5).with_tree_capacity(64);
        let mut s = DeviceTreeSearcher::<Reversi>::new(config, device(), LaunchConfig::new(2, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(8));
        // 8 rounds × 32 lanes ≈ 256 expansions per tree against cap 64.
        assert!(r.tree_nodes <= 2 * 64, "capacity respected");
        let trees = s.resident.as_ref().unwrap();
        assert!(trees.iter().all(|t| t.evictions() > 0));
        assert_eq!(r.phases.phase_sum(), r.elapsed);
    }

    #[test]
    fn virtual_speedup_over_block_parallel_is_at_least_1_5x() {
        // The acceptance gate, asserted at the throughput bench geometry:
        // same budget, same grid, ≥1.5× virtual simulations/second.
        let launch = LaunchConfig::new(14, 64);
        let budget = SearchBudget::Iterations(8);
        let block = BlockParallelSearcher::<Reversi>::new(cfg(9), device(), launch)
            .search(Reversi::initial(), budget);
        let resident = DeviceTreeSearcher::<Reversi>::new(cfg(9), device(), launch)
            .search(Reversi::initial(), budget);
        assert_eq!(block.simulations, resident.simulations);
        let ratio = resident.sims_per_second() / block.sims_per_second();
        assert!(
            ratio >= 1.5,
            "device-resident speedup {ratio:.2}× below the 1.5× gate"
        );
    }

    #[test]
    fn virtual_time_budget_stops_near_deadline() {
        let budget = SimTime::from_millis(20);
        let mut s = DeviceTreeSearcher::<Reversi>::new(cfg(6), device(), LaunchConfig::new(4, 32));
        let r = s.search(Reversi::initial(), SearchBudget::VirtualTime(budget));
        assert!(r.iterations > 1, "multiple rounds fit in 20 ms");
        assert_eq!(r.phases.phase_sum(), r.elapsed);
        // Overshoot is bounded by one round's cost growth (the planner
        // undershoots, then tops up with single-round launches).
        let per_round = r.elapsed.as_nanos() / r.iterations;
        assert!(
            r.phases.budget_overshoot.as_nanos() <= per_round,
            "overshoot {} > one round {}",
            r.phases.budget_overshoot.as_nanos(),
            per_round
        );
    }

    #[test]
    fn terminal_root_is_handled() {
        let s = TicTacToe::parse("XXX OO. ...", Player::P2).unwrap();
        let mut searcher =
            DeviceTreeSearcher::<TicTacToe>::new(cfg(6), device(), LaunchConfig::new(2, 32));
        let r = searcher.search(s, SearchBudget::Iterations(5));
        assert_eq!(r.best_move, None);
        assert_eq!(r.simulations, 0);
        assert_eq!(r.elapsed, SimTime::ZERO);
    }

    #[test]
    fn finds_tactical_move() {
        let s = TicTacToe::parse("XX. OO. ...", pmcts_games::Player::P1).unwrap();
        let mut searcher =
            DeviceTreeSearcher::<TicTacToe>::new(cfg(5), device(), LaunchConfig::new(4, 32));
        let r = searcher.search(s, SearchBudget::Iterations(10));
        assert_eq!(r.best_move, Some(2));
    }

    #[test]
    fn hang_retries_once_then_falls_back_to_host() {
        // Hang on (nearly) every launch: the first hang retries, the
        // second degrades to the host block-parallel loop, which then
        // degrades its own playout launches to CPU playouts. The search
        // still returns a move and keeps an exact ledger.
        let config = cfg(8).with_faults(FaultPlan::gpu_hang(77, 1.0));
        let mut s = DeviceTreeSearcher::<Reversi>::new(config, device(), LaunchConfig::new(2, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(3));
        assert!(r.best_move.is_some());
        assert!(r.phases.faults.injected >= 2);
        // One device retry, plus one retry per fallback playout launch
        // (the fallback's own launches also hang at rate 1.0).
        assert!(r.phases.faults.retried >= 1, "device retry happens");
        assert!(r.phases.faults.degraded > 0);
        assert!(r.simulations > 0, "degraded iterations still simulate");
        assert_eq!(r.phases.phase_sum(), r.elapsed);
    }

    #[test]
    fn slowdown_stretches_device_time_only() {
        let faulty = cfg(4).with_faults(FaultPlan::gpu_slowdown(55, 1.0, 3));
        let clean = cfg(4);
        let launch = LaunchConfig::new(2, 32);
        let run = |c: MctsConfig| {
            DeviceTreeSearcher::<Reversi>::new(c, device(), launch)
                .search(Reversi::initial(), SearchBudget::Iterations(4))
        };
        let f = run(faulty);
        let c = run(clean);
        assert_eq!(f.root_stats, c.root_stats, "results unchanged, only time");
        assert!(f.elapsed > c.elapsed);
        assert!(f.phases.faults.injected > 0);
        assert_eq!(f.phases.phase_sum(), f.elapsed);
    }

    #[test]
    fn block_abort_skips_that_tree_for_the_launch() {
        let config = cfg(3).with_faults(FaultPlan::gpu_abort(66, 1.0));
        let mut s = DeviceTreeSearcher::<Reversi>::new(config, device(), LaunchConfig::new(4, 32));
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(3));
        assert!(r.phases.faults.degraded > 0);
        assert!(
            r.simulations < 3 * 4 * 32,
            "aborted blocks simulate nothing"
        );
        assert!(r.best_move.is_some(), "surviving trees still vote");
        assert_eq!(r.phases.phase_sum(), r.elapsed);
    }
}
