//! Property tests for the schemes that step independent trees in lockstep
//! so their playouts run as lane batches (`pmcts_games::play_lanes`):
//!
//! * `DeviceTreeSearcher`: every block's resident tree equals a host
//!   replay of the canonical in-kernel order — rounds outer, lanes inner,
//!   one scalar playout per lane iteration — node for node, over block
//!   counts that are and are not multiples of the lane width, bounded
//!   trees that recycle, aborted blocks, and two or three consecutive
//!   searches whose re-root copies carry unlisted leaves; the ledger is
//!   exact, every tree passes `debug_validate` after every search, and in
//!   the debug profile the device allocator mirror's `debug_assert` checks
//!   every launch;
//! * `RootParallelSearcher`: every tree equals its solo
//!   `SequentialSearcher::with_stream(config, stream).search(root, budget)`,
//!   dead trees included, and the merged report is the same on one and on
//!   three host workers.

use pmcts_core::prelude::*;
use pmcts_core::tree::{merge_root_stats, SearchTree};
use pmcts_games::{random_playout, ReversiMove};
use pmcts_gpu_sim::WorkerPool;
use pmcts_util::{Rng64, Xoshiro256pp};
use proptest::prelude::*;
use std::sync::Arc;

/// The lane seed step of every launch epoch (`wave::LANE_SEED_STEP`).
const LANE_SEED_STEP: u64 = 0xA076_1D64_78BD_642F;

/// Plies below an old root scanned when re-rooting (`tree::REROOT_DEPTH`).
const REROOT_DEPTH: u32 = 4;

/// A position 0–39 random plies into a game.
fn position(seed: u64) -> Reversi {
    let mut state = Reversi::initial();
    let mut rng = Xoshiro256pp::new(seed);
    for _ in 0..seed % 40 {
        match state.random_move(&mut rng) {
            Some(mv) => state.apply(mv),
            None => break,
        }
    }
    state
}

/// One lane's in-kernel iteration, replayed on the host: UCB descent,
/// expansion with the pick drawn from the lane stream, one scalar playout
/// on the same stream, backprop.
fn lane_iteration(tree: &mut SearchTree<Reversi>, rng: &mut Xoshiro256pp, c: f64) {
    let sel = tree.select(c);
    let untried = tree.untried_len(sel);
    let node = if untried > 0 {
        let pick = rng.next_below(untried as u32);
        tree.expand_with_pick(sel, pick)
    } else {
        sel
    };
    let playout = random_playout(*tree.state(node), rng);
    tree.backprop(node, playout.reward_for(Player::P1), 1);
}

/// One node of a tree image: visits, win-sum bits, children and the
/// untried list (`None` while unlisted).
type NodeImage = (u64, u64, Vec<u32>, Option<Vec<ReversiMove>>);

/// Every node's image, plus the recycling counters. A terminal leaf
/// images as listed with no moves: the searcher lists the terminal leaf
/// it selects, while the replay reads its untried count without listing.
fn tree_image(tree: &SearchTree<Reversi>) -> (Vec<NodeImage>, usize, u64) {
    let nodes = (0..tree.len() as u32)
        .map(|id| {
            let untried = tree.untried(id).map(<[_]>::to_vec);
            (
                tree.visits(id),
                tree.wins(id).to_bits(),
                tree.children(id).to_vec(),
                untried.or_else(|| tree.is_terminal(id).then(Vec::new)),
            )
        })
        .collect();
    (nodes, tree.live_nodes(), tree.evictions())
}

fn dead_plan(seed: u64, dead_pct: u32) -> FaultPlan {
    FaultPlan::dead_component(seed, f64::from(dead_pct) / 100.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn device_tree_blocks_equal_the_lane_by_lane_replay(
        blocks in 1u32..21,
        tpb in 1u32..48,
        rounds in 1u64..5,
        cap in prop::sample::select(vec![0u32, 64, 96, 256]),
        abort_pct in prop::sample::select(vec![0u32, 50, 100]),
        seed in any::<u64>(),
    ) {
        let mut config = MctsConfig::default()
            .with_seed(seed)
            .with_faults(FaultPlan::gpu_abort(seed ^ 0xAB, f64::from(abort_pct) / 100.0));
        if cap > 0 {
            config = config.with_tree_capacity(cap);
        }
        let launch = LaunchConfig::new(blocks, tpb);
        let device = Device::new(DeviceSpec::tesla_c2050()).with_host_threads(2);
        let mut root = position(seed);
        prop_assume!(!root.is_terminal());
        let mut searcher = DeviceTreeSearcher::<Reversi>::new(config.clone(), device, launch);
        let tpb = tpb as usize;
        // The replay's trees after the previous search, one per block.
        let mut references: Vec<SearchTree<Reversi>> = Vec::new();
        let mut plies = Xoshiro256pp::new(seed ^ 0x5EA5);
        let searches = 2 + seed % 2;
        for epoch in 1..=searches {
            let report = searcher.search(root, SearchBudget::Iterations(rounds));

            // An iteration budget runs as one launch: search k is epoch k
            // of stream 0.
            let voided = match config.faults.gpu_fault(0, epoch, blocks) {
                GpuFault::BlockAbort(b) => Some(b as usize),
                _ => None,
            };
            let live_blocks = u64::from(blocks) - u64::from(voided.is_some());
            prop_assert_eq!(report.phases.phase_sum(), report.elapsed);
            prop_assert_eq!(report.iterations, rounds);
            prop_assert_eq!(report.phases.kernel_launches, 1);
            prop_assert_eq!(report.simulations, rounds * tpb as u64 * live_blocks);
            prop_assert_eq!(report.phases.faults.degraded, u64::from(voided.is_some()));

            let trees = searcher.resident_trees().expect("trees stay resident");
            prop_assert_eq!(trees.len(), blocks as usize);
            let launch_seed = seed.wrapping_add(epoch.wrapping_mul(LANE_SEED_STEP));
            let old = std::mem::take(&mut references);
            for (b, tree) in trees.iter().enumerate() {
                // Re-root as the searcher does: a copy of the most-visited
                // node holding `root` within the re-root depth, else a
                // cold tree.
                let mut reference = old
                    .get(b)
                    .and_then(|t| Some(t.extract_subtree(t.find_state(&root, REROOT_DEPTH)?)))
                    .unwrap_or_else(|| SearchTree::for_config(root, &config));
                if Some(b) != voided {
                    let mut rngs: Vec<Xoshiro256pp> = (0..tpb)
                        .map(|l| Xoshiro256pp::derive(launch_seed, (b * tpb + l) as u64))
                        .collect();
                    for _ in 0..rounds {
                        for rng in &mut rngs {
                            lane_iteration(&mut reference, rng, config.exploration_c);
                        }
                    }
                }
                tree.debug_validate();
                prop_assert_eq!(
                    tree_image(tree),
                    tree_image(&reference),
                    "block {} of {} diverged from the lane-by-lane replay in search {}",
                    b,
                    blocks,
                    epoch
                );
                references.push(reference);
            }

            // The next search starts zero to two random plies on.
            for _ in 0..plies.next_below(3) {
                match root.random_move(&mut plies) {
                    Some(mv) => root.apply(mv),
                    None => break,
                }
            }
            if root.is_terminal() {
                break;
            }
        }
    }

    #[test]
    fn root_parallel_trees_equal_their_solo_searches(
        threads in 1usize..21,
        by_time in any::<bool>(),
        iterations in 1u64..30,
        micros in 200u64..2500,
        dead_pct in prop::sample::select(vec![0u32, 30, 70]),
        seed in any::<u64>(),
    ) {
        let config = MctsConfig::default()
            .with_seed(seed)
            .with_faults(dead_plan(seed ^ 0xDEAD, dead_pct));
        let budget = if by_time {
            SearchBudget::VirtualTime(SimTime::from_micros(micros))
        } else {
            SearchBudget::Iterations(iterations)
        };
        let root = position(seed);
        let run = |workers: usize| {
            RootParallelSearcher::<Reversi>::with_stream_on(
                config.clone(),
                threads,
                0,
                Arc::new(WorkerPool::new(workers)),
            )
            .search(root, budget)
        };
        let merged = run(1);
        prop_assert_eq!(&run(3), &merged, "merged report depends on the pool size");

        // Tree i of the first search (generation 1, stream base 0) runs on
        // stream i + 0x1000·31; dead trees contribute nothing.
        let fault_key = 0x9E37_79B9_7F4A_7C15u64;
        let components: Vec<Option<SearchReport<_>>> = (0..threads as u64)
            .map(|i| {
                if config.faults.component_dead(fault_key, i) {
                    None
                } else {
                    let stream = i.wrapping_add(0x1000 * 31);
                    Some(SequentialSearcher::<Reversi>::with_stream(config.clone(), stream)
                        .search(root, budget))
                }
            })
            .collect();
        let live: Vec<&SearchReport<_>> = components.iter().flatten().collect();
        let dead = (threads - live.len()) as u64;
        let stats: Vec<_> = live.iter().map(|r| r.root_stats.clone()).collect();
        prop_assert_eq!(&merged.root_stats, &merge_root_stats(&stats));
        prop_assert_eq!(merged.simulations, live.iter().map(|r| r.simulations).sum::<u64>());
        prop_assert_eq!(merged.iterations, live.iter().map(|r| r.iterations).sum::<u64>());
        prop_assert_eq!(merged.tree_nodes, live.iter().map(|r| r.tree_nodes).sum::<u64>());
        prop_assert_eq!(merged.max_depth, live.iter().map(|r| r.max_depth).max().unwrap_or(0));
        prop_assert_eq!(
            merged.phases.expansions,
            live.iter().map(|r| r.phases.expansions).sum::<u64>()
        );
        prop_assert_eq!(merged.phases.faults.injected, dead);
        prop_assert_eq!(merged.phases.faults.excluded, dead);
        // The critical (slowest, first on ties) tree sets every phase time.
        let critical = live
            .iter()
            .copied()
            .reduce(|a, b| if b.elapsed > a.elapsed { b } else { a })
            .expect("tree 0 is never dead");
        prop_assert_eq!(merged.elapsed, critical.elapsed);
        prop_assert_eq!(merged.phases.select, critical.phases.select);
        prop_assert_eq!(merged.phases.expand, critical.phases.expand);
        prop_assert_eq!(merged.phases.kernel, critical.phases.kernel);
        prop_assert_eq!(merged.phases.phase_sum(), merged.elapsed);
    }
}
