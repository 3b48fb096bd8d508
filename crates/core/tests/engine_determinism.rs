//! Cross-engine and cross-host-thread determinism.
//!
//! Two independent guarantees (CLAUDE.md invariants):
//!
//! 1. The playout kernel's fused [`run_lanes`](pmcts_gpu_sim::Kernel) path
//!    (what the run-to-completion engine executes) is bit-identical —
//!    outputs *and* full `KernelStats` — to the per-step masked lockstep
//!    interpreter retained as the oracle.
//! 2. Every searcher's `SearchReport` is bit-identical regardless of how
//!    many real host worker threads execute it.

use pmcts_core::gpu::PlayoutKernel;
use pmcts_core::prelude::*;
use pmcts_core::tree::SearchTree;
use pmcts_gpu_sim::executor::execute_kernel_lockstep;
use pmcts_gpu_sim::WorkerPool;
use pmcts_util::Xoshiro256pp;
use proptest::prelude::*;
use std::sync::Arc;

const HOST_THREADS: [usize; 3] = [1, 2, 8];

fn cfg(seed: u64) -> MctsConfig {
    MctsConfig::default().with_seed(seed)
}

// ---- 1. PlayoutKernel: fused run_lanes vs lockstep oracle ---------------

/// Launches `kernel` through the fast engine (via `Device`) and through
/// the lockstep oracle and asserts byte-identical results.
fn assert_kernel_matches_oracle<G: Game>(kernel: PlayoutKernel<G>, launch: LaunchConfig) {
    let spec = DeviceSpec::tesla_c2050();
    let fast = Device::new(spec.clone())
        .with_host_threads(3)
        .launch(&kernel, launch);
    let oracle = execute_kernel_lockstep(&kernel, &launch, &spec);
    assert_eq!(fast.outputs, oracle.outputs, "lane outcomes diverged");
    assert_eq!(fast.stats, oracle.stats, "divergence accounting diverged");
}

#[test]
fn playout_kernel_matches_oracle_on_reversi() {
    for seed in [1u64, 2, 99] {
        assert_kernel_matches_oracle(
            PlayoutKernel::new(vec![Reversi::initial()], seed),
            LaunchConfig::new(4, 48),
        );
    }
}

#[test]
fn playout_kernel_matches_oracle_on_tictactoe() {
    // Short games with draws: exercises the terminal-root step accounting
    // and the Draw lane outcome.
    assert_kernel_matches_oracle(
        PlayoutKernel::new(vec![TicTacToe::initial()], 7),
        LaunchConfig::new(3, 33), // partial warp
    );
}

#[test]
fn playout_kernel_matches_oracle_on_terminal_root() {
    // A root with no legal move finishes in the single entry-check step.
    let won = TicTacToe::parse("XXX OO. ...", Player::P2).expect("valid terminal diagram");
    assert_kernel_matches_oracle(PlayoutKernel::new(vec![won], 3), LaunchConfig::new(1, 32));
}

#[test]
fn playout_kernel_matches_oracle_per_block_roots() {
    assert_kernel_matches_oracle(
        PlayoutKernel::new(vec![Reversi::initial(), Reversi::initial()], 11),
        LaunchConfig::new(4, 32),
    );
}

// ---- 2. SearchReports identical across host-thread counts ---------------

/// Runs `build(host_threads)` over [`HOST_THREADS`] and asserts every
/// produced report equals the first.
fn assert_reports_identical<F>(what: &str, budget: SearchBudget, mut build: F)
where
    F: FnMut(usize) -> Box<dyn Searcher<Reversi>>,
{
    let mut baseline = None;
    for threads in HOST_THREADS {
        let report = build(threads).search(Reversi::initial(), budget);
        match &baseline {
            None => baseline = Some(report),
            Some(expect) => {
                assert_eq!(
                    expect, &report,
                    "{what}: report changed at {threads} host threads"
                );
            }
        }
    }
}

fn device(threads: usize) -> Device {
    Device::new(DeviceSpec::tesla_c2050()).with_host_threads(threads)
}

#[test]
fn leaf_parallel_identical_across_host_threads() {
    assert_reports_identical("leaf", SearchBudget::Iterations(6), |t| {
        Box::new(LeafParallelSearcher::new(
            cfg(21),
            device(t),
            LaunchConfig::new(2, 32),
        ))
    });
}

#[test]
fn leaf_parallel_lane_chunks_identical_across_host_threads() {
    // threads_per_block = 38 splits each block into a full 32-lane warp
    // (four 8-wide LaneBatch chunks) and a 6-lane partial warp (one 8-wide
    // chunk padded with two copies of its first lane), so one launch
    // exercises both kinds of `play_lanes` batch. The report must be identical
    // across host threads *and* pinned bit-for-bit: lane batching is a
    // wall-clock fast path that virtual time never observes, so this
    // fingerprint must survive any future lane-engine change.
    let mut pinned = None;
    assert_reports_identical("leaf (lane chunks)", SearchBudget::Iterations(6), |t| {
        let r = LeafParallelSearcher::new(cfg(91), device(t), LaunchConfig::new(2, 38))
            .search(Reversi::initial(), SearchBudget::Iterations(6));
        pinned.get_or_insert_with(|| {
            let visits: u64 = r.root_stats.iter().map(|s| s.visits).sum();
            let wins: f64 = r.root_stats.iter().map(|s| s.wins).sum();
            format!(
                "{:?}/s{}/i{}/e{}/v{}/w{}",
                r.best_move,
                r.simulations,
                r.iterations,
                r.elapsed.as_nanos(),
                visits,
                wins.to_bits()
            )
        });
        Box::new(LeafParallelSearcher::new(
            cfg(91),
            device(t),
            LaunchConfig::new(2, 38),
        ))
    });
    assert_eq!(
        pinned.as_deref(),
        Some("Some(ReversiMove(44))/s456/i6/e8804504/v456/w4641979762795872256"),
        "lane-path leaf search fingerprint drifted"
    );
}

#[test]
fn block_parallel_identical_across_host_threads() {
    assert_reports_identical("block", SearchBudget::Iterations(5), |t| {
        Box::new(BlockParallelSearcher::new(
            cfg(22),
            device(t),
            LaunchConfig::new(4, 32),
        ))
    });
}

#[test]
fn device_tree_identical_across_host_threads_and_pinned() {
    assert_identical_and_pinned(
        "device-tree",
        SearchBudget::Iterations(5),
        "Some(ReversiMove(37))/s640/i5/e2323679/v640/w4644002864190980096",
        |t| {
            Box::new(DeviceTreeSearcher::new(
                cfg(51),
                device(t),
                LaunchConfig::new(4, 32),
            ))
        },
    );
}

#[test]
fn hex11_searches_identical_across_host_threads_and_pinned() {
    // The Hex 11×11 scenario coverage added alongside the lane engine
    // (fault-matrix + arena entries): the generic engines must be
    // host-thread-invariant on the branchier non-Reversi game too, and the
    // fingerprints are pinned so lane-engine changes can't drift them.
    // Hex batches its warps (`Game::LANE_ENGINE` is true), so these pin
    // `run_lanes` through `play_lanes` and Hex's 8-lane batches — the
    // AVX-512 loop where the host has it — at the values the scalar path
    // produced before Hex batched.
    type Build = fn(usize) -> Box<dyn Searcher<Hex11>>;
    fn leaf(t: usize) -> Box<dyn Searcher<Hex11>> {
        Box::new(LeafParallelSearcher::new(
            cfg(33),
            device(t),
            LaunchConfig::new(2, 38),
        ))
    }
    fn block(t: usize) -> Box<dyn Searcher<Hex11>> {
        Box::new(BlockParallelSearcher::new(
            cfg(34),
            device(t),
            LaunchConfig::new(4, 32),
        ))
    }
    let cases: [(&str, &str, Build); 2] = [
        (
            "hex11 leaf",
            "Some(66)/s304/i4/e11336153/v304/w4639587225493831680",
            leaf,
        ),
        (
            "hex11 block",
            "Some(117)/s512/i4/e5927636/v512/w4643439914237558784",
            block,
        ),
    ];
    for (what, pin, build) in cases {
        let mut baseline = None;
        for threads in HOST_THREADS {
            let r = build(threads).search(Hex11::initial(), SearchBudget::Iterations(4));
            match &baseline {
                None => baseline = Some(r),
                Some(expect) => {
                    assert_eq!(
                        expect, &r,
                        "{what}: report changed at {threads} host threads"
                    );
                }
            }
        }
        let r = baseline.expect("at least one report");
        let visits: u64 = r.root_stats.iter().map(|s| s.visits).sum();
        let wins: f64 = r.root_stats.iter().map(|s| s.wins).sum();
        let got = format!(
            "{:?}/s{}/i{}/e{}/v{}/w{}",
            r.best_move,
            r.simulations,
            r.iterations,
            r.elapsed.as_nanos(),
            visits,
            wins.to_bits()
        );
        assert_eq!(got, pin, "{what}: pinned fingerprint drifted");
    }
}

#[test]
fn device_tree_time_budget_identical_across_host_threads_and_pinned() {
    // The multi-round launch planner must not see thread count either.
    assert_identical_and_pinned(
        "device-tree (time)",
        SearchBudget::VirtualTime(SimTime::from_millis(10)),
        "Some(ReversiMove(26))/s2688/i21/e9544526/v2688/w4653284941352665088",
        |t| {
            Box::new(DeviceTreeSearcher::new(
                cfg(52),
                device(t),
                LaunchConfig::new(4, 32),
            ))
        },
    );
}

#[test]
fn bounded_device_tree_identical_across_host_threads_and_pinned() {
    // Device-side LRU recycling replays the same touch order per block,
    // so capacity-capped resident trees keep the guarantee too.
    assert_identical_and_pinned(
        "bounded device-tree",
        SearchBudget::Iterations(8),
        "Some(ReversiMove(19))/s1024/i8/e3681036/v1024/w4647354175632441344",
        |t| {
            Box::new(DeviceTreeSearcher::new(
                cfg(53).with_tree_capacity(64),
                device(t),
                LaunchConfig::new(4, 32),
            ))
        },
    );
}

#[test]
fn hybrid_identical_across_host_threads_and_pinned() {
    assert_identical_and_pinned(
        "hybrid",
        SearchBudget::Iterations(5),
        "Some(ReversiMove(26))/s348/i5/e3857984/v348/w4640132583261208576",
        |t| {
            Box::new(HybridSearcher::new(
                cfg(23),
                device(t),
                LaunchConfig::new(2, 32),
            ))
        },
    );
}

#[test]
fn hybrid_time_budget_identical_across_host_threads_and_pinned() {
    // Shadow iterations fill every kernel flight after the first, bounded
    // by the previous kernel's virtual duration.
    assert_identical_and_pinned(
        "hybrid (time)",
        SearchBudget::VirtualTime(SimTime::from_millis(10)),
        "Some(ReversiMove(44))/s1613/i12/e9532423/v1613/w4649905042608881664",
        |t| {
            Box::new(HybridSearcher::new(
                cfg(30),
                device(t),
                LaunchConfig::new(4, 32),
            ))
        },
    );
}

#[test]
fn root_parallel_identical_across_host_threads() {
    assert_reports_identical("root", SearchBudget::Iterations(30), |t| {
        Box::new(RootParallelSearcher::new(cfg(24), 8).with_pool(Arc::new(WorkerPool::new(t))))
    });
}

#[test]
fn root_parallel_identical_on_shared_pool() {
    // Sharing a device's pool (instead of owning one) must not change
    // results either.
    let owned = RootParallelSearcher::<Reversi>::new(cfg(25), 6)
        .search(Reversi::initial(), SearchBudget::Iterations(20));
    let pool = Arc::new(WorkerPool::new(4));
    let shared = RootParallelSearcher::<Reversi>::new(cfg(25), 6)
        .with_pool(pool)
        .search(Reversi::initial(), SearchBudget::Iterations(20));
    assert_eq!(owned, shared);
}

#[test]
fn multi_gpu_identical_across_host_threads_and_pinned() {
    assert_identical_and_pinned(
        "multi-gpu",
        SearchBudget::Iterations(3),
        "Some(ReversiMove(26))/s576/i9/e2350868/v576/w4643492690795692032",
        |t| {
            Box::new(
                MultiGpuSearcher::new(
                    cfg(26),
                    3,
                    DeviceSpec::tesla_c2050(),
                    LaunchConfig::new(2, 32),
                    NetworkModel::infiniband(),
                )
                .with_pool(Arc::new(WorkerPool::new(t))),
            )
        },
    );
}

#[test]
fn multi_gpu_time_budget_identical_across_host_threads_and_pinned() {
    // Under a virtual-time budget every rank runs its own launch planner;
    // the merged report must see neither the rank fan-out nor the pool.
    assert_identical_and_pinned(
        "multi-gpu (time)",
        SearchBudget::VirtualTime(SimTime::from_millis(3)),
        "Some(ReversiMove(19))/s576/i9/e2362607/v576/w4643659816563113984",
        |t| {
            Box::new(
                MultiGpuSearcher::new(
                    cfg(55),
                    3,
                    DeviceSpec::tesla_c2050(),
                    LaunchConfig::new(2, 32),
                    NetworkModel::infiniband(),
                )
                .with_pool(Arc::new(WorkerPool::new(t))),
            )
        },
    );
}

#[test]
fn bounded_block_parallel_identical_across_host_threads() {
    // Capacity-capped trees recycle nodes through the LRU arena; the
    // eviction order is a pure function of the touch order, so the capped
    // searchers keep the same cross-host-thread guarantee as unbounded
    // ones. (See `tests/bounded_tree.rs` for the eviction-specific pins
    // and safety properties.)
    assert_reports_identical("bounded block", SearchBudget::Iterations(100), |t| {
        Box::new(BlockParallelSearcher::new(
            cfg(28).with_tree_capacity(64),
            device(t),
            LaunchConfig::new(4, 32),
        ))
    });
}

#[test]
fn bounded_hybrid_identical_across_host_threads_and_pinned() {
    assert_identical_and_pinned(
        "bounded hybrid",
        SearchBudget::Iterations(90),
        "Some(ReversiMove(37))/s6379/i90/e68257677/v6379/w4658867161886883840",
        |t| {
            Box::new(HybridSearcher::new(
                cfg(29).with_tree_capacity(64),
                device(t),
                LaunchConfig::new(2, 32),
            ))
        },
    );
}

// ---- 2b. WU-UCT and pipelined block-parallel (DESIGN.md §16) -------------

/// The canonical report fingerprint used by the pinned determinism tests:
/// best move, simulation/iteration counts, virtual elapsed nanoseconds and
/// the root-stat sums (wins bit-exact).
fn report_fingerprint(r: &SearchReport<pmcts_games::ReversiMove>) -> String {
    let visits: u64 = r.root_stats.iter().map(|s| s.visits).sum();
    let wins: f64 = r.root_stats.iter().map(|s| s.wins).sum();
    format!(
        "{:?}/s{}/i{}/e{}/v{}/w{}",
        r.best_move,
        r.simulations,
        r.iterations,
        r.elapsed.as_nanos(),
        visits,
        wins.to_bits()
    )
}

/// [`assert_reports_identical`] plus a pinned fingerprint: the WU-UCT
/// in-flight bookkeeping must neither see host-thread identity *nor* drift
/// across future changes (in-flight membership is part of the canonical
/// schedule now).
fn assert_identical_and_pinned<F>(what: &str, budget: SearchBudget, pin: &str, mut build: F)
where
    F: FnMut(usize) -> Box<dyn Searcher<Reversi>>,
{
    let mut got = None;
    assert_reports_identical(what, budget, |t| {
        let searcher = build(t);
        if got.is_none() {
            let r = build(t).search(Reversi::initial(), budget);
            got = Some(report_fingerprint(&r));
        }
        searcher
    });
    assert_eq!(
        got.as_deref(),
        Some(pin),
        "{what}: pinned fingerprint drifted"
    );
}

#[test]
fn wu_uct_identical_across_host_threads_and_pinned() {
    assert_identical_and_pinned(
        "wu-uct",
        SearchBudget::Iterations(6),
        "Some(ReversiMove(44))/s768/i6/e4725085/v768/w4645049599260622848",
        |t| {
            Box::new(WuUctSearcher::new(
                cfg(61),
                device(t),
                LaunchConfig::new(4, 32),
            ))
        },
    );
}

#[test]
fn wu_uct_time_budget_identical_across_host_threads_and_pinned() {
    assert_identical_and_pinned(
        "wu-uct (time)",
        SearchBudget::VirtualTime(SimTime::from_millis(10)),
        "Some(ReversiMove(44))/s1536/i12/e9474448/v1536/w4649896246515859456",
        |t| {
            Box::new(WuUctSearcher::new(
                cfg(62),
                device(t),
                LaunchConfig::new(4, 32),
            ))
        },
    );
}

#[test]
fn bounded_wu_uct_identical_across_host_threads_and_pinned() {
    // Capacity-capped shared tree: eviction must skip in-flight nodes and
    // stay a pure function of the touch order.
    assert_identical_and_pinned(
        "bounded wu-uct",
        SearchBudget::Iterations(100),
        "Some(ReversiMove(37))/s12800/i100/e78000802/v12800/w4663382856142159872",
        |t| {
            Box::new(WuUctSearcher::new(
                cfg(63).with_tree_capacity(64),
                device(t),
                LaunchConfig::new(4, 32),
            ))
        },
    );
}

#[test]
fn wu_uct_with_faults_identical_across_host_threads_and_pinned() {
    // The whole ladder — hang, retry, degrade, voided blocks — rolls
    // in-flight counts back identically on every host-thread count.
    assert_identical_and_pinned(
        "wu-uct+faults",
        SearchBudget::Iterations(8),
        "Some(ReversiMove(37))/s960/i8/e9259916/v960/w4646404197586042880",
        |t| {
            Box::new(WuUctSearcher::new(
                cfg(64).with_faults(mixed_plan(49)),
                device(t),
                LaunchConfig::new(4, 32),
            ))
        },
    );
}

#[test]
fn pipelined_identical_across_host_threads_and_pinned() {
    assert_identical_and_pinned(
        "pipelined",
        SearchBudget::Iterations(6),
        "Some(ReversiMove(19))/s768/i6/e4581860/v768/w4645119968004800512",
        |t| {
            Box::new(PipelinedSearcher::new(
                cfg(65),
                device(t),
                LaunchConfig::new(4, 32),
            ))
        },
    );
}

#[test]
fn pipelined_time_budget_identical_across_host_threads_and_pinned() {
    assert_identical_and_pinned(
        "pipelined (time)",
        SearchBudget::VirtualTime(SimTime::from_millis(10)),
        "Some(ReversiMove(26))/s1792/i14/e10657025/v1792/w4650485584748347392",
        |t| {
            Box::new(PipelinedSearcher::new(
                cfg(66),
                device(t),
                LaunchConfig::new(4, 32),
            ))
        },
    );
}

#[test]
fn bounded_pipelined_identical_across_host_threads_and_pinned() {
    assert_identical_and_pinned(
        "bounded pipelined",
        SearchBudget::Iterations(100),
        "Some(ReversiMove(37))/s12800/i100/e74060396/v12800/w4663392751746809856",
        |t| {
            Box::new(PipelinedSearcher::new(
                cfg(67).with_tree_capacity(64),
                device(t),
                LaunchConfig::new(4, 32),
            ))
        },
    );
}

#[test]
fn pipelined_with_faults_identical_across_host_threads_and_pinned() {
    assert_identical_and_pinned(
        "pipelined+faults",
        SearchBudget::Iterations(8),
        "Some(ReversiMove(19))/s868/i8/e11638112/v868/w4645383850795466752",
        |t| {
            Box::new(PipelinedSearcher::new(
                cfg(68).with_faults(mixed_plan(50)),
                device(t),
                LaunchConfig::new(4, 32),
            ))
        },
    );
}

#[test]
fn multi_node_cpu_identical_across_runs() {
    // Worker split is internal here; determinism is run-to-run.
    let run = || {
        MultiNodeCpuSearcher::<Reversi>::new(cfg(27), 2, 4, NetworkModel::infiniband())
            .search(Reversi::initial(), SearchBudget::Iterations(15))
    };
    assert_eq!(run(), run());
}

// ---- 3. Fault schedules identical across host-thread counts --------------

/// A mixed plan where every fault class has a real chance to fire.
fn mixed_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        gpu_slowdown_rate: 0.2,
        gpu_slowdown_factor: 3,
        gpu_hang_rate: 0.2,
        gpu_abort_rate: 0.2,
        net_delay_rate: 0.5,
        net_delay_factor: 3,
        net_drop_rate: 0.3,
        dead_component_rate: 0.3,
        ..FaultPlan::none()
    }
}

#[test]
fn leaf_parallel_with_faults_identical_across_host_threads() {
    assert_reports_identical("leaf+faults", SearchBudget::Iterations(10), |t| {
        Box::new(LeafParallelSearcher::new(
            cfg(31).with_faults(mixed_plan(41)),
            device(t),
            LaunchConfig::new(2, 32),
        ))
    });
}

#[test]
fn block_parallel_with_faults_identical_across_host_threads() {
    assert_reports_identical("block+faults", SearchBudget::Iterations(8), |t| {
        Box::new(BlockParallelSearcher::new(
            cfg(32).with_faults(mixed_plan(42)),
            device(t),
            LaunchConfig::new(4, 32),
        ))
    });
}

#[test]
fn device_tree_with_faults_identical_across_host_threads_and_pinned() {
    // Exercises the whole degradation ladder (slowdown, block abort, hang
    // dry-run, retry, host block-parallel fallback) under one mixed plan.
    assert_identical_and_pinned(
        "device-tree+faults",
        SearchBudget::Iterations(8),
        "Some(ReversiMove(26))/s1024/i8/e3660166/v1024/w4646791225679020032",
        |t| {
            Box::new(DeviceTreeSearcher::new(
                cfg(54).with_faults(mixed_plan(48)),
                device(t),
                LaunchConfig::new(4, 32),
            ))
        },
    );
}

#[test]
fn hybrid_with_faults_identical_across_host_threads_and_pinned() {
    assert_identical_and_pinned(
        "hybrid+faults",
        SearchBudget::Iterations(8),
        "Some(ReversiMove(19))/s454/i8/e9770852/v454/w4642208461214449664",
        |t| {
            Box::new(HybridSearcher::new(
                cfg(33).with_faults(mixed_plan(43)),
                device(t),
                LaunchConfig::new(2, 32),
            ))
        },
    );
}

#[test]
fn root_parallel_with_faults_identical_across_host_threads() {
    assert_reports_identical("root+faults", SearchBudget::Iterations(20), |t| {
        Box::new(
            RootParallelSearcher::new(cfg(34).with_faults(mixed_plan(44)), 8)
                .with_pool(Arc::new(WorkerPool::new(t))),
        )
    });
}

#[test]
fn multi_gpu_with_faults_identical_across_host_threads_and_pinned() {
    assert_identical_and_pinned(
        "multi-gpu+faults",
        SearchBudget::Iterations(3),
        "Some(ReversiMove(37))/s288/i6/e3898575/v288/w4638971498982277120",
        |t| {
            Box::new(
                MultiGpuSearcher::new(
                    cfg(35).with_faults(mixed_plan(45)),
                    3,
                    DeviceSpec::tesla_c2050(),
                    LaunchConfig::new(2, 32),
                    NetworkModel::infiniband(),
                )
                .with_pool(Arc::new(WorkerPool::new(t))),
            )
        },
    );
}

#[test]
fn multi_node_cpu_with_faults_identical_across_host_threads_and_pinned() {
    assert_identical_and_pinned(
        "multi-node-cpu+faults",
        SearchBudget::Iterations(10),
        "Some(ReversiMove(26))/s70/i70/e1047088/v70/w4630404104378646528",
        |t| {
            Box::new(
                MultiNodeCpuSearcher::new(
                    cfg(36).with_faults(mixed_plan(46)),
                    2,
                    4,
                    NetworkModel::infiniband(),
                )
                .with_pool(Arc::new(WorkerPool::new(t))),
            )
        },
    );
}

#[test]
fn multi_node_cpu_identical_across_host_threads_and_pinned() {
    // The shared host pool must never leak into results.
    assert_identical_and_pinned(
        "multi-node-cpu",
        SearchBudget::Iterations(10),
        "Some(ReversiMove(26))/s80/i80/e1056688/v80/w4629981891913580544",
        |t| {
            Box::new(
                MultiNodeCpuSearcher::new(cfg(47), 2, 4, NetworkModel::infiniband())
                    .with_pool(Arc::new(WorkerPool::new(t))),
            )
        },
    );
}

#[test]
fn sequential_and_persistent_identical_across_runs() {
    let seq = || {
        SequentialSearcher::<Reversi>::new(cfg(28))
            .search(Reversi::initial(), SearchBudget::Iterations(60))
    };
    assert_eq!(seq(), seq());
    let per = || {
        PersistentSearcher::<Reversi>::new(cfg(29))
            .search(Reversi::initial(), SearchBudget::Iterations(60))
    };
    assert_eq!(per(), per());
}

// ---- 4. Re-rooted persistent searches across host-thread counts ----------

/// Plays a short game where our moves come from a tree-reusing persistent
/// searcher and the opponent's replies from a block-parallel search run at
/// `threads` host workers. Every search a re-rooted persistent tree feeds
/// is downstream of the device pool, so the whole transcript — including
/// the compacting-copy re-roots — must be bit-identical across the
/// [`HOST_THREADS`] sweep.
fn persistent_reroot_transcript(
    threads: usize,
) -> Vec<(SearchReport<pmcts_games::ReversiMove>, u64)> {
    let mut ours = PersistentSearcher::<Reversi>::new(cfg(37));
    let mut opp = BlockParallelSearcher::new(cfg(38), device(threads), LaunchConfig::new(4, 32));
    let mut state = Reversi::initial();
    let mut transcript = Vec::new();
    for _ in 0..3 {
        let r = ours.search(state, SearchBudget::Iterations(150));
        transcript.push((r.clone(), ours.last_reused_visits()));
        let Some(mv) = r.best_move else { break };
        state.apply(mv);
        let Some(reply) = opp.search(state, SearchBudget::Iterations(4)).best_move else {
            break;
        };
        state.apply(reply);
    }
    transcript
}

#[test]
fn persistent_reroot_identical_across_host_threads() {
    let baseline = persistent_reroot_transcript(HOST_THREADS[0]);
    assert!(
        baseline.last().expect("non-empty game").1 > 0,
        "re-rooting must inherit simulations from the previous move's tree"
    );
    for &threads in &HOST_THREADS[1..] {
        assert_eq!(
            baseline,
            persistent_reroot_transcript(threads),
            "re-rooted transcript changed at {threads} host threads"
        );
    }
}

// ---- 5. Multi-session search service across host-thread counts -----------

/// A mixed service workload: sequential and block sessions, time and
/// iteration budgets, plus one session admitted mid-run. Returns the full
/// lifecycle of every session — ids, admission/completion clocks and the
/// complete report — which must be bit-identical for any host-thread
/// count.
#[allow(clippy::type_complexity)]
fn service_transcript(
    threads: usize,
) -> Vec<(
    u64,
    SimTime,
    SimTime,
    SearchReport<pmcts_games::ReversiMove>,
)> {
    let mut svc = SearchService::<Reversi>::new(device(threads), 32, 77);
    for s in 0..4u64 {
        svc.admit(
            Reversi::initial(),
            SearchBudget::VirtualTime(SimTime::from_millis(3)),
            cfg(50 + s),
            SessionScheme::Sequential,
            None,
        );
    }
    svc.admit(
        Reversi::initial(),
        SearchBudget::Iterations(4),
        cfg(60),
        SessionScheme::Block(2),
        None,
    );
    for _ in 0..2 {
        assert!(svc.step());
    }
    // Late admission: joins the batch from the next round on.
    svc.admit(
        Reversi::initial(),
        SearchBudget::VirtualTime(SimTime::from_millis(2)),
        cfg(61),
        SessionScheme::Sequential,
        None,
    );
    svc.run_to_completion();
    svc.take_completed()
        .into_iter()
        .map(|c| (c.id.0, c.admitted_at, c.completed_at, c.report))
        .collect()
}

/// A faulted service run: one session of every scheme under its own mixed
/// fault plan, packed into waves of three, so hangs stall merged launches
/// and slowdowns and aborts land on shared grids. One fingerprint line
/// (with fault counters) per retired session.
fn faulted_service_transcript(threads: usize) -> Vec<String> {
    let mut svc = SearchService::<Reversi>::new(device(threads), 32, 78);
    let schemes = [
        SessionScheme::Sequential,
        SessionScheme::Block(3),
        SessionScheme::WuUct(3),
        SessionScheme::Pipelined(3),
    ];
    for (s, scheme) in (0u64..).zip(schemes) {
        svc.admit(
            Reversi::initial(),
            SearchBudget::VirtualTime(SimTime::from_millis(30)),
            cfg(70 + s).with_faults(mixed_plan(80 + s)),
            scheme,
            None,
        );
    }
    while svc.step_wave(3) {}
    svc.take_completed()
        .iter()
        .map(|c| {
            let f = &c.report.phases.faults;
            format!(
                "{}@{}+{}:{}/f{},{},{}",
                c.id,
                c.admitted_at.as_nanos(),
                (c.completed_at - c.admitted_at).as_nanos(),
                report_fingerprint(&c.report),
                f.injected,
                f.retried,
                f.degraded
            )
        })
        .collect()
}

#[test]
fn faulted_service_identical_across_host_threads_and_pinned() {
    let baseline = faulted_service_transcript(HOST_THREADS[0]);
    for &threads in &HOST_THREADS[1..] {
        assert_eq!(
            baseline,
            faulted_service_transcript(threads),
            "faulted service transcript changed at {threads} host threads"
        );
    }
    assert_eq!(
        baseline, PINNED_FAULTED_SERVICE,
        "pinned transcript drifted"
    );
}

/// Pinned: the first three sessions share every wave until they retire;
/// the pipelined session waits, then runs one round on its own.
const PINNED_FAULTED_SERVICE: [&str; 4] = [
    "s0@0+27131471:Some(ReversiMove(26))/s130/i8/e27131471/v130/w4633359591634108416/f6,4,4",
    "s1@0+27131471:Some(ReversiMove(37))/s550/i8/e27131471/v550/w4643404729865469952/f6,4,7",
    "s2@0+27131471:Some(ReversiMove(26))/s582/i8/e27131471/v582/w4643457506423603200/f9,4,6",
    "s3@0+29378097:Some(ReversiMove(44))/s96/i1/e29378097/v96/w4630896685587890176/f1,0,0",
];

#[test]
fn search_service_identical_across_host_threads() {
    let baseline = service_transcript(HOST_THREADS[0]);
    assert_eq!(baseline.len(), 6, "every session must complete");
    for &threads in &HOST_THREADS[1..] {
        assert_eq!(
            baseline,
            service_transcript(threads),
            "service transcript changed at {threads} host threads"
        );
    }
}

#[test]
fn late_admitted_session_still_meets_deadline_under_full_batch() {
    // 15 long-running sessions saturate the batch; a session admitted
    // after three full rounds must still finish within one round of its
    // own (much shorter) deadline — the scheduler charges it only the
    // rounds it participates in, so an earlier-admitted cohort can never
    // starve it.
    let mut svc = SearchService::<Reversi>::new(device(2), 32, 9);
    for s in 0..15u64 {
        svc.admit(
            Reversi::initial(),
            SearchBudget::VirtualTime(SimTime::from_millis(40)),
            cfg(70 + s),
            SessionScheme::Sequential,
            None,
        );
    }
    for _ in 0..3 {
        assert!(svc.step());
    }
    let budget = SimTime::from_millis(5);
    let late = svc.admit(
        Reversi::initial(),
        SearchBudget::VirtualTime(budget),
        cfg(99),
        SessionScheme::Sequential,
        None,
    );
    let mut late_done = None;
    while late_done.is_none() {
        assert!(
            svc.step(),
            "service drained before the late session finished"
        );
        for c in svc.take_completed() {
            if c.id == late {
                late_done = Some(c);
            }
        }
    }
    let c = late_done.unwrap();
    // It really ran inside full batches (16 sessions per launch)...
    assert!(
        svc.launch_totals().max_sessions == 16,
        "late session never shared a full batch"
    );
    // ...was neither starved nor overshot: it used most of its budget and
    // stopped within one batched round of the deadline.
    assert_eq!(c.completed_at - c.admitted_at, c.report.elapsed);
    assert!(
        c.report.elapsed >= budget / 2,
        "late session starved: only {} of {}",
        c.report.elapsed,
        budget
    );
    assert!(
        c.report.elapsed < budget * 2,
        "late session blew its deadline: {} for {}",
        c.report.elapsed,
        budget
    );
    assert_eq!(
        c.report.phases.budget_overshoot,
        c.report.elapsed.saturating_sub(budget)
    );
    assert!(
        c.report.phases.queue > SimTime::ZERO,
        "queueing was accounted"
    );
}

// ---- 5b. Fleet placement/admission/faults across host-thread counts ------

/// A fleet workload exercising every deterministic decision at once: an
/// overload geometry (more offers than shard + queue capacity, mixed
/// priority classes, so admission control queues, displaces *and*
/// rejects), narrow SLO waves, and a fault plan that kills every shard
/// but rank 0 mid-run (re-placing their residents). Returns admissions,
/// the full completion transcript, the stats and the shard snapshots —
/// all of which must be bit-identical for any host-thread count.
#[allow(clippy::type_complexity)]
fn fleet_transcript(
    threads: usize,
) -> (
    Vec<String>,
    Vec<(
        u64,
        usize,
        pmcts_core::fleet::Priority,
        SimTime,
        SimTime,
        u32,
        SearchReport<pmcts_games::ReversiMove>,
    )>,
    pmcts_core::fleet::FleetStats,
    Vec<pmcts_core::fleet::ShardSnapshot>,
) {
    use pmcts_core::fleet::{Fleet, FleetConfig, Priority};
    let mut config = FleetConfig::new(41);
    config.shard_capacity = 3;
    config.queue_capacity = 2;
    config.wave_limit = 2;
    config.faults = FaultPlan::dead_component(13, 1.0);
    let mut fleet: Fleet<Reversi> =
        Fleet::new(config, Device::fleet(DeviceSpec::tesla_c2050(), 3, threads));
    let budget = SimTime::from_millis(3);
    // 3 shards x 3 slots + 2 queue slots = 11 < 14 offers: some must be
    // rejected, and the class mix forces a displacement.
    let admissions: Vec<String> = (0..14u64)
        .map(|s| {
            let a = fleet.offer(
                Reversi::initial(),
                SearchBudget::VirtualTime(budget),
                cfg(80 + s),
                Priority::ALL[(s % 3) as usize],
                Some(budget),
            );
            format!("{a:?}")
        })
        .collect();
    fleet.run_to_completion();
    let completed = fleet
        .take_completed()
        .into_iter()
        .map(|c| {
            assert_eq!(c.completed_at - c.admitted_at, c.report.elapsed);
            assert_eq!(c.report.phases.phase_sum(), c.report.elapsed);
            (
                c.id.0,
                c.shard.0,
                c.priority,
                c.admitted_at,
                c.completed_at,
                c.migrations,
                c.report,
            )
        })
        .collect();
    (admissions, completed, fleet.stats(), fleet.shards())
}

#[test]
fn fleet_identical_across_host_threads() {
    let baseline = fleet_transcript(HOST_THREADS[0]);
    let (admissions, completed, stats, shards) = &baseline;
    assert!(
        admissions.iter().any(|a| a == "Rejected"),
        "overload geometry must reject: {admissions:?}"
    );
    assert!(stats.rejected > 0 && stats.admitted + stats.rejected == stats.offered);
    assert_eq!(completed.len() as u64, stats.admitted);
    assert!(
        stats.replaced > 0,
        "dead shards must re-place their residents"
    );
    assert!(
        completed.iter().any(|c| c.5 > 0),
        "some completed session must have migrated off a dead shard"
    );
    assert!(shards[1].dead && shards[2].dead && !shards[0].dead);
    for &threads in &HOST_THREADS[1..] {
        assert_eq!(
            baseline,
            fleet_transcript(threads),
            "fleet transcript changed at {threads} host threads"
        );
    }
}

// ---- 6. Re-root compaction preserves every surviving node ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `extract_subtree` (the persistent searcher's re-root) is a
    /// compacting copy into fresh slabs: every node surviving the re-root
    /// must keep its exact `(visits, wins, depth)` triple, its untried
    /// moves, its state and its child structure — nothing else survives.
    #[test]
    fn reroot_compaction_preserves_surviving_subtrees(
        seed in any::<u64>(),
        iters in 30usize..250,
        pick in 0usize..8,
    ) {
        let mut tree = SearchTree::new(Reversi::initial());
        let mut rng = Xoshiro256pp::new(seed);
        for i in 0..iters {
            let id = tree.select(1.4);
            let node = if !tree.fully_expanded(id) {
                tree.expand(id, &mut rng)
            } else {
                id
            };
            tree.backprop(node, (i % 3) as f64 / 2.0, 1);
        }
        let root_children = tree.children(tree.root());
        prop_assume!(!root_children.is_empty());
        let new_root = root_children[pick % root_children.len()];
        let sub = tree.extract_subtree(new_root);

        // Walk old and new trees in parallel (children correspond in
        // order); every surviving node must match exactly.
        let mut stack = vec![(new_root, sub.root())];
        let mut visited = 0usize;
        while let Some((old_id, new_id)) = stack.pop() {
            visited += 1;
            prop_assert_eq!(tree.visits(old_id), sub.visits(new_id));
            prop_assert_eq!(tree.wins(old_id).to_bits(), sub.wins(new_id).to_bits());
            prop_assert_eq!(tree.depth(old_id), sub.depth(new_id) + tree.depth(new_root));
            prop_assert_eq!(tree.untried(old_id), sub.untried(new_id));
            prop_assert_eq!(tree.state(old_id), sub.state(new_id));
            let old_children = tree.children(old_id);
            let new_children = sub.children(new_id);
            prop_assert_eq!(old_children.len(), new_children.len());
            for (&o, &n) in old_children.iter().zip(new_children) {
                prop_assert_eq!(tree.move_into(o), sub.move_into(n));
                stack.push((o, n));
            }
        }
        prop_assert_eq!(visited, sub.len(), "subtree copied exactly once per survivor");
    }
}
