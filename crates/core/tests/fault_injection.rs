//! Fault-injection acceptance suite.
//!
//! Three layers of guarantees:
//!
//! 1. **Zero-fault regression pins**: `FaultPlan::none()` (the default)
//!    reproduces the pre-fault-layer reports bit-for-bit. The fingerprints
//!    below were captured from the seed implementation before the fault
//!    layer existed; any drift means the zero-fault path changed.
//! 2. **Faults fire and are accounted**: each fault class injects, and the
//!    `FaultCounters` arithmetic (injected / retried / degraded / excluded)
//!    matches the response policy exactly.
//! 3. **Graceful degradation**: every scheme still returns a best move
//!    under 100% fault rates, the phase-sum identity `phase_sum() ==
//!    elapsed` survives every fault path, and merged statistics stay
//!    additive over the surviving components — for root-parallel,
//!    multi-GPU and multi-node search also over random component counts
//!    and mixed dead / dropped / delayed plans (one ensemble merge).

use pmcts_core::prelude::*;
use pmcts_gpu_sim::WorkerPool;
use pmcts_mpi_sim::NetworkModel;
use proptest::prelude::*;
use std::sync::Arc;

fn fingerprint<M: std::fmt::Debug>(r: &SearchReport<M>) -> String {
    let visits: u64 = r.root_stats.iter().map(|s| s.visits).sum();
    let wins: f64 = r.root_stats.iter().map(|s| s.wins).sum();
    format!(
        "{:?}/s{}/i{}/n{}/d{}/e{}/v{}/w{}",
        r.best_move,
        r.simulations,
        r.iterations,
        r.tree_nodes,
        r.max_depth,
        r.elapsed.as_nanos(),
        visits,
        wins.to_bits()
    )
}

fn cfg(seed: u64) -> MctsConfig {
    MctsConfig::default().with_seed(seed)
}

fn device() -> Device {
    Device::new(DeviceSpec::tesla_c2050()).with_host_threads(2)
}

fn pool(workers: usize) -> Arc<WorkerPool> {
    Arc::new(WorkerPool::new(workers))
}

fn assert_healthy<M: Copy>(r: &SearchReport<M>) {
    assert!(r.best_move.is_some(), "search must still produce a move");
    assert_eq!(
        r.phases.phase_sum(),
        r.elapsed,
        "phase-sum identity must survive fault paths"
    );
}

// ---------------------------------------------------------------------------
// 1. Zero-fault regression pins (captured from the pre-fault seed).
// ---------------------------------------------------------------------------

fn leaf_run(faults: FaultPlan) -> SearchReport<<Reversi as Game>::Move> {
    LeafParallelSearcher::<Reversi>::new(
        cfg(101).with_faults(faults),
        device(),
        LaunchConfig::new(2, 32),
    )
    .search(Reversi::initial(), SearchBudget::Iterations(6))
}

fn block_run(faults: FaultPlan) -> SearchReport<<Reversi as Game>::Move> {
    BlockParallelSearcher::<Reversi>::new(
        cfg(102).with_faults(faults),
        device(),
        LaunchConfig::new(4, 32),
    )
    .search(Reversi::initial(), SearchBudget::Iterations(5))
}

fn hybrid_run(faults: FaultPlan) -> SearchReport<<Reversi as Game>::Move> {
    HybridSearcher::<Reversi>::new(
        cfg(103).with_faults(faults),
        device(),
        LaunchConfig::new(2, 32),
    )
    .search(Reversi::initial(), SearchBudget::Iterations(5))
}

#[test]
fn zero_fault_pin_leaf() {
    assert_eq!(
        fingerprint(&leaf_run(FaultPlan::none())),
        "Some(ReversiMove(44))/s384/i6/n7/d2/e4566665/v384/w4640466834796052480"
    );
}

#[test]
fn zero_fault_pin_block() {
    assert_eq!(
        fingerprint(&block_run(FaultPlan::none())),
        "Some(ReversiMove(37))/s640/i5/n24/d2/e3993536/v640/w4644222766516535296"
    );
}

#[test]
fn zero_fault_pin_hybrid() {
    assert_eq!(
        fingerprint(&hybrid_run(FaultPlan::none())),
        "Some(ReversiMove(26))/s348/i5/n40/d3/e3846165/v348/w4640062214517030912"
    );
}

#[test]
fn zero_fault_pin_root_parallel() {
    let r = RootParallelSearcher::<Reversi>::new(cfg(104), 4)
        .with_pool(pool(2))
        .search(Reversi::initial(), SearchBudget::Iterations(20));
    assert_eq!(
        fingerprint(&r),
        "Some(ReversiMove(37))/s80/i80/n84/d3/e2075240/v80/w4630333735634468864"
    );
}

#[test]
fn zero_fault_pin_multi_gpu() {
    let r = MultiGpuSearcher::<Reversi>::new(
        cfg(105),
        2,
        DeviceSpec::tesla_c2050(),
        LaunchConfig::new(2, 32),
        NetworkModel::infiniband(),
    )
    .with_pool(pool(2))
    .search(Reversi::initial(), SearchBudget::Iterations(3));
    assert_eq!(
        fingerprint(&r),
        "Some(ReversiMove(44))/s384/i6/n16/d1/e2346820/v384/w4640783494144851968"
    );
}

#[test]
fn zero_fault_pin_multi_node_cpu() {
    let r = MultiNodeCpuSearcher::<Reversi>::new(cfg(106), 2, 3, NetworkModel::infiniband())
        .search(Reversi::initial(), SearchBudget::Iterations(10));
    assert_eq!(
        fingerprint(&r),
        "Some(ReversiMove(44))/s60/i60/n66/d2/e1053488/v60/w4627730092099895296"
    );
}

#[test]
fn none_plan_reports_zero_fault_counters() {
    for r in [
        leaf_run(FaultPlan::none()),
        block_run(FaultPlan::none()),
        hybrid_run(FaultPlan::none()),
    ] {
        assert!(!r.phases.faults.any(), "no faults under FaultPlan::none()");
    }
}

// ---------------------------------------------------------------------------
// 2. Each fault class fires and is accounted exactly.
// ---------------------------------------------------------------------------

#[test]
fn slowdown_inflates_time_but_not_results() {
    let clean = leaf_run(FaultPlan::none());
    let slow = leaf_run(FaultPlan::gpu_slowdown(7, 1.0, 4));
    // The kernel still executed with identical randomness: same statistics.
    assert_eq!(slow.root_stats, clean.root_stats);
    assert_eq!(slow.best_move, clean.best_move);
    assert_eq!(slow.simulations, clean.simulations);
    // Only virtual time grew, and every launch was flagged.
    assert!(slow.elapsed > clean.elapsed);
    assert_eq!(slow.phases.faults.injected, slow.iterations);
    assert_eq!(slow.phases.faults.retried, 0);
    assert_eq!(slow.phases.faults.degraded, 0);
    assert_healthy(&slow);
}

#[test]
fn leaf_hang_retries_once_then_degrades_to_cpu() {
    let r = leaf_run(FaultPlan::gpu_hang(8, 1.0));
    // Every iteration: hang, retry, hang again, one CPU playout.
    assert_eq!(r.phases.faults.injected, 2 * r.iterations);
    assert_eq!(r.phases.faults.retried, r.iterations);
    assert_eq!(r.phases.faults.degraded, r.iterations);
    assert_eq!(r.simulations, r.iterations, "one CPU playout per iteration");
    assert_healthy(&r);
}

#[test]
fn block_hang_degrades_every_tree() {
    let r = block_run(FaultPlan::gpu_hang(9, 1.0));
    // 4 trees per iteration, one CPU playout each after the double hang.
    assert_eq!(r.phases.faults.retried, r.iterations);
    assert_eq!(r.phases.faults.degraded, 4 * r.iterations);
    assert_eq!(r.simulations, 4 * r.iterations);
    assert_healthy(&r);
}

#[test]
fn block_abort_voids_exactly_one_block() {
    let clean = block_run(FaultPlan::none());
    let r = block_run(FaultPlan::gpu_abort(10, 1.0));
    // One of 4 blocks voided per launch: 3/4 of the clean simulations.
    assert_eq!(r.simulations, clean.simulations / 4 * 3);
    assert_eq!(r.phases.faults.injected, r.iterations);
    assert_eq!(r.phases.faults.degraded, r.iterations);
    let visits: u64 = r.root_stats.iter().map(|s| s.visits).sum();
    assert_eq!(visits, r.simulations, "voided lanes never reach the trees");
    assert_healthy(&r);
}

#[test]
fn hybrid_absorbs_hangs_with_cpu_shadow_work() {
    let r = hybrid_run(FaultPlan::gpu_hang(11, 1.0));
    // Every kernel hangs; all simulations come from the CPU shadow loop
    // that extends to the virtual deadline.
    assert_eq!(r.phases.faults.injected, r.iterations);
    assert_eq!(r.phases.faults.retried, 0, "a hybrid hang is never retried");
    assert_eq!(r.phases.faults.degraded, r.iterations);
    assert!(r.simulations > 0, "shadow iterations keep the search alive");
    assert_eq!(r.phases.simulations, r.simulations);
    assert_healthy(&r);
    // Pinned: after a hang the next shadow window is the hung kernel's
    // nominal duration, not its deadline.
    assert_eq!(
        fingerprint(&r),
        "Some(ReversiMove(44))/s70/i5/n82/d4/e7565408/v70/w4630122629401935872"
    );
}

#[test]
fn net_delay_spikes_merge_cost_only() {
    let mk = |faults: FaultPlan| {
        MultiGpuSearcher::<Reversi>::new(
            cfg(105).with_faults(faults),
            2,
            DeviceSpec::tesla_c2050(),
            LaunchConfig::new(2, 32),
            NetworkModel::infiniband(),
        )
        .with_pool(pool(2))
        .search(Reversi::initial(), SearchBudget::Iterations(3))
    };
    let clean = mk(FaultPlan::none());
    let delayed = mk(FaultPlan::net_delay(12, 1.0, 3));
    assert_eq!(delayed.root_stats, clean.root_stats);
    assert_eq!(delayed.best_move, clean.best_move);
    assert!(delayed.elapsed > clean.elapsed);
    assert_eq!(delayed.phases.faults.injected, 1);
    assert_eq!(delayed.phases.merge, clean.phases.merge * 3);
    assert_healthy(&delayed);
}

// ---------------------------------------------------------------------------
// 3. Graceful degradation: survivors carry the search.
// ---------------------------------------------------------------------------

#[test]
fn multi_gpu_survives_dead_ranks() {
    let ranks = 3;
    let r = MultiGpuSearcher::<Reversi>::new(
        cfg(113).with_faults(FaultPlan::dead_component(13, 1.0)),
        ranks,
        DeviceSpec::tesla_c2050(),
        LaunchConfig::new(2, 32),
        NetworkModel::infiniband(),
    )
    .with_pool(pool(2))
    .search(Reversi::initial(), SearchBudget::Iterations(3));
    // Rank 0 is immune; ranks 1 and 2 are dead and contribute nothing.
    assert_eq!(r.phases.faults.excluded, (ranks - 1) as u64);
    assert_eq!(r.simulations, 3 * 2 * 32, "only rank 0 searched");
    let visits: u64 = r.root_stats.iter().map(|s| s.visits).sum();
    assert_eq!(visits, r.simulations, "merge is additive over survivors");
    assert_healthy(&r);
}

#[test]
fn multi_gpu_dropped_contribution_is_excluded_from_merge() {
    let r = MultiGpuSearcher::<Reversi>::new(
        cfg(114).with_faults(FaultPlan::net_drop(14, 1.0)),
        2,
        DeviceSpec::tesla_c2050(),
        LaunchConfig::new(2, 32),
        NetworkModel::infiniband(),
    )
    .with_pool(pool(2))
    .search(Reversi::initial(), SearchBudget::Iterations(3));
    // Both ranks searched (simulations count them all) but rank 1's packet
    // was dropped: its statistics are missing from the merge.
    assert_eq!(r.simulations, 2 * 3 * 2 * 32);
    let visits: u64 = r.root_stats.iter().map(|s| s.visits).sum();
    assert_eq!(visits, r.simulations / 2, "only rank 0's stats merged");
    assert_eq!(r.phases.faults.excluded, 1);
    assert_healthy(&r);
}

#[test]
fn multi_node_cpu_survives_dead_ranks() {
    let r = MultiNodeCpuSearcher::<Reversi>::new(
        cfg(115).with_faults(FaultPlan::dead_component(15, 1.0)),
        2,
        3,
        NetworkModel::infiniband(),
    )
    .search(Reversi::initial(), SearchBudget::Iterations(10));
    // Dead-component faults apply at every nesting level: rank 1 dies at
    // the cluster level, and inside surviving rank 0 the root-parallel
    // trees 1 and 2 die too. Immune component 0 of immune rank 0 carries
    // the whole search.
    assert_eq!(r.simulations, 10);
    assert_eq!(r.phases.faults.excluded, 1 + 2);
    let visits: u64 = r.root_stats.iter().map(|s| s.visits).sum();
    assert_eq!(visits, r.simulations);
    assert_healthy(&r);
}

#[test]
fn root_parallel_survives_dead_trees() {
    let r = RootParallelSearcher::<Reversi>::new(
        cfg(116).with_faults(FaultPlan::dead_component(16, 1.0)),
        4,
    )
    .with_pool(pool(2))
    .search(Reversi::initial(), SearchBudget::Iterations(20));
    // Trees 1..3 dead; tree 0 alone runs its full budget.
    assert_eq!(r.simulations, 20);
    assert_eq!(r.phases.faults.excluded, 3);
    assert_healthy(&r);
}

#[test]
fn faulty_runs_are_deterministic_across_host_workers() {
    let run = |workers: usize| {
        RootParallelSearcher::<Reversi>::new(
            cfg(117).with_faults(FaultPlan::dead_component(17, 0.5)),
            8,
        )
        .with_pool(pool(workers))
        .search(Reversi::initial(), SearchBudget::Iterations(15))
    };
    assert_eq!(run(1), run(8), "fault schedule must not depend on timing");
}

#[test]
fn low_rate_faults_fire_somewhere_but_not_everywhere() {
    // A 30% hang rate over many iterations must inject at least once and
    // leave at least one launch clean — i.e. the schedule is genuinely
    // per-epoch, not all-or-nothing.
    let r = LeafParallelSearcher::<Reversi>::new(
        cfg(118).with_faults(FaultPlan::gpu_hang(18, 0.3)),
        device(),
        LaunchConfig::new(2, 32),
    )
    .search(Reversi::initial(), SearchBudget::Iterations(40));
    assert!(r.phases.faults.injected > 0, "30% over 40 iters must fire");
    assert!(
        r.phases.faults.injected < 2 * r.iterations,
        "not every launch may hang at a 30% rate"
    );
    assert_healthy(&r);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The one ensemble merge behind root-parallel, multi-GPU and
    /// multi-node search: under random seeds, component counts and mixed
    /// dead / dropped / delayed plans the ledger stays exact, the merged
    /// root visits are exactly the work of the components whose statistics
    /// reached the merge, and `excluded` counts exactly the dead and
    /// dropped components that the pure plan names.
    #[test]
    fn ensemble_merge_accounts_for_every_component(
        seed in any::<u64>(),
        n in 1usize..5,
        dead_pct in 0u32..101,
        drop_pct in 0u32..101,
        delay_pct in 0u32..101,
    ) {
        let plan = FaultPlan {
            seed,
            dead_component_rate: f64::from(dead_pct) / 100.0,
            net_drop_rate: f64::from(drop_pct) / 100.0,
            net_delay_rate: f64::from(delay_pct) / 100.0,
            net_delay_factor: 3,
            ..FaultPlan::none()
        };
        let config = cfg(seed).with_faults(plan);
        let components = n as u64;
        let count = |hit: &dyn Fn(u64) -> bool| (0..components).filter(|&c| hit(c)).count() as u64;
        // A fresh searcher's first search is generation 1: root parallelism
        // keys tree faults by (stream base 0) ^ generation · φ, the rank
        // driver keys rank faults by the generation itself.
        let tree_key = 0x9E37_79B9_7F4A_7C15;
        let dead_trees = count(&|c| plan.component_dead(tree_key, c));
        let dead_ranks = count(&|c| plan.component_dead(1, c));
        let dropped_ranks = count(&|c| !plan.component_dead(1, c) && plan.drops_contribution(1, c));

        let (root, iters) = (Reversi::initial(), 3);
        let budget = SearchBudget::Iterations(iters);
        let net = NetworkModel::infiniband();
        // (scheme, report, simulations per live component, dead, dropped):
        // a rank of 2 × 32 lanes runs 64 playouts per iteration; one thread
        // per node keeps every multi-node rank at exactly its budget.
        let cases = [
            (
                "root_parallel",
                RootParallelSearcher::<Reversi>::new(config.clone(), n)
                    .with_pool(pool(2))
                    .search(root, budget),
                iters,
                dead_trees,
                0,
            ),
            (
                "multi_gpu",
                MultiGpuSearcher::<Reversi>::new(
                    config.clone(),
                    n,
                    DeviceSpec::tesla_c2050(),
                    LaunchConfig::new(2, 32),
                    net,
                )
                .with_pool(pool(2))
                .search(root, budget),
                iters * 64,
                dead_ranks,
                dropped_ranks,
            ),
            (
                "multi_node_cpu",
                MultiNodeCpuSearcher::<Reversi>::new(config, n, 1, net)
                    .with_pool(pool(2))
                    .search(root, budget),
                iters,
                dead_ranks,
                dropped_ranks,
            ),
        ];
        for (scheme, r, per, dead, dropped) in cases {
            prop_assert_eq!(r.phases.phase_sum(), r.elapsed, "{} ledger", scheme);
            prop_assert_eq!(r.simulations, per * (components - dead), "{} work", scheme);
            let visits: u64 = r.root_stats.iter().map(|s| s.visits).sum();
            prop_assert_eq!(
                visits,
                per * (components - dead - dropped),
                "{} merged visits",
                scheme
            );
            prop_assert_eq!(r.phases.faults.excluded, dead + dropped, "{} excluded", scheme);
        }
    }
}
