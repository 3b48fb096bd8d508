//! Virtual-time accounting contracts: searchers must charge their budgets
//! within provable bounds derived from the cost models.

use pmcts_core::cost::CpuCostModel;
use pmcts_core::prelude::*;
use pmcts_games::Game;

#[test]
fn sequential_elapsed_is_bounded_by_cost_model() {
    let cfg = MctsConfig::default().with_seed(1);
    let cost = cfg.cpu_cost;
    let iters = 200u64;
    let r = SequentialSearcher::<Reversi>::new(cfg)
        .search(Reversi::initial(), SearchBudget::Iterations(iters));
    // Lower bound: every iteration pays at least the tree-op base.
    assert!(r.elapsed >= cost.tree_op_base * iters);
    // Upper bound: no iteration can cost more than the deepest tree op plus
    // the longest possible playout.
    let per_iter_max = cost.tree_op(r.max_depth) + cost.playout(Reversi::MAX_GAME_LENGTH as u32);
    assert!(r.elapsed <= per_iter_max * iters);
}

#[test]
fn free_cost_model_spends_zero_virtual_time() {
    let cfg = MctsConfig::default()
        .with_seed(2)
        .with_cpu_cost(CpuCostModel::free());
    let r = SequentialSearcher::<Reversi>::new(cfg)
        .search(Reversi::initial(), SearchBudget::Iterations(50));
    assert_eq!(r.elapsed, SimTime::ZERO);
    assert_eq!(r.simulations, 50);
}

#[test]
fn leaf_parallel_pays_launch_overhead_every_iteration() {
    let device = Device::c2050();
    let overhead = device.spec().launch_overhead;
    let iters = 5u64;
    let r = LeafParallelSearcher::<Reversi>::new(
        MctsConfig::default().with_seed(3),
        device,
        LaunchConfig::new(2, 32),
    )
    .search(Reversi::initial(), SearchBudget::Iterations(iters));
    assert!(
        r.elapsed >= overhead * iters,
        "{} < {} x {iters}",
        r.elapsed,
        overhead
    );
}

#[test]
fn block_parallel_host_cost_grows_with_tree_count() {
    // Same total threads AND same per-SM warp load (2 warps per SM on the
    // 14-SM device), different tree counts: more trees => more
    // host-sequential time per iteration => larger elapsed for the same
    // iteration count (the Fig. 5 effect, verified at the accounting level).
    let budget = SearchBudget::Iterations(4);
    let few = BlockParallelSearcher::<Reversi>::new(
        MctsConfig::default().with_seed(4),
        Device::c2050(),
        LaunchConfig::new(14, 64), // 14 trees, 2 warps each
    )
    .search(Reversi::initial(), budget);
    let many = BlockParallelSearcher::<Reversi>::new(
        MctsConfig::default().with_seed(4),
        Device::c2050(),
        LaunchConfig::new(28, 32), // 28 trees, 1 warp each
    )
    .search(Reversi::initial(), budget);
    assert_eq!(few.simulations, many.simulations, "same grid size");
    assert!(
        many.elapsed > few.elapsed,
        "32 trees ({}) must cost more than 4 trees ({})",
        many.elapsed,
        few.elapsed
    );
}

#[test]
fn virtual_time_budget_is_respected_within_one_iteration() {
    // The deadline-aware stopping rule lands within one iteration's cost of
    // the budget on either side: it stops as soon as the previous
    // iteration's cost no longer fits, and only overshoots when the final
    // iteration costs more than its predecessor.
    let budget_time = SimTime::from_millis(10);
    let r = SequentialSearcher::<Reversi>::new(MctsConfig::default().with_seed(5))
        .search(Reversi::initial(), SearchBudget::VirtualTime(budget_time));
    let cost = MctsConfig::default().cpu_cost;
    let max_iter_cost = cost.tree_op(r.max_depth) + cost.playout(Reversi::MAX_GAME_LENGTH as u32);
    assert!(r.elapsed >= budget_time.saturating_sub(max_iter_cost));
    assert!(r.elapsed <= budget_time + max_iter_cost);
    // The recorded overshoot matches elapsed vs budget exactly and stays
    // under one iteration's cost.
    assert_eq!(
        r.phases.budget_overshoot,
        r.elapsed.saturating_sub(budget_time)
    );
    assert!(r.phases.budget_overshoot < max_iter_cost);
}

#[test]
fn budget_overshoot_is_bounded_for_every_scheme() {
    // The fairness fix: no scheme gets more than one iteration's grace past
    // a virtual-time deadline, however expensive its iterations are — and
    // the recorded overshoot must equal elapsed − budget exactly.
    let budget_time = SimTime::from_millis(30);
    let budget = SearchBudget::VirtualTime(budget_time);
    let device = || Device::c2050();
    let launch = LaunchConfig::new(4, 32);
    let root = Reversi::initial();
    let cfg = || MctsConfig::default().with_seed(11);

    let reports: Vec<(String, SearchReport<_>)> = vec![
        (
            "sequential".into(),
            SequentialSearcher::<Reversi>::new(cfg()).search(root, budget),
        ),
        (
            "leaf".into(),
            LeafParallelSearcher::<Reversi>::new(cfg(), device(), launch).search(root, budget),
        ),
        (
            "block".into(),
            BlockParallelSearcher::<Reversi>::new(cfg(), device(), launch).search(root, budget),
        ),
        (
            "hybrid".into(),
            HybridSearcher::<Reversi>::new(cfg(), device(), launch).search(root, budget),
        ),
        (
            "device_tree".into(),
            DeviceTreeSearcher::<Reversi>::new(cfg(), device(), launch).search(root, budget),
        ),
        (
            "root".into(),
            RootParallelSearcher::<Reversi>::new(cfg(), 4).search(root, budget),
        ),
    ];
    for (name, r) in &reports {
        assert_eq!(
            r.phases.budget_overshoot,
            r.elapsed.saturating_sub(budget_time),
            "{name}: overshoot must be exactly elapsed - budget"
        );
        // One iteration can cost at most one worst-case tree op per tree
        // plus the full kernel round; bound it loosely by the whole budget
        // and tightly by requiring elapsed < 2x budget.
        assert!(
            r.elapsed < budget_time * 2,
            "{name}: elapsed {} runs far past the {} budget",
            r.elapsed,
            budget_time
        );
        assert!(
            r.phases.budget_overshoot < budget_time,
            "{name}: overshoot {} is no smaller than an entire budget",
            r.phases.budget_overshoot
        );
    }
}

#[test]
fn multi_gpu_charges_allreduce_on_top_of_search() {
    let budget = SearchBudget::Iterations(3);
    let launch = LaunchConfig::new(4, 32);
    let ideal = MultiGpuSearcher::<Reversi>::new(
        MctsConfig::default().with_seed(6),
        4,
        DeviceSpec::tesla_c2050(),
        launch,
        NetworkModel::ideal(),
    )
    .search(Reversi::initial(), budget);
    let infiniband = MultiGpuSearcher::<Reversi>::new(
        MctsConfig::default().with_seed(6),
        4,
        DeviceSpec::tesla_c2050(),
        launch,
        NetworkModel::infiniband(),
    )
    .search(Reversi::initial(), budget);
    assert!(
        infiniband.elapsed > ideal.elapsed,
        "a real network must cost more than an ideal one"
    );
}

#[test]
fn sims_per_second_is_scale_invariant_in_iterations() {
    // Throughput should be roughly independent of how long we run (no
    // leaks/superlinearity in the accounting): 4 vs 16 iterations within 30%.
    let rate = |iters| {
        BlockParallelSearcher::<Reversi>::new(
            MctsConfig::default().with_seed(7),
            Device::c2050(),
            LaunchConfig::new(8, 64),
        )
        .search(Reversi::initial(), SearchBudget::Iterations(iters))
        .sims_per_second()
    };
    let short = rate(4);
    let long = rate(16);
    let ratio = short / long;
    assert!(
        (0.7..1.3).contains(&ratio),
        "throughput drifted: {short} vs {long}"
    );
}
