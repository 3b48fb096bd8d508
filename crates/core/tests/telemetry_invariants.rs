//! Phase-telemetry contracts shared by every searcher:
//!
//! 1. **Exactness** — the six phase times of `SearchReport::phases` sum to
//!    `elapsed` to the nanosecond (virtual time has no measurement noise).
//! 2. **Determinism** — the same seed yields a bit-identical breakdown.
//! 3. **Honest throughput** — a virtual-time budget's final iteration
//!    overshoot stays in `elapsed` (not clamped), so `sims_per_second`
//!    reflects time actually spent.

use pmcts_core::prelude::*;

type BoxedSearcher = Box<dyn Searcher<Reversi>>;

/// Every scheme in the taxonomy, built fresh for seed `seed`.
fn all_schemes(seed: u64) -> Vec<(&'static str, BoxedSearcher)> {
    let cfg = MctsConfig::default().with_seed(seed);
    let device = || Device::new(DeviceSpec::tesla_c2050());
    vec![
        (
            "sequential",
            Box::new(SequentialSearcher::<Reversi>::new(cfg.clone())) as BoxedSearcher,
        ),
        (
            "persistent",
            Box::new(PersistentSearcher::<Reversi>::new(cfg.clone())),
        ),
        (
            "leaf_parallel",
            Box::new(LeafParallelSearcher::<Reversi>::new(
                cfg.clone(),
                device(),
                LaunchConfig::new(4, 32),
            )),
        ),
        (
            "block_parallel",
            Box::new(BlockParallelSearcher::<Reversi>::new(
                cfg.clone(),
                device(),
                LaunchConfig::new(4, 32),
            )),
        ),
        (
            "device_tree",
            Box::new(DeviceTreeSearcher::<Reversi>::new(
                cfg.clone(),
                device(),
                LaunchConfig::new(4, 32),
            )),
        ),
        (
            "hybrid",
            Box::new(HybridSearcher::<Reversi>::new(
                cfg.clone(),
                device(),
                LaunchConfig::new(4, 32),
            )),
        ),
        (
            "root_parallel",
            Box::new(RootParallelSearcher::<Reversi>::new(cfg.clone(), 4)),
        ),
        (
            "multi_gpu",
            Box::new(MultiGpuSearcher::<Reversi>::new(
                cfg.clone(),
                3,
                DeviceSpec::tesla_c2050(),
                LaunchConfig::new(4, 32),
                NetworkModel::infiniband(),
            )),
        ),
        (
            "multi_node_cpu",
            Box::new(MultiNodeCpuSearcher::<Reversi>::new(
                cfg,
                3,
                2,
                NetworkModel::infiniband(),
            )),
        ),
    ]
}

#[test]
fn phase_times_sum_exactly_to_elapsed_for_every_scheme() {
    for (name, mut s) in all_schemes(11) {
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(6));
        assert_eq!(
            r.phases.phase_sum(),
            r.elapsed,
            "{name}: phases {:?} must sum to elapsed {}",
            r.phases,
            r.elapsed
        );
    }
}

#[test]
fn phase_times_sum_exactly_under_virtual_time_budgets() {
    let budget = SearchBudget::VirtualTime(SimTime::from_millis(5));
    for (name, mut s) in all_schemes(12) {
        let r = s.search(Reversi::initial(), budget);
        assert_eq!(
            r.phases.phase_sum(),
            r.elapsed,
            "{name}: breakdown must stay exact when the budget is time-based"
        );
    }
}

#[test]
fn same_seed_gives_bit_identical_breakdowns() {
    let run_all = || {
        all_schemes(13)
            .into_iter()
            .map(|(name, mut s)| {
                (
                    name,
                    s.search(Reversi::initial(), SearchBudget::Iterations(5)),
                )
            })
            .collect::<Vec<_>>()
    };
    for ((name, a), (_, b)) in run_all().into_iter().zip(run_all()) {
        assert_eq!(
            a.phases, b.phases,
            "{name}: same seed must reproduce the breakdown bit-for-bit"
        );
        assert_eq!(a.elapsed, b.elapsed, "{name}");
    }
}

#[test]
fn counters_match_report_for_gpu_schemes() {
    let cfg = MctsConfig::default().with_seed(14);
    let mut s = BlockParallelSearcher::<Reversi>::new(
        cfg,
        Device::new(DeviceSpec::tesla_c2050()),
        LaunchConfig::new(4, 32),
    );
    let r = s.search(Reversi::initial(), SearchBudget::Iterations(6));
    assert_eq!(r.phases.simulations, r.simulations);
    assert_eq!(r.phases.kernel_launches, r.iterations);
    // One expansion per tree per iteration from a fresh root.
    assert_eq!(r.phases.expansions, 4 * 6);
    assert!(r.phases.warp_steps > 0, "device stats must be folded in");
    let occ = r.phases.mean_occupancy();
    assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ} out of range");
    let eff = r.phases.lane_efficiency();
    assert!(
        eff > 0.0 && eff <= 1.0,
        "lane efficiency {eff} out of range"
    );
}

#[test]
fn hybrid_shadow_work_is_visible_and_consistent() {
    let cfg = MctsConfig::default().with_seed(15);
    let mut s = HybridSearcher::<Reversi>::new(
        cfg,
        Device::new(DeviceSpec::tesla_c2050()),
        LaunchConfig::new(4, 32),
    );
    let r = s.search(Reversi::initial(), SearchBudget::Iterations(8));
    let p = &r.phases;
    // Kernel estimate exists from iteration 2 on, so shadow work must run.
    assert!(p.shadow_iterations > 0, "CPU shadow iterations invisible");
    assert!(p.shadow_overlap > SimTime::ZERO);
    // Saved time is the hidden side of each window: never more than the
    // shadow work performed, and >0 once any overlap happened.
    assert!(p.overlap_saved > SimTime::ZERO);
    assert!(p.overlap_saved <= p.shadow_overlap);
    // GPU sims + one CPU sim per shadow iteration account for everything.
    assert_eq!(p.simulations, r.simulations);
    assert_eq!(p.simulations, 8 * 4 * 32 + p.shadow_iterations);
    assert_eq!(p.phase_sum(), r.elapsed);
}

#[test]
fn merge_phase_appears_only_on_mpi_schemes() {
    for (name, mut s) in all_schemes(16) {
        let r = s.search(Reversi::initial(), SearchBudget::Iterations(4));
        let is_mpi = name == "multi_gpu" || name == "multi_node_cpu";
        assert_eq!(
            r.phases.merge > SimTime::ZERO,
            is_mpi,
            "{name}: merge time {} unexpected",
            r.phases.merge
        );
    }
}

#[test]
fn virtual_time_elapsed_stays_within_one_iteration_of_budget() {
    // The deadline-aware tracker stops once the previous iteration's cost
    // no longer fits, and charges the full cost of every iteration it does
    // run: elapsed lands within one iteration of the budget on either side
    // and is never clamped to the budget line.
    let budget = SimTime::from_millis(3);
    let cfg = MctsConfig::default().with_seed(17);
    let cost = cfg.cpu_cost;
    let r = SequentialSearcher::<Reversi>::new(cfg)
        .search(Reversi::initial(), SearchBudget::VirtualTime(budget));
    let max_iter = cost.tree_op(r.max_depth) + cost.playout(Reversi::MAX_GAME_LENGTH as u32);
    assert!(
        r.elapsed >= budget.saturating_sub(max_iter),
        "elapsed {} stopped more than one iteration short of {}",
        r.elapsed,
        budget
    );
    assert!(r.elapsed <= budget + max_iter);
    // Any overshoot past the deadline is recorded verbatim in the ledger,
    // outside the phase sum.
    assert_eq!(r.phases.budget_overshoot, r.elapsed.saturating_sub(budget));
    assert_eq!(r.phases.phase_sum(), r.elapsed);
}
