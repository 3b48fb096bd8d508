//! Edge-case and equivalence tests across the searcher implementations.

use pmcts_core::prelude::*;
use pmcts_games::TicTacToe;

fn cfg(seed: u64) -> MctsConfig {
    MctsConfig::default().with_seed(seed)
}

#[test]
fn zero_iteration_budget_yields_no_work_but_no_crash() {
    let budget = SearchBudget::Iterations(0);
    let r = SequentialSearcher::<Reversi>::new(cfg(1)).search(Reversi::initial(), budget);
    assert_eq!(r.simulations, 0);
    assert_eq!(r.best_move, None, "no children expanded");
    let r =
        BlockParallelSearcher::<Reversi>::new(cfg(1), Device::c2050(), LaunchConfig::new(2, 32))
            .search(Reversi::initial(), budget);
    assert_eq!(r.simulations, 0);
    let r = RootParallelSearcher::<Reversi>::new(cfg(1), 2).search(Reversi::initial(), budget);
    assert_eq!(r.simulations, 0);
}

#[test]
fn zero_time_budget_yields_no_work() {
    let budget = SearchBudget::VirtualTime(SimTime::ZERO);
    for report in [
        SequentialSearcher::<Reversi>::new(cfg(2)).search(Reversi::initial(), budget),
        LeafParallelSearcher::<Reversi>::new(cfg(2), Device::c2050(), LaunchConfig::new(1, 32))
            .search(Reversi::initial(), budget),
    ] {
        assert_eq!(report.simulations, 0);
        assert_eq!(report.elapsed, SimTime::ZERO);
    }
}

#[test]
fn mcts_player_falls_back_to_legal_move_on_empty_search() {
    // With a zero budget the searcher returns no move; the player must
    // still produce something legal rather than crash the arena.
    let mut player = MctsPlayer::new(
        SequentialSearcher::<Reversi>::new(cfg(3)),
        SearchBudget::Iterations(0),
    );
    let state = Reversi::initial();
    let mv = player.choose(&state).expect("fallback move");
    let mut buf = pmcts_games::MoveBuf::new();
    pmcts_games::Game::legal_moves(&state, &mut buf);
    assert!(buf.contains(&mv));
}

#[test]
fn single_block_block_parallel_equals_leaf_parallel_geometry() {
    // With one tree, block parallelism degenerates to leaf parallelism:
    // same per-iteration simulation count and tree size (stats differ only
    // through RNG streams).
    let budget = SearchBudget::Iterations(8);
    let leaf =
        LeafParallelSearcher::<Reversi>::new(cfg(4), Device::c2050(), LaunchConfig::new(1, 64))
            .search(Reversi::initial(), budget);
    let block =
        BlockParallelSearcher::<Reversi>::new(cfg(4), Device::c2050(), LaunchConfig::new(1, 64))
            .search(Reversi::initial(), budget);
    assert_eq!(leaf.simulations, block.simulations);
    assert_eq!(leaf.tree_nodes, block.tree_nodes);
    assert_eq!(leaf.iterations, block.iterations);
}

#[test]
fn single_rank_multi_gpu_matches_block_parallel_scale() {
    let budget = SearchBudget::Iterations(5);
    let launch = LaunchConfig::new(4, 32);
    let multi = MultiGpuSearcher::<Reversi>::new(
        cfg(5),
        1,
        DeviceSpec::tesla_c2050(),
        launch,
        NetworkModel::ideal(),
    )
    .search(Reversi::initial(), budget);
    let block = BlockParallelSearcher::<Reversi>::new(cfg(5), Device::c2050(), launch)
        .search(Reversi::initial(), budget);
    assert_eq!(multi.simulations, block.simulations);
    assert_eq!(multi.iterations, block.iterations);
}

#[test]
fn all_parallel_searchers_handle_near_terminal_positions() {
    // One move before the end of a Tic-Tac-Toe game: every scheme must
    // find the only sensible move without panicking on tiny trees.
    let s = TicTacToe::parse("XOX XXO OX.", Player::P1).unwrap();
    assert!(!pmcts_games::Game::is_terminal(&s));
    let budget = SearchBudget::Iterations(4);
    let moves = [
        SequentialSearcher::<TicTacToe>::new(cfg(6))
            .search(s, budget)
            .best_move,
        LeafParallelSearcher::<TicTacToe>::new(cfg(6), Device::c2050(), LaunchConfig::new(1, 32))
            .search(s, budget)
            .best_move,
        BlockParallelSearcher::<TicTacToe>::new(cfg(6), Device::c2050(), LaunchConfig::new(2, 32))
            .search(s, budget)
            .best_move,
        RootParallelSearcher::<TicTacToe>::new(cfg(6), 2)
            .search(s, budget)
            .best_move,
        HybridSearcher::<TicTacToe>::new(cfg(6), Device::c2050(), LaunchConfig::new(2, 32))
            .search(s, budget)
            .best_move,
    ];
    for mv in moves {
        assert_eq!(mv, Some(8), "only cell 8 is free");
    }
}

#[test]
fn block_parallel_with_partial_warps() {
    // Threads per block that do not divide the warp size must still work.
    let r =
        BlockParallelSearcher::<Reversi>::new(cfg(7), Device::c2050(), LaunchConfig::new(3, 40))
            .search(Reversi::initial(), SearchBudget::Iterations(4));
    assert_eq!(r.simulations, 4 * 3 * 40);
}

#[test]
fn searcher_names_are_descriptive() {
    assert!(SequentialSearcher::<Reversi>::new(cfg(8))
        .name()
        .contains("sequential"));
    assert!(BlockParallelSearcher::<Reversi>::new(
        cfg(8),
        Device::c2050(),
        LaunchConfig::new(8, 32)
    )
    .name()
    .contains("8 blocks × 32 threads"));
    assert!(RootParallelSearcher::<Reversi>::new(cfg(8), 16)
        .name()
        .contains("16 CPU threads"));
    assert!(MultiGpuSearcher::<Reversi>::new(
        cfg(8),
        4,
        DeviceSpec::tesla_c2050(),
        LaunchConfig::new(2, 32),
        NetworkModel::ideal()
    )
    .name()
    .contains("4 ranks"));
}

#[test]
fn reports_expose_merged_root_stats_sorted_by_move_consistency() {
    let r =
        BlockParallelSearcher::<Reversi>::new(cfg(9), Device::c2050(), LaunchConfig::new(8, 32))
            .search(Reversi::initial(), SearchBudget::Iterations(6));
    // All four opening moves present exactly once in the merged stats.
    let mut moves: Vec<_> = r.root_stats.iter().map(|s| s.mv).collect();
    moves.sort_by_key(|m| m.0);
    moves.dedup();
    assert_eq!(moves.len(), 4);
}
