//! Cross-crate integration tests: every parallelization scheme, driven
//! through the `pmcts` facade, must search correctly and deterministically.

use pmcts::prelude::*;

fn all_searchers(seed: u64) -> Vec<Box<dyn Searcher<Reversi>>> {
    let cfg = MctsConfig::default().with_seed(seed);
    vec![
        Box::new(SequentialSearcher::<Reversi>::new(cfg.clone())),
        Box::new(LeafParallelSearcher::<Reversi>::new(
            cfg.clone(),
            Device::c2050(),
            LaunchConfig::new(4, 32),
        )),
        Box::new(BlockParallelSearcher::<Reversi>::new(
            cfg.clone(),
            Device::c2050(),
            LaunchConfig::new(4, 32),
        )),
        Box::new(RootParallelSearcher::<Reversi>::new(cfg.clone(), 4)),
        // Tree parallelism: one shared tree, virtual loss per in-flight
        // playout, waves composed deterministically.
        Box::new(WuUctSearcher::<Reversi>::new(
            cfg.clone(),
            Device::c2050(),
            LaunchConfig::new(4, 32),
        )),
        Box::new(HybridSearcher::<Reversi>::new(
            cfg.clone(),
            Device::c2050(),
            LaunchConfig::new(4, 32),
        )),
        Box::new(MultiGpuSearcher::<Reversi>::new(
            cfg,
            2,
            DeviceSpec::tesla_c2050(),
            LaunchConfig::new(4, 32),
            NetworkModel::infiniband(),
        )),
    ]
}

#[test]
fn every_scheme_returns_a_legal_opening_move() {
    use pmcts::games::{Game, MoveBuf};
    let state = Reversi::initial();
    let mut legal = MoveBuf::new();
    state.legal_moves(&mut legal);
    for mut searcher in all_searchers(1) {
        let report = searcher.search(state, SearchBudget::Iterations(10));
        let mv = report
            .best_move
            .unwrap_or_else(|| panic!("{} returned no move", searcher.name()));
        assert!(
            legal.contains(&mv),
            "{} chose illegal move {mv}",
            searcher.name()
        );
        assert!(report.simulations > 0, "{} did no work", searcher.name());
    }
}

#[test]
fn every_scheme_charges_virtual_time() {
    for mut searcher in all_searchers(2) {
        let report = searcher.search(Reversi::initial(), SearchBudget::Iterations(5));
        assert!(
            report.elapsed > SimTime::ZERO,
            "{} charged no virtual time",
            searcher.name()
        );
    }
}

#[test]
fn deterministic_schemes_reproduce_exactly() {
    // Every scheme reproduces bit-identically from the same seed.
    for (mut a, mut b) in all_searchers(77).into_iter().zip(all_searchers(77)) {
        let ra = a.search(Reversi::initial(), SearchBudget::Iterations(6));
        let rb = b.search(Reversi::initial(), SearchBudget::Iterations(6));
        assert_eq!(
            ra.root_stats,
            rb.root_stats,
            "{} not reproducible",
            a.name()
        );
        assert_eq!(ra.simulations, rb.simulations);
        assert_eq!(ra.elapsed, rb.elapsed);
    }
}

#[test]
fn every_scheme_solves_tictactoe_tactics() {
    use pmcts::games::TicTacToe;
    // X to move: completing the top row at cell 2 wins immediately.
    let win = TicTacToe::parse("XX. OO. ...", Player::P1).unwrap();
    let cfg = MctsConfig::default().with_seed(5);
    let mut searchers: Vec<Box<dyn Searcher<TicTacToe>>> = vec![
        Box::new(SequentialSearcher::<TicTacToe>::new(cfg.clone())),
        Box::new(LeafParallelSearcher::<TicTacToe>::new(
            cfg.clone(),
            Device::c2050(),
            LaunchConfig::new(2, 32),
        )),
        Box::new(BlockParallelSearcher::<TicTacToe>::new(
            cfg.clone(),
            Device::c2050(),
            LaunchConfig::new(2, 32),
        )),
        Box::new(RootParallelSearcher::<TicTacToe>::new(cfg.clone(), 2)),
        Box::new(HybridSearcher::<TicTacToe>::new(
            cfg,
            Device::c2050(),
            LaunchConfig::new(2, 32),
        )),
    ];
    for searcher in searchers.iter_mut() {
        let budget = SearchBudget::Iterations(60);
        let report = searcher.search(win, budget);
        assert_eq!(
            report.best_move,
            Some(2),
            "{} failed to take the winning move",
            searcher.name()
        );
    }
}

#[test]
fn longer_budgets_build_bigger_trees() {
    let cfg = MctsConfig::default().with_seed(6);
    let mut s = SequentialSearcher::<Reversi>::new(cfg.clone());
    let small = s.search(Reversi::initial(), SearchBudget::Iterations(50));
    let mut s = SequentialSearcher::<Reversi>::new(cfg);
    let large = s.search(Reversi::initial(), SearchBudget::Iterations(2_000));
    assert!(large.tree_nodes > small.tree_nodes);
    assert!(large.max_depth >= small.max_depth);
}
