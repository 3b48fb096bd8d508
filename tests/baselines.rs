//! Baseline-player strength ordering and facade-level sanity checks.

use pmcts::core::arena::MatchSeries;
use pmcts::core::player::{GreedyPlayer, RandomPlayer};
use pmcts::prelude::*;

#[test]
fn greedy_beats_random_at_reversi() {
    // Greedy disc-maximisation is a weak heuristic but clearly above
    // uniform random over enough games.
    let result = MatchSeries::<Reversi>::run(
        40,
        |g| Box::new(GreedyPlayer::new(g)),
        |g| Box::new(RandomPlayer::new(500 + g)),
    );
    assert!(
        result.win_ratio() > 0.55,
        "greedy vs random only {:.2} ({:?})",
        result.win_ratio(),
        result.winloss
    );
}

#[test]
fn mcts_beats_greedy_at_reversi() {
    // The strength ladder: MCTS > greedy ( > random, tested above).
    let result = MatchSeries::<Reversi>::run(
        10,
        |g| {
            Box::new(MctsPlayer::new(
                SequentialSearcher::<Reversi>::new(MctsConfig::default().with_seed(g)),
                SearchBudget::Iterations(800),
            ))
        },
        |g| Box::new(GreedyPlayer::new(700 + g)),
    );
    assert!(
        result.win_ratio() > 0.6,
        "MCTS vs greedy only {:.2} ({:?})",
        result.win_ratio(),
        result.winloss
    );
}

#[test]
fn facade_reexports_are_usable() {
    // Compile-and-run check that the `pmcts` facade exposes the full API
    // the README advertises.
    use pmcts::core::cost::NetworkModel;
    use pmcts::gpu_sim::DeviceSpec;
    use pmcts::util::{Histogram, SimTime, WinLoss};

    let _ = DeviceSpec::tesla_c2050();
    let _ = NetworkModel::infiniband();
    let _ = SimTime::from_millis(1);
    let _ = WinLoss::new();
    let mut h = Histogram::new(4);
    h.record(1);
    assert_eq!(h.count(), 1);

    let report = SequentialSearcher::<Reversi>::new(MctsConfig::default())
        .search(Reversi::initial(), SearchBudget::Iterations(5));
    assert_eq!(report.simulations, 5);
}

#[test]
fn persistent_searcher_tracks_a_whole_game() {
    // Tree reuse must stay consistent over a full game against a searcher
    // opponent (exercises re-rooting through passes and long games).
    use pmcts::games::Game;
    let mut reuse = PersistentSearcher::<Reversi>::new(MctsConfig::default().with_seed(9));
    let mut opp = SequentialSearcher::<Reversi>::new(MctsConfig::default().with_seed(10));
    let mut state = Reversi::initial();
    let mut plies = 0;
    while !state.is_terminal() {
        let report = match state.to_move() {
            Player::P1 => reuse.search(state, SearchBudget::Iterations(60)),
            Player::P2 => opp.search(state, SearchBudget::Iterations(60)),
        };
        state.apply(report.best_move.expect("non-terminal"));
        plies += 1;
        assert!(plies <= Reversi::MAX_GAME_LENGTH);
    }
    assert!(state.outcome().is_some());
}

#[test]
fn elo_and_win_ratio_roundtrip_through_analysis() {
    use pmcts::core::analysis::{elo_diff, expected_score};
    let mut tally = pmcts::util::WinLoss::new();
    for _ in 0..3 {
        tally.record_score(1);
    }
    tally.record_score(-1);
    let elo = elo_diff(tally.win_ratio()); // 0.75 -> ~ +191
    assert!((expected_score(elo) - 0.75).abs() < 1e-9);
}
