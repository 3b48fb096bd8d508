//! Lane-batch equivalence suite (DESIGN.md §15).
//!
//! The contract under test: running a [`LaneBatch`] of `N` playouts is
//! bit-identical to running `N` scalar [`random_playout`] calls, lane `i`
//! on `(roots[i], rngs[i])` — identical [`PlayoutResult`]s (outcome, ply
//! count, final score) *and* identical final RNG states, which pins the
//! exact per-lane draw count and therefore the whole per-lane draw
//! sequence (Xoshiro256++ state is a bijection of the draw history from a
//! fixed seed).
//!
//! Covered engines: Reversi (bit-parallel `lane_playouts` override),
//! Connect-4 / Tic-Tac-Toe / Hex (generic interleaved default), at lane
//! widths 1, 4 and 8, from varied playout prefixes, including batches with
//! terminal roots mixed in. Reversi runs the variant this host dispatches;
//! the unit tests in `reversi/lanes.rs` and `reversi/bitboard.rs` run each
//! variant directly.

use pmcts_games::{
    interleaved_lane_playouts, random_playout, Connect4, Game, Hex11, Hex7, LaneBatch, Player,
    Reversi, TicTacToe,
};
use pmcts_util::Xoshiro256pp;
use proptest::prelude::*;

/// Plays `plies` random moves (stopping early at terminal states).
fn advance<G: Game>(mut state: G, plies: u32, seed: u64) -> G {
    let mut rng = Xoshiro256pp::new(seed);
    for _ in 0..plies {
        match state.random_move(&mut rng) {
            Some(mv) => state.apply(mv),
            None => break,
        }
    }
    state
}

/// Asserts the full equivalence contract for one batch: results and final
/// RNG states must match `N` scalar playouts exactly.
fn assert_batch_matches_scalar<G: Game, const N: usize>(roots: [G; N], seeds: [u64; N]) {
    let rngs: [Xoshiro256pp; N] = std::array::from_fn(|i| Xoshiro256pp::new(seeds[i]));
    let (lane_results, lane_rngs) = LaneBatch::new(roots, rngs).run_with_rngs();
    for i in 0..N {
        let mut rng = Xoshiro256pp::new(seeds[i]);
        let scalar = random_playout(roots[i], &mut rng);
        assert_eq!(
            lane_results[i],
            scalar,
            "{} lane {i}/{N}: result diverged from scalar playout",
            G::NAME
        );
        assert_eq!(
            lane_rngs[i],
            rng,
            "{} lane {i}/{N}: final RNG state diverged (draw counts differ)",
            G::NAME
        );
    }
}

/// Runs the contract for one game at all three wired lane widths, each lane
/// from its own prefix of a shared game so batches mix positions.
fn check_game_at_all_widths<G: Game>(base_seed: u64, max_prefix: u32) {
    let roots8: [G; 8] = std::array::from_fn(|i| {
        advance(
            G::initial(),
            (base_seed.wrapping_add(i as u64) % (max_prefix as u64 + 1)) as u32,
            base_seed ^ i as u64,
        )
    });
    let seeds8: [u64; 8] =
        std::array::from_fn(|i| base_seed.wrapping_mul(31).wrapping_add(i as u64));
    assert_batch_matches_scalar::<G, 1>([roots8[0]; 1], [seeds8[0]; 1]);
    assert_batch_matches_scalar::<G, 4>(
        std::array::from_fn(|i| roots8[i]),
        std::array::from_fn(|i| seeds8[i]),
    );
    assert_batch_matches_scalar::<G, 8>(roots8, seeds8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reversi_lane_batches_match_scalar(seed in any::<u64>()) {
        check_game_at_all_widths::<Reversi>(seed, 50);
    }

    #[test]
    fn connect4_lane_batches_match_scalar(seed in any::<u64>()) {
        check_game_at_all_widths::<Connect4>(seed, 30);
    }

    #[test]
    fn tictactoe_lane_batches_match_scalar(seed in any::<u64>()) {
        check_game_at_all_widths::<TicTacToe>(seed, 8);
    }

    #[test]
    fn hex7_lane_batches_match_scalar(seed in any::<u64>()) {
        check_game_at_all_widths::<Hex7>(seed, 40);
    }

    #[test]
    fn hex11_lane_batches_match_scalar(seed in any::<u64>()) {
        check_game_at_all_widths::<Hex11>(seed, 100);
    }

    #[test]
    fn reversi_batches_with_terminal_roots(seed in any::<u64>()) {
        // Lanes 1, 3, 5, 7 start from finished games (played to the end);
        // they must report 0 plies and draw nothing from their RNGs while
        // the live lanes proceed unperturbed.
        let roots: [Reversi; 8] = std::array::from_fn(|i| {
            let plies = if i % 2 == 1 { u32::MAX } else { (i as u32) * 7 };
            advance(Reversi::initial(), plies, seed ^ i as u64)
        });
        let seeds: [u64; 8] = std::array::from_fn(|i| seed.wrapping_add(1000 + i as u64));
        for (i, root) in roots.iter().enumerate() {
            if i % 2 == 1 {
                prop_assert!(root.is_terminal(), "odd lanes must start terminal");
            }
        }
        assert_batch_matches_scalar::<Reversi, 8>(roots, seeds);
    }

    #[test]
    fn interleaved_engine_matches_scalar_directly(seed in any::<u64>()) {
        // The generic interleaved engine is also Reversi-correct (the
        // bit-parallel override must agree with it, and both with scalar).
        let roots: [Reversi; 4] =
            std::array::from_fn(|i| advance(Reversi::initial(), (i as u32) * 11, seed ^ i as u64));
        let mut rngs: [Xoshiro256pp; 4] =
            std::array::from_fn(|i| Xoshiro256pp::new(seed.wrapping_add(i as u64)));
        let interleaved = interleaved_lane_playouts(&roots, &mut rngs);
        let batch: [Xoshiro256pp; 4] =
            std::array::from_fn(|i| Xoshiro256pp::new(seed.wrapping_add(i as u64)));
        let (bit_parallel, _) = LaneBatch::new(roots, batch).run_with_rngs();
        prop_assert_eq!(interleaved, bit_parallel);
    }
}

#[test]
fn all_terminal_batch_draws_nothing() {
    let s = TicTacToe::parse("XXX OO. ...", Player::P2).unwrap();
    let rngs: [Xoshiro256pp; 4] = std::array::from_fn(|i| Xoshiro256pp::new(77 + i as u64));
    let (results, finals) = LaneBatch::new([s; 4], rngs).run_with_rngs();
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.plies, 0);
        assert_eq!(
            finals[i],
            Xoshiro256pp::new(77 + i as u64),
            "terminal lanes must not draw"
        );
    }
}
