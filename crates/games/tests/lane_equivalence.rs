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
//! Covered engines: Reversi and Hex (bit-parallel `lane_playouts`
//! overrides), Connect-4 / Tic-Tac-Toe (the default, one scalar playout
//! per lane), at lane widths 1, 4 and 8, from varied playout prefixes,
//! including batches with terminal roots mixed in. The [`play_lanes`]
//! helper is held to the same contract at every lane count from 0 to 20,
//! on Reversi and Hex 11×11 (8-lane batches, the last one padded) and
//! Connect-4 (scalar route). Reversi and Hex run the variant this host
//! dispatches; the unit tests in `reversi/lanes.rs`, `reversi/bitboard.rs`
//! and `hex/lanes.rs` run each variant directly.

use pmcts_games::{
    play_lanes, random_playout, Connect4, Game, Hex11, Hex7, LaneBatch, Player, Reversi, TicTacToe,
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

/// Runs [`play_lanes`] over `(roots[i], Xoshiro256pp::new(seeds[i]))` and
/// asserts the helper's contract: `start` and `land` run once per lane, in
/// lane order, `land(i)` after `start(i)`, and every landed result and
/// final stream equals one scalar [`random_playout`] on that lane's pair.
fn assert_play_lanes_matches_scalar<G: Game>(roots: &[G], seeds: &[u64]) {
    assert_eq!(roots.len(), seeds.len());
    let n = roots.len();
    let mut started = Vec::new();
    let mut landed = Vec::new();
    {
        let started = std::cell::RefCell::new(&mut started);
        play_lanes(
            n,
            |i| {
                started.borrow_mut().push(i);
                (roots[i], Xoshiro256pp::new(seeds[i]))
            },
            |i, result, rng| {
                assert!(
                    started.borrow().contains(&i),
                    "{} lane {i}/{n} landed before it started",
                    G::NAME
                );
                landed.push((i, result, rng));
            },
        );
    }
    assert_eq!(
        started,
        (0..n).collect::<Vec<_>>(),
        "start runs in lane order"
    );
    assert_eq!(landed.len(), n, "{}: one landing per lane", G::NAME);
    for (i, (lane, result, rng)) in landed.into_iter().enumerate() {
        assert_eq!(lane, i, "{}: landings run in lane order", G::NAME);
        let mut scalar_rng = Xoshiro256pp::new(seeds[i]);
        let scalar = random_playout(roots[i], &mut scalar_rng);
        assert_eq!(result, scalar, "{} lane {i}/{n}: result diverged", G::NAME);
        assert_eq!(
            rng,
            scalar_rng,
            "{} lane {i}/{n}: final stream diverged from the scalar draw",
            G::NAME
        );
    }
}

/// `n` lanes from varied prefixes of one game; every third lane from a
/// finished game when `terminal` is set. Seeds are distinct per lane, so a
/// stream landed into the wrong lane cannot go unnoticed.
fn mixed_lanes<G: Game>(
    seed: u64,
    n: usize,
    max_prefix: u32,
    terminal: bool,
) -> (Vec<G>, Vec<u64>) {
    let roots = (0..n)
        .map(|i| {
            let plies = if terminal && i % 3 == 2 {
                u32::MAX
            } else {
                (seed.wrapping_add(i as u64 * 7) % (max_prefix as u64 + 1)) as u32
            };
            advance(G::initial(), plies, seed ^ (i as u64) << 8)
        })
        .collect();
    let seeds = (0..n)
        .map(|i| seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64))
        .collect();
    (roots, seeds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn play_lanes_matches_scalar_on_every_lane_count(seed in any::<u64>(), terminal in any::<bool>()) {
        // 0–20 lanes: empty, partial single batches, exact batches and
        // padded last batches. Reversi and Hex11 run their lane engines,
        // Connect-4 the scalar route.
        for n in 0..=20 {
            let (roots, seeds) = mixed_lanes::<Reversi>(seed, n, 50, terminal);
            assert_play_lanes_matches_scalar(&roots, &seeds);
            let (roots, seeds) = mixed_lanes::<Hex11>(seed, n, 100, terminal);
            assert_play_lanes_matches_scalar(&roots, &seeds);
            let (roots, seeds) = mixed_lanes::<Connect4>(seed, n, 30, terminal);
            assert_play_lanes_matches_scalar(&roots, &seeds);
        }
    }
}

// The helper test covers both routes: Reversi and Hex 11×11 batch,
// Connect-4 runs scalar.
const _: () = assert!(Reversi::LANE_ENGINE && Hex11::LANE_ENGINE && !Connect4::LANE_ENGINE);
