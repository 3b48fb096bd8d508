//! Playout policies.
//!
//! The paper uses uniformly random playouts. "Heavy" playouts — cheap
//! domain heuristics inside the simulation — are the standard follow-up in
//! the MCTS literature, so this module ships them as an extension: a
//! [`PlayoutPolicy`] abstraction, the uniform policy, and a Reversi policy
//! that grabs corners and avoids the squares next to empty corners with
//! probability `1 − ε`. The policy ablation bench measures what they buy.

use crate::game::Game;
use crate::playout::PlayoutResult;
use crate::reversi::{bitboard, Reversi, ReversiMove};
use pmcts_util::Rng64;

/// Bitboard of the four corners.
const CORNERS: u64 = 1 | (1 << 7) | (1 << 56) | (1 << 63);

/// A move-selection rule used inside playouts.
///
/// Policies must return a *legal* move whenever the state is non-terminal
/// and `None` exactly on terminal states (same contract as
/// [`Game::random_move`]).
pub trait PlayoutPolicy<G: Game>: Send + Sync {
    /// Picks the next playout move.
    fn pick<R: Rng64>(&self, state: &G, rng: &mut R) -> Option<G::Move>;

    /// Policy name for logs and bench output.
    fn name(&self) -> &'static str;
}

/// Uniformly random playouts — the paper's policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformPolicy;

impl<G: Game> PlayoutPolicy<G> for UniformPolicy {
    #[inline]
    fn pick<R: Rng64>(&self, state: &G, rng: &mut R) -> Option<G::Move> {
        state.random_move(rng)
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// Reversi heavy playouts: with probability `1 − ε` take a corner if one is
/// legal, otherwise avoid X/C squares adjacent to *empty* corners when any
/// alternative exists; with probability `ε` (and as fallback) play
/// uniformly.
#[derive(Clone, Copy, Debug)]
pub struct ReversiCornerPolicy {
    /// Probability of ignoring the heuristic and playing uniformly.
    pub epsilon: f64,
}

impl Default for ReversiCornerPolicy {
    fn default() -> Self {
        ReversiCornerPolicy { epsilon: 0.1 }
    }
}

/// Squares adjacent (orthogonally or diagonally) to each corner.
#[rustfmt::skip]
fn corner_adjacent(corner: u8) -> u64 {
    match corner {
        0 => (1 << 1) | (1 << 8) | (1 << 9),
        7 => (1 << 6) | (1 << 14) | (1 << 15),
        56 => (1 << 48) | (1 << 49) | (1 << 57),
        63 => (1 << 54) | (1 << 55) | (1 << 62),
        _ => unreachable!("not a corner"),
    }
}

impl PlayoutPolicy<Reversi> for ReversiCornerPolicy {
    fn pick<R: Rng64>(&self, state: &Reversi, rng: &mut R) -> Option<ReversiMove> {
        let mask = state.legal_mask();
        if mask == 0 {
            return state.random_move(rng); // pass / terminal handling
        }
        if rng.next_bool(self.epsilon) {
            return state.random_move(rng);
        }
        // 1. Corners are always good.
        let corners = mask & CORNERS;
        if corners != 0 {
            let n = corners.count_ones();
            return Some(ReversiMove(bitboard::select_bit(
                corners,
                rng.next_below(n),
            )));
        }
        // 2. Avoid squares next to still-empty corners.
        let occupied = state.black() | state.white();
        let mut poison = 0u64;
        for corner in [0u8, 7, 56, 63] {
            if occupied & (1u64 << corner) == 0 {
                poison |= corner_adjacent(corner);
            }
        }
        let safe = mask & !poison;
        let pick_from = if safe != 0 { safe } else { mask };
        let n = pick_from.count_ones();
        Some(ReversiMove(bitboard::select_bit(
            pick_from,
            rng.next_below(n),
        )))
    }

    fn name(&self) -> &'static str {
        "reversi corners"
    }
}

/// Runs one playout under `policy` (the policy-parametric twin of
/// [`crate::playout::random_playout`]).
pub fn policy_playout<G: Game, P: PlayoutPolicy<G>, R: Rng64>(
    mut state: G,
    policy: &P,
    rng: &mut R,
) -> PlayoutResult {
    let mut plies = 0u32;
    loop {
        match state.outcome() {
            Some(outcome) => {
                return PlayoutResult {
                    outcome,
                    plies,
                    final_score: state.score(),
                };
            }
            None => {
                let mv = policy
                    .pick(&state, rng)
                    .expect("policy must move on non-terminal state");
                state.apply(mv);
                plies += 1;
                assert!(
                    plies as usize <= G::MAX_GAME_LENGTH,
                    "{} policy playout exceeded MAX_GAME_LENGTH",
                    G::NAME
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{MoveBuf, Player};
    use pmcts_util::Xoshiro256pp;

    #[test]
    fn corners_mask_is_corners() {
        assert_eq!(CORNERS.count_ones(), 4);
        for sq in [0u8, 7, 56, 63] {
            assert_ne!(CORNERS & (1 << sq), 0);
        }
    }

    #[test]
    fn uniform_policy_delegates_to_random_move() {
        let mut rng = Xoshiro256pp::new(1);
        let s = Reversi::initial();
        let mv = PlayoutPolicy::<Reversi>::pick(&UniformPolicy, &s, &mut rng).unwrap();
        let mut buf = MoveBuf::new();
        s.legal_moves(&mut buf);
        assert!(buf.contains(&mv));
    }

    #[test]
    fn corner_policy_takes_available_corner() {
        // Black can take a1 (White b1, Black c1). With epsilon 0 the corner
        // must always be chosen.
        let s = Reversi::from_bitboards(1 << 2, 1 << 1, Player::P1);
        let policy = ReversiCornerPolicy { epsilon: 0.0 };
        let mut rng = Xoshiro256pp::new(2);
        for _ in 0..20 {
            assert_eq!(policy.pick(&s, &mut rng), Some(ReversiMove(0)));
        }
    }

    #[test]
    fn corner_policy_avoids_x_squares_when_possible() {
        // Construct: Black d1, White c1+b2 => Black may play b1 (C-square,
        // flipping c1) or a3.. let's check generated safe set instead:
        // run many picks from the initial-ish game and assert no picked
        // square is adjacent to an empty corner unless forced.
        let policy = ReversiCornerPolicy { epsilon: 0.0 };
        let mut rng = Xoshiro256pp::new(3);
        let mut state = Reversi::initial();
        for _ in 0..30 {
            if state.is_terminal() {
                break;
            }
            let mask = state.legal_mask();
            if mask == 0 {
                state.apply(ReversiMove::PASS);
                continue;
            }
            let mv = policy.pick(&state, &mut rng).unwrap();
            let occupied = state.black() | state.white();
            let mut poison = 0u64;
            for corner in [0u8, 7, 56, 63] {
                if occupied & (1u64 << corner) == 0 {
                    poison |= corner_adjacent(corner);
                }
            }
            if mask & !poison != 0 && mask & CORNERS == 0 {
                assert_eq!(
                    (1u64 << mv.0) & poison,
                    0,
                    "picked poisoned square {mv} with safe options available"
                );
            }
            state.apply(mv);
        }
    }

    #[test]
    fn policy_playout_terminates_and_matches_contract() {
        let mut rng = Xoshiro256pp::new(4);
        let policy = ReversiCornerPolicy::default();
        for _ in 0..20 {
            let r = policy_playout(Reversi::initial(), &policy, &mut rng);
            assert!(r.plies >= 50);
            assert!((0.0..=1.0).contains(&r.reward_for(Player::P1)));
        }
    }

    #[test]
    fn corner_policy_beats_uniform_in_playout_outcomes() {
        // Play corner-policy (as Black) vs uniform (as White) move by move:
        // the heuristic side should win clearly more than half of games.
        let corner = ReversiCornerPolicy { epsilon: 0.05 };
        let uniform = UniformPolicy;
        let mut rng = Xoshiro256pp::new(5);
        let mut black_wins = 0u32;
        let games = 60;
        for _ in 0..games {
            let mut s = Reversi::initial();
            while !s.is_terminal() {
                let mv = match s.to_move() {
                    Player::P1 => corner.pick(&s, &mut rng),
                    Player::P2 => PlayoutPolicy::<Reversi>::pick(&uniform, &s, &mut rng),
                }
                .unwrap();
                s.apply(mv);
            }
            if s.score() > 0 {
                black_wins += 1;
            }
        }
        assert!(
            black_wins > games / 2,
            "corner policy won only {black_wins}/{games}"
        );
    }

    #[test]
    fn epsilon_one_is_equivalent_to_uniform_distribution_support() {
        // With epsilon = 1 the policy must sometimes play poisoned squares
        // (it is uniform), showing the epsilon path is taken.
        let policy = ReversiCornerPolicy { epsilon: 1.0 };
        let s = Reversi::initial();
        let mut rng = Xoshiro256pp::new(6);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(policy.pick(&s, &mut rng).unwrap());
        }
        assert_eq!(seen.len(), 4, "all four opening moves must appear");
    }
}
