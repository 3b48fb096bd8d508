//! Random playouts — the Monte Carlo "simulation" step.
//!
//! A playout plays uniformly random legal moves from a starting state until
//! the game ends (paper §II: "a series of random moves which are performed
//! until the end of a game is reached"). The ply count is reported because
//! the simulated GPU charges kernel time proportional to the *longest*
//! playout in each warp — the SIMD divergence effect block-parallelism is
//! designed around.

use crate::game::{Game, MoveBuf, Outcome, Player};
use pmcts_util::{Rng64, Xoshiro256pp};

/// The result of one random playout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlayoutResult {
    /// The terminal outcome.
    pub outcome: Outcome,
    /// Number of plies played from the starting state to the end.
    pub plies: u32,
    /// Terminal score from P1's perspective (e.g. final disc difference).
    pub final_score: i32,
}

impl PlayoutResult {
    /// Reward in `[0, 1]` for `player`.
    #[inline]
    pub fn reward_for(&self, player: Player) -> f64 {
        self.outcome.reward_for(player)
    }
}

/// Runs one uniformly random playout from `state` to the end of the game.
///
/// # Panics
/// Panics if a game exceeds [`Game::MAX_GAME_LENGTH`] plies, which would
/// indicate a rules bug in the engine (e.g. an infinite pass loop).
pub fn random_playout<G: Game, R: Rng64>(mut state: G, rng: &mut R) -> PlayoutResult {
    // One move buffer for the whole playout: [`Game::random_move_with`]
    // reuses it every ply, so the hot loop performs no allocation (and no
    // per-ply buffer zeroing) regardless of the engine. Termination is
    // detected by move generation itself — `legal_moves` is non-empty iff
    // the state is non-terminal — so no separate `outcome()` probe runs per
    // ply. The RNG draw sequence is identical to the per-ply
    // `outcome()`-then-`random_move` formulation this replaces.
    let mut buf = MoveBuf::new();
    let mut plies = 0u32;
    while let Some(mv) = state.random_move_with(rng, &mut buf) {
        state.apply(mv);
        plies += 1;
        check_length::<G>(plies);
    }
    let outcome = state
        .outcome()
        .expect("state without a legal move is terminal");
    PlayoutResult {
        outcome,
        plies,
        final_score: state.score(),
    }
}

/// The playout's guard against a rules bug (e.g. an endless pass loop),
/// shared with the lane kernels so every path panics alike.
#[inline]
pub(crate) fn check_length<G: Game>(plies: u32) {
    assert!(
        plies as usize <= G::MAX_GAME_LENGTH,
        "{} playout exceeded MAX_GAME_LENGTH={}",
        G::NAME,
        G::MAX_GAME_LENGTH
    );
}

/// A batch of `N` independent playout lanes advanced together.
///
/// This is the wall-clock fast path for the ~10⁵/s playout hot loop: `N`
/// boards and `N` RNG streams move in lock-step, so game engines with
/// bit-parallel kernels (Reversi, Hex) can advance all lanes back-to-back
/// — at `N = 8` on AVX-512 hosts, as one vector loop — instead of one
/// board at a time.
///
/// **Equivalence contract** (DESIGN.md §15): running a batch is
/// bit-identical to running `N` scalar [`random_playout`] calls, lane `i`
/// on `(roots[i], rngs[i])` — same [`PlayoutResult`]s *and* same final RNG
/// states. Lane batching is invisible to everything above it: virtual
/// time, fingerprints, and `SimTime` ledgers never observe it.
///
/// Searchers do not build batches themselves: [`play_lanes`] chunks any
/// number of (root, stream) pairs into `LANE_WIDTH`-wide batches for its
/// three callers — the playout kernel's warps, the device-resident blocks
/// of one pool task and a group of root-parallel trees.
#[derive(Clone, Debug)]
pub struct LaneBatch<G: Game, const N: usize> {
    roots: [G; N],
    rngs: [Xoshiro256pp; N],
}

impl<G: Game, const N: usize> LaneBatch<G, N> {
    /// Builds a batch from per-lane roots and RNG streams.
    pub fn new(roots: [G; N], rngs: [Xoshiro256pp; N]) -> Self {
        Self { roots, rngs }
    }

    /// Runs every lane to completion via the game's lane engine
    /// ([`Game::lane_playouts`] — bit-parallel for Reversi and Hex, one
    /// scalar playout per lane otherwise).
    pub fn run(mut self) -> [PlayoutResult; N] {
        G::lane_playouts(&self.roots, &mut self.rngs)
    }

    /// Like [`run`](Self::run), but also returns the final RNG states so
    /// equivalence tests can assert the exact per-lane draw counts.
    pub fn run_with_rngs(mut self) -> ([PlayoutResult; N], [Xoshiro256pp; N]) {
        let results = G::lane_playouts(&self.roots, &mut self.rngs);
        (results, self.rngs)
    }
}

/// Lanes per batch in [`play_lanes`], and so the number of
/// independent trees its callers step together.
pub const LANE_WIDTH: usize = 8;

/// Plays one random playout for each of `lanes` (root, stream) pairs: lane
/// `i` starts from `start(i)` and hands its result and final stream to
/// `land(i, ..)`. Both closures run once per lane, in lane order, and
/// `land(i, ..)` always follows `start(i)`.
///
/// This is the one place lanes are chunked into batches. When
/// [`Game::LANE_ENGINE`] is set, the lanes run `LANE_WIDTH` at a time
/// through [`Game::lane_playouts`], the engine behind [`LaneBatch`]; the
/// last batch is padded with copies of its own first lane, whose results
/// and streams are dropped. Otherwise each lane is one
/// scalar [`random_playout`]. Either way the outcome is bit-identical to
/// one scalar call per lane, final streams included (DESIGN.md §15). Its
/// callers are the playout kernel's warps, the device-resident blocks of
/// one pool task, and a group of root-parallel trees. Nothing is
/// allocated.
pub fn play_lanes<G: Game>(
    lanes: usize,
    mut start: impl FnMut(usize) -> (G, Xoshiro256pp),
    mut land: impl FnMut(usize, PlayoutResult, Xoshiro256pp),
) {
    if !G::LANE_ENGINE {
        for i in 0..lanes {
            let (root, mut rng) = start(i);
            let result = random_playout(root, &mut rng);
            land(i, result, rng);
        }
        return;
    }
    for first in (0..lanes).step_by(LANE_WIDTH) {
        let real = (lanes - first).min(LANE_WIDTH);
        let (root, rng) = start(first);
        let mut roots = [root; LANE_WIDTH];
        let mut rngs: [Xoshiro256pp; LANE_WIDTH] = std::array::from_fn(|_| rng.clone());
        for k in 1..real {
            (roots[k], rngs[k]) = start(first + k);
        }
        // The batch runs in place: moving the arrays into a `LaneBatch` and
        // the streams back out cost about 5 % of the playout kernel's wall
        // time on a 2-vCPU AVX-512 host.
        let results = G::lane_playouts(&roots, &mut rngs);
        for k in 0..real {
            land(first + k, results[k], rngs[k].clone());
        }
    }
}

/// A stream whose next output is `target`, for tests that steer a draw:
/// xoshiro256++ outputs `rotl(s0 + s3, 23) + s0`, so
/// `s3 = rotr(target − s0, 23) − s0`.
#[cfg(test)]
pub(crate) fn stream_with_next_output(
    target: u64,
    gen: &mut pmcts_util::SplitMix64,
) -> Xoshiro256pp {
    let s0 = gen.next_u64();
    let s3 = target.wrapping_sub(s0).rotate_right(23).wrapping_sub(s0);
    let rng = Xoshiro256pp::from_state([s0, gen.next_u64(), gen.next_u64(), s3]);
    assert_eq!(rng.clone().next_u64(), target);
    rng
}

/// Runs `n` playouts and returns the number of wins for `perspective`
/// (draws count ½, accumulated as f64) along with total plies.
///
/// This is the work a leaf-parallel GPU kernel performs for one tree node.
pub fn batch_playouts<G: Game, R: Rng64>(
    state: G,
    perspective: Player,
    n: u32,
    rng: &mut R,
) -> (f64, u64) {
    let mut wins = 0.0;
    let mut total_plies = 0u64;
    for _ in 0..n {
        let r = random_playout(state, rng);
        wins += r.reward_for(perspective);
        total_plies += r.plies as u64;
    }
    (wins, total_plies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connect4::Connect4;
    use crate::reversi::Reversi;
    use crate::tictactoe::TicTacToe;
    use pmcts_util::Xoshiro256pp;

    #[test]
    fn reversi_playouts_terminate_and_report_plies() {
        let mut rng = Xoshiro256pp::new(1);
        for _ in 0..50 {
            let r = random_playout(Reversi::initial(), &mut rng);
            // A Reversi game from the start takes at least 50 plies
            // (55 is the shortest possible game; passes may add a few).
            assert!(r.plies >= 50, "suspiciously short game: {} plies", r.plies);
            assert!(r.plies as usize <= Reversi::MAX_GAME_LENGTH);
        }
    }

    #[test]
    fn playout_from_terminal_state_is_zero_plies() {
        let s = TicTacToe::parse("XXX OO. ...", Player::P2).unwrap();
        let mut rng = Xoshiro256pp::new(2);
        let r = random_playout(s, &mut rng);
        assert_eq!(r.plies, 0);
        assert_eq!(r.outcome, Outcome::Win(Player::P1));
        assert_eq!(r.reward_for(Player::P1), 1.0);
    }

    #[test]
    fn playouts_are_deterministic_under_seed() {
        let a = random_playout(Reversi::initial(), &mut Xoshiro256pp::new(3));
        let b = random_playout(Reversi::initial(), &mut Xoshiro256pp::new(3));
        assert_eq!(a, b);
    }

    #[test]
    fn final_score_matches_outcome_sign() {
        let mut rng = Xoshiro256pp::new(4);
        for _ in 0..100 {
            let r = random_playout(Reversi::initial(), &mut rng);
            match r.outcome {
                Outcome::Win(Player::P1) => assert!(r.final_score > 0),
                Outcome::Win(Player::P2) => assert!(r.final_score < 0),
                Outcome::Draw => assert_eq!(r.final_score, 0),
            }
        }
    }

    #[test]
    fn batch_playouts_accumulate() {
        let mut rng = Xoshiro256pp::new(5);
        let (wins, plies) = batch_playouts(Connect4::initial(), Player::P1, 64, &mut rng);
        assert!((0.0..=64.0).contains(&wins));
        assert!(plies >= 64 * 7, "connect4 needs ≥7 plies per game");
        // First-player advantage in random Connect-4 is well documented;
        // just sanity-check the result is not degenerate.
        assert!(wins > 16.0 && wins < 56.0, "wins={wins}");
    }

    #[test]
    fn reversi_reward_is_balanced_ish() {
        // Uniformly random Reversi is near-balanced; check P1 reward is not
        // degenerate (this also guards against perspective bugs).
        let mut rng = Xoshiro256pp::new(6);
        let (wins, _) = batch_playouts(Reversi::initial(), Player::P1, 400, &mut rng);
        let ratio = wins / 400.0;
        assert!(
            (0.35..0.75).contains(&ratio),
            "P1 win ratio {ratio} out of plausible range"
        );
    }
}
