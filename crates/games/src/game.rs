//! The generic two-player, zero-sum, perfect-information game interface.
//!
//! Every searcher in `pmcts-core` is generic over this trait, which is the
//! contract that makes the block-parallel scheme applicable "to other
//! domains" (paper §V). States are required to be `Copy`: all four bundled
//! engines use bitboards small enough to pass by value, which is what makes
//! tree nodes and simulated GPU thread state cheap.

use pmcts_util::{ArrayVec, Rng64, Xoshiro256pp};

/// The player to move. `P1` moves first (Black in Reversi, X in Tic-Tac-Toe).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Player {
    /// First player (Black / X / Red).
    P1,
    /// Second player (White / O / Blue).
    P2,
}

impl Player {
    /// The opponent of this player.
    #[inline]
    pub fn opponent(self) -> Player {
        match self {
            Player::P1 => Player::P2,
            Player::P2 => Player::P1,
        }
    }

    /// Index 0 for `P1`, 1 for `P2` — used to index per-player tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Player::P1 => 0,
            Player::P2 => 1,
        }
    }
}

/// The result of a finished game.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The given player won.
    Win(Player),
    /// Drawn game.
    Draw,
}

impl Outcome {
    /// Reward in `[0, 1]` from `player`'s point of view: 1 win, ½ draw,
    /// 0 loss. This is the value backpropagated through MCTS trees.
    #[inline]
    pub fn reward_for(self, player: Player) -> f64 {
        match self {
            Outcome::Win(w) if w == player => 1.0,
            Outcome::Win(_) => 0.0,
            Outcome::Draw => 0.5,
        }
    }
}

/// Fixed-capacity move buffer shared by all engines.
///
/// 128 covers the largest bundled game (Hex 11×11 opens with 121 legal
/// moves); Reversi never exceeds 33.
pub type MoveBuf<M> = ArrayVec<M, 128>;

/// A two-player, zero-sum, perfect-information game state.
///
/// Implementations must uphold:
/// * [`legal_moves`](Game::legal_moves) is non-empty iff the state is not
///   terminal (games with forced passes, like Reversi, expose the pass as an
///   explicit move);
/// * [`apply`](Game::apply) with any generated move keeps the state valid and
///   alternates or retains `to_move` according to the game's rules;
/// * every game reaches a terminal state in at most
///   [`MAX_GAME_LENGTH`](Game::MAX_GAME_LENGTH) plies from any reachable
///   state (this bounds simulated GPU kernel execution).
pub trait Game: Copy + Clone + PartialEq + Send + Sync + std::fmt::Debug + 'static {
    /// A move. `Default` is required only so moves can live in fixed arrays.
    type Move: Copy + Eq + std::fmt::Debug + Default + Send + Sync + 'static;

    /// Human-readable game name (used by the bench harness).
    const NAME: &'static str;

    /// Upper bound on plies from any reachable state to a terminal state.
    const MAX_GAME_LENGTH: usize;

    /// Whether [`lane_playouts`](Game::lane_playouts) is a measured
    /// wall-clock win over scalar playouts for this game. The playout
    /// kernel only routes warps through lane batches when this is set;
    /// games on the generic interleaved engine keep the scalar path (the
    /// round-robin bookkeeping costs more than its ILP buys there).
    const LANE_ENGINE: bool = false;

    /// The initial position.
    fn initial() -> Self;

    /// The player to move (meaningless on terminal states, but must not
    /// panic).
    fn to_move(&self) -> Player;

    /// Writes every legal move into `out` (cleared first). Empty iff the
    /// state is terminal.
    fn legal_moves(&self, out: &mut MoveBuf<Self::Move>);

    /// Applies a legal move in place.
    ///
    /// Applying a move that was not produced by [`legal_moves`](Self::legal_moves)
    /// on this exact state is a logic error; engines may panic or corrupt the
    /// state (debug builds panic).
    fn apply(&mut self, mv: Self::Move);

    /// Whether the game is over.
    fn is_terminal(&self) -> bool;

    /// The result of a terminal state; `None` if the game is not over.
    fn outcome(&self) -> Option<Outcome>;

    /// A signed score from `P1`'s perspective (e.g. disc difference in
    /// Reversi). On non-terminal states this is the current material count,
    /// which the match harness uses for the per-game-step "point difference"
    /// traces of Figs. 7–8.
    fn score(&self) -> i32;

    /// Zobrist hash of the position, including the side to move whenever
    /// the board alone does not determine it (Connect Four and Hex stone
    /// counts fix the mover; Reversi passes and hand-built Tic-Tac-Toe
    /// positions do not).
    ///
    /// Implementations maintain the hash **incrementally**: every state
    /// carries its hash and [`apply`](Self::apply) updates it in O(changed
    /// stones) with fixed, seed-derived key tables — no allocation, cheap
    /// enough for the playout hot loop. Equal states (under `PartialEq`)
    /// always hash equally; the transposition table in `pmcts-core` keys
    /// on this value.
    fn zobrist(&self) -> u64;

    /// Bytes of position payload a device kernel needs uploaded: the board
    /// encoding and side to move, **excluding host-only caches** such as
    /// the incrementally maintained Zobrist hash, which the device never
    /// reads. Virtual transfer costs are charged from this value, so it is
    /// part of the calibrated cost model — implementations pin it to the
    /// raw board layout rather than `size_of::<Self>()`.
    fn device_state_bytes() -> usize {
        std::mem::size_of::<Self>()
    }

    /// Picks a uniformly random legal move, or `None` on terminal states.
    ///
    /// Allocates a fresh move buffer; hot loops (playouts) should call
    /// [`random_move_with`](Self::random_move_with) with a reused buffer
    /// instead. Both draw identical RNG sequences.
    #[inline]
    fn random_move<R: Rng64>(&self, rng: &mut R) -> Option<Self::Move> {
        let mut buf = MoveBuf::new();
        self.random_move_with(rng, &mut buf)
    }

    /// Picks a uniformly random legal move using `buf` as scratch space, or
    /// `None` on terminal states.
    ///
    /// Engines with bitboard move generation override this with a faster
    /// bit-selection routine (ignoring `buf`); the default materialises the
    /// move list into `buf`. Overrides must consume the same RNG draws as
    /// [`random_move`](Self::random_move) so playouts are seed-stable across
    /// both entry points.
    #[inline]
    fn random_move_with<R: Rng64>(
        &self,
        rng: &mut R,
        buf: &mut MoveBuf<Self::Move>,
    ) -> Option<Self::Move> {
        self.legal_moves(buf);
        if buf.is_empty() {
            None
        } else {
            Some(buf[rng.next_below(buf.len() as u32) as usize])
        }
    }

    /// Runs `N` independent random playouts, lane `i` from `roots[i]`
    /// drawing from `rngs[i]`, and returns the per-lane results.
    ///
    /// This is the batch entry point behind
    /// [`LaneBatch`](crate::playout::LaneBatch). The streams are the one
    /// generator type `LaneBatch` holds, so an override may keep their
    /// state in vector registers. The default is the interleaved scalar
    /// engine; games with bit-parallel kernels (Reversi) override it to
    /// advance all lanes through straight-line bitboard code. **Overrides
    /// must be bit-identical to `N` scalar
    /// [`random_playout`](crate::playout::random_playout) calls** — same
    /// results, same per-lane RNG draw sequences, same ply counts — so
    /// lane batching never changes virtual-time results (DESIGN.md §15).
    #[inline]
    fn lane_playouts<const N: usize>(
        roots: &[Self; N],
        rngs: &mut [Xoshiro256pp; N],
    ) -> [crate::playout::PlayoutResult; N] {
        crate::playout::interleaved_lane_playouts(roots, rngs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opponent_is_involution() {
        assert_eq!(Player::P1.opponent(), Player::P2);
        assert_eq!(Player::P2.opponent(), Player::P1);
        assert_eq!(Player::P1.opponent().opponent(), Player::P1);
    }

    #[test]
    fn player_indices() {
        assert_eq!(Player::P1.index(), 0);
        assert_eq!(Player::P2.index(), 1);
    }

    #[test]
    fn rewards() {
        assert_eq!(Outcome::Win(Player::P1).reward_for(Player::P1), 1.0);
        assert_eq!(Outcome::Win(Player::P1).reward_for(Player::P2), 0.0);
        assert_eq!(Outcome::Draw.reward_for(Player::P1), 0.5);
        assert_eq!(Outcome::Draw.reward_for(Player::P2), 0.5);
    }

    #[test]
    fn rewards_sum_to_one() {
        for o in [
            Outcome::Win(Player::P1),
            Outcome::Win(Player::P2),
            Outcome::Draw,
        ] {
            assert_eq!(o.reward_for(Player::P1) + o.reward_for(Player::P2), 1.0);
        }
    }
}
