//! The list-and-flood Hex playout, retained as a baseline.
//!
//! Hex playouts used to pick each move by listing every empty cell into a
//! `MoveBuf` and drawing `buf[next_below(len)]`, and to test every move
//! for a win by a flood fill from the mover's start edge, from scratch.
//! The engine (`pmcts_games::hex`) now selects the k-th empty cell
//! directly and keeps an edge-anchored set incrementally. This module
//! keeps the old algorithm on its own red/blue bitboards, for the reason
//! [`tree_aos`](crate::tree_aos) keeps the old tree: the `throughput`
//! binary asserts it equals `random_playout` (results and final streams)
//! and times both in one binary, with the same flags.
//!
//! Nothing in the search path uses this module.

use pmcts_games::{Hex, MoveBuf, Outcome, Player, PlayoutResult};
use pmcts_util::Rng64;

/// Board masks of the N×N rhombus, cell index `row * N + col`.
struct Masks {
    board: u128,
    not_first_col: u128,
    not_last_col: u128,
    top: u128,
    bottom: u128,
    left: u128,
    right: u128,
}

impl Masks {
    const fn new(n: usize) -> Self {
        let mut m = Masks {
            board: 0,
            not_first_col: 0,
            not_last_col: 0,
            top: 0,
            bottom: 0,
            left: 0,
            right: 0,
        };
        let mut cell = 0;
        while cell < n * n {
            let (row, col) = (cell / n, cell % n);
            let bit = 1u128 << cell;
            m.board |= bit;
            if col > 0 {
                m.not_first_col |= bit;
            }
            if col + 1 < n {
                m.not_last_col |= bit;
            }
            if row == 0 {
                m.top |= bit;
            }
            if row + 1 == n {
                m.bottom |= bit;
            }
            if col == 0 {
                m.left |= bit;
            }
            if col + 1 == n {
                m.right |= bit;
            }
            cell += 1;
        }
        m
    }
}

/// The masks of `Hex<N>`, evaluated at compile time.
struct Board<const N: usize>;

impl<const N: usize> Board<N> {
    const MASKS: Masks = Masks::new(N);

    /// `set` grown by one step of hexagonal adjacency, clipped to the
    /// board.
    fn neighbours(set: u128) -> u128 {
        let m = &Self::MASKS;
        let e = (set & m.not_last_col) << 1;
        let w = (set & m.not_first_col) >> 1;
        let s = set << N;
        let n = set >> N;
        let ne = (set & m.not_last_col) >> (N - 1);
        let sw = (set & m.not_first_col) << (N - 1);
        (e | w | s | n | ne | sw) & m.board
    }

    /// Whether `stones` connect `from_edge` to `to_edge`: a flood fill
    /// from scratch.
    fn connects(stones: u128, from_edge: u128, to_edge: u128) -> bool {
        let mut reached = stones & from_edge;
        if reached == 0 {
            return false;
        }
        loop {
            let grown = reached | (Self::neighbours(reached) & stones);
            if grown & to_edge != 0 {
                return true;
            }
            if grown == reached {
                return false;
            }
            reached = grown;
        }
    }
}

/// One uniformly random playout from `root`, by listing the empty cells,
/// drawing `buf[next_below(len)]`, and testing the mover for a win by a
/// flood fill from scratch after every move. Draws exactly the stream
/// `pmcts_games::random_playout` draws, and returns the same result.
pub fn reference_playout<const N: usize, R: Rng64>(root: &Hex<N>, rng: &mut R) -> PlayoutResult {
    let m = &Board::<N>::MASKS;
    let mut red = root.stones(Player::P1);
    let mut blue = root.stones(Player::P2);
    let mut winner = if Board::<N>::connects(red, m.top, m.bottom) {
        Some(Player::P1)
    } else if Board::<N>::connects(blue, m.left, m.right) {
        Some(Player::P2)
    } else {
        None
    };
    let mut mover = if root.plies() % 2 == 0 {
        Player::P1
    } else {
        Player::P2
    };
    let mut buf: MoveBuf<u8> = MoveBuf::new();
    let mut plies = 0u32;
    while winner.is_none() {
        buf.clear();
        let mut empty = m.board & !(red | blue);
        while empty != 0 {
            buf.push(empty.trailing_zeros() as u8);
            empty &= empty - 1;
        }
        if buf.is_empty() {
            break;
        }
        let bit = 1u128 << buf[rng.next_below(buf.len() as u32) as usize];
        let won = match mover {
            Player::P1 => {
                red |= bit;
                Board::<N>::connects(red, m.top, m.bottom)
            }
            Player::P2 => {
                blue |= bit;
                Board::<N>::connects(blue, m.left, m.right)
            }
        };
        if won {
            winner = Some(mover);
        }
        mover = mover.opponent();
        plies += 1;
    }
    PlayoutResult {
        outcome: winner.map_or(Outcome::Draw, Outcome::Win),
        plies,
        final_score: match winner {
            Some(Player::P1) => 1,
            Some(Player::P2) => -1,
            None => 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::midgame_position_of;
    use pmcts_games::random_playout;
    use pmcts_util::Xoshiro256pp;

    /// Results and final streams equal the engine's playout, from roots of
    /// every depth up to finished games.
    fn check_equals_engine<const N: usize>() {
        for depth in 0..=(N * N) as u32 {
            let root: Hex<N> = midgame_position_of(u64::from(depth), depth);
            let mut engine = Xoshiro256pp::derive(7, u64::from(depth));
            let mut reference = engine.clone();
            assert_eq!(
                reference_playout(&root, &mut reference),
                random_playout(root, &mut engine),
                "Hex{N} root of {depth} plies"
            );
            assert_eq!(reference, engine, "Hex{N} root of {depth} plies");
        }
    }

    #[test]
    fn reference_equals_the_engine_playout() {
        check_equals_engine::<5>();
        check_equals_engine::<7>();
        check_equals_engine::<11>();
    }
}
