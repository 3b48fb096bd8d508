//! Game engines for parallel Monte Carlo Tree Search.
//!
//! The paper (Rocki & Suda, IPDPS 2011) evaluates on Reversi (Othello); its
//! future-work section asks for "application of the algorithm to other
//! domains", so the engines here are written against a small generic
//! [`Game`] trait and the workspace ships four domains:
//!
//! * [`reversi`] — the paper's benchmark game. Bitboard implementation with
//!   shift-based move generation (branching factor ≈ 8, non-uniform tree,
//!   games last ≤ 60 moves plus passes).
//! * [`connect4`] — 7×6 Connect Four on the classic Fhourstones bitboard.
//! * [`tictactoe`] — exactly solvable; used by the test suite to verify that
//!   the searchers converge to game-theoretically optimal moves.
//! * [`hex`] — Hex on an N×N rhombus (no draws; win detection from an
//!   incrementally kept set of edge-anchored stones; 8 playouts as one
//!   AVX-512 loop), exercising a game with a much larger branching factor.
//!
//! The [`playout`] module implements the random simulation step shared by
//! every MCTS variant in `pmcts-core`.

#[cfg(target_arch = "x86_64")]
mod avx512;
pub mod connect4;
pub mod game;
pub mod hex;
pub mod playout;
pub mod reversi;
pub mod tictactoe;
pub mod zobrist;

pub use connect4::Connect4;
pub use game::{Game, MoveBuf, Outcome, Player};
pub use hex::{Hex, Hex11, Hex5, Hex7};
pub use playout::{play_lanes, random_playout, LaneBatch, PlayoutResult, LANE_WIDTH};
pub use reversi::{Reversi, ReversiMove};
pub use tictactoe::TicTacToe;
