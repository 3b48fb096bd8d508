//! Hex on an N×N rhombus.
//!
//! The second "other domain" extension: Hex has no draws, no passes, and a
//! branching factor of up to N² — a very different tree shape from Reversi,
//! which stresses the searchers' expansion strategy. P1 ("Red") connects the
//! top and bottom rows; P2 ("Blue") connects the left and right columns.
//!
//! Stones are kept in `u128` bitboards (N ≤ 11 ⇒ ≤ 121 cells), and the six
//! hexagonal neighbour directions are shifts — the same technique as the
//! Reversi move generator. A playout ply costs amortised O(1):
//!
//! * **Move pick.** [`Game::random_move_with`] draws one
//!   `next_below(popcount(empty))` and returns the k-th empty cell in
//!   ascending order — with BMI2 `pdep` on the `u64` half that holds it
//!   where the host has BMI2, a bit loop elsewhere — exactly the cell the
//!   listed pick (`legal_moves`, then `buf[next_below(len)]`) returns.
//! * **Win test.** Each state keeps the host-only set of stones connected
//!   to their owner's start edge (Red: top row; Blue: left column). A new
//!   stone on the start edge, or next to the mover's anchored stones,
//!   grows that set by a flood fill through the mover's stones; the mover
//!   has won iff its anchored stones reach the far edge. Every other ply
//!   costs one mask test, and each fill step anchors at least one stone.
//!
//! Lane batches of 8 ([`Game::lane_playouts`], DESIGN.md §15) run the
//! same rules as one AVX-512 loop where the host has AVX-512F, VPOPCNTDQ,
//! VBMI2 and BMI2 (`hex/lanes.rs`): each lane's stones and anchored sets
//! as low/high word vectors, the same draw and `pdep` pick, and a masked
//! six-direction flood of the anchored sets. Elsewhere each lane is one
//! scalar playout.

use crate::game::{Game, MoveBuf, Outcome, Player};
use crate::playout::PlayoutResult;
use crate::reversi::bitboard::select_bit;
use crate::zobrist;
use pmcts_util::{Rng64, Xoshiro256pp};

mod lanes;

pub use lanes::vector_loop_available;

/// Zobrist key domain tag; the board size is mixed in so different `Hex<N>`
/// instantiations never share keys. Indices are `player * N² + cell`; no
/// side-to-move key (the stone count determines the mover).
const ZTAG: u64 = 0x6865_7868_6578_0002;

#[inline]
fn stone_key(n: usize, p: Player, cell: u8) -> u64 {
    zobrist::key(
        ZTAG ^ (n as u64) << 32,
        p.index() as u64 * (n * n) as u64 + cell as u64,
    )
}

/// Hex position on an `N`×`N` board, cell index = `row * N + col`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Hex<const N: usize> {
    /// P1 ("Red", connects top row to bottom row).
    red: u128,
    /// P2 ("Blue", connects left column to right column).
    blue: u128,
    /// Host-only win-test cache: each player's stones connected to that
    /// player's start edge (Red's to the top row, Blue's to the left
    /// column). The two sets are disjoint, so one word holds both; it is a
    /// pure function of `red` and `blue`.
    anchored: u128,
    /// Plies played.
    plies: u16,
    /// Winner, set as soon as a connection is completed.
    winner: Option<Player>,
    /// Incremental Zobrist hash (pure function of the stone bitboards).
    hash: u64,
}

/// 5×5 Hex.
pub type Hex5 = Hex<5>;
/// 7×7 Hex (default size for tests and examples).
pub type Hex7 = Hex<7>;
/// 11×11 Hex (tournament size).
pub type Hex11 = Hex<11>;

/// Mask of all cells of an N×N board.
const fn board_mask(n: usize) -> u128 {
    if n * n == 128 {
        u128::MAX
    } else {
        (1u128 << (n * n)) - 1
    }
}

/// Mask of cells NOT in column 0.
const fn not_first_col(n: usize) -> u128 {
    let mut m = 0u128;
    let mut r = 0;
    while r < n {
        let mut c = 1;
        while c < n {
            m |= 1u128 << (r * n + c);
            c += 1;
        }
        r += 1;
    }
    m
}

/// Mask of cells NOT in column N−1.
const fn not_last_col(n: usize) -> u128 {
    let mut m = 0u128;
    let mut r = 0;
    while r < n {
        let mut c = 0;
        while c + 1 < n {
            m |= 1u128 << (r * n + c);
            c += 1;
        }
        r += 1;
    }
    m
}

/// Mask of row 0 / row N−1 / col 0 / col N−1.
const fn edge_masks(n: usize) -> (u128, u128, u128, u128) {
    let mut top = 0u128;
    let mut bottom = 0u128;
    let mut left = 0u128;
    let mut right = 0u128;
    let mut i = 0;
    while i < n {
        top |= 1u128 << i;
        bottom |= 1u128 << ((n - 1) * n + i);
        left |= 1u128 << (i * n);
        right |= 1u128 << (i * n + n - 1);
        i += 1;
    }
    (top, bottom, left, right)
}

impl<const N: usize> Hex<N> {
    const BOARD: u128 = board_mask(N);
    const NOT_FIRST_COL: u128 = not_first_col(N);
    const NOT_LAST_COL: u128 = not_last_col(N);
    const EDGES: (u128, u128, u128, u128) = edge_masks(N);
    /// [`neighbours`](Self::neighbours) of each single cell.
    const CELL_NEIGHBOURS: [u128; 128] = {
        let mut table = [0u128; 128];
        let mut cell = 0;
        while cell < N * N {
            table[cell] = Self::neighbours(1 << cell);
            cell += 1;
        }
        table
    };

    /// Stones of player `p`.
    pub fn stones(&self, p: Player) -> u128 {
        match p {
            Player::P1 => self.red,
            Player::P2 => self.blue,
        }
    }

    /// Plies played so far.
    pub fn plies(&self) -> u16 {
        self.plies
    }

    /// Expands `set` by one step of hexagonal adjacency, clipped to the
    /// board. Neighbours of (r,c): (r,c±1), (r±1,c), (r−1,c+1), (r+1,c−1).
    #[inline]
    const fn neighbours(set: u128) -> u128 {
        let e = (set & Self::NOT_LAST_COL) << 1;
        let w = (set & Self::NOT_FIRST_COL) >> 1;
        let s = set << N;
        let n = set >> N;
        let ne = (set & Self::NOT_LAST_COL) >> (N - 1);
        let sw = (set & Self::NOT_FIRST_COL) << (N - 1);
        (e | w | s | n | ne | sw) & Self::BOARD
    }

    /// Player `p`'s (start, far) edges.
    #[inline]
    fn edges(p: Player) -> (u128, u128) {
        let (top, bottom, left, right) = Self::EDGES;
        match p {
            Player::P1 => (top, bottom),
            Player::P2 => (left, right),
        }
    }

    /// Grows `reached` through `stones` until it stops changing.
    #[inline]
    fn flood(mut reached: u128, stones: u128) -> u128 {
        loop {
            let grown = reached | (Self::neighbours(reached) & stones);
            if grown == reached {
                return reached;
            }
            reached = grown;
        }
    }

    /// Whether `stones` connect `from_edge` to `to_edge`, by a flood fill
    /// from scratch: the oracle of the incremental `anchored` win test.
    #[cfg(test)]
    fn connects(stones: u128, from_edge: u128, to_edge: u128) -> bool {
        Self::flood(stones & from_edge, stones) & to_edge != 0
    }

    /// Whether player `p` has completed their connection: their stones
    /// connected to their start edge reach the far edge.
    pub fn has_won(&self, p: Player) -> bool {
        let far = Self::edges(p).1;
        self.anchored & self.stones(p) & far != 0
    }
}

/// The `k`-th (0-based) set bit of `mask` in ascending order, by a bit
/// loop over the `u64` half that holds it. Debug-panics if `k` is out of
/// range.
fn select_portable(mask: u128, k: u32) -> u8 {
    let low = mask as u64;
    let below = low.count_ones();
    if k < below {
        select_bit(low, k)
    } else {
        64 + select_bit((mask >> 64) as u64, k - below)
    }
}

/// [`select_portable`] in O(1): `pdep` deposits the bit `1 << k` on the
/// `k`-th set bit of the half that holds it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2,popcnt")]
fn select_pdep(mask: u128, k: u32) -> u8 {
    use core::arch::x86_64::_pdep_u64;
    let low = mask as u64;
    let below = low.count_ones();
    if k < below {
        _pdep_u64(1 << k, low).trailing_zeros() as u8
    } else {
        64 + _pdep_u64(1 << (k - below), (mask >> 64) as u64).trailing_zeros() as u8
    }
}

/// One uniform pick among the set bits of non-empty `empty`, with the
/// draw inlined under the same features as [`select_pdep`] so both
/// popcounts are single instructions.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2,popcnt")]
fn pick_pdep<R: Rng64>(empty: u128, rng: &mut R) -> u8 {
    select_pdep(empty, rng.next_below(empty.count_ones()))
}

impl<const N: usize> Game for Hex<N> {
    /// A move is a cell index `0..N²`.
    type Move = u8;

    const NAME: &'static str = "hex";
    const MAX_GAME_LENGTH: usize = N * N;

    // The 8-lane AVX-512 `lane_playouts` below is a measured win: the
    // `throughput` bin's `hex_playouts` record times it against scalar
    // playouts, and `check_bench.py` gates the ratio at >= 2.0 where the
    // loop runs.
    const LANE_ENGINE: bool = true;

    fn initial() -> Self {
        assert!(N >= 2 && N * N <= 128, "unsupported Hex size");
        Hex {
            red: 0,
            blue: 0,
            anchored: 0,
            plies: 0,
            winner: None,
            hash: 0,
        }
    }

    #[inline]
    fn to_move(&self) -> Player {
        if self.plies.is_multiple_of(2) {
            Player::P1
        } else {
            Player::P2
        }
    }

    fn legal_moves(&self, out: &mut MoveBuf<u8>) {
        out.clear();
        if self.winner.is_some() {
            return;
        }
        let mut empty = Self::BOARD & !(self.red | self.blue);
        while empty != 0 {
            out.push(empty.trailing_zeros() as u8);
            empty &= empty - 1;
        }
    }

    fn apply(&mut self, cell: u8) {
        debug_assert!((cell as usize) < N * N);
        debug_assert!(self.winner.is_none(), "game already decided");
        let bit = 1u128 << cell;
        debug_assert_eq!((self.red | self.blue) & bit, 0, "cell occupied");
        let mover = self.to_move();
        let own = match mover {
            Player::P1 => {
                self.red |= bit;
                self.red
            }
            Player::P2 => {
                self.blue |= bit;
                self.blue
            }
        };
        self.hash ^= stone_key(N, mover, cell);
        self.plies += 1;
        // The new stone joins the anchored set iff it lies on the start
        // edge or touches an anchored stone of its own colour; then so do
        // the groups it connects. Otherwise nothing it touches is anchored,
        // and no connection changed.
        let (start, far) = Self::edges(mover);
        let anchored = self.anchored & own;
        if (bit & start) | (Self::CELL_NEIGHBOURS[cell as usize] & anchored) != 0 {
            let grown = Self::flood(anchored | bit, own);
            self.anchored |= grown;
            if grown & far != 0 {
                self.winner = Some(mover);
            }
        }
    }

    #[inline]
    fn is_terminal(&self) -> bool {
        // By the Hex theorem a full board always contains a connection, so
        // the winner check alone suffices; the occupancy test is a safety
        // net for unreachable hand-built positions.
        self.winner.is_some() || (self.red | self.blue) == Self::BOARD
    }

    fn outcome(&self) -> Option<Outcome> {
        self.winner.map(Outcome::Win).or({
            if (self.red | self.blue) == Self::BOARD {
                Some(Outcome::Draw) // unreachable in real play
            } else {
                None
            }
        })
    }

    fn score(&self) -> i32 {
        match self.winner {
            Some(Player::P1) => 1,
            Some(Player::P2) => -1,
            None => 0,
        }
    }

    #[inline]
    fn zobrist(&self) -> u64 {
        self.hash
    }

    fn device_state_bytes() -> usize {
        // Everything except the host-only `anchored` word: 48 bytes. The
        // host-only `hash` sits in what would otherwise be padding (u128
        // alignment), so removing it would not shrink the struct.
        std::mem::size_of::<Self>() - std::mem::size_of::<u128>()
    }

    /// Bitboard-native uniform move choice: the k-th empty cell for one
    /// `next_below(popcount(empty))` draw, the cell and draw of the listed
    /// pick, without materialising a move list (`_buf` is unused, as in
    /// Reversi). `pdep` is chosen per call where the host has BMI2.
    #[inline]
    fn random_move_with<R: Rng64>(&self, rng: &mut R, _buf: &mut MoveBuf<u8>) -> Option<u8> {
        if self.winner.is_some() {
            return None;
        }
        let empty = Self::BOARD & !(self.red | self.blue);
        if empty == 0 {
            return None;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("bmi2")
            && std::arch::is_x86_feature_detected!("popcnt")
        {
            // SAFETY: both features `pick_pdep` enables were just checked.
            return Some(unsafe { pick_pdep(empty, rng) });
        }
        Some(select_portable(empty, rng.next_below(empty.count_ones())))
    }

    /// Lane playouts (DESIGN.md §15), bit-identical to `L` scalar
    /// playouts: at `L = 8` on AVX-512 hosts one vector loop
    /// (`hex/lanes.rs`), elsewhere one scalar playout per lane.
    fn lane_playouts<const L: usize>(
        roots: &[Self; L],
        rngs: &mut [Xoshiro256pp; L],
    ) -> [PlayoutResult; L] {
        lanes::lane_playouts(roots, rngs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_util::{SplitMix64, Xoshiro256pp};
    use proptest::prelude::*;

    #[test]
    fn initial_board_empty() {
        let s = Hex7::initial();
        assert_eq!(s.stones(Player::P1), 0);
        assert_eq!(s.to_move(), Player::P1);
        let mut buf = MoveBuf::new();
        s.legal_moves(&mut buf);
        assert_eq!(buf.len(), 49);
    }

    #[test]
    fn straight_column_wins_for_red() {
        let mut s = Hex5::initial();
        // Red plays column 0 top to bottom; Blue plays scattered cells that
        // do not connect.
        let red_moves = [0u8, 5, 10, 15, 20];
        let blue_moves = [1u8, 7, 13, 19];
        for i in 0..4 {
            s.apply(red_moves[i]);
            s.apply(blue_moves[i]);
        }
        assert!(!s.is_terminal());
        s.apply(red_moves[4]);
        assert!(s.is_terminal());
        assert_eq!(s.outcome(), Some(Outcome::Win(Player::P1)));
    }

    #[test]
    fn straight_row_wins_for_blue() {
        let mut s = Hex5::initial();
        // Blue fills row 2 (cells 10..15); Red scatters.
        let blue_moves = [10u8, 11, 12, 13, 14];
        let red_moves = [0u8, 2, 4, 21, 23];
        for i in 0..5 {
            s.apply(red_moves[i]);
            if s.is_terminal() {
                break;
            }
            s.apply(blue_moves[i]);
        }
        assert_eq!(s.outcome(), Some(Outcome::Win(Player::P2)));
    }

    #[test]
    fn diagonal_adjacency_counts() {
        // Red path using the NE/SW hex adjacency: (0,1)=1, (1,0)=5,
        // (2,0)=10 ... wait (0,1) and (1,0) are hex-adjacent via SW.
        let mut s = Hex5::initial();
        let red = [1u8, 5, 10, 15, 20];
        let blue = [3u8, 8, 13, 18];
        for i in 0..4 {
            s.apply(red[i]);
            s.apply(blue[i]);
        }
        s.apply(red[4]);
        assert_eq!(s.outcome(), Some(Outcome::Win(Player::P1)), "\n{s:?}");
    }

    #[test]
    fn zigzag_is_not_connected_without_adjacency() {
        // Two red stones in the SAME column but two rows apart: not adjacent.
        let mut s = Hex5::initial();
        s.apply(0); // red (0,0)
        s.apply(4); // blue
        s.apply(10); // red (2,0) — gap at (1,0)
        assert!(!s.has_won(Player::P1));
    }

    #[test]
    fn no_winner_mid_game() {
        let s = Hex7::initial();
        assert_eq!(s.outcome(), None);
        assert!(!s.has_won(Player::P1));
        assert!(!s.has_won(Player::P2));
    }

    #[test]
    fn random_games_always_produce_a_winner() {
        let mut rng = Xoshiro256pp::new(77);
        for _ in 0..30 {
            let mut s = Hex7::initial();
            let mut plies = 0;
            while let Some(mv) = s.random_move(&mut rng) {
                s.apply(mv);
                plies += 1;
                assert!(plies <= Hex7::MAX_GAME_LENGTH);
            }
            match s.outcome() {
                Some(Outcome::Win(_)) => {}
                other => panic!("hex game ended with {other:?}"),
            }
        }
    }

    #[test]
    fn neighbour_masks_match_scalar_adjacency() {
        // Exhaustive per-cell check on the 5×5 board against coordinate math.
        for cell in 0..25usize {
            let set = 1u128 << cell;
            let fast = Hex::<5>::neighbours(set);
            let (r, c) = (cell as i32 / 5, cell as i32 % 5);
            let mut slow = 0u128;
            for (dr, dc) in [(0, 1), (0, -1), (1, 0), (-1, 0), (-1, 1), (1, -1)] {
                let (nr, nc) = (r + dr, c + dc);
                if (0..5).contains(&nr) && (0..5).contains(&nc) {
                    slow |= 1u128 << (nr * 5 + nc);
                }
            }
            assert_eq!(fast, slow, "cell {cell}");
        }
    }

    #[test]
    fn transposed_move_orders_hash_equal() {
        // Red 0, Blue 10, Red 5 vs Red 5, Blue 10, Red 0.
        let mut a = Hex5::initial();
        for mv in [0u8, 10, 5] {
            a.apply(mv);
        }
        let mut b = Hex5::initial();
        for mv in [5u8, 10, 0] {
            b.apply(mv);
        }
        assert_eq!(a, b);
        assert_eq!(a.zobrist(), b.zobrist());
        // Board sizes key differently: the same cells on Hex7 hash apart.
        let mut c = Hex7::initial();
        for mv in [0u8, 10, 5] {
            c.apply(mv);
        }
        assert_ne!(a.zobrist(), c.zobrist());
    }

    #[test]
    fn larger_boards_work() {
        let s = Hex11::initial();
        let mut buf = MoveBuf::new();
        s.legal_moves(&mut buf);
        assert_eq!(buf.len(), 121);
    }

    #[test]
    fn host_only_anchored_word_keeps_the_device_payload() {
        assert_eq!(std::mem::size_of::<Hex11>(), 64);
        assert_eq!(Hex11::device_state_bytes(), 48);
    }

    /// Each player's stones flood-filled from scratch from their start edge.
    fn anchored_from_scratch<const N: usize>(s: &Hex<N>) -> u128 {
        let fill = |p| Hex::<N>::flood(s.stones(p) & Hex::<N>::edges(p).0, s.stones(p));
        fill(Player::P1) | fill(Player::P2)
    }

    /// The pick the trait default makes: list the moves, draw an index.
    fn listed_pick<G: Game, R: Rng64>(s: &G, rng: &mut R) -> Option<G::Move> {
        let mut buf = MoveBuf::new();
        s.legal_moves(&mut buf);
        (!buf.is_empty()).then(|| buf[rng.next_below(buf.len() as u32) as usize])
    }

    /// Along one random game, after every `apply`: the incremental anchored
    /// set equals the from-scratch fill, and a player is the winner iff
    /// the from-scratch `connects` says their stones join their edges.
    fn check_anchored_along_a_game<const N: usize>(seed: u64) {
        let mut rng = Xoshiro256pp::new(seed);
        let mut s = Hex::<N>::initial();
        while let Some(cell) = listed_pick(&s, &mut rng) {
            s.apply(cell);
            assert_eq!(s.anchored, anchored_from_scratch(&s), "{s:?}");
            for p in [Player::P1, Player::P2] {
                let (start, far) = Hex::<N>::edges(p);
                let connected = Hex::<N>::connects(s.stones(p), start, far);
                assert_eq!(s.winner == Some(p), connected, "{p:?} in {s:?}");
                assert_eq!(s.has_won(p), connected, "{p:?} in {s:?}");
            }
        }
        assert!(s.winner.is_some(), "a full board has a connection: {s:?}");
    }

    /// At every position of one random game, the terminal one included:
    /// `random_move_with` returns the listed pick's cell and leaves the
    /// stream where the listed pick leaves it.
    fn check_pick_along_a_game<const N: usize>(seed: u64) {
        let mut walk = Xoshiro256pp::new(seed);
        let mut s = Hex::<N>::initial();
        let mut buf = MoveBuf::new();
        loop {
            let mut fast = Xoshiro256pp::derive(seed, u64::from(s.plies));
            let mut listed = fast.clone();
            let cell = s.random_move_with(&mut fast, &mut buf);
            assert_eq!(cell, listed_pick(&s, &mut listed), "{s:?}");
            assert_eq!(fast, listed, "stream diverged at {s:?}");
            match listed_pick(&s, &mut walk) {
                Some(next) => s.apply(next),
                None => break,
            }
        }
        assert!(s.is_terminal());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn anchored_set_matches_a_fill_from_scratch(seed in any::<u64>()) {
            check_anchored_along_a_game::<5>(seed);
            check_anchored_along_a_game::<7>(seed);
            check_anchored_along_a_game::<11>(seed);
        }

        #[test]
        fn random_move_with_matches_the_listed_pick(seed in any::<u64>()) {
            check_pick_along_a_game::<5>(seed);
            check_pick_along_a_game::<7>(seed);
            check_pick_along_a_game::<11>(seed);
        }
    }

    #[test]
    fn portable_select_enumerates_in_order() {
        let mut rng = SplitMix64::new(48);
        for _ in 0..500 {
            let mask = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
            let mask = mask & (u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()));
            let cells: Vec<u8> = (0..128).filter(|&i| mask >> i & 1 == 1).collect();
            for (k, &cell) in cells.iter().enumerate() {
                assert_eq!(select_portable(mask, k as u32), cell, "{mask:#x} k={k}");
            }
        }
        assert_eq!(select_portable(u128::MAX, 127), 127);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pdep_select_matches_portable_select() {
        if !(std::arch::is_x86_feature_detected!("bmi2")
            && std::arch::is_x86_feature_detected!("popcnt"))
        {
            println!("pdep select: skipped (host lacks bmi2)");
            return;
        }
        let mut rng = SplitMix64::new(49);
        for round in 0..2_000 {
            let mut mask = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
            // Dense, half and sparse masks, and one half empty.
            for _ in 0..round % 3 {
                mask &= u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
            }
            match round % 7 {
                0 => mask &= u128::from(u64::MAX),
                1 => mask &= !u128::from(u64::MAX),
                _ => {}
            }
            for k in 0..mask.count_ones() {
                // SAFETY: both features were just checked.
                let fast = unsafe { select_pdep(mask, k) };
                assert_eq!(fast, select_portable(mask, k), "{mask:#x} k={k}");
            }
        }
    }
}
