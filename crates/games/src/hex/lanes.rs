//! Hex lane playouts (DESIGN.md §15): `L` playouts advanced together,
//! bit-identical to `L` scalar [`random_playout`] calls — same results and
//! same final RNG states.
//!
//! At `L = 8` on hosts with AVX-512F, VPOPCNTDQ, VBMI2 and BMI2 the batch
//! runs inside one `#[target_feature]` loop, with every lane's stones,
//! anchored sets, ply counter and xoshiro256++ state in `__m512i`
//! registers. Elsewhere, and at other widths, each lane is one scalar
//! [`random_playout`], which is also the oracle the tests hold the loop to.

use super::Hex;
use crate::playout::{random_playout, PlayoutResult};
use pmcts_util::Xoshiro256pp;

/// Whether this host runs 8-lane Hex batches as the AVX-512 loop (it has
/// AVX-512F, VPOPCNTDQ, VBMI2 and BMI2); elsewhere each lane is one
/// scalar playout.
pub fn vector_loop_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    return avx512::available();
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Runs the batch on the fastest variant this host supports, chosen once
/// per batch.
pub(super) fn lane_playouts<const N: usize, const L: usize>(
    roots: &[Hex<N>; L],
    rngs: &mut [Xoshiro256pp; L],
) -> [PlayoutResult; L] {
    #[cfg(target_arch = "x86_64")]
    if L == 8 && avx512::available() {
        let roots8: &[Hex<N>; 8] = roots.as_slice().try_into().expect("L == 8");
        let rngs8: &mut [Xoshiro256pp; 8] = rngs.as_mut_slice().try_into().expect("L == 8");
        // SAFETY: `available` checked every feature `playouts8` enables.
        let results = unsafe { avx512::playouts8(roots8, rngs8) };
        return std::array::from_fn(|i| results[i]);
    }
    std::array::from_fn(|i| random_playout(roots[i], &mut rngs[i]))
}

/// The whole-loop variant: one batch of 8 in one out-of-line function.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::Hex;
    use crate::avx512::{
        check_lengths, load, load_streams, next_below8, pdep8, store, store_streams,
    };
    use crate::game::{Game, Outcome, Player};
    use crate::playout::PlayoutResult;
    use core::arch::x86_64::{
        __m512i, __mmask8, _mm512_add_epi64, _mm512_and_si512, _mm512_cmpge_epu64_mask,
        _mm512_mask_add_epi64, _mm512_mask_blend_epi64, _mm512_mask_cmpneq_epu64_mask,
        _mm512_mask_sub_epi64, _mm512_mask_test_epi64_mask, _mm512_maskz_mov_epi64,
        _mm512_or_si512, _mm512_popcnt_epi64, _mm512_set1_epi64, _mm512_setzero_si512,
        _mm512_shldv_epi64, _mm512_shrdv_epi64, _mm512_sllv_epi64, _mm512_srlv_epi64,
        _mm512_ternarylogic_epi64,
    };
    use pmcts_util::Xoshiro256pp;

    /// `vpternlogq` immediate for `a | b | c`.
    const OR3: i32 = 0xFE;
    /// `vpternlogq` immediate for `a | (b & c)`.
    const OR_AND: i32 = 0xF8;
    /// `vpternlogq` immediate for `(a | b) & c`.
    const EITHER_AND: i32 = 0xA8;
    /// `vpternlogq` immediate for `!(a | b) & c`.
    const NEITHER_AND: i32 = 0x02;

    /// Whether this host has every feature [`playouts8`] enables.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512vpopcntdq")
            && is_x86_feature_detected!("avx512vbmi2")
            && is_x86_feature_detected!("bmi2")
    }

    /// One `u128` cell set per lane, as its low and high words.
    #[derive(Clone, Copy)]
    pub(super) struct Sets {
        lo: __m512i,
        hi: __m512i,
    }

    impl Sets {
        /// The sets `sets`, lane `i` from `sets[i]`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        pub(super) fn load(sets: [u128; 8]) -> Self {
            Sets {
                lo: load(&sets.map(|set| set as u64)),
                hi: load(&sets.map(|set| (set >> 64) as u64)),
            }
        }

        /// The lanes' sets.
        #[cfg(test)]
        #[target_feature(enable = "avx512f")]
        pub(super) fn store(self) -> [u128; 8] {
            let (lo, hi) = (store(self.lo), store(self.hi));
            std::array::from_fn(|i| u128::from(hi[i]) << 64 | u128::from(lo[i]))
        }

        /// `set` in every lane.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn splat(set: u128) -> Self {
            Sets {
                lo: _mm512_set1_epi64(set as i64),
                hi: _mm512_set1_epi64((set >> 64) as i64),
            }
        }

        /// `f(a, b, c)` per bit, for the `vpternlogq` immediate `F`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn ternary<const F: i32>(a: Self, b: Self, c: Self) -> Self {
            Sets {
                lo: _mm512_ternarylogic_epi64::<F>(a.lo, b.lo, c.lo),
                hi: _mm512_ternarylogic_epi64::<F>(a.hi, b.hi, c.hi),
            }
        }

        #[target_feature(enable = "avx512f")]
        #[inline]
        fn and(self, other: Self) -> Self {
            Sets {
                lo: _mm512_and_si512(self.lo, other.lo),
                hi: _mm512_and_si512(self.hi, other.hi),
            }
        }

        #[target_feature(enable = "avx512f")]
        #[inline]
        fn or(self, other: Self) -> Self {
            Sets {
                lo: _mm512_or_si512(self.lo, other.lo),
                hi: _mm512_or_si512(self.hi, other.hi),
            }
        }

        /// `a` in the lanes of `k`, `b` elsewhere.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn select(k: __mmask8, a: Self, b: Self) -> Self {
            Sets {
                lo: _mm512_mask_blend_epi64(k, b.lo, a.lo),
                hi: _mm512_mask_blend_epi64(k, b.hi, a.hi),
            }
        }

        /// The lanes of `k` whose set meets `other`'s.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn meets(self, k: __mmask8, other: Self) -> __mmask8 {
            _mm512_mask_test_epi64_mask(k, self.lo, other.lo)
                | _mm512_mask_test_epi64_mask(k, self.hi, other.hi)
        }

        /// The lanes of `k` whose set differs from `other`'s.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn differs(self, k: __mmask8, other: Self) -> __mmask8 {
            _mm512_mask_cmpneq_epu64_mask(k, self.lo, other.lo)
                | _mm512_mask_cmpneq_epu64_mask(k, self.hi, other.hi)
        }

        /// Each set shifted left by `n` (`0 < n < 64` in every lane): the
        /// high word takes the bits the low word shifts out.
        #[target_feature(enable = "avx512f,avx512vbmi2")]
        #[inline]
        fn shl(self, n: __m512i) -> Self {
            Sets {
                lo: _mm512_sllv_epi64(self.lo, n),
                hi: _mm512_shldv_epi64(self.hi, self.lo, n),
            }
        }

        /// Each set shifted right by `n` (`0 < n < 64` in every lane).
        #[target_feature(enable = "avx512f,avx512vbmi2")]
        #[inline]
        fn shr(self, n: __m512i) -> Self {
            Sets {
                lo: _mm512_shrdv_epi64(self.lo, self.hi, n),
                hi: _mm512_srlv_epi64(self.hi, n),
            }
        }
    }

    /// The board geometry of `Hex<N>` in every lane: the shift counts of
    /// the six neighbour directions (1 along a row, N − 1 along the
    /// north-east diagonal, N down a column) and the column masks.
    pub(super) struct Board {
        one: __m512i,
        diagonal: __m512i,
        row: __m512i,
        not_first_col: Sets,
        not_last_col: Sets,
    }

    impl Board {
        #[target_feature(enable = "avx512f")]
        #[inline]
        pub(super) fn new<const N: usize>() -> Self {
            Board {
                one: _mm512_set1_epi64(1),
                diagonal: _mm512_set1_epi64(N as i64 - 1),
                row: _mm512_set1_epi64(N as i64),
                not_first_col: Sets::splat(Hex::<N>::NOT_FIRST_COL),
                not_last_col: Sets::splat(Hex::<N>::NOT_LAST_COL),
            }
        }

        /// `own` masked to the cells eastward and westward shifts land on,
        /// which [`grow`](Self::grow) takes.
        #[target_feature(enable = "avx512f")]
        #[inline]
        pub(super) fn by_column(&self, own: Sets) -> [Sets; 3] {
            [own.and(self.not_first_col), own.and(self.not_last_col), own]
        }

        /// `reached` plus its hexagonal neighbours among `own`, given
        /// `own` by [`by_column`](Self::by_column). A neighbour (r, c ± 1),
        /// (r ± 1, c), (r − 1, c + 1) or (r + 1, c − 1) is a shift by 1,
        /// N or N − 1; the shifts that would wrap a row end land on the
        /// first or last column, which the masked `own` excludes, so the
        /// six terms equal [`Hex::neighbours`]` & own`.
        #[target_feature(enable = "avx512f,avx512vbmi2")]
        #[inline]
        pub(super) fn grow(&self, reached: Sets, own: &[Sets; 3]) -> Sets {
            let eastward = Sets::ternary::<EITHER_AND>(
                reached.shl(self.one),
                reached.shr(self.diagonal),
                own[0],
            );
            let westward = Sets::ternary::<EITHER_AND>(
                reached.shr(self.one),
                reached.shl(self.diagonal),
                own[1],
            );
            let vertical =
                Sets::ternary::<EITHER_AND>(reached.shl(self.row), reached.shr(self.row), own[2]);
            Sets::ternary::<OR3>(reached, eastward, westward).or(vertical)
        }
    }

    /// Runs 8 playouts to the end. Each lane's stones and anchored sets
    /// (its stones connected to their owner's start edge) are kept for the
    /// side to move and its opponent, and swap sides every ply. Per round,
    /// for the live lanes:
    ///
    /// 1. each draws `next_below(popcount(empty))` ([`next_below8`]), and
    ///    `pdep` places its stone on the k-th empty cell, in whichever word
    ///    holds it — the cell and draw of [`Hex::random_move_with`];
    /// 2. a masked flood grows each mover's anchored set, seeded with the
    ///    new stone if it lies on the start edge, through the mover's
    ///    stones until no lane's set changes: the stone joins iff it lies
    ///    on the start edge or touches an anchored stone, as in
    ///    [`Hex::apply`], and lanes whose stone does neither drop out
    ///    after the first step;
    /// 3. a lane whose anchored set reaches the far edge has won and ends.
    ///
    /// A live lane with no empty cell and no winner would end drawn, as the
    /// scalar path does (a full Hex board always has a winner).
    #[target_feature(enable = "avx512f,avx512vpopcntdq,avx512vbmi2,bmi2")]
    pub(super) fn playouts8<const N: usize>(
        roots: &[Hex<N>; 8],
        rngs: &mut [Xoshiro256pp; 8],
    ) -> [PlayoutResult; 8] {
        let mut own = [0u128; 8];
        let mut opp = [0u128; 8];
        // Lanes whose mover is Red; lanes with a winner; lanes Red won.
        let mut red: __mmask8 = 0;
        let mut won: __mmask8 = 0;
        let mut red_won: __mmask8 = 0;
        let mut live: __mmask8 = 0;
        for (i, root) in roots.iter().enumerate() {
            let mover = root.to_move();
            own[i] = root.stones(mover);
            opp[i] = root.stones(mover.opponent());
            red |= u8::from(mover == Player::P1) << i;
            won |= u8::from(root.winner.is_some()) << i;
            red_won |= u8::from(root.winner == Some(Player::P1)) << i;
            live |= u8::from(!root.is_terminal()) << i;
        }
        let anchored = Sets::load(roots.each_ref().map(|root| root.anchored));
        let mut own = Sets::load(own);
        let mut opp = Sets::load(opp);
        let mut own_anchored = anchored.and(own);
        let mut opp_anchored = anchored.and(opp);
        let board = Board::new::<N>();
        let full = Sets::splat(Hex::<N>::BOARD);
        let (top, bottom, left, right) = Hex::<N>::EDGES;
        let (top, bottom, left, right) = (
            Sets::splat(top),
            Sets::splat(bottom),
            Sets::splat(left),
            Sets::splat(right),
        );
        let mut s = load_streams(rngs);
        let mut plies = _mm512_setzero_si512();
        let one = _mm512_set1_epi64(1);
        while live != 0 {
            let empty = Sets::ternary::<NEITHER_AND>(own, opp, full);
            let below = _mm512_popcnt_epi64(empty.lo);
            let bound = _mm512_add_epi64(below, _mm512_popcnt_epi64(empty.hi));
            live = _mm512_mask_test_epi64_mask(live, bound, bound);
            if live == 0 {
                break;
            }
            let k = next_below8(&mut s, live, bound);
            // The k-th empty cell is in the high word iff k ≥ the low
            // word's count, at index k minus that count there.
            let in_hi = _mm512_cmpge_epu64_mask(k, below);
            let k = _mm512_mask_sub_epi64(k, in_hi, k, below);
            let bit = pdep8(
                _mm512_sllv_epi64(one, k),
                _mm512_mask_blend_epi64(in_hi, empty.lo, empty.hi),
            );
            let stone = Sets {
                lo: _mm512_maskz_mov_epi64(!in_hi, bit),
                hi: _mm512_maskz_mov_epi64(in_hi, bit),
            };
            let mover = own.or(stone);
            let (start, far) = (
                Sets::select(red, top, left),
                Sets::select(red, bottom, right),
            );
            let by_column = board.by_column(mover);
            let mut reached = Sets::ternary::<OR_AND>(own_anchored, stone, start);
            let mut growing = live;
            while growing != 0 {
                let grown = board.grow(reached, &by_column);
                growing = grown.differs(growing, reached);
                reached = grown;
            }
            let connected = reached.meets(live, far);
            won |= connected;
            red_won |= connected & red;
            plies = _mm512_mask_add_epi64(plies, live, plies, one);
            check_lengths::<Hex<N>>(plies);
            red ^= live;
            live &= !connected;
            // Hand the move to the other side.
            (own, opp) = (opp, mover);
            (own_anchored, opp_anchored) = (opp_anchored, reached);
        }
        *rngs = store_streams(&s);
        let plies = store(plies);
        std::array::from_fn(|i| {
            let (outcome, final_score) = match (won >> i & 1 != 0, red_won >> i & 1 != 0) {
                (false, _) => (Outcome::Draw, 0),
                (true, true) => (Outcome::Win(Player::P1), 1),
                (true, false) => (Outcome::Win(Player::P2), -1),
            };
            PlayoutResult {
                outcome,
                plies: plies[i] as u32,
                final_score,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{Game, Outcome, Player};
    use crate::playout::stream_with_next_output;
    use pmcts_util::{Rng64, SplitMix64};

    /// Whether the whole-loop variant can run here; prints which variant a
    /// test covers, since CI runners may lack AVX-512.
    fn whole_loop_runs() -> bool {
        #[cfg(target_arch = "x86_64")]
        if avx512::available() {
            println!("AVX-512 whole loop: ran");
            return true;
        }
        println!(
            "AVX-512 whole loop: skipped (host lacks avx512f, avx512vpopcntdq, avx512vbmi2 or bmi2)"
        );
        false
    }

    /// Runs the batch on every variant this host has and asserts each
    /// equals 8 scalar playouts: results and final RNG states. Returns the
    /// scalar results.
    fn assert_loop_matches_scalar<const N: usize>(
        roots: &[Hex<N>; 8],
        rngs: &[Xoshiro256pp; 8],
    ) -> [PlayoutResult; 8] {
        let mut expect_rngs = rngs.clone();
        let expect: [PlayoutResult; 8] =
            std::array::from_fn(|i| random_playout(roots[i], &mut expect_rngs[i]));
        let check = |variant: &str, results: [PlayoutResult; 8], finals: [Xoshiro256pp; 8]| {
            for i in 0..8 {
                assert_eq!(results[i], expect[i], "{variant} Hex{N} lane {i}: result");
                assert_eq!(
                    finals[i], expect_rngs[i],
                    "{variant} Hex{N} lane {i}: RNG state"
                );
            }
        };
        let mut finals = rngs.clone();
        check("dispatched", lane_playouts(roots, &mut finals), finals);
        #[cfg(target_arch = "x86_64")]
        if avx512::available() {
            let mut finals = rngs.clone();
            // SAFETY: `available` checked every feature `playouts8` enables.
            let results = unsafe { avx512::playouts8(roots, &mut finals) };
            check("avx-512", results, finals);
        }
        expect
    }

    /// `plies` random moves from the empty board, stopping at the end.
    fn advance<const N: usize>(plies: u32, rng: &mut Xoshiro256pp) -> Hex<N> {
        let mut s = Hex::<N>::initial();
        for _ in 0..plies {
            match s.random_move(rng) {
                Some(cell) => s.apply(cell),
                None => break,
            }
        }
        s
    }

    fn streams(seed: u64) -> [Xoshiro256pp; 8] {
        std::array::from_fn(|i| Xoshiro256pp::derive(seed, i as u64))
    }

    /// Roots of every depth, from the empty board to finished games.
    fn check_random_roots<const N: usize>(batches: u64) {
        let mut rng = Xoshiro256pp::new(31 + N as u64);
        let cells = (N * N) as u64;
        for seed in 0..batches {
            let roots = std::array::from_fn(|i| {
                advance::<N>(((seed * 8 + i as u64) * 7 % (cells + 2)) as u32, &mut rng)
            });
            assert_loop_matches_scalar(&roots, &streams(seed));
        }
    }

    #[test]
    fn loop_matches_scalar_on_random_roots() {
        whole_loop_runs();
        check_random_roots::<5>(64);
        check_random_roots::<7>(64);
        check_random_roots::<11>(64);
    }

    /// Positions whose mover can win with one stone: the position before
    /// the last ply of a random game, whose mover is that game's winner.
    fn one_ply_from_a_connection<const N: usize>(winner: Player, rng: &mut Xoshiro256pp) -> Hex<N> {
        loop {
            let mut s = Hex::<N>::initial();
            let mut before = s;
            while let Some(cell) = s.random_move(rng) {
                before = s;
                s.apply(cell);
            }
            if s.outcome() == Some(Outcome::Win(winner)) {
                assert_eq!(before.to_move(), winner);
                return before;
            }
        }
    }

    fn check_one_ply_from_a_connection<const N: usize>() {
        let mut rng = Xoshiro256pp::new(32 + N as u64);
        for winner in [Player::P1, Player::P2] {
            let mut immediate = 0;
            for seed in 0..24 {
                let roots =
                    std::array::from_fn(|_| one_ply_from_a_connection::<N>(winner, &mut rng));
                let results = assert_loop_matches_scalar(&roots, &streams(5000 + seed));
                immediate += results
                    .iter()
                    .filter(|r| r.plies == 1 && r.outcome == Outcome::Win(winner))
                    .count();
            }
            assert!(
                immediate >= 8,
                "Hex{N} {winner:?}: only {immediate} lanes won on their first ply"
            );
        }
    }

    #[test]
    fn loop_matches_scalar_one_ply_from_a_connection() {
        whole_loop_runs();
        check_one_ply_from_a_connection::<5>();
        check_one_ply_from_a_connection::<7>();
        check_one_ply_from_a_connection::<11>();
    }

    /// Lemire's `lo < bound` branch fires with probability bound/2³² per
    /// draw, so random tests never reach it. The empty boards have an odd
    /// number of empty cells `b`, so each low word `lo` has a 32-bit `low`
    /// with `low · b ≡ lo (mod 2³²)`: `lo = 0` enters the branch and
    /// redraws (the threshold 2³² mod b is non-zero, b being no power of
    /// two), `lo = b − 1` enters it and keeps its draw.
    fn check_rare_branch<const N: usize>(gen: &mut SplitMix64) {
        let root = Hex::<N>::initial();
        let b = (N * N) as u32;
        // The inverse of odd `b` mod 2³², by Newton's iteration.
        let mut inverse = b;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u32.wrapping_sub(b.wrapping_mul(inverse)));
        }
        let threshold = b.wrapping_neg() % b;
        for (lo, redraws) in [(0, true), (b - 1, false)] {
            let low = lo.wrapping_mul(inverse);
            assert_eq!(low.wrapping_mul(b), lo);
            assert_eq!(lo < threshold, redraws, "Hex{N} low word {low:#x}");
            let crafted = |gen: &mut SplitMix64| {
                stream_with_next_output(gen.next_u64() << 32 | u64::from(low), gen)
            };
            for lane in 0..8 {
                // The crafted stream in one lane, ordinary ones elsewhere.
                let mut rngs = streams(6000 + lane as u64);
                rngs[lane] = crafted(gen);
                assert_loop_matches_scalar(&[root; 8], &rngs);
            }
            // Every lane at once.
            let rngs = std::array::from_fn(|_| crafted(gen));
            assert_loop_matches_scalar(&[root; 8], &rngs);
        }
    }

    #[test]
    fn lemire_rare_branch_matches_scalar() {
        whole_loop_runs();
        let mut gen = SplitMix64::new(33);
        check_rare_branch::<5>(&mut gen);
        check_rare_branch::<7>(&mut gen);
        check_rare_branch::<11>(&mut gen);
    }

    /// One vector flood step through a full board is `set | neighbours(set)`
    /// on random sets, lane by lane: the cross-word shifts by 1, N − 1 and
    /// N, and the column masks that stop them wrapping a row.
    #[cfg(target_arch = "x86_64")]
    fn check_vector_neighbours<const N: usize>(gen: &mut SplitMix64) {
        use avx512::{Board, Sets};
        #[target_feature(enable = "avx512f,avx512vbmi2")]
        fn step<const N: usize>(sets: [u128; 8]) -> [u128; 8] {
            let board = Board::new::<N>();
            let own = board.by_column(Sets::load([Hex::<N>::BOARD; 8]));
            board.grow(Sets::load(sets), &own).store()
        }
        for _ in 0..200 {
            let sets: [u128; 8] = std::array::from_fn(|_| {
                let word = |gen: &mut SplitMix64| u128::from(gen.next_u64() & gen.next_u64());
                (word(gen) << 64 | word(gen)) & Hex::<N>::BOARD
            });
            // SAFETY: `available` checked both features `step` enables.
            let grown = unsafe { step::<N>(sets) };
            for i in 0..8 {
                let expect = sets[i] | Hex::<N>::neighbours(sets[i]);
                assert_eq!(grown[i], expect, "Hex{N} lane {i}: {:#x}", sets[i]);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_flood_step_matches_neighbours() {
        if !whole_loop_runs() {
            return;
        }
        let mut gen = SplitMix64::new(34);
        check_vector_neighbours::<2>(&mut gen);
        check_vector_neighbours::<5>(&mut gen);
        check_vector_neighbours::<8>(&mut gen);
        check_vector_neighbours::<9>(&mut gen);
        check_vector_neighbours::<11>(&mut gen);
    }
}
