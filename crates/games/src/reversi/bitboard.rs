//! Shift-based Reversi bitboard kernels.
//!
//! These are the primitives a CUDA playout kernel would execute per thread:
//! branch-free 8-direction flood fills over two `u64` boards. The naive
//! square-by-square reference implementations live here too and back the
//! property tests (`fast == naive` on random boards).
//!
//! Direction conventions for bit `row * 8 + col`:
//! east = `+1`, west = `-1`, south = `+8`, north = `-8`, and the four
//! diagonals; file masks prevent wrap-around between rows.

/// Squares not on file `a` (col 0) — safe to shift west.
const NOT_A_FILE: u64 = 0xFEFE_FEFE_FEFE_FEFE;
/// Squares not on file `h` (col 7) — safe to shift east.
const NOT_H_FILE: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// The eight compass directions used by the flood fills.
pub const DIRECTIONS: [Direction; 8] = [
    Direction::E,
    Direction::W,
    Direction::S,
    Direction::N,
    Direction::SE,
    Direction::SW,
    Direction::NE,
    Direction::NW,
];

/// A board direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// +1 column.
    E,
    /// −1 column.
    W,
    /// +1 row.
    S,
    /// −1 row.
    N,
    /// +1 row, +1 column.
    SE,
    /// +1 row, −1 column.
    SW,
    /// −1 row, +1 column.
    NE,
    /// −1 row, −1 column.
    NW,
}

impl Direction {
    /// `(d_row, d_col)` offsets for scalar code.
    pub fn offsets(self) -> (i32, i32) {
        match self {
            Direction::E => (0, 1),
            Direction::W => (0, -1),
            Direction::S => (1, 0),
            Direction::N => (-1, 0),
            Direction::SE => (1, 1),
            Direction::SW => (1, -1),
            Direction::NE => (-1, 1),
            Direction::NW => (-1, -1),
        }
    }
}

/// Shifts a bitboard one step in `dir`, discarding bits that leave the board.
#[inline(always)]
pub fn shift(b: u64, dir: Direction) -> u64 {
    match dir {
        Direction::E => (b & NOT_H_FILE) << 1,
        Direction::W => (b & NOT_A_FILE) >> 1,
        Direction::S => b << 8,
        Direction::N => b >> 8,
        Direction::SE => (b & NOT_H_FILE) << 9,
        Direction::SW => (b & NOT_A_FILE) << 7,
        Direction::NE => (b & NOT_H_FILE) >> 7,
        Direction::NW => (b & NOT_A_FILE) >> 9,
    }
}

/// Bitboard of all legal placement squares for the player owning `own`.
///
/// Classic Dumb7Fill: for each direction, flood from `own` through contiguous
/// `opp` discs (at most 6 steps on an 8×8 board), then step once more — any
/// empty square reached is a legal move in that direction.
#[inline]
pub fn legal_moves_mask(own: u64, opp: u64) -> u64 {
    debug_assert_eq!(own & opp, 0, "overlapping boards");
    let empty = !(own | opp);
    let mut moves = 0u64;
    for dir in DIRECTIONS {
        let mut t = shift(own, dir) & opp;
        // 5 more steps cover the maximum run of 6 opponent discs.
        t |= shift(t, dir) & opp;
        t |= shift(t, dir) & opp;
        t |= shift(t, dir) & opp;
        t |= shift(t, dir) & opp;
        t |= shift(t, dir) & opp;
        moves |= shift(t, dir) & empty;
    }
    moves
}

/// Bitboard of opponent discs flipped by playing on square `sq`.
///
/// Returns 0 if the move flips nothing (i.e. it is illegal).
///
/// Branch-free by design: the per-direction scan is an unrolled flood fill
/// (like [`legal_moves_mask`]) instead of a data-dependent `while` walk —
/// run lengths are random in playouts, so avoiding the mispredicted
/// branches measurably speeds up the hot loop.
#[inline]
pub fn flips_for_move(own: u64, opp: u64, sq: u8) -> u64 {
    debug_assert!(sq < 64);
    let mv = 1u64 << sq;
    debug_assert_eq!(mv & (own | opp), 0, "square occupied");
    let mut flips = 0u64;
    for dir in DIRECTIONS {
        // Flood the contiguous opponent run starting at `mv` (5 extra steps
        // cover the maximum run of 6 opponent discs).
        let mut t = shift(mv, dir) & opp;
        t |= shift(t, dir) & opp;
        t |= shift(t, dir) & opp;
        t |= shift(t, dir) & opp;
        t |= shift(t, dir) & opp;
        t |= shift(t, dir) & opp;
        // The run flips iff the square past its far end is ours; interior
        // run squares neighbour only opponent discs, so one test suffices.
        let capped = (shift(t, dir) & own != 0) as u64;
        flips |= t & capped.wrapping_neg();
    }
    flips
}

/// Selects the `k`-th (0-based) set bit of `mask` and returns its index.
///
/// Used for uniform random move selection directly on the legal-move mask.
///
/// # Panics
/// Debug-panics if `k >= mask.count_ones()`.
#[inline]
pub fn select_bit(mask: u64, k: u32) -> u8 {
    debug_assert!(k < mask.count_ones(), "select_bit out of range");
    let mut m = mask;
    for _ in 0..k {
        m &= m - 1;
    }
    m.trailing_zeros() as u8
}

/// Multi-lane [`legal_moves_mask`]: masks for `N` independent boards
/// computed back-to-back.
///
/// Direction loop outer, lane loop inner: each inner loop body is the same
/// straight-line u64 code over `N` *independent* dependency chains, which
/// keeps the superscalar units busy and lets the compiler auto-vectorize
/// (4 × u64 per AVX2 op). All `N` lanes are computed unconditionally —
/// callers with fewer than `N` live boards ignore the spare outputs rather
/// than branching here.
///
/// `inline(never)` on the compiled variants: the kernel must stay a
/// standalone, fully-vectorized function. Inlined into a playout loop it
/// competes with ~10 × `N` u64 of caller state for registers and the
/// vectorizer gives up (measured ~3× slower at `N = 8`).
///
/// On x86-64 an AVX2 variant of the identical integer arithmetic is
/// selected at runtime (the default Rust baseline is SSE2, which only packs
/// 2 × u64 per op). Shifts/AND/OR on `u64` are exact in every instruction
/// set, so which variant runs never changes a single output bit.
#[inline]
pub fn legal_moves_mask_lanes<const N: usize>(own: &[u64; N], opp: &[u64; N]) -> [u64; N] {
    #[cfg(target_arch = "x86_64")]
    if N >= 4 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just checked at runtime.
        return unsafe { lanes_avx2::legal_moves_mask_lanes(own, opp) };
    }
    legal_moves_mask_lanes_generic(own, opp)
}

#[inline(never)]
fn legal_moves_mask_lanes_generic<const N: usize>(own: &[u64; N], opp: &[u64; N]) -> [u64; N] {
    legal_moves_mask_lanes_core(own, opp)
}

/// Shared body: `inline(always)` so each compiled variant above absorbs it
/// under its own target features.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // lane-indexed form mirrors the SIMD shape
fn legal_moves_mask_lanes_core<const N: usize>(own: &[u64; N], opp: &[u64; N]) -> [u64; N] {
    let mut empty = [0u64; N];
    for i in 0..N {
        debug_assert_eq!(own[i] & opp[i], 0, "overlapping boards");
        empty[i] = !(own[i] | opp[i]);
    }
    let mut moves = [0u64; N];
    for dir in DIRECTIONS {
        let mut t = [0u64; N];
        for i in 0..N {
            t[i] = shift(own[i], dir) & opp[i];
        }
        // 5 more steps cover the maximum run of 6 opponent discs.
        for _ in 0..5 {
            for i in 0..N {
                t[i] |= shift(t[i], dir) & opp[i];
            }
        }
        for i in 0..N {
            moves[i] |= shift(t[i], dir) & empty[i];
        }
    }
    moves
}

/// Multi-lane [`flips_for_move`]: flip masks for `N` independent
/// `(own, opp, sq)` triples computed back-to-back.
///
/// Same lock-step shape as [`legal_moves_mask_lanes`]. Lanes whose `sq` is
/// not a legal empty square produce an unspecified (harmless) mask — the
/// only requirement is `sq < 64`. Callers ignore inactive lanes' outputs
/// instead of branching here.
///
/// Compiled and dispatched exactly like [`legal_moves_mask_lanes`]:
/// out-of-line variants, runtime AVX2 selection on x86-64, bit-identical
/// outputs whichever variant runs.
#[inline]
pub fn flips_for_moves_lanes<const N: usize>(
    own: &[u64; N],
    opp: &[u64; N],
    sq: &[u8; N],
) -> [u64; N] {
    #[cfg(target_arch = "x86_64")]
    if N >= 4 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just checked at runtime.
        return unsafe { lanes_avx2::flips_for_moves_lanes(own, opp, sq) };
    }
    flips_for_moves_lanes_generic(own, opp, sq)
}

#[inline(never)]
fn flips_for_moves_lanes_generic<const N: usize>(
    own: &[u64; N],
    opp: &[u64; N],
    sq: &[u8; N],
) -> [u64; N] {
    flips_for_moves_lanes_core(own, opp, sq)
}

#[inline(always)]
#[allow(clippy::needless_range_loop)] // lane-indexed form mirrors the SIMD shape
fn flips_for_moves_lanes_core<const N: usize>(
    own: &[u64; N],
    opp: &[u64; N],
    sq: &[u8; N],
) -> [u64; N] {
    let mut mv = [0u64; N];
    for i in 0..N {
        debug_assert!(sq[i] < 64);
        mv[i] = 1u64 << sq[i];
    }
    let mut flips = [0u64; N];
    for dir in DIRECTIONS {
        let mut t = [0u64; N];
        for i in 0..N {
            t[i] = shift(mv[i], dir) & opp[i];
        }
        for _ in 0..5 {
            for i in 0..N {
                t[i] |= shift(t[i], dir) & opp[i];
            }
        }
        for i in 0..N {
            let capped = (shift(t[i], dir) & own[i] != 0) as u64;
            flips[i] |= t[i] & capped.wrapping_neg();
        }
    }
    flips
}

/// Hand-written AVX2 lane kernels: 4 boards per `__m256i`, arbitrary `N`
/// by chunking (zero-padded tail group for `N % 4` leftovers — empty
/// boards are harmless inputs to both kernels).
///
/// LLVM's autovectorizer handles the generic lane loops erratically
/// (measured 20–100 ns/board depending on `N`, versus ~8 ns for the scalar
/// kernel), so the hot path is written directly against the intrinsics.
/// Every operation is the same wrapping u64 shift/AND/OR the scalar
/// [`shift`]-based kernels perform, so outputs are bit-identical.
#[cfg(target_arch = "x86_64")]
mod lanes_avx2 {
    use super::{NOT_A_FILE, NOT_H_FILE};
    use core::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_andnot_si256, _mm256_cmpeq_epi64, _mm256_loadu_si256,
        _mm256_or_si256, _mm256_set1_epi64x, _mm256_setzero_si256, _mm256_slli_epi64,
        _mm256_srli_epi64, _mm256_storeu_si256,
    };

    /// Expands to the eight per-direction flood fills of a kernel body.
    /// `$step!(|b| shift_expr)` is invoked once per direction with that
    /// direction's shift over 4 lanes, mirroring scalar [`super::shift`].
    macro_rules! for_each_direction {
        ($step:ident, $not_a:ident, $not_h:ident) => {
            $step!(|b| _mm256_slli_epi64(_mm256_and_si256(b, $not_h), 1)); // E
            $step!(|b| _mm256_srli_epi64(_mm256_and_si256(b, $not_a), 1)); // W
            $step!(|b| _mm256_slli_epi64(b, 8)); // S
            $step!(|b| _mm256_srli_epi64(b, 8)); // N
            $step!(|b| _mm256_slli_epi64(_mm256_and_si256(b, $not_h), 9)); // SE
            $step!(|b| _mm256_slli_epi64(_mm256_and_si256(b, $not_a), 7)); // SW
            $step!(|b| _mm256_srli_epi64(_mm256_and_si256(b, $not_h), 7)); // NE
            $step!(|b| _mm256_srli_epi64(_mm256_and_si256(b, $not_a), 9)); // NW
        };
    }

    /// Floods `t` one more step through `opp` along `$sh`.
    macro_rules! flood_step {
        ($t:ident, $opp:ident, |$b:ident| $sh:expr) => {
            $t = _mm256_or_si256(
                $t,
                _mm256_and_si256(
                    {
                        let $b = $t;
                        $sh
                    },
                    $opp,
                ),
            );
        };
    }

    /// [`super::legal_moves_mask`] over 4 boards.
    #[target_feature(enable = "avx2")]
    fn movegen4(own: __m256i, opp: __m256i) -> __m256i {
        let not_a = _mm256_set1_epi64x(NOT_A_FILE as i64);
        let not_h = _mm256_set1_epi64x(NOT_H_FILE as i64);
        let empty = _mm256_andnot_si256(_mm256_or_si256(own, opp), _mm256_set1_epi64x(-1));
        let mut moves = _mm256_setzero_si256();
        macro_rules! dir {
            (|$b:ident| $sh:expr) => {{
                let mut t = _mm256_and_si256(
                    {
                        let $b = own;
                        $sh
                    },
                    opp,
                );
                flood_step!(t, opp, |$b| $sh);
                flood_step!(t, opp, |$b| $sh);
                flood_step!(t, opp, |$b| $sh);
                flood_step!(t, opp, |$b| $sh);
                flood_step!(t, opp, |$b| $sh);
                moves = _mm256_or_si256(
                    moves,
                    _mm256_and_si256(
                        {
                            let $b = t;
                            $sh
                        },
                        empty,
                    ),
                );
            }};
        }
        for_each_direction!(dir, not_a, not_h);
        moves
    }

    /// [`super::flips_for_move`] over 4 boards (`mv` holds the move bits).
    #[target_feature(enable = "avx2")]
    fn flips4(own: __m256i, opp: __m256i, mv: __m256i) -> __m256i {
        let not_a = _mm256_set1_epi64x(NOT_A_FILE as i64);
        let not_h = _mm256_set1_epi64x(NOT_H_FILE as i64);
        let zero = _mm256_setzero_si256();
        let mut flips = zero;
        macro_rules! dir {
            (|$b:ident| $sh:expr) => {{
                let mut t = _mm256_and_si256(
                    {
                        let $b = mv;
                        $sh
                    },
                    opp,
                );
                flood_step!(t, opp, |$b| $sh);
                flood_step!(t, opp, |$b| $sh);
                flood_step!(t, opp, |$b| $sh);
                flood_step!(t, opp, |$b| $sh);
                flood_step!(t, opp, |$b| $sh);
                // Run flips iff the square past its far end is ours; the
                // cmpeq mask is all-ones where it is NOT (beyond == 0).
                let beyond = _mm256_and_si256(
                    {
                        let $b = t;
                        $sh
                    },
                    own,
                );
                flips = _mm256_or_si256(
                    flips,
                    _mm256_andnot_si256(_mm256_cmpeq_epi64(beyond, zero), t),
                );
            }};
        }
        for_each_direction!(dir, not_a, not_h);
        flips
    }

    /// Loads lanes `i..i+4` of `src`, zero-padding past `N`.
    #[target_feature(enable = "avx2")]
    fn load4<const N: usize>(src: &[u64; N], i: usize) -> __m256i {
        if i + 4 <= N {
            // SAFETY: 4 in-bounds u64s; loadu has no alignment requirement.
            unsafe { _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i) }
        } else {
            let mut pad = [0u64; 4];
            pad[..N - i].copy_from_slice(&src[i..]);
            // SAFETY: reading the whole local array.
            unsafe { _mm256_loadu_si256(pad.as_ptr() as *const __m256i) }
        }
    }

    /// Stores a group's results into lanes `i..min(i+4, N)` of `dst`.
    #[target_feature(enable = "avx2")]
    fn store4<const N: usize>(dst: &mut [u64; N], i: usize, v: __m256i) {
        if i + 4 <= N {
            // SAFETY: 4 in-bounds u64s; storeu has no alignment requirement.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, v) };
        } else {
            let mut pad = [0u64; 4];
            // SAFETY: writing the whole local array.
            unsafe { _mm256_storeu_si256(pad.as_mut_ptr() as *mut __m256i, v) };
            dst[i..].copy_from_slice(&pad[..N - i]);
        }
    }

    #[target_feature(enable = "avx2")]
    pub fn legal_moves_mask_lanes<const N: usize>(own: &[u64; N], opp: &[u64; N]) -> [u64; N] {
        let mut out = [0u64; N];
        let mut i = 0;
        while i < N {
            store4(&mut out, i, movegen4(load4(own, i), load4(opp, i)));
            i += 4;
        }
        out
    }

    #[target_feature(enable = "avx2")]
    pub fn flips_for_moves_lanes<const N: usize>(
        own: &[u64; N],
        opp: &[u64; N],
        sq: &[u8; N],
    ) -> [u64; N] {
        let mut mv = [0u64; N];
        for i in 0..N {
            debug_assert!(sq[i] < 64);
            mv[i] = 1u64 << sq[i];
        }
        let mut out = [0u64; N];
        let mut i = 0;
        while i < N {
            store4(
                &mut out,
                i,
                flips4(load4(own, i), load4(opp, i), load4(&mv, i)),
            );
            i += 4;
        }
        out
    }
}

/// AVX-512 kernels over 8 boards per `__m512i`, the building blocks of
/// the whole-loop playout variant (`reversi::lanes`). Unlike the AVX2
/// kernels they are `#[inline]`, not out of line: the one caller is itself
/// an out-of-line `#[target_feature]` function, and its flood fills inline
/// into it.
///
/// Each flood step `t |= shift(t) & opp` is one `vpternlogq` (immediate
/// [`OR_AND`]). The file masks move from the shifted operand to the board
/// it lands on: `(b & NOT_H_FILE) << 1 == (b << 1) & NOT_A_FILE`, and so on
/// for every direction, so masking `opp` (or `own`, `empty`) once per
/// kernel replaces one AND per step. Both sides are the same bits, so the
/// outputs equal [`super::legal_moves_mask`] and [`super::flips_for_move`]
/// exactly.
#[cfg(target_arch = "x86_64")]
pub(crate) mod lanes_avx512 {
    use super::{NOT_A_FILE, NOT_H_FILE};
    use core::arch::x86_64::{
        __m512i, _mm512_and_si512, _mm512_mask_or_epi64, _mm512_set1_epi64, _mm512_setzero_si512,
        _mm512_slli_epi64, _mm512_srli_epi64, _mm512_ternarylogic_epi64, _mm512_test_epi64_mask,
    };

    /// `vpternlogq` immediate for `a | (b & c)`.
    const OR_AND: i32 = 0xF8;
    /// `vpternlogq` immediate for `!(a | b)` (the third operand is unused).
    const NOR: i32 = 0x03;

    /// Invokes `$dir!(|b| shift, m)` once per direction, in
    /// [`super::DIRECTIONS`] order. `shift` is the bare lane shift and `m`
    /// indexes the board masks a kernel builds: 0 for boards masked to
    /// `NOT_A_FILE` (eastward shifts land there), 1 for `NOT_H_FILE`
    /// (westward), 2 for unmasked (vertical).
    macro_rules! for_each_direction {
        ($dir:ident) => {
            $dir!(|b| _mm512_slli_epi64(b, 1), 0); // E
            $dir!(|b| _mm512_srli_epi64(b, 1), 1); // W
            $dir!(|b| _mm512_slli_epi64(b, 8), 2); // S
            $dir!(|b| _mm512_srli_epi64(b, 8), 2); // N
            $dir!(|b| _mm512_slli_epi64(b, 9), 0); // SE
            $dir!(|b| _mm512_slli_epi64(b, 7), 1); // SW
            $dir!(|b| _mm512_srli_epi64(b, 7), 0); // NE
            $dir!(|b| _mm512_srli_epi64(b, 9), 1); // NW
        };
    }

    /// `b` masked for each class of [`for_each_direction!`].
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn by_file(b: __m512i) -> [__m512i; 3] {
        [
            _mm512_and_si512(b, _mm512_set1_epi64(NOT_A_FILE as i64)),
            _mm512_and_si512(b, _mm512_set1_epi64(NOT_H_FILE as i64)),
            b,
        ]
    }

    /// [`super::legal_moves_mask`] over 8 boards.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn movegen8(own: __m512i, opp: __m512i) -> __m512i {
        let opp = by_file(opp);
        let empty = by_file(_mm512_ternarylogic_epi64(own, opp[2], own, NOR));
        let mut moves = _mm512_setzero_si512();
        macro_rules! dir {
            (|$b:ident| $sh:expr, $m:expr) => {{
                let mut t = _mm512_and_si512(
                    {
                        let $b = own;
                        $sh
                    },
                    opp[$m],
                );
                // 5 more steps cover the maximum run of 6 opponent discs.
                for _ in 0..5 {
                    t = _mm512_ternarylogic_epi64(
                        t,
                        {
                            let $b = t;
                            $sh
                        },
                        opp[$m],
                        OR_AND,
                    );
                }
                moves = _mm512_ternarylogic_epi64(
                    moves,
                    {
                        let $b = t;
                        $sh
                    },
                    empty[$m],
                    OR_AND,
                );
            }};
        }
        for_each_direction!(dir);
        moves
    }

    /// [`super::flips_for_move`] over 8 boards (`mv` holds the move bits).
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(crate) fn flips8(own: __m512i, opp: __m512i, mv: __m512i) -> __m512i {
        let own = by_file(own);
        let opp = by_file(opp);
        let mut flips = _mm512_setzero_si512();
        macro_rules! dir {
            (|$b:ident| $sh:expr, $m:expr) => {{
                let mut t = _mm512_and_si512(
                    {
                        let $b = mv;
                        $sh
                    },
                    opp[$m],
                );
                for _ in 0..5 {
                    t = _mm512_ternarylogic_epi64(
                        t,
                        {
                            let $b = t;
                            $sh
                        },
                        opp[$m],
                        OR_AND,
                    );
                }
                // The run flips iff the square past its far end is ours.
                let capped = _mm512_test_epi64_mask(
                    {
                        let $b = t;
                        $sh
                    },
                    own[$m],
                );
                flips = _mm512_mask_or_epi64(flips, capped, flips, t);
            }};
        }
        for_each_direction!(dir);
        flips
    }
}

/// Scalar reference implementation of [`legal_moves_mask`].
///
/// O(64 × 8 × 8) and obviously correct; the property tests pit the shift
/// kernels against this on random boards.
pub fn legal_moves_mask_naive(own: u64, opp: u64) -> u64 {
    let mut moves = 0u64;
    for sq in 0..64u8 {
        if (own | opp) & (1u64 << sq) != 0 {
            continue;
        }
        if flips_for_move_naive(own, opp, sq) != 0 {
            moves |= 1u64 << sq;
        }
    }
    moves
}

/// Scalar reference implementation of [`flips_for_move`].
pub fn flips_for_move_naive(own: u64, opp: u64, sq: u8) -> u64 {
    let row = (sq / 8) as i32;
    let col = (sq % 8) as i32;
    let mut flips = 0u64;
    for dir in DIRECTIONS {
        let (dr, dc) = dir.offsets();
        let mut line = 0u64;
        let (mut r, mut c) = (row + dr, col + dc);
        while (0..8).contains(&r) && (0..8).contains(&c) {
            let bit = 1u64 << (r * 8 + c);
            if opp & bit != 0 {
                line |= bit;
            } else if own & bit != 0 {
                flips |= line;
                break;
            } else {
                break;
            }
            r += dr;
            c += dc;
        }
    }
    flips
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_util::{Rng64, SplitMix64};

    /// Generates a random *plausible* board: random occupied mask with
    /// random ownership. Not necessarily reachable, but move-gen correctness
    /// does not depend on reachability.
    fn random_board(rng: &mut SplitMix64) -> (u64, u64) {
        let occupied = rng.next_u64() & rng.next_u64(); // ~25% fill
        let ownership = rng.next_u64();
        (occupied & ownership, occupied & !ownership)
    }

    #[test]
    fn shift_east_drops_h_file() {
        let h1 = 1u64 << 7;
        assert_eq!(shift(h1, Direction::E), 0);
        let a1 = 1u64;
        assert_eq!(shift(a1, Direction::E), 1 << 1);
    }

    #[test]
    fn shift_west_drops_a_file() {
        let a1 = 1u64;
        assert_eq!(shift(a1, Direction::W), 0);
        assert_eq!(shift(1 << 1, Direction::W), 1);
    }

    #[test]
    fn shift_vertical_drops_edges() {
        let a8 = 1u64 << 56;
        assert_eq!(shift(a8, Direction::S), 0);
        let a1 = 1u64;
        assert_eq!(shift(a1, Direction::N), 0);
        assert_eq!(shift(a1, Direction::S), 1 << 8);
    }

    #[test]
    fn shift_diagonals_drop_corners() {
        let h8 = 1u64 << 63;
        assert_eq!(shift(h8, Direction::SE), 0);
        let a1 = 1u64;
        assert_eq!(shift(a1, Direction::NW), 0);
        assert_eq!(shift(a1, Direction::SE), 1 << 9);
    }

    #[test]
    fn all_shifts_stay_on_board() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..100 {
            let b = rng.next_u64();
            for dir in DIRECTIONS {
                // A shift never increases popcount.
                assert!(shift(b, dir).count_ones() <= b.count_ones());
            }
        }
    }

    #[test]
    fn initial_position_moves() {
        let black = (1u64 << 28) | (1u64 << 35);
        let white = (1u64 << 27) | (1u64 << 36);
        let mask = legal_moves_mask(black, white);
        let expected = (1u64 << 19) | (1 << 26) | (1 << 37) | (1 << 44);
        assert_eq!(mask, expected);
    }

    #[test]
    fn fast_equals_naive_on_random_boards() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..500 {
            let (own, opp) = random_board(&mut rng);
            assert_eq!(
                legal_moves_mask(own, opp),
                legal_moves_mask_naive(own, opp),
                "own={own:#x} opp={opp:#x}"
            );
        }
    }

    #[test]
    fn flips_fast_equals_naive_on_random_boards() {
        let mut rng = SplitMix64::new(43);
        for _ in 0..200 {
            let (own, opp) = random_board(&mut rng);
            let empty = !(own | opp);
            for sq in 0..64u8 {
                if empty & (1u64 << sq) != 0 {
                    assert_eq!(
                        flips_for_move(own, opp, sq),
                        flips_for_move_naive(own, opp, sq),
                        "own={own:#x} opp={opp:#x} sq={sq}"
                    );
                }
            }
        }
    }

    #[test]
    fn legal_moves_have_nonzero_flips() {
        let mut rng = SplitMix64::new(44);
        for _ in 0..200 {
            let (own, opp) = random_board(&mut rng);
            let mut mask = legal_moves_mask(own, opp);
            while mask != 0 {
                let sq = mask.trailing_zeros() as u8;
                assert_ne!(flips_for_move(own, opp, sq), 0);
                mask &= mask - 1;
            }
        }
    }

    #[test]
    fn flips_only_on_opponent_discs() {
        let mut rng = SplitMix64::new(45);
        for _ in 0..200 {
            let (own, opp) = random_board(&mut rng);
            let mut mask = legal_moves_mask(own, opp);
            while mask != 0 {
                let sq = mask.trailing_zeros() as u8;
                let flips = flips_for_move(own, opp, sq);
                assert_eq!(flips & !opp, 0, "flips must be a subset of opp");
                mask &= mask - 1;
            }
        }
    }

    /// One implementation of the 8-lane kernels: `(name, movegen, flips)`.
    type LaneKernels = (
        &'static str,
        fn(&[u64; 8], &[u64; 8]) -> [u64; 8],
        fn(&[u64; 8], &[u64; 8], &[u8; 8]) -> [u64; 8],
    );

    /// Every kernel variant this host can run, called directly rather than
    /// through the dispatching entry points; prints the ones it skips.
    fn lane_kernel_variants() -> Vec<LaneKernels> {
        let mut variants: Vec<LaneKernels> = vec![(
            "generic",
            legal_moves_mask_lanes_generic::<8>,
            flips_for_moves_lanes_generic::<8>,
        )];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                variants.push((
                    "avx2",
                    // SAFETY (both): AVX2 support was just checked.
                    |own, opp| unsafe { lanes_avx2::legal_moves_mask_lanes(own, opp) },
                    |own, opp, sq| unsafe { lanes_avx2::flips_for_moves_lanes(own, opp, sq) },
                ));
            } else {
                println!("avx2 lane kernels: skipped (host lacks avx2)");
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                #[target_feature(enable = "avx512f")]
                fn movegen(own: &[u64; 8], opp: &[u64; 8]) -> [u64; 8] {
                    use crate::avx512::{load, store};
                    store(lanes_avx512::movegen8(load(own), load(opp)))
                }
                #[target_feature(enable = "avx512f")]
                fn flips(own: &[u64; 8], opp: &[u64; 8], sq: &[u8; 8]) -> [u64; 8] {
                    use crate::avx512::{load, store};
                    let mv = sq.map(|s| 1u64 << s);
                    store(lanes_avx512::flips8(load(own), load(opp), load(&mv)))
                }
                variants.push((
                    "avx512",
                    // SAFETY (both): AVX-512F support was just checked.
                    |own, opp| unsafe { movegen(own, opp) },
                    |own, opp, sq| unsafe { flips(own, opp, sq) },
                ));
            } else {
                println!("avx512 lane kernels: skipped (host lacks avx512f)");
            }
        }
        variants
    }

    #[test]
    fn lanes_equal_scalar_on_random_boards() {
        let variants = lane_kernel_variants();
        println!(
            "lane kernels tested: {:?}",
            variants.iter().map(|v| v.0).collect::<Vec<_>>()
        );
        let mut rng = SplitMix64::new(46);
        for _ in 0..500 {
            let mut own = [0u64; 8];
            let mut opp = [0u64; 8];
            for i in 0..8 {
                (own[i], opp[i]) = random_board(&mut rng);
            }
            let expect: [u64; 8] = std::array::from_fn(|i| legal_moves_mask(own[i], opp[i]));
            // One legal square per lane; lanes without a move get an empty
            // square (or 0), whose output is unspecified and unchecked.
            let sq: [u8; 8] = std::array::from_fn(|i| match expect[i] {
                0 => (!(own[i] | opp[i])).trailing_zeros().min(63) as u8,
                m => select_bit(m, (rng.next_u64() % u64::from(m.count_ones())) as u32),
            });
            for (name, movegen, flips) in &variants {
                assert_eq!(movegen(&own, &opp), expect, "{name} movegen");
                let got = flips(&own, &opp, &sq);
                for i in (0..8).filter(|&i| expect[i] != 0) {
                    assert_eq!(
                        got[i],
                        flips_for_move(own[i], opp[i], sq[i]),
                        "{name} flips, lane {i}"
                    );
                }
            }
            // The dispatching entry points agree too.
            assert_eq!(legal_moves_mask_lanes(&own, &opp), expect);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pdep_selects_like_select_bit() {
        if !std::arch::is_x86_feature_detected!("bmi2") {
            println!("pdep select: skipped (host lacks bmi2)");
            return;
        }
        #[target_feature(enable = "bmi2")]
        fn pdep_select(mask: u64, k: u32) -> u8 {
            core::arch::x86_64::_pdep_u64(1 << k, mask).trailing_zeros() as u8
        }
        let mut rng = SplitMix64::new(47);
        for _ in 0..10_000 {
            let mask = rng.next_u64() & rng.next_u64();
            if mask == 0 {
                continue;
            }
            let k = (rng.next_u64() % u64::from(mask.count_ones())) as u32;
            // SAFETY: BMI2 support was just checked.
            assert_eq!(unsafe { pdep_select(mask, k) }, select_bit(mask, k));
        }
    }

    #[test]
    fn select_bit_enumerates_in_order() {
        let mask = 0b1011_0100u64;
        assert_eq!(select_bit(mask, 0), 2);
        assert_eq!(select_bit(mask, 1), 4);
        assert_eq!(select_bit(mask, 2), 5);
        assert_eq!(select_bit(mask, 3), 7);
    }

    #[test]
    fn select_bit_full_board() {
        for k in 0..64 {
            assert_eq!(select_bit(u64::MAX, k), k as u8);
        }
    }
}
