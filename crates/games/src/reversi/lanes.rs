//! Reversi lane playouts (DESIGN.md §15): `N` playouts advanced together,
//! bit-identical to `N` scalar [`random_playout`](crate::random_playout)
//! calls — same results and same final RNG states.
//!
//! Two variants share one contract. The per-ply loop runs everywhere: each
//! round calls the out-of-line lane kernels of [`bitboard`] (generic or
//! AVX2) and resolves draws, passes and terminals per lane in scalar code.
//! At `N = 8` on hosts with AVX-512F, VPOPCNTDQ and BMI2, the whole batch
//! instead runs inside one `#[target_feature]` loop with boards, ply
//! counters and xoshiro256++ states in `__m512i` registers. The per-ply
//! loop stays the fallback and the oracle the tests hold the vector loop
//! to.

use super::bitboard;
use super::Reversi;
use crate::game::{Outcome, Player};
use crate::playout::{check_length, PlayoutResult};
use pmcts_util::{Rng64, Xoshiro256pp};

/// Runs the batch on the fastest variant this host supports, chosen once
/// per batch.
pub(super) fn lane_playouts<const N: usize>(
    roots: &[Reversi; N],
    rngs: &mut [Xoshiro256pp; N],
) -> [PlayoutResult; N] {
    #[cfg(target_arch = "x86_64")]
    if N == 8 && avx512::available() {
        let roots8: &[Reversi; 8] = roots.as_slice().try_into().expect("N == 8");
        let rngs8: &mut [Xoshiro256pp; 8] = rngs.as_mut_slice().try_into().expect("N == 8");
        // SAFETY: `available` checked every feature `playouts8` enables.
        let results = unsafe { avx512::playouts8(roots8, rngs8) };
        return std::array::from_fn(|i| results[i]);
    }
    per_ply(roots, rngs)
}

/// The result of a lane that has no move and no pass, from its
/// mover-relative boards.
fn finish(own: u64, opp: u64, own_is_black: bool, plies: u32) -> PlayoutResult {
    let (b, w) = if own_is_black {
        (own.count_ones(), opp.count_ones())
    } else {
        (opp.count_ones(), own.count_ones())
    };
    let outcome = match b.cmp(&w) {
        std::cmp::Ordering::Greater => Outcome::Win(Player::P1),
        std::cmp::Ordering::Less => Outcome::Win(Player::P2),
        std::cmp::Ordering::Equal => Outcome::Draw,
    };
    PlayoutResult {
        outcome,
        plies,
        final_score: b as i32 - w as i32,
    }
}

/// The per-ply loop: every round computes the legal-move masks for all `N`
/// lanes back-to-back ([`bitboard::legal_moves_mask_lanes`]), draws one
/// move per live lane, then computes all flip masks back-to-back
/// ([`bitboard::flips_for_moves_lanes`]) — the steady state is
/// straight-line u64 code with no per-lane branching. Pass and terminal
/// resolution fall back to scalar per lane (a handful of plies per game).
///
/// Each placement ply draws exactly one `next_below(popcount(mask))` from
/// that lane's stream and picks the same ascending-order set bit; passes
/// and terminals draw nothing, exactly like [`Reversi::random_move_with`].
/// Lane state is the raw bitboards only — the Zobrist accumulator is
/// deliberately not maintained, because [`PlayoutResult`] never observes
/// it; that is pure wall-clock profit with no effect on results.
#[allow(clippy::needless_range_loop)] // lane-indexed form mirrors the SIMD shape
fn per_ply<const N: usize>(
    roots: &[Reversi; N],
    rngs: &mut [Xoshiro256pp; N],
) -> [PlayoutResult; N] {
    // Lane state is mover-relative: `own`/`opp` always belong to the side
    // to move, so applying a ply is swap-free bit arithmetic with no
    // per-lane colour branching; `own_is_black` tracks the mapping back to
    // absolute colours for terminal scoring.
    let mut own = [0u64; N];
    let mut opp = [0u64; N];
    let mut own_is_black = [true; N];
    for i in 0..N {
        (own[i], opp[i]) = roots[i].own_opp();
        own_is_black[i] = roots[i].to_move == Player::P1;
    }
    let mut plies = [0u32; N];
    let mut results: [Option<PlayoutResult>; N] = [None; N];
    let mut live = N;
    while live > 0 {
        // Finished lanes are included in the batched kernels — their
        // outputs are unused garbage, which is cheaper than branching
        // inside the bit-parallel code.
        let masks = bitboard::legal_moves_mask_lanes(&own, &opp);
        // One RNG draw per lane with placements; pass/terminal lanes
        // resolve scalar (a rare tail: a few plies per game at most).
        let mut sqs = [0u8; N];
        let mut mover = [false; N];
        let mut any_mover = false;
        for i in 0..N {
            if results[i].is_some() {
                continue;
            }
            if masks[i] != 0 {
                let k = rngs[i].next_below(masks[i].count_ones());
                sqs[i] = bitboard::select_bit(masks[i], k);
                mover[i] = true;
                any_mover = true;
            } else if bitboard::legal_moves_mask(opp[i], own[i]) != 0 {
                // Forced pass: zero RNG draws, side swap, one ply —
                // exactly the scalar path.
                std::mem::swap(&mut own[i], &mut opp[i]);
                own_is_black[i] = !own_is_black[i];
                plies[i] += 1;
                check_length::<Reversi>(plies[i]);
            } else {
                results[i] = Some(finish(own[i], opp[i], own_is_black[i], plies[i]));
                live -= 1;
            }
        }
        if !any_mover {
            continue;
        }
        let flips = bitboard::flips_for_moves_lanes(&own, &opp, &sqs);
        for i in 0..N {
            if !mover[i] {
                continue;
            }
            let f = flips[i];
            debug_assert_ne!(f, 0, "legal move flips nothing");
            // Apply and hand the move to the other side in one step: the
            // next mover's discs are the old opponent's minus the flips;
            // the new opponent is the old mover plus flips and the placed
            // disc.
            let moved = own[i] | f | (1u64 << sqs[i]);
            own[i] = opp[i] & !f;
            opp[i] = moved;
            own_is_black[i] = !own_is_black[i];
            plies[i] += 1;
            check_length::<Reversi>(plies[i]);
        }
    }
    results.map(|r| r.expect("all lanes ran to completion"))
}

/// The whole-loop variant: one batch of 8 in one out-of-line function.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{finish, Reversi};
    use crate::avx512::{
        check_lengths, load, load_streams, next_below8, pdep8, store, store_streams,
    };
    use crate::game::Player;
    use crate::playout::PlayoutResult;
    use crate::reversi::bitboard::lanes_avx512::{flips8, movegen8};
    use core::arch::x86_64::{
        __mmask8, _mm512_mask_add_epi64, _mm512_mask_andnot_epi64, _mm512_mask_mov_epi64,
        _mm512_mask_test_epi64_mask, _mm512_popcnt_epi64, _mm512_set1_epi64, _mm512_setzero_si512,
        _mm512_sllv_epi64, _mm512_ternarylogic_epi64,
    };
    use pmcts_util::Xoshiro256pp;

    /// `vpternlogq` immediate for `a | b | c`.
    const OR3: i32 = 0xFE;

    /// Whether this host has every feature [`playouts8`] enables.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512vpopcntdq")
            && is_x86_feature_detected!("bmi2")
    }

    /// Runs 8 playouts to the end. Per round, on the mover-relative boards
    /// of all 8 lanes:
    ///
    /// 1. legal-move masks ([`movegen8`]); live lanes with a move are the
    ///    round's movers;
    /// 2. a live lane without one passes if its opponent can move, and is
    ///    otherwise finished (neither draws);
    /// 3. each mover draws `next_below(popcount(mask))` from its stream
    ///    ([`next_below8`]);
    /// 4. `pdep` turns each pick into its move bit, [`flips8`] resolves the
    ///    flips, and masked moves apply the movers' plies.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,bmi2")]
    pub(super) fn playouts8(
        roots: &[Reversi; 8],
        rngs: &mut [Xoshiro256pp; 8],
    ) -> [PlayoutResult; 8] {
        let mut own = [0u64; 8];
        let mut opp = [0u64; 8];
        let mut own_is_black: __mmask8 = 0;
        for (i, root) in roots.iter().enumerate() {
            (own[i], opp[i]) = root.own_opp();
            own_is_black |= u8::from(root.to_move == Player::P1) << i;
        }
        let mut own = load(&own);
        let mut opp = load(&opp);
        let mut s = load_streams(rngs);
        let mut plies = _mm512_setzero_si512();
        let one = _mm512_set1_epi64(1);
        let mut live: __mmask8 = 0xFF;
        while live != 0 {
            let masks = movegen8(own, opp);
            let movers = _mm512_mask_test_epi64_mask(live, masks, masks);
            let stuck = live & !movers;
            let mut passers = 0;
            if stuck != 0 {
                let replies = movegen8(opp, own);
                passers = _mm512_mask_test_epi64_mask(stuck, replies, replies);
                live &= !(stuck & !passers);
                (own, opp) = (
                    _mm512_mask_mov_epi64(own, passers, opp),
                    _mm512_mask_mov_epi64(opp, passers, own),
                );
            }
            if movers != 0 {
                let k = next_below8(&mut s, movers, _mm512_popcnt_epi64(masks));
                let mv = pdep8(_mm512_sllv_epi64(one, k), masks);
                let f = flips8(own, opp, mv);
                // The next mover's discs are the old opponent's minus the
                // flips; the new opponent is the old mover plus flips and
                // the placed disc.
                let moved = _mm512_ternarylogic_epi64(own, f, mv, OR3);
                own = _mm512_mask_andnot_epi64(own, movers, f, opp);
                opp = _mm512_mask_mov_epi64(opp, movers, moved);
            }
            let played = movers | passers;
            plies = _mm512_mask_add_epi64(plies, played, plies, one);
            own_is_black ^= played;
            check_lengths::<Reversi>(plies);
        }
        *rngs = store_streams(&s);
        let (own, opp, plies) = (store(own), store(opp), store(plies));
        std::array::from_fn(|i| finish(own[i], opp[i], own_is_black >> i & 1 != 0, plies[i] as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::Game;
    use crate::playout::{random_playout, stream_with_next_output};
    use pmcts_util::SplitMix64;

    /// Whether the whole-loop variant can run here; prints which variants
    /// a test covers, since CI runners may lack AVX-512.
    fn whole_loop_runs() -> bool {
        #[cfg(target_arch = "x86_64")]
        if avx512::available() {
            println!("AVX-512 whole loop: ran");
            return true;
        }
        println!("AVX-512 whole loop: skipped (host lacks avx512f, avx512vpopcntdq or bmi2)");
        false
    }

    /// Runs both loops on `(roots, rngs)` and asserts each equals 8 scalar
    /// playouts: results and final RNG states.
    fn assert_loops_match_scalar(roots: &[Reversi; 8], rngs: &[Xoshiro256pp; 8]) {
        let expect: Vec<(PlayoutResult, Xoshiro256pp)> = (0..8)
            .map(|i| {
                let mut rng = rngs[i].clone();
                (random_playout(roots[i], &mut rng), rng)
            })
            .collect();
        let check = |variant: &str, results: [PlayoutResult; 8], finals: [Xoshiro256pp; 8]| {
            for i in 0..8 {
                assert_eq!(results[i], expect[i].0, "{variant} lane {i}: result");
                assert_eq!(finals[i], expect[i].1, "{variant} lane {i}: RNG state");
            }
        };
        let mut finals = rngs.clone();
        check("per-ply", per_ply(roots, &mut finals), finals);
        #[cfg(target_arch = "x86_64")]
        if avx512::available() {
            let mut finals = rngs.clone();
            // SAFETY: `available` checked every feature `playouts8` enables.
            let results = unsafe { avx512::playouts8(roots, &mut finals) };
            check("avx-512", results, finals);
        }
    }

    /// `plies` random moves from the initial position.
    fn advance(plies: u32, rng: &mut Xoshiro256pp) -> Reversi {
        let mut s = Reversi::initial();
        for _ in 0..plies {
            match s.random_move(rng) {
                Some(mv) => s.apply(mv),
                None => break,
            }
        }
        s
    }

    fn streams(seed: u64) -> [Xoshiro256pp; 8] {
        std::array::from_fn(|i| Xoshiro256pp::derive(seed, i as u64))
    }

    /// Forced passes on the scalar path from `root`.
    fn passes(root: Reversi, mut rng: Xoshiro256pp) -> u32 {
        let mut s = root;
        let mut n = 0;
        while let Some(mv) = s.random_move(&mut rng) {
            n += u32::from(mv.is_pass());
            s.apply(mv);
        }
        n
    }

    #[test]
    fn loops_match_scalar_on_random_roots() {
        whole_loop_runs();
        let mut rng = Xoshiro256pp::new(21);
        for seed in 0..64 {
            let roots =
                std::array::from_fn(|i| advance((seed as u32 * 7 + i as u32 * 5) % 58, &mut rng));
            assert_loops_match_scalar(&roots, &streams(seed));
        }
    }

    #[test]
    fn loops_match_scalar_on_pass_heavy_roots() {
        whole_loop_runs();
        // Sparse boards where one side holds few discs: not reachable
        // positions, but every rule applies, and passes come often.
        let mut gen = SplitMix64::new(22);
        let mut total = 0;
        for seed in 0..64 {
            let roots: [Reversi; 8] = std::array::from_fn(|_| {
                let occupied = gen.next_u64() & gen.next_u64() & gen.next_u64();
                let minority = gen.next_u64() & gen.next_u64() & gen.next_u64();
                let player = if gen.next_u64() & 1 == 0 {
                    Player::P1
                } else {
                    Player::P2
                };
                Reversi::from_bitboards(occupied & minority, occupied & !minority, player)
            });
            let rngs = streams(1000 + seed);
            total += (0..8)
                .map(|i| passes(roots[i], rngs[i].clone()))
                .sum::<u32>();
            assert_loops_match_scalar(&roots, &rngs);
        }
        assert!(
            total >= 64,
            "only {total} passes: the roots do not exercise passing"
        );
    }

    #[test]
    fn loops_match_scalar_on_terminal_roots() {
        whole_loop_runs();
        let mut rng = Xoshiro256pp::new(23);
        for seed in 0..16 {
            // Even lanes start finished; all-terminal batches draw nothing.
            let roots =
                std::array::from_fn(|i| advance(if i % 2 == 0 { 200 } else { 20 }, &mut rng));
            assert_loops_match_scalar(&roots, &streams(2000 + seed));
            let done = std::array::from_fn(|i| roots[i & !1]);
            assert_loops_match_scalar(&done, &streams(3000 + seed));
        }
    }

    /// Lemire's `lo < bound` branch fires with probability bound/2³² per
    /// draw, so random tests never reach it. At a root with 3 legal moves
    /// the rejection threshold is 2³² mod 3 = 1: a low output word of 0
    /// gives `lo = 0` and redraws, and `0xAAAA_AAAB` gives `lo = 1`, which
    /// enters the branch but keeps its draw.
    #[test]
    fn lemire_rare_branch_matches_scalar() {
        whole_loop_runs();
        let mut rng = Xoshiro256pp::new(24);
        let root = (0..)
            .map(|plies| advance(plies % 40, &mut rng))
            .find(|s| s.legal_mask().count_ones() == 3)
            .expect("some position has 3 legal moves");
        let mut gen = SplitMix64::new(25);
        for (low, redraws) in [(0u64, true), (0xAAAA_AAAB, false)] {
            let lo = (low * 3) as u32;
            assert!(lo < 3, "low word {low:#x} skips the branch");
            assert_eq!(lo < 1, redraws, "low word {low:#x}");
            for lane in 0..8 {
                // The crafted stream in one lane, ordinary ones elsewhere.
                let mut rngs = streams(4000 + lane as u64);
                rngs[lane] = stream_with_next_output(gen.next_u64() << 32 | low, &mut gen);
                assert_loops_match_scalar(&[root; 8], &rngs);
            }
            // Every lane at once.
            let rngs = std::array::from_fn(|_| {
                stream_with_next_output(gen.next_u64() << 32 | low, &mut gen)
            });
            assert_loops_match_scalar(&[root; 8], &rngs);
        }
    }
}
