//! What the whole-loop AVX-512 lane kernels share (DESIGN.md §15).
//!
//! Reversi's and Hex's kernels each play 8 playouts inside one
//! `#[target_feature]` loop, one lane per 64-bit element of an `__m512i`.
//! Both draw their moves the same way: the 8 xoshiro256++ streams live in
//! four state vectors, a masked step advances the lanes that move, Lemire's
//! multiply bounds each draw (with a scalar redo of its rare branch), and a
//! per-lane `pdep` turns the pick into a move bit. Those pieces, the lane
//! load and store, and the playout's length guard are here; the kernels
//! inline them.

use crate::game::Game;
use crate::playout::check_length;
use core::arch::x86_64::{
    __m512i, __mmask8, _mm512_add_epi64, _mm512_and_si512, _mm512_cmpgt_epu64_mask,
    _mm512_loadu_si512, _mm512_mask_cmplt_epu64_mask, _mm512_mask_rol_epi64, _mm512_mask_xor_epi64,
    _mm512_mul_epu32, _mm512_rol_epi64, _mm512_set1_epi64, _mm512_slli_epi64, _mm512_srli_epi64,
    _mm512_storeu_si512, _pdep_u64,
};
use pmcts_util::{Rng64, Xoshiro256pp};

/// Loads 8 lanes.
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) fn load(a: &[u64; 8]) -> __m512i {
    // SAFETY: `a` is 64 readable bytes; loadu has no alignment requirement.
    unsafe { _mm512_loadu_si512(a.as_ptr().cast()) }
}

/// Stores 8 lanes.
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) fn store(v: __m512i) -> [u64; 8] {
    let mut a = [0u64; 8];
    // SAFETY: `a` is 64 writable bytes; storeu has no alignment requirement.
    unsafe { _mm512_storeu_si512(a.as_mut_ptr().cast(), v) };
    a
}

/// One xoshiro256++ step ([`Xoshiro256pp::next_u64`]) on the lanes in `k`,
/// whose outputs it returns; the other lanes' states stay put and their
/// outputs are garbage.
#[target_feature(enable = "avx512f")]
#[inline]
fn xoshiro_step(s: &mut [__m512i; 4], k: __mmask8) -> __m512i {
    let [s0, s1, s2, s3] = *s;
    let out = _mm512_add_epi64(_mm512_rol_epi64(_mm512_add_epi64(s0, s3), 23), s0);
    let t = _mm512_slli_epi64(s1, 17);
    let s2 = _mm512_mask_xor_epi64(s2, k, s2, s0);
    let s3 = _mm512_mask_xor_epi64(s3, k, s3, s1);
    let s1 = _mm512_mask_xor_epi64(s1, k, s1, s2);
    let s0 = _mm512_mask_xor_epi64(s0, k, s0, s3);
    let s2 = _mm512_mask_xor_epi64(s2, k, s2, t);
    let s3 = _mm512_mask_rol_epi64(s3, k, s3, 45);
    *s = [s0, s1, s2, s3];
    out
}

/// The state words of 8 streams, one vector per word.
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) fn load_streams(rngs: &[Xoshiro256pp; 8]) -> [__m512i; 4] {
    let states = rngs.each_ref().map(Xoshiro256pp::state);
    let word = |w: usize| std::array::from_fn(|i| states[i][w]);
    [
        load(&word(0)),
        load(&word(1)),
        load(&word(2)),
        load(&word(3)),
    ]
}

/// The 8 streams whose state words `s` holds.
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) fn store_streams(s: &[__m512i; 4]) -> [Xoshiro256pp; 8] {
    let words = [store(s[0]), store(s[1]), store(s[2]), store(s[3])];
    std::array::from_fn(|i| Xoshiro256pp::from_state(words.map(|word| word[i])))
}

/// Redoes the draws of the lanes in `rare` — those whose first draw hit
/// Lemire's `lo < bound` branch — with the scalar [`Rng64::next_below`]
/// from their pre-draw states `pre`, so the rejection rule has one
/// definition. Returns the final states `post` and the picks `k` with
/// those lanes replaced. Everything passes by value, so the caller's
/// state vectors never need a memory home on the common path.
#[target_feature(enable = "avx512f")]
#[cold]
fn redraw(
    rare: __mmask8,
    pre: [__m512i; 4],
    post: [__m512i; 4],
    k: __m512i,
    bound: __m512i,
) -> ([__m512i; 4], __m512i) {
    let pre = store_streams(&pre);
    let mut post = store_streams(&post);
    let mut k = store(k);
    let bound = store(bound);
    for i in (0..8).filter(|i| rare >> i & 1 != 0) {
        post[i] = pre[i].clone();
        k[i] = u64::from(post[i].next_below(bound[i] as u32));
    }
    (load_streams(&post), load(&k))
}

/// [`Rng64::next_below`]`(bound)` on the lanes in `movers`, each from its
/// own stream in `s`: one xoshiro256++ step under the mask, Lemire's
/// `k = (x · bound) >> 32` on the output's low word in `vpmuludq`, and the
/// scalar [`redraw`] for the rare lanes with `lo < bound`. Every mover's
/// `bound` must be in `1..2³²`; the other lanes' picks are garbage and
/// their streams stay put.
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) fn next_below8(s: &mut [__m512i; 4], movers: __mmask8, bound: __m512i) -> __m512i {
    let pre = *s;
    let x = xoshiro_step(s, movers);
    let m = _mm512_mul_epu32(x, bound);
    let k = _mm512_srli_epi64(m, 32);
    let lo = _mm512_and_si512(m, _mm512_set1_epi64(u32::MAX.into()));
    let rare = _mm512_mask_cmplt_epu64_mask(movers, lo, bound);
    if rare != 0 {
        let (post, k) = redraw(rare, pre, *s, k, bound);
        *s = post;
        return k;
    }
    k
}

/// The scalar playout's length guard ([`check_length`]) on every lane's
/// ply count; the reduction to the longest lane runs only when one is
/// over.
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) fn check_lengths<G: Game>(plies: __m512i) {
    let max = _mm512_set1_epi64(G::MAX_GAME_LENGTH as i64);
    if _mm512_cmpgt_epu64_mask(plies, max) != 0 {
        too_long::<G>(plies);
    }
}

/// [`check_length`] on the longest lane, which panics.
#[target_feature(enable = "avx512f")]
#[cold]
#[inline(never)]
fn too_long<G: Game>(plies: __m512i) {
    check_length::<G>(store(plies).into_iter().max().unwrap_or(0) as u32);
}

/// `pdep(pick, mask)` per lane: the `k`-th set bit of each lane's mask,
/// given `pick = 1 << k`. `pdep` has no vector form; every host with
/// AVX-512 runs it in hardware, while AMD cores before Zen 3 microcode it.
#[target_feature(enable = "avx512f,bmi2")]
#[inline]
pub(crate) fn pdep8(pick: __m512i, masks: __m512i) -> __m512i {
    let pick = store(pick);
    let masks = store(masks);
    let mut bits = [0u64; 8];
    for i in 0..8 {
        bits[i] = _pdep_u64(pick[i], masks[i]);
    }
    load(&bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_util::SplitMix64;

    /// Whether this host has AVX-512F; prints a skip otherwise, since CI
    /// runners may lack it.
    fn avx512f() -> bool {
        let ok = is_x86_feature_detected!("avx512f");
        if !ok {
            println!("vector xoshiro step: skipped (host lacks avx512f)");
        }
        ok
    }

    #[test]
    fn vector_xoshiro_step_matches_next_u64() {
        if !avx512f() {
            return;
        }
        #[target_feature(enable = "avx512f")]
        fn step(rngs: &mut [Xoshiro256pp; 8], k: u8) -> [u64; 8] {
            let mut s = load_streams(rngs);
            let out = xoshiro_step(&mut s, k);
            *rngs = store_streams(&s);
            store(out)
        }
        let mut gen = SplitMix64::new(26);
        for _ in 0..1000 {
            let mut scalar: [Xoshiro256pp; 8] = std::array::from_fn(|_| {
                Xoshiro256pp::from_state(std::array::from_fn(|_| gen.next_u64()))
            });
            let mut vector = scalar.clone();
            let k = gen.next_u64() as u8;
            // SAFETY: `avx512f` checked the feature.
            let out = unsafe { step(&mut vector, k) };
            for i in 0..8 {
                let stepped = k >> i & 1 != 0;
                if stepped {
                    assert_eq!(out[i], scalar[i].next_u64(), "lane {i}: output");
                }
                assert_eq!(vector[i], scalar[i], "lane {i}: state (stepped: {stepped})");
            }
        }
    }
}
