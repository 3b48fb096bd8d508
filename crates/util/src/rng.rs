//! Deterministic pseudo-random number generators.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny, extremely fast generator mainly used to *seed*
//!   other generators and to derive independent per-thread / per-lane streams
//!   from a single experiment seed (it is the seeding procedure recommended
//!   by the xoshiro authors).
//! * [`Xoshiro256pp`] (xoshiro256++) — the workhorse generator used inside
//!   playouts. It passes BigCrush, has a 2^256 − 1 period and supports
//!   `jump()` for cheap stream splitting.
//!
//! Both implement the minimal [`Rng64`] trait, which is all the Monte Carlo
//! code needs: raw `u64`s plus unbiased bounded integers (Lemire's method).

/// Minimal RNG interface used throughout the workspace.
pub trait Rng64 {
    /// Returns the next 64 uniformly distributed random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniformly distributed integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased and
    /// needs fewer divisions than the classical modulo approach.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    fn next_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "next_below: bound must be non-zero");
        // Lemire 2019: unbiased bounded integers via 64x32->96 multiplication.
        let mut x = self.next_u64() as u32 as u64;
        let mut m = x.wrapping_mul(bound as u64);
        let mut lo = m as u32;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64() as u32 as u64;
                m = x.wrapping_mul(bound as u64);
                lo = m as u32;
            }
        }
        (m >> 32) as u32
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// SplitMix64: Steele, Lea & Flood's fast 64-bit generator.
///
/// Each call advances an internal counter by a fixed odd constant and hashes
/// it; any seed (including 0) gives a full-period sequence. Mainly used for
/// seeding and for deriving independent sub-streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from an arbitrary seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derives an independent stream for item `index` under this seed.
    ///
    /// The derivation hashes the (seed, index) pair so that neighbouring
    /// indices produce uncorrelated streams; this is how per-thread and
    /// per-GPU-lane generators are produced from one experiment seed.
    #[inline]
    pub fn derive(seed: u64, index: u64) -> Self {
        let mut s = Self::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Burn a couple of outputs so low-entropy (seed, index) pairs diverge.
        s.next_u64();
        s.next_u64();
        s
    }
}

impl Rng64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ by Blackman & Vigna — the playout RNG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator whose state is expanded from `seed` via SplitMix64
    /// (the seeding procedure recommended by the xoshiro authors).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = sm.next_u64();
        }
        // All-zero state is the one forbidden state; SplitMix64 cannot
        // produce four consecutive zeros in practice, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Creates the generator for sub-stream `index` of `seed`.
    pub fn derive(seed: u64, index: u64) -> Self {
        let mut sm = SplitMix64::derive(seed, index);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = sm.next_u64();
        }
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Self { s }
    }

    /// Creates a generator with exactly the state words `s` (as returned
    /// by [`state`](Self::state)), so a vectorized playout engine can hand
    /// a lane's stream back to the scalar generator.
    ///
    /// # Panics
    /// Panics on the all-zero state, the one state xoshiro forbids.
    #[inline]
    pub fn from_state(s: [u64; 4]) -> Self {
        assert_ne!(s, [0; 4], "xoshiro256++ state must not be all zero");
        Self { s }
    }

    /// The four state words, in the order [`from_state`](Self::from_state)
    /// takes them.
    #[inline]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Advances the state by 2^128 steps: equivalent to 2^128 `next_u64`
    /// calls. Used to hand out guaranteed non-overlapping sub-sequences.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_6618_A852_5417,
            0x3982_3137_1B8F_408B,
        ];
        let mut acc = [0u64; 4];
        for j in JUMP {
            for bit in 0..64 {
                if (j >> bit) & 1 != 0 {
                    for (a, s) in acc.iter_mut().zip(self.s.iter()) {
                        *a ^= s;
                    }
                }
                self.next_u64();
            }
        }
        self.s = acc;
    }
}

impl Rng64 for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference output for seed 0 from the published SplitMix64 code.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::new(7);
        let mut b = Xoshiro256pp::new(7);
        let mut c = Xoshiro256pp::new(8);
        let mut any_diff = false;
        for _ in 0..64 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            any_diff |= x != c.next_u64();
        }
        assert!(any_diff, "different seeds must differ somewhere");
    }

    #[test]
    fn derive_streams_are_distinct() {
        let mut s0 = Xoshiro256pp::derive(123, 0);
        let mut s1 = Xoshiro256pp::derive(123, 1);
        let a: Vec<u64> = (0..16).map(|_| s0.next_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| s1.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn jump_changes_state_deterministically() {
        let mut a = Xoshiro256pp::new(99);
        let mut b = Xoshiro256pp::new(99);
        a.jump();
        b.jump();
        assert_eq!(a, b);
        let mut c = Xoshiro256pp::new(99);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn state_roundtrips_through_from_state() {
        let mut a = Xoshiro256pp::new(17);
        a.next_u64();
        let mut b = Xoshiro256pp::from_state(a.state());
        assert_eq!(a, b);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "must not be all zero")]
    fn from_state_rejects_the_zero_state() {
        Xoshiro256pp::from_state([0; 4]);
    }

    #[test]
    fn next_below_is_in_range() {
        let mut r = Xoshiro256pp::new(1);
        for bound in [1u32, 2, 3, 7, 8, 33, 64, 1000] {
            for _ in 0..1000 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_all_values() {
        let mut r = Xoshiro256pp::new(2);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut r = Xoshiro256pp::new(3);
        let bound = 10u32;
        let n = 100_000;
        let mut counts = [0u32; 10];
        for _ in 0..n {
            counts[r.next_below(bound) as usize] += 1;
        }
        let expected = n as f64 / bound as f64;
        for &c in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket deviates {dev:.3} from uniform");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn next_below_zero_panics() {
        let mut r = SplitMix64::new(0);
        r.next_below(0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = Xoshiro256pp::new(4);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn next_bool_matches_probability() {
        let mut r = Xoshiro256pp::new(5);
        let hits = (0..100_000).filter(|_| r.next_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
    }
}
