//! Seeded input generators. The program under test only ever receives
//! what these produce, and the same `--seed` produces the same inputs.

use pmcts_core::fleet::Priority;
use pmcts_games::Game;
use pmcts_util::{Rng64, SplitMix64};

/// Domain separation between the generators' streams.
const POSITION_KEY: u64 = 0x9051_7104;
const ARRIVAL_KEY: u64 = 0xA441_7A15;
const SESSION_KEY: u64 = 0x5E55_1011;
const SEARCH_KEY: u64 = 0x5EA4_C400;

/// Stages of the closed-loop move generators: 15 ply counts spread evenly
/// over `[lo, hi]`.
const STAGES: u32 = 15;

/// A position `plies` uniformly random moves deep, from stream `stream` of
/// `seed`. Draws that end the game early are redrawn on the next
/// sub-stream, so the result is never terminal.
pub fn position<G: Game>(seed: u64, stream: u64, plies: u32) -> G {
    for attempt in 0u64.. {
        let mut rng = SplitMix64::derive(seed ^ POSITION_KEY, stream.wrapping_add(attempt << 40));
        let mut state = G::initial();
        for _ in 0..plies {
            match state.random_move(&mut rng) {
                Some(mv) => state.apply(mv),
                None => break,
            }
        }
        if !state.is_terminal() {
            return state;
        }
    }
    unreachable!("an unbounded attempt counter always returns")
}

/// Ply count of closed-loop op `i`: stage `7i mod 15` of 15 even
/// steps over `[lo, hi]`. Every run cycles through the same stage mix (only
/// the random moves differ by seed), and the stride of 7 spreads any prefix
/// of ops across the range, so per-run means do not swing with which game
/// stages a seed happens to draw.
pub fn stratified_plies(i: usize, lo: u32, hi: u32) -> u32 {
    let stage = (i as u64 * 7 % u64::from(STAGES)) as u32;
    lo + stage * (hi - lo) / (STAGES - 1)
}

/// Seed of the searcher (or session) behind op `stream` of `seed`.
pub fn search_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::derive(seed ^ SEARCH_KEY, stream).next_u64()
}

/// One offered fleet session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionSpec {
    /// Random plies from the initial position to the session's root.
    pub plies: u32,
    /// Interactive : Standard : Batch = 1 : 2 : 1.
    pub priority: Priority,
    /// The session's search seed.
    pub seed: u64,
}

/// Open-loop arrivals for the fleet: a Poisson(`lambda`) number of offers
/// before each wave, each a session on a 0–`max_plies` ply position.
#[derive(Clone, Copy, Debug)]
pub struct Arrivals {
    seed: u64,
    lambda: f64,
    max_plies: u32,
}

impl Arrivals {
    /// The schedule of `seed` at mean `lambda` offers per wave.
    pub fn new(seed: u64, lambda: f64, max_plies: u32) -> Self {
        assert!(lambda > 0.0 && lambda < 500.0, "lambda out of range");
        Arrivals {
            seed,
            lambda,
            max_plies,
        }
    }

    /// Offers arriving before wave `wave` (Knuth's product-of-uniforms
    /// Poisson sampler on the wave's own stream).
    pub fn count(&self, wave: u64) -> u32 {
        let mut rng = SplitMix64::derive(self.seed ^ ARRIVAL_KEY, wave);
        let floor = (-self.lambda).exp();
        let mut k = 0;
        let mut p = rng.next_f64();
        while p > floor {
            k += 1;
            p *= rng.next_f64();
        }
        k
    }

    /// The `index`-th offered session (offer order).
    pub fn session(&self, index: u64) -> SessionSpec {
        let mut rng = SplitMix64::derive(self.seed ^ SESSION_KEY, index);
        let plies = rng.next_below(self.max_plies + 1);
        let priority = match rng.next_below(4) {
            0 => Priority::Interactive,
            3 => Priority::Batch,
            _ => Priority::Standard,
        };
        SessionSpec {
            plies,
            priority,
            seed: rng.next_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_games::{Hex11, Reversi};

    #[test]
    fn positions_are_seeded_and_never_terminal() {
        let a: Reversi = position(7, 3, 30);
        assert_eq!(a, position(7, 3, 30));
        assert_ne!(a, position::<Reversi>(8, 3, 30));
        assert_ne!(a, position::<Reversi>(7, 4, 30));
        for s in 0..50 {
            assert!(!position::<Reversi>(s, s, 58).is_terminal());
            assert!(!position::<Hex11>(s, s, 60).is_terminal());
        }
    }

    #[test]
    fn stratified_plies_cover_every_stage_once_per_cycle() {
        let mut seen: Vec<u32> = (0..STAGES as usize)
            .map(|i| stratified_plies(i, 12, 40))
            .collect();
        seen.sort_unstable();
        let expected: Vec<u32> = (0..STAGES).map(|s| 12 + 2 * s).collect();
        assert_eq!(seen, expected);
        assert_eq!(stratified_plies(15, 12, 40), stratified_plies(0, 12, 40));
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = Arrivals::new(5, 7.0, 40);
        let b = Arrivals::new(5, 7.0, 40);
        let c = Arrivals::new(6, 7.0, 40);
        let counts = |s: &Arrivals| (1..=200).map(|w| s.count(w)).collect::<Vec<_>>();
        assert_eq!(counts(&a), counts(&b));
        assert_ne!(counts(&a), counts(&c));
        assert_eq!(a.session(17), b.session(17));
    }

    #[test]
    fn poisson_mean_is_within_two_percent_over_4000_waves() {
        for seed in [1, 2, 3] {
            let lambda = 7.0;
            let s = Arrivals::new(seed, lambda, 40);
            let total: u64 = (1..=4000).map(|w| u64::from(s.count(w))).sum();
            let mean = total as f64 / 4000.0;
            assert!(
                (mean - lambda).abs() <= 0.02 * lambda,
                "seed {seed}: mean {mean}"
            );
        }
    }

    #[test]
    fn session_mix_is_one_two_one() {
        let s = Arrivals::new(9, 7.0, 40);
        let mut by_class = [0u32; 3];
        for i in 0..8000 {
            let spec = s.session(i);
            assert!(spec.plies <= 40);
            by_class[spec.priority.index()] += 1;
        }
        let share = |c: usize| f64::from(by_class[c]) / 8000.0;
        assert!((share(0) - 0.25).abs() < 0.02);
        assert!((share(1) - 0.50).abs() < 0.02);
        assert!((share(2) - 0.25).abs() < 0.02);
    }
}
