//! The Monte Carlo playout kernel executed on the simulated GPU.
//!
//! One simulated GPU thread = one playout. A lane's state machine plays one
//! random ply per lockstep step, so a warp's cost is dominated by its
//! longest game — the divergence behaviour that shapes all of the paper's
//! GPU results. Each *block* simulates from its own starting position
//! (`roots[block]`): leaf parallelism passes one shared root, block
//! parallelism passes one root per tree.
//!
//! Outputs are one byte per thread, exactly the paper's device result array
//! ("the results are written to an array in the GPU's memory (0 = loss,
//! 1 = victory)") generalised to carry draws.

use pmcts_games::{play_lanes, Game, Outcome, Player};
use pmcts_gpu_sim::{Kernel, ThreadId};
use pmcts_util::Xoshiro256pp;

/// Encoded playout result, one byte per lane (the device result array).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneOutcome {
    /// P1 (Black) won the playout.
    P1Win,
    /// P2 (White) won the playout.
    P2Win,
    /// Drawn playout.
    Draw,
}

impl LaneOutcome {
    fn from_outcome(o: Outcome) -> Self {
        match o {
            Outcome::Win(Player::P1) => LaneOutcome::P1Win,
            Outcome::Win(Player::P2) => LaneOutcome::P2Win,
            Outcome::Draw => LaneOutcome::Draw,
        }
    }

    /// Reward for P1 (1, 0 or ½).
    #[inline]
    pub fn reward_p1(self) -> f64 {
        match self {
            LaneOutcome::P1Win => 1.0,
            LaneOutcome::P2Win => 0.0,
            LaneOutcome::Draw => 0.5,
        }
    }
}

/// Per-lane mutable state: the game being played plus the lane's RNG.
pub struct LaneState<G> {
    state: G,
    rng: Xoshiro256pp,
    finished: Option<Outcome>,
}

/// Playout kernel: every thread plays one random game to completion.
pub struct PlayoutKernel<G: Game> {
    /// Starting position for each block; block `b` reads
    /// `roots[b % roots.len()]`, so leaf parallelism can pass one root.
    roots: Vec<G>,
    /// Stream seed for this launch (callers advance an epoch counter so
    /// every launch draws fresh, reproducible randomness).
    stream_seed: u64,
}

impl<G: Game> PlayoutKernel<G> {
    /// Creates a kernel. `stream_seed` should already combine the
    /// experiment seed with a per-launch epoch.
    pub fn new(roots: Vec<G>, stream_seed: u64) -> Self {
        assert!(!roots.is_empty(), "kernel needs at least one root position");
        PlayoutKernel { roots, stream_seed }
    }

    /// Bytes uploaded to the device for the root positions (charged by the
    /// caller as a host→device transfer). Uses the game's wire payload
    /// size, not `size_of::<G>()`: host-only caches like the Zobrist hash
    /// are never uploaded.
    pub fn upload_bytes(&self) -> u64 {
        (self.roots.len() * G::device_state_bytes()) as u64
    }

    /// Lane `tid`'s starting position and RNG stream: one stream per
    /// global thread id, fresh per launch.
    fn lane(&self, tid: ThreadId) -> (G, Xoshiro256pp) {
        (
            self.roots[tid.block as usize % self.roots.len()],
            Xoshiro256pp::derive(self.stream_seed, tid.global as u64),
        )
    }
}

impl<G: Game> Kernel for PlayoutKernel<G> {
    type ThreadState = LaneState<G>;
    type Output = LaneOutcome;

    fn init(&self, tid: ThreadId) -> LaneState<G> {
        let (state, rng) = self.lane(tid);
        LaneState {
            state,
            rng,
            finished: None,
        }
    }

    fn step(&self, lane: &mut LaneState<G>, _tid: ThreadId) -> bool {
        if lane.finished.is_some() {
            return true;
        }
        if let Some(outcome) = lane.state.outcome() {
            lane.finished = Some(outcome);
            return true;
        }
        let mv = lane
            .state
            .random_move(&mut lane.rng)
            .expect("non-terminal state has a move");
        lane.state.apply(mv);
        if let Some(outcome) = lane.state.outcome() {
            lane.finished = Some(outcome);
            true
        } else {
            false
        }
    }

    fn finish(&self, lane: LaneState<G>, _tid: ThreadId) -> LaneOutcome {
        LaneOutcome::from_outcome(lane.finished.expect("lane finished before output"))
    }

    fn output_bytes(&self) -> u64 {
        1
    }

    /// Fused lanes: a warp's playouts through [`play_lanes`] (allocation
    /// free, batched when the game's lane engine is a measured win,
    /// [`Game::LANE_ENGINE`]) instead of the `init`/`step` state machine.
    /// Every lane keeps its own derived RNG stream and draws the identical
    /// sequence, so outputs and step counts are bit-identical to the state
    /// machine the lockstep oracle runs: each `step` call applies exactly
    /// one ply and the call that applies the final ply reports completion,
    /// so a playout of `p ≥ 1` plies takes `p` steps, and a terminal root
    /// takes the single entry-check step.
    fn run_lanes(&self, tids: &[ThreadId], out: &mut Vec<(LaneOutcome, u64)>) {
        play_lanes(
            tids.len(),
            |i| self.lane(tids[i]),
            |_, result, _| {
                let steps = (result.plies as u64).max(1);
                out.push((LaneOutcome::from_outcome(result.outcome), steps));
            },
        );
    }
}

/// Sums a block's lane outcomes into `(wins_for_p1, simulations)` — the
/// host-side aggregation performed after reading back the result array.
pub fn aggregate(outcomes: &[LaneOutcome]) -> (f64, u64) {
    let mut wins = 0.0;
    for &o in outcomes {
        wins += o.reward_p1();
    }
    (wins, outcomes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_games::{Reversi, TicTacToe};
    use pmcts_gpu_sim::{Device, DeviceSpec, LaunchConfig};

    #[test]
    fn kernel_runs_full_playouts() {
        let dev = Device::new(DeviceSpec::tesla_c2050());
        let k = PlayoutKernel::new(vec![Reversi::initial()], 42);
        let r = dev.launch(&k, LaunchConfig::new(4, 64));
        assert_eq!(r.outputs.len(), 256);
        let (wins, n) = aggregate(&r.outputs);
        assert_eq!(n, 256);
        assert!(wins > 0.0 && wins < 256.0, "wins={wins}");
        // Reversi games are ≥ ~50 plies: warp steps must reflect that.
        assert!(r.stats.warp_steps >= 50 * (r.stats.warps as u64));
    }

    #[test]
    fn per_block_roots_are_respected() {
        // Block 0 simulates a position already won by P1; block 1 one won
        // by P2. Outputs must separate exactly.
        let won_p1 = TicTacToe::parse("XXX OO. ...", Player::P2).unwrap();
        let won_p2 = TicTacToe::parse("OOO XX. ..X", Player::P1).unwrap();
        let dev = Device::new(DeviceSpec::tesla_c2050());
        let k = PlayoutKernel::new(vec![won_p1, won_p2], 1);
        let r = dev.launch(&k, LaunchConfig::new(2, 32));
        let (w0, _) = aggregate(&r.outputs[..32]);
        let (w1, _) = aggregate(&r.outputs[32..]);
        assert_eq!(w0, 32.0);
        assert_eq!(w1, 0.0);
    }

    #[test]
    fn kernel_is_deterministic_per_seed() {
        let dev = Device::new(DeviceSpec::tesla_c2050());
        let cfg = LaunchConfig::new(2, 32);
        let a = dev.launch(&PlayoutKernel::new(vec![Reversi::initial()], 9), cfg);
        let b = dev.launch(&PlayoutKernel::new(vec![Reversi::initial()], 9), cfg);
        let c = dev.launch(&PlayoutKernel::new(vec![Reversi::initial()], 10), cfg);
        assert_eq!(a.outputs, b.outputs);
        assert_ne!(a.outputs, c.outputs);
    }

    #[test]
    fn divergence_is_visible_in_stats() {
        // Real games end at different plies, so some lanes must idle.
        let dev = Device::new(DeviceSpec::tesla_c2050());
        let k = PlayoutKernel::new(vec![Reversi::initial()], 3);
        let r = dev.launch(&k, LaunchConfig::new(1, 64));
        assert!(r.stats.idle_lane_steps > 0, "expected SIMD divergence");
        assert!(r.stats.lane_efficiency() < 1.0);
    }

    #[test]
    fn aggregate_counts_draws_as_half() {
        let outs = [LaneOutcome::P1Win, LaneOutcome::Draw, LaneOutcome::P2Win];
        let (w, n) = aggregate(&outs);
        assert_eq!(w, 1.5);
        assert_eq!(n, 3);
    }

    #[test]
    fn upload_bytes_scales_with_roots() {
        let k1 = PlayoutKernel::new(vec![Reversi::initial()], 0);
        let k4 = PlayoutKernel::new(vec![Reversi::initial(); 4], 0);
        assert_eq!(k4.upload_bytes(), 4 * k1.upload_bytes());
    }
}
