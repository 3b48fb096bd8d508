//! Replays of the lower layers on a workload's own inputs (traced run
//! only): its root positions, its launch geometry and its tree size.
//!
//! Every replay runs twice and both passes must produce the same checksum;
//! the lane-batch pass must also reproduce the scalar pass's checksum
//! exactly (the lane engine's bit-identity contract). Times are the faster
//! of the two passes.

use crate::trace::Tracer;
use pmcts_core::gpu::{LaneOutcome, PlayoutKernel};
use pmcts_core::tree::SearchTree;
use pmcts_games::{random_playout, Game, LaneBatch, Outcome, Player, PlayoutResult};
use pmcts_gpu_sim::{Device, LaunchConfig};
use pmcts_util::Xoshiro256pp;
use std::time::Instant;

/// Seed of every replay stream (replays are independent of `--seed`'s
/// search streams; they only reuse the workload's positions).
const REPLAY_SEED: u64 = 0x4E91_A7E5;

/// Launches timed per executor replay pass.
const LAUNCHES_PER_PASS: u64 = 5;

/// The exploration constant the library defaults to.
const EXPLORATION_C: f64 = std::f64::consts::SQRT_2;

/// What the replays measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Replay {
    /// Wall ns per scalar `random_playout`, one thread.
    pub scalar_playout_ns: f64,
    /// Mean plies per replayed playout.
    pub plies_per_playout: f64,
    /// Wall ns per playout through `LaneBatch<_, 8>::run`, one thread.
    pub lane_playout_ns: f64,
    /// Median wall ns of one `Device::launch(PlayoutKernel)` at the
    /// workload geometry on the workload's worker pool.
    pub launch_wall_ns_p50: f64,
    /// Lanes (playouts) per replayed launch.
    pub launch_lanes: u64,
    /// Useful lane steps per wall second of launch.
    pub lane_steps_per_s: f64,
    /// Useful / (useful + idle) lane steps of the replayed launches.
    pub launch_lane_efficiency: f64,
    /// Occupancy of the replayed launch geometry.
    pub launch_occupancy: f64,
    /// Wall ns per `SearchTree::select` on the workload-sized tree.
    pub select_ns: f64,
    /// Wall ns per `SearchTree::expand`.
    pub expand_ns: f64,
    /// Wall ns per `SearchTree::backprop`.
    pub backprop_ns: f64,
    /// Whether every checksum agreed across passes (and lanes ≡ scalar).
    pub consistent: bool,
}

impl Replay {
    /// Wall ns of one select + expand + backprop tree iteration.
    pub fn tree_iteration_ns(&self) -> f64 {
        self.select_ns + self.expand_ns + self.backprop_ns
    }
}

/// Replays every lower layer on `roots` (non-empty), at `launch` on
/// `device`, with a tree grown to `tree_nodes`. Spans go under one
/// `replay` root span.
pub fn replay<G: Game>(
    roots: &[G],
    device: &Device,
    launch: LaunchConfig,
    tree_nodes: usize,
    playouts: usize,
    tree_iterations: usize,
    tracer: &mut Tracer,
) -> Replay {
    assert!(!roots.is_empty(), "replay needs the workload's roots");
    let root_span = tracer.begin("replay", None, None);
    let playouts = playouts.div_ceil(8).max(1) * 8;
    let mut consistent = true;

    let mut timed = |tracer: &mut Tracer, name: &'static str, f: &dyn Fn() -> (u64, u64)| {
        let mut best = u64::MAX;
        let mut sums = Vec::new();
        for _ in 0..2 {
            let span = tracer.begin(name, root_span, None);
            let t = Instant::now();
            sums.push(f());
            best = best.min(t.elapsed().as_nanos() as u64);
            tracer.end(span);
        }
        consistent &= sums[0] == sums[1];
        (best, sums[0])
    };

    let (scalar_ns, (scalar_sum, plies)) = timed(tracer, "games.playout.random_playout", &|| {
        scalar_pass(roots, playouts)
    });
    let (lane_ns, (lane_sum, _)) = timed(tracer, "games.lane_batch.run", &|| {
        lane_pass(roots, playouts)
    });
    let mut consistent = consistent && scalar_sum == lane_sum;

    let launch_roots: Vec<G> = roots.iter().copied().take(launch.blocks as usize).collect();
    let mut walls = Vec::new();
    let mut lane_steps = 0u64;
    let mut idle_steps = 0u64;
    let mut occupancy = 0.0;
    let mut sums = [0u64; 2];
    for sum in &mut sums {
        for l in 0..LAUNCHES_PER_PASS {
            let kernel = PlayoutKernel::new(launch_roots.clone(), REPLAY_SEED + l);
            let span = tracer.begin("gpu_sim.executor.launch", root_span, None);
            let t = Instant::now();
            let result = device.launch(&kernel, launch);
            let wall = t.elapsed().as_nanos() as u64;
            tracer.end(span);
            walls.push(wall as f64);
            lane_steps += result.stats.lane_steps;
            idle_steps += result.stats.idle_lane_steps;
            occupancy = result.stats.occupancy;
            *sum = result
                .outputs
                .iter()
                .fold(fold(*sum, result.stats.lane_steps), |acc, o| {
                    fold(acc, outcome_code(*o))
                });
        }
    }
    consistent &= sums[0] == sums[1];
    let launch_wall_ns_p50 = crate::stats::median(&walls);
    let total_wall: f64 = walls.iter().sum();

    let span = tracer.begin("core.tree.grow", root_span, None);
    let tree = grow(roots[0], tree_nodes.max(2));
    tracer.end(span);
    let mut passes = Vec::new();
    for _ in 0..2 {
        let span = tracer.begin("core.tree.iterate", root_span, None);
        passes.push(tree_pass(&tree, tree_iterations.max(1)));
        tracer.end(span);
    }
    consistent &= passes[0].checksum == passes[1].checksum;
    let per = |f: fn(&TreePass) -> (u64, u64)| {
        passes
            .iter()
            .map(|p| {
                let (ns, ops) = f(p);
                ns as f64 / ops.max(1) as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    tracer.end(root_span);

    Replay {
        scalar_playout_ns: scalar_ns as f64 / playouts as f64,
        plies_per_playout: plies as f64 / playouts as f64,
        lane_playout_ns: lane_ns as f64 / playouts as f64,
        launch_wall_ns_p50,
        launch_lanes: u64::from(launch.total_threads()),
        lane_steps_per_s: lane_steps as f64 / (total_wall / 1e9),
        launch_lane_efficiency: lane_steps as f64 / (lane_steps + idle_steps).max(1) as f64,
        launch_occupancy: occupancy,
        select_ns: per(|p| (p.select_ns, p.selects)),
        expand_ns: per(|p| (p.expand_ns, p.expands)),
        backprop_ns: per(|p| (p.backprop_ns, p.selects)),
        consistent,
    }
}

fn fold(acc: u64, x: u64) -> u64 {
    acc.wrapping_mul(0x100_0000_01B3).wrapping_add(x)
}

fn outcome_code(o: LaneOutcome) -> u64 {
    match o {
        LaneOutcome::P1Win => 0,
        LaneOutcome::P2Win => 1,
        LaneOutcome::Draw => 2,
    }
}

fn result_code(r: &PlayoutResult) -> u64 {
    let o = match r.outcome {
        Outcome::Win(Player::P1) => 0,
        Outcome::Win(Player::P2) => 1,
        Outcome::Draw => 2,
    };
    u64::from(r.plies) * 4 + o
}

/// `(checksum, total plies)` of `n` scalar playouts, playout `k` from
/// `roots[k % len]` on stream `k`.
fn scalar_pass<G: Game>(roots: &[G], n: usize) -> (u64, u64) {
    let mut sum = 0u64;
    let mut plies = 0u64;
    for k in 0..n {
        let mut rng = Xoshiro256pp::derive(REPLAY_SEED, k as u64);
        let r = random_playout(roots[k % roots.len()], &mut rng);
        plies += u64::from(r.plies);
        sum = fold(sum, result_code(&r));
    }
    (sum, plies)
}

/// The same playouts as [`scalar_pass`], eight lanes per `LaneBatch`.
fn lane_pass<G: Game>(roots: &[G], n: usize) -> (u64, u64) {
    let mut sum = 0u64;
    let mut plies = 0u64;
    for k in (0..n).step_by(8) {
        let batch = LaneBatch::<G, 8>::new(
            std::array::from_fn(|j| roots[(k + j) % roots.len()]),
            std::array::from_fn(|j| Xoshiro256pp::derive(REPLAY_SEED, (k + j) as u64)),
        );
        for r in batch.run() {
            plies += u64::from(r.plies);
            sum = fold(sum, result_code(&r));
        }
    }
    (sum, plies)
}

/// A tree grown from `root` by select / expand / backprop to `nodes`
/// nodes (or until it stops growing).
fn grow<G: Game>(root: G, nodes: usize) -> SearchTree<G> {
    let mut tree = SearchTree::new(root);
    let mut rng = Xoshiro256pp::new(REPLAY_SEED);
    let mut stalled = 0;
    let mut i = 0u64;
    while tree.len() < nodes && stalled < 1000 {
        let before = tree.len();
        let sel = tree.select(EXPLORATION_C);
        let node = if tree.fully_expanded(sel) {
            sel
        } else {
            tree.expand(sel, &mut rng)
        };
        tree.backprop(node, (i % 3) as f64 / 2.0, 1);
        stalled = if tree.len() == before { stalled + 1 } else { 0 };
        i += 1;
    }
    tree
}

struct TreePass {
    select_ns: u64,
    expand_ns: u64,
    backprop_ns: u64,
    selects: u64,
    expands: u64,
    checksum: u64,
}

/// `iterations` select → expand → backprop rounds on a copy of `tree`,
/// each phase timed on its own.
fn tree_pass<G: Game>(tree: &SearchTree<G>, iterations: usize) -> TreePass {
    let mut t = tree.clone();
    let mut rng = Xoshiro256pp::new(REPLAY_SEED ^ 1);
    let mut p = TreePass {
        select_ns: 0,
        expand_ns: 0,
        backprop_ns: 0,
        selects: 0,
        expands: 0,
        checksum: 0,
    };
    for i in 0..iterations as u64 {
        let a = Instant::now();
        let sel = t.select(EXPLORATION_C);
        let b = Instant::now();
        let node = if t.fully_expanded(sel) {
            sel
        } else {
            p.expands += 1;
            t.expand(sel, &mut rng)
        };
        let c = Instant::now();
        t.backprop(node, (i % 3) as f64 / 2.0, 1);
        let d = Instant::now();
        p.select_ns += (b - a).as_nanos() as u64;
        p.expand_ns += (c - b).as_nanos() as u64;
        p.backprop_ns += (d - c).as_nanos() as u64;
        p.selects += 1;
        p.checksum = fold(p.checksum, u64::from(sel) << 32 | u64::from(node));
    }
    p.checksum = fold(p.checksum, t.visits(t.root()));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_games::{Hex11, Reversi};
    use pmcts_gpu_sim::{DeviceSpec, WorkerPool};
    use std::sync::Arc;

    #[test]
    fn lane_and_scalar_passes_agree_on_every_game() {
        let reversi = [Reversi::initial(), crate::inputs::position(1, 1, 20)];
        assert_eq!(scalar_pass(&reversi, 64), lane_pass(&reversi, 64));
        let hex = [Hex11::initial()];
        assert_eq!(scalar_pass(&hex, 16), lane_pass(&hex, 16));
    }

    #[test]
    fn small_replay_is_consistent() {
        let device = Device::new_with_pool(DeviceSpec::tesla_c2050(), Arc::new(WorkerPool::new(1)));
        let mut tracer = Tracer::new(true);
        let r = replay(
            &[Reversi::initial()],
            &device,
            LaunchConfig::new(2, 32),
            200,
            64,
            200,
            &mut tracer,
        );
        assert!(r.consistent);
        assert!(r.plies_per_playout > 50.0);
        assert_eq!(r.launch_lanes, 64);
        assert!(r.select_ns > 0.0 && r.backprop_ns > 0.0);
        assert_eq!(tracer.spans()[0].name, "replay");
    }
}
