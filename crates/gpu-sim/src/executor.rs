//! The SIMT execution engine.
//!
//! Executes a [`Kernel`] over a [`LaunchConfig`] with warp-lockstep
//! *accounting* and produces both the per-thread outputs and a fully
//! accounted [`KernelStats`].
//!
//! **Virtual-time model.** Within a warp, every lockstep step costs
//! [`DeviceSpec::cycles_per_warp_step`] cycles and the warp runs until its
//! slowest lane finishes. A block costs the sum of its warps (one warp
//! issues at a time per SM — an intentional simplification of Fermi's dual
//! schedulers that preserves the *relative* cost of configurations). Blocks
//! are assigned to SMs round-robin, an SM's busy time is the sum of its
//! blocks, and the kernel's device time is the busiest SM — so a grid
//! smaller than the device finishes no faster by leaving SMs idle, and a
//! grid larger than the device queues, exactly the saturation behaviour of
//! the paper's Fig. 5.
//!
//! **Real execution.** Lane programs really run (they play full random
//! games), but *not* in interpreted lockstep: because lanes are independent
//! (`Kernel::step` takes `&self` and all mutable state is per-lane), each
//! lane runs start-to-finish in one tight pass and warp timing is
//! reconstructed analytically — `warp_steps = max(lane_steps)` and
//! `idle = warp_steps · lanes − Σ lane_steps` — which is exactly what the
//! per-step masked interpreter measured, at a fraction of the wall-clock
//! cost. The interpreter is retained as [`execute_kernel_lockstep`], the
//! oracle the equivalence test-suite checks the fast engine against.
//! Blocks are distributed over a persistent [`WorkerPool`] and folded in
//! block order, so results are bit-identical regardless of pool size.

use crate::device::DeviceSpec;
use crate::kernel::{Kernel, LaunchConfig, ThreadId};
use crate::launch::LaunchResult;
use crate::pool::WorkerPool;
use crate::stats::KernelStats;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Per-block simulation result, later folded into the launch result.
struct BlockOutcome<O> {
    block: u32,
    outputs: Vec<O>,
    cycles: u64,
    warp_steps: u64,
    lane_steps: u64,
    idle_lane_steps: u64,
}

/// Simulates one block by running every lane to completion and accounting
/// warp divergence analytically.
fn simulate_block<K: Kernel>(
    kernel: &K,
    block: u32,
    config: &LaunchConfig,
    spec: &DeviceSpec,
) -> BlockOutcome<K::Output> {
    let tpb = config.threads_per_block;
    let warp = spec.warp_size;
    let mut outputs = Vec::with_capacity(tpb as usize);
    let mut cycles = 0u64;
    let mut warp_steps_total = 0u64;
    let mut lane_steps_total = 0u64;
    let mut idle_total = 0u64;

    let mut tids: Vec<ThreadId> = Vec::with_capacity(warp as usize);
    let mut lane_results: Vec<(K::Output, u64)> = Vec::with_capacity(warp as usize);
    let mut warp_start = 0u32;
    while warp_start < tpb {
        let lanes = warp.min(tpb - warp_start);
        tids.clear();
        for lane in 0..lanes {
            let thread = warp_start + lane;
            tids.push(ThreadId {
                block,
                thread,
                global: block * tpb + thread,
            });
        }
        // One warp at a time through the kernel's batch entry point: lane
        // batches (e.g. bit-parallel multi-lane playouts) run here, with
        // outputs and step counts contractually identical to per-lane
        // `run_lane` calls.
        lane_results.clear();
        kernel.run_lanes(&tids, &mut lane_results);
        assert_eq!(
            lane_results.len(),
            lanes as usize,
            "run_lanes must produce one (output, steps) per lane"
        );
        let mut max_steps = 0u64;
        let mut sum_steps = 0u64;
        for (output, steps) in lane_results.drain(..) {
            outputs.push(output);
            max_steps = max_steps.max(steps);
            sum_steps += steps;
        }
        // The warp runs until its slowest lane finishes; every step a
        // finished lane sits through is idle — identical to what the masked
        // lockstep interpreter counts step by step.
        cycles += max_steps * spec.cycles_per_warp_step;
        warp_steps_total += max_steps;
        lane_steps_total += sum_steps;
        idle_total += max_steps * lanes as u64 - sum_steps;
        warp_start += lanes;
    }

    BlockOutcome {
        block,
        outputs,
        cycles,
        warp_steps: warp_steps_total,
        lane_steps: lane_steps_total,
        idle_lane_steps: idle_total,
    }
}

/// Simulates one block with the per-step masked lockstep interpreter — the
/// original engine, kept verbatim as the oracle.
fn simulate_block_lockstep<K: Kernel>(
    kernel: &K,
    block: u32,
    config: &LaunchConfig,
    spec: &DeviceSpec,
) -> BlockOutcome<K::Output> {
    let tpb = config.threads_per_block;
    let warp = spec.warp_size;
    let mut outputs = Vec::with_capacity(tpb as usize);
    let mut cycles = 0u64;
    let mut warp_steps_total = 0u64;
    let mut lane_steps_total = 0u64;
    let mut idle_total = 0u64;

    let mut lane_ids: Vec<ThreadId> = Vec::with_capacity(warp as usize);
    let mut states: Vec<Option<K::ThreadState>> = Vec::with_capacity(warp as usize);
    let mut lane_steps: Vec<u64> = Vec::with_capacity(warp as usize);

    let mut warp_start = 0u32;
    while warp_start < tpb {
        let lanes = warp.min(tpb - warp_start);
        lane_ids.clear();
        states.clear();
        lane_steps.clear();
        for lane in 0..lanes {
            let thread = warp_start + lane;
            let tid = ThreadId {
                block,
                thread,
                global: block * tpb + thread,
            };
            lane_ids.push(tid);
            states.push(Some(kernel.init(tid)));
            lane_steps.push(0);
        }

        // Lockstep: one pass over live lanes per step; a lane that returns
        // `true` is masked out (its Option stays Some until finish()).
        let mut live = lanes as usize;
        let mut done = vec![false; lanes as usize];
        let mut steps_this_warp = 0u64;
        while live > 0 {
            steps_this_warp += 1;
            for lane in 0..lanes as usize {
                if done[lane] {
                    continue;
                }
                let state = states[lane].as_mut().expect("live lane has state");
                lane_steps[lane] += 1;
                if kernel.step(state, lane_ids[lane]) {
                    done[lane] = true;
                    live -= 1;
                }
            }
        }

        cycles += steps_this_warp * spec.cycles_per_warp_step;
        warp_steps_total += steps_this_warp;
        let useful: u64 = lane_steps.iter().sum();
        lane_steps_total += useful;
        idle_total += steps_this_warp * lanes as u64 - useful;

        for lane in 0..lanes as usize {
            let state = states[lane].take().expect("state present at finish");
            outputs.push(kernel.finish(state, lane_ids[lane]));
        }
        warp_start += lanes;
    }

    BlockOutcome {
        block,
        outputs,
        cycles,
        warp_steps: warp_steps_total,
        lane_steps: lane_steps_total,
        idle_lane_steps: idle_total,
    }
}

/// Folds per-block outcomes (sorted by block id) into the launch result:
/// round-robin block→SM assignment, device time = busiest SM.
fn fold_outcomes<K: Kernel>(
    kernel: &K,
    config: &LaunchConfig,
    spec: &DeviceSpec,
    mut block_outcomes: Vec<BlockOutcome<K::Output>>,
) -> LaunchResult<K::Output> {
    block_outcomes.sort_by_key(|o| o.block);

    let mut per_sm_cycles = vec![0u64; spec.sm_count as usize];
    let mut warp_steps = 0u64;
    let mut lane_steps = 0u64;
    let mut idle_lane_steps = 0u64;
    let mut outputs = Vec::with_capacity(config.total_threads() as usize);
    for outcome in block_outcomes {
        per_sm_cycles[(outcome.block % spec.sm_count) as usize] += outcome.cycles;
        warp_steps += outcome.warp_steps;
        lane_steps += outcome.lane_steps;
        idle_lane_steps += outcome.idle_lane_steps;
        outputs.extend(outcome.outputs);
    }
    let max_sm_cycles = per_sm_cycles.iter().copied().max().unwrap_or(0);

    let stats = KernelStats {
        threads: config.total_threads(),
        warps: config.warps_per_block(spec) * config.blocks,
        launch_overhead: spec.launch_overhead,
        device_time: spec.cycles_to_time(max_sm_cycles),
        readback_time: spec.transfer_time(config.total_threads() as u64 * kernel.output_bytes()),
        warp_steps,
        lane_steps,
        idle_lane_steps,
        per_sm_cycles,
        occupancy: spec.occupancy(config),
    };

    LaunchResult { outputs, stats }
}

/// Executes `kernel` over `config` on the simulated device described by
/// `spec`, fanning blocks out over `pool`'s workers (the calling thread
/// participates, so a 1-worker pool degenerates to an inline loop).
///
/// Outputs are returned in global-thread order (`block * tpb + thread`),
/// matching the layout of the result array a CUDA kernel would write.
pub fn execute_kernel<K: Kernel>(
    kernel: &K,
    config: &LaunchConfig,
    spec: &DeviceSpec,
    pool: &WorkerPool,
) -> LaunchResult<K::Output> {
    let n_blocks = config.blocks;
    let participants = pool.size().min(n_blocks as usize);

    let block_outcomes: Vec<BlockOutcome<K::Output>> = if participants <= 1 {
        (0..n_blocks)
            .map(|b| simulate_block(kernel, b, config, spec))
            .collect()
    } else {
        let next = AtomicU32::new(0);
        let collected: Mutex<Vec<BlockOutcome<K::Output>>> =
            Mutex::new(Vec::with_capacity(n_blocks as usize));
        pool.run_scoped(participants, |_| {
            let mut mine = Vec::new();
            loop {
                let b = next.fetch_add(1, Ordering::Relaxed);
                if b >= n_blocks {
                    break;
                }
                mine.push(simulate_block(kernel, b, config, spec));
            }
            collected
                .lock()
                .expect("block collector poisoned")
                .extend(mine);
        });
        collected.into_inner().expect("block collector poisoned")
    };

    fold_outcomes(kernel, config, spec, block_outcomes)
}

/// Executes `kernel` with the original per-step masked lockstep interpreter,
/// single-threaded.
///
/// This is the *oracle*: slower than [`execute_kernel`] but trivially
/// faithful to the warp-lockstep semantics. The equivalence suite asserts
/// both engines return bit-identical outputs and [`KernelStats`]; the
/// `throughput` bench uses it as the wall-clock baseline. Not used on any
/// search path.
pub fn execute_kernel_lockstep<K: Kernel>(
    kernel: &K,
    config: &LaunchConfig,
    spec: &DeviceSpec,
) -> LaunchResult<K::Output> {
    let block_outcomes = (0..config.blocks)
        .map(|b| simulate_block_lockstep(kernel, b, config, spec))
        .collect();
    fold_outcomes(kernel, config, spec, block_outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcts_util::SimTime;

    /// Thread `global` runs for `global % modulus + 1` steps and outputs its
    /// step count — fully deterministic divergence for exact accounting
    /// checks.
    struct Countdown {
        modulus: u32,
    }

    impl Kernel for Countdown {
        type ThreadState = (u32, u32); // (remaining, taken)
        type Output = u32;

        fn init(&self, tid: ThreadId) -> (u32, u32) {
            (tid.global % self.modulus + 1, 0)
        }

        fn step(&self, state: &mut (u32, u32), _tid: ThreadId) -> bool {
            state.0 -= 1;
            state.1 += 1;
            state.0 == 0
        }

        fn finish(&self, state: (u32, u32), _tid: ThreadId) -> u32 {
            state.1
        }
    }

    fn scalar_spec() -> DeviceSpec {
        DeviceSpec::scalar()
    }

    fn pool(n: usize) -> WorkerPool {
        WorkerPool::new(n)
    }

    #[test]
    fn outputs_are_in_global_thread_order() {
        let k = Countdown { modulus: 5 };
        let cfg = LaunchConfig::new(3, 8);
        let r = execute_kernel(&k, &cfg, &scalar_spec(), &pool(4));
        assert_eq!(r.outputs.len(), 24);
        for (i, &steps) in r.outputs.iter().enumerate() {
            assert_eq!(steps, i as u32 % 5 + 1);
        }
    }

    #[test]
    fn warp_time_is_max_of_lanes() {
        // One warp of 4 lanes taking 1..=4 steps: warp_steps must be 4,
        // lane_steps 1+2+3+4=10, idle 4*4-10=6.
        let mut spec = scalar_spec();
        spec.warp_size = 4;
        let k = Countdown { modulus: 4 };
        let cfg = LaunchConfig::new(1, 4);
        let r = execute_kernel(&k, &cfg, &spec, &pool(1));
        assert_eq!(r.stats.warp_steps, 4);
        assert_eq!(r.stats.lane_steps, 10);
        assert_eq!(r.stats.idle_lane_steps, 6);
        assert!((r.stats.lane_efficiency() - 10.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_device_has_no_divergence_waste() {
        let k = Countdown { modulus: 7 };
        let cfg = LaunchConfig::new(2, 8);
        let r = execute_kernel(&k, &cfg, &scalar_spec(), &pool(1));
        assert_eq!(r.stats.idle_lane_steps, 0);
        assert_eq!(r.stats.lane_efficiency(), 1.0);
    }

    #[test]
    fn device_time_is_busiest_sm() {
        // 2 SMs, blocks round-robin. Block cycles: modulus=1 => every lane
        // takes 1 step, warp=1 lane, tpb=1 => each block = 1 warp step =
        // 1 cycle. 3 blocks on 2 SMs -> SM0 gets blocks 0,2 (2 cycles),
        // SM1 gets block 1 (1 cycle); device time = 2 cycles = 2ns at 1GHz.
        let mut spec = scalar_spec();
        spec.sm_count = 2;
        let k = Countdown { modulus: 1 };
        let cfg = LaunchConfig::new(3, 1);
        let r = execute_kernel(&k, &cfg, &spec, &pool(2));
        assert_eq!(r.stats.per_sm_cycles, vec![2, 1]);
        assert_eq!(r.stats.device_time, SimTime::from_nanos(2));
    }

    #[test]
    fn results_identical_across_pool_sizes() {
        let k = Countdown { modulus: 9 };
        let cfg = LaunchConfig::new(16, 32);
        let spec = DeviceSpec::tesla_c2050();
        let a = execute_kernel(&k, &cfg, &spec, &pool(1));
        let b = execute_kernel(&k, &cfg, &spec, &pool(8));
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn fast_engine_matches_lockstep_oracle() {
        let k = Countdown { modulus: 9 };
        let cfg = LaunchConfig::new(16, 48);
        let spec = DeviceSpec::tesla_c2050();
        let fast = execute_kernel(&k, &cfg, &spec, &pool(4));
        let oracle = execute_kernel_lockstep(&k, &cfg, &spec);
        assert_eq!(fast.outputs, oracle.outputs);
        assert_eq!(fast.stats, oracle.stats);
    }

    #[test]
    fn launch_overhead_charged_once() {
        let spec = DeviceSpec::tesla_c2050();
        let k = Countdown { modulus: 1 };
        let r = execute_kernel(&k, &LaunchConfig::new(1, 1), &spec, &pool(1));
        assert_eq!(r.stats.launch_overhead, spec.launch_overhead);
        assert!(r.stats.elapsed() >= spec.launch_overhead);
    }

    #[test]
    fn partial_warps_round_up_but_execute_correctly() {
        let mut spec = scalar_spec();
        spec.warp_size = 32;
        let k = Countdown { modulus: 3 };
        let cfg = LaunchConfig::new(1, 40); // 1 full warp + 8-lane partial
        let r = execute_kernel(&k, &cfg, &spec, &pool(1));
        assert_eq!(r.outputs.len(), 40);
        assert_eq!(r.stats.warps, 2);
    }

    #[test]
    fn bigger_grids_take_longer_on_same_device() {
        let spec = DeviceSpec::tesla_c2050();
        let k = Countdown { modulus: 60 };
        let p = pool(4);
        let small = execute_kernel(&k, &LaunchConfig::new(14, 32), &spec, &p);
        let big = execute_kernel(&k, &LaunchConfig::new(140, 32), &spec, &p);
        assert!(big.stats.device_time > small.stats.device_time);
        // 10x blocks on a 14-SM device should be ~10x device time.
        let ratio =
            big.stats.device_time.as_nanos() as f64 / small.stats.device_time.as_nanos() as f64;
        assert!((9.0..11.0).contains(&ratio), "ratio {ratio}");
    }
}
