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

/// One block's slot in a launch: its lanes' `(output, steps)` in thread
/// order, one warp's thread ids of scratch, and the block's totals.
///
/// The launching thread allocates every slot at full capacity before the
/// fan-out, and the thread that simulates the block fills it, so no worker
/// thread allocates during a launch (memory allocated on one thread and
/// freed on another made glibc's per-thread arenas creep).
struct BlockSlot<O> {
    lanes: Vec<(O, u64)>,
    tids: Vec<ThreadId>,
    totals: BlockTotals,
}

/// A block's cycles and warp, lane and idle-lane step counts.
#[derive(Clone, Copy, Default)]
struct BlockTotals {
    cycles: u64,
    warp_steps: u64,
    lane_steps: u64,
    idle_lane_steps: u64,
}

impl BlockTotals {
    /// Accounts one warp whose lanes took `max_steps` lockstep steps, the
    /// slowest, and `sum_steps` in total: every step a finished lane sits
    /// through is idle.
    fn add_warp(&mut self, lanes: u32, max_steps: u64, sum_steps: u64, spec: &DeviceSpec) {
        self.cycles += max_steps * spec.cycles_per_warp_step;
        self.warp_steps += max_steps;
        self.lane_steps += sum_steps;
        self.idle_lane_steps += max_steps * u64::from(lanes) - sum_steps;
    }
}

impl<O> BlockSlot<O> {
    fn new(config: &LaunchConfig, spec: &DeviceSpec) -> Self {
        BlockSlot {
            lanes: Vec::with_capacity(config.threads_per_block as usize),
            tids: Vec::with_capacity(spec.warp_size.min(config.threads_per_block) as usize),
            totals: BlockTotals::default(),
        }
    }

    /// Simulates block `block` into this slot with `warp(tids, lanes,
    /// totals)` per warp. The vectors move to the stack for the block and
    /// back once at its end: neighbouring slots share cache lines, and the
    /// threads filling them would otherwise contend on every push.
    fn fill(
        &mut self,
        block: u32,
        config: &LaunchConfig,
        spec: &DeviceSpec,
        mut warp: impl FnMut(&[ThreadId], &mut Vec<(O, u64)>, &mut BlockTotals),
    ) {
        let tpb = config.threads_per_block;
        let mut lanes = std::mem::take(&mut self.lanes);
        let mut tids = std::mem::take(&mut self.tids);
        let mut totals = BlockTotals::default();
        let mut warp_start = 0u32;
        while warp_start < tpb {
            let count = spec.warp_size.min(tpb - warp_start);
            tids.clear();
            tids.extend((warp_start..warp_start + count).map(|thread| ThreadId {
                block,
                thread,
                global: block * tpb + thread,
            }));
            warp(&tids, &mut lanes, &mut totals);
            warp_start += count;
        }
        *self = BlockSlot {
            lanes,
            tids,
            totals,
        };
    }
}

/// Simulates one block into `slot` by running every lane to completion and
/// accounting warp divergence analytically.
fn simulate_block<K: Kernel>(
    kernel: &K,
    block: u32,
    config: &LaunchConfig,
    spec: &DeviceSpec,
    slot: &mut BlockSlot<K::Output>,
) {
    slot.fill(block, config, spec, |tids, lanes, totals| {
        let first = lanes.len();
        // One warp at a time through the kernel's batch entry point: lane
        // batches (e.g. bit-parallel multi-lane playouts) run here, with
        // outputs and step counts contractually identical to per-lane
        // `run_lane` calls.
        kernel.run_lanes(tids, lanes);
        assert_eq!(
            lanes.len() - first,
            tids.len(),
            "run_lanes must produce one (output, steps) per lane"
        );
        let steps = lanes[first..].iter().map(|&(_, steps)| steps);
        let (max_steps, sum_steps) = steps.fold((0, 0), |(max, sum), s| (max.max(s), sum + s));
        // The warp runs until its slowest lane finishes, exactly what the
        // masked lockstep interpreter counts step by step.
        totals.add_warp(tids.len() as u32, max_steps, sum_steps, spec);
    });
}

/// Simulates one block into `slot` with the per-step masked lockstep
/// interpreter — the original engine, kept as the oracle.
fn simulate_block_lockstep<K: Kernel>(
    kernel: &K,
    block: u32,
    config: &LaunchConfig,
    spec: &DeviceSpec,
    slot: &mut BlockSlot<K::Output>,
) {
    let warp = spec.warp_size as usize;
    let mut states: Vec<Option<K::ThreadState>> = Vec::with_capacity(warp);
    let mut lane_steps: Vec<u64> = Vec::with_capacity(warp);
    slot.fill(block, config, spec, |lane_ids, out, totals| {
        let lanes = lane_ids.len();
        states.clear();
        lane_steps.clear();
        for &tid in lane_ids {
            states.push(Some(kernel.init(tid)));
            lane_steps.push(0);
        }

        // Lockstep: one pass over live lanes per step; a lane that returns
        // `true` is masked out (its Option stays Some until finish()).
        let mut live = lanes;
        let mut done = vec![false; lanes];
        let mut steps_this_warp = 0u64;
        while live > 0 {
            steps_this_warp += 1;
            for lane in 0..lanes {
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

        let useful: u64 = lane_steps.iter().sum();
        for lane in 0..lanes {
            let state = states[lane].take().expect("state present at finish");
            out.push((kernel.finish(state, lane_ids[lane]), lane_steps[lane]));
        }
        totals.add_warp(lanes as u32, steps_this_warp, useful, spec);
    });
}

/// Folds the block slots, in block order, into the launch result:
/// round-robin block→SM assignment, device time = busiest SM.
fn fold_slots<K: Kernel>(
    kernel: &K,
    config: &LaunchConfig,
    spec: &DeviceSpec,
    slots: Vec<BlockSlot<K::Output>>,
) -> LaunchResult<K::Output> {
    let mut per_sm_cycles = vec![0u64; spec.sm_count as usize];
    let mut warp_steps = 0u64;
    let mut lane_steps = 0u64;
    let mut idle_lane_steps = 0u64;
    let mut outputs = Vec::with_capacity(config.total_threads() as usize);
    for (block, slot) in slots.into_iter().enumerate() {
        let totals = slot.totals;
        per_sm_cycles[block % spec.sm_count as usize] += totals.cycles;
        warp_steps += totals.warp_steps;
        lane_steps += totals.lane_steps;
        idle_lane_steps += totals.idle_lane_steps;
        outputs.extend(slot.lanes.into_iter().map(|(output, _)| output));
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

/// One slot per block, allocated on the calling thread.
fn block_slots<O>(config: &LaunchConfig, spec: &DeviceSpec) -> Vec<BlockSlot<O>> {
    (0..config.blocks)
        .map(|_| BlockSlot::new(config, spec))
        .collect()
}

/// Executes `kernel` over `config` on the simulated device described by
/// `spec`, fanning blocks out over `pool`'s workers with
/// [`WorkerPool::map_indexed`] (the calling thread participates, so a
/// 1-worker pool degenerates to an inline loop). Each block fills its own
/// caller-allocated slot, so no worker thread allocates.
///
/// Outputs are returned in global-thread order (`block * tpb + thread`),
/// matching the layout of the result array a CUDA kernel would write.
pub fn execute_kernel<K: Kernel>(
    kernel: &K,
    config: &LaunchConfig,
    spec: &DeviceSpec,
    pool: &WorkerPool,
) -> LaunchResult<K::Output> {
    let mut slots = block_slots(config, spec);
    pool.map_indexed(&mut slots, |b, slot| {
        simulate_block(kernel, b as u32, config, spec, slot)
    });
    fold_slots(kernel, config, spec, slots)
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
    let mut slots = block_slots(config, spec);
    for (b, slot) in slots.iter_mut().enumerate() {
        simulate_block_lockstep(kernel, b as u32, config, spec, slot);
    }
    fold_slots(kernel, config, spec, slots)
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
