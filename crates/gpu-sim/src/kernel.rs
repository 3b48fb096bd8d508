//! The kernel abstraction and launch geometry.
//!
//! A [`Kernel`] is the simulator's analogue of a `__global__` CUDA function,
//! written as a per-thread *state machine*: the executor calls
//! [`Kernel::step`] on every live lane of a warp, once per lockstep step,
//! until all lanes report completion. Expressing the playout as steps (one
//! game ply per step) is what lets the simulator charge warp time by the
//! slowest lane — the divergence behaviour of real SIMD hardware.

use crate::device::DeviceSpec;

/// Identity of a simulated GPU thread within a launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ThreadId {
    /// Block index within the grid.
    pub block: u32,
    /// Thread index within the block.
    pub thread: u32,
    /// Flat global index: `block * threads_per_block + thread`.
    pub global: u32,
}

/// Launch geometry: grid and block dimensions (1-D, as in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub blocks: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

impl LaunchConfig {
    /// Creates a launch configuration.
    pub fn new(blocks: u32, threads_per_block: u32) -> Self {
        LaunchConfig {
            blocks,
            threads_per_block,
        }
    }

    /// Total threads in the grid.
    #[inline]
    pub fn total_threads(&self) -> u32 {
        self.blocks * self.threads_per_block
    }

    /// Number of warps in each block on `device` (rounded up: a partial
    /// warp occupies a full warp slot, exactly as on hardware).
    #[inline]
    pub fn warps_per_block(&self, device: &DeviceSpec) -> u32 {
        self.threads_per_block.div_ceil(device.warp_size)
    }

    /// Panics if the geometry is invalid for `device`.
    pub fn validate(&self, device: &DeviceSpec) {
        assert!(self.blocks > 0, "launch must have at least one block");
        assert!(
            self.threads_per_block > 0,
            "launch must have at least one thread per block"
        );
        assert!(
            self.threads_per_block <= device.max_threads_per_block,
            "{} threads per block exceeds the device limit of {}",
            self.threads_per_block,
            device.max_threads_per_block
        );
    }
}

/// A per-thread program executed in warp lockstep.
///
/// Implementations are shared (`&self`) across all simulated threads; all
/// per-thread mutable data lives in `ThreadState`. A playout kernel's state
/// is the current game position plus a per-lane RNG; its `step` plays one
/// ply.
pub trait Kernel: Sync {
    /// Mutable per-thread state.
    type ThreadState: Send;
    /// Per-thread result extracted after the lane finishes.
    type Output: Send;

    /// Builds the initial state for thread `tid` (the CUDA "prologue":
    /// reading launch parameters, seeding the per-lane RNG).
    fn init(&self, tid: ThreadId) -> Self::ThreadState;

    /// Advances the thread by one lockstep step. Returns `true` when the
    /// lane has finished; the executor then masks it out while the rest of
    /// the warp keeps stepping.
    fn step(&self, state: &mut Self::ThreadState, tid: ThreadId) -> bool;

    /// Consumes the final state into the lane's output (the CUDA "write to
    /// global memory" epilogue).
    fn finish(&self, state: Self::ThreadState, tid: ThreadId) -> Self::Output;

    /// Size in bytes of one lane's output in device memory; used by callers
    /// to charge the device→host readback transfer. Defaults to 4 bytes
    /// (one `u32` result per simulation, as in the paper's result array).
    fn output_bytes(&self) -> u64 {
        4
    }

    /// Runs one lane start-to-finish and returns its output together with
    /// the number of lockstep steps it took (always ≥ 1).
    ///
    /// Lanes are independent (`step` takes `&self`), so the run-to-completion
    /// engine executes each lane in one tight pass and reconstructs warp
    /// timing analytically from the returned step counts. The default drives
    /// `init`/`step`/`finish`; kernels that know their step count without a
    /// per-step state machine (e.g. a playout kernel: one ply per step) may
    /// override this with a fused loop, but the override **must** return the
    /// exact `(output, steps)` the default would — the lockstep oracle in
    /// [`crate::executor::execute_kernel_lockstep`] checks this.
    fn run_lane(&self, tid: ThreadId) -> (Self::Output, u64) {
        let mut state = self.init(tid);
        let mut steps = 0u64;
        loop {
            steps += 1;
            if self.step(&mut state, tid) {
                return (self.finish(state, tid), steps);
            }
        }
    }

    /// Runs a contiguous group of lanes (the executor passes one warp at a
    /// time) and pushes each lane's `(output, steps)` onto `out`, in `tids`
    /// order. `out` already holds the block's earlier warps and has
    /// capacity for the whole block: append only, so nothing reallocates
    /// on the worker thread.
    ///
    /// The default is a scalar loop over [`run_lane`](Self::run_lane).
    /// Kernels whose lanes batch profitably (e.g. bit-parallel multi-lane
    /// playouts) override this, but the override **must** push exactly the
    /// outputs and step counts the default would, in the same order — lane
    /// batching is a wall-clock optimisation that the simulated timing
    /// model never observes.
    fn run_lanes(&self, tids: &[ThreadId], out: &mut Vec<(Self::Output, u64)>) {
        for &tid in tids {
            out.push(self.run_lane(tid));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_warp_counts() {
        let dev = DeviceSpec::tesla_c2050();
        let cfg = LaunchConfig::new(4, 96);
        assert_eq!(cfg.total_threads(), 384);
        assert_eq!(cfg.warps_per_block(&dev), 3);
        // Partial warps round up.
        let cfg = LaunchConfig::new(4, 33);
        assert_eq!(cfg.warps_per_block(&dev), 2);
        let cfg = LaunchConfig::new(4, 1);
        assert_eq!(cfg.warps_per_block(&dev), 1);
    }

    #[test]
    fn validate_accepts_reasonable_configs() {
        let dev = DeviceSpec::tesla_c2050();
        LaunchConfig::new(112, 64).validate(&dev);
        LaunchConfig::new(1, 1024).validate(&dev);
    }

    #[test]
    #[should_panic(expected = "exceeds the device limit")]
    fn validate_rejects_oversized_blocks() {
        LaunchConfig::new(1, 2048).validate(&DeviceSpec::tesla_c2050());
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn validate_rejects_empty_grid() {
        LaunchConfig::new(0, 32).validate(&DeviceSpec::tesla_c2050());
    }
}
