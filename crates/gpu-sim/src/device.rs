//! Device specifications and the `Device` front-end.
//!
//! A [`DeviceSpec`] is plain data describing the simulated hardware and the
//! cost-model constants; a [`Device`] wraps a spec and exposes kernel
//! launches, each run to completion. The calibration of the default spec is
//! discussed in `DESIGN.md` §6: constants are chosen so the full Fig. 5
//! sweep lands near the paper's absolute simulations/second on a Tesla
//! C2050, but every experiment re-derives its conclusions from the model, so
//! the *shapes* are robust to recalibration.

use crate::executor::execute_kernel;
use crate::kernel::{Kernel, LaunchConfig};
use crate::launch::LaunchResult;
use crate::pool::WorkerPool;
use pmcts_util::SimTime;
use std::sync::Arc;

/// Description of a simulated GPU and its cost model.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, for logs and bench output.
    pub name: &'static str,
    /// Number of streaming multiprocessors (14 on Tesla C2050).
    pub sm_count: u32,
    /// SIMD width of a warp (32 on all CUDA hardware of the era).
    pub warp_size: u32,
    /// Upper limit on threads per block (1024 on Fermi).
    pub max_threads_per_block: u32,
    /// Maximum warps resident per SM (48 on Fermi) — used for occupancy.
    pub max_warps_per_sm: u32,
    /// SM clock in Hz (1.15 GHz on C2050).
    pub clock_hz: u64,
    /// Cycles charged per warp per lockstep step (covers move generation,
    /// flip computation and RNG of one playout ply across the warp).
    pub cycles_per_warp_step: u64,
    /// Fixed virtual cost of launching a kernel (driver + dispatch).
    pub launch_overhead: SimTime,
    /// Fixed latency of a host↔device transfer.
    pub transfer_latency: SimTime,
    /// Transfer bandwidth in bytes per nanosecond (≈ GB/s).
    pub transfer_bytes_per_ns: u64,
}

impl DeviceSpec {
    /// The Tesla C2050 installed in TSUBAME 2.0, the paper's test platform.
    ///
    /// Calibration (DESIGN.md §6): 14 SMs at 1.15 GHz. One warp-step (one
    /// playout ply across 32 lanes: move generation, flips, RNG) is charged
    /// 13 500 cycles ≈ 420 cycles per lane, which puts a saturated
    /// full-device leaf launch on mid-game Reversi positions at the paper's
    /// ≈9×10⁵ simulations/second peak (Fig. 5). 15 µs launch overhead
    /// matches Fermi-era driver latency.
    pub fn tesla_c2050() -> Self {
        DeviceSpec {
            name: "Tesla C2050 (simulated)",
            sm_count: 14,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_warps_per_sm: 48,
            clock_hz: 1_150_000_000,
            cycles_per_warp_step: 13_500,
            launch_overhead: SimTime::from_micros(15),
            transfer_latency: SimTime::from_micros(8),
            transfer_bytes_per_ns: 6, // ≈ 6 GB/s effective PCIe 2.0
        }
    }

    /// A degenerate single-lane device: warp size 1, one SM, no overheads.
    ///
    /// With no lockstep and no launch cost, executing a kernel on this spec
    /// is equivalent to running the per-thread programs sequentially — the
    /// test suite uses it to isolate cost-model effects.
    pub fn scalar() -> Self {
        DeviceSpec {
            name: "scalar reference device",
            sm_count: 1,
            warp_size: 1,
            max_threads_per_block: 1 << 20,
            max_warps_per_sm: 1 << 20,
            clock_hz: 1_000_000_000,
            cycles_per_warp_step: 1,
            launch_overhead: SimTime::ZERO,
            transfer_latency: SimTime::ZERO,
            transfer_bytes_per_ns: u64::MAX,
        }
    }

    /// Duration of `cycles` SM cycles on this device.
    #[inline]
    pub fn cycles_to_time(&self, cycles: u64) -> SimTime {
        // ns = cycles / (cycles per ns); computed in f64 to avoid overflow
        // for long kernels, then rounded to the nearest ns.
        let ns = cycles as f64 * 1e9 / self.clock_hz as f64;
        SimTime::from_nanos(ns.round() as u64)
    }

    /// Virtual time to move `bytes` between host and device.
    #[inline]
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        if self.transfer_bytes_per_ns == u64::MAX {
            return SimTime::ZERO;
        }
        self.transfer_latency + SimTime::from_nanos(bytes / self.transfer_bytes_per_ns.max(1))
    }

    /// Fraction of the device's resident-warp capacity used by `config`
    /// (clamped to 1.0).
    pub fn occupancy(&self, config: &LaunchConfig) -> f64 {
        let warps = config.warps_per_block(self) as u64 * config.blocks as u64;
        let capacity = (self.sm_count * self.max_warps_per_sm) as u64;
        (warps as f64 / capacity as f64).min(1.0)
    }
}

/// A simulated GPU: a [`DeviceSpec`] plus launch entry points.
///
/// `Device` is cheap to clone (the spec and worker pool are shared) and is
/// `Send + Sync`; the multi-GPU experiments hand one clone to each MPI rank.
#[derive(Clone, Debug)]
pub struct Device {
    spec: Arc<DeviceSpec>,
    /// Persistent host workers that actually execute kernel lanes — created
    /// once per device (defaulting to available parallelism) and reused by
    /// every launch.
    pool: Arc<WorkerPool>,
}

impl Device {
    /// Creates a device from a spec, with a worker pool sized to the
    /// machine's available parallelism.
    pub fn new(spec: DeviceSpec) -> Self {
        Device {
            spec: Arc::new(spec),
            pool: Arc::new(WorkerPool::with_available_parallelism()),
        }
    }

    /// Creates a device that executes on an existing shared pool (no new
    /// threads are spawned).
    pub fn new_with_pool(spec: DeviceSpec, pool: Arc<WorkerPool>) -> Self {
        Device {
            spec: Arc::new(spec),
            pool,
        }
    }

    /// The default simulated device (Tesla C2050).
    pub fn c2050() -> Self {
        Self::new(DeviceSpec::tesla_c2050())
    }

    /// Creates `count` identical devices sharing **one** host worker pool
    /// of `host_threads` threads — the fleet-shard shape: each shard owns
    /// its own simulated device (independent virtual clock, launch
    /// overhead, transfer costs) while the real host threads that execute
    /// kernel lanes are a single bounded pool. Virtual results never
    /// depend on the pool size; it only bounds real-machine parallelism.
    pub fn fleet(spec: DeviceSpec, count: usize, host_threads: usize) -> Vec<Device> {
        assert!(count >= 1, "a fleet needs at least one device");
        let pool = Arc::new(WorkerPool::new(host_threads));
        (0..count)
            .map(|_| Device::new_with_pool(spec.clone(), Arc::clone(&pool)))
            .collect()
    }

    /// Replaces the worker pool with a fresh one of `n` threads.
    /// `0` is treated as 1. Virtual timing is unaffected.
    pub fn with_host_threads(mut self, n: usize) -> Self {
        self.pool = Arc::new(WorkerPool::new(n));
        self
    }

    /// Shares an existing worker pool (e.g. one pool across the devices of
    /// every simulated MPI rank, or with root parallelism). Virtual timing
    /// is unaffected.
    pub fn with_worker_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = pool;
        self
    }

    /// The device specification.
    #[inline]
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Number of host threads used for real execution.
    #[inline]
    pub fn host_threads(&self) -> usize {
        self.pool.size()
    }

    /// The device's worker pool.
    #[inline]
    pub fn worker_pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Launches a kernel synchronously and blocks until completion.
    ///
    /// # Panics
    /// Panics if `config` is invalid for this device (zero-sized grid or
    /// more threads per block than the hardware limit).
    pub fn launch<K: Kernel>(&self, kernel: &K, config: LaunchConfig) -> LaunchResult<K::Output> {
        config.validate(&self.spec);
        execute_kernel(kernel, &config, &self.spec, &self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c2050_spec_matches_hardware() {
        let s = DeviceSpec::tesla_c2050();
        assert_eq!(s.sm_count, 14);
        assert_eq!(s.warp_size, 32);
        assert_eq!(s.max_threads_per_block, 1024);
    }

    #[test]
    fn cycles_to_time_uses_clock() {
        let s = DeviceSpec::scalar(); // 1 GHz -> 1 cycle = 1 ns
        assert_eq!(s.cycles_to_time(1000), SimTime::from_micros(1));
        let c = DeviceSpec::tesla_c2050(); // 1.15 GHz
        let t = c.cycles_to_time(1_150_000_000);
        assert_eq!(t, SimTime::from_secs(1));
    }

    #[test]
    fn transfer_time_has_latency_floor() {
        let s = DeviceSpec::tesla_c2050();
        assert_eq!(s.transfer_time(0), s.transfer_latency);
        assert!(s.transfer_time(1 << 20) > s.transfer_latency);
        assert_eq!(DeviceSpec::scalar().transfer_time(1 << 20), SimTime::ZERO);
    }

    #[test]
    fn occupancy_saturates_at_one() {
        let s = DeviceSpec::tesla_c2050();
        let small = LaunchConfig::new(1, 32);
        let huge = LaunchConfig::new(1024, 1024);
        assert!(s.occupancy(&small) < 0.01);
        assert_eq!(s.occupancy(&huge), 1.0);
    }
}
