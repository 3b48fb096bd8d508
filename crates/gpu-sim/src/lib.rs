//! A SIMT GPU simulator.
//!
//! The paper (Rocki & Suda, IPDPS 2011) runs Monte Carlo playout kernels on
//! NVIDIA Tesla C2050 GPUs. Rust-on-CUDA tooling is immature and this
//! reproduction must run anywhere, so the GPU is replaced by a behavioural
//! simulator that preserves exactly the architectural properties the paper's
//! argument rests on (see `DESIGN.md` §1):
//!
//! 1. **Warp lockstep** ([`executor`]): threads are grouped into warps of
//!    [`DeviceSpec::warp_size`]; a warp is charged one step at a time and is
//!    finished only when its *slowest* lane is — lanes that finish their
//!    playout early sit masked-out and idle. This is the SIMD divergence that
//!    makes one-whole-search-per-thread (root parallelism per thread)
//!    infeasible on GPUs. (Lanes are independent, so the engine *executes*
//!    each lane to completion and derives the lockstep accounting
//!    analytically; the per-step interpreter survives as
//!    [`executor::execute_kernel_lockstep`], the test oracle.)
//! 2. **Block/SM scheduling** ([`executor`]): blocks are distributed
//!    round-robin over [`DeviceSpec::sm_count`] multiprocessors and an SM's
//!    time is the sum of its resident warps' work; the device is done when
//!    the slowest SM is. Throughput therefore saturates once the grid covers
//!    the device — the plateau of the paper's Fig. 5.
//! 3. **Launch + transfer overhead** ([`device`]): every kernel pays a fixed
//!    launch latency and an explicit host↔device transfer cost, so schemes
//!    that launch often (many small iterations) pay for it, as on real
//!    hardware.
//! 4. **Asynchronous launches**: the paper's hybrid CPU/GPU scheme (its
//!    Fig. 4) keeps the CPU busy while a kernel flies. That overlap is
//!    billed in virtual time by the hybrid searcher; launches here run to
//!    completion.
//!
//! All real execution runs on a persistent per-device
//! [`pool::WorkerPool`]; no OS thread is created per launch.
//!
//! Time is *virtual* ([`pmcts_util::SimTime`]), computed from a deterministic
//! cycle-accounting model, while the kernels' actual work (random Reversi
//! playouts) really executes on host threads. Experiments are therefore
//! reproducible bit-for-bit from a seed, and a simulated GPU player and a
//! simulated CPU player can be given identical virtual time budgets.

pub mod batch;
pub mod device;
pub mod device_tree;
pub mod executor;
pub mod kernel;
pub mod launch;
pub mod pool;
pub mod stats;

pub use batch::{BatchSegment, BatchedResult};
pub use device::{Device, DeviceSpec};
pub use device_tree::{DeviceAllocator, DeviceTreeSpec, TreeLaunchTrace};
pub use kernel::{Kernel, LaunchConfig, ThreadId};
pub use launch::LaunchResult;
pub use pool::WorkerPool;
pub use stats::KernelStats;
// Fault type shared with the plan layer in `pmcts-util`.
pub use pmcts_util::GpuFault;
