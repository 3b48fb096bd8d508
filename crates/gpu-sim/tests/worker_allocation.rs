//! Regression test: a kernel launch allocates nothing on worker threads.
//!
//! `execute_kernel` allocates every block's slot (outputs and warp
//! scratch) on the calling thread, and the pool's workers fill the slots
//! in place. Per-block buffers allocated on workers and freed on the
//! caller made glibc's per-thread arenas creep over long runs. A counting
//! global allocator counts the allocations made on any thread but the
//! launching one; this file is its own test target, so no other test
//! shares the process.

use pmcts_gpu_sim::executor::execute_kernel;
use pmcts_gpu_sim::{DeviceSpec, Kernel, LaunchConfig, ThreadId, WorkerPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

struct CountingAlloc;

/// Whether allocations are being counted.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Allocations counted on threads other than the launching one.
static OFF_CALLER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread that launches.
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
}

impl CountingAlloc {
    fn note(&self) {
        if COUNTING.load(Ordering::SeqCst) && !IS_CALLER.try_with(Cell::get).unwrap_or(false) {
            OFF_CALLER.fetch_add(1, Ordering::SeqCst);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires; `note`
// touches only atomics and a destructor-free thread-local, and allocates
// nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: forwarded from the caller (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: forwarded from the caller (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: forwarded from the caller (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Lanes that `init` on a thread other than the launching one.
static LANES_OFF_CALLER: AtomicU64 = AtomicU64::new(0);

/// Lane `global` runs `global % 1000 + 500` steps and outputs its step
/// count: enough work per block that the workers take blocks too.
struct Countdown;

impl Kernel for Countdown {
    type ThreadState = (u32, u32);
    type Output = u32;

    fn init(&self, tid: ThreadId) -> (u32, u32) {
        if !IS_CALLER.with(Cell::get) {
            LANES_OFF_CALLER.fetch_add(1, Ordering::SeqCst);
        }
        (tid.global % 1000 + 500, 0)
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

#[test]
fn launches_allocate_nothing_on_worker_threads() {
    IS_CALLER.with(|c| c.set(true));
    let spec = DeviceSpec::tesla_c2050();
    // 28 blocks of two and a half warps: the partial warp is covered too.
    let config = LaunchConfig::new(28, 80);
    for workers in [2usize, 3] {
        let pool = WorkerPool::new(workers);
        // Hold every worker in one job at once, so each thread has started
        // (thread start-up allocates) before anything is counted.
        let all_in = Barrier::new(workers + 1);
        pool.run_scoped(workers + 1, |_| {
            all_in.wait();
        });
        let warm = execute_kernel(&Countdown, &config, &spec, &pool);
        // Launch until the workers have simulated blocks of a counted
        // launch, so the check cannot pass with the caller doing it all.
        LANES_OFF_CALLER.store(0, Ordering::SeqCst);
        for _ in 0..50 {
            COUNTING.store(true, Ordering::SeqCst);
            let launch = execute_kernel(&Countdown, &config, &spec, &pool);
            COUNTING.store(false, Ordering::SeqCst);
            assert_eq!(launch.outputs, warm.outputs);
            assert_eq!(launch.stats, warm.stats);
            assert_eq!(
                OFF_CALLER.swap(0, Ordering::SeqCst),
                0,
                "a launch on a {workers}-worker pool allocated on worker threads"
            );
            if LANES_OFF_CALLER.load(Ordering::SeqCst) > 0 {
                break;
            }
        }
        assert!(
            LANES_OFF_CALLER.load(Ordering::SeqCst) > 0,
            "no worker of the {workers}-worker pool simulated a block"
        );
    }
}
