//! Regression test: the host heap footprint of device-resident trees.
//!
//! Trees list a node's moves on its first expansion, so the many leaves a
//! search never expands hold no move list and no slab range, and each
//! persistent launch reserves the node columns it plans to fill. A
//! counting global allocator tracks live and peak heap bytes while one
//! seeded `DeviceTreeSearcher` search runs on a one-worker pool, whose
//! fan-outs run inline on the calling thread, so the count is exact. This
//! file is its own test target, so no other test shares the process.

use pmcts_core::prelude::*;
use pmcts_gpu_sim::WorkerPool;
use pmcts_util::Xoshiro256pp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct CountingAlloc;

/// Heap bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` seen since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl CountingAlloc {
    fn grew(&self, bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
        PEAK.fetch_max(live, Ordering::SeqCst);
    }

    fn shrank(&self, bytes: usize) {
        LIVE.fetch_sub(bytes, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires; the
// counters are atomics, and counting allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from the caller (see the impl).
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from the caller (see the impl).
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded from the caller (see the impl).
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            self.grew(new_size);
            self.shrank(layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller (see the impl).
        unsafe { System.dealloc(ptr, layout) };
        self.shrank(layout.size());
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A position 24 random plies into a game, as in a mid-game move.
fn mid_game() -> Reversi {
    let mut state = Reversi::initial();
    let mut rng = Xoshiro256pp::new(27);
    for _ in 0..24 {
        let mv = state
            .random_move(&mut rng)
            .expect("no game ends in 24 plies");
        state.apply(mv);
    }
    state
}

/// Peak live heap bytes of one seeded device-resident search, per node
/// of the trees it leaves resident.
fn peak_bytes_per_node() -> f64 {
    let device = Device::new_with_pool(DeviceSpec::tesla_c2050(), Arc::new(WorkerPool::new(1)));
    let config = MctsConfig::default().with_seed(27);
    let mut searcher =
        DeviceTreeSearcher::<Reversi>::new(config, device, LaunchConfig::new(8, 128));
    let root = mid_game();
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let report = searcher.search(root, SearchBudget::VirtualTime(SimTime::from_millis(40)));
    let peak = PEAK.load(Ordering::SeqCst) - base;
    let trees = searcher.resident_trees().expect("trees stay resident");
    let nodes: usize = trees.iter().map(|t| t.len()).sum();
    assert_eq!(nodes as u64, report.tree_nodes);
    assert!(report.phases.kernel_launches > 2, "a top-up launch ran");
    peak as f64 / nodes as f64
}

#[test]
fn resident_trees_stay_under_their_heap_bound_per_node() {
    // Measured on this search: 257.2 B per node with every node listed at
    // creation and columns grown by doubling, 198.4 B with the per-launch
    // reservation but every node listed at creation, and 107.5 B with lazy
    // listing and the reservation. The bound sits between them.
    let per_node = peak_bytes_per_node();
    assert!(
        per_node < 150.0,
        "peak heap {per_node:.1} B per node: are leaves listed eagerly again?"
    );
}
