//! Deterministic phase-level search telemetry.
//!
//! The paper's central speed analysis (Fig. 5, §III.6) decomposes each
//! block-parallel iteration into a *host-sequential* part (selection and
//! expansion over every tree, growing with the tree count) and a *kernel*
//! part (all playouts at once). [`PhaseBreakdown`] carries that
//! decomposition — generalised to every scheme in the taxonomy — on each
//! [`SearchReport`](crate::searcher::SearchReport).
//!
//! Because all experiment timing is virtual (`SimTime` derived from the
//! cost models), the breakdown is **exact**: the seven phase times sum to
//! the report's `elapsed` to the nanosecond, and the same seed produces a
//! bit-identical breakdown. There is no sampling or measurement noise.
//!
//! Phase attribution follows the cost-model constituents (DESIGN.md
//! §"Telemetry" maps each phase onto the paper's Fig. 2/4 iteration
//! anatomy):
//!
//! | phase      | cost constituents |
//! |------------|-------------------|
//! | `select`   | depth-proportional part of `CpuCostModel::tree_op` (UCB descent) |
//! | `expand`   | fixed part of `tree_op` (node creation + backprop bookkeeping) |
//! | `queue`    | multi-session service only: waiting for *other* sessions sharing a batched kernel launch |
//! | `upload`   | `launch_prep` + host→device transfer of frontier positions |
//! | `kernel`   | device launch overhead + device compute; CPU playout time on CPU-only schemes |
//! | `readback` | device→host transfer of playout results |
//! | `merge`    | cross-rank statistics allreduce (multi-GPU / multi-node) |
//!
//! For schemes whose `elapsed` is a **max** over concurrent components
//! (root parallelism, MPI ranks — all merged by one function,
//! `root_parallel::merge_reports`), the phase times are those of the
//! critical-path component — the slowest tree/worker/rank, first index on
//! ties — so the sum identity still holds; the *counters* are summed over
//! every component.
//!
//! A phase may be legitimately **zero** and is never dropped from the sum:
//! the device-resident scheme ([`device_tree`](crate::device_tree)) runs
//! selection, expansion and backpropagation *inside* the kernel, so its
//! `select`/`expand` phases are exactly `SimTime::ZERO` while the `kernel`
//! phase absorbs the tree walk — and `phase_sum()` still equals `elapsed`
//! to the nanosecond. Consumers must not treat a zero phase as "missing":
//! the identity is over all seven phases, zeros included.

use pmcts_gpu_sim::KernelStats;
use pmcts_util::{FaultCounters, SimTime};

/// Exact per-phase decomposition of one search's virtual time, plus
/// work counters and folded kernel statistics.
///
/// Invariant: [`phase_sum`](Self::phase_sum) `== SearchReport::elapsed`
/// for every searcher in this crate. `shadow_overlap` and `overlap_saved`
/// are informational overlap measures and deliberately *outside* the sum.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// UCB descent time (depth-proportional part of each tree operation).
    pub select: SimTime,
    /// Expansion + backpropagation bookkeeping (fixed part of each tree
    /// operation).
    pub expand: SimTime,
    /// Cross-session queueing delay: virtual time a service session spent
    /// waiting for *other* sessions' host phases before the shared batched
    /// kernel launch. Zero for every standalone searcher.
    pub queue: SimTime,
    /// Host launch preparation plus host→device transfer of the frontier.
    pub upload: SimTime,
    /// Simulation time on the critical path: kernel launch overhead +
    /// device compute on GPU schemes, CPU playout time on CPU schemes.
    pub kernel: SimTime,
    /// Device→host readback of playout results.
    pub readback: SimTime,
    /// Cross-tree / cross-rank statistics merging (allreduce time).
    pub merge: SimTime,

    /// Overlap schemes (hybrid, pipelined): total host time that ran
    /// *during* kernel flights — hybrid's shadow iterations, pipelined's
    /// next-wave select/expand (informational; whichever of kernel/host
    /// was longer per window is already inside the phase sums).
    pub shadow_overlap: SimTime,
    /// Overlap schemes (hybrid, pipelined): virtual time hidden by the
    /// CPU/GPU overlap — the shorter of (kernel, host) per launch window,
    /// i.e. how much slower a serialised schedule would have been.
    pub overlap_saved: SimTime,
    /// Virtual time spent beyond a `VirtualTime` budget (informational,
    /// already contained in the phase times; zero for iteration budgets).
    /// Bounded by one iteration cost for every scheme — and usually zero,
    /// since the deadline-aware stopping rule only overshoots when the
    /// final iteration costs more than its predecessor.
    pub budget_overshoot: SimTime,

    /// Playouts performed (all components: trees, lanes, ranks, shadow).
    pub simulations: u64,
    /// Tree nodes created by expansion (all components).
    pub expansions: u64,
    /// Kernel launches issued (all components).
    pub kernel_launches: u64,
    /// Hybrid only: CPU shadow iterations run under kernel flights
    /// (these are *not* in `SearchReport::iterations`, which counts host
    /// launch rounds).
    pub shadow_iterations: u64,

    /// Lockstep warp steps summed over every launch.
    pub warp_steps: u64,
    /// Useful lane-steps summed over every launch.
    pub lane_steps: u64,
    /// Masked-out (divergence-wasted) lane-steps summed over every launch.
    pub idle_lane_steps: u64,
    /// Sum of per-launch occupancy values; divide by `kernel_launches`
    /// for the mean (see [`mean_occupancy`](Self::mean_occupancy)).
    pub occupancy_sum: f64,

    /// Injected faults and the responses they triggered (summed over all
    /// components, like the other counters). All-zero under
    /// [`FaultPlan::none`](pmcts_util::FaultPlan::none).
    pub faults: FaultCounters,
}

impl PhaseBreakdown {
    /// A zeroed breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of the seven exclusive phase times; equals the report's
    /// `elapsed` exactly for every searcher in this crate. Zero phases
    /// participate like any other — a scheme that does no host
    /// select/expand work (the device-resident tree) still satisfies the
    /// identity with those terms at zero.
    pub fn phase_sum(&self) -> SimTime {
        self.select
            + self.expand
            + self.queue
            + self.upload
            + self.kernel
            + self.readback
            + self.merge
    }

    /// Host-sequential share of the phase sum: everything the CPU does
    /// between kernels (select + expand + readback handling + merging).
    /// This is the part that grows with the tree count in Fig. 5.
    pub fn host_time(&self) -> SimTime {
        self.select + self.expand + self.readback + self.merge
    }

    /// Fraction of total time spent in the kernel/playout phase.
    pub fn kernel_share(&self) -> f64 {
        let total = self.phase_sum();
        if total == SimTime::ZERO {
            0.0
        } else {
            self.kernel.as_nanos() as f64 / total.as_nanos() as f64
        }
    }

    /// Mean occupancy over all launches (0 when no kernel was launched).
    pub fn mean_occupancy(&self) -> f64 {
        if self.kernel_launches == 0 {
            0.0
        } else {
            self.occupancy_sum / self.kernel_launches as f64
        }
    }

    /// Fraction of lane-steps that did useful work (1.0 = no divergence,
    /// or no kernel work at all).
    pub fn lane_efficiency(&self) -> f64 {
        let total = self.lane_steps + self.idle_lane_steps;
        if total == 0 {
            1.0
        } else {
            self.lane_steps as f64 / total as f64
        }
    }

    /// Folds one launch's device statistics into the counters. Phase
    /// *times* are charged separately by the searcher (overlap schemes
    /// hide some of them).
    pub fn record_launch(&mut self, stats: &KernelStats) {
        self.kernel_launches += 1;
        self.warp_steps += stats.warp_steps;
        self.lane_steps += stats.lane_steps;
        self.idle_lane_steps += stats.idle_lane_steps;
        self.occupancy_sum += stats.occupancy;
    }

    /// Adds `other`'s counters and folded kernel statistics (not its phase
    /// times) into `self` — used when summing work over concurrent
    /// components whose *times* follow the critical-path convention.
    pub fn absorb_counters(&mut self, other: &PhaseBreakdown) {
        self.simulations += other.simulations;
        self.expansions += other.expansions;
        self.kernel_launches += other.kernel_launches;
        self.shadow_iterations += other.shadow_iterations;
        self.warp_steps += other.warp_steps;
        self.lane_steps += other.lane_steps;
        self.idle_lane_steps += other.idle_lane_steps;
        self.occupancy_sum += other.occupancy_sum;
        self.shadow_overlap += other.shadow_overlap;
        self.overlap_saved += other.overlap_saved;
        self.faults.absorb(&other.faults);
    }

    /// Copies `other`'s phase *times* into `self` (critical-path component
    /// selection); counters are untouched.
    pub fn adopt_times(&mut self, other: &PhaseBreakdown) {
        self.select = other.select;
        self.expand = other.expand;
        self.queue = other.queue;
        self.upload = other.upload;
        self.kernel = other.kernel;
        self.readback = other.readback;
        self.merge = other.merge;
    }
}

/// Index of the critical-path component: the slowest element, first index
/// on ties, so the choice is deterministic and independent of thread
/// timing.
pub fn critical_index(elapsed: impl IntoIterator<Item = SimTime>) -> Option<usize> {
    let mut best: Option<(usize, SimTime)> = None;
    for (i, t) in elapsed.into_iter().enumerate() {
        match best {
            Some((_, bt)) if t <= bt => {}
            _ => best = Some((i, t)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_sum_adds_the_seven_phases() {
        let b = PhaseBreakdown {
            select: SimTime::from_nanos(1),
            expand: SimTime::from_nanos(2),
            queue: SimTime::from_nanos(64),
            upload: SimTime::from_nanos(4),
            kernel: SimTime::from_nanos(8),
            readback: SimTime::from_nanos(16),
            merge: SimTime::from_nanos(32),
            shadow_overlap: SimTime::from_nanos(1 << 20), // excluded
            overlap_saved: SimTime::from_nanos(1 << 20),  // excluded
            budget_overshoot: SimTime::from_nanos(1 << 20), // excluded
            ..PhaseBreakdown::default()
        };
        assert_eq!(b.phase_sum(), SimTime::from_nanos(127));
        assert_eq!(b.host_time(), SimTime::from_nanos(1 + 2 + 16 + 32));
    }

    #[test]
    fn zero_host_phase_ledger_still_sums_exactly() {
        // The device-resident scheme's shape: select/expand/queue/merge
        // all zero, everything in upload + kernel + readback. The sum
        // identity must hold with the zero terms included, not by
        // skipping them.
        let b = PhaseBreakdown {
            upload: SimTime::from_nanos(10),
            kernel: SimTime::from_nanos(1_000),
            readback: SimTime::from_nanos(7),
            ..PhaseBreakdown::default()
        };
        assert_eq!(b.select, SimTime::ZERO);
        assert_eq!(b.expand, SimTime::ZERO);
        assert_eq!(b.phase_sum(), SimTime::from_nanos(1_017));
        assert_eq!(b.host_time(), SimTime::from_nanos(7), "readback only");
        assert!((b.kernel_share() - 1_000.0 / 1_017.0).abs() < 1e-12);
    }

    #[test]
    fn record_launch_folds_device_stats() {
        let mut b = PhaseBreakdown::new();
        let stats = KernelStats {
            warp_steps: 10,
            lane_steps: 300,
            idle_lane_steps: 20,
            occupancy: 0.5,
            ..KernelStats::default()
        };
        b.record_launch(&stats);
        b.record_launch(&stats);
        assert_eq!(b.kernel_launches, 2);
        assert_eq!(b.warp_steps, 20);
        assert_eq!(b.lane_steps, 600);
        assert_eq!(b.idle_lane_steps, 40);
        assert!((b.mean_occupancy() - 0.5).abs() < 1e-12);
        assert!((b.lane_efficiency() - 600.0 / 640.0).abs() < 1e-12);
    }

    #[test]
    fn critical_index_prefers_first_max() {
        let ts = [
            SimTime::from_nanos(5),
            SimTime::from_nanos(9),
            SimTime::from_nanos(9),
            SimTime::from_nanos(3),
        ];
        assert_eq!(critical_index(ts), Some(1));
        assert_eq!(critical_index(std::iter::empty()), None);
    }

    #[test]
    fn kernel_share_of_zero_time_is_zero() {
        assert_eq!(PhaseBreakdown::new().kernel_share(), 0.0);
    }
}
