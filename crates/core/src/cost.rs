//! Virtual-time cost models for host-side (CPU) work and for the cluster
//! network.
//!
//! The simulator executes everything on the host, so "how long would this
//! have taken on the paper's Xeon X5670" is modelled explicitly, mirroring
//! how the GPU's cost is modelled in `pmcts-gpu-sim`. Three quantities
//! matter to the experiments:
//!
//! * the cost of one CPU playout (sets the strength of the sequential
//!   baseline and of root-parallel CPU players);
//! * the cost of one tree operation — selection + expansion +
//!   backpropagation (this is the *sequential part* that grows with the
//!   number of blocks/trees in the block-parallel scheme and caps its
//!   simulations/second, paper Fig. 5);
//! * small per-launch host bookkeeping.
//!
//! [`NetworkModel`] prices the MPI allreduce that merges root statistics
//! across the ranks of the multi-GPU and multi-node searchers (paper
//! Fig. 9): the ranks themselves run on the host worker pool, so the
//! interconnect exists only as this cost.

use pmcts_util::SimTime;

/// Cost model of host-side MCTS operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuCostModel {
    /// Cost of one playout ply on the CPU (move gen + flip + RNG).
    pub playout_ply: SimTime,
    /// Fixed cost of one tree iteration (selection/expansion/backprop
    /// bookkeeping, allocator traffic).
    pub tree_op_base: SimTime,
    /// Additional cost per ply of tree depth traversed during selection and
    /// backpropagation.
    pub tree_op_per_depth: SimTime,
    /// Host bookkeeping per kernel launch (argument marshalling, driver
    /// call setup) — charged once per launch on top of the device's own
    /// launch overhead.
    pub launch_prep: SimTime,
}

impl CpuCostModel {
    /// One core of the Intel Xeon X5670 in TSUBAME 2.0.
    ///
    /// Calibration (DESIGN.md §6): ≈10⁴ playouts/second/core for Reversi as
    /// in the authors' CPU study (ref \[4\]) ⇒ ~1.6 µs per ply at ~60 plies
    /// per game. A tree operation costs ~10 µs + 40 ns per ply of depth —
    /// this covers selection, expansion, backpropagation *and* the per-tree
    /// kernel argument marshalling / result handling that the paper calls
    /// the sequential CPU part (it is what separates the block-parallel
    /// curves from leaf parallelism in Fig. 5).
    pub fn xeon_x5670() -> Self {
        CpuCostModel {
            playout_ply: SimTime::from_nanos(1_600),
            tree_op_base: SimTime::from_micros(10),
            tree_op_per_depth: SimTime::from_nanos(40),
            launch_prep: SimTime::from_micros(2),
        }
    }

    /// A zero-cost model for tests that budget by iterations.
    pub fn free() -> Self {
        CpuCostModel {
            playout_ply: SimTime::ZERO,
            tree_op_base: SimTime::ZERO,
            tree_op_per_depth: SimTime::ZERO,
            launch_prep: SimTime::ZERO,
        }
    }

    /// Virtual cost of a CPU playout of `plies` moves.
    #[inline]
    pub fn playout(&self, plies: u32) -> SimTime {
        self.playout_ply * plies as u64
    }

    /// Virtual cost of one tree operation reaching `depth`.
    #[inline]
    pub fn tree_op(&self, depth: u32) -> SimTime {
        self.select_cost(depth) + self.expand_cost()
    }

    /// The depth-proportional share of a tree operation — the UCB descent
    /// (and mirrored backprop walk). Telemetry bills this to the `select`
    /// phase; `select_cost + expand_cost == tree_op` exactly.
    #[inline]
    pub fn select_cost(&self, depth: u32) -> SimTime {
        self.tree_op_per_depth * depth as u64
    }

    /// The fixed share of a tree operation — node creation, statistics
    /// updates, allocator traffic. Telemetry bills this to the `expand`
    /// phase.
    #[inline]
    pub fn expand_cost(&self) -> SimTime {
        self.tree_op_base
    }

    /// Approximate playouts/second this model yields for games averaging
    /// `avg_plies` plies (diagnostic, used by bench output).
    pub fn playouts_per_second(&self, avg_plies: u32) -> f64 {
        let per = self.playout(avg_plies) + self.tree_op(16);
        if per == SimTime::ZERO {
            f64::INFINITY
        } else {
            1e9 / per.as_nanos() as f64
        }
    }
}

/// Latency/bandwidth model used to charge virtual time for communication.
///
/// The model is the classic LogP-style first-order approximation: a message
/// of `b` bytes costs `latency + b / bandwidth`, and a collective over `n`
/// ranks costs `ceil(log2 n)` message rounds, the complexity of the
/// tree/dissemination algorithms of real MPI implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetworkModel {
    /// One-way small-message latency.
    pub latency: SimTime,
    /// Bandwidth in bytes per nanosecond (≈ GB/s).
    pub bytes_per_ns: u64,
}

impl NetworkModel {
    /// QDR InfiniBand, the TSUBAME 2.0 interconnect: ~2 µs latency,
    /// ~4 GB/s effective per-link bandwidth.
    pub fn infiniband() -> Self {
        NetworkModel {
            latency: SimTime::from_micros(2),
            bytes_per_ns: 4,
        }
    }

    /// A zero-cost network for unit tests.
    pub fn ideal() -> Self {
        NetworkModel {
            latency: SimTime::ZERO,
            bytes_per_ns: u64::MAX,
        }
    }

    /// Virtual time for one point-to-point message of `bytes`.
    pub fn p2p_time(&self, bytes: u64) -> SimTime {
        if self.bytes_per_ns == u64::MAX {
            return self.latency;
        }
        self.latency + SimTime::from_nanos(bytes / self.bytes_per_ns.max(1))
    }

    /// Virtual time for a reduce/broadcast of `bytes` over `ranks` ranks
    /// (binomial tree).
    pub fn collective_time(&self, bytes: u64, ranks: usize) -> SimTime {
        self.p2p_time(bytes) * log2_ceil(ranks)
    }

    /// Virtual time for an allreduce (reduce + broadcast).
    pub fn allreduce_time(&self, bytes: u64, ranks: usize) -> SimTime {
        self.collective_time(bytes, ranks) * 2
    }
}

/// `ceil(log2(n))` with `log2_ceil(0 | 1) == 0`.
fn log2_ceil(n: usize) -> u64 {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_calibration_near_10k_playouts_per_second() {
        let m = CpuCostModel::xeon_x5670();
        let rate = m.playouts_per_second(60);
        assert!(
            (7_000.0..14_000.0).contains(&rate),
            "calibrated rate {rate} strayed from ~10k/s"
        );
    }

    #[test]
    fn costs_scale_linearly() {
        let m = CpuCostModel::xeon_x5670();
        assert_eq!(m.playout(10) * 2, m.playout(20));
        assert!(m.tree_op(30) > m.tree_op(0));
    }

    #[test]
    fn free_model_is_free() {
        let m = CpuCostModel::free();
        assert_eq!(m.playout(1000), SimTime::ZERO);
        assert_eq!(m.tree_op(1000), SimTime::ZERO);
        assert!(m.playouts_per_second(60).is_infinite());
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(32), 5);
        assert_eq!(log2_ceil(33), 6);
    }

    #[test]
    fn p2p_time_includes_bandwidth() {
        let net = NetworkModel {
            latency: SimTime::from_nanos(100),
            bytes_per_ns: 2,
        };
        assert_eq!(net.p2p_time(0), SimTime::from_nanos(100));
        assert_eq!(net.p2p_time(200), SimTime::from_nanos(200));
    }

    #[test]
    fn collectives_scale_logarithmically() {
        let net = NetworkModel::infiniband();
        let t4 = net.collective_time(64, 4);
        let t16 = net.collective_time(64, 16);
        assert_eq!(t16, t4 * 2, "16 ranks = 4 rounds vs 2 rounds");
        assert_eq!(net.allreduce_time(64, 4), t4 * 2);
    }

    #[test]
    fn ideal_network_is_free() {
        let net = NetworkModel::ideal();
        assert_eq!(net.p2p_time(1 << 30), SimTime::ZERO);
        assert_eq!(net.allreduce_time(1 << 20, 64), SimTime::ZERO);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let net = NetworkModel::infiniband();
        assert_eq!(net.collective_time(1024, 1), SimTime::ZERO);
    }
}
