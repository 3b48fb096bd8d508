//! Parallel Monte Carlo Tree Search — the paper's core system.
//!
//! This crate implements UCT (MCTS with the UCB selection rule, paper §II)
//! and every parallelization scheme the paper discusses (§III):
//!
//! * [`sequential`] — the baseline single-threaded searcher; also the
//!   opponent in the paper's win-ratio experiments.
//! * [`leaf_parallel`] — one tree; every GPU thread runs an independent
//!   playout from the same selected leaf (paper Fig. 2a). Simple, but its
//!   strength saturates: more samples of one node stop helping.
//! * [`root_parallel`] — the CPU scheme of refs \[3\]\[4\]: `n` threads build
//!   `n` independent trees and merge root statistics (paper Fig. 2b); also
//!   the one ensemble merge and MPI rank driver that [`multi_gpu`] and
//!   [`multi_node_cpu`] share.
//! * [`block_parallel`] — **the contribution**: one tree per GPU *block*;
//!   the CPU drives selection/expansion/backpropagation for every tree and
//!   a single kernel launch simulates all trees' frontier nodes at once,
//!   each block's threads acting as a leaf-parallel batch for its tree
//!   (paper Fig. 2c). Combines root parallelism's diversity with leaf
//!   parallelism's SIMD-friendly batches — no intra-GPU communication.
//! * [`device_tree`] — block parallelism with the trees resident in device
//!   memory (DESIGN.md §13): a persistent kernel runs *complete* MCTS
//!   iterations per lane, the host phases collapse to zero, and only
//!   root-child statistics are read back per launch.
//! * [`hybrid`] — the CPU/GPU overlap of the paper's Fig. 4: the CPU keeps
//!   deepening the same trees while the GPU simulates (billed in virtual
//!   time, the longer side charged), fixing the shallow-tree weakness of
//!   GPU-only search (paper Fig. 8).
//! * [`multi_gpu`] — root parallelism over MPI ranks, one simulated GPU per
//!   rank (paper Fig. 9); the ranks run on the host worker pool and the
//!   interconnect is priced by [`cost::NetworkModel`].
//! * [`wu_uct`] — the exploration-loss fix (DESIGN.md §16): block
//!   parallelism over **one shared tree**, selection corrected by WU-UCT
//!   in-flight counts so concurrent batches diversify instead of piling
//!   onto the uncorrected-UCB maximiser. The correction is virtual loss
//!   (ref \[3\]) with weight = in-flight playouts, so this is also the
//!   crate's tree parallelism — deterministic, waves composed in block
//!   order.
//! * [`pipelined`] — barrier-free block parallelism (DESIGN.md §16):
//!   select/expand of wave *k* overlaps the in-flight kernel of wave
//!   *k−1*, priced by the same overlap bill as [`hybrid`].
//!
//! Supporting modules: [`tree`] (structure-of-arrays search tree), [`ucb`]
//! (selection policy), [`gpu`] (the playout kernel run on the simulated
//! device), [`cost`] (virtual-time cost models of host-side work and of
//! the network), [`searcher`] (the common `Searcher` interface and
//! reports), [`player`] / [`arena`] (match harness used by every figure
//! experiment).
//!
//! # Quick start
//!
//! ```
//! use pmcts_core::prelude::*;
//!
//! let mut searcher = SequentialSearcher::<Reversi>::new(MctsConfig::default().with_seed(7));
//! let report = searcher.search(Reversi::initial(), SearchBudget::Iterations(2_000));
//! let mv = report.best_move.expect("initial position has moves");
//! println!("best: {mv}, {} simulations", report.simulations);
//! ```

pub mod analysis;
pub mod arena;
pub mod block_parallel;
pub mod config;
pub mod cost;
pub mod device_tree;
pub mod fleet;
pub mod gpu;
pub mod hybrid;
pub mod leaf_parallel;
pub mod multi_gpu;
pub mod multi_node_cpu;
pub mod persistent;
pub mod pipelined;
pub mod player;
pub mod root_parallel;
pub mod searcher;
pub mod sequential;
pub mod service;
pub mod telemetry;
pub mod transposition;
pub mod tree;
pub mod ucb;
mod wave;
pub mod wu_uct;

/// One-stop imports for applications and benches.
pub mod prelude {
    pub use crate::arena::{entrant_stream, play_game, GameRecord, MatchSeries};
    pub use crate::block_parallel::BlockParallelSearcher;
    pub use crate::config::{MctsConfig, SearchBudget};
    pub use crate::cost::{CpuCostModel, NetworkModel};
    pub use crate::device_tree::DeviceTreeSearcher;
    pub use crate::fleet::{
        Admission, Fleet, FleetCompleted, FleetConfig, FleetSessionId, FleetStats, Priority, Rank,
        ShardSnapshot,
    };
    pub use crate::hybrid::HybridSearcher;
    pub use crate::leaf_parallel::LeafParallelSearcher;
    pub use crate::multi_gpu::MultiGpuSearcher;
    pub use crate::multi_node_cpu::MultiNodeCpuSearcher;
    pub use crate::persistent::PersistentSearcher;
    pub use crate::pipelined::PipelinedSearcher;
    pub use crate::player::{GamePlayer, MctsPlayer, RandomPlayer};
    pub use crate::root_parallel::RootParallelSearcher;
    pub use crate::searcher::{SearchReport, Searcher};
    pub use crate::sequential::SequentialSearcher;
    pub use crate::service::{CompletedSession, SearchService, SessionId, SessionScheme};
    pub use crate::telemetry::PhaseBreakdown;
    pub use crate::transposition::{TransStats, TransTable};
    pub use crate::wu_uct::WuUctSearcher;
    pub use pmcts_games::{Connect4, Game, Hex11, Hex7, Outcome, Player, Reversi, TicTacToe};
    pub use pmcts_gpu_sim::{Device, DeviceSpec, LaunchConfig};
    pub use pmcts_util::{FaultCounters, FaultPlan, GpuFault, SimTime};
}
