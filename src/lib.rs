//! `pmcts` — facade crate for the workspace.
//!
//! Re-exports the full public API: game engines (`games`), the simulated
//! GPU (`gpu_sim`), shared utilities (`util`) and the MCTS searchers
//! (`core` / the [`prelude`]). The MPI ranks of the multi-GPU searchers run
//! on `gpu_sim`'s worker pool; their network is `core::cost::NetworkModel`.
//!
//! See the repository README for a tour and `examples/` for runnable
//! programs.

pub use pmcts_core as core;
pub use pmcts_games as games;
pub use pmcts_gpu_sim as gpu_sim;
pub use pmcts_util as util;

pub use pmcts_core::prelude;
