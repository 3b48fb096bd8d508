//! The repository benchmark.
//!
//! Four workloads, each run in its own process, each timing one kind of
//! op for a fixed wall-clock window after an untimed set-up and warm-up:
//!
//! | workload        | load        | op                    |
//! |-----------------|-------------|-----------------------|
//! | `paper_move`    | closed loop | `Searcher::search` (block-parallel, 112×128) |
//! | `resident_move` | closed loop | `Searcher::search` (device-resident trees, 112×128) |
//! | `fleet_serve`   | open loop   | `Fleet::step_wave` (8 shards, Poisson offers) |
//! | `hex_arena`     | closed loop | one WU-UCT move in a Hex 11×11 game |
//!
//! Numbers come on two clocks: *wall* (host time — what the simulator
//! costs) and *virtual* (the modelled GPU/host time, deterministic per
//! seed). Virtual metrics are read over a fixed window of each workload's
//! first ops, so they do not depend on how many ops a machine fits into the
//! wall-clock window. A traced run (`--trace 1`) additionally records
//! spans around every call into a layer and replays the lower layers on the
//! workload's own inputs to give the per-layer metrics.

pub mod inputs;
pub mod json;
pub mod layers;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

/// The four workloads. Names are stable: recorded results cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Block-parallel Reversi moves at the full C2050 grid.
    PaperMove,
    /// Device-resident-tree Reversi moves at the full C2050 grid.
    ResidentMove,
    /// Open-loop serving on an 8-shard fleet.
    FleetServe,
    /// Hex 11×11 games, WU-UCT against sequential UCT.
    HexArena,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperMove,
        Workload::ResidentMove,
        Workload::FleetServe,
        Workload::HexArena,
    ];

    /// The workload's stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMove => "paper_move",
            Workload::ResidentMove => "resident_move",
            Workload::FleetServe => "fleet_serve",
            Workload::HexArena => "hex_arena",
        }
    }

    /// Parses a stable name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Geometry, budgets and window sizes of one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Sizes {
    /// Blocks × threads per block of the searcher (fleet: lanes per block
    /// in `threads`, blocks unused).
    pub blocks: u32,
    /// Threads (lanes) per block.
    pub threads: u32,
    /// Virtual budget of one search, also its latency SLO, in ms.
    pub budget_ms: u64,
    /// Virtual budget of the warm-up search (fleet: virtual time of the
    /// warm-up waves), in ms.
    pub warmup_ms: u64,
    /// Ops (fleet: waves; arena: games) the virtual metrics are read over.
    pub virtual_window: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Random plies to the closed-loop roots, `[lo, hi]`; fleet sessions
    /// draw uniformly from `[0, hi]`.
    pub plies: (u32, u32),
    /// Fleet shards (simulated devices).
    pub shards: usize,
    /// Fleet: concurrent sessions per shard.
    pub shard_capacity: usize,
    /// Fleet: sessions per launch wave.
    pub wave_limit: usize,
    /// Fleet: mean offers per wave.
    pub lambda: f64,
    /// Playouts per replay pass of the playout layers.
    pub replay_playouts: usize,
    /// Tree iterations per replay pass of the tree layer.
    pub replay_tree_iterations: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full(w: Workload) -> Self {
        let base = Sizes {
            blocks: 112,
            threads: 128,
            budget_ms: 1000,
            warmup_ms: 250,
            virtual_window: 15,
            setup_reps: 5,
            plies: (12, 40),
            shards: 0,
            shard_capacity: 0,
            wave_limit: 0,
            lambda: 0.0,
            replay_playouts: 16_384,
            replay_tree_iterations: 20_000,
        };
        match w {
            Workload::PaperMove => base,
            Workload::ResidentMove => Sizes {
                budget_ms: 250,
                warmup_ms: 60,
                ..base
            },
            Workload::FleetServe => Sizes {
                blocks: 0,
                threads: 32,
                budget_ms: 20,
                warmup_ms: 100,
                virtual_window: 1000,
                plies: (0, 40),
                shards: 8,
                shard_capacity: 16,
                wave_limit: 16,
                lambda: 3.0,
                ..base
            },
            Workload::HexArena => Sizes {
                blocks: 32,
                threads: 32,
                budget_ms: 100,
                warmup_ms: 100,
                virtual_window: 2,
                plies: (0, 0),
                replay_playouts: 4_096,
                ..base
            },
        }
    }

    /// About 1/50 of the benchmark's work, for the smoke test.
    pub fn smoke(w: Workload) -> Self {
        let full = Self::full(w);
        let small = Sizes {
            warmup_ms: 2,
            setup_reps: 2,
            replay_playouts: 256,
            replay_tree_iterations: 500,
            ..full
        };
        match w {
            Workload::PaperMove | Workload::ResidentMove => Sizes {
                blocks: 14,
                threads: 64,
                budget_ms: 40,
                virtual_window: 3,
                ..small
            },
            Workload::FleetServe => Sizes {
                shards: 2,
                virtual_window: 20,
                lambda: 0.5,
                ..small
            },
            Workload::HexArena => Sizes {
                blocks: 4,
                budget_ms: 5,
                virtual_window: 1,
                ..small
            },
        }
    }
}

/// One run: which workload, its inputs' seed, how long to measure, and on
/// how many host threads.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window. The window also extends until the
    /// virtual window is complete.
    pub seconds: f64,
    /// Host threads of the simulated devices' worker pool.
    pub host_threads: usize,
    /// Record spans and replay the lower layers (the per-layer run).
    pub trace: bool,
    /// Geometry and budgets.
    pub sizes: Sizes,
}
