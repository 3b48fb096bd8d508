//! SIMD divergence report.
//!
//! Prints the Reversi playout-length distribution and the lane-efficiency
//! numbers the warp-lockstep model derives from it, per game phase. This is
//! the quantitative basis for the paper's design choice: playouts of
//! varying length make per-thread independent *searches* infeasible on
//! SIMD hardware, while per-block shared *positions* keep warps coherent.
//!
//! `divergence_warp` then varies the warp width from 1 to 64 lanes on one
//! grid of opening playouts. Each warp step costs a constant 275 cycles
//! per lane, so only divergence moves the virtual rate: a warp is charged
//! until its slowest lane finishes, and the lane-steps it idles grow with
//! its width.
//!
//! Run: `cargo run --release -p pmcts-bench --bin divergence_report`
//! (`--out DIR` also writes `DIR/divergence_report.txt` and
//! `DIR/divergence_warp.tsv` so CI can validate and archive them).

use pmcts_bench::{midgame_position, print_table, write_artifact, BenchArgs};
use pmcts_core::gpu::PlayoutKernel;
use pmcts_games::{random_playout, Game, Reversi};
use pmcts_gpu_sim::{Device, DeviceSpec, LaunchConfig};
use pmcts_util::{Histogram, Xoshiro256pp};
use std::fmt::Write as _;

/// Threads of the `divergence_warp` grid (16 blocks of 64).
const WARP_GRID_THREADS: u32 = 1024;

fn main() {
    let args = BenchArgs::parse();
    let playouts = if args.full { 20_000 } else { 4_000 };

    let mut text = String::new();
    let _ = writeln!(
        text,
        "# divergence_report: Reversi playout lengths and warp efficiency\n"
    );
    let _ = writeln!(
        text,
        "{:<22} {:>6} {:>6} {:>6} {:>6} {:>8} {:>12}",
        "phase", "mean", "p10", "p50", "p90", "max", "efficiency"
    );

    for (label, plies_in) in [
        ("opening (ply 0)", 0u32),
        ("midgame (ply 20)", 20),
        ("endgame (ply 44)", 44),
    ] {
        let position = if plies_in == 0 {
            Reversi::initial()
        } else {
            midgame_position(args.seed, plies_in)
        };

        // Host-side distribution of playout lengths.
        let mut hist = Histogram::new(Reversi::MAX_GAME_LENGTH + 1);
        let mut rng = Xoshiro256pp::new(args.seed);
        for _ in 0..playouts {
            hist.record(random_playout(position, &mut rng).plies);
        }

        // Device-side lane efficiency for the same position.
        let device = Device::c2050();
        let kernel = PlayoutKernel::new(vec![position], args.seed);
        let result = device.launch(&kernel, LaunchConfig::new(14, 64));

        let _ = writeln!(
            text,
            "{label:<22} {:>6.1} {:>6} {:>6} {:>6} {:>8} {:>11.1}%",
            hist.mean(),
            hist.quantile(0.1).unwrap_or(0),
            hist.quantile(0.5).unwrap_or(0),
            hist.quantile(0.9).unwrap_or(0),
            hist.max().unwrap_or(0),
            result.stats.lane_efficiency() * 100.0
        );
    }

    let _ = writeln!(
        text,
        "\nInterpretation: a warp retires only when its longest playout ends, so\n\
         lane efficiency ≈ mean/max of the in-warp length distribution. Late-game\n\
         positions have shorter, tighter playouts and thus higher efficiency."
    );

    write_artifact("divergence_report.txt", &text, &args);

    // The same lanes play the same playouts at every width; only their
    // grouping into warps changes.
    let kernel = PlayoutKernel::new(vec![Reversi::initial()], args.seed);
    let grid = LaunchConfig::new(WARP_GRID_THREADS / 64, 64);
    let mut rows = Vec::new();
    for warp in [1u32, 2, 4, 8, 16, 32, 64] {
        let spec = DeviceSpec {
            warp_size: warp,
            cycles_per_warp_step: 275 * warp as u64,
            ..DeviceSpec::tesla_c2050()
        };
        let result = Device::new(spec).launch(&kernel, grid);
        let stats = &result.stats;
        let sims_per_s = result.outputs.len() as f64 / stats.elapsed().as_secs_f64();
        rows.push(vec![
            warp.to_string(),
            format!("{:.6}", stats.lane_efficiency()),
            stats.idle_lane_steps.to_string(),
            format!("{sims_per_s:.6}"),
        ]);
    }
    let title = format!(
        "lane efficiency vs warp width, {WARP_GRID_THREADS} threads, Reversi opening playouts"
    );
    let header = [
        "warp",
        "efficiency",
        "idle_lane_steps",
        "virtual_sims_per_s",
    ];
    print_table("divergence_warp", &title, &header, &rows, &args);
}
