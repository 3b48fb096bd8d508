//! Figure 9 — "Multi GPU Results — based on MPI communication scheme".
//!
//! Two panels over the number of GPUs (112 blocks × 64 threads each, as in
//! the paper):
//!   * total simulations/second of the multi-GPU searcher (log-scale axis
//!     in the paper);
//!   * average final point difference against the 1-core baseline.
//!
//! Expected shape (paper): simulations/second scales near-linearly with
//! GPUs; the point difference improves slowly and noisily (the paper calls
//! its own multi-GPU results "inconclusive", ~26.5 → ~29.5 points from 1 to
//! 32 GPUs).
//!
//! Run: `cargo run --release -p pmcts-bench --bin fig9_multigpu -- [--full]`

use pmcts_bench::{midgame_position, print_series, BenchArgs};
use pmcts_core::arena::MatchSeries;
use pmcts_core::prelude::*;
use pmcts_util::Series;

fn gpu_sweep(full: bool) -> Vec<usize> {
    if full {
        vec![1, 2, 4, 8, 16, 32]
    } else {
        vec![1, 2, 4]
    }
}

fn main() {
    let args = BenchArgs::parse();
    let games = args.games_or(2, 16);
    let budget = SearchBudget::millis(args.move_ms_or(150, 500));
    let launch = LaunchConfig::new(112, 64);
    let net = NetworkModel::infiniband();

    let mut speed = Series::new("simulations/second (112 blocks × 64 threads per GPU)");
    let mut points = Series::new("average final point difference vs 1-core baseline");

    for gpus in gpu_sweep(args.full) {
        // Panel 1: raw search throughput on a fixed midgame position.
        let position = midgame_position(args.seed, 20);
        let r = MultiGpuSearcher::<Reversi>::new(
            MctsConfig::default().with_seed(args.seed),
            gpus,
            DeviceSpec::tesla_c2050(),
            launch,
            net,
        )
        .search(
            position,
            SearchBudget::Iterations(if args.full { 8 } else { 4 }),
        );
        speed.push(gpus as f64, r.sims_per_second());

        // Panel 2: playing strength vs the 1-core baseline.
        let result = MatchSeries::<Reversi>::run(
            games,
            |g| {
                Box::new(MctsPlayer::new(
                    MultiGpuSearcher::<Reversi>::new(
                        MctsConfig::default().with_seed(args.seed.wrapping_add(g)),
                        gpus,
                        DeviceSpec::tesla_c2050(),
                        launch,
                        net,
                    ),
                    budget,
                ))
            },
            |g| {
                Box::new(MctsPlayer::new(
                    SequentialSearcher::<Reversi>::new(
                        MctsConfig::default().with_seed(args.seed.wrapping_add(5000 + g)),
                    ),
                    budget,
                ))
            },
        );
        points.push(gpus as f64, result.mean_score.mean());
        eprintln!(
            "gpus={gpus:>3}  {:>12.0} sims/s  mean point diff {:+.1} ({} games)",
            speed.points.last().unwrap().1,
            result.mean_score.mean(),
            games
        );
    }

    print_series(
        "fig9_speed",
        "simulations/second vs number of GPUs (Rocki & Suda Fig. 9, left panel)",
        &[speed],
        &args,
    );
    print_series(
        "fig9_points",
        "average point difference vs number of GPUs (Rocki & Suda Fig. 9, right panel)",
        &[points],
        &args,
    );
}
