//! Multi-GPU scaling over simulated MPI (paper Fig. 9): each rank drives
//! its own simulated Tesla C2050 with block parallelism and root statistics
//! are merged with an allreduce.
//!
//! Run: `cargo run --release --example multi_gpu_scaling`

use pmcts::prelude::*;

fn main() {
    let position = Reversi::initial();
    let launch = LaunchConfig::new(112, 64);

    println!("multi-GPU root parallelism, 112 blocks x 64 threads per GPU\n");
    println!(
        "{:>5} {:>14} {:>14} {:>10}",
        "GPUs", "simulations", "sims/s", "move"
    );
    for gpus in [1usize, 2, 4, 8] {
        let report = MultiGpuSearcher::<Reversi>::new(
            MctsConfig::default().with_seed(99),
            gpus,
            DeviceSpec::tesla_c2050(),
            launch,
            NetworkModel::infiniband(),
        )
        .search(position, SearchBudget::Iterations(6));
        println!(
            "{gpus:>5} {:>14} {:>14.0} {:>10}",
            report.simulations,
            report.sims_per_second(),
            report.best_move.unwrap()
        );
    }

    println!(
        "\nSimulations scale linearly with ranks; every rank agrees on the\nmerged move because the allreduce is deterministic and rank-ordered."
    );
}
