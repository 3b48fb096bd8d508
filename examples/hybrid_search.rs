//! Hybrid CPU/GPU processing (paper §III-A, Fig. 4): keep deepening the
//! trees on the CPU while the GPU simulates, the overlap billed in virtual
//! time. This example shows the depth and simulation gains over GPU-only
//! block parallelism at the same virtual budget.
//!
//! Run: `cargo run --release --example hybrid_search`

use pmcts::prelude::*;

fn main() {
    let position = Reversi::initial();
    let launch = LaunchConfig::new(112, 64);
    let budget = SearchBudget::millis(200);

    let block_report = BlockParallelSearcher::<Reversi>::new(
        MctsConfig::default().with_seed(11),
        Device::c2050(),
        launch,
    )
    .search(position, budget);

    let hybrid_report = HybridSearcher::<Reversi>::new(
        MctsConfig::default().with_seed(11),
        Device::c2050(),
        launch,
    )
    .search(position, budget);

    println!("200 ms virtual budget, 112 blocks x 64 threads\n");
    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>12}",
        "scheme", "simulations", "tree nodes", "depth", "iterations"
    );
    for (label, r) in [("GPU only", &block_report), ("GPU + CPU", &hybrid_report)] {
        println!(
            "{label:<14} {:>12} {:>12} {:>10} {:>12}",
            r.simulations, r.tree_nodes, r.max_depth, r.iterations
        );
    }

    println!(
        "\nhybrid gained {:+} tree nodes and {:+} plies of depth — the paper's\nFig. 8 effect: the CPU deepens the trees while kernels are in flight.",
        hybrid_report.tree_nodes as i64 - block_report.tree_nodes as i64,
        hybrid_report.max_depth as i64 - block_report.max_depth as i64,
    );
}
