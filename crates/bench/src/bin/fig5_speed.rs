//! Figure 5 — "Block parallelism vs Leaf parallelism, speed".
//!
//! Simulations per (virtual) second as a function of the number of GPU
//! threads, for three configurations of the paper:
//!   * leaf parallelism, block size 64;
//!   * block parallelism, block size 32 (one tree per 32 threads);
//!   * block parallelism, block size 128.
//!
//! Expected shape (paper): throughput rises with thread count and saturates
//! once the grid covers the device (≈9×10⁵ sims/s); block parallelism is
//! slower than leaf parallelism because of the host-sequential per-tree
//! work, and block-32 (4× the trees of block-128) is slowest.
//!
//! A fourth series adds this reproduction's extension past the paper: the
//! device-resident tree (block size 128, DESIGN.md §13) removes the
//! host round-trip and the per-launch lane setup entirely, so its curve
//! keeps the same rising-then-saturating shape but settles *above* the
//! paper's ceiling — the three paper series are computed exactly as
//! before and stay bit-identical.
//!
//! The paper blames the leaf-vs-block gap on "the CPU's sequential part".
//! `fig5_overhead` tests that at 7 168 threads: the three paper schemes
//! under the calibrated cost model (the sweep's own 7 168-thread point),
//! with launch and transfer overhead zeroed, with the host tree-op costs
//! zeroed, and with both zeroed.
//!
//! Run: `cargo run --release -p pmcts-bench --bin fig5_speed -- [--full]`

use pmcts_bench::{midgame_position, print_series, print_table, BenchArgs};
use pmcts_core::prelude::*;
use pmcts_games::ReversiMove;
use pmcts_util::Series;

/// The thread count of the `fig5_overhead` table: the first point of the
/// sweep at which every series has saturated.
const OVERHEAD_THREADS: u32 = 7168;

fn thread_sweep(full: bool) -> Vec<u32> {
    if full {
        vec![
            1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 7168, 14336,
        ]
    } else {
        vec![32, 128, 512, 2048, 7168, 14336]
    }
}

/// Grid geometry for a scheme at a total thread count, mirroring the
/// paper's parameterisation.
fn geometry(total_threads: u32, block_size: u32) -> LaunchConfig {
    if total_threads <= block_size {
        LaunchConfig::new(1, total_threads)
    } else {
        LaunchConfig::new(total_threads / block_size, block_size)
    }
}

/// Leaf-64, block-32 and block-128 searches at `threads` (the paper's
/// three series).
fn paper_schemes(
    device: &Device,
    cfg: &MctsConfig,
    threads: u32,
    position: Reversi,
    budget: SearchBudget,
) -> [SearchReport<ReversiMove>; 3] {
    let block = |size| {
        BlockParallelSearcher::<Reversi>::new(cfg.clone(), device.clone(), geometry(threads, size))
            .search(position, budget)
    };
    [
        LeafParallelSearcher::<Reversi>::new(cfg.clone(), device.clone(), geometry(threads, 64))
            .search(position, budget),
        block(32),
        block(128),
    ]
}

/// One `fig5_overhead` row: the cost model, then each paper scheme's
/// sims/s formatted as the `fig5_speed` series print them.
fn overhead_row(model: &str, [leaf, b32, b128]: &[SearchReport<ReversiMove>; 3]) -> Vec<String> {
    let cell = |r: &SearchReport<ReversiMove>| format!("{:.6}", r.sims_per_second());
    vec![model.to_string(), cell(leaf), cell(b32), cell(b128)]
}

fn main() {
    let args = BenchArgs::parse();
    let device = Device::c2050();
    let position = midgame_position(args.seed, 20);
    let iters = if args.full { 12 } else { 5 };
    let budget = SearchBudget::Iterations(iters);

    let mut leaf64 = Series::new("leaf parallelism (block size = 64)");
    let mut block32 = Series::new("block parallelism (block size = 32)");
    let mut block128 = Series::new("block parallelism (block size = 128)");
    let mut resident128 = Series::new("device-resident tree (block size = 128)");
    // The measured decomposition behind the saturation story: the fraction
    // of virtual time the host spends *outside* the kernel phase grows with
    // the tree count (select/expand over every tree is sequential).
    let mut host32 = Series::new("block-32 host share (1 - kernel share)");
    let mut host128 = Series::new("block-128 host share (1 - kernel share)");
    let cfg = MctsConfig::default().with_seed(args.seed);
    let mut rows = Vec::new();

    for threads in thread_sweep(args.full) {
        let paper = paper_schemes(&device, &cfg, threads, position, budget);
        let [leaf, b32, b128] = &paper;
        leaf64.push(threads as f64, leaf.sims_per_second());
        block32.push(threads as f64, b32.sims_per_second());
        host32.push(threads as f64, 1.0 - b32.phases.kernel_share());
        block128.push(threads as f64, b128.sims_per_second());
        host128.push(threads as f64, 1.0 - b128.phases.kernel_share());
        if threads == OVERHEAD_THREADS {
            rows.push(overhead_row("calibrated", &paper));
        }

        let r =
            DeviceTreeSearcher::<Reversi>::new(cfg.clone(), device.clone(), geometry(threads, 128))
                .search(position, budget);
        resident128.push(threads as f64, r.sims_per_second());

        eprintln!(
            "threads={threads:>6}  leaf64={:>10.0}  block32={:>10.0}  block128={:>10.0}  \
             resident128={:>10.0} sims/s  kernel share: b32={:>5.1}% b128={:>5.1}%",
            leaf64.points.last().unwrap().1,
            block32.points.last().unwrap().1,
            block128.points.last().unwrap().1,
            resident128.points.last().unwrap().1,
            b32.phases.kernel_share() * 100.0,
            b128.phases.kernel_share() * 100.0,
        );
    }

    print_series(
        "fig5_speed",
        "simulations/second vs GPU threads (Rocki & Suda Fig. 5)",
        &[leaf64, block32, block128, resident128],
        &args,
    );
    print_series(
        "fig5_speed_phases",
        "host-sequential share of virtual time vs GPU threads (measured phase ledger)",
        &[host32, host128],
        &args,
    );

    // The same three searches at OVERHEAD_THREADS with one cost component
    // zeroed at a time, then both.
    let spec = device.spec().clone();
    let no_launch = DeviceSpec {
        launch_overhead: SimTime::ZERO,
        transfer_latency: SimTime::ZERO,
        ..spec.clone()
    };
    let cpu = cfg.cpu_cost;
    let free_host = CpuCostModel {
        tree_op_base: SimTime::ZERO,
        tree_op_per_depth: SimTime::ZERO,
        launch_prep: SimTime::ZERO,
        ..cpu
    };
    for (model, spec, cpu) in [
        ("no_launch_transfer_overhead", no_launch.clone(), cpu),
        ("free_host_tree_ops", spec, free_host),
        ("both_free", no_launch, free_host),
    ] {
        let cfg = cfg.clone().with_cpu_cost(cpu);
        let paper = paper_schemes(&Device::new(spec), &cfg, OVERHEAD_THREADS, position, budget);
        rows.push(overhead_row(model, &paper));
    }
    print_table(
        "fig5_overhead",
        &format!("virtual sims/s at {OVERHEAD_THREADS} GPU threads under cost-model ablations"),
        &["model", "leaf_64", "block_32", "block_128"],
        &rows,
        &args,
    );
}
