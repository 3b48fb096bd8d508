//! Phase-level profile of every parallelization scheme.
//!
//! Runs each scheme in the taxonomy over a launch-geometry sweep (thread
//! counts for the CPU schemes) on the same mid-game position and emits one
//! JSON record per run carrying the exact six-phase time ledger, the work
//! counters, and the folded device statistics — the machine-readable
//! counterpart of the paper's Fig. 5 host-vs-kernel decomposition. Each
//! record also carries the real engine cost of producing it (`wall_ns`,
//! `playouts_per_sec`); virtual results never depend on it.
//!
//! Run: `cargo run --release -p pmcts-bench --bin profile -- [--full]`
//! (`--out DIR` also writes `DIR/profile.json`).

use pmcts_bench::{midgame_position, phase_record, write_json, BenchArgs, JsonObject};
use pmcts_core::prelude::*;

/// GPU launch geometries to sweep (blocks × threads-per-block).
fn geometries(full: bool) -> Vec<(u32, u32)> {
    if full {
        vec![(4, 32), (14, 64), (28, 64), (56, 128), (112, 128)]
    } else {
        vec![(4, 32), (14, 64)]
    }
}

/// CPU thread counts to sweep for the host-side schemes.
fn cpu_threads(full: bool) -> Vec<usize> {
    if full {
        vec![2, 4, 8, 16]
    } else {
        vec![4]
    }
}

fn main() {
    let args = BenchArgs::parse();
    let position = midgame_position(args.seed, 20);
    let iters = if args.full { 16 } else { 4 };
    let budget = SearchBudget::Iterations(iters);
    let cfg = || MctsConfig::default().with_seed(args.seed);
    let mut device = Device::c2050();
    if args.host_threads > 0 {
        device = device.with_host_threads(args.host_threads);
    }
    let net = NetworkModel::infiniband();
    let mut records: Vec<JsonObject> = Vec::new();

    // Verify the ledger's central invariant on every record we emit, and
    // pair the virtual-time ledger with the real (wall-clock) cost of
    // producing it — the engine-speed side of DESIGN.md §7.
    let run = |scheme: &str, searcher: &mut dyn Searcher<Reversi>| {
        let start = std::time::Instant::now();
        let r = searcher.search(position, budget);
        let wall_ns = start.elapsed().as_nanos() as u64;
        assert_eq!(
            r.phases.phase_sum(),
            r.elapsed,
            "{scheme}: phase sum must equal elapsed exactly"
        );
        let wall_secs = wall_ns as f64 / 1e9;
        phase_record(scheme, &r)
            .u64_field("wall_ns", wall_ns)
            .f64_field(
                "playouts_per_sec",
                if wall_ns == 0 {
                    0.0
                } else {
                    r.simulations as f64 / wall_secs
                },
            )
    };

    // Host-only baselines (geometry-independent).
    records.push(run(
        "sequential",
        &mut SequentialSearcher::<Reversi>::new(cfg()),
    ));
    records.push(run(
        "persistent",
        &mut PersistentSearcher::<Reversi>::new(cfg()),
    ));

    for threads in cpu_threads(args.full) {
        records.push(
            run(
                "root_parallel",
                &mut RootParallelSearcher::<Reversi>::new(cfg(), threads),
            )
            .u64_field("threads", threads as u64),
        );
        records.push(
            run(
                "multi_node_cpu",
                &mut MultiNodeCpuSearcher::<Reversi>::new(cfg(), 2, threads, net),
            )
            .u64_field("ranks", 2)
            .u64_field("threads", threads as u64),
        );
    }

    for (blocks, tpb) in geometries(args.full) {
        let launch = LaunchConfig::new(blocks, tpb);
        let geom = |o: JsonObject| {
            o.u64_field("blocks", blocks as u64)
                .u64_field("threads_per_block", tpb as u64)
        };
        let r = run(
            "leaf_parallel",
            &mut LeafParallelSearcher::<Reversi>::new(cfg(), device.clone(), launch),
        );
        records.push(geom(r));
        let r = run(
            "block_parallel",
            &mut BlockParallelSearcher::<Reversi>::new(cfg(), device.clone(), launch),
        );
        records.push(geom(r));
        // Device-resident tree: host select/expand are legitimately zero
        // (the kernel phase absorbs them) but the ledger must still sum.
        let r = run(
            "device_tree",
            &mut DeviceTreeSearcher::<Reversi>::new(cfg(), device.clone(), launch),
        );
        records.push(geom(r));
        let r = run(
            "hybrid",
            &mut HybridSearcher::<Reversi>::new(cfg(), device.clone(), launch),
        );
        records.push(geom(r));
        let r = run(
            "multi_gpu",
            &mut MultiGpuSearcher::<Reversi>::new(cfg(), 2, DeviceSpec::tesla_c2050(), launch, net),
        );
        records.push(geom(r).u64_field("ranks", 2));
    }

    eprintln!("{} records, {iters} iterations each", records.len());
    write_json("profile", &records, &args);
}
