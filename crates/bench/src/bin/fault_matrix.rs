//! Fault-injection matrix: {every scheme} × {every fault class}.
//!
//! Each cell runs one searcher under one 100%-rate fault class on the same
//! mid-game position and asserts graceful degradation: the search must
//! still produce a best move and the phase ledger must still sum to
//! `elapsed` exactly. One JSON record per cell carries the standard phase
//! ledger plus the `FaultCounters` and the chosen move. The first record
//! of each artifact is a `roster` meta-record naming every scheme and
//! fault class; `check_bench.py` validates the grid against it, so the
//! scheme list lives in exactly one place ([`SCHEMES`]).
//!
//! The matrix runs on two games: Reversi (the paper's domain, written to
//! `fault_matrix.json`) and Hex 11×11 (a branchier, longer game
//! exercising the same fault policies, written to
//! `fault_matrix_hex11.json`). A third grid, `fault_matrix_service.json`,
//! runs every fault class against [`SearchService`] sessions of each
//! scheme ([`SESSION_SCHEMES`]), four concurrent sessions per cell sharing
//! merged launches. Each cell's record is its first session's; every
//! session must still return a move with an exact ledger and
//! `completed_at − admitted_at == elapsed`. Network and dead-component
//! classes have no component on the service path: the roster names them
//! `inert_classes` and they must inject nothing.
//!
//! The outputs contain no wall-clock fields, so the same (seed, plan) must
//! produce byte-identical JSON at any `--host-threads` count — the CI
//! determinism gate diffs two runs at different counts.
//!
//! Run: `cargo run --release -p pmcts-bench --bin fault_matrix -- [--full]`
//! (`--out DIR` also writes `DIR/fault_matrix.json`,
//! `DIR/fault_matrix_hex11.json` and `DIR/fault_matrix_service.json`).

use pmcts_bench::{
    midgame_position, midgame_position_of, phase_record, write_json, BenchArgs, JsonObject,
};
use pmcts_core::prelude::*;
use pmcts_gpu_sim::WorkerPool;
use std::sync::Arc;

/// The scheme roster, in cell-emission order. This is the single source
/// of truth: the first record of each artifact carries it (comma-joined)
/// and `check_bench.py` validates the grid against it, so adding a scheme
/// here without adding its `run` call (or vice versa) fails both the
/// in-binary assert and the CI gate.
const SCHEMES: [&str; 9] = [
    "leaf_parallel",
    "block_parallel",
    "device_tree",
    "hybrid",
    "root_parallel",
    "multi_gpu",
    "multi_node_cpu",
    "wu_uct",
    "pipelined",
];

/// The service-session roster, in cell-emission order.
const SESSION_SCHEMES: [(&str, SessionScheme); 4] = [
    ("sequential", SessionScheme::Sequential),
    ("block", SessionScheme::Block(4)),
    ("wu_uct", SessionScheme::WuUct(4)),
    ("pipelined", SessionScheme::Pipelined(4)),
];

/// Concurrent sessions per service cell.
const SESSIONS_PER_CELL: u64 = 4;

/// Fault classes with no component on the service path.
const SERVICE_INERT: [&str; 3] = ["net_delay", "net_drop", "dead_component"];

/// The fault classes under test. Rates are 1.0 so every applicable cell
/// genuinely exercises its response policy; classes a scheme has no
/// component for (e.g. network faults on a single-device scheme) simply
/// leave its counters at zero.
fn fault_classes(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        ("gpu_slowdown", FaultPlan::gpu_slowdown(seed ^ 1, 1.0, 3)),
        ("gpu_hang", FaultPlan::gpu_hang(seed ^ 2, 1.0)),
        ("gpu_abort", FaultPlan::gpu_abort(seed ^ 3, 1.0)),
        ("net_delay", FaultPlan::net_delay(seed ^ 4, 1.0, 3)),
        ("net_drop", FaultPlan::net_drop(seed ^ 5, 1.0)),
        ("dead_component", FaultPlan::dead_component(seed ^ 6, 1.0)),
    ]
}

/// Runs the full {fault class} × {scheme} matrix for one game from
/// `position` and returns one record per cell, in the fixed class-outer,
/// scheme-inner order the determinism diffs pin.
fn matrix_for<G: Game>(args: &BenchArgs, position: G) -> Vec<JsonObject> {
    let iters = if args.full { 12 } else { 4 };
    let budget = SearchBudget::Iterations(iters);
    let ranks = if args.full { 3 } else { 2 };
    let launch = LaunchConfig::new(4, 32);
    let net = NetworkModel::infiniband();
    let host_threads = args.host_threads_or(2);
    let pool = Arc::new(WorkerPool::new(host_threads));
    let device = || Device::new(DeviceSpec::tesla_c2050()).with_host_threads(host_threads);

    let classes = fault_classes(args.seed);
    let mut records: Vec<JsonObject> = Vec::new();
    // Roster meta-record first: check_bench.py validates that every listed
    // class x scheme cell appears exactly once, in this order.
    records.push(
        JsonObject::new()
            .str_field("kind", "roster")
            .str_field("schemes", &SCHEMES.join(","))
            .str_field(
                "fault_classes",
                &classes
                    .iter()
                    .map(|(name, _)| *name)
                    .collect::<Vec<_>>()
                    .join(","),
            ),
    );
    for (class, plan) in classes {
        let cfg = MctsConfig::default().with_seed(args.seed).with_faults(plan);
        let mut ran: Vec<&'static str> = Vec::new();
        let mut run = |scheme: &'static str, searcher: &mut dyn Searcher<G>| {
            let r = searcher.search(position, budget);
            let best = r
                .best_move
                .unwrap_or_else(|| panic!("{scheme}/{class}: search produced no move"));
            assert_eq!(
                r.phases.phase_sum(),
                r.elapsed,
                "{scheme}/{class}: phase sum must equal elapsed exactly"
            );
            ran.push(scheme);
            records.push(
                phase_record(scheme, &r)
                    .str_field("fault_class", class)
                    .str_field("best_move", &format!("{best:?}")),
            );
        };

        run(
            "leaf_parallel",
            &mut LeafParallelSearcher::<G>::new(cfg.clone(), device(), launch),
        );
        run(
            "block_parallel",
            &mut BlockParallelSearcher::<G>::new(cfg.clone(), device(), launch),
        );
        run(
            // Degradation ladder: hang → costed dry-run + retry once →
            // host block-parallel fallback for the rest of the move.
            "device_tree",
            &mut DeviceTreeSearcher::<G>::new(cfg.clone(), device(), launch),
        );
        run(
            "hybrid",
            &mut HybridSearcher::<G>::new(cfg.clone(), device(), launch),
        );
        run(
            "root_parallel",
            &mut RootParallelSearcher::<G>::new(cfg.clone(), 4).with_pool(Arc::clone(&pool)),
        );
        run(
            "multi_gpu",
            &mut MultiGpuSearcher::<G>::new(
                cfg.clone(),
                ranks,
                DeviceSpec::tesla_c2050(),
                launch,
                net,
            )
            .with_pool(Arc::clone(&pool)),
        );
        run(
            "multi_node_cpu",
            &mut MultiNodeCpuSearcher::<G>::new(cfg.clone(), ranks, 2, net),
        );
        run(
            // Shared tree, selection corrected by in-flight counts; voided
            // launches must roll the counts back exactly (DESIGN.md §16).
            "wu_uct",
            &mut WuUctSearcher::<G>::new(cfg.clone(), device(), launch),
        );
        run(
            // Faults break the select/kernel overlap: the hung wave resolves
            // serially, then the pipeline refills (DESIGN.md §16).
            "pipelined",
            &mut PipelinedSearcher::<G>::new(cfg.clone(), device(), launch),
        );
        assert_eq!(ran, SCHEMES, "{class}: run calls drifted from SCHEMES");
    }
    records
}

/// Runs {fault class} × {session scheme} on the search service: per cell,
/// four sessions of one scheme (search seeds `seed..seed+4`) share every
/// merged launch of one service.
fn service_matrix(args: &BenchArgs, position: Reversi) -> Vec<JsonObject> {
    let iters = if args.full { 12 } else { 4 };
    let host_threads = args.host_threads_or(2);
    let classes = fault_classes(args.seed);
    let schemes: Vec<&str> = SESSION_SCHEMES.iter().map(|(name, _)| *name).collect();
    let class_names: Vec<&str> = classes.iter().map(|(name, _)| *name).collect();
    let mut records = vec![JsonObject::new()
        .str_field("kind", "roster")
        .str_field("schemes", &schemes.join(","))
        .str_field("fault_classes", &class_names.join(","))
        .str_field("inert_classes", &SERVICE_INERT.join(","))];
    for (class, plan) in classes {
        for (scheme, session) in SESSION_SCHEMES {
            let device = Device::new(DeviceSpec::tesla_c2050()).with_host_threads(host_threads);
            let mut svc = SearchService::<Reversi>::new(device, 32, args.seed);
            for s in 0..SESSIONS_PER_CELL {
                let cfg = MctsConfig::default()
                    .with_seed(args.seed + s)
                    .with_faults(plan);
                svc.admit(
                    position,
                    SearchBudget::Iterations(iters),
                    cfg,
                    session,
                    None,
                );
            }
            svc.run_to_completion();
            let done = svc.take_completed();
            assert_eq!(done.len() as u64, SESSIONS_PER_CELL, "{scheme}/{class}");
            for c in &done {
                let r = &c.report;
                assert!(r.best_move.is_some(), "{scheme}/{class}: no move");
                assert_eq!(r.phases.phase_sum(), r.elapsed, "{scheme}/{class}: ledger");
                assert_eq!(
                    c.completed_at - c.admitted_at,
                    r.elapsed,
                    "{scheme}/{class}"
                );
            }
            let first = &done[0];
            let best = first.report.best_move;
            records.push(
                phase_record(scheme, &first.report)
                    .str_field("fault_class", class)
                    .str_field("best_move", &format!("{:?}", best.expect("asserted above")))
                    .u64_field("sessions", SESSIONS_PER_CELL)
                    .u64_field("launches", svc.launch_totals().launches)
                    .u64_field(
                        "latency_ns",
                        (first.completed_at - first.admitted_at).as_nanos(),
                    ),
            );
        }
    }
    records
}

fn main() {
    let args = BenchArgs::parse();
    let iters = if args.full { 12 } else { 4 };

    let records = matrix_for::<Reversi>(&args, midgame_position(args.seed, 20));
    // Hex 11×11 from a 40-ply random prefix: mid-game at the same relative
    // depth as Reversi ply 20 (121-cell board, no captures, ~115 plies).
    let hex_records = matrix_for::<Hex11>(&args, midgame_position_of::<Hex11>(args.seed, 40));

    eprintln!(
        "{} cells per game × 2 games ({} fault classes × {} schemes), {iters} iterations each",
        records.len() - 1,
        fault_classes(args.seed).len(),
        SCHEMES.len(),
    );
    let service_records = service_matrix(&args, midgame_position(args.seed, 20));
    write_json("fault_matrix", &records, &args);
    write_json("fault_matrix_hex11", &hex_records, &args);
    write_json("fault_matrix_service", &service_records, &args);
}
