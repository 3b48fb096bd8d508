//! Wall-clock throughput of the real execution engine.
//!
//! Everything the other binaries report is *virtual* time from the cost
//! models; this binary is the exception that measures how fast the host
//! actually grinds through the work (DESIGN.md §7). Five layers:
//!
//! 1. **Raw playouts** — allocation-free `random_playout` on one core,
//!    on Reversi and on Hex 11×11. The Hex record times the engine
//!    against the list-and-flood reference playout
//!    (`pmcts_bench::hex_reference`) and against 8-lane `LaneBatch`
//!    batches, on the same roots and streams, asserted equal first; the
//!    summary's `hex_playout_speedup_vs_reference` is gated at ≥ 2.0x, and
//!    `hex_lanes_speedup_vs_scalar` at ≥ 2.0x where the AVX-512 loop ran.
//! 2. **Kernel simulation** — the same launch executed by the retained
//!    per-step lockstep interpreter (`execute_kernel_lockstep`, the
//!    pre-optimisation engine and correctness oracle) and by the
//!    run-to-completion engine (1-thread pool and default pool). The
//!    summary record's `kernel_speedup_vs_lockstep` is the acceptance
//!    number for the engine rewrite.
//! 3. **Full searches** — wall-clock iterations/s and playouts/s for the
//!    main schemes on fixed seeds, each the best of five passes of at
//!    least 20 ms. The `search` records also carry each scheme's
//!    *virtual* simulations/second; the summary's
//!    `device_tree_speedup_vs_block_parallel` compares the device-resident
//!    tree against block parallelism at the same grid and iteration
//!    budget (gate: ≥ 1.5x, see `scripts/check_bench.py`), and
//!    `device_tree_wall_vs_block_parallel` their wall playouts/s (gate:
//!    ≥ 0.3x). `root_parallel_lanes_speedup_vs_sequential` is eight
//!    root-parallel trees on one worker, whose playouts run as lane
//!    batches, against the sequential search on the same per-tree budget
//!    (gate: ≥ 1.5x).
//! 4. **Tree operations** — select/expand/backprop ops/s on a prebuilt
//!    ~50k-node tree, measured on the original array-of-structs layout
//!    (`AosSearchTree`, retained as a baseline) and the SoA `SearchTree`,
//!    plus per-scheme host-phase loops replayed on both layouts. The
//!    summary's `tree_ops_*_speedup_vs_aos` and `host_phase_speedup_*`
//!    fields are the acceptance numbers for the SoA tree rewrite.
//! 5. **Bounded recycling** — a capacity-capped tree driven past its cap
//!    (fill, one untimed settle window, two timed windows) against an
//!    unbounded reference on the same drive loop. The run executes twice
//!    and must produce identical checksums (eviction determinism); the
//!    summary's `bounded_steady_state_vs_unbounded` is the acceptance
//!    number for LRU recycling + the transposition table (gate: >= 1.0x,
//!    see `scripts/check_bench.py`).
//!
//! Outputs and `KernelStats` of the two engines are asserted equal before
//! timing, so the speedup is measured on provably identical work; the two
//! tree layouts are grown through identical operation sequences (the
//! equivalence oracle in `pmcts_bench::tree_aos` proves them bit-identical).
//!
//! Run: `cargo run --release -p pmcts-bench --bin throughput -- [--full]`
//! (`--out DIR` also writes `DIR/BENCH_throughput.json`).

use pmcts_bench::hex_reference::reference_playout;
use pmcts_bench::tree_aos::AosSearchTree;
use pmcts_bench::{midgame_position, midgame_position_of, write_json, BenchArgs, JsonObject};
use pmcts_core::gpu::PlayoutKernel;
use pmcts_core::prelude::*;
use pmcts_core::tree::SearchTree;
use pmcts_games::PlayoutResult;
use pmcts_gpu_sim::executor::{execute_kernel, execute_kernel_lockstep};
use pmcts_gpu_sim::WorkerPool;
use pmcts_util::{Rng64, Xoshiro256pp};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn secs(wall_ns: u64) -> f64 {
    wall_ns as f64 / 1e9
}

fn rate(count: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        count as f64 / secs(wall_ns)
    }
}

/// Raw single-core playout throughput on a mid-game position.
/// Also returns playouts/s — the scalar baseline the lane gate divides by.
fn bench_cpu_playouts(position: Reversi, playouts: u64, seed: u64) -> (JsonObject, f64) {
    let mut rng = Xoshiro256pp::derive(seed, 0xBEEF);
    let mut plies = 0u64;
    let mut wins = 0u64; // fold the outcome so the loop cannot be optimised out
    let start = Instant::now();
    for _ in 0..playouts {
        let r = pmcts_games::random_playout(position, &mut rng);
        plies += u64::from(r.plies);
        if matches!(r.outcome, Outcome::Win(Player::P1)) {
            wins += 1;
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    assert!(wins > 0 && wins < playouts, "degenerate playout sample");
    let record = JsonObject::new()
        .str_field("record", "cpu_playouts")
        .u64_field("playouts", playouts)
        .u64_field("plies", plies)
        .u64_field("wall_ns", wall_ns)
        .f64_field("playouts_per_sec", rate(playouts, wall_ns))
        .f64_field("plies_per_sec", rate(plies, wall_ns));
    (record, rate(playouts, wall_ns))
}

/// Folds one playout result into a running checksum.
fn fold_playout(checksum: u64, r: &PlayoutResult) -> u64 {
    let outcome_code = match r.outcome {
        Outcome::Win(Player::P1) => 1u64,
        Outcome::Win(Player::P2) => 2,
        Outcome::Draw => 3,
    };
    let enc =
        (u64::from(r.plies) << 10) | (outcome_code << 8) | (r.final_score as i64 as u64 & 0xFF);
    checksum.wrapping_mul(0x100_0000_01B3).wrapping_add(enc)
}

/// Hex roots of the `hex_playouts` record: 16 positions of 0–60 plies.
const HEX_ROOTS: u64 = 16;
/// Salt of the `hex_playouts` streams: playout `j` draws from
/// `Xoshiro256pp::derive(seed ^ HEX_STREAMS, j)`.
const HEX_STREAMS: u64 = 0x4E11;
/// Timed rounds per side of the `hex_playouts` record; each side keeps its
/// fastest round.
const HEX_ROUNDS: u32 = 3;

/// The stream of `hex_playouts` playout `j`.
fn hex_stream(seed: u64, j: u64) -> Xoshiro256pp {
    Xoshiro256pp::derive(seed ^ HEX_STREAMS, j)
}

/// `playouts` Hex 11×11 playouts round-robin over `roots`, playout `j` on
/// its own derived stream, by `play`: (checksum, plies, wall_ns).
fn time_hex_playouts(
    roots: &[Hex11],
    playouts: u64,
    seed: u64,
    play: impl Fn(&Hex11, &mut Xoshiro256pp) -> PlayoutResult,
) -> (u64, u64, u64) {
    let mut checksum = 0u64;
    let mut plies = 0u64;
    let start = Instant::now();
    for j in 0..playouts {
        let r = play(&roots[(j % HEX_ROOTS) as usize], &mut hex_stream(seed, j));
        plies += u64::from(r.plies);
        checksum = fold_playout(checksum, &r);
    }
    (checksum, plies, start.elapsed().as_nanos() as u64)
}

/// The same playouts as [`time_hex_playouts`], as `LaneBatch<Hex11, 8>`
/// batches of 8 consecutive playouts (`playouts` a multiple of 8):
/// (checksum, plies, wall_ns).
fn time_hex_lanes(roots: &[Hex11], playouts: u64, seed: u64) -> (u64, u64, u64) {
    assert_eq!(playouts % 8, 0, "hex lane batches are whole");
    let mut checksum = 0u64;
    let mut plies = 0u64;
    let start = Instant::now();
    for first in (0..playouts).step_by(8) {
        let j = |i: usize| first + i as u64;
        let batch = pmcts_games::LaneBatch::<Hex11, 8>::new(
            std::array::from_fn(|i| roots[(j(i) % HEX_ROOTS) as usize]),
            std::array::from_fn(|i| hex_stream(seed, j(i))),
        );
        for r in batch.run() {
            plies += u64::from(r.plies);
            checksum = fold_playout(checksum, &r);
        }
    }
    (checksum, plies, start.elapsed().as_nanos() as u64)
}

/// Single-core Hex 11×11 playout throughput (the `games.playout` and
/// `games.lane_batch` layers): `random_playout::<Hex11>` against the
/// list-and-flood reference and against `LaneBatch<Hex11, 8>` on the same
/// roots and streams. The reference is asserted equal to the engine
/// first, results and final streams included; then the three alternate
/// for [`HEX_ROUNDS`] rounds, every round asserting equal checksums, and
/// each keeps its fastest. Returns the record plus the engine's speedup
/// over the reference and the lane batches' speedup over the engine.
fn bench_hex_playouts(playouts: u64, seed: u64) -> (JsonObject, f64, f64) {
    let roots: Vec<Hex11> = (0..HEX_ROOTS)
        .map(|i| midgame_position_of(seed ^ i, 4 * i as u32))
        .collect();
    for j in 0..16 * HEX_ROOTS {
        let root = roots[(j % HEX_ROOTS) as usize];
        let mut engine = hex_stream(seed, j);
        let mut reference = engine.clone();
        assert_eq!(
            pmcts_games::random_playout(root, &mut engine),
            reference_playout(&root, &mut reference),
            "hex playout {j} diverged from the reference"
        );
        assert_eq!(engine, reference, "hex playout {j}: final stream diverged");
    }
    let mut best = (u64::MAX, u64::MAX, u64::MAX);
    let mut sums = None;
    let mut reference_checksum = 0;
    let mut lanes_checksum = 0;
    for _ in 0..HEX_ROUNDS {
        let (ref_sum, ref_plies, ref_ns) =
            time_hex_playouts(&roots, playouts, seed, |root, rng| {
                reference_playout(root, rng)
            });
        let (sum, plies, ns) = time_hex_playouts(&roots, playouts, seed, |root, rng| {
            pmcts_games::random_playout(*root, rng)
        });
        let (lanes_sum, lanes_plies, lanes_ns) = time_hex_lanes(&roots, playouts, seed);
        assert_eq!((sum, plies), (ref_sum, ref_plies), "hex playouts diverged");
        assert_eq!(
            (sum, plies),
            (lanes_sum, lanes_plies),
            "hex lane playouts diverged"
        );
        assert!(
            sums.is_none_or(|s| s == (sum, plies)),
            "hex playouts nondeterministic"
        );
        sums = Some((sum, plies));
        reference_checksum = ref_sum;
        lanes_checksum = lanes_sum;
        best = (best.0.min(ns), best.1.min(ref_ns), best.2.min(lanes_ns));
    }
    let (checksum, plies) = sums.expect("at least one round");
    let (wall_ns, reference_wall_ns, lanes_wall_ns) = best;
    let lane_variant = if pmcts_games::hex::vector_loop_available() {
        "avx512_loop"
    } else {
        "scalar"
    };
    let record = JsonObject::new()
        .str_field("record", "hex_playouts")
        .str_field("game", "hex11")
        .u64_field("roots", HEX_ROOTS)
        .u64_field("rounds", u64::from(HEX_ROUNDS))
        .u64_field("playouts", playouts)
        .u64_field("plies", plies)
        .u64_field("wall_ns", wall_ns)
        .f64_field("playouts_per_sec", rate(playouts, wall_ns))
        .u64_field("reference_wall_ns", reference_wall_ns)
        .f64_field(
            "reference_playouts_per_sec",
            rate(playouts, reference_wall_ns),
        )
        .u64_field("lanes_wall_ns", lanes_wall_ns)
        .f64_field("lanes_playouts_per_sec", rate(playouts, lanes_wall_ns))
        .str_field("lane_variant", lane_variant)
        .u64_field("checksum", checksum)
        .u64_field("reference_checksum", reference_checksum)
        .u64_field("lanes_checksum", lanes_checksum);
    let engine_rate = rate(playouts, wall_ns);
    (
        record,
        engine_rate / rate(playouts, reference_wall_ns),
        rate(playouts, lanes_wall_ns) / engine_rate,
    )
}

/// Single-core multi-lane playout throughput at lane width `N`
/// (DESIGN.md §15).
///
/// Same position and total playout count as [`bench_cpu_playouts`]
/// (rounded down to whole `N`-wide batches), one derived RNG stream per
/// playout — the kernel's stream discipline. The workload runs twice and
/// both checksums are recorded; `check_bench.py` requires them equal
/// (lane batching is deterministic). Returns the record plus playouts/s.
fn bench_playout_lanes<const N: usize>(
    position: Reversi,
    playouts: u64,
    seed: u64,
) -> (JsonObject, f64) {
    let groups = playouts / N as u64;
    let run = || {
        let mut checksum = 0u64;
        let mut plies = 0u64;
        let start = Instant::now();
        for g in 0..groups {
            let rngs: [Xoshiro256pp; N] = std::array::from_fn(|i| {
                Xoshiro256pp::derive(seed ^ 0x1A9E5, g * N as u64 + i as u64)
            });
            for r in pmcts_games::LaneBatch::new([position; N], rngs).run() {
                plies += u64::from(r.plies);
                checksum = fold_playout(checksum, &r);
            }
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        (checksum, plies, wall_ns)
    };
    let (checksum, plies, wall_ns) = run();
    let (rerun, _, _) = run();
    assert_eq!(checksum, rerun, "lane playouts must be deterministic");
    let done = groups * N as u64;
    let record = JsonObject::new()
        .str_field("record", "playout_lanes")
        .u64_field("lanes", N as u64)
        .u64_field("playouts", done)
        .u64_field("plies", plies)
        .u64_field("wall_ns", wall_ns)
        .f64_field("playouts_per_sec", rate(done, wall_ns))
        .f64_field("plies_per_sec", rate(plies, wall_ns))
        .u64_field("checksum", checksum)
        .u64_field("checksum_rerun", rerun);
    (record, rate(done, wall_ns))
}

/// One engine's wall-clock over `reps` launches of per-rep kernels.
/// Returns the record plus (lane_steps_per_sec, wall_ns) for the summary.
fn bench_engine<F>(
    name: &str,
    kernels: &[PlayoutKernel<Reversi>],
    launch: LaunchConfig,
    mut run: F,
) -> (JsonObject, f64)
where
    F: FnMut(&PlayoutKernel<Reversi>) -> pmcts_gpu_sim::LaunchResult<pmcts_core::gpu::LaneOutcome>,
{
    // Warm up (page in code + pool threads), then time.
    let warm = run(&kernels[0]);
    let mut lane_steps = 0u64;
    let mut playouts = 0u64;
    let start = Instant::now();
    for k in kernels {
        let r = run(k);
        lane_steps += r.stats.lane_steps;
        playouts += u64::from(r.stats.threads);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let steps_per_sec = rate(lane_steps, wall_ns);
    let record = JsonObject::new()
        .str_field("record", "kernel_engine")
        .str_field("engine", name)
        .u64_field("blocks", u64::from(launch.blocks))
        .u64_field("threads_per_block", u64::from(launch.threads_per_block))
        .u64_field("launches", kernels.len() as u64)
        .u64_field("lane_steps", lane_steps)
        .u64_field("playouts", playouts)
        .u64_field("wall_ns", wall_ns)
        .f64_field("lane_steps_per_sec", steps_per_sec)
        .f64_field("playouts_per_sec", rate(playouts, wall_ns))
        .f64_field("lane_efficiency", warm.stats.lane_efficiency());
    (record, steps_per_sec)
}

/// Timed passes per `search` record; each pass lasts at least
/// [`MIN_PASS`] of wall, and the record keeps the fastest.
const SEARCH_PASSES: u32 = 5;
const MIN_PASS: Duration = Duration::from_millis(20);

/// Wall-clock of full searches, as iterations/s and playouts/s: the best
/// of [`SEARCH_PASSES`] passes, each repeating the search on fresh
/// searchers from `make` (identical work every time) until it has run for
/// [`MIN_PASS`]. Also returns the wall playouts/s and the *virtual*
/// simulations/second, so the summary can compare schemes on both clocks.
fn bench_search(
    scheme: &str,
    budget: SearchBudget,
    make: &dyn Fn() -> Box<dyn Searcher<Reversi>>,
    position: Reversi,
) -> (JsonObject, f64, f64) {
    let mut report = None;
    let mut best: Option<(u64, u64)> = None; // (searches, wall_ns)
    for _ in 0..SEARCH_PASSES {
        let (mut searches, mut wall) = (0u64, Duration::ZERO);
        while wall < MIN_PASS {
            let mut searcher = make();
            let start = Instant::now();
            let r = searcher.search(position, budget);
            wall += start.elapsed();
            searches += 1;
            report = Some(r);
        }
        let wall_ns = wall.as_nanos() as u64;
        if best.is_none_or(|(n, ns)| rate(searches, wall_ns) > rate(n, ns)) {
            best = Some((searches, wall_ns));
        }
    }
    let report = report.expect("at least one search");
    let (searches, wall_ns) = best.expect("at least one pass");
    let wall_rate = rate(report.simulations * searches, wall_ns);
    let virtual_rate = report.sims_per_second();
    let record = JsonObject::new()
        .str_field("record", "search")
        .str_field("scheme", scheme)
        .u64_field("iterations", report.iterations)
        .u64_field("simulations", report.simulations)
        .u64_field("passes", u64::from(SEARCH_PASSES))
        .u64_field("searches", searches)
        .u64_field("wall_ns", wall_ns)
        .f64_field(
            "iterations_per_sec",
            rate(report.iterations * searches, wall_ns),
        )
        .f64_field("playouts_per_sec", wall_rate)
        .f64_field("virtual_sims_per_sec", virtual_rate);
    (record, wall_rate, virtual_rate)
}

const EXPLORATION_C: f64 = 1.4;

/// Ops/s rates of one layout's tree operations, for the summary.
struct OpsRates {
    select: f64,
    expand: f64,
    backprop: f64,
}

/// Grows a SoA tree to `nodes` nodes through the canonical MCTS loop.
fn grow_soa(position: Reversi, nodes: usize, seed: u64) -> SearchTree<Reversi> {
    let mut tree = SearchTree::new(position);
    let mut rng = Xoshiro256pp::new(seed);
    let mut i = 0u64;
    while tree.len() < nodes {
        let id = tree.select(EXPLORATION_C);
        let node = if !tree.fully_expanded(id) {
            tree.expand(id, &mut rng)
        } else {
            id
        };
        tree.backprop(node, (i % 3) as f64 / 2.0, 1);
        i += 1;
    }
    tree
}

/// Grows the baseline AoS tree through the identical operation sequence.
fn grow_aos(position: Reversi, nodes: usize, seed: u64) -> AosSearchTree<Reversi> {
    let mut tree = AosSearchTree::new(position);
    let mut rng = Xoshiro256pp::new(seed);
    let mut i = 0u64;
    while tree.len() < nodes {
        let id = tree.select(EXPLORATION_C);
        let node = if !tree.node(id).fully_expanded() {
            tree.expand(id, &mut rng)
        } else {
            id
        };
        tree.backprop(node, (i % 3) as f64 / 2.0, 1);
        i += 1;
    }
    tree
}

/// One layout's tree-op record: select / expand / backprop ops/s on a
/// prebuilt tree. `expandable` and `leaf` come from the caller so both
/// layouts time exactly the same node sets.
///
/// A *select op* is one UCB argmax over one expanded node's children; the
/// benchmark sweeps every expanded node of the tree, so each pass touches
/// the whole working set — a cold-cache selection workload. (Timing
/// root-to-leaf `select` calls instead would rewalk one unchanging,
/// L1-resident path and measure nothing about layout.)
#[allow(clippy::too_many_arguments)]
fn tree_ops_record(
    layout: &str,
    nodes: u64,
    select_sweeps: u64,
    steps_per_sweep: u64,
    backprop_ops: u64,
    select_sweep: impl Fn() -> u64,
    expand: impl FnOnce() -> (u64, u64),
    backprop: impl FnOnce(u64) -> u64,
) -> (JsonObject, OpsRates) {
    let mut checksum = 0u64;
    let start = Instant::now();
    for _ in 0..select_sweeps {
        checksum = checksum.wrapping_add(select_sweep());
    }
    let select_ns = start.elapsed().as_nanos() as u64;
    let select_ops = select_sweeps * steps_per_sweep;

    let start = Instant::now();
    let (expand_ops, expand_sum) = expand();
    let expand_ns = start.elapsed().as_nanos() as u64;
    checksum = checksum.wrapping_add(expand_sum);

    let start = Instant::now();
    checksum = checksum.wrapping_add(backprop(backprop_ops));
    let backprop_ns = start.elapsed().as_nanos() as u64;

    let rates = OpsRates {
        select: rate(select_ops, select_ns),
        expand: rate(expand_ops, expand_ns),
        backprop: rate(backprop_ops, backprop_ns),
    };
    let record = JsonObject::new()
        .str_field("record", "tree_ops")
        .str_field("layout", layout)
        .u64_field("nodes", nodes)
        .u64_field("select_ops", select_ops)
        .u64_field("expand_ops", expand_ops)
        .u64_field("backprop_ops", backprop_ops)
        .u64_field("select_wall_ns", select_ns)
        .u64_field("expand_wall_ns", expand_ns)
        .u64_field("backprop_wall_ns", backprop_ns)
        .f64_field("select_ops_per_sec", rates.select)
        .f64_field("expand_ops_per_sec", rates.expand)
        .f64_field("backprop_ops_per_sec", rates.backprop)
        .u64_field("checksum", checksum);
    (record, rates)
}

/// Times select/expand/backprop on both layouts over structurally
/// identical prebuilt trees; returns the two records plus SoA-over-AoS
/// speedups (select, expand, backprop).
fn bench_tree_ops(
    position: Reversi,
    nodes: usize,
    select_ops: u64,
    backprop_ops: u64,
    seed: u64,
) -> (Vec<JsonObject>, [f64; 3]) {
    let soa = grow_soa(position, nodes, seed);
    let aos = grow_aos(position, nodes, seed);
    assert_eq!(soa.len(), aos.len(), "layouts must grow identically");

    // Same expanded-node set, same frontier and same deepest leaf for both
    // layouts (the trees are bit-identical, so these are shared).
    let internal: Vec<u32> = (0..soa.len() as u32)
        .filter(|&id| !soa.children(id).is_empty())
        .collect();
    let steps_per_sweep = internal.len() as u64;
    let select_sweeps = (select_ops / steps_per_sweep.max(1)).max(1);
    let mut expandable: Vec<u32> = (0..soa.len() as u32)
        .filter(|&id| soa.untried_len(id) > 0)
        .collect();
    expandable.truncate(25_000);
    let leaf = (0..soa.len() as u32)
        .max_by_key(|&id| soa.depth(id))
        .expect("non-empty tree");

    let (soa_rec, soa_rates) = tree_ops_record(
        "soa",
        soa.len() as u64,
        select_sweeps,
        steps_per_sweep,
        backprop_ops,
        || {
            // The SoA selection step: ln hoisted once per parent, children
            // read from the shared slab, stats from the dense hot arrays.
            let mut acc = 0u64;
            for &id in &internal {
                let ln_parent = (soa.visits(id).max(1) as f64).ln();
                let mut best = 0u32;
                let mut best_value = f64::NEG_INFINITY;
                for &child in soa.children(id) {
                    let value = pmcts_core::ucb::ucb1_with_ln(
                        ln_parent,
                        soa.visits(child),
                        soa.wins(child),
                        EXPLORATION_C,
                    );
                    if value > best_value {
                        best_value = value;
                        best = child;
                    }
                }
                acc = acc.wrapping_add(u64::from(best));
            }
            acc
        },
        || {
            let mut t = soa.clone();
            let mut rng = Xoshiro256pp::new(seed ^ 0xE1);
            let mut sum = 0u64;
            for &id in &expandable {
                sum = sum.wrapping_add(u64::from(t.expand(id, &mut rng)));
            }
            (expandable.len() as u64, sum)
        },
        |ops| {
            let mut t = soa.clone();
            for i in 0..ops {
                t.backprop(leaf, (i % 3) as f64 / 2.0, 1);
            }
            t.visits(leaf)
        },
    );
    let (aos_rec, aos_rates) = tree_ops_record(
        "aos",
        aos.len() as u64,
        select_sweeps,
        steps_per_sweep,
        backprop_ops,
        || {
            // The original selection step: per-child `ucb1` (ln recomputed
            // every child), children behind each node's own Vec, stats read
            // through the full-width node structs.
            let mut acc = 0u64;
            for &id in &internal {
                let node = aos.node(id);
                let mut best = 0u32;
                let mut best_value = f64::NEG_INFINITY;
                for &child in &node.children {
                    let c = aos.node(child);
                    let value = pmcts_core::ucb::ucb1(node.visits, c.visits, c.wins, EXPLORATION_C);
                    if value > best_value {
                        best_value = value;
                        best = child;
                    }
                }
                acc = acc.wrapping_add(u64::from(best));
            }
            acc
        },
        || {
            let mut t = aos.clone();
            let mut rng = Xoshiro256pp::new(seed ^ 0xE1);
            let mut sum = 0u64;
            for &id in &expandable {
                sum = sum.wrapping_add(u64::from(t.expand(id, &mut rng)));
            }
            (expandable.len() as u64, sum)
        },
        |ops| {
            let mut t = aos.clone();
            for i in 0..ops {
                t.backprop(leaf, (i % 3) as f64 / 2.0, 1);
            }
            t.node(leaf).visits
        },
    );
    let speedups = [
        soa_rates.select / aos_rates.select,
        soa_rates.expand / aos_rates.expand,
        soa_rates.backprop / aos_rates.backprop,
    ];
    (vec![soa_rec, aos_rec], speedups)
}

/// Steady-state throughput of the capacity-capped tree (DESIGN.md §12).
///
/// Runs the canonical MCTS loop on a bounded arena until it fills, then
/// times two consecutive windows in which **every** expansion recycles an
/// evicted slot — the fixed-RSS regime long-lived sessions run in. The
/// identical loop on an unbounded tree (same warmup, same timed iteration
/// count) is the reference: the unbounded tree keeps growing while the
/// capped arena stays cache-resident, so steady-state throughput at cap
/// must hold at ≥ 1.0x unbounded (`bounded_steady_state_vs_unbounded`,
/// gated by check_bench.py). The bounded pass runs twice and reports both
/// checksums: recycling is deterministic, so they must be equal.
fn bench_bounded_tree_ops(
    position: Reversi,
    cap: u32,
    window: u64,
    seed: u64,
) -> (Vec<JsonObject>, f64, f64) {
    struct BoundedPass {
        checksum: u64,
        warmup_iters: u64,
        rate_a: f64,
        rate_b: f64,
        wall_ns: u64,
        live_nodes: u64,
        evictions: u64,
        tt: TransStats,
    }
    let drive = |tree: &mut SearchTree<Reversi>, rng: &mut Xoshiro256pp, i: u64| -> u64 {
        let sel = tree.select(EXPLORATION_C);
        let node = if !tree.fully_expanded(sel) {
            tree.expand(sel, rng)
        } else {
            sel
        };
        tree.backprop(node, (i % 3) as f64 / 2.0, 1);
        u64::from(node)
    };
    let run_bounded = || {
        let mut tree = SearchTree::bounded(position, cap);
        let mut rng = Xoshiro256pp::new(seed);
        let mut checksum = 0u64;
        let mut i = 0u64;
        // Warmup: fill the arena, so the timed windows only see recycling.
        while tree.live_nodes() < cap as usize {
            checksum = checksum.wrapping_add(drive(&mut tree, &mut rng, i));
            i += 1;
        }
        // Settle: one full untimed window after the fill, so the timed
        // windows see a saturated transposition table and a recycling-
        // shaped tree, not the transition into that regime.
        for _ in 0..window {
            checksum = checksum.wrapping_add(drive(&mut tree, &mut rng, i));
            i += 1;
        }
        let warmup_iters = i;
        let start = Instant::now();
        for _ in 0..window {
            checksum = checksum.wrapping_add(drive(&mut tree, &mut rng, i));
            i += 1;
        }
        let a_ns = start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        for _ in 0..window {
            checksum = checksum.wrapping_add(drive(&mut tree, &mut rng, i));
            i += 1;
        }
        let b_ns = start.elapsed().as_nanos() as u64;
        checksum = checksum
            .wrapping_add(tree.visits(tree.root()))
            .wrapping_add(tree.evictions());
        BoundedPass {
            checksum,
            warmup_iters,
            rate_a: rate(window, a_ns),
            rate_b: rate(window, b_ns),
            wall_ns: a_ns + b_ns,
            live_nodes: tree.live_nodes() as u64,
            evictions: tree.evictions(),
            tt: tree.transposition_stats().expect("bounded tree"),
        }
    };

    let pass = run_bounded();
    let rerun = run_bounded();
    // The unbounded reference warms up for the same iteration count the
    // bounded pass needed to fill its arena.
    let warmup = pass.warmup_iters;
    assert_eq!(
        pass.checksum, rerun.checksum,
        "bounded recycling must be deterministic"
    );

    let (unbounded_rate, unbounded_ns, unbounded_nodes, unbounded_checksum) = {
        let mut tree = SearchTree::new(position);
        let mut rng = Xoshiro256pp::new(seed);
        let mut checksum = 0u64;
        let mut i = 0u64;
        while i < warmup {
            checksum = checksum.wrapping_add(drive(&mut tree, &mut rng, i));
            i += 1;
        }
        let start = Instant::now();
        for _ in 0..2 * window {
            checksum = checksum.wrapping_add(drive(&mut tree, &mut rng, i));
            i += 1;
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        checksum = checksum.wrapping_add(tree.visits(tree.root()));
        (
            rate(2 * window, wall_ns),
            wall_ns,
            tree.len() as u64,
            checksum,
        )
    };

    let steady_rate = rate(2 * window, pass.wall_ns);
    let vs_unbounded = steady_rate / unbounded_rate;
    let window_ratio = pass.rate_b / pass.rate_a;
    let bounded_rec = JsonObject::new()
        .str_field("record", "tree_ops")
        .str_field("layout", "bounded_lru")
        .u64_field("cap", u64::from(cap))
        .u64_field("nodes", pass.live_nodes)
        .u64_field("iters", 2 * window)
        .u64_field("wall_ns", pass.wall_ns)
        .f64_field("iters_per_sec", steady_rate)
        .f64_field("window_a_iters_per_sec", pass.rate_a)
        .f64_field("window_b_iters_per_sec", pass.rate_b)
        .f64_field("steady_window_ratio", window_ratio)
        .u64_field("evictions", pass.evictions)
        .u64_field("tt_hits", pass.tt.hits)
        .u64_field("tt_recovered_visits", pass.tt.recovered_visits)
        .u64_field("tt_drops", pass.tt.drops)
        .u64_field("tt_occupied", pass.tt.occupied)
        .u64_field("checksum", pass.checksum)
        .u64_field("checksum_rerun", rerun.checksum);
    let unbounded_rec = JsonObject::new()
        .str_field("record", "tree_ops")
        .str_field("layout", "unbounded_ref")
        .u64_field("nodes", unbounded_nodes)
        .u64_field("iters", 2 * window)
        .u64_field("wall_ns", unbounded_ns)
        .f64_field("iters_per_sec", unbounded_rate)
        .u64_field("checksum", unbounded_checksum);
    (vec![bounded_rec, unbounded_rec], vs_unbounded, window_ratio)
}

/// Replays one scheme's host-side phase loop — block-order selection,
/// expansion and backprop over `blocks` trees with synthetic kernel
/// results, plus the hybrid scheme's CPU-shadow iteration when `shadow` —
/// on both layouts, and returns the records plus the SoA-over-AoS speedup.
///
/// This is exactly the work the searchers run between kernel launches
/// (single-threaded here; the pool schedule does the same operations in
/// the same per-tree order), so the ratio is the wall-clock host-phase
/// speedup the SoA layout buys each scheme.
fn bench_host_phases(
    scheme: &str,
    blocks: usize,
    lanes_per_block: u32,
    shadow: bool,
    iters: u64,
    position: Reversi,
    seed: u64,
) -> (Vec<JsonObject>, f64) {
    let run_soa = || {
        let mut trees: Vec<SearchTree<Reversi>> =
            (0..blocks).map(|_| SearchTree::new(position)).collect();
        let mut shadow_tree = shadow.then(|| SearchTree::new(position));
        let mut rng = Xoshiro256pp::new(seed);
        let mut outcome = Xoshiro256pp::new(seed ^ 0x5EED);
        let mut frontier = vec![0u32; blocks];
        let start = Instant::now();
        for _ in 0..iters {
            for (b, tree) in trees.iter_mut().enumerate() {
                let sel = tree.select(EXPLORATION_C);
                frontier[b] = if tree.untried_len(sel) > 0 {
                    let pick = rng.next_below(tree.untried_len(sel) as u32);
                    tree.expand_with_pick(sel, pick)
                } else {
                    sel
                };
            }
            for (b, tree) in trees.iter_mut().enumerate() {
                let wins = f64::from(outcome.next_below(lanes_per_block + 1));
                tree.backprop(frontier[b], wins, u64::from(lanes_per_block));
            }
            if let Some(t) = shadow_tree.as_mut() {
                let sel = t.select(EXPLORATION_C);
                let node = if t.untried_len(sel) > 0 {
                    let pick = rng.next_below(t.untried_len(sel) as u32);
                    t.expand_with_pick(sel, pick)
                } else {
                    sel
                };
                t.backprop(node, f64::from(outcome.next_below(2)), 1);
            }
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        let nodes: u64 = trees.iter().map(|t| t.len() as u64).sum();
        (wall_ns, nodes)
    };
    let run_aos = || {
        let mut trees: Vec<AosSearchTree<Reversi>> =
            (0..blocks).map(|_| AosSearchTree::new(position)).collect();
        let mut shadow_tree = shadow.then(|| AosSearchTree::new(position));
        let mut rng = Xoshiro256pp::new(seed);
        let mut outcome = Xoshiro256pp::new(seed ^ 0x5EED);
        let mut frontier = vec![0u32; blocks];
        let start = Instant::now();
        for _ in 0..iters {
            for (b, tree) in trees.iter_mut().enumerate() {
                let sel = tree.select(EXPLORATION_C);
                frontier[b] = if !tree.node(sel).fully_expanded() {
                    tree.expand(sel, &mut rng)
                } else {
                    sel
                };
            }
            for (b, tree) in trees.iter_mut().enumerate() {
                let wins = f64::from(outcome.next_below(lanes_per_block + 1));
                tree.backprop(frontier[b], wins, u64::from(lanes_per_block));
            }
            if let Some(t) = shadow_tree.as_mut() {
                let sel = t.select(EXPLORATION_C);
                let node = if !t.node(sel).fully_expanded() {
                    t.expand(sel, &mut rng)
                } else {
                    sel
                };
                t.backprop(node, f64::from(outcome.next_below(2)), 1);
            }
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        let nodes: u64 = trees.iter().map(|t| t.len() as u64).sum();
        (wall_ns, nodes)
    };

    // Warm up both (page in code, fault in slabs), then time.
    let _ = run_soa();
    let _ = run_aos();
    let (soa_ns, soa_nodes) = run_soa();
    let (aos_ns, aos_nodes) = run_aos();
    assert_eq!(soa_nodes, aos_nodes, "host-phase replays must grow alike");

    let record = |layout: &str, wall_ns: u64, nodes: u64| {
        JsonObject::new()
            .str_field("record", "host_phases")
            .str_field("scheme", scheme)
            .str_field("layout", layout)
            .u64_field("blocks", blocks as u64)
            .u64_field("iters", iters)
            .u64_field("tree_nodes", nodes)
            .u64_field("wall_ns", wall_ns)
            .f64_field("iters_per_sec", rate(iters, wall_ns))
    };
    let speedup = rate(iters, soa_ns) / rate(iters, aos_ns);
    (
        vec![
            record("soa", soa_ns, soa_nodes),
            record("aos", aos_ns, aos_nodes),
        ],
        speedup,
    )
}

fn main() {
    let args = BenchArgs::parse();
    let position = midgame_position(args.seed, 20);
    let spec = DeviceSpec::tesla_c2050();

    let (launch, reps, cpu_playouts, search_iters) = if args.full {
        (LaunchConfig::new(112, 128), 24usize, 200_000u64, 64u64)
    } else {
        (LaunchConfig::new(14, 64), 10, 30_000, 16)
    };
    let (tree_nodes, tree_ops, host_phase_iters) = if args.full {
        (50_000usize, 500_000u64, 6_000u64)
    } else {
        (50_000, 150_000, 2_000)
    };
    // Fresh stream seed per rep: repetitions do distinct (but seed-fixed)
    // work, like consecutive launches of a real search.
    let kernels: Vec<PlayoutKernel<Reversi>> = (0..reps)
        .map(|rep| PlayoutKernel::new(vec![position], args.seed.wrapping_add(rep as u64)))
        .collect();

    // The engines must agree bit-for-bit before their speeds are compared.
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let host_threads = args.host_threads_or(default_threads);
    let pool1 = WorkerPool::new(1);
    let pool = WorkerPool::new(host_threads);
    let fast = execute_kernel(&kernels[0], &launch, &spec, &pool1);
    let oracle = execute_kernel_lockstep(&kernels[0], &launch, &spec);
    assert_eq!(fast.outputs, oracle.outputs, "engine outputs diverged");
    assert_eq!(fast.stats, oracle.stats, "engine stats diverged");

    let mut records: Vec<JsonObject> = Vec::new();
    let (rec, cpu_playout_rate) = bench_cpu_playouts(position, cpu_playouts, args.seed);
    records.push(rec);

    // Multi-lane playout engine at widths 1/4/8; the 8-lane rate against
    // the scalar record above is the PR's acceptance gate (≥ 2.0x,
    // enforced by check_bench.py).
    let (rec, _) = bench_playout_lanes::<1>(position, cpu_playouts, args.seed);
    records.push(rec);
    let (rec, _) = bench_playout_lanes::<4>(position, cpu_playouts, args.seed);
    records.push(rec);
    let (rec, lanes8_rate) = bench_playout_lanes::<8>(position, cpu_playouts, args.seed);
    records.push(rec);
    let playout_lanes_speedup = lanes8_rate / cpu_playout_rate;
    let (rec, hex_playout_speedup, hex_lanes_speedup) = bench_hex_playouts(cpu_playouts, args.seed);
    records.push(rec);

    let (rec, legacy_rate) = bench_engine("legacy_lockstep", &kernels, launch, |k| {
        execute_kernel_lockstep(k, &launch, &spec)
    });
    records.push(rec);
    let (rec, rtc_1t_rate) = bench_engine("rtc_1_thread", &kernels, launch, |k| {
        execute_kernel(k, &launch, &spec, &pool1)
    });
    records.push(rec);
    let (rec, rtc_pool_rate) = bench_engine("rtc_pool", &kernels, launch, |k| {
        execute_kernel(k, &launch, &spec, &pool)
    });
    records.push(rec);

    let cfg = || MctsConfig::default().with_seed(args.seed);
    let device = Device::new(spec.clone()).with_host_threads(host_threads);
    let budget = SearchBudget::Iterations(search_iters);
    // Sequential search against eight root-parallel trees on one worker,
    // each tree on the sequential budget: the trees step in lockstep and
    // play their playouts as lane batches, so the ratio is the lane
    // engine's gain on whole searches (gate: >= 1.5x, enforced by
    // check_bench.py).
    let tree_budget = SearchBudget::Iterations(search_iters * 100);
    let (rec, sequential_rate, _) = bench_search(
        "sequential",
        tree_budget,
        &|| Box::new(SequentialSearcher::<Reversi>::new(cfg())),
        position,
    );
    records.push(rec);
    let one_worker = Arc::new(WorkerPool::new(1));
    let (rec, root_parallel_rate, _) = bench_search(
        "root_parallel",
        tree_budget,
        &|| {
            Box::new(RootParallelSearcher::<Reversi>::with_stream_on(
                cfg(),
                8,
                0,
                Arc::clone(&one_worker),
            ))
        },
        position,
    );
    records.push(rec);
    let root_parallel_speedup = root_parallel_rate / sequential_rate;
    records.push(
        bench_search(
            "leaf_parallel",
            budget,
            &|| {
                Box::new(LeafParallelSearcher::<Reversi>::new(
                    cfg(),
                    device.clone(),
                    launch,
                ))
            },
            position,
        )
        .0,
    );
    let (rec, block_wall_rate, block_virtual_rate) = bench_search(
        "block_parallel",
        budget,
        &|| {
            Box::new(BlockParallelSearcher::<Reversi>::new(
                cfg(),
                device.clone(),
                launch,
            ))
        },
        position,
    );
    records.push(rec);
    // Same grid, same iteration budget: the device-resident tree must beat
    // block parallelism by ≥ 1.5x in virtual simulations/second, and reach
    // ≥ 0.3x its wall playouts/s (both enforced by check_bench.py).
    let (rec, device_tree_wall_rate, device_tree_virtual_rate) = bench_search(
        "device_tree",
        budget,
        &|| {
            Box::new(DeviceTreeSearcher::<Reversi>::new(
                cfg(),
                device.clone(),
                launch,
            ))
        },
        position,
    );
    records.push(rec);
    records.push(
        bench_search(
            "hybrid",
            budget,
            &|| {
                Box::new(HybridSearcher::<Reversi>::new(
                    cfg(),
                    device.clone(),
                    launch,
                ))
            },
            position,
        )
        .0,
    );
    let device_tree_speedup = device_tree_virtual_rate / block_virtual_rate;
    let device_tree_wall_ratio = device_tree_wall_rate / block_wall_rate;

    // Tree operations and host-phase loops, old layout vs SoA.
    let (tree_records, [sel_speedup, exp_speedup, bp_speedup]) =
        bench_tree_ops(position, tree_nodes, tree_ops, tree_ops, args.seed);
    records.extend(tree_records);

    // Capacity-capped steady state: recycling throughput at cap vs the
    // unbounded tree, plus the determinism double-run.
    let (bounded_cap, bounded_window) = if args.full {
        (8192u32, 60_000u64)
    } else {
        (4096, 20_000)
    };
    let (bounded_records, bounded_vs_unbounded, bounded_window_ratio) =
        bench_bounded_tree_ops(position, bounded_cap, bounded_window, args.seed);
    records.extend(bounded_records);

    let mut host_phase_speedups = Vec::new();
    for (scheme, blocks, lanes, shadow) in [
        ("sequential", 1usize, 1u32, false),
        (
            "block_parallel",
            launch.blocks as usize,
            launch.threads_per_block,
            false,
        ),
        (
            "hybrid",
            launch.blocks as usize,
            launch.threads_per_block,
            true,
        ),
    ] {
        let (recs, speedup) = bench_host_phases(
            scheme,
            blocks,
            lanes,
            shadow,
            host_phase_iters,
            position,
            args.seed,
        );
        records.extend(recs);
        host_phase_speedups.push((scheme, speedup));
    }

    let speedup_pool = rtc_pool_rate / legacy_rate;
    let speedup_1t = rtc_1t_rate / legacy_rate;
    let mut summary = JsonObject::new()
        .str_field("record", "summary")
        .str_field("baseline", "legacy_lockstep")
        .u64_field("host_threads", pool.size() as u64)
        .f64_field("legacy_lane_steps_per_sec", legacy_rate)
        .f64_field("rtc_1_thread_lane_steps_per_sec", rtc_1t_rate)
        .f64_field("rtc_pool_lane_steps_per_sec", rtc_pool_rate)
        .f64_field("kernel_speedup_vs_lockstep", speedup_pool)
        .f64_field("kernel_speedup_vs_lockstep_1_thread", speedup_1t)
        .f64_field("playout_lanes_speedup_vs_scalar", playout_lanes_speedup)
        .f64_field("hex_playout_speedup_vs_reference", hex_playout_speedup)
        .f64_field("hex_lanes_speedup_vs_scalar", hex_lanes_speedup)
        .f64_field("tree_ops_select_speedup_vs_aos", sel_speedup)
        .f64_field("tree_ops_expand_speedup_vs_aos", exp_speedup)
        .f64_field("tree_ops_backprop_speedup_vs_aos", bp_speedup)
        .f64_field("bounded_steady_state_vs_unbounded", bounded_vs_unbounded)
        .f64_field("bounded_steady_window_ratio", bounded_window_ratio)
        .f64_field("device_tree_speedup_vs_block_parallel", device_tree_speedup)
        .f64_field("device_tree_wall_vs_block_parallel", device_tree_wall_ratio)
        .f64_field(
            "root_parallel_lanes_speedup_vs_sequential",
            root_parallel_speedup,
        );
    for &(scheme, speedup) in &host_phase_speedups {
        summary = summary.f64_field(&format!("host_phase_speedup_{scheme}"), speedup);
    }
    records.push(summary);

    eprintln!(
        "engine speedup vs lockstep oracle: {speedup_1t:.2}x (1 thread), \
         {speedup_pool:.2}x ({} threads)",
        pool.size()
    );
    eprintln!("playout lanes (8-wide) vs scalar playouts: {playout_lanes_speedup:.2}x");
    eprintln!("hex11 playouts vs list-and-flood reference: {hex_playout_speedup:.2}x");
    eprintln!("hex11 lane batches (8-wide) vs scalar playouts: {hex_lanes_speedup:.2}x");
    eprintln!(
        "SoA tree speedup vs AoS baseline: select {sel_speedup:.2}x, \
         expand {exp_speedup:.2}x, backprop {bp_speedup:.2}x"
    );
    eprintln!(
        "bounded steady state at cap {bounded_cap}: \
         {bounded_vs_unbounded:.2}x vs unbounded"
    );
    eprintln!(
        "device-resident tree: {device_tree_speedup:.2}x virtual sims/s, \
         {device_tree_wall_ratio:.2}x wall playouts/s vs block-parallel \
         (same grid, same budget)"
    );
    eprintln!(
        "root parallelism (8 trees, 1 worker): {root_parallel_speedup:.2}x \
         wall playouts/s vs sequential"
    );
    for &(scheme, speedup) in &host_phase_speedups {
        eprintln!("host-phase speedup ({scheme}): {speedup:.2}x vs AoS");
    }
    write_json("BENCH_throughput", &records, &args);
}
