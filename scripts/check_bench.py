#!/usr/bin/env python3
"""Validate bench artifacts (CI gate, also usable locally).

Usage:
    scripts/check_bench.py [--baseline FILE] [--tolerance X] FILE [FILE ...]
        Validate each artifact; the check set is chosen by file name:
          profile.json           phase ledger + wall-clock fields
          BENCH_throughput.json  engine speedup gate (>= 1.5x vs lockstep),
                                 tree_ops layout records (SoA vs AoS, equal
                                 checksums, select speedup gate), bounded
                                 LRU recycling records (live nodes <= cap,
                                 eviction + transposition traffic, equal
                                 rerun checksums, steady state >= 1.0x vs
                                 unbounded), device-resident tree gates
                                 (>= 1.5x virtual sims/s and >= 0.3x wall
                                 playouts/s vs block_parallel on the same
                                 budget), root-parallel lane gate (8 trees
                                 on one worker >= 1.5x the sequential
                                 record's wall playouts/s, both best of
                                 >= 3 passes of >= 20 ms), playout_lanes records
                                 (widths 1/4/8, per-record rerun checksums
                                 equal, all widths bit-identical to each
                                 other, lanes-8 >= 2.0x the scalar
                                 cpu_playouts record), host_phases pairs,
                                 and — with --baseline — a no-regression
                                 gate on the sequential search record's
                                 playouts_per_sec
          fault_matrix.json      every cell degraded gracefully; the
                                 leading roster meta-record names every
                                 scheme and fault class and the grid must
                                 cover it exactly (each class x scheme
                                 once, in roster order)
          fault_matrix_hex11.json  same matrix on Hex 11x11
          fault_matrix_service.json  the same roster check over search-service
                                 sessions; classes the roster lists as
                                 inert_classes must inject nothing, and
                                 latency_ns (completed - admitted) must
                                 equal elapsed_ns
          frontier.json          batch-width x scheme frontier: per-cell
                                 phase ledgers exact, arena win ratios in
                                 [0, 1], and at every width >= 64 WU-UCT
                                 must match block-parallel strength
                                 (win_ratio >= block_parallel's) while
                                 keeping virtual throughput within 10%
          serve.json             multi-session serving: per-move phase
                                 ledgers exact, sessions-per-launch > 1,
                                 batched speedup gate (>= 1.5x vs solo),
                                 latency percentiles present and ordered,
                                 p99 within the per-move deadline slack
          fleet.json             fleet serving: per-scenario admission
                                 accounting exact (offered = admitted +
                                 rejected, shard placements sum to
                                 admitted), p50 <= p99 <= p999, rejects
                                 only when offered load exceeds capacity,
                                 goodput > 0 under overload, dead shards
                                 re-place their sessions, aggregate
                                 throughput gate vs the single-device
                                 baseline (>= devices/2 x)
          divergence_report.txt  per-phase efficiency table parses
          divergence_warp.tsv    warp widths 1-64: lane efficiency 1.0 at
                                 width 1, never rising with width
          fig5_overhead.tsv      Fig. 5's schemes at 7168 threads under
                                 four cost models: calibrated block-32 <
                                 0.9x leaf-64; free host tree ops put
                                 block-32 within 2% of leaf-64; zeroed
                                 launch/transfer overhead moves block-32
                                 by < 2%; with fig5_speed.tsv beside it,
                                 the calibrated row equals the sweep's
                                 7168-thread points

    --baseline FILE   committed BENCH_throughput.json to compare against
    --tolerance X     new sequential playouts_per_sec must be >= X * baseline
                      (default 0.75: CI and the baseline machine differ, so
                      only a large drop is a credible layout regression;
                      tighten locally when comparing runs on one machine)

    scripts/check_bench.py --canon FILE
        Print the file's canonical form to stdout: JSON with the
        wall-clock-dependent fields (wall_ns, playouts_per_sec) stripped
        — recursively, so nested records (e.g. per-shard sub-records in
        fleet.json) are stripped too — and keys sorted. Two runs of the
        same experiment with the same seed must produce identical
        canonical forms — diff them.

Exits non-zero with a message on the first failed check.
"""

import json
import os
import re
import sys

PHASE_FIELDS = [
    "select_ns",
    "expand_ns",
    "queue_ns",
    "upload_ns",
    "kernel_ns",
    "readback_ns",
    "merge_ns",
]
FAULT_FIELDS = [
    "faults_injected",
    "faults_retried",
    "faults_degraded",
    "faults_excluded",
]
WALL_FIELDS = ["wall_ns", "playouts_per_sec"]
MIN_ENGINE_SPEEDUP = 1.5
# The device-resident tree must beat host-driven block parallelism in
# *virtual* simulations/second at the same grid and iteration budget
# (committed artifact shows ~2x; 1.5 is the acceptance line). Virtual
# rates come from the cost models, so this gate is machine-independent.
MIN_DEVICE_TREE_SPEEDUP = 1.5
# Wall-clock: the device-resident blocks play their playouts as lane
# batches, so their wall playouts/s must stay within reach of block
# parallelism's (scalar in-kernel playouts read ~0.1x; lane batches
# 0.36-0.55x on a 2-vCPU AVX-512 host; 0.3 is the acceptance line).
MIN_DEVICE_TREE_WALL_VS_BLOCK = 0.3
# Wall-clock: eight root-parallel trees on one worker step in lockstep and
# play their playouts as one 8-lane batch, against the one-tree sequential
# search. The line sits low enough to hold on AVX2-only hosts, where the
# 8-lane batch is ~3x scalar rather than ~12x.
MIN_ROOT_PARALLEL_LANES_SPEEDUP = 1.5
# Both wall ratios compare search records timed as the best of at least
# this many passes, each at least this long.
MIN_SEARCH_PASSES = 3
MIN_SEARCH_PASS_NS = 20_000_000
# The SoA layout must beat the AoS baseline on the cold-cache selection
# sweep by a clear margin (committed artifact shows ~1.8x; the gate leaves
# headroom for noisy CI runners).
MIN_TREE_OPS_SELECT_SPEEDUP = 1.3
TREE_OPS_FIELDS = [
    "layout",
    "nodes",
    "select_ops",
    "expand_ops",
    "backprop_ops",
    "select_wall_ns",
    "expand_wall_ns",
    "backprop_wall_ns",
    "select_ops_per_sec",
    "expand_ops_per_sec",
    "backprop_ops_per_sec",
    "checksum",
]
HOST_PHASE_FIELDS = [
    "scheme",
    "layout",
    "blocks",
    "iters",
    "tree_nodes",
    "wall_ns",
    "iters_per_sec",
]
TREE_OPS_SUMMARY_FIELDS = [
    "tree_ops_select_speedup_vs_aos",
    "tree_ops_expand_speedup_vs_aos",
    "tree_ops_backprop_speedup_vs_aos",
]
# Steady-state recycling at cap must hold at least unbounded throughput:
# the capped arena is cache-resident while the unbounded tree keeps
# growing, so eviction + transposition bookkeeping has to pay for itself
# (committed artifact shows ~1.3x; the 1.0 floor is the acceptance line).
MIN_BOUNDED_STEADY_VS_UNBOUNDED = 1.0
BOUNDED_TREE_OPS_FIELDS = [
    "cap",
    "nodes",
    "iters",
    "wall_ns",
    "iters_per_sec",
    "window_a_iters_per_sec",
    "window_b_iters_per_sec",
    "steady_window_ratio",
    "evictions",
    "tt_hits",
    "tt_recovered_visits",
    "tt_drops",
    "tt_occupied",
    "checksum",
    "checksum_rerun",
]
# The 8-wide lane batch must clearly beat the scalar playout loop on the
# identical workload (committed artifact shows ~4.4x from the bit-parallel
# Reversi kernels + skipped host-only Zobrist upkeep; 2.0 is the
# acceptance line, leaving headroom for noisy CI runners).
MIN_PLAYOUT_LANES_SPEEDUP = 2.0
PLAYOUT_LANES_WIDTHS = [1, 4, 8]
PLAYOUT_LANES_FIELDS = [
    "lanes",
    "playouts",
    "plies",
    "wall_ns",
    "playouts_per_sec",
    "plies_per_sec",
    "checksum",
    "checksum_rerun",
]
# Hex 11x11 playouts (bit-select move pick, incrementally kept
# edge-anchored win test) against the list-and-flood reference on the same
# roots and streams: 4.8x on a 2-vCPU AVX-512 host with `pdep`, 3.4-3.9x
# with the portable select, so 2.0 holds on hosts without BMI2 too.
MIN_HEX_PLAYOUT_SPEEDUP = 2.0
# The same Hex playouts as 8-lane LaneBatch batches against the scalar
# engine: 2.8-3.2x for the AVX-512 loop on a 2-vCPU AVX-512 host. Gated
# only where that loop ran (`lane_variant`), since CI runners may lack
# AVX-512 and elsewhere each lane is one scalar playout.
MIN_HEX_LANES_SPEEDUP = 2.0
HEX_LANES_GATED_VARIANT = "avx512_loop"
HEX_PLAYOUTS_FIELDS = [
    "roots",
    "rounds",
    "playouts",
    "plies",
    "wall_ns",
    "playouts_per_sec",
    "reference_wall_ns",
    "reference_playouts_per_sec",
    "lanes_wall_ns",
    "lanes_playouts_per_sec",
    "lane_variant",
    "checksum",
    "reference_checksum",
    "lanes_checksum",
]
DEFAULT_BASELINE_TOLERANCE = 0.75
# fig5_overhead.tsv: the leaf-vs-block gap is the host's sequential tree
# work ("the CPU's sequential part"). Calibrated block-32 reads 0.78x
# leaf-64 at 7168 threads; with free host tree ops it reads 0.998x (default
# seed) and 1.001x (seed 7); zeroing launch and transfer overhead moves it
# by +0.3%.
FIG5_OVERHEAD_MODELS = [
    "calibrated",
    "no_launch_transfer_overhead",
    "free_host_tree_ops",
    "both_free",
]
# Table column -> the fig5_speed.tsv series it repeats at 7168 threads.
FIG5_OVERHEAD_SCHEMES = {
    "leaf_64": "leaf parallelism (block size = 64)",
    "block_32": "block parallelism (block size = 32)",
    "block_128": "block parallelism (block size = 128)",
}
FIG5_OVERHEAD_THREADS = "7168"
MAX_CALIBRATED_BLOCK32_VS_LEAF = 0.9
MAX_OVERHEAD_DEVIATION = 0.02
DIVERGENCE_WARP_WIDTHS = [1, 2, 4, 8, 16, 32, 64]


def fail(msg):
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_phase_ledger(rec, where):
    for f in PHASE_FIELDS + FAULT_FIELDS + ["scheme", "elapsed_ns"]:
        if f not in rec:
            fail(f"{where}: missing field {f!r}")
    phase_sum = sum(rec[f] for f in PHASE_FIELDS)
    if phase_sum != rec["elapsed_ns"]:
        fail(
            f"{where}: phase sum {phase_sum} != elapsed_ns {rec['elapsed_ns']}"
            " (exact identity required)"
        )


def check_profile(path):
    data = json.load(open(path))
    if not data:
        fail(f"{path}: no records")
    for i, rec in enumerate(data):
        where = f"{path}[{i}] ({rec.get('scheme', '?')})"
        check_phase_ledger(rec, where)
        for f in WALL_FIELDS:
            if f not in rec:
                fail(f"{where}: missing wall-clock field {f!r}")
        # The profile runs no fault plan: all counters must be zero.
        for f in FAULT_FIELDS:
            if rec[f] != 0:
                fail(f"{where}: {f} = {rec[f]} but no faults were injected")
    print(f"check_bench: OK: {path}: {len(data)} records, ledger exact")


def check_tree_ops(path, data, summary):
    """The SoA-vs-AoS layout records: both layouts present, structurally
    complete, provably equivalent (equal checksums over identical trees),
    and the selection sweep faster on SoA by the gate margin."""
    recs = {r.get("layout"): r for r in data if r.get("record") == "tree_ops"}
    for layout in ("soa", "aos"):
        if layout not in recs:
            fail(f"{path}: missing tree_ops record for layout {layout!r}")
        for f in TREE_OPS_FIELDS:
            if f not in recs[layout]:
                fail(f"{path}: tree_ops[{layout}]: missing field {f!r}")
        for f in TREE_OPS_FIELDS:
            if f.endswith("_ops_per_sec") and recs[layout][f] <= 0:
                fail(f"{path}: tree_ops[{layout}]: {f} not positive")
    for f in ("nodes", "select_ops", "expand_ops", "backprop_ops", "checksum"):
        if recs["soa"][f] != recs["aos"][f]:
            fail(
                f"{path}: tree_ops layouts diverge on {f!r}:"
                f" soa={recs['soa'][f]} aos={recs['aos'][f]}"
                " (the layouts must run the identical workload)"
            )
    for f in TREE_OPS_SUMMARY_FIELDS:
        if f not in summary:
            fail(f"{path}: summary lacks {f!r}")
    sel = summary["tree_ops_select_speedup_vs_aos"]
    if sel < MIN_TREE_OPS_SELECT_SPEEDUP:
        fail(
            f"{path}: SoA select sweep only {sel:.2f}x vs AoS"
            f" (gate: >= {MIN_TREE_OPS_SELECT_SPEEDUP}x)"
        )
    return sel


def check_bounded_tree_ops(path, data, summary):
    """The bounded-tree recycling records: a capacity-capped search must
    settle at the cap (live nodes <= cap with real eviction and
    transposition traffic), replay bit-identically (equal checksums across
    the two passes), and hold steady-state throughput at or above the
    unbounded reference."""
    recs = {r.get("layout"): r for r in data if r.get("record") == "tree_ops"}
    for layout in ("bounded_lru", "unbounded_ref"):
        if layout not in recs:
            fail(f"{path}: missing tree_ops record for layout {layout!r}")
    bounded = recs["bounded_lru"]
    for f in BOUNDED_TREE_OPS_FIELDS:
        if f not in bounded:
            fail(f"{path}: tree_ops[bounded_lru]: missing field {f!r}")
    for f in ("nodes", "iters", "wall_ns", "iters_per_sec", "checksum"):
        if f not in recs["unbounded_ref"]:
            fail(f"{path}: tree_ops[unbounded_ref]: missing field {f!r}")
    if bounded["checksum"] != bounded["checksum_rerun"]:
        fail(
            f"{path}: bounded recycling nondeterministic: checksum"
            f" {bounded['checksum']} != rerun {bounded['checksum_rerun']}"
        )
    if bounded["nodes"] > bounded["cap"]:
        fail(
            f"{path}: bounded tree holds {bounded['nodes']} live nodes"
            f" over its cap {bounded['cap']}"
        )
    for f in ("evictions", "tt_hits", "tt_recovered_visits"):
        if bounded[f] <= 0:
            fail(
                f"{path}: tree_ops[bounded_lru]: {f} = {bounded[f]}"
                " (the capped run must actually recycle)"
            )
    for f in ("bounded_steady_state_vs_unbounded", "bounded_steady_window_ratio"):
        if f not in summary:
            fail(f"{path}: summary lacks {f!r}")
    steady = summary["bounded_steady_state_vs_unbounded"]
    if steady < MIN_BOUNDED_STEADY_VS_UNBOUNDED:
        fail(
            f"{path}: bounded steady state only {steady:.2f}x vs unbounded"
            f" (gate: >= {MIN_BOUNDED_STEADY_VS_UNBOUNDED}x)"
        )
    return steady


def check_playout_lanes(path, data, summary):
    """The lane-batch playout records: all three wired widths present and
    structurally complete, every width's double run bit-identical (rerun
    checksum), every width bit-identical to every other (the equivalence
    contract: batching must not change a single playout), and the 8-wide
    batch faster than the scalar cpu_playouts record by the gate margin."""
    recs = {r.get("lanes"): r for r in data if r.get("record") == "playout_lanes"}
    for width in PLAYOUT_LANES_WIDTHS:
        if width not in recs:
            fail(f"{path}: missing playout_lanes record for width {width}")
        rec = recs[width]
        for f in PLAYOUT_LANES_FIELDS:
            if f not in rec:
                fail(f"{path}: playout_lanes[{width}]: missing field {f!r}")
        if rec["checksum"] != rec["checksum_rerun"]:
            fail(
                f"{path}: playout_lanes[{width}] nondeterministic: checksum"
                f" {rec['checksum']} != rerun {rec['checksum_rerun']}"
            )
    base = recs[PLAYOUT_LANES_WIDTHS[0]]
    for width in PLAYOUT_LANES_WIDTHS[1:]:
        for f in ("playouts", "plies", "checksum"):
            if recs[width][f] != base[f]:
                fail(
                    f"{path}: playout_lanes[{width}] diverges from width"
                    f" {PLAYOUT_LANES_WIDTHS[0]} on {f!r}:"
                    f" {recs[width][f]} != {base[f]}"
                    " (lane batching must be bit-identical to scalar)"
                )
    scalar = next((r for r in data if r.get("record") == "cpu_playouts"), None)
    if scalar is None or "playouts_per_sec" not in scalar:
        fail(f"{path}: no cpu_playouts record to gate playout_lanes against")
    speedup = summary.get("playout_lanes_speedup_vs_scalar")
    if speedup is None:
        fail(f"{path}: summary lacks playout_lanes_speedup_vs_scalar")
    recomputed = recs[8]["playouts_per_sec"] / scalar["playouts_per_sec"]
    if abs(recomputed - speedup) > 1e-6 * max(abs(recomputed), abs(speedup)):
        fail(
            f"{path}: summary playout_lanes_speedup_vs_scalar {speedup}"
            f" != lanes-8 / cpu_playouts rate ratio {recomputed}"
        )
    if speedup < MIN_PLAYOUT_LANES_SPEEDUP:
        fail(
            f"{path}: 8-wide lane batch only {speedup:.2f}x vs scalar"
            f" playouts (gate: >= {MIN_PLAYOUT_LANES_SPEEDUP}x)"
        )
    return speedup


def check_hex_playouts(path, data, summary):
    """The Hex 11x11 playout record: the engine, the list-and-flood
    reference and the 8-lane batches played the same playouts (equal
    checksums), the engine clears the gate margin over the reference, and
    where the AVX-512 loop ran the lane batches clear theirs over the
    engine. Returns both ratios and the lane variant."""
    rec = next((r for r in data if r.get("record") == "hex_playouts"), None)
    if rec is None:
        fail(f"{path}: no hex_playouts record")
    for f in HEX_PLAYOUTS_FIELDS:
        if f not in rec:
            fail(f"{path}: hex_playouts: missing field {f!r}")
    if rec["checksum"] != rec["reference_checksum"]:
        fail(
            f"{path}: hex_playouts checksum {rec['checksum']} != reference"
            f" {rec['reference_checksum']} (the engine must play the"
            " reference's playouts)"
        )
    if rec["lanes_checksum"] != rec["checksum"]:
        fail(
            f"{path}: hex_playouts lanes checksum {rec['lanes_checksum']} !="
            f" engine {rec['checksum']} (lane batches must play the scalar"
            " playouts)"
        )
    speedup = summary.get("hex_playout_speedup_vs_reference")
    if speedup is None:
        fail(f"{path}: summary lacks hex_playout_speedup_vs_reference")
    recomputed = rec["playouts_per_sec"] / rec["reference_playouts_per_sec"]
    if abs(recomputed - speedup) > 1e-6 * max(abs(recomputed), abs(speedup)):
        fail(
            f"{path}: summary hex_playout_speedup_vs_reference {speedup}"
            f" != hex_playouts rate ratio {recomputed}"
        )
    if speedup < MIN_HEX_PLAYOUT_SPEEDUP:
        fail(
            f"{path}: hex11 playouts only {speedup:.2f}x the list-and-flood"
            f" reference (gate: >= {MIN_HEX_PLAYOUT_SPEEDUP}x)"
        )
    lanes = summary.get("hex_lanes_speedup_vs_scalar")
    if lanes is None:
        fail(f"{path}: summary lacks hex_lanes_speedup_vs_scalar")
    recomputed = rec["lanes_playouts_per_sec"] / rec["playouts_per_sec"]
    if abs(recomputed - lanes) > 1e-6 * max(abs(recomputed), abs(lanes)):
        fail(
            f"{path}: summary hex_lanes_speedup_vs_scalar {lanes}"
            f" != hex_playouts lanes / engine rate ratio {recomputed}"
        )
    variant = rec["lane_variant"]
    if variant == HEX_LANES_GATED_VARIANT and lanes < MIN_HEX_LANES_SPEEDUP:
        fail(
            f"{path}: hex11 8-lane batches only {lanes:.2f}x scalar playouts"
            f" with the {variant} (gate: >= {MIN_HEX_LANES_SPEEDUP}x)"
        )
    return speedup, lanes, variant


def check_host_phases(path, data, summary):
    """host_phases records come in (scheme, layout) pairs over the same
    iteration count and must grow structurally identical trees; the summary
    must carry one speedup field per scheme."""
    pairs = {}
    for i, rec in enumerate(data):
        if rec.get("record") != "host_phases":
            continue
        where = f"{path}[{i}] (host_phases)"
        for f in HOST_PHASE_FIELDS:
            if f not in rec:
                fail(f"{where}: missing field {f!r}")
        pairs.setdefault(rec["scheme"], {})[rec["layout"]] = rec
    if not pairs:
        fail(f"{path}: no host_phases records")
    for scheme, by_layout in pairs.items():
        for layout in ("soa", "aos"):
            if layout not in by_layout:
                fail(f"{path}: host_phases[{scheme}]: missing layout {layout!r}")
        soa, aos = by_layout["soa"], by_layout["aos"]
        for f in ("blocks", "iters", "tree_nodes"):
            if soa[f] != aos[f]:
                fail(
                    f"{path}: host_phases[{scheme}]: layouts diverge on"
                    f" {f!r}: soa={soa[f]} aos={aos[f]}"
                )
        if f"host_phase_speedup_{scheme}" not in summary:
            fail(f"{path}: summary lacks host_phase_speedup_{scheme!r}")
    return sorted(pairs)


def check_device_tree(path, data, summary):
    """The device-resident tree's acceptance gate: its search record exists
    alongside block_parallel's, both carry virtual_sims_per_sec, and the
    summary ratio clears the speedup floor."""
    searches = {
        r.get("scheme"): r
        for r in data
        if r.get("record") == "search"
    }
    for scheme in ("block_parallel", "device_tree"):
        if scheme not in searches:
            fail(f"{path}: missing search record for scheme {scheme!r}")
        if "virtual_sims_per_sec" not in searches[scheme]:
            fail(f"{path}: search[{scheme}]: missing virtual_sims_per_sec")
    if searches["device_tree"]["simulations"] != searches["block_parallel"]["simulations"]:
        fail(
            f"{path}: device_tree ran {searches['device_tree']['simulations']}"
            f" simulations vs block_parallel's"
            f" {searches['block_parallel']['simulations']}"
            " (the speedup must be measured on the same budget)"
        )
    speedup = summary.get("device_tree_speedup_vs_block_parallel")
    if speedup is None:
        fail(f"{path}: summary lacks device_tree_speedup_vs_block_parallel")
    if speedup < MIN_DEVICE_TREE_SPEEDUP:
        fail(
            f"{path}: device-resident tree only {speedup:.2f}x vs"
            f" block_parallel (gate: >= {MIN_DEVICE_TREE_SPEEDUP}x)"
        )
    wall = wall_ratio(
        path, searches, summary, "device_tree_wall_vs_block_parallel",
        "device_tree", "block_parallel",
    )
    if wall < MIN_DEVICE_TREE_WALL_VS_BLOCK:
        fail(
            f"{path}: device-resident tree wall playouts/s only {wall:.2f}x"
            f" block_parallel's (gate: >= {MIN_DEVICE_TREE_WALL_VS_BLOCK}x)"
        )
    return speedup, wall


def wall_ratio(path, searches, summary, field, num, den):
    """The summary's wall playouts/s ratio of search records `num` over
    `den`: both timed as the best of enough long-enough passes, and the
    summary field equal to the ratio of the two records."""
    for scheme in (num, den):
        rec = searches.get(scheme)
        if rec is None:
            fail(f"{path}: missing search record for scheme {scheme!r}")
        for f in ("playouts_per_sec", "passes", "wall_ns"):
            if f not in rec:
                fail(f"{path}: search[{scheme}]: missing field {f!r}")
        if rec["passes"] < MIN_SEARCH_PASSES or rec["wall_ns"] < MIN_SEARCH_PASS_NS:
            fail(
                f"{path}: search[{scheme}] timed {rec['passes']} passes, best"
                f" {rec['wall_ns']} ns (need >= {MIN_SEARCH_PASSES} passes"
                f" of >= {MIN_SEARCH_PASS_NS} ns)"
            )
    ratio = summary.get(field)
    if ratio is None:
        fail(f"{path}: summary lacks {field}")
    recomputed = searches[num]["playouts_per_sec"] / searches[den]["playouts_per_sec"]
    if abs(recomputed - ratio) > 1e-6 * max(abs(recomputed), abs(ratio)):
        fail(f"{path}: summary {field} {ratio} != {num} / {den} playouts_per_sec {recomputed}")
    return ratio


def check_root_parallel_lanes(path, data, summary):
    """Eight root-parallel trees on one worker against the sequential
    search, on the same per-tree budget: the lockstep lane batches must
    clear the wall-clock floor."""
    searches = {r.get("scheme"): r for r in data if r.get("record") == "search"}
    speedup = wall_ratio(
        path, searches, summary, "root_parallel_lanes_speedup_vs_sequential",
        "root_parallel", "sequential",
    )
    per_tree = searches["root_parallel"]["iterations"] / 8
    if per_tree != searches["sequential"]["iterations"]:
        fail(
            f"{path}: root_parallel ran {per_tree} iterations per tree vs"
            f" sequential's {searches['sequential']['iterations']}"
            " (the ratio must be measured on the same budget)"
        )
    if speedup < MIN_ROOT_PARALLEL_LANES_SPEEDUP:
        fail(
            f"{path}: 8 root-parallel trees only {speedup:.2f}x the sequential"
            f" search's wall playouts/s (gate: >= {MIN_ROOT_PARALLEL_LANES_SPEEDUP}x)"
        )
    return speedup


def check_seq_regression(path, data, baseline_path, tolerance):
    """New sequential search throughput must stay within `tolerance` of the
    committed baseline artifact's."""

    def seq_pps(p, d):
        rec = next(
            (
                r
                for r in d
                if r.get("record") == "search" and r.get("scheme") == "sequential"
            ),
            None,
        )
        if rec is None or "playouts_per_sec" not in rec:
            fail(f"{p}: no sequential search record with playouts_per_sec")
        return rec["playouts_per_sec"]

    new = seq_pps(path, data)
    old = seq_pps(baseline_path, json.load(open(baseline_path)))
    if new < tolerance * old:
        fail(
            f"{path}: sequential playouts_per_sec regressed to {new:.0f}"
            f" (< {tolerance:.2f} x baseline {old:.0f} from {baseline_path})"
        )
    return new / old


def check_throughput(path, baseline=None, tolerance=DEFAULT_BASELINE_TOLERANCE):
    data = json.load(open(path))
    summary = next((r for r in data if r.get("record") == "summary"), None)
    if summary is None:
        fail(f"{path}: no summary record")
    speedup = summary.get("kernel_speedup_vs_lockstep")
    if speedup is None:
        fail(f"{path}: summary lacks kernel_speedup_vs_lockstep")
    if speedup < MIN_ENGINE_SPEEDUP:
        fail(
            f"{path}: engine regressed to {speedup:.2f}x vs lockstep"
            f" (gate: >= {MIN_ENGINE_SPEEDUP}x)"
        )
    sel = check_tree_ops(path, data, summary)
    steady = check_bounded_tree_ops(path, data, summary)
    resident, resident_wall = check_device_tree(path, data, summary)
    root_lanes = check_root_parallel_lanes(path, data, summary)
    lanes = check_playout_lanes(path, data, summary)
    hex_playouts, hex_lanes, hex_variant = check_hex_playouts(path, data, summary)
    schemes = check_host_phases(path, data, summary)
    msg = (
        f"check_bench: OK: {path}: engine {speedup:.2f}x vs lockstep,"
        f" SoA select {sel:.2f}x vs AoS,"
        f" bounded steady {steady:.2f}x vs unbounded,"
        f" device tree {resident:.2f}x virtual, {resident_wall:.2f}x wall vs block_parallel,"
        f" root_parallel lanes {root_lanes:.2f}x vs sequential,"
        f" lanes-8 {lanes:.2f}x vs scalar playouts,"
        f" hex11 playouts {hex_playouts:.2f}x vs reference,"
        f" hex11 lanes-8 {hex_lanes:.2f}x vs scalar ({hex_variant}),"
        f" host_phases {', '.join(schemes)}"
    )
    if baseline is not None:
        ratio = check_seq_regression(path, data, baseline, tolerance)
        msg += f", sequential {ratio:.2f}x of baseline"
    print(msg)


def split_roster(rec, field, where):
    """One comma-joined roster field -> its ordered name list."""
    names = [n for n in rec.get(field, "").split(",") if n]
    if not names:
        fail(f"{where}: roster field {field!r} missing or empty")
    if len(set(names)) != len(names):
        fail(f"{where}: roster field {field!r} has duplicates: {names}")
    return names


def check_fault_matrix(path):
    data = json.load(open(path))
    if not data:
        fail(f"{path}: no records")
    roster = data[0]
    if roster.get("kind") != "roster":
        fail(f"{path}: first record must be the roster meta-record")
    schemes = split_roster(roster, "schemes", f"{path}[0]")
    classes_order = split_roster(roster, "fault_classes", f"{path}[0]")
    inert = [n for n in roster.get("inert_classes", "").split(",") if n]
    cells = data[1:]
    if not cells:
        fail(f"{path}: no cells")
    classes = {}
    grid = []
    for i, rec in enumerate(cells):
        where = f"{path}[{i + 1}] ({rec.get('scheme', '?')}/{rec.get('fault_class', '?')})"
        check_phase_ledger(rec, where)
        if not rec.get("best_move"):
            fail(f"{where}: cell produced no best move")
        if "fault_class" not in rec:
            fail(f"{where}: missing fault_class")
        for f in WALL_FIELDS:
            if f in rec:
                fail(f"{where}: wall-clock field {f!r} breaks determinism diffing")
        if "latency_ns" in rec and rec["latency_ns"] != rec["elapsed_ns"]:
            fail(f"{where}: latency_ns {rec['latency_ns']} != elapsed_ns {rec['elapsed_ns']}")
        grid.append((rec["fault_class"], rec["scheme"]))
        cls = classes.setdefault(rec["fault_class"], {"cells": 0, "injected": 0})
        cls["cells"] += 1
        cls["injected"] += rec["faults_injected"]
    # The grid must cover the roster exactly: each class x scheme once,
    # class-outer scheme-inner, in roster order.
    expected = [(c, s) for c in classes_order for s in schemes]
    if grid != expected:
        missing = sorted(set(expected) - set(grid))
        extra = sorted(set(grid) - set(expected))
        fail(
            f"{path}: cells do not match the roster grid"
            f" ({len(grid)} cells vs {len(expected)} expected;"
            f" missing {missing[:5]}, extra {extra[:5]}, or misordered)"
        )
    if "none" not in classes:
        fail(f"{path}: missing the zero-fault baseline class")
    if classes["none"]["injected"] != 0:
        fail(f"{path}: fault_class 'none' injected faults")
    for name, cls in classes.items():
        if name in inert:
            if cls["injected"] != 0:
                fail(f"{path}: inert fault class {name!r} injected faults")
        elif name != "none" and cls["injected"] == 0:
            fail(f"{path}: fault class {name!r} never injected in any cell")
    print(
        f"check_bench: OK: {path}: {len(cells)} cells cover the roster"
        f" ({len(classes_order)} fault classes x {len(schemes)} schemes),"
        " all degraded gracefully"
    )


MIN_SERVE_SPEEDUP = 1.5
SERVE_SUMMARY_FIELDS = [
    "games",
    "moves",
    "move_budget_ns",
    "launches",
    "sessions_per_launch_mean",
    "sessions_per_launch_max",
    "batched_playouts_per_sec",
    "unbatched_playouts_per_sec",
    "batched_speedup_vs_unbatched",
    "latency_p50_ns",
    "latency_p95_ns",
    "latency_p99_ns",
]


def check_serve(path):
    """Multi-session serving artifact: one record per move with the exact
    (seven-phase, queue-inclusive) ledger, plus a summary whose batching
    statistics clear the amortisation gates."""
    data = json.load(open(path))
    moves = [r for r in data if r.get("kind") == "move"]
    summary = next((r for r in data if r.get("kind") == "summary"), None)
    if summary is None:
        fail(f"{path}: no summary record")
    if not moves:
        fail(f"{path}: no per-move records")
    for i, rec in enumerate(moves):
        where = f"{path}[{i}] (game {rec.get('game', '?')} ply {rec.get('ply', '?')})"
        check_phase_ledger(rec, where)
        for f in ("game", "ply", "session", "latency_ns"):
            if f not in rec:
                fail(f"{where}: missing field {f!r}")
        if rec["latency_ns"] != rec["elapsed_ns"]:
            fail(
                f"{where}: latency_ns {rec['latency_ns']} != elapsed_ns"
                f" {rec['elapsed_ns']} (service clock must match session time)"
            )
        for f in WALL_FIELDS:
            if f in rec:
                fail(f"{where}: wall-clock field {f!r} breaks determinism diffing")
    for f in SERVE_SUMMARY_FIELDS:
        if f not in summary:
            fail(f"{path}: summary lacks {f!r}")
    for f in WALL_FIELDS:
        if f in summary:
            fail(f"{path}: summary wall-clock field {f!r} breaks determinism diffing")
    if summary["sessions_per_launch_mean"] <= 1.0:
        fail(
            f"{path}: sessions_per_launch_mean"
            f" {summary['sessions_per_launch_mean']} <= 1 (no cross-session batching)"
        )
    p50, p95, p99 = (
        summary["latency_p50_ns"],
        summary["latency_p95_ns"],
        summary["latency_p99_ns"],
    )
    if not p50 <= p95 <= p99:
        fail(f"{path}: latency percentiles not ordered: {p50} / {p95} / {p99}")
    # Deadline scheduling: the predictive stopper may overshoot a per-move
    # budget by at most one batched round, comfortably under 2x budget.
    if summary["move_budget_ns"] > 0 and p99 >= 2 * summary["move_budget_ns"]:
        fail(
            f"{path}: latency_p99_ns {p99} >= 2x move budget"
            f" {summary['move_budget_ns']} (deadline scheduling broken)"
        )
    speedup = summary["batched_speedup_vs_unbatched"]
    if speedup < MIN_SERVE_SPEEDUP:
        fail(
            f"{path}: batched serving only {speedup:.2f}x vs back-to-back solo"
            f" (gate: >= {MIN_SERVE_SPEEDUP}x)"
        )
    print(
        f"check_bench: OK: {path}: {len(moves)} moves,"
        f" {summary['sessions_per_launch_mean']:.1f} sessions/launch,"
        f" batched {speedup:.2f}x vs solo, p99 within deadline slack"
    )


# Aggregate fleet throughput must scale with the shard count: the gate is
# half the ideal (devices x) to leave room for queue-drain tails, with the
# committed artifact showing near-linear scaling (~8.5x on 8 shards).
MIN_FLEET_SPEEDUP_PER_DEVICE = 0.5
FLEET_SCENARIOS = ["nominal", "overload", "faulted", "single_device"]
FLEET_SCENARIO_FIELDS = [
    "devices",
    "offered",
    "capacity",
    "admitted",
    "queued",
    "rejected",
    "replaced",
    "completed",
    "good",
    "dead_shards",
    "latency_p50_ns",
    "latency_p99_ns",
    "latency_p999_ns",
    "makespan_ns",
    "sims",
    "shards",
]
FLEET_SHARD_FIELDS = ["rank", "dead", "placed", "replaced_in", "clock_ns"]


def no_wall_fields(rec, where):
    """Recursively reject wall-clock fields — nested records included."""
    if isinstance(rec, dict):
        for f in WALL_FIELDS:
            if f in rec:
                fail(f"{where}: wall-clock field {f!r} breaks determinism diffing")
        for k, v in rec.items():
            no_wall_fields(v, f"{where}.{k}")
    elif isinstance(rec, list):
        for i, v in enumerate(rec):
            no_wall_fields(v, f"{where}[{i}]")


def check_fleet(path):
    """Fleet serving artifact: one record per scenario with exact
    admission/placement accounting and ordered latency percentiles, plus
    the aggregate-throughput summary gate."""
    data = json.load(open(path))
    scenarios = {r.get("name"): r for r in data if r.get("kind") == "scenario"}
    summary = next((r for r in data if r.get("kind") == "summary"), None)
    if summary is None:
        fail(f"{path}: no summary record")
    for name in FLEET_SCENARIOS:
        if name not in scenarios:
            fail(f"{path}: missing scenario record {name!r}")
    for i, rec in enumerate(data):
        no_wall_fields(rec, f"{path}[{i}]")
    for name, rec in scenarios.items():
        where = f"{path} ({name})"
        for f in FLEET_SCENARIO_FIELDS:
            if f not in rec:
                fail(f"{where}: missing field {f!r}")
        if rec["offered"] != rec["admitted"] + rec["rejected"]:
            fail(
                f"{where}: offered {rec['offered']} != admitted"
                f" {rec['admitted']} + rejected {rec['rejected']}"
            )
        if rec["completed"] != rec["admitted"]:
            fail(
                f"{where}: completed {rec['completed']} != admitted"
                f" {rec['admitted']} (the fleet must serve everything it admits)"
            )
        for f in FLEET_SHARD_FIELDS:
            for s in rec["shards"]:
                if f not in s:
                    fail(f"{where}: shard record missing field {f!r}")
        placed = sum(s["placed"] for s in rec["shards"])
        if placed != rec["admitted"]:
            fail(
                f"{where}: shard placements sum to {placed}"
                f" != admitted {rec['admitted']}"
            )
        replaced_in = sum(s["replaced_in"] for s in rec["shards"])
        if replaced_in != rec["replaced"]:
            fail(
                f"{where}: shard re-placements sum to {replaced_in}"
                f" != replaced {rec['replaced']}"
            )
        p50, p99, p999 = (
            rec["latency_p50_ns"],
            rec["latency_p99_ns"],
            rec["latency_p999_ns"],
        )
        if not p50 <= p99 <= p999:
            fail(f"{where}: latency percentiles not ordered: {p50} / {p99} / {p999}")
        if rec["rejected"] > 0 and rec["offered"] <= rec["capacity"]:
            fail(
                f"{where}: {rec['rejected']} rejects but offered"
                f" {rec['offered']} <= capacity {rec['capacity']}"
                " (admission control must only reject under overload)"
            )
    overload = scenarios["overload"]
    if overload["rejected"] == 0:
        fail(f"{path}: overload scenario rejected nothing (not an overload)")
    if overload["good"] <= 0:
        fail(f"{path}: no goodput under overload (SLO scheduling starved everyone)")
    faulted = scenarios["faulted"]
    if faulted["dead_shards"] == 0:
        fail(f"{path}: faulted scenario killed no shards")
    if faulted["replaced"] == 0:
        fail(f"{path}: faulted scenario re-placed no sessions")
    if faulted["completed"] != faulted["admitted"]:
        fail(f"{path}: faulted scenario lost admitted sessions")
    speedup = summary.get("speedup_vs_single_device")
    if speedup is None:
        fail(f"{path}: summary lacks speedup_vs_single_device")
    devices = summary.get("devices", 0)
    floor = MIN_FLEET_SPEEDUP_PER_DEVICE * devices
    if speedup < floor:
        fail(
            f"{path}: fleet aggregate throughput only {speedup:.2f}x"
            f" single-device on {devices} shards (gate: >= {floor:.1f}x)"
        )
    print(
        f"check_bench: OK: {path}: {len(scenarios)} scenarios,"
        f" overload rejected {overload['rejected']} with goodput"
        f" {overload['good']}, {faulted['replaced']} sessions re-placed off"
        f" {faulted['dead_shards']} dead shards,"
        f" fleet {speedup:.2f}x single-device on {devices} shards"
    )


# WU-UCT pays per-wave correction bookkeeping on one shared tree; the
# acceptance line says that overhead must stay within 10% of plain
# block-parallel virtual throughput while matching its arena strength at
# every width >= the gate width (ISSUE 10 / DESIGN.md §16).
FRONTIER_GATE_WIDTH = 64
MIN_FRONTIER_THROUGHPUT_RATIO = 0.9
FRONTIER_CELL_FIELDS = [
    "blocks",
    "threads_per_block",
    "budget_ns",
    "games",
    "win_ratio",
    "sims_per_second",
    "candidate_sims",
    "opponent_sims",
]


def check_frontier(path):
    """Batch-width x scheme frontier artifact: a roster meta-record, one
    cell per (width, scheme) with an exact phase ledger and an arena win
    ratio vs sequential at equal virtual budget, and the WU-UCT strength /
    throughput gates at every width >= the gate width."""
    data = json.load(open(path))
    if not data:
        fail(f"{path}: no records")
    roster = data[0]
    if roster.get("kind") != "roster":
        fail(f"{path}: first record must be the roster meta-record")
    schemes = split_roster(roster, "schemes", f"{path}[0]")
    widths = [int(w) for w in split_roster(roster, "widths", f"{path}[0]")]
    for scheme in ("block_parallel", "wu_uct", "pipelined"):
        if scheme not in schemes:
            fail(f"{path}: roster lacks scheme {scheme!r}")
    if not any(w >= FRONTIER_GATE_WIDTH for w in widths):
        fail(
            f"{path}: no width >= {FRONTIER_GATE_WIDTH} in {widths}"
            " (the strength gate needs a wide batch)"
        )
    cells = [r for r in data if r.get("kind") == "cell"]
    summary = next((r for r in data if r.get("kind") == "summary"), None)
    if summary is None:
        fail(f"{path}: no summary record")
    by_cell = {}
    for i, rec in enumerate(cells):
        where = f"{path} ({rec.get('scheme', '?')} w{rec.get('blocks', '?')})"
        check_phase_ledger(rec, where)
        no_wall_fields(rec, where)
        for f in FRONTIER_CELL_FIELDS:
            if f not in rec:
                fail(f"{where}: missing field {f!r}")
        if not 0.0 <= rec["win_ratio"] <= 1.0:
            fail(f"{where}: win_ratio {rec['win_ratio']} out of [0, 1]")
        if rec["games"] <= 0 or rec["sims_per_second"] <= 0:
            fail(f"{where}: empty cell (games or sims_per_second not positive)")
        by_cell[(rec["scheme"], rec["blocks"])] = rec
    expected = [(s, w) for w in widths for s in schemes]
    if [(r["scheme"], r["blocks"]) for r in cells] != expected:
        fail(
            f"{path}: cells do not match the roster grid"
            f" ({len(cells)} cells vs {len(expected)} expected, width-outer"
            " scheme-inner, in roster order)"
        )
    for w in widths:
        if w < FRONTIER_GATE_WIDTH:
            continue
        wu, bp = by_cell[("wu_uct", w)], by_cell[("block_parallel", w)]
        if wu["win_ratio"] < bp["win_ratio"]:
            fail(
                f"{path}: width {w}: wu_uct win_ratio {wu['win_ratio']:.3f}"
                f" < block_parallel {bp['win_ratio']:.3f}"
                " (the correction must not lose strength at wide batches)"
            )
        ratio = wu["sims_per_second"] / bp["sims_per_second"]
        if ratio < MIN_FRONTIER_THROUGHPUT_RATIO:
            fail(
                f"{path}: width {w}: wu_uct virtual throughput only"
                f" {ratio:.3f}x block_parallel"
                f" (gate: >= {MIN_FRONTIER_THROUGHPUT_RATIO}x)"
            )
    gate_w = max(w for w in widths if w >= FRONTIER_GATE_WIDTH)
    for f in ("gate_width", "wu_uct_win_ratio", "block_parallel_win_ratio"):
        if f not in summary:
            fail(f"{path}: summary lacks {f!r}")
    if summary["gate_width"] != gate_w:
        fail(f"{path}: summary gate_width {summary['gate_width']} != {gate_w}")
    wu, bp = by_cell[("wu_uct", gate_w)], by_cell[("block_parallel", gate_w)]
    print(
        f"check_bench: OK: {path}: {len(cells)} cells"
        f" ({len(widths)} widths x {len(schemes)} schemes); at width"
        f" {gate_w} wu_uct {wu['win_ratio']:.3f} vs block_parallel"
        f" {bp['win_ratio']:.3f} win ratio,"
        f" {wu['sims_per_second'] / bp['sims_per_second']:.3f}x throughput"
    )


def check_divergence(path):
    text = open(path).read()
    if "divergence_report" not in text.splitlines()[0]:
        fail(f"{path}: missing report header")
    rows = re.findall(r"^(opening|midgame|endgame).*?([0-9.]+)%\s*$", text, re.M)
    if len(rows) != 3:
        fail(f"{path}: expected 3 phase rows, found {len(rows)}")
    for phase, eff in rows:
        eff = float(eff)
        if not 0.0 < eff <= 100.0:
            fail(f"{path}: {phase} lane efficiency {eff}% out of (0, 100]")
    print(f"check_bench: OK: {path}: 3 phase rows, efficiencies sane")


def read_table(path, header):
    """Rows of a TSV table written by `pmcts_bench::print_table`: `#`
    comment lines, then `header`, then one row per line."""
    lines = [l for l in open(path).read().splitlines() if l and not l.startswith("#")]
    if not lines or lines[0].split("\t") != header:
        fail(f"{path}: header is not {header}")
    rows = [l.split("\t") for l in lines[1:]]
    for row in rows:
        if len(row) != len(header):
            fail(f"{path}: row {row} does not have {len(header)} cells")
    return rows


def series_points(path, x):
    """{series label: y cell at x} of a `print_series` TSV file."""
    points, label = {}, None
    for line in open(path).read().splitlines():
        if line.startswith("## "):
            label = line[3:]
        elif label and line.split("\t")[0] == x:
            points[label] = line.split("\t")[1]
    return points


def check_fig5_overhead(path):
    rows = read_table(path, ["model"] + list(FIG5_OVERHEAD_SCHEMES))
    if [r[0] for r in rows] != FIG5_OVERHEAD_MODELS:
        fail(f"{path}: models {[r[0] for r in rows]} != {FIG5_OVERHEAD_MODELS}")
    sims = {r[0]: dict(zip(FIG5_OVERHEAD_SCHEMES, map(float, r[1:]))) for r in rows}
    if not all(v > 0 for cells in sims.values() for v in cells.values()):
        fail(f"{path}: every sims/s cell must be positive")
    cal, free_host = sims["calibrated"], sims["free_host_tree_ops"]
    gap = cal["block_32"] / cal["leaf_64"]
    if not gap < MAX_CALIBRATED_BLOCK32_VS_LEAF:
        fail(
            f"{path}: calibrated block-32 / leaf-64 = {gap:.3f},"
            f" not < {MAX_CALIBRATED_BLOCK32_VS_LEAF}"
        )
    free = free_host["block_32"] / free_host["leaf_64"]
    if abs(free - 1.0) > MAX_OVERHEAD_DEVIATION:
        fail(
            f"{path}: with free host tree ops block-32 / leaf-64 = {free:.4f},"
            f" not within {MAX_OVERHEAD_DEVIATION:.0%} of 1"
        )
    launch = sims["no_launch_transfer_overhead"]["block_32"] / cal["block_32"]
    if abs(launch - 1.0) > MAX_OVERHEAD_DEVIATION:
        fail(
            f"{path}: zeroed launch/transfer overhead moves block-32 by"
            f" {launch - 1:+.2%}, not within {MAX_OVERHEAD_DEVIATION:.0%}"
        )
    sweep = os.path.join(os.path.dirname(path), "fig5_speed.tsv")
    if os.path.exists(sweep):
        points = series_points(sweep, FIG5_OVERHEAD_THREADS)
        if [points.get(label) for label in FIG5_OVERHEAD_SCHEMES.values()] != rows[0][1:]:
            fail(
                f"{path}: calibrated row {rows[0][1:]} is not {sweep}'s"
                f" {FIG5_OVERHEAD_THREADS}-thread points"
            )
    print(
        f"check_bench: OK: {path}: block-32 / leaf-64 {gap:.3f} calibrated, {free:.4f} with"
        f" free host tree ops; zeroed launch/transfer moves block-32 {launch - 1:+.2%}"
    )


def check_divergence_warp(path):
    rows = read_table(path, ["warp", "efficiency", "idle_lane_steps", "virtual_sims_per_s"])
    if [int(r[0]) for r in rows] != DIVERGENCE_WARP_WIDTHS:
        fail(f"{path}: warp widths {[r[0] for r in rows]} != {DIVERGENCE_WARP_WIDTHS}")
    for r in rows:
        if not (0.0 < float(r[1]) <= 1.0 and int(r[2]) >= 0 and float(r[3]) > 0):
            fail(f"{path}: row {r} out of range")
    if float(rows[0][1]) != 1.0 or int(rows[0][2]) != 0:
        fail(f"{path}: width 1 idles {rows[0][2]} lane-steps (efficiency {rows[0][1]})")
    for narrow, wide in zip(rows, rows[1:]):
        if float(wide[1]) > float(narrow[1]):
            fail(f"{path}: efficiency rises from width {narrow[0]} to {wide[0]}")
    print(
        f"check_bench: OK: {path}: efficiency 1.0 at width 1,"
        f" never rising, {float(rows[-1][1]):.4f} at width {rows[-1][0]}"
    )


def strip_wall(node):
    """Strips wall-clock fields recursively: top-level records and any
    nested objects (fleet per-shard sub-records, future aggregates)."""
    if isinstance(node, dict):
        for f in WALL_FIELDS:
            node.pop(f, None)
        for v in node.values():
            strip_wall(v)
    elif isinstance(node, list):
        for v in node:
            strip_wall(v)


def canon(path):
    data = json.load(open(path))
    strip_wall(data)
    json.dump(data, sys.stdout, indent=1, sort_keys=True)
    print()


CHECKS = {
    "profile.json": check_profile,
    "BENCH_throughput.json": check_throughput,
    "fault_matrix.json": check_fault_matrix,
    "fault_matrix_hex11.json": check_fault_matrix,
    "fault_matrix_service.json": check_fault_matrix,
    "frontier.json": check_frontier,
    "serve.json": check_serve,
    "fleet.json": check_fleet,
    "divergence_report.txt": check_divergence,
    "divergence_warp.tsv": check_divergence_warp,
    "fig5_overhead.tsv": check_fig5_overhead,
}


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    if argv[0] == "--canon":
        if len(argv) != 2:
            fail("--canon takes exactly one file")
        canon(argv[1])
        return 0
    baseline = None
    tolerance = DEFAULT_BASELINE_TOLERANCE
    paths = []
    it = iter(argv)
    for arg in it:
        if arg == "--baseline":
            baseline = next(it, None)
            if baseline is None:
                fail("--baseline needs a file argument")
        elif arg == "--tolerance":
            try:
                tolerance = float(next(it))
            except (StopIteration, ValueError):
                fail("--tolerance needs a numeric argument")
        else:
            paths.append(arg)
    if not paths:
        fail("no artifact files given")
    for path in paths:
        name = os.path.basename(path)
        checker = CHECKS.get(name)
        if checker is None:
            fail(f"{path}: no check registered for {name!r} (known: {sorted(CHECKS)})")
        if checker is check_throughput:
            checker(path, baseline=baseline, tolerance=tolerance)
        else:
            checker(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
