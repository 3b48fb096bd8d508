#!/usr/bin/env bash
# Byte-compares the deterministic bench artifacts of the working tree with
# those of a base commit.
#
# Usage: scripts/diff_artifacts.sh BASE
#
# Builds BASE in a temporary `git worktree`, then regenerates on both trees
# the quick seed-7 fault matrix (Reversi, Hex 11x11 and service sessions),
# the serve and fleet (`--sessions 64 --devices 4`) artifacts, the
# frontier, the profile canonicalised with `check_bench.py --canon`
# (wall-clock fields stripped), the Fig. 8 point and depth series (whole
# hybrid and GPU-only games under a virtual time budget), the Fig. 9
# speed and point series (whole multi-GPU games, ranks merged by the
# rank-ordered allreduce, under a virtual time budget), the Fig. 5 speed
# and host-share series (leaf- and block-parallel launches up to the
# paper's full grid) and the Fig. 6 win ratios (block- and leaf-parallel
# games against sequential search). Prints one
# line per artifact and exits non-zero if any pair differs. An artifact
# BASE does not produce is printed as `head-only` and not compared.
set -euo pipefail

base=${1:?usage: scripts/diff_artifacts.sh BASE}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --detach --quiet "$work/base" "$base"

# generate TREE OUT: builds the bench binaries of TREE and writes its
# artifacts to OUT.
generate() {
    local tree=$1 out=$2
    (cd "$tree" && cargo build --release --quiet -p pmcts-bench)
    local bin=$tree/target/release
    mkdir -p "$out"
    "$bin/fault_matrix" --quick --seed 7 --out "$out" >/dev/null 2>&1
    "$bin/serve" --quick --seed 7 --out "$out" >/dev/null 2>&1
    "$bin/serve" --quick --seed 7 --sessions 64 --devices 4 --out "$out" >/dev/null 2>&1
    "$bin/frontier" --quick --seed 7 --out "$out" >/dev/null 2>&1
    "$bin/profile" --quick --seed 7 --out "$out" >/dev/null 2>&1
    "$bin/fig8_hybrid" --quick --seed 7 --out "$out" >/dev/null 2>&1
    "$bin/fig9_multigpu" --quick --seed 7 --out "$out" >/dev/null 2>&1
    "$bin/fig5_speed" --quick --seed 7 --out "$out" >/dev/null 2>&1
    "$bin/fig6_winratio" --quick --seed 7 --out "$out" >/dev/null 2>&1
    # Bases that still have tree parallelism emit a `tree_parallel` profile
    # record whose phase times depend on the OS scheduler; dropping it keeps
    # diffs against those bases meaningful.
    python3 "$root/scripts/check_bench.py" --canon "$out/profile.json" | python3 -c '
import json, sys
records = [r for r in json.load(sys.stdin) if r.get("scheme") != "tree_parallel"]
json.dump(records, sys.stdout, indent=1, sort_keys=True)
' >"$out/profile.canon.json"
}

generate "$work/base" "$work/out-base"
generate "$root" "$work/out-head"

status=0
for f in fault_matrix.json fault_matrix_hex11.json fault_matrix_service.json serve.json fleet.json frontier.json profile.canon.json fig8_points.tsv fig8_depth.tsv fig9_speed.tsv fig9_points.tsv fig5_speed.tsv fig5_speed_phases.tsv fig6_winratio.tsv; do
    if [ ! -e "$work/out-base/$f" ]; then
        echo "head-only  $f"
    elif cmp -s "$work/out-base/$f" "$work/out-head/$f"; then
        echo "identical  $f"
    else
        echo "DIFFERENT  $f"
        status=1
    fi
done
exit $status
