#!/usr/bin/env bash
# Interleaved A/B of the benchmark: the crates at <rev> against the
# working tree, both built with this bench/ directory's code.
#
#   bench/ab.sh <rev> [workload] [pairs]
#
# <rev> is exported with `git archive` (no git worktree is created) and
# this bench/ directory is copied over it; the working tree is exported
# too, and both are built from the same path, bench/out/ab/tree, into
# separate target directories. Then `pairs` (default 10) pairs of
# untraced runs of `workload` (default array-z4-52) run back to back at
# seed 1, alternating which side goes first. For each end-to-end metric
# it prints each side's median and quartiles, the fraction of pairs the
# working tree won (ties count for neither) and the spread of the
# parent's own runs: a gain counts only when the working tree wins at
# least 9 pairs in 10 and the medians differ by more than that spread.
# `bench/ab.sh HEAD <workload> 5` on a clean tree gives two interleaved
# sets of the same code: the noise.
set -euo pipefail

rev=${1:?usage: bench/ab.sh <rev> [workload] [pairs]}
workload=${2:-array-z4-52}
pairs=${3:-10}
root=$(git rev-parse --show-toplevel)
work="$root/bench/out/ab"
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")

tree="$work/tree"
export_side() { # <base|head>: fill $tree with that side's sources
    rm -rf "$tree"
    mkdir -p "$tree"
    if [ "$1" = base ]; then
        git -C "$root" archive "$rev" | tar -x -C "$tree"
        rm -rf "$tree/bench"
        tar -C "$root" --exclude=bench/out --exclude=bench/target -cf - bench | tar -x -C "$tree"
    else
        git -C "$root" ls-files -z -co --exclude-standard |
            tar -C "$root" --null --ignore-failed-read -T - -cf - | tar -x -C "$tree"
    fi
}
# Both sides build from the same path: rustc embeds source paths, and
# different ones shift the code layout enough to move times by 5 %.
for side in base head; do
    export_side "$side"
    cargo build --release --quiet --offline --manifest-path "$tree/bench/Cargo.toml" \
        --target-dir "$work/target-$side"
    cp "$work/target-$side/release/zcache-bench" "$work/$side-bin"
done
base_bin="$work/base-bin"
head_bin="$work/head-bin"

: >"$work/base.jsonl"
: >"$work/head.jsonl"
run() { # <side>
    local bin="${1}_bin"
    "${!bin}" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 | tail -n 1 >>"$work/$1.jsonl"
}
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then run base; run head; else run head; run base; fi
    echo "pair $((i + 1))/$pairs done" >&2
done

python3 - "$work/base.jsonl" "$work/head.jsonl" "$rev" "$workload" <<'EOF'
import json, statistics, sys

base = [json.loads(l) for l in open(sys.argv[1])]
head = [json.loads(l) for l in open(sys.argv[2])]
rev, workload = sys.argv[3], sys.argv[4]
for side, runs in (("base", base), ("head", head)):
    bad = [r for r in runs if not r["correct"]]
    if bad:
        print(f"{side}: {len(bad)} of {len(runs)} runs failed their output checks")
print(f"{workload}: {rev} (base) vs working tree (head), {len(base)} interleaved pairs; lower is better")
print(f"{'metric':<12} {'base q1/median/q3':>30} {'head q1/median/q3':>30} {'head wins':>9} {'base IQR':>10}  verdict")
for name in base[0]["metrics"]:
    b = [r["metrics"][name]["value"] for r in base]
    h = [r["metrics"][name]["value"] for r in head]
    bq, hq = statistics.quantiles(b, n=4), statistics.quantiles(h, n=4)
    wins = sum(hv < bv for bv, hv in zip(b, h)) / len(b)
    losses = sum(hv > bv for bv, hv in zip(b, h)) / len(b)
    iqr = bq[2] - bq[0]
    diff = statistics.median(b) - statistics.median(h)
    if wins >= 0.9 and diff > iqr:
        verdict = "gain"
    elif losses >= 0.9 and -diff > iqr:
        verdict = "loss"
    else:
        verdict = "no resolved change"
    fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
    print(f"{name:<12} {fmt(bq):>30} {fmt(hq):>30} {wins:>9.2f} {iqr:>10.4g}  {verdict}")
EOF
