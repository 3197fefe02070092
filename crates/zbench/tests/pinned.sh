#!/usr/bin/env bash
# Every pinned `zbench` output, one line each, and the one command that
# regenerates them all:
#
#   crates/zbench/tests/pinned.sh
#
# builds the release `zbench` and rewrites every file below in place, so
# after an intended output change `git diff` shows each moved number.
# CI's build-and-test job runs it and fails if `git status --porcelain`
# prints anything afterwards: a changed file or a new one.
#
# `pin FILE ARGS...` pins FILE (relative to the repository root) to what
# `zbench ARGS...` prints on stdout or, when ARGS contain `--out FILE`,
# to the file it writes. `$tmp` is a scratch directory, which pinned
# stdout shows as `<tmp>`. Lines run in order: `trace` replays the file
# `dumptrace` writes. `pin_full` marks an entry too slow for a debug
# build (a command's default size, or fig3 at 32 cores); only this
# script runs those.
#
# `cli_golden.rs`, next to this file, parses the `pin` lines and runs
# each with the debug binary, at `--jobs 1` and at `--jobs 4` when the
# command takes `--jobs`. Each run must exit 0, so `predict --validate`
# must stay within its tolerance, and must reproduce FILE byte for byte.
#
# Pinned outputs not listed here, and why:
# - fig2's report text, pinned at a small size in
#   `exp_fig2::tests::report_renders`: fig2 has no size flag, and adding
#   one for this would add an option.
# - results/{fig2,fig3,fig4,fig5,bandwidth,conflicts}.txt are stale;
#   each becomes one line here when ROADMAP's published-numbers item
#   regenerates it.
# - bench/golden/ belongs to the benchmark, which checks it itself.
# - The mutant repro in tests/corpus/ is a side effect of the
#   conformance job's mutation run, which checks it stays unchanged.
set -euo pipefail
cd "$(dirname "$0")/../../.."
cargo build --release --quiet -p zbench
zbench=$PWD/target/release/zbench
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

pin() { # FILE ARGS...
    local file=$1
    shift
    if [[ " $* " == *" --out $file "* ]]; then
        "$zbench" "$@" >/dev/null
    else
        "$zbench" "$@" | sed "s|$tmp|<tmp>|g" >"$file"
    fi
}
pin_full() { pin "$@"; }

pin results/table1.txt table1
pin results/table2.txt table2
pin crates/zbench/tests/golden/fig3.txt fig3 --scale small --cores 4 --instrs 2000
pin crates/zbench/tests/golden/fig4.txt fig4 --scale small --cores 4 --instrs 2000 --workloads 1
pin crates/zbench/tests/golden/fig5.txt fig5 --scale small --cores 4 --instrs 2000 --workloads 1
pin crates/zbench/tests/golden/fig4-opt-3.txt fig4 --scale small --cores 8 --instrs 20000 --workloads 3 --policy opt
pin crates/zbench/tests/golden/fig5-lru-3.txt fig5 --scale small --cores 8 --instrs 20000 --workloads 3 --policy lru
pin crates/zbench/tests/golden/bandwidth.txt bandwidth --scale small --cores 4 --instrs 2000 --workloads 1
pin crates/zbench/tests/golden/bandwidth-32.txt bandwidth --scale small --cores 32 --instrs 2000 --workloads 2
pin crates/zbench/tests/golden/ablate.txt ablate --scale small --cores 4 --instrs 2000
pin crates/zbench/tests/golden/adaptive.txt adaptive --scale small --cores 4 --instrs 2000
pin crates/zbench/tests/golden/conflicts.txt conflicts --scale small --cores 4 --instrs 2000
pin crates/zbench/tests/golden/predict-smoke.txt predict --smoke
pin crates/zbench/tests/golden/predict-sizes.txt predict --smoke --workloads 1 --sizes 512,1024 --tol 0.2
pin BENCH_predict.json predict --smoke --workloads 4 --validate --out BENCH_predict.json
pin crates/zbench/tests/golden/check.txt check --accesses 20000
pin crates/zbench/tests/golden/tenants.txt tenants --accesses 4000 --lines 128
# The isolation sweep where quotas bind (EXPERIMENTS.md quotes it): its
# partitioned mode selects by the quota key, the shared and solo modes
# by the plain score.
pin results/tenants.txt tenants --lines 512 --accesses 60000
pin crates/zbench/tests/golden/dumptrace.txt dumptrace canneal $tmp/canneal.trace --cores 4 --instrs 5000
pin crates/zbench/tests/golden/trace.txt trace $tmp/canneal.trace
pin crates/zbench/tests/golden/perf-profile-walks.txt perf --profile walks --smoke --filter z3:
pin crates/zbench/tests/golden/serve-smoke.txt serve --smoke --out $tmp/serve.json
pin BENCH_serve.json serve --chaos --smoke --seed 1 --out BENCH_serve.json
pin_full results/ablate.txt ablate
pin_full results/adaptive.txt adaptive
# Fig. 3 at a size where every panel samples evictions (only
# blackscholes' hashed rows read n/a): panels 3b-3d are the eviction
# distributions of the SA-H3, skew and Z4 arrays, so this pins how
# every H3 index places and evicts, end to end.
pin_full crates/zbench/tests/golden/fig3-32.txt fig3 --scale small --cores 32 --instrs 40000
