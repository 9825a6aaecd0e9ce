#!/bin/sh
# The paired `stm_micro` gate: builds `repro` from a base checkout and
# from this one, runs six alternating `repro --quick micro` runs of each
# (base first in odd pairs, head first in even ones, so a drifting host
# loads both sides alike), and fails if any case's head/base median ratio
# exceeds 1.25. Both sides run on the same host in the same minutes, so
# the verdict does not depend on how fast the host that measured
# `BENCH_BASELINE.json` was.
#
# Usage: scripts/paired_micro.sh BASE
#   BASE   a checkout of the commit to compare against, e.g. one made
#          with `git archive <rev> | tar -x -C <dir>`
#
# The base build and the runs' JSON go to a new temporary directory,
# removed on exit.
# Exits 1 on a regression or on a base case the head lacks, 2 on a usage
# or build error.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: scripts/paired_micro.sh BASE" >&2
    exit 2
fi
base=$(cd "$1" && pwd)
pairs=6
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

cargo build --release -q -p cc-bench --bin repro || exit 2
head_repro="${CARGO_TARGET_DIR:-target}/release/repro"
cargo build --release -q -p cc-bench --bin repro \
    --manifest-path "$base/Cargo.toml" --target-dir "$out/base-target" || exit 2
base_repro="$out/base-target/release/repro"

run() { # side pair
    if [ "$1" = base ]; then bin=$base_repro; else bin=$head_repro; fi
    "$bin" --quick --json "$out/$1-$2.json" micro > /dev/null || exit 2
}
base_runs=""
head_runs=""
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then run base "$i"; run head "$i"; else run head "$i"; run base "$i"; fi
    base_runs="$base_runs${base_runs:+,}$out/base-$i.json"
    head_runs="$head_runs${head_runs:+,}$out/head-$i.json"
    i=$((i + 1))
done

# The head's `repro` reads both sides: comma-separated runs diff as their
# medians.
"$head_repro" diff "$base_runs" "$head_runs" --section stm_micro --tolerance 25 --strict
