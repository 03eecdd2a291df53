#!/usr/bin/env bash
# Builds the benchmark once, runs the four workloads untraced and then
# traced, and leaves result files, span files and logs in benchmark/out.
# Given a previous output directory, prints the `compare` table against it
# and exits non-zero on a breach.
#
#   benchmark/run.sh [previous-out-dir]
#
# Environment: SEED (first seed, default 1), RUNS (untraced runs per
# workload, each with the next seed; default 1 — use 3 or more when the
# result is to be compared), OUT (default benchmark/out). The run length is
# not a setting: it is the 25 s BENCHMARK.json fixes, on every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED=${SEED:-1}
RUNS=${RUNS:-1}
OUT=${OUT:-benchmark/out}
WORKLOADS="serve_hit serve_miss serve_open offline_round"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/crossmesh-benchmark"
mkdir -p "$OUT"

status=0
run() { # workload seed trace
    echo "== $1 seed $2 trace $3"
    # The log holds every metric by name; the terminal gets the summary.
    if ! "$BIN" --workload "$1" --seed "$2" --seconds 25 \
        --trace "$3" --out "$OUT" >"$OUT/$1-s$2-t$3.log"; then
        echo "   FAILED, see $OUT/$1-s$2-t$3.log"
        status=1
    fi
    grep -E '^(  (setup_s|op_|ok_frac|peak_rss|sim_makespan)|attempted|  FAILED)' \
        "$OUT/$1-s$2-t$3.log" || true
}

for i in $(seq 0 $((RUNS - 1))); do
    for w in $WORKLOADS; do run "$w" $((SEED + i)) 0; done
done
for w in $WORKLOADS; do run "$w" "$SEED" 1; done

if [ -n "${1:-}" ]; then
    "$BIN" compare "$1" "$OUT" || status=1
fi
exit $status
