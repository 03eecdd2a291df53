#!/usr/bin/env bash
# Full local gate: formatting, lints, and the whole test suite.
# CI (.github/workflows/ci.yml) runs exactly these steps; run this before
# pushing to get the same verdict without the round trip.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> benchmark crate tests (first to break when a pinned facade name changes)"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> fault-tolerance suite, per backend family"
cargo test --offline -q --test fault_tolerance -- sim
cargo test --offline -q --test fault_tolerance -- threads

echo "==> planner determinism suite (parallel == sequential, cache identity)"
cargo test --offline -q --test planner_parallel

echo "==> plan verifier suite (clean plans pass, mutated plans convicted)"
cargo test --offline -q --test plan_verifier

echo "==> determinism lint (hash iteration / wall clock / unwrap rules)"
cargo run --offline --release -p crossmesh-check --bin crossmesh-lint

echo "==> bounded model checker smoke (runtime dataflow interleavings)"
cargo run --offline --release -p crossmesh-check --bin crossmesh-modelcheck -- --smoke

echo "==> race detector smoke (seeded defects convict, clean suite silent)"
cargo run --offline --release -p crossmesh-check --bin crossmesh-race -- --smoke

echo "==> snapshot committed bench baselines (regression-gate reference)"
bench_baseline="$(mktemp -d)"
cp BENCH_*.json "$bench_baseline"/
# Restore on ANY exit: a failing smoke or gate step must not leave the
# committed baselines overwritten with smoke-run numbers.
restore_baselines() {
    if [ -d "$bench_baseline" ]; then
        cp "$bench_baseline"/BENCH_*.json . 2>/dev/null || true
        rm -rf "$bench_baseline"
    fi
}
trap restore_baselines EXIT

echo "==> planner bench smoke (full grid, one rep; its work counters are gated exactly)"
cargo run --offline --release -p crossmesh-bench --bin repro_planner -- --smoke > /dev/null

echo "==> verifier overhead smoke"
cargo run --offline --release -p crossmesh-bench --bin repro_check -- --smoke > /dev/null

echo "==> obs overhead smoke (collectors off vs on vs flight recorder, determinism)"
cargo run --offline --release -p crossmesh-bench --bin repro_obs -- --smoke

echo "==> MoE a2a smoke (rails beat both baselines, zero convictions)"
cargo run --offline --release -p crossmesh-bench --bin repro_moe -- --smoke > /dev/null

echo "==> netsim engine smoke (incremental vs reference, aggregate sweep, zero convictions)"
cargo run --offline --release -p crossmesh-bench --bin repro_netsim -- --smoke > /dev/null

echo "==> race overhead smoke (seam disarmed vs armed, conviction sweep)"
cargo run --offline --release -p crossmesh-bench --bin repro_race -- --smoke

echo "==> serve smoke (daemon + trace-driven load, zero convictions, clean drain)"
serve_dir="$(mktemp -d)"
cargo run --offline --release -p crossmesh-cli -- serve \
    --workers 2 --allow-remote-shutdown --max-seconds 120 \
    --addr-out "$serve_dir/addr" > "$serve_dir/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do [ -s "$serve_dir/addr" ] && break; sleep 0.1; done
[ -s "$serve_dir/addr" ] || { cat "$serve_dir/serve.log"; exit 1; }
cargo run --offline --release -p crossmesh-bench --bin repro_serve -- \
    --smoke --addr "$(cat "$serve_dir/addr")" --out BENCH_serve.json
cargo run --offline --release -p crossmesh-cli -- client \
    --addr "$(cat "$serve_dir/addr")" --shutdown
wait "$serve_pid"   # non-zero (unclean drain) fails the gate via set -e
rm -rf "$serve_dir"

echo "==> bench regression gate (self-test, then fresh vs committed baselines)"
cargo run --offline --release -p crossmesh-bench --bin repro_regress -- --smoke
cargo run --offline --release -p crossmesh-bench --bin repro_regress -- \
    --baseline-dir "$bench_baseline" --fresh-dir .

echo "==> restore committed bench baselines (smoke runs overwrote them)"
restore_baselines
trap - EXIT

echo "==> seeded-fault serve smoke (flight-recorder dump validates)"
fault_dir="$(mktemp -d)"
printf '%s' '{"seed":0,"events":[{"HostCrash":{"host":0,"at":0.0}}],"max_retries":3,"retry_backoff":0.001}' \
    > "$fault_dir/faults.json"
cargo run --offline --release -p crossmesh-cli -- serve \
    --workers 1 --allow-remote-shutdown --max-seconds 120 \
    --flightrec-dir "$fault_dir" \
    --addr-out "$fault_dir/addr" > "$fault_dir/serve.log" 2>&1 &
fault_pid=$!
for _ in $(seq 1 100); do [ -s "$fault_dir/addr" ] && break; sleep 0.1; done
[ -s "$fault_dir/addr" ] || { cat "$fault_dir/serve.log"; exit 1; }
cargo run --offline --release -p crossmesh-cli -- client \
    --addr "$(cat "$fault_dir/addr")" \
    --src-spec RS1R --dst-spec S0RR --src-mesh 2x4 --dst-mesh 2x4 \
    --shape 64x64x8 --faults "$fault_dir/faults.json" > /dev/null
cargo run --offline --release -p crossmesh-cli -- client \
    --addr "$(cat "$fault_dir/addr")" --shutdown
wait "$fault_pid"
dump="$(ls "$fault_dir"/flightrec-fault-repair-*.json | head -1)"
[ -n "$dump" ] || { echo "no flight-recorder dump produced"; exit 1; }
cargo run --offline --release -p crossmesh-cli -- validate-trace --trace "$dump"
rm -rf "$fault_dir"

echo "==> unified timeline export, one schema across backends"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
reshard_case=(reshard --src-spec RR --dst-spec S01R --src-mesh 2x4 --dst-mesh 2x4
              --shape 256x256)
cargo run --offline --release -p crossmesh-cli -- "${reshard_case[@]}" \
    --backend sim --trace-out "$trace_dir/sim.json" > /dev/null
cargo run --offline --release -p crossmesh-cli -- "${reshard_case[@]}" \
    --backend threads --trace-out "$trace_dir/threads.json" > /dev/null
cargo run --offline --release -p crossmesh-cli -- validate-trace \
    --trace "$trace_dir/sim.json" --against "$trace_dir/threads.json"

echo "All checks passed."
