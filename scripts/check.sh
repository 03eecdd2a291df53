#!/usr/bin/env bash
# The one definition of the gate: formatting, lints, the whole test suite
# (which includes the BENCH_paper.json golden), and the CLI smokes.
# CI (.github/workflows/ci.yml) runs this script and nothing else; run it
# before pushing to get the same verdict without the round trip.
# Wall clock is not judged here: that is benchmark/run.sh + compare.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (-D warnings: a broken intra-doc link fails the gate)"
# --lib: the crossmesh bin and lib would otherwise collide on one doc path.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> benchmark crate tests (first to break when a pinned facade name changes)"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> determinism lint (hash iteration / wall clock / unwrap rules)"
cargo run --offline --release -p crossmesh-check --bin crossmesh-lint

echo "==> seeded-fault serve smoke (flight-recorder dump validates)"
fault_dir="$(mktemp -d)"
trace_dir="$(mktemp -d)"
fault_pid=
# One exit path for every failure below: no daemon and no temp dir is left.
cleanup() {
    [ -z "$fault_pid" ] || kill "$fault_pid" 2>/dev/null || true
    rm -rf "$fault_dir" "$trace_dir"
}
trap cleanup EXIT
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
fault_pid=
dump="$(ls "$fault_dir"/flightrec-fault-repair-*.json | head -1)"
[ -n "$dump" ] || { echo "no flight-recorder dump produced"; exit 1; }
cargo run --offline --release -p crossmesh-cli -- validate-trace --trace "$dump"

echo "==> unified timeline export, one schema across backends"
reshard_case=(reshard --src-spec RR --dst-spec S01R --src-mesh 2x4 --dst-mesh 2x4
              --shape 256x256)
cargo run --offline --release -p crossmesh-cli -- "${reshard_case[@]}" \
    --backend sim --trace-out "$trace_dir/sim.json" > /dev/null
cargo run --offline --release -p crossmesh-cli -- "${reshard_case[@]}" \
    --backend threads --trace-out "$trace_dir/threads.json" > /dev/null
cargo run --offline --release -p crossmesh-cli -- validate-trace \
    --trace "$trace_dir/sim.json" --against "$trace_dir/threads.json"

echo "All checks passed."
