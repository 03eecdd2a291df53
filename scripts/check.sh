#!/usr/bin/env bash
# The one definition of the gate: formatting, lints, the whole test suite
# (which includes the BENCH_paper.json golden), and the CLI smokes.
# CI (.github/workflows/ci.yml) runs this script and nothing else; run it
# before pushing to get the same verdict without the round trip.
# Wall clock is not judged here: that is benchmark/run.sh + compare.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> size: non-test lines, pub fn count, test-only pub fns (printed, not gated)"
scripts/loc.sh

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (-D warnings: a broken intra-doc link fails the gate)"
# --lib: the crossmesh bin and lib would otherwise collide on one doc path.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

echo "==> crate graph (obs is a leaf: every layer, the simulator too, reports into it)"
obs_deps="$(cargo tree --offline -p crossmesh-obs -e normal)"
if grep -q crossmesh-netsim <<<"$obs_deps"; then
    echo "crossmesh-obs depends on crossmesh-netsim:"
    echo "$obs_deps"
    exit 1
fi

echo "==> crate graph (models builds its own stage graphs; autoshard is a CLI leaf)"
models_deps="$(cargo tree --offline -p crossmesh-models -e normal)"
if grep -q crossmesh-autoshard <<<"$models_deps"; then
    echo "crossmesh-models depends on crossmesh-autoshard:"
    echo "$models_deps"
    exit 1
fi

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> netsim tests, optimised (the equivalence proptests on the build the benchmark times, debug_asserts off)"
cargo test --release --offline -q -p crossmesh-netsim

echo "==> benchmark crate tests (first to break when a pinned facade name changes)"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> determinism lint (hash iteration / wall clock / unwrap rules)"
cargo run --offline --release -p crossmesh-check --bin crossmesh-lint

echo "==> seeded-fault serve smoke (flight-recorder dump validates, netsim counters flushed)"
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
    --flightrec-dir "$fault_dir" --metrics-out "$fault_dir/metrics.txt" \
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
# The daemon's shutdown flush carries the simulator's netsim.* counters:
# the repaired reshard ran the engine.
grep -Eq '^netsim\.events_processed [1-9][0-9]*$' "$fault_dir/metrics.txt" \
    || { echo "metrics file reports no netsim events"; cat "$fault_dir/metrics.txt"; exit 1; }

echo "==> unified timeline export, one schema across backends"
reshard_case=(reshard --src-spec RR --dst-spec S01R --src-mesh 2x4 --dst-mesh 2x4
              --shape 256x256)
cargo run --offline --release -p crossmesh-cli -- "${reshard_case[@]}" \
    --backend sim --trace-out "$trace_dir/sim.json" > /dev/null
cargo run --offline --release -p crossmesh-cli -- "${reshard_case[@]}" \
    --backend threads --trace-out "$trace_dir/threads.json" > /dev/null
cargo run --offline --release -p crossmesh-cli -- validate-trace \
    --trace "$trace_dir/sim.json" --against "$trace_dir/threads.json"
# The tcp backend moves the inter-host frames over real loopback sockets.
cargo run --offline --release -p crossmesh-cli -- "${reshard_case[@]}" \
    --backend tcp --trace-out "$trace_dir/tcp.json" > /dev/null
cargo run --offline --release -p crossmesh-cli -- validate-trace \
    --trace "$trace_dir/tcp.json" --against "$trace_dir/sim.json"
# An empty fault schedule is the clean run, byte for byte, even for the
# multi-rail spray whose relays depend on the host layout.
printf '%s' '{"seed":0,"events":[],"max_retries":3,"retry_backoff":0.001}' \
    > "$trace_dir/empty.json"
rail_case=(reshard --src-spec S0RR --dst-spec RS0R --src-mesh 2x4 --dst-mesh 2x4
           --shape 64x64x64 --strategy multi_rail)
cargo run --offline --release -p crossmesh-cli -- "${rail_case[@]}" \
    --trace-out "$trace_dir/clean.json" > /dev/null
cargo run --offline --release -p crossmesh-cli -- "${rail_case[@]}" \
    --faults "$trace_dir/empty.json" --trace-out "$trace_dir/empty-faults.json" > /dev/null
cmp "$trace_dir/clean.json" "$trace_dir/empty-faults.json"

echo "==> moe all-to-all smoke (one-lane oracle against 4 lanes, byte-exact; every fabric)"
cargo run --offline --release -p crossmesh-cli -- moe --verify --json > "$trace_dir/moe.json"
grep -q '"data_plane_verified": true' "$trace_dir/moe.json"
for fabric in rails flat fat-tree torus; do
    cargo run --offline --release -p crossmesh-cli -- moe --fabric "$fabric" --json \
        > "$trace_dir/moe-$fabric.json"
    grep -q "\"fabric\": \"$fabric\"" "$trace_dir/moe-$fabric.json"
done

echo "All checks passed."
