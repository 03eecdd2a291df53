//! Runs every deterministic reproduction harness in sequence (Table 1,
//! Figures 5-9, ablations, fault sweep, MoE sweep, planner work counters).
//! With `--json`, emits the golden document instead of the rendered tables:
//! `cargo run --release -p crossmesh-bench --bin repro_all -- --json > BENCH_paper.json`.

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    println!("{}", crossmesh_bench::paper::document(json));
}
