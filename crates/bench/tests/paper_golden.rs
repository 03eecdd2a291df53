//! The one judge of every deterministic number: regenerates each section
//! of `BENCH_paper.json` in-process and demands equality with the
//! committed file.
//!
//! Alone in its file on purpose — the `*_work` sections read process-wide
//! counters and install process-wide collectors, which are exact only
//! while no other test of the same process is planning or using the
//! instrumented pool.

use crossmesh_bench::paper;

const REGENERATE: &str =
    "cargo run --release -p crossmesh-bench --bin repro_all -- --json > BENCH_paper.json";

#[test]
fn bench_paper_json_is_reproduced_exactly() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");
    let committed = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let fresh = paper::document(&[], true).expect("no section is named");

    let parse = |text: &str| serde_json::from_str::<serde_json::Value>(text).expect("valid JSON");
    if let Some(difference) = paper::first_difference(&parse(&committed), &parse(&fresh)) {
        panic!(
            "BENCH_paper.json (committed → regenerated) first differs at {difference}\n\
             if the change is intended, regenerate the golden: {REGENERATE}"
        );
    }
    assert_eq!(
        committed.trim_end_matches('\n'),
        fresh,
        "same values, different bytes; regenerate the golden: {REGENERATE}"
    );
}
