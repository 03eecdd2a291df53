//! Runs the deterministic reproduction harnesses in sequence (Table 1,
//! Figures 5-9, ablations, fault sweep, MoE sweep, planner / netsim /
//! observer work counters): `repro_all [SECTION...] [--json]`. No section
//! names means every section; with `--json` that is the golden document:
//! `cargo run --release -p crossmesh-bench --bin repro_all -- --json > BENCH_paper.json`.

fn main() {
    let (flags, sections): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "--json");
    let json = !flags.is_empty();
    match crossmesh_bench::paper::document(&sections, json) {
        Ok(document) => println!("{document}"),
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(2);
        }
    }
}
