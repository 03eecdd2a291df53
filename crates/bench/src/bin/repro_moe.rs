//! Runs the MoE all-to-all strategy sweep (the `moe` section of
//! `BENCH_paper.json`); prints the tables and, with `--json`, a
//! machine-readable dump.

use crossmesh_bench::moe;

fn main() {
    crossmesh_bench::repro_main("moe", || moe::run(false), moe::render);
}
