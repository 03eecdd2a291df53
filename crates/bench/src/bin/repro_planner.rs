//! Regenerates the planner scaling sweep; prints the table, writes the
//! `BENCH_planner.json` record, and with `--json` dumps the report to
//! stdout. `--out PATH` overrides the JSON path.

use crossmesh_bench::planner;

fn main() {
    crossmesh_bench::report_main(
        "BENCH_planner.json",
        || planner::run(false),
        planner::render,
    );
}
