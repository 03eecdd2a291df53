//! Measures observability overhead: planner wall-clock with collectors
//! disabled vs. a counting collector vs. the flight recorder armed;
//! prints the summary, writes the `BENCH_obs.json` record, and with
//! `--json` dumps the report to stdout. `--out PATH` overrides the JSON
//! path.

use crossmesh_bench::obs_overhead;

fn main() {
    crossmesh_bench::report_main(
        "BENCH_obs.json",
        || obs_overhead::run(false),
        obs_overhead::render,
    );
}
