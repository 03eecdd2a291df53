//! Measures race-detector overhead: the MoE all-to-all dataplane with
//! the happens-before seam disarmed vs. armed with the FastTrack engine,
//! plus the defect-conviction sweep and clean-suite silence check;
//! prints the summary, writes the `BENCH_race.json` record, and with
//! `--json` dumps the report to stdout. `--out PATH` overrides the JSON
//! path.

use crossmesh_bench::race;

fn main() {
    crossmesh_bench::report_main("BENCH_race.json", || race::run(false), race::render);
}
