//! Regenerates the static-verifier overhead sweep; prints the table,
//! writes the `BENCH_check.json` record, and with `--json` dumps the
//! report to stdout. `--out PATH` overrides the JSON path.

use crossmesh_bench::check_overhead;

fn main() {
    crossmesh_bench::report_main(
        "BENCH_check.json",
        || check_overhead::run(false),
        check_overhead::render,
    );
}
