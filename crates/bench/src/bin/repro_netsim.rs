//! Regenerates the netsim engine-scaling harness (incremental engine vs
//! frozen reference + 10k-host GPT sweep); prints the tables, writes the
//! `BENCH_netsim.json` record, and with `--json` dumps the report to
//! stdout. `--out PATH` overrides the JSON path.

use crossmesh_bench::netsim;

fn main() {
    crossmesh_bench::report_main("BENCH_netsim.json", || netsim::run(false), netsim::render);
}
