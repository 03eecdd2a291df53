//! Regenerates the planner scaling sweep; prints the table, writes
//! `BENCH_planner.json`, and with `--json` dumps the report to stdout.
//! `--smoke` runs the grid once instead of best-of-3 for CI; `--out PATH`
//! overrides the JSON path.

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_planner.json", String::as_str);

    let report = crossmesh_bench::planner::run(smoke);
    let pretty = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(out, &pretty).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    if json {
        println!("{pretty}");
    } else {
        println!("{}", crossmesh_bench::planner::render(&report));
        println!("wrote {out}");
    }
}
