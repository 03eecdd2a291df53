//! The repo's one end-to-end benchmark.
//!
//! ```text
//! crossmesh-benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! crossmesh-benchmark compare A B
//! ```
//!
//! One invocation runs one workload from a seed, prints every metric by
//! name with its unit, checks the outputs are correct, writes a result
//! file under `--out` (default `benchmark/out`), and prints the result as
//! one JSON object on its last line. `--trace 1` makes a separate traced
//! run that reports the per-layer metrics instead. See README.md.

mod compare;
mod gen;
mod layers;
mod load;
mod metrics;
mod offline;
mod rng;
mod serve;
mod spans;
mod stats;
mod sys;

use metrics::{Report, Values, END_TO_END, PER_LAYER};
use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["serve_hit", "serve_miss", "serve_open", "offline_round"];

const USAGE: &str = "usage:
  crossmesh-benchmark --workload <serve_hit|serve_miss|serve_open|offline_round>
                      --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  crossmesh-benchmark compare <dir-a> <dir-b>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 25;
    let mut trace = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// The metrics of `table` as `{name: {value, unit}}`; `absent` says what
/// to write for a metric without a finite value.
fn metric_map(
    values: &Values,
    table: impl Iterator<Item = (&'static str, &'static str)>,
    mut absent: impl FnMut(&'static str) -> Value,
) -> Value {
    let mut map = Map::new();
    for (name, unit) in table {
        let value = match values.get(name).filter(|v| v.is_finite()) {
            Some(v) => json!(v),
            None => absent(name),
        };
        map.insert(name.to_string(), json!({"value": value, "unit": unit}));
    }
    Value::Object(map)
}

fn print_metrics(title: &str, map: &Value) {
    println!("{title}:");
    for (name, m) in map.as_object().into_iter().flatten() {
        let value = m["value"]
            .as_f64()
            .map_or("not measured".into(), |v| format!("{v:.6}"));
        println!(
            "  {name:<36} {value:>16} {}",
            m["unit"].as_str().unwrap_or("")
        );
    }
}

fn write_json(path: &Path, doc: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(doc).map_err(|e| format!("{e:?}"))?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args, process_start: Instant) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        return Err(format!(
            "refusing to run on {nproc} core: the daemon's two workers and the load generator \
             need at least 2, and numbers from fewer would not be comparable"
        ));
    }
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc} loadavg {loadavg}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut report: Report = match args.workload.as_str() {
        "serve_hit" => serve::run(
            serve::Kind::Hit,
            args.seed,
            args.seconds,
            args.trace,
            process_start,
        ),
        "serve_miss" => serve::run(
            serve::Kind::Miss,
            args.seed,
            args.seconds,
            args.trace,
            process_start,
        ),
        "serve_open" => serve::run(
            serve::Kind::Open,
            args.seed,
            args.seconds,
            args.trace,
            process_start,
        ),
        _ => offline::run(args.seed, args.seconds, args.trace, process_start),
    }?;

    // An end-to-end metric the run could not measure is `null` and voids
    // the run: a zero would read as a measurement, and for a time or a
    // size as an improvement.
    let mut unmeasured = Vec::new();
    let end_to_end = metric_map(
        &report.end_to_end,
        END_TO_END.iter().map(|m| (m.name, m.unit)),
        |name| {
            unmeasured.push(format!("end-to-end metric {name} was not measured"));
            Value::Null
        },
    );
    report.failures.extend(unmeasured);
    // A layer the workload never enters reports 0.
    let per_layer = metric_map(
        &report.per_layer,
        PER_LAYER.iter().map(|&(name, unit, _)| (name, unit)),
        |_| json!(0.0),
    );
    print_metrics("end to end", &end_to_end);
    println!(
        "  op_p50_ms and op_p95_ms are over {} of the {} correct ops, {} beyond the p95; \
         checkpoint K = {} ({})",
        report.samples,
        report.ok,
        report.tail_beyond,
        report.checkpoint,
        if report.checkpoint_reached {
            "reached"
        } else {
            "not reached: read at the end"
        }
    );
    if args.trace {
        print_metrics("per layer", &per_layer);
    }
    println!(
        "attempted {} ok {} shed by design {} failed {}",
        report.attempted, report.ok, report.shed_by_design, report.failed
    );
    for why in &report.failures {
        println!("  FAILED: {why}");
    }
    let correct = report.correct();

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut doc = json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace as u64,
        "nproc": nproc,
        "loadavg_start": loadavg,
        "correct": correct,
        "attempted": report.attempted,
        "ok": report.ok,
        "shed_by_design": report.shed_by_design,
        "failed": report.failed,
        "failures": report.failures,
        "samples": report.samples,
        "tail_beyond": report.tail_beyond,
        "checkpoint": report.checkpoint,
        "checkpoint_reached": report.checkpoint_reached,
        "end_to_end": end_to_end,
    });
    if args.trace {
        doc["per_layer"] = per_layer.clone();
        write_json(
            &args.out.join(format!("{}.trace.json", args.workload)),
            &spans::to_json(&args.workload, args.seed, &report.spans),
        )?;
    }
    write_json(
        &args.out.join(format!(
            "{}-s{}-t{}.json",
            args.workload, args.seed, args.trace as u8
        )),
        &doc,
    )?;

    // The contract's result line: the last line of standard output.
    let line = json!({
        "correct": correct,
        "attempted": report.attempted.max(1),
        "failed": report.failed,
        "metrics": if args.trace { per_layer } else { end_to_end },
    });
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| format!("{e:?}"))?
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            compare::run(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("compare") | None => Err(USAGE.to_string()),
        Some(_) => parse(&args).and_then(|a| run(&a, process_start)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
