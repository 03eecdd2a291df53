//! `crossmesh` — plan and simulate cross-mesh resharding and pipeline
//! schedules from the shell.
//!
//! ```text
//! crossmesh reshard  --src-spec RS0R --dst-spec S0RR --src-mesh 2x4 \
//!                    --dst-mesh 2x4 --shape 1024x1024x512 [--elem-bytes 4]
//!                    [--strategy broadcast|send_recv|local_allgather|global_allgather|alpa]
//!                    [--planner ours|naive|lpt|dfs|greedy] [--verify] [--json]
//! crossmesh pipeline --model gpt-case1|gpt-case2|utrans [--schedule eager|1f1b|gpipe]
//!                    [--comm overlap|sync|signal] [--microbatches N] [--iterations N] [--json]
//! ```
//!
//! Bandwidths default to the paper's p3.8xlarge class (NVLink intra-host,
//! 10 Gbps inter-host); `--inter-bw` / `--intra-bw` override them in
//! bytes/s. `--threads N` (or the `CROSSMESH_THREADS` environment
//! variable) sets the planner worker-pool width; plans are identical at
//! any width.

mod args;

use args::Args;
use crossmesh_autoshard::{search, AutoShardProblem};
use crossmesh_check::verify::AssignmentView;
use crossmesh_core::{
    build_meshes, dataplane, parse_shape, planner_for, CostParams, EnsemblePlanner,
    LoadBalancePlanner, PlanCache, PlanRun, Planner, PlannerConfig, Strategy, StrategyChoice,
    TaskSpec,
};
use crossmesh_faults::{execute_with_repair, FaultSchedule};
use crossmesh_mesh::DeviceMesh;
use crossmesh_models::gpt::GptConfig;
use crossmesh_models::utransformer::UTransformerConfig;
use crossmesh_models::{presets, ModelJob, Precision};
use crossmesh_netsim::{ClusterSpec, LinkParams, SimBackend, TaskGraph, Trace, Work};
use crossmesh_obs as obs;
use crossmesh_pipeline::{
    simulate_with_cache, CommMode, PipelineConfig, ScheduleKind, WeightDelay,
};
use crossmesh_serve::BackendKind;
use std::error::Error;
use std::process::ExitCode;

const USAGE: &str = "\
crossmesh — cross-mesh resharding planner/simulator (MLSys 2023 reproduction)

USAGE:
  crossmesh reshard  --src-spec <SPEC> --dst-spec <SPEC> --src-mesh <RxC> --dst-mesh <RxC>
                     --shape <AxBxC> [--elem-bytes N] [--strategy S] [--planner P]
                     [--backend B] [--seed N] [--inter-bw B] [--intra-bw B]
                     [--faults FILE] [--threads N] [--verify] [--json]
  crossmesh pipeline --model gpt-case1|gpt-case2|utrans [--schedule eager|1f1b|gpipe]
                     [--comm overlap|sync|signal] [--microbatches N] [--iterations N]
                     [--backend B] [--threads N] [--json]
  crossmesh autospec --src-mesh <RxC> --dst-mesh <RxC> --shape <AxBxC> [--elem-bytes N]
                     [--fixed-src SPEC] [--fixed-dst SPEC] [--memory-cap BYTES] [--json]
  crossmesh check    --task spec.json --plan plan.json [--format text|json]
  crossmesh check    --races [--seeds N] [--format text|json]
  crossmesh validate-trace --trace FILE.json [--against OTHER.json] [--json]
  crossmesh moe      [--hosts N] [--gpus-per-host N] [--fabric rails|flat|fat-tree|torus]
                     [--strategy multi_rail|send_recv|broadcast] [--direction dispatch|combine]
                     [--tokens N] [--skew F] [--seed N] [--trace-out FILE] [--verify] [--json]
  crossmesh serve    [--workers N] [--backend B] [--planner P] [--rate R] [--burst B]
                     [--queue-depth N] [--allow-remote-shutdown] [--addr-out FILE]
                     [--metrics-out FILE] [--trace-out FILE] [--flightrec-dir DIR]
                     [--slo-exec-p99-ms MS] [--max-seconds S] [--json]
  crossmesh client   --addr HOST:PORT [--tenant NAME] [--ping|--stats|--telemetry|--shutdown]
                     [reshard args: --src-spec/--dst-spec/--src-mesh/--dst-mesh/--shape
                      [--elem-bytes N] [--planner P] [--seed N] [--faults FILE]] [--json]

  strategies: broadcast (default) | send_recv | local_allgather | global_allgather
              | tree_broadcast | multi_rail | alpa
  planners:   ours (default) | naive | lpt | dfs | greedy
  backends:   sim (default, flow-level simulator with max-min fair sharing)
              | threads (real multi-threaded execution) | tcp (threads + TCP
              loopback for inter-host flows)
  specs:      R / S0 / S1 / S01 per tensor dimension, e.g. S0RR
  --seed:     RNG seed for the randomized-greedy planner (ours/greedy)
  --faults:   JSON fault schedule (crossmesh-faults format) injected into the
              run; sender crashes trigger failover onto surviving replicas
  --emit-task/--emit-plan: write the reshard problem / the computed plan as
              JSON, in the format `crossmesh check` consumes
  check:      run the static plan verifier (coverage, sender, ring, and
              capacity rules) over an emitted plan; exits non-zero on errors
  check --races: run the happens-before race detector instead — the seeded
              defect classes must all convict across --seeds schedule seeds
              (default 8) and the clean concurrent suite must stay silent at
              pool widths 1/4/8; exits non-zero on any miss
  --threads:  planner worker-pool width (default: CROSSMESH_THREADS env var,
              else all cores); plans are byte-identical at any width
  --iterations: training iterations to simulate; the plan cache carries
              resharding plans across them and the hit rate is reported
  --trace-out: write the unified Chrome/Perfetto timeline (device rows,
              compute/comm events, counter tracks) — same schema for every
              backend; open at https://ui.perfetto.dev
  --metrics:  append the global metrics registry (planner, plan cache,
              recovery, runtime) to the output
  --metrics-out: write that same registry to a file; the serve daemon
              flushes it at shutdown, every other command after the run
  --flightrec-dir: serve — directory for flight-recorder dumps; the daemon
              writes a Perfetto-compatible flightrec-*.json on check
              convictions, fault repairs, shed spikes, SLO breaches, and
              worker panics
  --slo-exec-p99-ms: serve — SLO ceiling on the rolling-window p99
              execute latency; breaches bump obs.slo.* and dump the
              flight recorder
  --log-level: error|warn|info|debug|trace — stream structured spans and
              events to stderr
  moe:        plan, statically verify (plan.* and plan.a2a.* rules), and
              simulate one MoE all-to-all — token dispatch or expert
              combine — drawn from the seeded GPT-MoE gate on a typed
              fabric; --verify replays it on the byte-exact data plane
  serve:      run the multi-tenant resharding daemon on an ephemeral
              loopback port (printed on stdout, and written to --addr-out);
              per-tenant token-bucket admission (--rate req/s, --burst,
              --queue-depth), graceful drain on shutdown; --max-seconds
              bounds the run for CI harnesses
  client:     talk to a running daemon — submit a reshard (same spec
              arguments as `reshard`, --faults ships a fault schedule for
              the daemon to inject), or --ping/--stats/--shutdown;
              --telemetry prints the daemon's live Prometheus exposition
              with rolling-window latency quantiles";

/// Options every subcommand accepts.
const GLOBAL_OPTIONS: &str = "threads log-level metrics metrics-out help";

type Command = fn(&Args) -> Result<String, Box<dyn Error>>;

/// Every subcommand: its name, its handler, and the options it reads
/// besides [`GLOBAL_OPTIONS`]. Any other option is an error, so a typo
/// never runs with the default it meant to override.
const COMMANDS: &[(&str, Command, &str)] = &[
    (
        "reshard",
        reshard,
        "src-spec dst-spec src-mesh dst-mesh shape elem-bytes strategy planner backend seed \
         inter-bw intra-bw faults emit-task emit-plan trace-out verify json",
    ),
    (
        "pipeline",
        pipeline,
        "model schedule comm microbatches iterations backend json",
    ),
    (
        "autospec",
        autospec,
        "src-mesh dst-mesh shape elem-bytes inter-bw intra-bw fixed-src fixed-dst memory-cap \
         json",
    ),
    ("check", check, "task plan races seeds format"),
    (
        "moe",
        moe,
        "hosts gpus-per-host inter-bw intra-bw fabric strategy direction tokens skew seed \
         trace-out verify json",
    ),
    ("validate-trace", validate_trace, "trace against json"),
    (
        "serve",
        serve,
        "workers backend planner rate burst queue-depth allow-remote-shutdown addr-out \
         trace-out flightrec-dir slo-exec-p99-ms max-seconds json",
    ),
    (
        "client",
        client,
        "addr tenant ping stats telemetry shutdown src-spec dst-spec src-mesh dst-mesh shape \
         elem-bytes planner seed faults json",
    ),
];

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    match run(tokens) {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(tokens: Vec<String>) -> Result<String, Box<dyn Error>> {
    let args = Args::parse(
        tokens,
        &[
            "json",
            "verify",
            "help",
            "metrics",
            "allow-remote-shutdown",
            "ping",
            "stats",
            "telemetry",
            "shutdown",
            "races",
        ],
        |name| {
            let (_, _, options) = COMMANDS.iter().find(|(n, ..)| *n == name)?;
            let globals = GLOBAL_OPTIONS.split_whitespace();
            Some(options.split_whitespace().chain(globals).collect())
        },
    )?;
    if args.has_flag("help") {
        return Ok(USAGE.to_string());
    }
    let command = match args.command.as_deref() {
        None => None,
        Some(name) => match COMMANDS.iter().find(|(n, ..)| *n == name) {
            Some((_, command, _)) => Some(command),
            None => return Err(format!("unknown command {name:?}").into()),
        },
    };
    // --log-level streams spans/events to stderr for the whole command;
    // the guard restores the previous (usually absent) collector on exit.
    let _logger = match args.get("log-level") {
        Some(name) => {
            let level =
                obs::Level::parse(name).ok_or_else(|| format!("unknown --log-level {name:?}"))?;
            Some(obs::install(std::sync::Arc::new(obs::StderrLogger::new(
                level,
            ))))
        }
        None => None,
    };
    let dispatch = || match command {
        Some(command) => command(&args),
        None => Ok(USAGE.to_string()),
    };
    // --threads installs a fixed-width planner pool around the whole
    // command; without it, the global pool (CROSSMESH_THREADS env var or
    // all cores) is used. Planning is deterministic either way.
    let out = match args.get_parsed("threads", 0usize)? {
        0 => dispatch(),
        n => rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .map_err(|e| format!("cannot build a {n}-thread pool: {e}"))?
            .install(dispatch),
    }?;
    // --metrics-out snapshots the whole registry to a file after any
    // non-serve command, netsim counters folded in first so the file is
    // never missing the engine's share. (The serve daemon owns the same
    // flag itself: it flushes at shutdown, after its workers are done.)
    if args.command.as_deref() != Some("serve") {
        if let Some(path) = args.get("metrics-out") {
            obs::sync_netsim_metrics(obs::metrics());
            std::fs::write(path, obs::metrics().render_text())
                .map_err(|e| format!("cannot write --metrics-out {path:?}: {e}"))?;
        }
    }
    if args.has_flag("metrics") {
        // Fold the netsim engine's cumulative counters in before rendering
        // so simulator-backed commands report netsim.* alongside the rest.
        obs::sync_netsim_metrics(obs::metrics());
        let text = obs::metrics().render_text();
        return Ok(format!("{out}\n\n== metrics ==\n{}", text.trim_end()));
    }
    Ok(out)
}

/// Parses and structurally validates an exported timeline; with
/// `--against`, additionally checks the two documents share one schema.
fn validate_trace(args: &Args) -> Result<String, Box<dyn Error>> {
    let path = args.get("trace").ok_or("missing --trace")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read --trace {path:?}: {e}"))?;
    let summary = obs::export::validate(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut lines = vec![format!(
        "{path}: OK — {} events, {} device rows, {} counter tracks, categories [{}]",
        summary.events,
        summary.device_rows.len(),
        summary.counter_tracks.len(),
        summary
            .categories
            .iter()
            .cloned()
            .collect::<Vec<_>>()
            .join(", "),
    )];
    if let Some(other_path) = args.get("against") {
        let other_text = std::fs::read_to_string(other_path)
            .map_err(|e| format!("cannot read --against {other_path:?}: {e}"))?;
        let other = obs::export::validate(&other_text).map_err(|e| format!("{other_path}: {e}"))?;
        if !summary.schema_matches(&other) {
            return Err(format!("{path} and {other_path} do not share a schema").into());
        }
        lines.push(format!("{other_path}: OK — schema matches"));
    }
    if args.has_flag("json") {
        let out = serde_json::json!({
            "events": summary.events,
            "device_rows": summary.device_rows.len(),
            "counter_tracks": summary.counter_tracks.iter().collect::<Vec<_>>(),
            "categories": summary.categories.iter().collect::<Vec<_>>(),
            "phases": summary.phases.iter().collect::<Vec<_>>(),
            "schema_matches": args.get("against").map(|_| true),
        });
        return Ok(serde_json::to_string_pretty(&out)?);
    }
    Ok(lines.join("\n"))
}

/// The number of in-flight flows over time, derived from the executed
/// trace — rendered as a Perfetto counter track so both backends' exports
/// carry a `C`-phase series.
fn inflight_flow_samples(graph: &TaskGraph, trace: &Trace) -> Vec<(f64, f64)> {
    let mut deltas: Vec<(f64, f64)> = Vec::new();
    for (id, task) in graph.iter() {
        if let Work::Flow { .. } = task.work {
            let interval = trace.interval(id);
            deltas.push((interval.start * 1e6, 1.0));
            deltas.push((interval.finish * 1e6, -1.0));
        }
    }
    deltas.sort_by(|a, b| a.partial_cmp(b).expect("trace timestamps are finite"));
    let mut level = 0.0;
    let mut samples = vec![(0.0, 0.0)];
    for (ts, delta) in deltas {
        level += delta;
        samples.push((ts, level));
    }
    samples
}

/// The unified timeline of one executed plan: same JSON schema whichever
/// backend ran — host/device rows, compute/comm complete events, marker
/// instants, and an in-flight-flow counter track.
fn timeline(run: &PlanRun, cluster: &ClusterSpec) -> obs::export::TraceExport {
    let mut export = obs::export::TraceExport::new();
    export.push_run(
        &run.graph,
        &run.trace,
        cluster,
        obs::export::RunKind::Primary,
        0.0,
    );
    export.add_counter(
        "comm.inflight_flows",
        &inflight_flow_samples(&run.graph, &run.trace),
    );
    export
}

fn autospec(args: &Args) -> Result<String, Box<dyn Error>> {
    let shape = parse_shape(args.get("shape").ok_or("missing --shape")?)?;
    let elem_bytes: u64 = args.get_parsed("elem-bytes", 4)?;
    let params = cost_params(args)?;
    let (_, src, dst) = build_meshes(
        args.get("src-mesh").ok_or("missing --src-mesh")?,
        args.get("dst-mesh").ok_or("missing --dst-mesh")?,
        LinkParams::new(params.intra_bw, params.inter_bw),
    )?;
    let mut problem = AutoShardProblem::new(src, dst, shape, elem_bytes);
    if let Some(spec) = args.get("fixed-src") {
        problem = problem.with_fixed_src(spec.parse()?);
    }
    if let Some(spec) = args.get("fixed-dst") {
        problem = problem.with_fixed_dst(spec.parse()?);
    }
    if let Some(cap) = args.get("memory-cap") {
        problem = problem.with_memory_cap(cap.parse().map_err(|_| "bad --memory-cap")?);
    }
    let best = search(&problem, &params)?;
    if args.has_flag("json") {
        return Ok(serde_json::to_string_pretty(&best)?);
    }
    Ok(format!(
        "best specs: {} -> {}  (estimated {:.6}s; {} candidates evaluated)",
        best.src_spec, best.dst_spec, best.estimated_seconds, best.candidates_evaluated
    ))
}

fn cost_params(args: &Args) -> Result<CostParams, Box<dyn Error>> {
    let mut p = presets::p3_cost_params();
    p.inter_bw = args.get_parsed("inter-bw", p.inter_bw)?;
    p.intra_bw = args.get_parsed("intra-bw", p.intra_bw)?;
    Ok(p)
}

fn strategy_choice(name: &str) -> Result<StrategyChoice, Box<dyn Error>> {
    Ok(match name {
        "broadcast" => StrategyChoice::Fixed(Strategy::broadcast()),
        "send_recv" => StrategyChoice::Fixed(Strategy::SendRecv),
        "local_allgather" => StrategyChoice::Fixed(Strategy::LocalAllGather),
        "global_allgather" => StrategyChoice::Fixed(Strategy::GlobalAllGather),
        "tree_broadcast" => StrategyChoice::Fixed(Strategy::TreeBroadcast { chunks: 64 }),
        "multi_rail" => StrategyChoice::Fixed(Strategy::multi_rail(4)),
        "alpa" => StrategyChoice::AlpaAuto,
        other => return Err(format!("unknown strategy {other:?}").into()),
    })
}

/// Parses the optional `--seed` of the randomized-greedy planner.
fn seed_arg(args: &Args) -> Result<Option<u64>, Box<dyn Error>> {
    match args.get("seed") {
        Some(s) => Ok(Some(s.parse::<u64>().map_err(|_| "bad --seed")?)),
        None => Ok(None),
    }
}

/// The resharding problem named by `--src-spec/--dst-spec/--src-mesh/
/// --dst-mesh/--shape/--elem-bytes` on a cluster with `params`' links:
/// what `reshard` builds and runs, `--emit-task` writes, `check --task`
/// reads back, and `client` ships to a daemon.
fn task_spec(args: &Args, params: CostParams) -> Result<TaskSpec, Box<dyn Error>> {
    let arg = |name: &str| {
        let value = args.get(name).ok_or_else(|| format!("missing --{name}"));
        value.map(String::from)
    };
    Ok(TaskSpec {
        src_spec: arg("src-spec")?,
        dst_spec: arg("dst-spec")?,
        src_mesh: arg("src-mesh")?,
        dst_mesh: arg("dst-mesh")?,
        shape: arg("shape")?,
        elem_bytes: args.get_parsed("elem-bytes", 4)?,
        inter_bw: params.inter_bw,
        intra_bw: params.intra_bw,
        inter_latency: params.inter_latency,
        intra_latency: params.intra_latency,
    })
}

/// `crossmesh check`: statically verifies a serialized plan against its
/// task without executing anything. Exits non-zero when any rule fires at
/// error severity.
fn check(args: &Args) -> Result<String, Box<dyn Error>> {
    if args.has_flag("races") {
        return check_races(args);
    }
    let task_path = args.get("task").ok_or("missing --task")?;
    let plan_path = args.get("plan").ok_or("missing --plan")?;
    let spec_text = std::fs::read_to_string(task_path)
        .map_err(|e| format!("cannot read --task {task_path:?}: {e}"))?;
    let spec: TaskSpec =
        serde_json::from_str(&spec_text).map_err(|e| format!("--task {task_path:?}: {e}"))?;
    let (task, cluster) = spec.build()?;
    let plan_text = std::fs::read_to_string(plan_path)
        .map_err(|e| format!("cannot read --plan {plan_path:?}: {e}"))?;
    let views: Vec<AssignmentView> =
        serde_json::from_str(&plan_text).map_err(|e| format!("--plan {plan_path:?}: {e}"))?;

    let diags = crossmesh_check::verify::verify_plan(
        task.units(),
        task.shape(),
        task.elem_bytes(),
        &views,
        Some(&cluster),
        &|_, _| false,
    );
    let body = match args.get_or("format", "text") {
        "json" => serde_json::to_string_pretty(&diags)?,
        "text" => {
            if diags.is_empty() {
                format!(
                    "check: OK — {} unit tasks, {} assignments, 0 diagnostics",
                    task.units().len(),
                    views.len()
                )
            } else {
                crossmesh_check::render_text(&diags)
            }
        }
        other => return Err(format!("unknown --format {other:?}").into()),
    };
    if crossmesh_check::has_errors(&diags) {
        // Findings are the output, not a usage error: print them and exit
        // non-zero without the usage banner.
        println!("{body}");
        std::process::exit(1);
    }
    Ok(body)
}

/// `crossmesh check --races`: run the happens-before race detector's
/// acceptance sweep — every seeded defect class must convict under its
/// expected `race.*` rule on every schedule seed, and the clean
/// concurrent suite (with `runtime::execute_plan` armed) must stay silent
/// at pool widths 1, 4, and 8. Exits non-zero on any miss.
fn check_races(args: &Args) -> Result<String, Box<dyn Error>> {
    use crossmesh_check::race::{run_armed, run_clean, run_defect, Defect};
    use crossmesh_check::schedules::sweep;

    let seeds: u64 = args.get_parsed("seeds", 8u64)?;
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let mut failed = false;
    let mut defects = Vec::new();
    for defect in Defect::all() {
        let report = sweep(0, seeds, |seed| (run_defect(defect, seed), None));
        let matching = report
            .outcomes
            .iter()
            .filter(|o| {
                o.diagnostics
                    .iter()
                    .any(|d| defect.expected_rules().contains(&d.rule))
            })
            .count() as u64;
        failed |= matching != seeds;
        defects.push((defect, matching));
    }
    let mut widths = Vec::new();
    let params = presets::p3_cost_params();
    for width in [1usize, 4, 8] {
        // The real-bytes data plane joins the clean suite: a plan with
        // `width` sending devices runs as `width` lanes on the delivery
        // engine's pool, armed, and must match the sequential oracle
        // byte for byte.
        let (task, _) = TaskSpec {
            src_spec: "S1R".into(),
            dst_spec: "RS1".into(),
            src_mesh: format!("1x{width}"),
            dst_mesh: "1x2".into(),
            shape: "16x8".into(),
            elem_bytes: 2,
            inter_bw: params.inter_bw,
            intra_bw: params.intra_bw,
            inter_latency: params.inter_latency,
            intra_latency: params.intra_latency,
        }
        .build()?;
        let plan = LoadBalancePlanner::new(PlannerConfig::new(params)).plan(&task);
        let oracle = dataplane::execute_and_verify(&plan)?;
        let report = sweep(0, seeds, |seed| {
            let mut diags = run_clean(width, seed);
            diags.extend(run_armed(seed, || {
                let threaded = crossmesh_runtime::execute_plan(&plan).expect("armed run executes");
                assert_eq!(threaded, oracle, "dataflow diverged at width {width}");
            }));
            (diags, None)
        });
        let findings = report.total_findings();
        let oracle_failures = report.oracle_failures().len();
        failed |= findings > 0 || oracle_failures > 0;
        widths.push((width, findings, oracle_failures));
    }

    let body = match args.get_or("format", "text") {
        "json" => {
            let out = serde_json::json!({
                "seeds": seeds,
                "defects": defects
                    .iter()
                    .map(|(d, matching)| {
                        serde_json::json!({
                            "name": d.name(),
                            "expected_rules": d
                                .expected_rules()
                                .iter()
                                .map(|r| r.id())
                                .collect::<Vec<_>>(),
                            "convicted_seeds": matching,
                        })
                    })
                    .collect::<Vec<_>>(),
                "clean_widths": widths
                    .iter()
                    .map(|(w, findings, oracles)| {
                        serde_json::json!({
                            "width": w,
                            "findings": findings,
                            "oracle_failures": oracles,
                        })
                    })
                    .collect::<Vec<_>>(),
                "ok": !failed,
            });
            serde_json::to_string_pretty(&out)?
        }
        "text" => {
            let mut lines = Vec::new();
            for (defect, matching) in &defects {
                lines.push(format!(
                    "defect {}: {} ({matching}/{seeds} seeds convicted under {})",
                    defect.name(),
                    if *matching == seeds { "ok" } else { "MISSED" },
                    defect
                        .expected_rules()
                        .iter()
                        .map(|r| r.id())
                        .collect::<Vec<_>>()
                        .join("|"),
                ));
            }
            for (width, findings, oracles) in &widths {
                lines.push(format!(
                    "clean width {width}: {} ({seeds} seeds, {findings} findings, \
                     {oracles} oracle failures)",
                    if *findings == 0 && *oracles == 0 {
                        "ok"
                    } else {
                        "FALSE POSITIVE"
                    },
                ));
            }
            lines.push(if failed {
                "check --races: FAILED".to_string()
            } else {
                format!("check --races: OK — {seeds} seeds per sweep")
            });
            lines.join("\n")
        }
        other => return Err(format!("unknown --format {other:?}").into()),
    };
    if failed {
        // Misses are the output, not a usage error.
        println!("{body}");
        std::process::exit(1);
    }
    Ok(body)
}

/// `crossmesh moe`: plan, statically verify, and simulate one MoE
/// all-to-all (token dispatch or expert combine) whose per-pair shard
/// sizes come from the seeded GPT-MoE gate. Token hosts occupy the first
/// half of the cluster, expert hosts the second; `--verify` additionally
/// replays the plan on the byte-exact expert-shard data plane.
fn moe(args: &Args) -> Result<String, Box<dyn Error>> {
    use crossmesh_models::moe::GptMoeConfig;
    use crossmesh_moe::{execute_reference, execute_threaded, A2aTask, RoutingConfig};
    use crossmesh_netsim::FabricModel;

    let hosts: u32 = args.get_parsed("hosts", 8u32)?;
    if hosts < 2 || !hosts.is_multiple_of(2) {
        return Err("--hosts must be even: half token hosts, half expert hosts".into());
    }
    let gpus: u32 = args.get_parsed("gpus-per-host", 4u32)?;
    let params = cost_params(args)?;
    let fabric_name = args.get_or("fabric", "rails");
    let fabric = match fabric_name {
        "rails" => FabricModel::RailOptimized {
            rails: gpus,
            spine_capacity: params.inter_bw,
        },
        "flat" => FabricModel::Flat {
            capacity: Some(f64::from(hosts) * params.inter_bw / 2.0),
        },
        "fat-tree" => FabricModel::FatTree {
            pod_hosts: hosts / 2,
            oversubscription: 4.0,
        },
        "torus" => FabricModel::Torus2D {
            rows: 2,
            cols: hosts / 2,
            link_capacity: params.inter_bw,
        },
        other => return Err(format!("unknown fabric {other:?}").into()),
    };
    let cluster = ClusterSpec::homogeneous(
        hosts,
        gpus,
        LinkParams::new(params.intra_bw, params.inter_bw)
            .with_latencies(params.intra_latency, params.inter_latency),
    )
    .with_fabric(fabric);

    let half = (hosts / 2) as usize;
    let per = gpus as usize;
    let tokens_mesh = DeviceMesh::from_cluster(&cluster, 0, (half, per), "moe-tokens")?;
    let experts_mesh = DeviceMesh::from_cluster(&cluster, half, (half, per), "moe-experts")?;

    let skew: f64 = args.get_parsed("skew", 1.0)?;
    let seed: u64 = args.get_parsed("seed", 17)?;
    let model = GptMoeConfig::case1().with_skew(skew).with_seed(seed);
    let routing = RoutingConfig {
        tokens_per_device: args.get_parsed("tokens", 64u64)?,
        ..model.routing()
    };
    let senders = half * per;
    let bytes = routing.bytes_matrix(senders, senders);
    let a2a = match args.get_or("direction", "dispatch") {
        "dispatch" => A2aTask::dispatch(&tokens_mesh, &experts_mesh, &bytes),
        "combine" => A2aTask::combine(&tokens_mesh, &experts_mesh, &bytes),
        other => return Err(format!("unknown --direction {other:?}").into()),
    };

    let strategy_name = args.get_or("strategy", "multi_rail");
    let strategy = match strategy_name {
        // One chunk per rail: the a2a's per-pair parallelism already
        // fills the fabric; finer chunking only multiplies hop latency.
        "multi_rail" => Strategy::MultiRail {
            rails: gpus,
            chunks: gpus,
        },
        "send_recv" => Strategy::SendRecv,
        "broadcast" => Strategy::broadcast(),
        other => return Err(format!("unknown strategy {other:?}").into()),
    };
    let planner = LoadBalancePlanner::new(
        PlannerConfig::new(params).with_strategy(StrategyChoice::Fixed(strategy)),
    );
    let plan = planner.plan(a2a.task());

    let mut diags = plan.verify(Some(&cluster), &|_, _| false);
    let views: Vec<AssignmentView> = plan
        .assignments()
        .iter()
        .map(crossmesh_core::Assignment::as_view)
        .collect();
    diags.extend(crossmesh_check::verify::verify_a2a(
        a2a.pairs(),
        a2a.task().units(),
        a2a.task().elem_bytes(),
        &views,
        Some(&cluster),
    ));
    if crossmesh_check::has_errors(&diags) {
        // Convictions are the output, not a usage error.
        println!("{}", crossmesh_check::render_text(&diags));
        std::process::exit(1);
    }
    let warnings = diags.len();

    let run = plan.run_with(&SimBackend, &cluster)?;
    let report = run.report();

    // Per-rail spray totals feed the moe.rail.* gauges so --metrics /
    // --metrics-out runs show how evenly the typed fabric's rails were
    // loaded; an empty vector means no assignment used multi-rail.
    let rail_bytes = a2a.rail_utilization(&plan);
    let rail_imbalance = if rail_bytes.is_empty() {
        None
    } else {
        let max = rail_bytes.iter().copied().fold(0.0f64, f64::max);
        let mean = rail_bytes.iter().sum::<f64>() / rail_bytes.len() as f64;
        Some(if mean > 0.0 { max / mean } else { 1.0 })
    };
    {
        let m = obs::metrics();
        for (i, b) in rail_bytes.iter().enumerate() {
            m.gauge(&format!("moe.rail.{i}.bytes")).set(*b);
        }
        if let Some(imb) = rail_imbalance {
            m.gauge("moe.rail.imbalance").set(imb);
            m.counter("moe.rail.sprayed_bytes")
                .add(rail_bytes.iter().sum::<f64>() as u64);
        }
    }

    if let Some(path) = args.get("trace-out") {
        // Same unified timeline as `reshard --trace-out`, plus a static
        // per-rail byte-load counter track for the spray decision.
        let mut export = timeline(&run, &cluster);
        for (i, b) in rail_bytes.iter().enumerate() {
            export.add_counter(format!("moe.rail.{i}.bytes"), &[(0.0, *b)]);
        }
        std::fs::write(path, export.render())?;
    }

    let verified = if args.has_flag("verify") {
        let reference = execute_reference(&a2a)?;
        let threaded = execute_threaded(&a2a, 4)?;
        if reference != threaded {
            return Err("threaded delivery diverged from the reference data plane".into());
        }
        Some(true)
    } else {
        None
    };

    if args.has_flag("json") {
        let out = serde_json::json!({
            "direction": a2a.direction().to_string(),
            "fabric": fabric_name,
            "strategy": strategy_name,
            "skew": skew,
            "seed": seed,
            "unit_tasks": a2a.task().units().len(),
            "pairs": a2a.pairs().len(),
            "total_bytes": a2a.total_bytes(),
            "simulated_seconds": report.simulated_seconds,
            "cross_host_bytes": report.cross_host_bytes,
            "rail_bytes": rail_bytes,
            "rail_imbalance": rail_imbalance,
            "diagnostics": warnings,
            "data_plane_verified": verified,
        });
        return Ok(serde_json::to_string_pretty(&out)?);
    }
    let mut out = format!(
        "moe {}: {} expert shards ({} unit tasks), {:.1} MB total\n\
         fabric {fabric_name}, strategy {strategy_name}, gate skew {skew:.1} (seed {seed})\n\
         simulated: {:.6}s, cross-host traffic {:.1} MB, {} warnings, 0 convictions",
        a2a.direction(),
        a2a.pairs().len(),
        a2a.task().units().len(),
        a2a.total_bytes() as f64 / 1e6,
        report.simulated_seconds,
        report.cross_host_bytes / 1e6,
        warnings,
    );
    if let Some(imb) = rail_imbalance {
        out.push_str(&format!(
            "\nrails: [{}] MB, imbalance {imb:.3} (max/mean)",
            rail_bytes
                .iter()
                .map(|b| format!("{:.1}", b / 1e6))
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }
    if verified == Some(true) {
        out.push_str("\ndata plane: verified — every expert shard delivered byte-exactly");
    }
    Ok(out)
}

fn reshard(args: &Args) -> Result<String, Box<dyn Error>> {
    let params = cost_params(args)?;
    let spec = task_spec(args, params)?;
    let (task, cluster) = spec.build()?;

    let config = PlannerConfig::new(params)
        .with_strategy(strategy_choice(args.get_or("strategy", "broadcast"))?);
    let planner = planner_for(args.get_or("planner", "ours"), config, seed_arg(args)?)?;
    let backend = BackendKind::parse(args.get_or("backend", "sim"))?.instantiate();
    let plan = planner.plan(&task);
    if let Some(path) = args.get("emit-task") {
        std::fs::write(path, serde_json::to_string_pretty(&spec)?)?;
    }
    if let Some(path) = args.get("emit-plan") {
        std::fs::write(path, serde_json::to_string_pretty(plan.assignments())?)?;
    }
    // The plan is lowered and executed exactly once; the report and the
    // exported timeline below both describe that run.
    let recovery = match args.get("faults") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read --faults {path:?}: {e}"))?;
            let schedule =
                FaultSchedule::from_json(&text).map_err(|e| format!("--faults {path:?}: {e}"))?;
            schedule
                .validate()
                .map_err(|e| format!("--faults {path:?}: {e}"))?;
            // Also validate the compiled mechanical form against the
            // lowered graph: `to_disruptions` rolls per-flow drops, so
            // defects invisible in the declarative schedule surface here,
            // before the cluster commits to execution.
            let mut graph = TaskGraph::new();
            plan.lower(&mut graph, &[]);
            schedule
                .to_disruptions(&graph)
                .validate()
                .map_err(|e| format!("--faults {path:?}: compiled schedule invalid: {e}"))?;
            Some(execute_with_repair(
                &plan, &cluster, &*backend, &schedule, None,
            )?)
        }
        None => None,
    };
    let clean;
    let run = match &recovery {
        Some(r) => &r.run,
        None => {
            clean = plan.run_with(&*backend, &cluster)?;
            &clean
        }
    };
    let report = run.report();

    if let Some(path) = args.get("trace-out") {
        std::fs::write(path, timeline(run, &cluster).render())?;
    }

    let verified = if args.has_flag("verify") {
        // The data plane materializes every element; keep it to sizes
        // where that is instant.
        let elements: u64 = task.shape().iter().product();
        if elements > 1 << 24 {
            return Err(format!(
                "--verify materializes every element; {elements} elements is too many \
                 (use a shape with at most {} elements)",
                1u64 << 24
            )
            .into());
        }
        dataplane::execute_and_verify(&plan)?;
        Some(true)
    } else {
        None
    };

    if args.has_flag("json") {
        let faults = recovery.as_ref().map(|r| {
            serde_json::json!({
                "repaired": r.repaired,
                "failovers": r.failovers,
                "excluded_hosts": r.excluded_hosts.iter().map(|h| h.0).collect::<Vec<u32>>(),
                "retries": r.retries,
                "degraded_makespan_seconds": r.degraded_makespan,
            })
        });
        let out = serde_json::json!({
            "task": task.to_string(),
            "unit_tasks": task.units().len(),
            "total_bytes": task.total_bytes(),
            "planner": planner.name(),
            "backend": backend.name(),
            "estimate_seconds": plan.estimate(),
            "lower_bound_seconds": plan.lower_bound(),
            "simulated_seconds": report.simulated_seconds,
            "cross_host_bytes": report.cross_host_bytes,
            "data_plane_verified": verified,
            "faults": faults,
        });
        return Ok(serde_json::to_string_pretty(&out)?);
    }
    let mut out = format!(
        "task: {task}\n{} unit tasks, {:.1} MB tensor\nplanner: {} (backend {})\n\
         simulated: {:.6}s (estimate {:.6}s, bandwidth bound {:.6}s)\n\
         cross-host traffic: {:.1} MB",
        task.units().len(),
        task.total_bytes() as f64 / 1e6,
        planner.name(),
        backend.name(),
        report.simulated_seconds,
        plan.estimate(),
        plan.lower_bound(),
        report.cross_host_bytes / 1e6,
    );
    if let Some(r) = &recovery {
        if r.repaired {
            let hosts: Vec<String> = r.excluded_hosts.iter().map(|h| h.to_string()).collect();
            out.push_str(&format!(
                "\nfaults: failed over {} unit tasks around {} ({} retries, degraded makespan {:.6}s)",
                r.failovers,
                hosts.join(","),
                r.retries,
                r.degraded_makespan.unwrap_or(report.simulated_seconds),
            ));
        } else {
            out.push_str(&format!(
                "\nfaults: absorbed {} retries, no failover needed",
                r.retries
            ));
        }
    }
    if verified == Some(true) {
        out.push_str("\ndata plane: verified — every destination tile correct");
    }
    Ok(out)
}

fn pipeline(args: &Args) -> Result<String, Box<dyn Error>> {
    let model = args.get("model").ok_or("missing --model")?;
    let microbatches: usize = args.get_parsed("microbatches", 0)?;
    let (name, job, cluster): (&str, ModelJob, ClusterSpec) = match model {
        "gpt-case1" | "gpt-case2" => {
            let cluster = presets::aws_p3_8xlarge(2, Precision::Fp16);
            let mut cfg = if model == "gpt-case1" {
                GptConfig::case1()
            } else {
                GptConfig::case2()
            };
            if microbatches > 0 {
                cfg.num_microbatches = microbatches;
            }
            ("GPT-2.6B", cfg.build(&cluster)?, cluster)
        }
        "utrans" => {
            let cluster = presets::aws_p3_8xlarge(2, Precision::Fp32);
            let mut cfg = UTransformerConfig::case1();
            if microbatches > 0 {
                cfg.num_microbatches = microbatches;
                cfg.global_batch = 64 * microbatches as u64;
            }
            ("U-Transformer-2.1B", cfg.build(&cluster)?, cluster)
        }
        other => return Err(format!("unknown model {other:?}").into()),
    };

    let schedule = match args.get_or("schedule", "eager") {
        "eager" => ScheduleKind::Eager1F1B,
        "1f1b" => ScheduleKind::OneFOneB,
        "gpipe" => ScheduleKind::GPipe,
        other => return Err(format!("unknown schedule {other:?}").into()),
    };
    let comm = match args.get_or("comm", "overlap") {
        "overlap" => CommMode::Overlapped,
        "sync" => CommMode::Synchronous,
        "signal" => CommMode::Signal,
        other => return Err(format!("unknown comm mode {other:?}").into()),
    };
    let backend = BackendKind::parse(args.get_or("backend", "sim"))?.instantiate();
    let planner = EnsemblePlanner::new(PlannerConfig::new(presets::p3_cost_params()));
    let config = PipelineConfig {
        schedule,
        comm,
        weight_delay: WeightDelay::None,
    };
    let iterations = args.get_parsed("iterations", 1usize)?.max(1);
    // One plan cache across all iterations: every iteration after the
    // first replays its resharding plans instead of re-planning them.
    let cache = PlanCache::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut report = None;
    for _ in 0..iterations {
        let r = simulate_with_cache(
            &job.graph,
            &cluster,
            &planner,
            &config,
            &*backend,
            Some(&cache),
        )?;
        hits += r.plan_cache_hits;
        misses += r.plan_cache_misses;
        report = Some(r);
    }
    let report = report.expect("at least one iteration ran");
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };

    if args.has_flag("json") {
        let out = serde_json::json!({
            "model": name,
            "backend": backend.name(),
            "schedule": schedule.to_string(),
            "microbatches": job.graph.num_microbatches(),
            "iterations": iterations,
            "iteration_seconds": report.iteration_seconds,
            "aggregate_tflops": job.aggregate_tflops(report.iteration_seconds),
            "per_gpu_tflops": job.per_gpu_tflops(report.iteration_seconds),
            "cross_host_bytes": report.cross_host_bytes,
            "peak_memory_bytes": report.peak_memory_bytes,
            "plan_cache_hits": hits,
            "plan_cache_misses": misses,
            "plan_cache_hit_rate": hit_rate,
        });
        return Ok(serde_json::to_string_pretty(&out)?);
    }
    Ok(format!(
        "{name}: schedule {schedule}, {} microbatches, {iterations} iteration(s)\n\
         iteration {:.3}s — {:.1} aggregate TFLOPS ({:.1}/GPU)\n\
         cross-host traffic {:.2} GB, peak memory/GPU {:.2} GB\n\
         plan cache: {hits} hits / {misses} misses ({:.0}% hit rate)",
        job.graph.num_microbatches(),
        report.iteration_seconds,
        job.aggregate_tflops(report.iteration_seconds),
        job.per_gpu_tflops(report.iteration_seconds),
        report.cross_host_bytes / 1e9,
        report.peak_memory_bytes[0] / 1e9,
        hit_rate * 100.0,
    ))
}

/// `crossmesh serve`: run the multi-tenant resharding daemon until a
/// shutdown request (or `--max-seconds`) and report the drain summary.
fn serve(args: &Args) -> Result<String, Box<dyn Error>> {
    use crossmesh_serve::{AdmissionConfig, ServeConfig, Server};
    let admission = AdmissionConfig {
        rate: args.get_parsed("rate", AdmissionConfig::default().rate)?,
        burst: args.get_parsed("burst", AdmissionConfig::default().burst)?,
        queue_depth: args.get_parsed("queue-depth", AdmissionConfig::default().queue_depth)?,
    };
    let cfg = ServeConfig {
        workers: args.get_parsed("workers", 2usize)?,
        admission,
        backend: BackendKind::parse(args.get_or("backend", "sim"))?,
        default_planner: args.get_or("planner", "ours").to_string(),
        allow_remote_shutdown: args.has_flag("allow-remote-shutdown"),
        metrics_out: args.get("metrics-out").map(String::from),
        trace_out: args.get("trace-out").map(String::from),
        flightrec_dir: args.get("flightrec-dir").map(String::from),
        slo_exec_p99_ms: match args.get("slo-exec-p99-ms") {
            Some(v) => Some(v.parse::<f64>().map_err(|_| "bad --slo-exec-p99-ms")?),
            None => None,
        },
    };
    let max_seconds = args.get_parsed("max-seconds", 0.0f64)?;
    let server = Server::start(cfg)?;
    let addr = server.addr();
    // The address must reach the operator before the daemon blocks; the
    // run() return value only prints after shutdown.
    println!("serving on {addr}");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    if let Some(path) = args.get("addr-out") {
        std::fs::write(path, addr.to_string())
            .map_err(|e| format!("cannot write --addr-out {path:?}: {e}"))?;
    }
    let deadline = (max_seconds > 0.0)
        .then(|| std::time::Instant::now() + std::time::Duration::from_secs_f64(max_seconds));
    while !server.shutdown_requested() {
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let summary = server.shutdown();
    if args.has_flag("json") {
        return Ok(serde_json::to_string_pretty(&summary)?);
    }
    Ok(format!(
        "serve: drained after {:.1}s — {} completed / {} failed / {} rejected, \
         cache {} hits / {} misses, {} verifier convictions",
        summary.uptime_seconds,
        summary.completed,
        summary.failed,
        summary.rejected,
        summary.cache_hits,
        summary.cache_misses,
        summary.verifier_convictions,
    ))
}

/// `crossmesh client`: one request to a running daemon.
fn client(args: &Args) -> Result<String, Box<dyn Error>> {
    use crossmesh_serve::{Client, ReshardRequest, Response};
    let addr: std::net::SocketAddr = args
        .get("addr")
        .ok_or("missing --addr")?
        .parse()
        .map_err(|_| "bad --addr (want HOST:PORT)")?;
    let mut client = Client::connect(addr)?;
    let tenant = args.get_or("tenant", "default");
    if args.has_flag("ping") {
        client.ping()?;
        return Ok("pong".to_string());
    }
    if args.has_flag("shutdown") {
        client.shutdown()?;
        return Ok("daemon is shutting down".to_string());
    }
    if args.has_flag("telemetry") {
        // The daemon's live Prometheus-style exposition: counters,
        // histograms, and the rolling-window latency quantiles.
        return Ok(client.telemetry()?.trim_end().to_string());
    }
    if args.has_flag("stats") {
        let stats = client.stats()?;
        return Ok(if args.has_flag("json") {
            serde_json::to_string_pretty(&stats)?
        } else {
            format!(
                "stats: {} accepted / {} rejected / {} completed / {} failed; \
                 cache {} hits / {} misses / {} entries; {} convictions; {} tenants",
                stats.accepted,
                stats.rejected,
                stats.completed,
                stats.failed,
                stats.cache_hits,
                stats.cache_misses,
                stats.cache_entries,
                stats.verifier_convictions,
                stats.tenants.len(),
            )
        });
    }
    let spec = task_spec(args, presets::p3_cost_params())?;
    let req = ReshardRequest {
        src_spec: spec.src_spec,
        dst_spec: spec.dst_spec,
        src_mesh: spec.src_mesh,
        dst_mesh: spec.dst_mesh,
        shape: spec.shape,
        elem_bytes: spec.elem_bytes,
        planner: args.get_or("planner", "").to_string(),
        seed: seed_arg(args)?,
        faults: match args.get("faults") {
            Some(path) => Some(
                std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read --faults {path:?}: {e}"))?,
            ),
            None => None,
        },
    };
    let resp = client.reshard(tenant, req)?;
    if args.has_flag("json") {
        return Ok(serde_json::to_string_pretty(&resp)?);
    }
    Ok(match resp {
        Response::Done(d) => format!(
            "done: {} unit tasks, cache {}, queued {:.2}ms, planned {:.2}ms, \
             executed {:.2}ms, estimate {:.6}s, simulated {:.6}s",
            d.unit_tasks,
            if d.cache_hit { "hit" } else { "miss" },
            d.queue_ms,
            d.plan_ms,
            d.exec_ms,
            d.estimate_seconds,
            d.simulated_seconds,
        ),
        Response::Rejected(r) => format!(
            "rejected ({}): retry after {}ms",
            r.reason, r.retry_after_ms
        ),
        Response::Error(e) => return Err(e.message.into()),
        other => return Err(format!("unexpected reply: {other:?}").into()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn no_args_prints_usage() {
        let out = run(vec![]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn reshard_runs_and_verifies() {
        let out = run(toks(
            "reshard --src-spec RS0R --dst-spec S0RR --src-mesh 2x4 --dst-mesh 2x4 \
             --shape 64x64x8 --verify",
        ))
        .unwrap();
        assert!(out.contains("simulated:"));
        assert!(out.contains("verified"));
    }

    #[test]
    fn reshard_json_output_parses() {
        let out = run(toks(
            "reshard --src-spec S0R --dst-spec RS1 --src-mesh 1x4 --dst-mesh 2x2 \
             --shape 32x32 --json",
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v["simulated_seconds"].as_f64().unwrap() > 0.0);
        assert_eq!(v["total_bytes"].as_u64().unwrap(), 32 * 32 * 4);
    }

    #[test]
    fn moe_runs_and_verifies_the_data_plane() {
        let out = run(toks("moe --tokens 16 --verify")).unwrap();
        assert!(out.contains("simulated:"), "got: {out}");
        assert!(out.contains("0 convictions"), "got: {out}");
        assert!(out.contains("data plane: verified"), "got: {out}");
    }

    #[test]
    fn moe_json_output_parses_on_every_fabric_and_direction() {
        for (fabric, direction) in [
            ("rails", "dispatch"),
            ("flat", "combine"),
            ("fat-tree", "dispatch"),
            ("torus", "combine"),
        ] {
            let out = run(toks(&format!(
                "moe --tokens 16 --fabric {fabric} --direction {direction} \
                 --strategy send_recv --json"
            )))
            .unwrap();
            let v: serde_json::Value = serde_json::from_str(&out).unwrap();
            assert_eq!(v["direction"].as_str(), Some(direction));
            assert_eq!(v["fabric"].as_str(), Some(fabric));
            assert!(v["simulated_seconds"].as_f64().unwrap() > 0.0);
            assert!(v["total_bytes"].as_u64().unwrap() > 0);
        }
    }

    #[test]
    fn moe_bad_inputs_are_reported() {
        assert!(run(toks("moe --fabric nope")).is_err());
        assert!(run(toks("moe --strategy nope")).is_err());
        assert!(run(toks("moe --direction nope")).is_err());
        assert!(run(toks("moe --hosts 3")).is_err());
    }

    #[test]
    fn moe_reports_rail_utilization() {
        let out = run(toks("moe --tokens 16 --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let rails = v["rail_bytes"].as_array().unwrap();
        assert!(!rails.is_empty(), "multi_rail plan sprayed nothing");
        let sum: f64 = rails.iter().map(|b| b.as_f64().unwrap()).sum();
        assert!(sum > 0.0);
        assert!(v["rail_imbalance"].as_f64().unwrap() >= 1.0);
        // A send_recv plan never sprays, so there is no rail load to report.
        let out = run(toks("moe --tokens 16 --strategy send_recv --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v["rail_bytes"].as_array().unwrap().is_empty());
        assert!(v["rail_imbalance"].is_null());
    }

    #[test]
    fn moe_metrics_and_trace_out_expose_rail_load() {
        let path = std::env::temp_dir().join("crossmesh_cli_moe_trace.json");
        let out = run(toks(&format!(
            "moe --tokens 16 --trace-out {} --metrics",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("rails: ["), "got: {out}");
        assert!(out.contains("moe.rail.0.bytes"), "got: {out}");
        assert!(out.contains("moe.rail.imbalance"), "got: {out}");
        let validated = run(toks(&format!(
            "validate-trace --trace {} --json",
            path.display()
        )))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&validated).unwrap();
        assert!(v["events"].as_u64().unwrap() > 0);
        let tracks: Vec<&str> = v["counter_tracks"]
            .as_array()
            .unwrap()
            .iter()
            .map(|t| t.as_str().unwrap())
            .collect();
        assert!(tracks.contains(&"comm.inflight_flows"), "got: {tracks:?}");
        assert!(tracks.contains(&"moe.rail.0.bytes"), "got: {tracks:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metrics_out_file_includes_netsim_counters() {
        let path = std::env::temp_dir().join("crossmesh_cli_metrics_out.txt");
        run(toks(&format!(
            "reshard --src-spec S0R --dst-spec RS1 --src-mesh 1x4 --dst-mesh 2x2 \
             --shape 32x32 --metrics-out {}",
            path.display()
        )))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // The flush must fold the netsim engine's counters in before
        // rendering, or simulator runs silently lose their netsim.* share.
        assert!(text.contains("netsim.events_processed"), "got: {text}");
        assert!(text.contains("planner."), "got: {text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn client_telemetry_prints_the_daemon_exposition() {
        let server = crossmesh_serve::Server::start(crossmesh_serve::ServeConfig {
            workers: 1,
            ..Default::default()
        })
        .unwrap();
        let addr = server.addr();
        let out = run(toks(&format!(
            "client --addr {addr} --src-spec S0R --dst-spec RS1 --src-mesh 1x4 \
             --dst-mesh 2x2 --shape 32x32"
        )))
        .unwrap();
        assert!(out.contains("done:"), "got: {out}");
        let tel = run(toks(&format!("client --addr {addr} --telemetry"))).unwrap();
        assert!(tel.contains("# TYPE serve_requests counter"), "got: {tel}");
        assert!(tel.contains("serve_exec_ms_window"), "got: {tel}");
        server.shutdown();
    }

    #[test]
    fn check_races_sweeps_and_reports() {
        let out = run(toks("check --races --seeds 2 --format json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true), "got: {out}");
        assert_eq!(v["defects"].as_array().unwrap().len(), 3);
        for d in v["defects"].as_array().unwrap() {
            assert_eq!(d["convicted_seeds"].as_u64(), Some(2), "got: {d:?}");
        }
        for w in v["clean_widths"].as_array().unwrap() {
            assert_eq!(w["findings"].as_u64(), Some(0), "got: {w:?}");
        }
        let text = run(toks("check --races --seeds 1")).unwrap();
        assert!(text.contains("check --races: OK"), "got: {text}");
        assert!(run(toks("check --races --seeds 0")).is_err());
    }

    #[test]
    fn pipeline_runs_small_config() {
        let out = run(toks("pipeline --model gpt-case1 --microbatches 8 --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v["aggregate_tflops"].as_f64().unwrap() > 0.0);
        assert_eq!(v["microbatches"].as_u64().unwrap(), 8);
    }

    #[test]
    fn pipeline_iterations_hit_the_plan_cache() {
        let out = run(toks(
            "pipeline --model gpt-case1 --microbatches 4 --iterations 3 --json",
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["iterations"].as_u64(), Some(3));
        assert!(v["plan_cache_hits"].as_u64().unwrap() > 0);
        assert!(v["plan_cache_hit_rate"].as_f64().unwrap() > 0.5);
        let text = run(toks(
            "pipeline --model gpt-case1 --microbatches 4 --iterations 3",
        ))
        .unwrap();
        assert!(text.contains("plan cache:"), "got: {text}");
    }

    #[test]
    fn thread_pool_width_does_not_change_the_plan() {
        let cmd = |threads: usize| {
            format!(
                "reshard --src-spec RS0R --dst-spec S0RR --src-mesh 2x4 --dst-mesh 2x4 \
                 --shape 64x64x8 --threads {threads} --json"
            )
        };
        let narrow = run(toks(&cmd(1))).unwrap();
        let wide = run(toks(&cmd(4))).unwrap();
        let vn: serde_json::Value = serde_json::from_str(&narrow).unwrap();
        let vw: serde_json::Value = serde_json::from_str(&wide).unwrap();
        assert_eq!(vn["estimate_seconds"], vw["estimate_seconds"]);
        assert_eq!(vn["simulated_seconds"], vw["simulated_seconds"]);
        assert!(run(toks("reshard --threads nope")).is_err());
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(run(toks("reshard --src-spec QQ")).is_err());
        assert!(run(toks("pipeline --model nope")).is_err());
        assert!(run(toks("frobnicate")).is_err());
        assert!(run(toks(
            "reshard --src-spec S0R --dst-spec S0R --src-mesh 2x4 --dst-mesh 2x4 \
             --shape 8x8 --planner nope"
        ))
        .is_err());
    }

    #[test]
    fn unknown_options_are_refused_naming_the_valid_ones() {
        // Each of these used to run, silently ignoring the typo.
        let err = run(toks("check --races --seed 32"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown option --seed for check"), "{err}");
        assert!(err.contains("--seeds"), "{err}");
        let reshard = "reshard --src-spec S0R --dst-spec RS1 --src-mesh 1x4 --dst-mesh 2x2 \
                       --shape 32x32";
        let err = run(toks(&format!("{reshard} --stratgey send_recv")))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown option --stratgey"), "{err}");
        assert!(err.contains("--strategy"), "{err}");
        // A mistyped flag took the next token as its value, losing --json.
        let err = run(toks(&format!("{reshard} --verfy --json")))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown option --verfy"), "{err}");
        // The global options are accepted by every subcommand.
        run(toks(&format!("{reshard} --threads 1 --log-level error"))).unwrap();
    }

    #[test]
    fn autospec_finds_specs() {
        let out = run(toks(
            "autospec --src-mesh 2x4 --dst-mesh 2x4 --shape 64x64 --json",
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v["estimated_seconds"].as_f64().unwrap() > 0.0);
        assert_eq!(v["candidates_evaluated"].as_u64().unwrap(), 11 * 11);
    }

    #[test]
    fn strategies_and_planners_resolve() {
        for s in [
            "broadcast",
            "send_recv",
            "local_allgather",
            "global_allgather",
            "multi_rail",
            "alpa",
        ] {
            strategy_choice(s).unwrap();
        }
        let cfg = PlannerConfig::new(presets::p3_cost_params());
        for p in ["ours", "naive", "lpt", "dfs", "greedy"] {
            planner_for(p, cfg, None).unwrap();
            planner_for(p, cfg, Some(42)).unwrap();
        }
        for b in ["sim", "threads", "tcp"] {
            assert_eq!(BackendKind::parse(b).unwrap().instantiate().name(), b);
        }
        assert!(BackendKind::parse("nope").is_err());
    }

    #[test]
    fn reshard_runs_on_the_threaded_backend() {
        for backend in ["threads", "tcp"] {
            let out = run(toks(&format!(
                "reshard --src-spec S0R --dst-spec RS1 --src-mesh 1x4 --dst-mesh 2x2 \
                 --shape 32x32 --backend {backend} --json"
            )))
            .unwrap();
            let v: serde_json::Value = serde_json::from_str(&out).unwrap();
            assert_eq!(v["backend"].as_str().unwrap(), backend);
            // Wall-clock execution: the transfer takes real, positive time.
            assert!(v["simulated_seconds"].as_f64().unwrap() > 0.0);
            assert_eq!(v["total_bytes"].as_u64().unwrap(), 32 * 32 * 4);
        }
    }

    #[test]
    fn reshard_with_faults_fails_over() {
        use crossmesh_faults::FaultEvent;
        let path = std::env::temp_dir().join("crossmesh_cli_faults_test.json");
        let schedule = FaultSchedule::new(0).with_event(FaultEvent::HostCrash { host: 0, at: 0.0 });
        std::fs::write(&path, schedule.to_json()).unwrap();
        // RS1R: every slice replicated across both sender hosts, so the
        // crash of host 0 is recoverable.
        let json = run(toks(&format!(
            "reshard --src-spec RS1R --dst-spec S0RR --src-mesh 2x4 --dst-mesh 2x4 \
             --shape 64x64x8 --faults {} --json",
            path.display()
        )))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["faults"]["repaired"].as_bool(), Some(true));
        assert!(v["faults"]["failovers"].as_u64().unwrap() > 0);
        assert_eq!(v["faults"]["excluded_hosts"][0].as_u64(), Some(0));
        let text = run(toks(&format!(
            "reshard --src-spec RS1R --dst-spec S0RR --src-mesh 2x4 --dst-mesh 2x4 \
             --shape 64x64x8 --faults {}",
            path.display()
        )))
        .unwrap();
        assert!(text.contains("failed over"), "got: {text}");
        assert!(text.contains("h0"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reshard_with_faults_reports_data_loss() {
        use crossmesh_faults::FaultEvent;
        let path = std::env::temp_dir().join("crossmesh_cli_faults_loss_test.json");
        let schedule = FaultSchedule::new(0).with_event(FaultEvent::HostCrash { host: 0, at: 0.0 });
        std::fs::write(&path, schedule.to_json()).unwrap();
        // S0RR: host 0 holds the only replica of its slices.
        let err = run(toks(&format!(
            "reshard --src-spec S0RR --dst-spec S0RR --src-mesh 2x4 --dst-mesh 2x4 \
             --shape 64x64x8 --faults {}",
            path.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("data loss"), "got: {err}");
        assert!(run(toks(
            "reshard --src-spec S0R --dst-spec S0R --src-mesh 1x2 \
             --dst-mesh 1x2 --shape 8x8 --faults /nonexistent/faults.json"
        ))
        .is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unrepresentable_fault_delays_are_refused_on_the_threaded_backend() {
        // Both schedules used to validate and then panic the threaded
        // runtime converting a delay of ~1e300 / ~1e27 s to a `Duration`.
        let schedules = [
            r#"{"seed":0,"events":[],"max_retries":2,"retry_backoff":1e300}"#,
            r#"{"seed":0,"events":[{"LinkDegrade":{"host":0,"factor":1e-30,"from":0.0,
                "until":1.0}}],"max_retries":2,"retry_backoff":0.001}"#,
        ];
        for (i, json) in schedules.iter().enumerate() {
            let path = std::env::temp_dir().join(format!("crossmesh_cli_faults_delay_{i}.json"));
            std::fs::write(&path, json).unwrap();
            let err = run(toks(&format!(
                "reshard --src-spec RS1R --dst-spec S0RR --src-mesh 2x4 --dst-mesh 2x4 \
                 --shape 64x64x8 --backend threads --faults {}",
                path.display()
            )))
            .unwrap_err();
            assert!(err.to_string().contains("--faults"), "got: {err}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn trace_out_exports_one_schema_on_both_backends() {
        let dir = std::env::temp_dir();
        let sim = dir.join("crossmesh_cli_obs_sim.json");
        let thr = dir.join("crossmesh_cli_obs_threads.json");
        for (backend, path) in [("sim", &sim), ("threads", &thr)] {
            run(toks(&format!(
                "reshard --src-spec S0R --dst-spec S1R --src-mesh 1x2 --dst-mesh 1x2 \
                 --shape 16x16 --backend {backend} --trace-out {}",
                path.display()
            )))
            .unwrap();
        }
        let each = run(toks(&format!(
            "validate-trace --trace {} --json",
            sim.display()
        )))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&each).unwrap();
        assert!(v["events"].as_u64().unwrap() > 0);
        assert_eq!(v["counter_tracks"][0].as_str(), Some("comm.inflight_flows"));
        let both = run(toks(&format!(
            "validate-trace --trace {} --against {}",
            sim.display(),
            thr.display()
        )))
        .unwrap();
        assert!(both.contains("schema matches"), "got: {both}");
        assert!(run(toks("validate-trace --trace /nonexistent.json")).is_err());
        let _ = std::fs::remove_file(&sim);
        let _ = std::fs::remove_file(&thr);
    }

    #[test]
    fn metrics_flag_appends_the_registry() {
        let out = run(toks(
            "reshard --src-spec RS0R --dst-spec S0RR --src-mesh 2x4 --dst-mesh 2x4 \
             --shape 64x64x8 --metrics",
        ))
        .unwrap();
        assert!(out.contains("== metrics =="), "got: {out}");
        assert!(out.contains("planner.greedy.plans"), "got: {out}");
        assert!(out.contains("netsim.events_processed"), "got: {out}");
    }

    #[test]
    fn log_level_parses_or_errors() {
        assert!(run(toks(
            "reshard --src-spec S0R --dst-spec S1R --src-mesh 1x2 --dst-mesh 1x2 \
             --shape 8x8 --log-level nope"
        ))
        .is_err());
        let out = run(toks(
            "reshard --src-spec S0R --dst-spec S1R --src-mesh 1x2 --dst-mesh 1x2 \
             --shape 8x8 --log-level error",
        ))
        .unwrap();
        assert!(out.contains("simulated:"));
    }

    #[test]
    fn seed_changes_are_deterministic() {
        let cmd = "reshard --src-spec RS0R --dst-spec S0RR --src-mesh 2x4 --dst-mesh 2x4 \
                   --shape 64x64x8 --planner greedy --seed 7 --json";
        let a = run(toks(cmd)).unwrap();
        let b = run(toks(cmd)).unwrap();
        let va: serde_json::Value = serde_json::from_str(&a).unwrap();
        let vb: serde_json::Value = serde_json::from_str(&b).unwrap();
        assert_eq!(va["estimate_seconds"], vb["estimate_seconds"]);
        assert!(run(toks(
            "reshard --src-spec S0R --dst-spec S0R --src-mesh 1x2 \
                          --dst-mesh 1x2 --shape 8x8 --seed nope"
        ))
        .is_err());
    }
}
