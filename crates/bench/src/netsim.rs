//! Engine-scaling harness: the incremental netsim engine vs the frozen
//! pre-refactor reference, and a 10k-host GPT sweep (extension; not in the
//! paper).
//!
//! The workload is a GPT-style data+pipeline-parallel iteration built
//! straight as a [`TaskGraph`]: `lanes = hosts / stages` independent
//! pipeline lanes each run `microbatches` microbatches through `stages`
//! stages (per-stage compute + stage-boundary activation flows), then every
//! contiguous group of `ring_group` hosts runs a ring all-reduce over the
//! gradients (reduce-scatter + all-gather, `2·(g−1)` barriered steps).
//! Contention components stay small (a lane's boundary flows, a ring
//! group), which is exactly the structure the incremental solver exploits —
//! the reference engine re-solves *every* active flow on *every* event.
//!
//! Reported per cluster size: wall time and events/sec for both engines in
//! the exact model (they must agree on the makespan to 1e-6 relative),
//! plus engine counters (rate re-solves, flows per re-solve, saturation
//! frontier, peak active flows). The sweep rows then push the incremental
//! engine alone to 10k hosts in both the exact and aggregate models.
//! A planner zero-conviction gate (a Table 2 resharding case planned,
//! statically verified, and executed under both models) pins the engines
//! into the same harness the rest of the workspace uses.

use crate::hostenv::HostEnv;
use crate::table_fmt;
use crossmesh_netsim::reference::ReferenceEngine;
use crossmesh_netsim::{
    ClusterSpec, Engine, LinkParams, SimModel, SimStats, TaskGraph, TaskId, Work,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One GPT iteration's shape on an `hosts`-host cluster.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Workload {
    /// Cluster size; one device per host at this scale.
    pub hosts: u32,
    /// Pipeline stages; `hosts / stages` independent data-parallel lanes.
    pub stages: u32,
    /// Microbatches pushed through every lane.
    pub microbatches: u32,
    /// Hosts per gradient all-reduce ring.
    pub ring_group: u32,
}

/// Per-stage forward compute, seconds.
const STAGE_SECONDS: f64 = 4e-3;
/// Stage-boundary activation transfer, bytes.
const ACTIVATION_BYTES: f64 = 40e6;
/// Per-host gradient shard all-reduced after the last microbatch, bytes.
const GRAD_BYTES: f64 = 64e6;

/// Deterministic per-index size jitter in [1, 1.5): real layers are not
/// all the same size, and the stagger keeps completions from collapsing
/// into one simultaneous batch — the degenerate best case of the seed
/// engine's per-event global re-solve.
fn jitter(i: u32) -> f64 {
    1.0 + (f64::from(i) * 0.618_033_988_749_894_9).fract() * 0.5
}

/// A p3-class cluster shape: fast intra-host links, 10 GB/s NICs.
fn cluster(hosts: u32) -> ClusterSpec {
    ClusterSpec::homogeneous(
        hosts,
        1,
        LinkParams::new(100e9, 10e9).with_latencies(1e-6, 5e-6),
    )
}

/// Builds the iteration graph. Deterministic: pure arithmetic over the
/// workload shape, no RNG.
pub fn build_workload(w: Workload) -> TaskGraph {
    let lanes = w.hosts / w.stages;
    assert!(lanes > 0, "need at least one host per stage");
    let device = |host: u32| crossmesh_netsim::DeviceId(host);
    let host_of = |stage: u32, lane: u32| stage * lanes + lane;

    let pipeline_tasks = (lanes * w.microbatches * (2 * w.stages - 1)) as usize;
    let groups = w.hosts / w.ring_group;
    let ring_tasks = (groups * w.ring_group * 2 * (w.ring_group - 1)) as usize;
    let mut g = TaskGraph::with_capacity(pipeline_tasks + ring_tasks);

    // Pipeline phase: every lane is an independent chain of per-microbatch
    // stage computes joined by activation flows.
    let mut last_compute = vec![None::<TaskId>; w.hosts as usize];
    for lane in 0..lanes {
        let mut boundary: Vec<Option<TaskId>> = vec![None; w.stages as usize];
        for _mb in 0..w.microbatches {
            for stage in 0..w.stages {
                let host = host_of(stage, lane);
                let mut deps: Vec<TaskId> = Vec::with_capacity(2);
                // The activation from the previous stage for this mb...
                if stage > 0 {
                    if let Some(f) = boundary[stage as usize - 1] {
                        deps.push(f);
                    }
                }
                // ...and this device's previous microbatch (FIFO order).
                if let Some(c) = last_compute[host as usize] {
                    deps.push(c);
                }
                let c = g.add(
                    Work::compute(device(host), STAGE_SECONDS * jitter(host)),
                    deps,
                );
                last_compute[host as usize] = Some(c);
                if stage + 1 < w.stages {
                    let f = g.add(
                        Work::flow(
                            device(host),
                            device(host_of(stage + 1, lane)),
                            ACTIVATION_BYTES * jitter(lane),
                        ),
                        [c],
                    );
                    boundary[stage as usize] = Some(f);
                }
            }
        }
    }

    // All-reduce phase: ring over each contiguous group of `ring_group`
    // hosts, 2·(g−1) steps, each step barriered on the previous one.
    let gsize = w.ring_group;
    for group in 0..groups {
        let base = group * gsize;
        let mut prev_step: Vec<TaskId> = Vec::new();
        for step in 0..2 * (gsize - 1) {
            let mut this_step = Vec::with_capacity(gsize as usize);
            for i in 0..gsize {
                let src = base + i;
                let dst = base + (i + 1) % gsize;
                let mut deps = prev_step.clone();
                if step == 0 {
                    if let Some(c) = last_compute[src as usize] {
                        deps.push(c);
                    }
                }
                this_step.push(g.add(
                    Work::flow(
                        device(src),
                        device(dst),
                        GRAD_BYTES / f64::from(gsize) * jitter(src),
                    ),
                    deps,
                ));
            }
            prev_step = this_step;
        }
    }
    g
}

/// One engine-vs-reference comparison row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineRow {
    pub hosts: u32,
    /// Tasks in the generated iteration graph.
    pub tasks: usize,
    /// Heap events the incremental engine processed.
    pub events: u64,
    pub reference_millis: f64,
    pub incremental_millis: f64,
    /// `reference_millis / incremental_millis`.
    pub speedup: f64,
    /// Events/sec through the seed (reference) engine.
    pub reference_events_per_sec: f64,
    /// Events/sec through the incremental engine.
    pub incremental_events_per_sec: f64,
    /// Relative makespan disagreement between the engines (must be ≤1e-6).
    pub makespan_rel_err: f64,
    pub rate_recomputes: u64,
    /// Mean flows re-rated per re-solve — the incremental win: stays O(1)
    /// as the cluster grows.
    pub flows_per_recompute: f64,
    pub frontier_size: usize,
    pub peak_active_flows: usize,
}

/// One large-cluster sweep row (incremental engine only).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepRow {
    pub hosts: u32,
    pub model: String,
    pub tasks: usize,
    pub events: u64,
    pub wall_millis: f64,
    pub events_per_sec: f64,
    pub makespan_seconds: f64,
    pub peak_active_flows: usize,
}

/// The full harness output written to `BENCH_netsim.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    pub env: HostEnv,
    /// Error-severity diagnostics from the planner zero-conviction gate.
    pub convictions: usize,
    /// Makespan of the gate case under the exact / aggregate models; the
    /// aggregate one can never be smaller.
    pub gate_exact_seconds: f64,
    pub gate_aggregate_seconds: f64,
    pub engine: Vec<EngineRow>,
    pub sweep: Vec<SweepRow>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

fn workload_for(hosts: u32, smoke: bool) -> Workload {
    Workload {
        hosts,
        stages: 8.min(hosts / 2).max(1),
        microbatches: if smoke { 2 } else { 4 },
        ring_group: 8.min(hosts),
    }
}

/// Measures one comparison row: the same graph through the reference and
/// the incremental engine (exact model), checking they agree.
///
/// # Panics
///
/// Panics if either engine fails the run (harness bug).
pub fn compare(hosts: u32, smoke: bool) -> EngineRow {
    let w = workload_for(hosts, smoke);
    let c = cluster(w.hosts);
    let g = build_workload(w);
    let (reference, reference_millis) =
        timed(|| ReferenceEngine::new(&c).run(&g).expect("reference runs"));
    let ((incremental, stats), incremental_millis) =
        timed(|| Engine::new(&c).run_stats(&g).expect("incremental runs"));
    let makespan_rel_err = (reference.makespan() - incremental.makespan()).abs()
        / reference.makespan().max(f64::MIN_POSITIVE);
    let events = stats.events_processed;
    EngineRow {
        hosts,
        tasks: g.len(),
        events,
        reference_millis,
        incremental_millis,
        speedup: reference_millis / incremental_millis.max(1e-6),
        reference_events_per_sec: events as f64 / (reference_millis / 1e3).max(1e-9),
        incremental_events_per_sec: events as f64 / (incremental_millis / 1e3).max(1e-9),
        makespan_rel_err,
        rate_recomputes: stats.rate_recomputes,
        flows_per_recompute: stats.flows_resolved as f64 / stats.rate_recomputes.max(1) as f64,
        frontier_size: stats.frontier_size,
        peak_active_flows: stats.peak_active_flows,
    }
}

/// Measures one sweep row: the incremental engine alone at `hosts` under
/// `model`.
///
/// # Panics
///
/// Panics if the engine fails the run (harness bug).
pub fn sweep(hosts: u32, model: SimModel, smoke: bool) -> SweepRow {
    let w = workload_for(hosts, smoke);
    let c = cluster(w.hosts);
    let g = build_workload(w);
    let ((trace, stats), wall_millis): ((_, SimStats), f64) = timed(|| {
        Engine::with_model(&c, model)
            .run_stats(&g)
            .expect("sweep runs")
    });
    SweepRow {
        hosts,
        model: model.name().to_string(),
        tasks: g.len(),
        events: stats.events_processed,
        wall_millis,
        events_per_sec: stats.events_processed as f64 / (wall_millis / 1e3).max(1e-9),
        makespan_seconds: trace.makespan(),
        peak_active_flows: stats.peak_active_flows,
    }
}

/// The planner zero-conviction gate: plan a Table 2 resharding case,
/// statically verify it (no error-severity diagnostics allowed), and
/// execute it under both contention models.
///
/// # Panics
///
/// Panics if the case fails to build or the simulation fails.
fn conviction_gate() -> (usize, f64, f64) {
    use crossmesh_core::{EnsemblePlanner, Planner, PlannerConfig};
    use crossmesh_models::presets;

    let case = &crate::cases::TABLE2[0];
    let (cluster, task) = case.build().expect("table 2 case builds");
    let planner = EnsemblePlanner::new(PlannerConfig::new(presets::p3_cost_params()));
    let plan = planner.plan(&task);
    let convictions = plan
        .verify(Some(&cluster), &|_, _| false)
        .iter()
        .filter(|d| d.severity == crossmesh_check::Severity::Error)
        .count();
    let exact = plan
        .execute_with(&crossmesh_netsim::SimBackend, &cluster)
        .expect("exact gate runs");
    let aggregate = plan
        .execute_with(&crossmesh_netsim::AggregateSimBackend, &cluster)
        .expect("aggregate gate runs");
    (
        convictions,
        exact.simulated_seconds,
        aggregate.simulated_seconds,
    )
}

/// Cluster sizes for the comparison rows (both engines run).
const COMPARE_HOSTS: [u32; 3] = [64, 256, 1024];
const COMPARE_HOSTS_SMOKE: [u32; 2] = [16, 64];
/// Cluster sizes for the incremental-only sweep.
const SWEEP_HOSTS: u32 = 10_240;
const SWEEP_HOSTS_SMOKE: u32 = 512;

/// Runs the harness. `smoke` trims cluster sizes and microbatch counts
/// for the module test.
pub fn run(smoke: bool) -> Report {
    let compare_hosts: &[u32] = if smoke {
        &COMPARE_HOSTS_SMOKE
    } else {
        &COMPARE_HOSTS
    };
    let engine: Vec<EngineRow> = compare_hosts.iter().map(|&h| compare(h, smoke)).collect();
    let sweep_hosts = if smoke {
        SWEEP_HOSTS_SMOKE
    } else {
        SWEEP_HOSTS
    };
    let sweep_rows = vec![
        sweep(sweep_hosts, SimModel::Exact, smoke),
        sweep(sweep_hosts, SimModel::Aggregate, smoke),
    ];
    let (convictions, gate_exact_seconds, gate_aggregate_seconds) = conviction_gate();
    Report {
        env: HostEnv::detect(),
        convictions,
        gate_exact_seconds,
        gate_aggregate_seconds,
        engine,
        sweep: sweep_rows,
    }
}

/// Renders the report as text tables.
pub fn render(report: &Report) -> String {
    let mut rows = vec![vec![
        "hosts".to_string(),
        "tasks".to_string(),
        "events".to_string(),
        "reference".to_string(),
        "incremental".to_string(),
        "speedup".to_string(),
        "events/s (inc)".to_string(),
        "flows/resolve".to_string(),
        "peak flows".to_string(),
    ]];
    for r in &report.engine {
        rows.push(vec![
            r.hosts.to_string(),
            r.tasks.to_string(),
            r.events.to_string(),
            format!("{:.1}ms", r.reference_millis),
            format!("{:.1}ms", r.incremental_millis),
            table_fmt::speedup(r.speedup),
            format!("{:.0}", r.incremental_events_per_sec),
            format!("{:.1}", r.flows_per_recompute),
            r.peak_active_flows.to_string(),
        ]);
    }
    let mut out = String::from("== engine vs frozen reference (exact model) ==\n");
    out.push_str(&table_fmt::render(&rows));

    let mut rows = vec![vec![
        "hosts".to_string(),
        "model".to_string(),
        "tasks".to_string(),
        "events".to_string(),
        "wall".to_string(),
        "events/s".to_string(),
        "makespan".to_string(),
    ]];
    for r in &report.sweep {
        rows.push(vec![
            r.hosts.to_string(),
            r.model.clone(),
            r.tasks.to_string(),
            r.events.to_string(),
            format!("{:.1}ms", r.wall_millis),
            format!("{:.0}", r.events_per_sec),
            table_fmt::secs(r.makespan_seconds),
        ]);
    }
    out.push_str("\n== large-cluster sweep (incremental engine) ==\n");
    out.push_str(&table_fmt::render(&rows));
    out.push_str(&format!(
        "\nzero-conviction gate: {} convictions; exact {} vs aggregate {}\n",
        report.convictions,
        table_fmt::secs(report.gate_exact_seconds),
        table_fmt::secs(report.gate_aggregate_seconds),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_consistent() {
        let report = run(true);
        assert_eq!(report.convictions, 0, "the plan verifier must be clean");
        assert!(report.gate_aggregate_seconds >= report.gate_exact_seconds - 1e-9);
        for r in &report.engine {
            assert!(
                r.makespan_rel_err <= 1e-6,
                "engines disagree at {} hosts: {}",
                r.hosts,
                r.makespan_rel_err
            );
            assert!(r.events > 0 && r.tasks > 0);
        }
        for s in &report.sweep {
            assert!(s.makespan_seconds > 0.0 && s.events > 0);
        }
        // The aggregate model never predicts a faster iteration.
        assert!(report.sweep[1].makespan_seconds >= report.sweep[0].makespan_seconds - 1e-9);
        let text = render(&report);
        assert!(
            text.contains("zero-conviction gate: 0 convictions"),
            "{text}"
        );
    }

    #[test]
    fn workload_is_deterministic_and_sized() {
        let w = workload_for(64, true);
        let g1 = build_workload(w);
        let g2 = build_workload(w);
        assert_eq!(g1, g2);
        assert!(g1.len() > 64, "a real workload, not a toy: {}", g1.len());
    }
}
