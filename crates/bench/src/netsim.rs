//! Engine-scaling work: what the incremental netsim engine does on a GPT
//! iteration from 64 to 1,024 hosts, counted instead of timed (extension;
//! not in the paper).
//!
//! The workload is a GPT-style data+pipeline-parallel iteration built
//! straight as a [`TaskGraph`]: `lanes = hosts / stages` independent
//! pipeline lanes each run `microbatches` microbatches through `stages`
//! stages (per-stage compute + stage-boundary activation flows), then every
//! contiguous group of `ring_group` hosts runs a ring all-reduce over the
//! gradients (reduce-scatter + all-gather, `2·(g−1)` barriered steps).
//! Contention components stay small (a lane's boundary flows, a ring
//! group), which is exactly the structure the incremental solver exploits:
//! `flows_resolved / rate_recomputes` stays near 1 at every size, where a
//! global re-solve would touch every active flow on every event.
//!
//! [`work`] is the `netsim_work` section of `BENCH_paper.json`: per cluster
//! size the engine's own [`SimStats`](crossmesh_netsim::SimStats) and the
//! simulated makespan, plus the makespan of a Table 2 resharding case.
//! Events per second on the same workload is `benchmark/`'s
//! `netsim.scale_ms` / `netsim.events_per_s`; agreement with the frozen
//! reference engine is the `equivalence` proptests inside `crates/netsim`.

use crate::table_fmt;
use crossmesh_core::{EnsemblePlanner, Planner, PlannerConfig};
use crossmesh_models::presets;
use crossmesh_netsim::{ClusterSpec, Engine, LinkParams, TaskGraph, TaskId, Work};
use serde::{Deserialize, Serialize};

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

/// One cluster size's run of the iteration graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkRow {
    pub hosts: u32,
    /// Tasks in the generated iteration graph.
    pub tasks: usize,
    /// [`SimStats::events_processed`](crossmesh_netsim::SimStats).
    pub events: u64,
    pub events_stale: u64,
    pub rate_recomputes: u64,
    /// Over `rate_recomputes`, the mean flows re-rated per re-solve — the
    /// incremental win: stays O(1) as the cluster grows.
    pub flows_resolved: u64,
    pub frontier_size: usize,
    pub peak_active_flows: usize,
    pub makespan_seconds: f64,
}

/// The `netsim_work` section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetsimWork {
    /// Makespan of Table 2 case 1.
    pub gate_exact_seconds: f64,
    pub rows: Vec<WorkRow>,
}

/// Cluster sizes of [`work`]. The engine runs the same iteration at 10,240
/// hosts in a fraction of a second optimized, but in a debug build those two
/// rows cost the golden test three seconds, so the section stops here.
pub const HOSTS: [u32; 3] = [64, 256, 1024];

fn workload_for(hosts: u32) -> Workload {
    Workload {
        hosts,
        stages: 8,
        microbatches: 4,
        ring_group: 8,
    }
}

/// The row of one cluster size: its iteration graph through the engine.
fn measure(hosts: u32) -> WorkRow {
    let graph = build_workload(workload_for(hosts));
    let (trace, stats) = Engine::new(&cluster(hosts))
        .run_stats(&graph)
        .expect("the iteration graph simulates");
    WorkRow {
        hosts,
        tasks: graph.len(),
        events: stats.events_processed,
        events_stale: stats.events_stale,
        rate_recomputes: stats.rate_recomputes,
        flows_resolved: stats.flows_resolved,
        frontier_size: stats.frontier_size,
        peak_active_flows: stats.peak_active_flows,
        makespan_seconds: trace.makespan(),
    }
}

/// Regenerates the `netsim_work` section.
///
/// # Panics
///
/// Panics if the gate case fails to build or a simulation fails (harness
/// bug).
pub fn work() -> NetsimWork {
    let (gate_cluster, task) = crate::cases::TABLE2[0]
        .build()
        .expect("table 2 case builds");
    let plan = EnsemblePlanner::new(PlannerConfig::new(presets::p3_cost_params())).plan(&task);
    NetsimWork {
        gate_exact_seconds: plan
            .execute(&gate_cluster)
            .expect("gate case simulates")
            .simulated_seconds,
        rows: HOSTS.iter().map(|&hosts| measure(hosts)).collect(),
    }
}

/// Renders the section as a text table.
pub fn render_work(work: &NetsimWork) -> String {
    let mut rows = vec![vec![
        "hosts".to_string(),
        "tasks".to_string(),
        "events".to_string(),
        "stale".to_string(),
        "re-solves".to_string(),
        "flows/re-solve".to_string(),
        "frontier".to_string(),
        "peak flows".to_string(),
        "makespan".to_string(),
    ]];
    for r in &work.rows {
        rows.push(vec![
            r.hosts.to_string(),
            r.tasks.to_string(),
            r.events.to_string(),
            r.events_stale.to_string(),
            r.rate_recomputes.to_string(),
            format!("{:.3}", r.flows_resolved as f64 / r.rate_recomputes as f64),
            r.frontier_size.to_string(),
            r.peak_active_flows.to_string(),
            table_fmt::secs(r.makespan_seconds),
        ]);
    }
    format!(
        "Netsim work — GPT iteration through the incremental engine\n{}\n\
         Table 2 case 1: {}\n",
        table_fmt::render(&rows),
        table_fmt::secs(work.gate_exact_seconds),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::committed;

    #[test]
    fn netsim_work_shapes_hold() {
        let work: NetsimWork = committed("netsim_work");
        assert_eq!(work.rows.len(), HOSTS.len());
        let base = &work.rows[0];
        for row in &work.rows {
            // The incremental solver's whole point: a re-solve touches its
            // own contention component, not every active flow.
            let per_solve = row.flows_resolved as f64 / row.rate_recomputes as f64;
            assert!(
                per_solve < 1.2,
                "{} hosts: {per_solve} flows per re-solve",
                row.hosts
            );
            // Work is linear in cluster size.
            let scale = u64::from(row.hosts / base.hosts);
            assert_eq!(row.events, base.events * scale);
            assert_eq!(row.tasks as u64, base.tasks as u64 * scale);
        }
    }

    #[test]
    fn workload_is_deterministic_and_sized() {
        let w = workload_for(64);
        let g1 = build_workload(w);
        let g2 = build_workload(w);
        assert_eq!(g1, g2);
        assert!(g1.len() > 64, "a real workload, not a toy: {}", g1.len());
    }
}
