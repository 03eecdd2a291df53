//! The library path of one reshard request, driven through each layer's
//! public functions: the `PlanCache`-free reference every `Done` reply is
//! checked against, and the traced replay that times one layer at a time.
//!
//! `build_task` and `ensemble` re-declare what the daemon does privately
//! with the same public calls; if the daemon ever builds its cluster or
//! planner differently, the reference stops matching its replies and the
//! run reports `correct: false`.

use crate::spans::Recorder;
use crossmesh::check;
use crossmesh::core::{
    CostParams, DfsPlanner, EnsemblePlanner, Plan, PlanCache, Planner, PlannerConfig,
    RandomizedGreedyPlanner, ReshardingTask, SenderExclusions,
};
use crossmesh::mesh::DeviceMesh;
use crossmesh::models::presets;
use crossmesh::netsim::{ClusterSpec, Engine, LinkParams, TaskGraph};
use crossmesh::serve::proto::{self, DoneReply, Request, RequestBody, ReshardRequest, Response};

/// A request rebuilt into library objects.
#[derive(Debug)]
pub struct Built {
    pub task: ReshardingTask,
    pub cluster: ClusterSpec,
    pub params: CostParams,
}

/// Rebuilds the task and cluster from a request's portable strings
/// (`mesh.build_us` times this).
pub fn build_task(req: &ReshardRequest) -> Result<Built, String> {
    let src_shape = proto::parse_mesh(&req.src_mesh)?;
    let dst_shape = proto::parse_mesh(&req.dst_mesh)?;
    let shape = proto::parse_shape(&req.shape)?;
    let params = presets::p3_cost_params();
    let cluster = ClusterSpec::homogeneous(
        (src_shape.0 + dst_shape.0) as u32,
        src_shape.1.max(dst_shape.1) as u32,
        LinkParams::new(params.intra_bw, params.inter_bw)
            .with_latencies(params.intra_latency, params.inter_latency),
    );
    let src = DeviceMesh::from_cluster(&cluster, 0, src_shape, "src").map_err(|e| e.to_string())?;
    let dst = DeviceMesh::from_cluster(&cluster, src_shape.0, dst_shape, "dst")
        .map_err(|e| e.to_string())?;
    let task = ReshardingTask::new(
        src,
        req.src_spec.parse().map_err(|e| format!("src spec: {e}"))?,
        dst,
        req.dst_spec.parse().map_err(|e| format!("dst spec: {e}"))?,
        &shape,
        req.elem_bytes,
    )
    .map_err(|e| e.to_string())?;
    Ok(Built {
        task,
        cluster,
        params,
    })
}

fn greedy(config: PlannerConfig, seed: Option<u64>) -> RandomizedGreedyPlanner {
    let p = RandomizedGreedyPlanner::new(config);
    match seed {
        Some(s) => p.with_seed(s),
        None => p,
    }
}

/// The daemon's `ours` planner for a request.
pub fn ensemble(params: CostParams, seed: Option<u64>) -> EnsemblePlanner {
    let config = PlannerConfig::new(params);
    EnsemblePlanner::new(config).with_greedy(greedy(config, seed))
}

/// Identifies a task: two requests with the same key are the same problem.
pub fn key(req: &ReshardRequest) -> String {
    format!(
        "{}>{} {}>{} {}",
        req.src_spec, req.dst_spec, req.src_mesh, req.dst_mesh, req.shape
    )
}

/// What the library, with no cache, says a request's reply must carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    pub unit_tasks: usize,
    /// `None` when only the cheap half (the task) was computed.
    pub simulated_seconds: Option<f64>,
}

/// Builds the task and, when `full`, plans it with the bare planner and
/// executes the plan on the simulator.
pub fn reference(req: &ReshardRequest, full: bool) -> Result<Reference, String> {
    let built = build_task(req)?;
    let simulated_seconds = if full {
        let plan = ensemble(built.params, req.seed).plan(&built.task);
        let report = plan.execute(&built.cluster).map_err(|e| e.to_string())?;
        Some(report.simulated_seconds)
    } else {
        None
    };
    Ok(Reference {
        unit_tasks: built.task.units().len(),
        simulated_seconds,
    })
}

/// What executing one plan on the simulator produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Executed {
    pub simulated_seconds: f64,
    /// Tasks in the lowered graph.
    pub graph_tasks: usize,
    /// Events the simulator processed.
    pub events: u64,
}

/// What `Plan::execute` does, one public call per layer and each in its
/// own span: the static verifier (`check.verify`), lowering to a task
/// graph (`lower.lower`), and the simulator (`netsim.execute`).
pub fn execute_layers(
    rec: &mut Recorder,
    plan: &Plan<'_>,
    cluster: &ClusterSpec,
) -> Result<Executed, String> {
    let diags = rec.span("check.verify", |_| {
        plan.verify(Some(cluster), &|_, _| false)
    });
    if check::has_errors(&diags) {
        return Err(format!(
            "verifier convicted the plan:\n{}",
            check::render_text(&diags)
        ));
    }
    let mut graph = TaskGraph::new();
    let lowered = rec.span("lower.lower", |_| {
        plan.lower_on(&mut graph, &[], Some(cluster))
    });
    let (trace, stats) = rec
        .span("netsim.execute", |_| Engine::new(cluster).run_stats(&graph))
        .map_err(|e| e.to_string())?;
    Ok(Executed {
        simulated_seconds: trace.interval(lowered.done).finish,
        graph_tasks: graph.len(),
        events: stats.events_processed,
    })
}

/// What one replayed request measured besides its spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayRow {
    pub cache_hit: bool,
    /// The daemon's `plan_ms + exec_ms` share: lookup + verify + lower +
    /// execute, µs.
    pub served_us: f64,
    /// Cache miss minus the bare planner call, µs (misses only).
    pub miss_overhead_us: Option<f64>,
    pub unit_tasks: usize,
    pub graph_tasks: usize,
    pub events: u64,
    /// Plan estimate over its lower bound.
    pub gap_ratio: f64,
    pub request_bytes: usize,
    pub reply_bytes: usize,
    pub simulated_seconds: f64,
}

/// Pushes one request through the layers in the daemon's order, each call
/// in its own span: proto, mesh, cache (hit or miss), check, lowering,
/// netsim, proto again for the reply. On a miss the bare planners are
/// timed too, under `replay.extra`, which the coverage sum leaves out.
pub fn replay(
    rec: &mut Recorder,
    id: u64,
    tenant: &str,
    req: &ReshardRequest,
    cache: &PlanCache,
) -> Result<ReplayRow, String> {
    rec.span("request", |rec| {
        let wire = Request {
            id,
            tenant: tenant.into(),
            body: RequestBody::Reshard(req.clone()),
        };
        let mut frame = Vec::with_capacity(384);
        rec.span("proto.encode", |_| proto::write_frame(&mut frame, &wire))
            .map_err(|e| e.to_string())?;
        let decoded: Option<Request> = rec
            .span("proto.decode", |_| proto::read_frame(&mut &frame[..]))
            .map_err(|e| e.to_string())?;
        if decoded.as_ref() != Some(&wire) {
            return Err("request frame did not round-trip".into());
        }

        let built = rec.span("mesh.build", |_| build_task(req))?;
        let planner = ensemble(built.params, req.seed);
        let none = SenderExclusions::none();

        let t0 = rec.now_us();
        let (plan, cache_hit) = cache
            .plan_with_exclusions_outcome(&planner, &built.task, &none)
            .map_err(|e| e.to_string())?;
        let lookup_us = rec.now_us() - t0;
        rec.leaf(
            if cache_hit { "cache.hit" } else { "cache.miss" },
            t0,
            t0 + lookup_us,
        );

        let miss_overhead_us = (!cache_hit && rec.enabled()).then(|| {
            rec.span("replay.extra", |rec| {
                let t = rec.now_us();
                rec.span("planner.ensemble", |_| planner.plan(&built.task));
                let bare_us = rec.now_us() - t;
                let config = PlannerConfig::new(built.params);
                rec.span("planner.dfs", |_| DfsPlanner::new(config).plan(&built.task));
                rec.span("planner.greedy", |_| {
                    greedy(config, req.seed).plan(&built.task)
                });
                lookup_us - bare_us
            })
        });

        let t1 = rec.now_us();
        let executed =
            execute_layers(rec, &plan, &built.cluster).map_err(|e| format!("{}: {e}", key(req)))?;
        let served_us = lookup_us + rec.now_us() - t1;
        let simulated_seconds = executed.simulated_seconds;

        let reply = Response::Done(DoneReply {
            id,
            cache_hit,
            queue_ms: 0.0,
            plan_ms: lookup_us / 1e3,
            exec_ms: (served_us - lookup_us) / 1e3,
            estimate_seconds: plan.estimate(),
            simulated_seconds,
            unit_tasks: built.task.units().len(),
        });
        let request_bytes = frame.len();
        frame.clear();
        rec.span("proto.encode", |_| proto::write_frame(&mut frame, &reply))
            .map_err(|e| e.to_string())?;
        let decoded: Option<Response> = rec
            .span("proto.decode", |_| proto::read_frame(&mut &frame[..]))
            .map_err(|e| e.to_string())?;
        if decoded.as_ref() != Some(&reply) {
            return Err("reply frame did not round-trip".into());
        }

        Ok(ReplayRow {
            cache_hit,
            served_us,
            miss_overhead_us,
            unit_tasks: built.task.units().len(),
            graph_tasks: executed.graph_tasks,
            events: executed.events,
            gap_ratio: plan.estimate() / plan.lower_bound(),
            request_bytes,
            reply_bytes: frame.len(),
            simulated_seconds,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::spans;
    use std::time::Instant;

    #[test]
    fn replay_agrees_with_the_reference_and_names_every_layer() {
        let req = gen::reshard(&gen::HIT_TEMPLATES[0], gen::BASE_BLOCKS);
        let want = reference(&req, true).unwrap();
        let cache = PlanCache::new();
        let mut rec = Recorder::new(true, Instant::now());
        let miss = replay(&mut rec, 1, "t", &req, &cache).unwrap();
        let hit = replay(&mut rec, 2, "t", &req, &cache).unwrap();
        assert!(!miss.cache_hit && hit.cache_hit);
        assert!(miss.miss_overhead_us.is_some() && hit.miss_overhead_us.is_none());
        for row in [miss, hit] {
            assert_eq!(Some(row.simulated_seconds), want.simulated_seconds);
            assert_eq!(row.unit_tasks, want.unit_tasks);
            assert!(row.gap_ratio >= 1.0 - 1e-9);
        }
        let all = rec.into_spans();
        for name in [
            "request",
            "proto.encode",
            "proto.decode",
            "mesh.build",
            "cache.miss",
            "cache.hit",
            "planner.ensemble",
            "planner.dfs",
            "planner.greedy",
            "check.verify",
            "lower.lower",
            "netsim.execute",
        ] {
            assert!(
                !spans::durations_us(&all, name).is_empty(),
                "no span {name}"
            );
        }
        // Every layer span hangs under its request.
        assert!(all
            .iter()
            .all(|s| s.parent.is_some() || s.name == "request"));
    }
}
