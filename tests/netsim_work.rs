//! Pins that the simulator engine allocates nothing per flow — its heap
//! allocations in one run depend on the graph's shape and the run's peak
//! concurrency, not on how many flows pass through — and that lowering a
//! plan allocates nothing per task: a bounded number per unit task, plus
//! the amortized growth of the graph's arenas.
//!
//! A counting global allocator sees every allocation of the process, so
//! this file holds exactly one test; the count is also restricted to the
//! thread inside the measured call.

use crossmesh::core::{
    Assignment, CostParams, EnsemblePlanner, LoadBalancePlanner, Plan, Planner, PlannerConfig,
    ReshardingTask, Strategy, StrategyChoice,
};
use crossmesh::mesh::DeviceMesh;
use crossmesh::models::moe::GptMoeConfig;
use crossmesh::models::{presets, Precision};
use crossmesh::moe::{A2aTask, RoutingConfig};
use crossmesh::netsim::{ClusterSpec, Engine, FabricModel, LinkParams, TaskGraph, TaskId, Work};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// an atomic and a const-initialised thread-local, neither of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations (and reallocations) it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ARMED.with(|a| a.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(false));
    (out, after - before)
}

/// Allocations made by one `Engine::run_stats` of `graph` on `cluster`.
fn allocations_in_run(cluster: &ClusterSpec, graph: &TaskGraph) -> u64 {
    let engine = Engine::new(cluster);
    let (run, allocations) = counted(|| engine.run_stats(graph));
    let (trace, stats) = run.expect("the graph simulates");
    assert!(trace.failed_tasks().is_empty() && stats.events_processed > 0);
    allocations
}

/// `plan` lowered onto `cluster` and the allocations `Plan::lower_on`
/// made.
fn lowered(plan: &Plan, cluster: &ClusterSpec) -> (TaskGraph, u64) {
    let mut graph = TaskGraph::new();
    let (_, allocations) = counted(|| plan.lower_on(&mut graph, &[], Some(cluster)));
    (graph, allocations)
}

/// The allocation budget of lowering `units` unit tasks: a bounded number
/// per unit task, whatever its task count, plus the arenas' growth.
fn lowering_budget(units: usize) -> u64 {
    16 * units as u64 + 64
}

/// `flows` inter-host flows, each waiting for the one before, alternating
/// direction between two hosts.
fn chain(cluster: &ClusterSpec, flows: u32) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut prev: Option<TaskId> = None;
    for i in 0..flows {
        let (src, dst) = (i % 2, 1 - i % 2);
        let work = Work::flow(cluster.device(src, 0), cluster.device(dst, 0), 1e6);
        prev = Some(g.add(work, prev));
    }
    g
}

/// Table 2 case 4, `RS01R → S01RR` between two (2, 4) meshes, on its
/// cluster.
fn table2_case4() -> (ClusterSpec, ReshardingTask) {
    let cluster = presets::aws_p3_8xlarge(4, Precision::Fp32);
    let src = DeviceMesh::from_cluster(&cluster, 0, (2, 4), "send").unwrap();
    let dst = DeviceMesh::from_cluster(&cluster, 2, (2, 4), "recv").unwrap();
    let (from, to) = ("RS01R".parse().unwrap(), "S01RR".parse().unwrap());
    let task = ReshardingTask::new(src, from, dst, to, &[1024, 1024, 512], 4).unwrap();
    (cluster, task)
}

/// The benchmark's MoE dispatch: 4 token hosts to 4 expert hosts of 4
/// devices on a 4-rail fabric, with the seeded gate draw.
fn moe_dispatch() -> (ClusterSpec, A2aTask) {
    let cluster = ClusterSpec::homogeneous(
        8,
        4,
        LinkParams::new(100e9, 1.25e9).with_latencies(5e-6, 25e-6),
    )
    .with_fabric(FabricModel::RailOptimized {
        rails: 4,
        spine_capacity: 1.25e9,
    });
    let tokens = DeviceMesh::from_cluster(&cluster, 0, (4, 4), "moe-tokens").unwrap();
    let experts = DeviceMesh::from_cluster(&cluster, 4, (4, 4), "moe-experts").unwrap();
    let routing = RoutingConfig {
        tokens_per_device: 32,
        token_bytes: 32,
        ..GptMoeConfig::case1().with_seed(17).routing()
    };
    let a2a = A2aTask::dispatch(&tokens, &experts, &routing.bytes_matrix(16, 16));
    (cluster, a2a)
}

#[test]
fn the_engine_allocates_nothing_per_flow() {
    let pair = ClusterSpec::homogeneous(2, 1, LinkParams::new(100e9, 1.25e9));
    let short = allocations_in_run(&pair, &chain(&pair, 1_000));
    let long = allocations_in_run(&pair, &chain(&pair, 2_000));
    assert!(
        long <= short + 16,
        "1,000 more flows cost {} more allocations ({short} → {long})",
        long.saturating_sub(short)
    );

    let (cluster, task) = table2_case4();
    let plan = EnsemblePlanner::new(PlannerConfig::new(presets::p3_cost_params())).plan(&task);
    let (graph, lowering) = lowered(&plan, &cluster);
    assert_eq!(graph.len(), 4_161, "case 4's lowered graph");
    let case4 = allocations_in_run(&cluster, &graph);
    assert!(case4 <= 200, "case 4 made {case4} allocations");

    // Lowering allocates per unit task, never per task it adds.
    let units = task.units().len();
    assert!(
        lowering <= lowering_budget(units),
        "lowering case 4's {} tasks from {units} units made {lowering} allocations",
        graph.len()
    );
    let (cluster_moe, a2a) = moe_dispatch();
    let multi_rail = LoadBalancePlanner::new(PlannerConfig::default().with_strategy(
        StrategyChoice::Fixed(Strategy::MultiRail {
            rails: 4,
            chunks: 4,
        }),
    ));
    let dispatch = multi_rail.plan(a2a.task());
    let (graph, lowering) = lowered(&dispatch, &cluster_moe);
    let units = a2a.task().units().len();
    assert!(
        lowering <= lowering_budget(units),
        "lowering the MoE dispatch's {} tasks from {units} units made {lowering} allocations",
        graph.len()
    );

    // Twice the chunks, twice the flows, the same allocations give or take
    // one growth step of each arena.
    let broadcast = |chunks: u32| -> Plan {
        let assignments = plan
            .assignments()
            .iter()
            .map(|&a| Assignment {
                strategy: Strategy::Broadcast { chunks },
                ..a
            })
            .collect();
        Plan::new(&task, assignments, CostParams::default())
    };
    let (k64, at_64) = lowered(&broadcast(64), &cluster);
    let (k128, at_128) = lowered(&broadcast(128), &cluster);
    let flows = |g: &TaskGraph| {
        g.iter()
            .filter(|(_, t)| matches!(t.work, Work::Flow { .. }))
            .count()
    };
    assert_eq!(flows(&k128), 2 * flows(&k64));
    assert!(
        at_128 <= at_64 + 16,
        "doubling the flows cost {} more allocations ({at_64} → {at_128})",
        at_128.saturating_sub(at_64)
    );
}
