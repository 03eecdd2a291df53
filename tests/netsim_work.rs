//! Pins that the simulator engine allocates nothing per flow: its heap
//! allocations in one run depend on the graph's shape and the run's peak
//! concurrency, not on how many flows pass through.
//!
//! A counting global allocator sees every allocation of the process, so
//! this file holds exactly one test; the count is also restricted to the
//! thread inside `Engine::run_stats`.

use crossmesh::core::{EnsemblePlanner, Planner, PlannerConfig, ReshardingTask};
use crossmesh::mesh::DeviceMesh;
use crossmesh::models::{presets, Precision};
use crossmesh::netsim::{ClusterSpec, Engine, LinkParams, TaskGraph, TaskId, Work};
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

/// Allocations (and reallocations) made by one `Engine::run_stats` of
/// `graph` on `cluster`.
fn allocations_in_run(cluster: &ClusterSpec, graph: &TaskGraph) -> u64 {
    let engine = Engine::new(cluster);
    ARMED.with(|a| a.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = engine.run_stats(graph);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(false));
    let (trace, stats) = run.expect("the graph simulates");
    assert!(trace.failed_tasks().is_empty() && stats.events_processed > 0);
    after - before
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

/// Table 2 case 4, `RS01R → S01RR` between two (2, 4) meshes, planned and
/// lowered as the paper's microbenchmark runs it.
fn table2_case4() -> (ClusterSpec, TaskGraph) {
    let cluster = presets::aws_p3_8xlarge(4, Precision::Fp32);
    let src = DeviceMesh::from_cluster(&cluster, 0, (2, 4), "send").unwrap();
    let dst = DeviceMesh::from_cluster(&cluster, 2, (2, 4), "recv").unwrap();
    let (from, to) = ("RS01R".parse().unwrap(), "S01RR".parse().unwrap());
    let task = ReshardingTask::new(src, from, dst, to, &[1024, 1024, 512], 4).unwrap();
    let plan = EnsemblePlanner::new(PlannerConfig::new(presets::p3_cost_params())).plan(&task);
    let mut graph = TaskGraph::new();
    plan.lower_on(&mut graph, &[], Some(&cluster));
    (cluster, graph)
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

    let (cluster, graph) = table2_case4();
    assert_eq!(graph.len(), 4_161, "case 4's lowered graph");
    let case4 = allocations_in_run(&cluster, &graph);
    assert!(case4 <= 200, "case 4 made {case4} allocations");
}
