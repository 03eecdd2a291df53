//! Observability integration properties: the unified timeline export is
//! deterministic and backend-agnostic (one JSON schema whether the run
//! came from the simulator or the threaded runtime), and observers are
//! passive — installing a collector never changes planner output at any
//! pool width.

use crossmesh::core::{EnsemblePlanner, Planner, PlannerConfig, ReshardingTask};
use crossmesh::mesh::{DeviceMesh, ShardingSpec};
use crossmesh::netsim::{Backend, ClusterSpec, LinkParams, SimBackend, TaskGraph};
use crossmesh::obs::{self, CountingCollector};
use crossmesh::runtime::ThreadedBackend;
use proptest::prelude::*;
use std::sync::Arc;

fn config() -> PlannerConfig {
    PlannerConfig::new(crossmesh::core::CostParams {
        inter_bw: 1.0,
        intra_bw: 100.0,
        inter_latency: 0.0,
        intra_latency: 0.0,
    })
}

/// A small two-host → two-host resharding task on `cluster`.
fn small_task(cluster: &ClusterSpec) -> ReshardingTask {
    let src = DeviceMesh::from_cluster(cluster, 0, (2, 2), "src").expect("src fits");
    let dst = DeviceMesh::from_cluster(cluster, 2, (2, 2), "dst").expect("dst fits");
    ReshardingTask::new(
        src,
        "S0R".parse::<ShardingSpec>().expect("valid"),
        dst,
        "RS1".parse::<ShardingSpec>().expect("valid"),
        &[64, 64],
        4,
    )
    .expect("task builds")
}

/// Lowers the plan for [`small_task`] and executes it on `backend`,
/// returning the rendered unified export (its in-flight-flow counter
/// track makes every Chrome phase — M, X, i, C — present).
fn export_on(backend: &dyn Backend) -> String {
    let cluster = ClusterSpec::homogeneous(4, 2, LinkParams::new(100.0, 1.0));
    let task = small_task(&cluster);
    let plan = EnsemblePlanner::new(config()).plan(&task);
    let mut graph = TaskGraph::new();
    plan.lower_on(&mut graph, &[], None);
    let trace = backend.execute(&cluster, &graph).expect("run executes");
    trace.export(&graph, &cluster).render()
}

/// Golden-schema test: one sim run and one threads-backend run render
/// into the same JSON schema (same phase set, same key set per phase),
/// and both validate as Perfetto-loadable documents.
#[test]
fn unified_export_shares_one_schema_across_backends() {
    let sim = export_on(&SimBackend);
    let threads = export_on(&ThreadedBackend::threads());
    let sim_summary = obs::export::validate(&sim).expect("sim export validates");
    let threads_summary = obs::export::validate(&threads).expect("threads export validates");
    assert!(sim_summary.events > 0 && threads_summary.events > 0);
    assert!(
        sim_summary.schema_matches(&threads_summary),
        "sim and threads exports diverged:\n  sim: {sim_summary:?}\n  threads: {threads_summary:?}"
    );
}

/// Determinism: the simulator side of the export is byte-stable — same
/// plan, same virtual trace, same rendered bytes, run after run.
#[test]
fn sim_export_render_is_byte_stable() {
    let first = export_on(&SimBackend);
    let second = export_on(&SimBackend);
    assert_eq!(
        first, second,
        "sim export must be byte-identical run-to-run"
    );
}

/// A compact random planning problem: mesh shapes plus one of a few
/// sharding-spec pairs.
fn problem_strategy() -> impl Strategy<Value = ((usize, usize), (usize, usize), usize)> {
    (
        (1usize..=2, 1usize..=3),
        (1usize..=2, 1usize..=3),
        0usize..4,
    )
}

fn spec_pair(which: usize) -> (ShardingSpec, ShardingSpec) {
    let parse = |s: &str| s.parse::<ShardingSpec>().expect("valid spec");
    match which {
        0 => (parse("S0R"), parse("RS1")),
        1 => (parse("RR"), parse("S01R")),
        2 => (parse("S0S1"), parse("RR")),
        _ => (parse("RS0"), parse("S1R")),
    }
}

fn build(src_shape: (usize, usize), dst_shape: (usize, usize), which: usize) -> ReshardingTask {
    let hosts = (src_shape.0 + dst_shape.0) as u32;
    let cluster = ClusterSpec::homogeneous(
        hosts,
        4,
        LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0),
    );
    let src = DeviceMesh::from_cluster(&cluster, 0, src_shape, "src").expect("src fits");
    let dst = DeviceMesh::from_cluster(&cluster, src_shape.0, dst_shape, "dst").expect("dst fits");
    let (src_spec, dst_spec) = spec_pair(which);
    ReshardingTask::new(src, src_spec, dst, dst_spec, &[48, 48], 1).expect("task builds")
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The enabled-vs-disabled half of the determinism contract: for a
    /// random problem, the plan computed with a collector installed is
    /// byte-identical (same assignments, bit-equal estimate) to the plan
    /// computed with no collector, at 1-thread and 4-thread pools alike.
    #[test]
    fn collector_never_changes_planner_output(
        (src_shape, dst_shape, which) in problem_strategy(),
    ) {
        let task = build(src_shape, dst_shape, which);
        let planner = EnsemblePlanner::new(config());

        let baseline = pool(1).install(|| planner.plan(&task));

        // Serialise against other tests that install process-global
        // collectors while we hold one installed.
        let _serial = obs::collect::test_lock();
        let counting = Arc::new(CountingCollector::new());
        let _guard = obs::install(counting.clone());
        for threads in [1usize, 4] {
            let observed = pool(threads).install(|| planner.plan(&task));
            prop_assert_eq!(
                baseline.assignments(),
                observed.assignments(),
                "assignments diverged with a collector installed at {} threads",
                threads
            );
            prop_assert_eq!(
                baseline.estimate().to_bits(),
                observed.estimate().to_bits(),
                "estimate diverged with a collector installed at {} threads",
                threads
            );
        }
        prop_assert!(
            counting.total() > 0,
            "the collector must observe planner spans/events"
        );
    }
}
