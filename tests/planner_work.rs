//! Pins the greedy planner's deterministic work counter.
//!
//! `planner.greedy.visits` counts the units round selection examines. It
//! lives in the process-wide metrics registry, so this file holds exactly
//! one test: nothing else in the process plans while it reads the counter.

use crossmesh::core::{Planner, RandomizedGreedyPlanner, ReshardingTask};
use crossmesh::mesh::DeviceMesh;
use crossmesh::netsim::{ClusterSpec, LinkParams};

fn task_on(
    src: (usize, usize),
    src_spec: &str,
    dst: (usize, usize),
    dst_spec: &str,
    shape: &[u64],
) -> ReshardingTask {
    let per_host = src.1.max(dst.1) as u32;
    let hosts = (src.0 + dst.0) as u32;
    let c = ClusterSpec::homogeneous(hosts, per_host, LinkParams::new(100e9, 1.25e9));
    let a = DeviceMesh::from_cluster(&c, 0, src, "A").unwrap();
    let b = DeviceMesh::from_cluster(&c, src.0, dst, "B").unwrap();
    ReshardingTask::new(
        a,
        src_spec.parse().unwrap(),
        b,
        dst_spec.parse().unwrap(),
        shape,
        4,
    )
    .unwrap()
}

#[test]
fn greedy_visits_are_pinned_at_every_pool_width() {
    let visits = crossmesh::obs::metrics().counter("planner.greedy.visits");
    let planner = RandomizedGreedyPlanner::default();
    // (task, visits of one default plan(): 4 restarts × 16 permutations).
    // The loop before the shared host table visited every remaining unit
    // in every permutation: 266,240 and 1,056,768 on the same two tasks.
    let cases = [
        // The benchmark's `serve_miss` class: 128 units, 2 sender hosts.
        (
            task_on((2, 4), "RRS01", (4, 4), "S01RR", &[16, 16, 64]),
            22_714,
        ),
        // `bench::planner::case(256)`.
        (
            task_on((2, 16), "RRR", (16, 16), "S01RR", &[1024, 64, 64]),
            21_944,
        ),
    ];
    for (task, pinned) in &cases {
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let before = visits.get();
            pool.install(|| planner.plan(task));
            assert_eq!(
                visits.get() - before,
                *pinned,
                "{task} at {threads} threads"
            );
        }
    }
}
