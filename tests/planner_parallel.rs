//! Determinism and cache-correctness properties of the parallel planner
//! engine: every planner must produce byte-identical plans at every pool
//! width, a plan-cache hit must replay the cold plan exactly, and changing
//! the sender exclusions must never serve a stale cached plan.

use crossmesh::core::{
    DfsPlanner, EnsemblePlanner, LoadBalancePlanner, NaivePlanner, PlanCache, Planner,
    PlannerConfig, RandomizedGreedyPlanner, ReshardingTask, SenderExclusions,
};
use crossmesh::mesh::{DeviceMesh, DimSharding, ShardingSpec};
use crossmesh::netsim::{ClusterSpec, HostId, LinkParams};
use proptest::prelude::*;

/// A random valid sharding spec of the given rank (each mesh axis shards
/// at most one tensor dimension).
fn spec_strategy(rank: usize) -> impl Strategy<Value = ShardingSpec> {
    (
        prop::option::of(0..rank),
        prop::option::of(0..rank),
        any::<bool>(),
    )
        .prop_map(move |(a0, a1, swap)| {
            let mut dims = vec![DimSharding::Replicated; rank];
            match (a0, a1) {
                (Some(d0), Some(d1)) if d0 == d1 => {
                    let axes = if swap { vec![0, 1] } else { vec![1, 0] };
                    dims[d0] = DimSharding::Sharded(axes);
                }
                (a0, a1) => {
                    if let Some(d) = a0 {
                        dims[d] = DimSharding::Sharded(vec![0]);
                    }
                    if let Some(d) = a1 {
                        dims[d] = DimSharding::Sharded(vec![1]);
                    }
                }
            }
            ShardingSpec::new(dims).expect("construction is valid by design")
        })
}

/// Random planning problem on disjoint meshes of a shared cluster.
#[derive(Debug, Clone)]
struct Problem {
    src_shape: (usize, usize),
    dst_shape: (usize, usize),
    src_spec: ShardingSpec,
    dst_spec: ShardingSpec,
    tensor: Vec<u64>,
}

fn problem_strategy() -> impl Strategy<Value = Problem> {
    (2usize..=3)
        .prop_flat_map(|rank| {
            (
                (1usize..=2, 1usize..=4),
                (1usize..=3, 1usize..=4),
                spec_strategy(rank),
                spec_strategy(rank),
                prop::collection::vec(1u64..=12, rank),
            )
        })
        .prop_map(
            |(src_shape, dst_shape, src_spec, dst_spec, tensor)| Problem {
                src_shape,
                dst_shape,
                src_spec,
                dst_spec,
                tensor,
            },
        )
}

fn build(p: &Problem) -> ReshardingTask {
    let hosts = (p.src_shape.0 + p.dst_shape.0) as u32;
    let cluster = ClusterSpec::homogeneous(
        hosts,
        4,
        LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0),
    );
    let src = DeviceMesh::from_cluster(&cluster, 0, p.src_shape, "src").unwrap();
    let dst = DeviceMesh::from_cluster(&cluster, p.src_shape.0, p.dst_shape, "dst").unwrap();
    ReshardingTask::new(
        src,
        p.src_spec.clone(),
        dst,
        p.dst_spec.clone(),
        &p.tensor,
        1,
    )
    .unwrap()
}

fn config() -> PlannerConfig {
    PlannerConfig::new(crossmesh::core::CostParams {
        inter_bw: 1.0,
        intra_bw: 100.0,
        inter_latency: 0.0,
        intra_latency: 0.0,
    })
}

/// Every planner in the engine, seeded where applicable.
fn all_planners(seed: u64) -> Vec<(&'static str, Box<dyn Planner>)> {
    vec![
        (
            "naive",
            Box::new(NaivePlanner::new(config())) as Box<dyn Planner>,
        ),
        ("lpt", Box::new(LoadBalancePlanner::new(config()))),
        (
            "dfs",
            Box::new(DfsPlanner::new(config()).with_node_budget(2_000)),
        ),
        (
            "greedy",
            Box::new(
                RandomizedGreedyPlanner::new(config())
                    .with_seed(seed)
                    .with_restarts(3),
            ),
        ),
        (
            "ensemble",
            Box::new(
                EnsemblePlanner::new(config())
                    .with_greedy(RandomizedGreedyPlanner::new(config()).with_seed(seed)),
            ),
        ),
    ]
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The determinism contract: for every planner, random problem, and
    /// seed, the plan computed under a multi-thread pool is byte-identical
    /// to the one computed under a 1-thread (inline, truly sequential)
    /// pool — same assignments, bit-equal estimate.
    #[test]
    fn parallel_plans_equal_sequential_plans(p in problem_strategy(), seed in any::<u64>()) {
        let task = build(&p);
        for (name, planner) in all_planners(seed) {
            let sequential = pool(1).install(|| planner.plan(&task));
            for threads in [2usize, 4, 8] {
                let parallel = pool(threads).install(|| planner.plan(&task));
                prop_assert_eq!(
                    sequential.assignments(),
                    parallel.assignments(),
                    "{} diverged at {} threads",
                    name,
                    threads
                );
                prop_assert_eq!(
                    sequential.estimate().to_bits(),
                    parallel.estimate().to_bits(),
                    "{} estimate diverged at {} threads",
                    name,
                    threads
                );
            }
        }
    }

    /// A cache hit replays the cold plan exactly.
    #[test]
    fn cache_hit_equals_cold_plan(p in problem_strategy(), seed in any::<u64>()) {
        let task = build(&p);
        for (name, planner) in all_planners(seed) {
            let cache = PlanCache::new();
            let none = SenderExclusions::none();
            let cold = cache.plan_with_exclusions_outcome(planner.as_ref(), &task, &none).unwrap().0;
            let warm = cache.plan_with_exclusions_outcome(planner.as_ref(), &task, &none).unwrap().0;
            prop_assert_eq!(
                cold.assignments(),
                warm.assignments(),
                "{} warm plan diverged",
                name
            );
            prop_assert_eq!(cold.estimate().to_bits(), warm.estimate().to_bits());
            prop_assert_eq!(cache.stats().hits, 1, "{} second call must hit", name);
        }
    }

    /// Changing the sender exclusions changes the cache key: the excluded
    /// plan is re-planned (no stale hit) and never routes through an
    /// excluded sender. The source spec is forced to full replication so
    /// excluding one host can never be data loss.
    #[test]
    fn changed_exclusions_never_serve_a_stale_plan(
        dst_spec in spec_strategy(3),
        tensor in prop::collection::vec(1u64..=12, 3),
        dead in 0u32..2,
        seed in any::<u64>(),
    ) {
        let p = Problem {
            src_shape: (2, 4),
            dst_shape: (2, 4),
            src_spec: ShardingSpec::new(vec![DimSharding::Replicated; 3]).unwrap(),
            dst_spec,
            tensor,
        };
        let task = build(&p);
        let planner = EnsemblePlanner::new(config()).with_greedy(
            RandomizedGreedyPlanner::new(config()).with_seed(seed),
        );
        let cache = PlanCache::new();

        let none = SenderExclusions::none();
        let baseline = cache.plan_with_exclusions_outcome(&planner, &task, &none).unwrap().0;
        let hits_before = cache.stats().hits;
        let excl = SenderExclusions::for_hosts([HostId(dead)]);
        let (repaired, _) = cache
            .plan_with_exclusions_outcome(&planner, &task, &excl)
            .expect("fully replicated source cannot lose data");
        prop_assert_eq!(
            cache.stats().hits, hits_before,
            "new exclusions must not reuse the unexcluded entry"
        );
        for a in repaired.assignments() {
            prop_assert!(
                a.sender_host != HostId(dead),
                "cached repair assigned excluded host {:?}",
                a.sender_host
            );
        }
        // The baseline entry is still served for unexcluded lookups.
        let again = cache.plan_with_exclusions_outcome(&planner, &task, &none).unwrap().0;
        prop_assert_eq!(baseline.assignments(), again.assignments());
    }
}
