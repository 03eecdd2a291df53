//! Concurrency properties of the shared plan cache: N threads hammering
//! one `PlanCache` with interleaved lookups, inserts, and invalidating
//! exclusion changes must preserve the *semantics* a serial execution
//! would produce — identical plans for identical keys, every lookup
//! accounted as exactly one hit or miss, and at least one miss (at most
//! `threads`, for raced first lookups) per distinct key.

use crossmesh::core::{
    EnsemblePlanner, PlanCache, PlannerConfig, ReshardingTask, SenderExclusions,
};
use crossmesh::mesh::DeviceMesh;
use crossmesh::models::presets;
use crossmesh::netsim::{ClusterSpec, HostId, LinkParams};
use proptest::prelude::*;
use std::sync::Arc;
use std::thread;

/// A small family of distinct planning problems sharing one cluster.
fn tasks() -> Vec<ReshardingTask> {
    let params = presets::p3_cost_params();
    let cluster = Arc::new(ClusterSpec::homogeneous(
        4,
        4,
        LinkParams::new(params.intra_bw, params.inter_bw),
    ));
    // Source specs shard only across mesh axis 1 (devices within a
    // host) or replicate, so every unit keeps sender replicas on every
    // source host and excluding one host can never lose data.
    let cases: &[(&str, &str, &[u64])] = &[
        ("RS1R", "S0RR", &[16, 8, 8]),
        ("S1RR", "RS0R", &[16, 8, 8]),
        ("RS1R", "S0RR", &[32, 8, 8]),
        ("RRS1", "S0RR", &[8, 8, 16]),
    ];
    cases
        .iter()
        .map(|(src_spec, dst_spec, shape)| {
            let src = DeviceMesh::from_cluster(&cluster, 0, (2, 4), "src").expect("src fits");
            let dst = DeviceMesh::from_cluster(&cluster, 2, (2, 4), "dst").expect("dst fits");
            ReshardingTask::new(
                src,
                src_spec.parse().expect("valid spec"),
                dst,
                dst_spec.parse().expect("valid spec"),
                shape,
                4,
            )
            .expect("task builds")
        })
        .collect()
}

fn planner() -> EnsemblePlanner {
    EnsemblePlanner::new(PlannerConfig::new(presets::p3_cost_params()))
}

/// The serial reference: plan every (task, exclusion) pair once cold,
/// once warm, and record the assignments the cache must reproduce.
fn serial_reference(
    tasks: &[ReshardingTask],
    exclusions: &[SenderExclusions],
) -> Vec<Vec<crossmesh::core::Assignment>> {
    let planner = planner();
    let cache = PlanCache::new();
    let mut plans = Vec::new();
    for task in tasks {
        for excl in exclusions {
            let (plan, _) = cache
                .plan_with_exclusions_outcome(&planner, task, excl)
                .expect("replicated sources survive one exclusion");
            plans.push(plan.assignments().to_vec());
        }
    }
    plans
}

#[test]
fn concurrent_hammering_matches_serial_hit_miss_semantics() {
    let tasks = Arc::new(tasks());
    let exclusions = [
        SenderExclusions::none(),
        SenderExclusions::for_hosts([HostId(0)]),
    ];
    let reference = serial_reference(&tasks, &exclusions);
    let distinct_keys = tasks.len() * exclusions.len();

    for threads in [2usize, 4, 8] {
        let cache = Arc::new(PlanCache::new());
        let planner = Arc::new(planner());
        let rounds = 6;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let planner = Arc::clone(&planner);
                let tasks = Arc::clone(&tasks);
                let exclusions = exclusions.clone();
                let reference = reference.clone();
                thread::spawn(move || {
                    // Each thread walks the key space from a different
                    // offset so lookups and inserts interleave heavily.
                    for r in 0..rounds {
                        for i in 0..tasks.len() * exclusions.len() {
                            let k = (i + t + r) % (tasks.len() * exclusions.len());
                            let (ti, ei) = (k / exclusions.len(), k % exclusions.len());
                            let (plan, _) = cache
                                .plan_with_exclusions_outcome(
                                    &*planner,
                                    &tasks[ti],
                                    &exclusions[ei],
                                )
                                .expect("no data loss");
                            assert_eq!(
                                plan.assignments(),
                                &reference[k][..],
                                "thread {t} got a plan differing from the serial reference"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no worker panicked");
        }

        let stats = cache.stats();
        let lookups = (threads * rounds * distinct_keys) as u64;
        assert_eq!(
            stats.hits + stats.misses,
            lookups,
            "every lookup is exactly one hit or one miss"
        );
        // Serial semantics: one miss per distinct key. Concurrency allows
        // raced duplicate misses, but never more than one per thread per
        // key, and never fewer than the serial count.
        assert!(
            (distinct_keys as u64..=(distinct_keys * threads) as u64).contains(&stats.misses),
            "misses {} outside [{}, {}] at {} threads",
            stats.misses,
            distinct_keys,
            distinct_keys * threads,
            threads
        );
        assert_eq!(stats.entries, distinct_keys, "one entry per distinct key");
    }
}

#[test]
fn invalidation_under_concurrency_never_serves_an_excluded_sender() {
    // Threads alternate between planning with no exclusions and planning
    // with host 0 excluded; every returned plan must honour the exclusion
    // it asked for, no matter how the cache interleaves.
    let tasks = Arc::new(tasks());
    let cache = Arc::new(PlanCache::new());
    let planner = Arc::new(planner());
    let dead = HostId(0);
    let handles: Vec<_> = (0..4usize)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let planner = Arc::clone(&planner);
            let tasks = Arc::clone(&tasks);
            thread::spawn(move || {
                for r in 0..8 {
                    let task = &tasks[(t + r) % tasks.len()];
                    if (t + r) % 2 == 0 {
                        let excl = SenderExclusions::for_hosts([dead]);
                        let (plan, _) = cache
                            .plan_with_exclusions_outcome(&*planner, task, &excl)
                            .expect("replicas survive");
                        assert!(
                            plan.assignments().iter().all(|a| a.sender_host != dead),
                            "excluded host used as sender"
                        );
                    } else {
                        let _ = cache
                            .plan_with_exclusions_outcome(
                                &*planner,
                                task,
                                &SenderExclusions::none(),
                            )
                            .expect("empty exclusions cannot cause data loss");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no worker panicked");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized schedules: arbitrary per-thread key orders still yield
    /// serially-identical plans and fully-accounted lookup counters.
    #[test]
    fn random_schedules_preserve_cache_semantics(
        orders in prop::collection::vec(
            prop::collection::vec(0usize..8, 4..16),
            2..5,
        )
    ) {
        let tasks = Arc::new(tasks());
        let exclusions = [
            SenderExclusions::none(),
            SenderExclusions::for_hosts([HostId(0)]),
        ];
        let reference = serial_reference(&tasks, &exclusions);
        let cache = Arc::new(PlanCache::new());
        let planner = Arc::new(planner());
        let mut total_lookups = 0u64;
        let handles: Vec<_> = orders
            .into_iter()
            .map(|order| {
                total_lookups += order.len() as u64;
                let cache = Arc::clone(&cache);
                let planner = Arc::clone(&planner);
                let tasks = Arc::clone(&tasks);
                let exclusions = exclusions.clone();
                let reference = reference.clone();
                thread::spawn(move || {
                    for k in order {
                        let (ti, ei) = (k / exclusions.len(), k % exclusions.len());
                        let (plan, _) = cache
                            .plan_with_exclusions_outcome(&*planner, &tasks[ti], &exclusions[ei])
                            .expect("no data loss");
                        assert_eq!(plan.assignments(), &reference[k][..]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no worker panicked");
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, total_lookups);
        prop_assert!(stats.entries <= 8);
    }
}
