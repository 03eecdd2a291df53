//! Static-verifier properties over the whole planner engine: every plan
//! any planner produces must verify with zero diagnostics, and mutated
//! plans (dropped flow, duplicated flow, swapped ring edge) must always be
//! convicted under the matching rule id.

use crossmesh::check::verify::{ring_spec, verify_plan, verify_ring, verify_schedule};
use crossmesh::check::{has_errors, Rule};
use crossmesh::core::{
    Assignment, DfsPlanner, EnsemblePlanner, LoadBalancePlanner, NaivePlanner, Planner,
    PlannerConfig, RandomizedGreedyPlanner, ReshardingTask,
};
use crossmesh::mesh::{DeviceMesh, DimSharding, ShardingSpec};
use crossmesh::netsim::{ClusterSpec, LinkParams};
use crossmesh::pipeline::{build_schedule, ScheduleKind, WeightDelay};
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

fn build(p: &Problem) -> (ReshardingTask, ClusterSpec) {
    let hosts = (p.src_shape.0 + p.dst_shape.0) as u32;
    let cluster = ClusterSpec::homogeneous(
        hosts,
        4,
        LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0),
    );
    let src = DeviceMesh::from_cluster(&cluster, 0, p.src_shape, "src").unwrap();
    let dst = DeviceMesh::from_cluster(&cluster, p.src_shape.0, p.dst_shape, "dst").unwrap();
    let task = ReshardingTask::new(
        src,
        p.src_spec.clone(),
        dst,
        p.dst_spec.clone(),
        &p.tensor,
        1,
    )
    .unwrap();
    (task, cluster)
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

/// Runs the verifier over a raw assignment list (which may be mutated into
/// invalidity, so it cannot go through `Plan::new`).
fn verify_views(
    task: &ReshardingTask,
    assignments: &[Assignment],
) -> Vec<crossmesh::check::Diagnostic> {
    verify_plan(
        task.units(),
        task.shape(),
        task.elem_bytes(),
        assignments,
        None,
        &|_, _| false,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The soundness contract: every plan from every planner on every
    /// random task verifies with zero convictions (capacity rules
    /// included, against the very cluster the task was built on). The flat
    /// test cluster leaves its fabric unbounded, so the only acceptable
    /// finding is the `plan.capacity.unbounded` vacuity warning.
    #[test]
    fn every_planner_output_verifies_clean(p in problem_strategy(), seed in any::<u64>()) {
        let (task, cluster) = build(&p);
        for (name, planner) in all_planners(seed) {
            let plan = planner.plan(&task);
            let diags = plan.verify(Some(&cluster), &|_, _| false);
            prop_assert!(
                !has_errors(&diags),
                "{} produced a plan the verifier rejects: {:?}",
                name,
                diags
            );
            prop_assert!(
                diags.iter().all(|d| d.rule == Rule::CapacityUnbounded),
                "{} produced unexpected warnings: {:?}",
                name,
                diags
            );
        }
    }

    /// The completeness contract, coverage rules: dropping any flow from a
    /// valid plan is always convicted as `plan.coverage.missing`, and
    /// duplicating any flow as `plan.coverage.duplicate`.
    #[test]
    fn mutated_plans_always_fail_with_the_matching_rule(
        p in problem_strategy(),
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let (task, _cluster) = build(&p);
        let planner = EnsemblePlanner::new(config())
            .with_greedy(RandomizedGreedyPlanner::new(config()).with_seed(seed));
        let plan = planner.plan(&task);
        let assignments = plan.assignments().to_vec();
        prop_assume!(!assignments.is_empty());
        let victim = (pick % assignments.len() as u64) as usize;

        // Dropped flow.
        let mut dropped = assignments.clone();
        dropped.remove(victim);
        let diags = verify_views(&task, &dropped);
        prop_assert!(has_errors(&diags));
        prop_assert!(
            diags.iter().any(|d| d.rule == Rule::CoverageMissing),
            "dropped flow not convicted as plan.coverage.missing: {:?}",
            diags
        );

        // Duplicated flow.
        let mut duplicated = assignments.clone();
        duplicated.push(assignments[victim]);
        let diags = verify_views(&task, &duplicated);
        prop_assert!(has_errors(&diags));
        prop_assert!(
            diags.iter().any(|d| d.rule == Rule::CoverageDuplicate),
            "duplicated flow not convicted as plan.coverage.duplicate: {:?}",
            diags
        );
    }

    /// The completeness contract, ring rules: swapping any two hops of a
    /// canonical broadcast ring is always convicted as `plan.ring.order`.
    #[test]
    fn swapped_ring_edges_always_fail(p in problem_strategy(), seed in any::<u64>()) {
        let (task, _cluster) = build(&p);
        let planner = EnsemblePlanner::new(config())
            .with_greedy(RandomizedGreedyPlanner::new(config()).with_seed(seed));
        let plan = planner.plan(&task);
        for a in plan.assignments() {
            let unit = &task.units()[a.unit];
            let Some(ring) = ring_spec(unit, a) else {
                continue;
            };
            if ring.hops.len() < 3 {
                continue;
            }
            // Hop keys are strictly increasing in a canonical ring, so any
            // adjacent swap after the sender must break the order.
            for i in 1..ring.hops.len() - 1 {
                let mut swapped = ring.clone();
                swapped.hops.swap(i, i + 1);
                let diags = verify_ring(unit, a.unit, &swapped, a.sender_host, ring.chunks);
                prop_assert!(
                    diags.iter().any(|d| d.rule == Rule::RingOrder),
                    "swap at {} of unit {} not convicted: {:?}",
                    i,
                    a.unit,
                    diags
                );
            }
        }
    }

    /// Every synchronous pipeline schedule the builder emits passes the
    /// hazard pass, at any stage/microbatch scale.
    #[test]
    fn built_pipeline_schedules_verify_clean(
        stages in 1usize..=6,
        m in 1usize..=12,
        kind_idx in 0usize..4,
    ) {
        let kind = [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Eager1F1B,
            ScheduleKind::Inference,
        ][kind_idx];
        let s = build_schedule(kind, stages, m, WeightDelay::None);
        let diags = verify_schedule(&s.check_ops(), m as u32);
        prop_assert!(diags.is_empty(), "{kind} {stages}x{m}: {:?}", diags);
    }
}
