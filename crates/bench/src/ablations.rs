//! Ablations beyond the paper's figures: the design-choice sweeps
//! DESIGN.md calls out (broadcast chunk count, DFS node budget, randomized
//! greedy permutations, backward weight delay) plus a cluster-scale sweep.

use crate::cases::TABLE2;
use crate::table_fmt;
use crossmesh_core::{
    DfsPlanner, EnsemblePlanner, LoadBalancePlanner, Planner, PlannerConfig,
    RandomizedGreedyPlanner, ReshardingTask, Strategy, StrategyChoice,
};
use crossmesh_mesh::DeviceMesh;
use crossmesh_models::utransformer::UTransformerConfig;
use crossmesh_models::{presets, Precision};
use crossmesh_pipeline::{simulate, CommMode, PipelineConfig, ScheduleKind, WeightDelay};
use serde::{Deserialize, Serialize};

fn config() -> PlannerConfig {
    PlannerConfig::new(presets::p3_cost_params())
}

/// One point of a one-dimensional ablation sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub x: f64,
    /// Simulated seconds at that value.
    pub seconds: f64,
}

/// Broadcast chunk-count sweep on a 1 GB multicast to 4 hosts × 2 GPUs:
/// `T = t(1 + (A−1)/K)` — the paper picks `K ≈ 100`.
pub fn chunk_sweep() -> Vec<SweepPoint> {
    let cluster = presets::aws_p3_8xlarge(5, Precision::Fp32);
    let src = DeviceMesh::from_cluster(&cluster, 0, (1, 1), "src").expect("fits");
    let dst = DeviceMesh::from_cluster(&cluster, 1, (4, 2), "dst").expect("fits");
    let task = ReshardingTask::new(
        src,
        "RRR".parse().expect("valid"),
        dst,
        "RRR".parse().expect("valid"),
        &[1024, 1024, 256],
        4,
    )
    .expect("valid");
    [1u32, 2, 4, 8, 16, 32, 64, 128, 256]
        .into_iter()
        .map(|k| {
            let cfg =
                config().with_strategy(StrategyChoice::Fixed(Strategy::Broadcast { chunks: k }));
            let seconds = LoadBalancePlanner::new(cfg)
                .plan(&task)
                .execute(&cluster)
                .expect("simulates")
                .simulated_seconds;
            SweepPoint {
                x: k as f64,
                seconds,
            }
        })
        .collect()
}

/// DFS node-budget sweep on Table 2 case 4 (64 unit tasks): how much
/// search the exact algorithm needs before the ensemble stops helping.
pub fn dfs_budget_sweep() -> Vec<SweepPoint> {
    let (cluster, task) = TABLE2[3].build().expect("case4 builds");
    [1usize, 10, 100, 1_000, 10_000, 100_000]
        .into_iter()
        .map(|budget| {
            let planner = DfsPlanner::new(config()).with_node_budget(budget);
            let seconds = planner
                .plan(&task)
                .execute(&cluster)
                .expect("simulates")
                .simulated_seconds;
            SweepPoint {
                x: budget as f64,
                seconds,
            }
        })
        .collect()
}

/// Randomized-greedy permutation-count sweep on case 4.
pub fn permutation_sweep() -> Vec<SweepPoint> {
    let (cluster, task) = TABLE2[3].build().expect("case4 builds");
    [1usize, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .map(|perms| {
            let planner = RandomizedGreedyPlanner::new(config()).with_permutations(perms);
            let seconds = planner
                .plan(&task)
                .execute(&cluster)
                .expect("simulates")
                .simulated_seconds;
            SweepPoint {
                x: perms as f64,
                seconds,
            }
        })
        .collect()
}

/// Backward weight-delay sweep on a backward-heavy U-Transformer: the §4
/// technique that trades activation memory for overlap window.
pub fn weight_delay_sweep() -> Vec<SweepPoint> {
    let cluster = presets::aws_p3_8xlarge(2, Precision::Fp32);
    let job = UTransformerConfig {
        num_microbatches: 16,
        global_batch: 1024,
        ..UTransformerConfig::case1()
    }
    .build(&cluster)
    .expect("builds");
    let planner = EnsemblePlanner::new(config());
    (0usize..=4)
        .map(|d| {
            let seconds = simulate(
                &job.graph,
                &cluster,
                &planner,
                &PipelineConfig {
                    schedule: ScheduleKind::Eager1F1B,
                    comm: CommMode::Overlapped,
                    weight_delay: if d == 0 {
                        WeightDelay::None
                    } else {
                        WeightDelay::Fixed(d)
                    },
                },
            )
            .expect("simulates")
            .iteration_seconds;
            SweepPoint {
                x: d as f64,
                seconds,
            }
        })
        .collect()
}

/// Cluster-scale sweep: broadcast vs. Alpa on a 1 GB multicast as the
/// receiver mesh grows from 2 to 10 hosts — the regime where broadcast's
/// flatness and all-gather's host-crossing cost diverge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Number of receiver hosts.
    pub hosts: usize,
    /// Alpa (global all-gather) seconds.
    pub alpa: f64,
    /// Broadcast seconds.
    pub ours: f64,
}

/// Runs the scale sweep.
pub fn scale_sweep() -> Vec<ScalePoint> {
    (2usize..=10)
        .step_by(2)
        .map(|hosts| {
            let cluster = presets::aws_p3_8xlarge(1 + hosts as u32, Precision::Fp32);
            let src = DeviceMesh::from_cluster(&cluster, 0, (1, 1), "src").expect("fits");
            let dst = DeviceMesh::from_cluster(&cluster, 1, (hosts, 4), "dst").expect("fits");
            let task = ReshardingTask::new(
                src,
                "RRR".parse().expect("valid"),
                dst,
                "RRR".parse().expect("valid"),
                &[1024, 1024, 256],
                4,
            )
            .expect("valid");
            let run = |choice: StrategyChoice| {
                LoadBalancePlanner::new(config().with_strategy(choice))
                    .plan(&task)
                    .execute(&cluster)
                    .expect("simulates")
                    .simulated_seconds
            };
            ScalePoint {
                hosts,
                alpa: run(StrategyChoice::AlpaAuto),
                ours: run(StrategyChoice::Fixed(Strategy::broadcast())),
            }
        })
        .collect()
}

/// Ring vs. binary-tree broadcast as the receiver-host count grows: the
/// tree's log-depth does not help in the bandwidth-bound regime the paper
/// targets, while its doubled root bandwidth hurts ~2x.
pub fn ring_vs_tree_sweep() -> Vec<ScalePoint> {
    (2usize..=10)
        .step_by(2)
        .map(|hosts| {
            let cluster = presets::aws_p3_8xlarge(1 + hosts as u32, Precision::Fp32);
            let src = DeviceMesh::from_cluster(&cluster, 0, (1, 1), "src").expect("fits");
            let dst = DeviceMesh::from_cluster(&cluster, 1, (hosts, 4), "dst").expect("fits");
            let task = ReshardingTask::new(
                src,
                "RRR".parse().expect("valid"),
                dst,
                "RRR".parse().expect("valid"),
                &[1024, 1024, 256],
                4,
            )
            .expect("valid");
            let run = |s: Strategy| {
                LoadBalancePlanner::new(config().with_strategy(StrategyChoice::Fixed(s)))
                    .plan(&task)
                    .execute(&cluster)
                    .expect("simulates")
                    .simulated_seconds
            };
            ScalePoint {
                hosts,
                alpa: run(Strategy::TreeBroadcast { chunks: 64 }),
                ours: run(Strategy::broadcast()),
            }
        })
        .collect()
}

/// Oversubscription sweep (beyond the paper's full-bisection assumption):
/// Table 2 case 1 on a fabric whose aggregate capacity shrinks from full
/// bisection to a quarter of it. Broadcast remains the best strategy; its
/// absolute time degrades once the fabric, not the host NIC, bottlenecks.
pub fn oversubscription_sweep() -> Vec<ScalePoint> {
    let case = &TABLE2[0];
    [4.0f64, 2.0, 1.0, 0.5, 0.25]
        .into_iter()
        .map(|factor| {
            let (cluster, task) = case.build().expect("case1 builds");
            // Full bisection here = 2 sending NICs at 1.25 GB/s.
            let cluster = cluster.with_fabric_capacity(factor * 2.0 * 1.25e9);
            let run = |choice: StrategyChoice| {
                LoadBalancePlanner::new(config().with_strategy(choice))
                    .plan(&task)
                    .execute(&cluster)
                    .expect("simulates")
                    .simulated_seconds
            };
            ScalePoint {
                hosts: (factor * 100.0) as usize, // percent of full bisection
                alpa: run(StrategyChoice::AlpaAuto),
                ours: run(StrategyChoice::Fixed(Strategy::broadcast())),
            }
        })
        .collect()
}

/// All ablation results bundled for the repro binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ablations {
    /// Broadcast chunk sweep.
    pub chunks: Vec<SweepPoint>,
    /// DFS budget sweep.
    pub dfs_budget: Vec<SweepPoint>,
    /// Greedy permutation sweep.
    pub permutations: Vec<SweepPoint>,
    /// Weight delay sweep.
    pub weight_delay: Vec<SweepPoint>,
    /// Receiver-host scale sweep.
    pub scale: Vec<ScalePoint>,
    /// Fabric oversubscription sweep (x = percent of full bisection).
    pub oversubscription: Vec<ScalePoint>,
    /// Ring vs binary-tree broadcast sweep (`alpa` column = tree).
    pub ring_vs_tree: Vec<ScalePoint>,
}

/// Runs every ablation.
pub fn run() -> Ablations {
    Ablations {
        chunks: chunk_sweep(),
        dfs_budget: dfs_budget_sweep(),
        permutations: permutation_sweep(),
        weight_delay: weight_delay_sweep(),
        scale: scale_sweep(),
        oversubscription: oversubscription_sweep(),
        ring_vs_tree: ring_vs_tree_sweep(),
    }
}

/// Renders all sweeps as text tables.
pub fn render(a: &Ablations) -> String {
    let sweep_table = |title: &str, xlabel: &str, points: &[SweepPoint]| {
        let mut rows = vec![vec![xlabel.to_string(), "seconds".to_string()]];
        for p in points {
            rows.push(vec![format!("{}", p.x), table_fmt::secs(p.seconds)]);
        }
        format!("{title}\n{}\n", table_fmt::render(&rows))
    };
    let mut out = String::new();
    out.push_str(&sweep_table(
        "Ablation — broadcast chunk count K (1 GB, 4 receiver hosts)",
        "K",
        &a.chunks,
    ));
    out.push_str(&sweep_table(
        "Ablation — DFS node budget (case 4, 64 unit tasks)",
        "budget",
        &a.dfs_budget,
    ));
    out.push_str(&sweep_table(
        "Ablation — randomized-greedy permutations per round (case 4)",
        "permutations",
        &a.permutations,
    ));
    out.push_str(&sweep_table(
        "Ablation — backward weight delay (U-Transformer, 16 microbatches)",
        "delay",
        &a.weight_delay,
    ));
    let mut rows = vec![vec![
        "receiver hosts".to_string(),
        "alpa".to_string(),
        "ours".to_string(),
        "speedup".to_string(),
    ]];
    for p in &a.scale {
        rows.push(vec![
            p.hosts.to_string(),
            table_fmt::secs(p.alpa),
            table_fmt::secs(p.ours),
            table_fmt::speedup(p.alpa / p.ours),
        ]);
    }
    out.push_str(&format!(
        "Ablation — receiver-host scaling (1 GB multicast)\n{}\n",
        table_fmt::render(&rows)
    ));
    let mut rows = vec![vec![
        "% of full bisection".to_string(),
        "alpa".to_string(),
        "ours".to_string(),
    ]];
    for p in &a.oversubscription {
        rows.push(vec![
            p.hosts.to_string(),
            table_fmt::secs(p.alpa),
            table_fmt::secs(p.ours),
        ]);
    }
    out.push_str(&format!(
        "Ablation — fabric oversubscription (Table 2 case 1)\n{}\n",
        table_fmt::render(&rows)
    ));
    let mut rows = vec![vec![
        "receiver hosts".to_string(),
        "tree".to_string(),
        "ring (ours)".to_string(),
        "ring speedup".to_string(),
    ]];
    for p in &a.ring_vs_tree {
        rows.push(vec![
            p.hosts.to_string(),
            table_fmt::secs(p.alpa),
            table_fmt::secs(p.ours),
            table_fmt::speedup(p.alpa / p.ours),
        ]);
    }
    out.push_str(&format!(
        "Ablation — ring vs binary-tree broadcast (1 GB multicast)\n{}",
        table_fmt::render(&rows)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::committed;

    #[test]
    fn chunking_monotonically_improves() {
        let points = committed::<Ablations>("ablations").chunks;
        for w in points.windows(2) {
            assert!(
                w[1].seconds <= w[0].seconds + 1e-6,
                "more chunks should not hurt: {points:?}"
            );
        }
        // K=1 pays the full per-hop cost; large K approaches t.
        assert!(points[0].seconds > 2.0 * points.last().unwrap().seconds);
    }

    #[test]
    fn greedy_never_degrades_with_more_permutations() {
        let points = committed::<Ablations>("ablations").permutations;
        let best = points
            .iter()
            .map(|p| p.seconds)
            .fold(f64::INFINITY, f64::min);
        assert!(points.last().unwrap().seconds <= best * 1.05);
    }

    #[test]
    fn ring_dominates_tree_at_scale() {
        let points = committed::<Ablations>("ablations").ring_vs_tree;
        for p in &points {
            assert!(p.ours <= p.alpa * 1.05, "ring lost to tree: {points:?}");
        }
        // At 8+ hosts the tree pays roughly double bandwidth.
        let last = points.last().unwrap();
        assert!(last.alpa / last.ours > 1.5, "{points:?}");
    }

    #[test]
    fn oversubscription_degrades_gracefully() {
        let points = committed::<Ablations>("ablations").oversubscription;
        // Ours never loses to Alpa at any oversubscription level, and
        // shrinking the fabric never speeds anything up.
        for p in &points {
            assert!(p.ours <= p.alpa * 1.05, "{points:?}");
        }
        for w in points.windows(2) {
            assert!(w[1].ours >= w[0].ours - 1e-6, "{points:?}");
        }
    }

    #[test]
    fn scale_sweep_shows_broadcast_flatness() {
        let points = committed::<Ablations>("ablations").scale;
        let first = &points[0];
        let last = points.last().unwrap();
        assert!(
            last.ours < first.ours * 1.2,
            "broadcast should stay flat: {points:?}"
        );
        assert!(
            last.alpa / last.ours >= first.alpa / first.ours,
            "alpa's gap should not shrink with scale"
        );
    }
}
