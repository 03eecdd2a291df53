//! Figure 5: sending a 1 GB replicated tensor from a single device to a
//! growing receiver mesh.
//!
//! Group A fixes one receiver host and grows its GPU count 1→4; group B
//! fixes 2 GPUs per host and grows the host count 1→4. Strategies:
//! `send_recv` (P2P only), `alpa` (all-gather based, falls back on uneven
//! partitions), and `ours` (chunked ring broadcast).

use crossmesh_core::{
    EnsemblePlanner, LoadBalancePlanner, Planner, PlannerConfig, ReshardingTask, Strategy,
    StrategyChoice,
};
use crossmesh_mesh::{DeviceMesh, MeshError};
use crossmesh_models::{presets, Precision};
use crossmesh_netsim::ClusterSpec;
use serde::{Deserialize, Serialize};

/// 1 GB of fp32 elements.
pub const MESSAGE_SHAPE: [u64; 3] = [1024, 1024, 256];

/// One measured point of Figure 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// "1 node, n GPUs" (group A) or "n nodes, 2 GPUs each" (group B).
    pub group: &'static str,
    /// The varying count (GPUs for group A, hosts for group B).
    pub n: usize,
    /// Strategy name.
    pub strategy: &'static str,
    /// Simulated completion time, seconds.
    pub seconds: f64,
}

/// The three strategy configurations the figure compares.
pub fn strategies() -> Vec<(&'static str, StrategyChoice, bool)> {
    vec![
        (
            "send_recv",
            StrategyChoice::Fixed(Strategy::SendRecv),
            false,
        ),
        ("alpa", StrategyChoice::AlpaAuto, false),
        ("ours", StrategyChoice::Fixed(Strategy::broadcast()), true),
    ]
}

fn build_task(receiver_shape: (usize, usize)) -> Result<(ClusterSpec, ReshardingTask), MeshError> {
    let hosts = 1 + receiver_shape.0 as u32;
    let cluster = presets::aws_p3_8xlarge(hosts, Precision::Fp32);
    let src = DeviceMesh::from_cluster(&cluster, 0, (1, 1), "send")?;
    let dst = DeviceMesh::from_cluster(&cluster, 1, receiver_shape, "recv")?;
    let task = ReshardingTask::new(src, "RRR".parse()?, dst, "RRR".parse()?, &MESSAGE_SHAPE, 4)?;
    Ok((cluster, task))
}

/// Runs one strategy on one receiver shape and returns simulated seconds.
///
/// # Panics
///
/// Panics if the configuration fails to build (a bug in the harness).
pub fn measure(receiver_shape: (usize, usize), choice: StrategyChoice, ours: bool) -> f64 {
    let (cluster, task) = build_task(receiver_shape).expect("figure 5 configs are valid");
    let config = PlannerConfig::new(presets::p3_cost_params()).with_strategy(choice);
    let plan = if ours {
        EnsemblePlanner::new(config).plan(&task)
    } else {
        LoadBalancePlanner::new(config).plan(&task)
    };
    plan.execute(&cluster)
        .expect("simulation succeeds")
        .simulated_seconds
}

/// Regenerates both series of Figure 5.
pub fn run() -> Vec<Point> {
    let mut out = Vec::new();
    for n in 1..=4 {
        for (name, choice, ours) in strategies() {
            out.push(Point {
                group: "1 node, n GPUs",
                n,
                strategy: name,
                seconds: measure((1, n), choice, ours),
            });
        }
    }
    for n in 1..=4 {
        for (name, choice, ours) in strategies() {
            out.push(Point {
                group: "n nodes, 2 GPUs each",
                n,
                strategy: name,
                seconds: measure((n, 2), choice, ours),
            });
        }
    }
    out
}

/// Renders the points as two grouped text tables.
pub fn render(points: &[Point]) -> String {
    use crate::table_fmt;
    let mut out = String::new();
    for group in ["1 node, n GPUs", "n nodes, 2 GPUs each"] {
        out.push_str(&format!("Figure 5 — {group} (1 GB message)\n"));
        let mut rows = vec![vec![
            "n".to_string(),
            "send_recv".to_string(),
            "alpa".to_string(),
            "ours".to_string(),
        ]];
        for n in 1..=4 {
            let mut row = vec![n.to_string()];
            for s in ["send_recv", "alpa", "ours"] {
                let p = points
                    .iter()
                    .find(|p| p.group == group && p.n == n && p.strategy == s)
                    .expect("point exists");
                row.push(table_fmt::secs(p.seconds));
            }
            rows.push(row);
        }
        out.push_str(&table_fmt::render(&rows));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::committed;

    fn series(points: &[Point], group: &str, strategy: &str) -> Vec<f64> {
        (1..=4)
            .map(|n| {
                points
                    .iter()
                    .find(|p| p.group == group && p.n == n && p.strategy == strategy)
                    .unwrap()
                    .seconds
            })
            .collect()
    }

    #[test]
    fn figure5_shapes_hold() {
        let points: Vec<Point> = committed("fig5");
        let ga = "1 node, n GPUs";
        let gb = "n nodes, 2 GPUs each";

        // Send/recv grows linearly with receiver count in both groups.
        let sr = series(&points, ga, "send_recv");
        assert!(sr[3] > 3.5 * sr[0], "send_recv not linear: {sr:?}");
        let srb = series(&points, gb, "send_recv");
        assert!(srb[3] > 3.5 * srb[0], "send_recv not linear: {srb:?}");

        // Ours is flat (< 10% growth across the sweep).
        for g in [ga, gb] {
            let ours = series(&points, g, "ours");
            let spread = ours.iter().cloned().fold(0.0, f64::max)
                / ours.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(spread < 1.10, "ours not flat in {g}: {ours:?}");
        }

        // Alpa is flat on one node except the uneven #gpu=3 point, where
        // it falls back and jumps.
        let alpa = series(&points, ga, "alpa");
        assert!(
            alpa[2] > 1.5 * alpa[1],
            "no uneven-partition jump: {alpa:?}"
        );
        assert!(
            alpa[3] < 1.3 * alpa[0],
            "alpa not flat at even points: {alpa:?}"
        );

        // Multi-node: Alpa's all-gather crosses nodes, ours stays near t.
        let alpa_b = series(&points, gb, "alpa");
        let ours_b = series(&points, gb, "ours");
        assert!(
            alpa_b[3] > 1.3 * ours_b[3],
            "ours should win multi-node: alpa {alpa_b:?} vs ours {ours_b:?}"
        );
    }

    #[test]
    fn render_contains_both_groups() {
        let points: Vec<Point> = committed("fig5");
        let text = render(&points);
        assert!(text.contains("1 node"));
        assert!(text.contains("n nodes"));
    }
}
