//! Figure 6: the Table 2 multi-device-to-multi-device cases under
//! `send_recv`, `alpa`, and `ours`.

use crate::cases::{Case, TABLE2};
use crate::table_fmt;
use crossmesh_core::{
    EnsemblePlanner, LoadBalancePlanner, Planner, PlannerConfig, Strategy, StrategyChoice,
};
use crossmesh_models::presets;
use serde::{Deserialize, Serialize};

/// One row of Figure 6 (seconds per strategy, plus ours' speedup).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Table 2 case name.
    pub case: &'static str,
    /// P2P baseline.
    pub send_recv: f64,
    /// All-gather baseline (Alpa/Megatron style).
    pub alpa: f64,
    /// Broadcast + ensemble planner.
    pub ours: f64,
}

impl Row {
    /// Ours' speedup over the Alpa baseline.
    pub fn speedup_vs_alpa(&self) -> f64 {
        self.alpa / self.ours
    }
}

/// Measures one case under one baseline/ours configuration.
///
/// # Panics
///
/// Panics if the case fails to build or simulate (harness bug).
pub fn measure(case: &Case, choice: StrategyChoice, ours: bool) -> f64 {
    let (cluster, task) = case.build().expect("table 2 cases build");
    let config = PlannerConfig::new(presets::p3_cost_params()).with_strategy(choice);
    let plan = if ours {
        EnsemblePlanner::new(config).plan(&task)
    } else {
        // The paper's baselines load-balance greedily by lightest sender.
        LoadBalancePlanner::new(config).plan(&task)
    };
    plan.execute(&cluster)
        .expect("simulation succeeds")
        .simulated_seconds
}

/// Regenerates Figure 6.
pub fn run() -> Vec<Row> {
    TABLE2
        .iter()
        .map(|case| Row {
            case: case.name,
            send_recv: measure(case, StrategyChoice::Fixed(Strategy::SendRecv), false),
            alpa: measure(case, StrategyChoice::AlpaAuto, false),
            ours: measure(case, StrategyChoice::Fixed(Strategy::broadcast()), true),
        })
        .collect()
}

/// Renders the Table 2 configuration alongside the measured latencies.
pub fn render(rows: &[Row]) -> String {
    let mut table = vec![vec![
        "case".to_string(),
        "send spec".to_string(),
        "recv spec".to_string(),
        "send mesh".to_string(),
        "recv mesh".to_string(),
        "send_recv".to_string(),
        "alpa".to_string(),
        "ours".to_string(),
        "vs alpa".to_string(),
    ]];
    for (case, row) in TABLE2.iter().zip(rows) {
        table.push(vec![
            case.name.to_string(),
            case.send_spec.to_string(),
            case.recv_spec.to_string(),
            format!("({},{})", case.send_mesh.0, case.send_mesh.1),
            format!("({},{})", case.recv_mesh.0, case.recv_mesh.1),
            table_fmt::secs(row.send_recv),
            table_fmt::secs(row.alpa),
            table_fmt::secs(row.ours),
            table_fmt::speedup(row.speedup_vs_alpa()),
        ]);
    }
    format!(
        "Figure 6 — multi-device to multi-device microbenchmark (Table 2 cases)\n{}",
        table_fmt::render(&table)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::committed;

    /// The headline claims of §5.1.2, as orderings rather than absolute
    /// numbers.
    #[test]
    fn figure6_shapes_hold() {
        let rows: Vec<Row> = committed("fig6");
        let get = |name: &str| rows.iter().find(|r| r.case == name).unwrap();

        // Ours never loses materially to either baseline.
        for r in &rows {
            assert!(
                r.ours <= r.alpa * 1.05 && r.ours <= r.send_recv * 1.05,
                "{}: ours {} vs alpa {} send_recv {}",
                r.case,
                r.ours,
                r.alpa,
                r.send_recv
            );
        }

        // Cases 1 and 5: ours and Alpa comparable (within 2x).
        for name in ["case1", "case5"] {
            let r = get(name);
            assert!(
                r.speedup_vs_alpa() < 2.0,
                "{name} should be near parity, got {:.2}x",
                r.speedup_vs_alpa()
            );
        }

        // Cases 3, 4, 9: ours substantially faster than Alpa.
        for name in ["case3", "case4", "case9"] {
            let r = get(name);
            assert!(
                r.speedup_vs_alpa() > 1.5,
                "{name} should show a large win, got {:.2}x",
                r.speedup_vs_alpa()
            );
        }

        // Case 4 (64 unit tasks) shows at least as large a win as case 3.
        assert!(get("case4").speedup_vs_alpa() >= get("case3").speedup_vs_alpa() * 0.8);
    }

    #[test]
    fn render_lists_all_cases() {
        let rows: Vec<Row> = committed("fig6");
        let text = render(&rows);
        for c in TABLE2 {
            assert!(text.contains(c.name));
        }
    }
}
