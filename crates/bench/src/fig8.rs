//! Figure 8: load-balance/scheduling ablation on the Table 2 cases.
//!
//! All three variants lower unit tasks with the broadcast strategy; they
//! differ only in the §3.2 algorithm: `naive` (lowest-index sender,
//! arbitrary order), `load_balance` (LPT greedy), and `ours` (ensemble of
//! DFS-with-pruning and randomized greedy).

use crate::cases::{Case, TABLE2};
use crate::table_fmt;
use crossmesh_core::{
    DfsPlanner, EnsemblePlanner, LoadBalancePlanner, NaivePlanner, Planner, PlannerConfig,
    RandomizedGreedyPlanner,
};
use crossmesh_models::presets;
use serde::{Deserialize, Serialize};

/// One row of Figure 8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Table 2 case name.
    pub case: &'static str,
    /// Naive sender choice and order.
    pub naive: f64,
    /// Eq. 4 LPT greedy.
    pub load_balance: f64,
    /// DFS + randomized greedy ensemble.
    pub ours: f64,
}

fn planner_config() -> PlannerConfig {
    PlannerConfig::new(presets::p3_cost_params())
}

/// Measures one case under one planner.
///
/// # Panics
///
/// Panics if the case fails to build or simulate (harness bug).
pub fn measure(case: &Case, planner: &dyn Planner) -> f64 {
    let (cluster, task) = case.build().expect("table 2 cases build");
    planner
        .plan(&task)
        .execute(&cluster)
        .expect("simulation succeeds")
        .simulated_seconds
}

/// Regenerates Figure 8.
pub fn run() -> Vec<Row> {
    let naive = NaivePlanner::new(planner_config());
    let lpt = LoadBalancePlanner::new(planner_config());
    let ours = EnsemblePlanner::new(planner_config())
        .with_dfs(DfsPlanner::new(planner_config()))
        .with_greedy(RandomizedGreedyPlanner::new(planner_config()).with_permutations(32));
    TABLE2
        .iter()
        .map(|case| Row {
            case: case.name,
            naive: measure(case, &naive),
            load_balance: measure(case, &lpt),
            ours: measure(case, &ours),
        })
        .collect()
}

/// Renders the ablation table.
pub fn render(rows: &[Row]) -> String {
    let mut table = vec![vec![
        "case".to_string(),
        "naive".to_string(),
        "load_balance".to_string(),
        "ours".to_string(),
        "vs naive".to_string(),
    ]];
    for row in rows {
        table.push(vec![
            row.case.to_string(),
            table_fmt::secs(row.naive),
            table_fmt::secs(row.load_balance),
            table_fmt::secs(row.ours),
            table_fmt::speedup(row.naive / row.ours),
        ]);
    }
    format!(
        "Figure 8 — load balance & schedule ablation (broadcast lowering)\n{}",
        table_fmt::render(&table)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::committed;

    #[test]
    fn figure8_shapes_hold() {
        let rows: Vec<Row> = committed("fig8");
        let get = |name: &str| rows.iter().find(|r| r.case == name).unwrap();

        // Ours never loses to the ablated variants.
        for r in &rows {
            assert!(
                r.ours <= r.naive * 1.05 && r.ours <= r.load_balance * 1.05,
                "{}: ours {} naive {} lpt {}",
                r.case,
                r.ours,
                r.naive,
                r.load_balance
            );
        }

        // Cases 1 and 8 have no scheduling freedom: all variants tie.
        for name in ["case1", "case8"] {
            let r = get(name);
            assert!(
                r.naive / r.ours < 1.1 && r.load_balance / r.ours < 1.1,
                "{name} should be a tie: {r:?}"
            );
        }

        // Case 2 (replicated source): naive congests the first node.
        let r = get("case2");
        assert!(
            r.naive / r.ours > 1.3,
            "case2 naive should congest, got {:.2}x",
            r.naive / r.ours
        );

        // Case 3/4/9: ordering matters; ours beats load-balance-only
        // somewhere in this family.
        let improved = ["case3", "case4", "case9"]
            .iter()
            .any(|name| get(name).load_balance / get(name).ours > 1.2);
        assert!(improved, "ordering should matter in cases 3/4/9: {rows:?}");
    }
}
