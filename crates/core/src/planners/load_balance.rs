//! Load-balance-only planning: the classical LPT greedy (paper Eq. 4).

use super::table::{HostTable, Pick};
use super::{Planner, PlannerConfig};
use crate::plan::Plan;
use crate::task::ReshardingTask;

/// Balances sender loads with the longest-processing-time-first greedy:
/// sort unit tasks by descending duration, then assign each to the
/// candidate sender host with the currently lightest load. The plan order
/// is the assignment order (longest first), which doubles as a reasonable
/// list schedule.
///
/// This solves the simplified minimax problem (Eq. 4) but ignores receiver
/// conflicts — the gap the DFS and randomized-greedy planners close.
#[derive(Debug, Clone, Default)]
pub struct LoadBalancePlanner {
    config: PlannerConfig,
}

impl LoadBalancePlanner {
    /// Creates the planner with the given configuration.
    pub fn new(config: PlannerConfig) -> Self {
        LoadBalancePlanner { config }
    }
}

/// The LPT schedule over `table`: the units of `longest_first` (see
/// [`HostTable::longest_first`]) in that order, each on its candidate host
/// with the lightest load so far, ties by host.
pub(super) fn lpt_schedule(table: &HostTable, longest_first: &[usize]) -> Vec<Pick> {
    let mut load = vec![0.0f64; table.n_slots];
    longest_first
        .iter()
        .map(|&unit| {
            let (ci, c) = table.rows[unit]
                .cands
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let la = load[a.slot as usize] + a.duration;
                    let lb = load[b.slot as usize] + b.duration;
                    la.total_cmp(&lb).then(a.host.cmp(&b.host))
                })
                .expect("every unit task has at least one replica");
            load[c.slot as usize] += c.duration;
            (unit, ci as u32)
        })
        .collect()
}

impl Planner for LoadBalancePlanner {
    fn plan<'t>(&self, task: &'t ReshardingTask) -> Plan<'t> {
        let table = HostTable::build(task, &self.config);
        let schedule = lpt_schedule(&table, &table.longest_first());
        Plan::new(task, table.assignments(&schedule), self.config.params)
    }

    fn name(&self) -> &'static str {
        "load_balance"
    }

    fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.name().hash(&mut h);
        super::hash_planner_config(&mut h, &self.config);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::super::NaivePlanner;
    use super::*;
    use crossmesh_collectives::estimate_unit_task;
    use std::collections::BTreeSet;

    #[test]
    fn spreads_senders_over_replica_hosts() {
        // RS^1R source: 4 unique slices, each replicated over both sender
        // hosts; plenty of unit tasks to spread.
        let t = task("RS1R", "S0RR", &[8, 8, 8]);
        let plan = LoadBalancePlanner::new(config()).plan(&t);
        let hosts: BTreeSet<_> = plan.assignments().iter().map(|a| a.sender_host).collect();
        assert!(
            hosts.len() > 1,
            "LPT should use both sender hosts, used {hosts:?}"
        );
    }

    #[test]
    fn beats_naive_when_naive_congests() {
        // Naive pushes everything through host 0; LPT uses both hosts.
        let c = cluster();
        let t = task("RS1R", "S0RR", &[16, 8, 8]);
        let naive = NaivePlanner::new(config()).plan(&t).execute(&c).unwrap();
        let lpt = LoadBalancePlanner::new(config())
            .plan(&t)
            .execute(&c)
            .unwrap();
        assert!(
            lpt.simulated_seconds < naive.simulated_seconds * 0.95,
            "LPT {} vs naive {}",
            lpt.simulated_seconds,
            naive.simulated_seconds
        );
    }

    #[test]
    fn schedule_is_longest_first() {
        let t = task("S0RR", "S01RR", &[8, 8, 8]);
        let plan = LoadBalancePlanner::new(config()).plan(&t);
        let params = config().params;
        let durations: Vec<f64> = plan
            .assignments()
            .iter()
            .map(|a| estimate_unit_task(&params, &t.units()[a.unit], a.sender_host, a.strategy))
            .collect();
        assert!(durations.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }
}
