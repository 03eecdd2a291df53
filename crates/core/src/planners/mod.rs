//! Load balancing and scheduling algorithms (paper §3.2).

mod dfs;
mod ensemble;
mod greedy;
mod load_balance;
mod naive;
mod table;

pub use dfs::DfsPlanner;
pub use ensemble::EnsemblePlanner;
pub use greedy::RandomizedGreedyPlanner;
pub use load_balance::LoadBalancePlanner;
pub use naive::NaivePlanner;

use crate::exclusions::{RepairError, SenderExclusions};
use crate::plan::Plan;
use crate::task::ReshardingTask;
use crossmesh_collectives::{alpa_effective_strategy, CostParams, Strategy};
use crossmesh_mesh::UnitTask;
use crossmesh_netsim::{DeviceId, HostId};
use serde::{Deserialize, Serialize};

/// The planner-name table shared by the CLI and the serve daemon: `ours`
/// (the ensemble), `naive`, `lpt`, `dfs`, `greedy`. `seed` seeds the
/// randomized-greedy planner (alone or inside the ensemble).
///
/// # Errors
///
/// A message naming the unknown planner.
pub fn planner_for(
    name: &str,
    config: PlannerConfig,
    seed: Option<u64>,
) -> Result<Box<dyn Planner>, String> {
    let greedy = || {
        let p = RandomizedGreedyPlanner::new(config);
        match seed {
            Some(s) => p.with_seed(s),
            None => p,
        }
    };
    Ok(match name {
        "ours" => Box::new(EnsemblePlanner::new(config).with_greedy(greedy())),
        "naive" => Box::new(NaivePlanner::new(config)),
        "lpt" => Box::new(LoadBalancePlanner::new(config)),
        "dfs" => Box::new(DfsPlanner::new(config)),
        "greedy" => Box::new(greedy()),
        other => return Err(format!("unknown planner {other:?}")),
    })
}

/// How the planner picks a communication strategy per unit task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategyChoice {
    /// Use the same strategy for every unit task.
    Fixed(Strategy),
    /// Emulate the Alpa baseline: global all-gather when the slice splits
    /// evenly over the receivers, plain send/recv otherwise.
    AlpaAuto,
}

impl StrategyChoice {
    /// Resolves the strategy for one unit task.
    pub fn resolve(&self, unit: &UnitTask) -> Strategy {
        match self {
            StrategyChoice::Fixed(s) => *s,
            StrategyChoice::AlpaAuto => alpa_effective_strategy(unit),
        }
    }
}

/// Shared planner configuration: cost parameters for duration estimates and
/// the strategy choice.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Bandwidths/latencies used for the analytic duration estimates.
    pub params: CostParams,
    /// Strategy used to lower each unit task.
    pub strategy: StrategyChoice,
}

impl Default for PlannerConfig {
    /// Defaults to the paper's evaluation cluster class (NVLink-class
    /// intra-host, 10 Gbps inter-host) and the broadcast strategy.
    fn default() -> Self {
        PlannerConfig {
            params: CostParams {
                inter_bw: 1.25e9,
                intra_bw: 100e9,
                inter_latency: 25e-6,
                intra_latency: 5e-6,
            },
            strategy: StrategyChoice::Fixed(Strategy::broadcast()),
        }
    }
}

impl PlannerConfig {
    /// A config with the given cost parameters and the default broadcast
    /// strategy.
    pub fn new(params: CostParams) -> Self {
        PlannerConfig {
            params,
            strategy: StrategyChoice::Fixed(Strategy::broadcast()),
        }
    }

    /// Returns a copy with the strategy choice replaced.
    #[must_use]
    pub fn with_strategy(mut self, strategy: StrategyChoice) -> Self {
        self.strategy = strategy;
        self
    }
}

/// A load-balancing and scheduling algorithm: turns a resharding task into
/// an ordered, sender-assigned [`Plan`].
pub trait Planner {
    /// Produces a plan covering every unit task exactly once.
    fn plan<'t>(&self, task: &'t ReshardingTask) -> Plan<'t>;

    /// A short name for reports and figures.
    fn name(&self) -> &'static str;

    /// A stable fingerprint of the planner's identity and configuration,
    /// mixed into [`PlanCache`](crate::PlanCache) keys so
    /// differently-configured planners never share cache entries.
    ///
    /// The default hashes only [`name`](Planner::name); planners with
    /// tunable knobs (budgets, seeds, cost parameters) override it to
    /// include them.
    fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        use std::hash::{Hash, Hasher};
        self.name().hash(&mut h);
        h.finish()
    }
}

/// Hashes a [`PlannerConfig`] into `h` for planner fingerprints: cost
/// parameters bit-exactly, the strategy via its debug form.
pub(crate) fn hash_planner_config<H: std::hash::Hasher>(h: &mut H, config: &PlannerConfig) {
    use std::hash::Hash;
    config.params.inter_bw.to_bits().hash(h);
    config.params.intra_bw.to_bits().hash(h);
    config.params.inter_latency.to_bits().hash(h);
    config.params.intra_latency.to_bits().hash(h);
    format!("{:?}", config.strategy).hash(h);
}

/// Runs `planner` on the task with the excluded senders removed, then
/// re-binds the resulting plan to the original task (every surviving
/// sender is a replica of the original units, so the plan stays valid).
///
/// This is how any planner solves the §3.2 problem "with failed senders
/// excluded from each N_i" without knowing about faults itself.
///
/// # Errors
///
/// [`RepairError::DataLoss`] if a unit task loses every replica holder.
pub fn plan_with_exclusions<'t, P: Planner + ?Sized>(
    planner: &P,
    task: &'t ReshardingTask,
    exclusions: &SenderExclusions,
) -> Result<Plan<'t>, RepairError> {
    let filtered = task.excluding(exclusions)?;
    let plan = planner.plan(&filtered);
    let assignments = plan.assignments().to_vec();
    let params = *plan.params();
    Ok(Plan::new(task, assignments, params))
}

/// The first replica device of `unit` on `host`.
///
/// # Panics
///
/// Panics if `host` holds no replica (planners only pick candidate hosts
/// from `unit.sender_hosts()`).
pub(crate) fn replica_on(unit: &UnitTask, host: HostId) -> DeviceId {
    unit.senders
        .iter()
        .find(|&&(_, h)| h == host)
        .map(|&(d, _)| d)
        .expect("host holds no replica of the slice")
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crossmesh_mesh::DeviceMesh;
    use crossmesh_netsim::{ClusterSpec, LinkParams};

    /// A 4-host cluster (2 sender + 2 receiver hosts), 4 devices each, with
    /// byte-scale bandwidths for readable numbers.
    pub fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(5, 4, LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0))
    }

    pub fn task(src_spec: &str, dst_spec: &str, shape: &[u64]) -> ReshardingTask {
        let c = cluster();
        let a = DeviceMesh::from_cluster(&c, 0, (2, 4), "A").unwrap();
        let b = DeviceMesh::from_cluster(&c, 2, (2, 4), "B").unwrap();
        ReshardingTask::new(
            a,
            src_spec.parse().unwrap(),
            b,
            dst_spec.parse().unwrap(),
            shape,
            1,
        )
        .unwrap()
    }

    pub fn config() -> PlannerConfig {
        PlannerConfig::new(CostParams {
            inter_bw: 1.0,
            intra_bw: 100.0,
            inter_latency: 0.0,
            intra_latency: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn strategy_choice_resolution() {
        let t = task("S0RR", "S0RR", &[8, 8, 8]);
        let u = &t.units()[0];
        assert_eq!(
            StrategyChoice::Fixed(Strategy::SendRecv).resolve(u),
            Strategy::SendRecv
        );
        // Even split over receivers -> Alpa uses the all-gather path.
        assert_eq!(
            StrategyChoice::AlpaAuto.resolve(u),
            Strategy::GlobalAllGather
        );
    }

    #[test]
    fn replica_lookup() {
        let t = task("RRR", "S0RR", &[8, 8, 8]);
        let u = &t.units()[0];
        for h in u.sender_hosts() {
            let d = replica_on(u, h);
            assert!(u.senders.iter().any(|&(dd, hh)| dd == d && hh == h));
        }
    }

    #[test]
    fn plan_with_exclusions_avoids_the_excluded_host() {
        let t = task("RS1R", "S0RR", &[8, 8, 8]);
        let planner = EnsemblePlanner::new(config());
        let dead = HostId(0);
        let excl = SenderExclusions::for_hosts([dead]);
        let plan = plan_with_exclusions(&planner, &t, &excl).unwrap();
        assert_eq!(plan.assignments().len(), t.units().len());
        assert!(plan.assignments().iter().all(|a| a.sender_host != dead));
        // The plan is bound to the ORIGINAL task.
        assert!(std::ptr::eq(plan.task(), &t));
    }

    #[test]
    fn plan_with_exclusions_reports_data_loss() {
        let t = task("S0RR", "S0RR", &[8, 8, 8]);
        let planner = NaivePlanner::new(config());
        let excl = SenderExclusions::for_hosts([HostId(0)]);
        let err = plan_with_exclusions(&planner, &t, &excl).unwrap_err();
        assert!(matches!(err, RepairError::DataLoss { .. }));
    }

    #[test]
    fn default_config_is_p3_like() {
        let c = PlannerConfig::default();
        assert_eq!(c.params.inter_bw, 1.25e9);
        assert!(matches!(
            c.strategy,
            StrategyChoice::Fixed(Strategy::Broadcast { .. })
        ));
    }
}
