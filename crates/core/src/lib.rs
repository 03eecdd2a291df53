//! Cross-mesh resharding planning: the paper's primary contribution.
//!
//! A [`ReshardingTask`] describes one tensor that must move from a source
//! mesh (with one sharding spec) to a destination mesh (with another). It
//! decomposes into unit communication tasks (`crossmesh-mesh`), each lowered
//! with a communication [`Strategy`]
//! (`crossmesh-collectives`). What remains — and what this crate solves — is
//! the paper's §3.2 **load balancing and scheduling problem**:
//!
//! * pick, for every unit task, the sender host `n_i* ∈ n_i` among the
//!   replica holders, and
//! * order the tasks so that tasks sharing a sender or receiver host never
//!   overlap (Eq. 1–3), minimising the completion time of the last task.
//!
//! Four algorithms are provided, mirroring §3.2 and the Figure 8 ablation:
//!
//! * [`NaivePlanner`] — lowest-index sender, arbitrary (index) order;
//! * [`LoadBalancePlanner`] — the classical LPT greedy on sender loads
//!   (Eq. 4), order by descending duration;
//! * [`DfsPlanner`] — depth-first search over sender assignments with
//!   lower-bound pruning and a node budget;
//! * [`RandomizedGreedyPlanner`] — rounds of maximum non-conflicting task
//!   sets found by seeded random permutations;
//! * [`EnsemblePlanner`] — runs DFS and randomized greedy, returns the plan
//!   with the better estimated makespan (the paper's final configuration).
//!
//! The produced [`Plan`] can be [`estimate`](Plan::estimate)d analytically
//! or [`execute`](Plan::execute)d on the flow-level simulator.
//!
//! Planning is parallel: the ensemble members run concurrently, greedy
//! restarts and DFS branches fan out over the current rayon pool, and every
//! planner is byte-identical to its sequential self at any thread count. A
//! [`PlanCache`] amortizes planning across repeated identical tasks (every
//! pipeline microbatch, every repair round), keyed by task content,
//! [`SenderExclusions`], and planner fingerprint.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dataplane;

mod cache;
mod exclusions;
mod plan;
mod planners;
mod spec;
mod task;

pub use cache::{CacheStats, PlanCache};
pub use exclusions::{RepairError, SenderExclusions};
pub use plan::{Assignment, ExecutionReport, Plan, PlanRun};
pub use planners::{
    plan_with_exclusions, planner_for, DfsPlanner, EnsemblePlanner, LoadBalancePlanner,
    NaivePlanner, Planner, PlannerConfig, RandomizedGreedyPlanner, StrategyChoice,
};
pub use spec::{build_meshes, parse_mesh, parse_shape, TaskSpec, TaskSpecError};
pub use task::ReshardingTask;

// Re-exports so downstream users rarely need the substrate crates directly.
pub use crossmesh_collectives::{CostParams, Strategy};
pub use crossmesh_mesh::{DeviceMesh, MeshError, ShardingSpec, UnitTask};
