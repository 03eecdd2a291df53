//! Pipeline-parallel schedules and communication overlap (paper §4).
//!
//! A [`StageGraph`] describes a pipeline-parallel job: stages with
//! per-microbatch forward/backward costs, each placed on a
//! [`DeviceMesh`](crossmesh_mesh::DeviceMesh), connected by cross-mesh
//! tensor edges (adjacent stages *and* long skip connections, as in the
//! U-Transformer). Every edge is a full cross-mesh
//! [`ReshardingTask`](crossmesh_core::ReshardingTask).
//!
//! [`ScheduleKind`] selects the per-stage operation order:
//!
//! * [`ScheduleKind::GPipe`] — all forwards, then all backwards;
//! * [`ScheduleKind::OneFOneB`] — the synchronous 1F1B schedule, warmup of
//!   `#stages − i` microbatches;
//! * [`ScheduleKind::Eager1F1B`] — the paper's overlapping-friendly
//!   schedule: warmup of `2(#stages − i) − 1` forwards, which inserts
//!   independent compute between dependent tasks so cross-mesh resharding
//!   can hide behind it.
//!
//! [`CommMode`] selects how resharding interacts with compute:
//!
//! * [`CommMode::Synchronous`] — communication blocks the sender stage
//!   (the "Broadcast" baseline of §5.2: single-task optimization only);
//! * [`CommMode::Overlapped`] — sends are asynchronous and receivers wait
//!   only for their own tiles;
//! * [`CommMode::Signal`] — every resharding degrades to a 1-byte signal,
//!   the paper's hypothetical upper bound ("Signal Send/Recv").
//!
//! Backward passes are split into activation-gradient and weight-gradient
//! halves; [`WeightDelay`] delays the weight half to extend the overlap
//! window (§4, "backward weight delaying").
//!
//! [`simulate_with_cache`] builds the configured schedule, lowers the
//! pipeline onto any [`Backend`](crossmesh_netsim::Backend) (with an
//! optional plan cache) and reports iteration time, per-stage peak
//! activation counts and memory, and cross-host traffic; [`simulate`] is
//! that call on the flow-level simulator without a cache.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod exec;
mod schedule;
mod stage;

pub use exec::{simulate, simulate_with_cache, CommMode, PipelineConfig, PipelineReport};
pub use schedule::{build_schedule, Op, Schedule, ScheduleKind, WeightDelay};
pub use stage::{CommEdge, EdgeTensor, GradSync, Stage, StageGraph};

pub use crossmesh_core::{CostParams, Planner, PlannerConfig, Strategy};
