//! Communication strategies for unit communication tasks.
//!
//! The paper's §3.1 analyses four ways to deliver one unique data slice
//! `DS_i` from a sender to its receiver set, in increasing order of
//! sophistication (with their idealised latencies for an `A`-host ×
//! `B`-device receiver set and a slice that takes `t` to cross one
//! inter-host link):
//!
//! | strategy | latency | implemented by |
//! |---|---|---|
//! | send/recv | `A·B·t` | [`Strategy::SendRecv`] |
//! | send/recv + local all-gather | `A·t` | [`Strategy::LocalAllGather`] |
//! | send/recv + global all-gather | `2·t` | [`Strategy::GlobalAllGather`] |
//! | chunked ring broadcast | `t·(1 + A/K)` | [`Strategy::Broadcast`] |
//! | multi-rail spray (RailS-style) | `t/R` per receiver | [`Strategy::MultiRail`] |
//!
//! The multi-rail family extends the paper's taxonomy toward MoE
//! all-to-all traffic on rail-optimized fabrics: chunks are sprayed over
//! the host's `R` rail NICs by residual capacity, relayed over NVLink to
//! reach each rail (see [`lower_unit_task_on`], which takes the cluster
//! topology the relays are drawn from).
//!
//! [`lower_unit_task_on`] turns a [`UnitTask`](crossmesh_mesh::UnitTask)
//! plus a chosen strategy and sender into a
//! [`TaskGraph`](crossmesh_netsim::TaskGraph) fragment executable on the
//! simulator; [`estimate_unit_task`] provides the matching closed-form
//! estimates used by the planner in `crossmesh-core`.
//!
//! The ring collectives ([`ring_all_gather`], [`ring_all_reduce`]) are also
//! exposed: the pipeline executor uses the all-reduce for data-parallel
//! gradient synchronisation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cost_model;
mod lower;
mod ring;
mod strategy;

pub use cost_model::{estimate_unit_task, CostParams};
pub use lower::{lower_unit_task_on, multi_rail_spray, LoweredComm, MultiRailSpray};
pub use ring::{ring_all_gather, ring_all_reduce, RingResult};
pub use strategy::{alpa_effective_strategy, Strategy};
