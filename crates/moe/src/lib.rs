//! Mixture-of-Experts all-to-all on the crossmesh stack.
//!
//! An MoE layer moves every token to its routed experts (dispatch) and
//! back (combine). Unlike the resharding collectives elsewhere in this
//! workspace, the traffic matrix is *data-dependent*: a gating network
//! decides per token, so expert loads are skewed and change every step.
//! This crate models that traffic and lowers it onto the existing planner
//! machinery:
//!
//! * [`routing`] draws a seeded, deterministic tokens-to-experts routing
//!   matrix — Zipf-skewed expert popularity, top-k routing, and an
//!   expert-capacity clamp, mirroring how production MoE gates behave;
//! * [`a2a`] turns a routing matrix into an [`A2aTask`]: one unit task per
//!   (source device → expert device) pair laid out destination-major in a
//!   1-D byte space, carried by a regular
//!   [`ReshardingTask`](crossmesh_core::ReshardingTask) so every planner,
//!   the plan cache, the static verifier, and the simulator apply
//!   unchanged;
//! * [`dataplane`] executes an all-to-all on real buffers — one entry
//!   point whose one-lane run is the sequential oracle, optionally under a
//!   fault schedule — and proves the delivered expert shards
//!   byte-identical to ground truth.
//!
//! The `plan.a2a.*` rules in `crossmesh-check` consume
//! [`A2aTask::pairs`] to prove a plan delivers every expert shard exactly
//! once within per-rail capacity.

pub mod a2a;
pub mod dataplane;
pub mod routing;

pub use a2a::{A2aDirection, A2aTask};
pub use dataplane::execute;
pub use routing::{routing_matrix, RoutingConfig};
