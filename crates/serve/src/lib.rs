//! `crossmesh-serve` — a multi-tenant resharding daemon.
//!
//! Planning a cross-mesh reshard is the expensive, cacheable step; the
//! paper's setting (many training jobs sharing one cluster) makes it a
//! natural *service*. This crate runs the planner stack as a long-lived
//! daemon: clients submit resharding problems over a length-prefixed JSON
//! protocol on TCP, a worker pool plans them through one shared
//! cross-tenant [`PlanCache`](crossmesh_core::PlanCache) (two tenants
//! resharding the same shape pay for one plan), every plan passes the
//! `crossmesh-check` static verifier before execution, and per-tenant
//! token buckets plus bounded queues shed load explicitly — an overloaded
//! daemon answers `Rejected{retry_after}` instead of queueing without
//! bound.
//!
//! # Example
//!
//! ```
//! use crossmesh_serve::{Client, Request, RequestBody, ReshardRequest, Response,
//!                       ServeConfig, Server};
//!
//! # fn main() -> std::io::Result<()> {
//! let server = Server::start(ServeConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! match client.reshard("tenant-a", ReshardRequest::example())? {
//!     Response::Done(d) => assert!(d.simulated_seconds > 0.0),
//!     other => panic!("unexpected reply: {other:?}"),
//! }
//! let summary = server.shutdown();
//! assert_eq!(summary.completed, 1);
//! assert_eq!(summary.verifier_convictions, 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod client;
pub mod proto;
pub mod server;

pub use admission::{AdmissionConfig, TokenBucket};
pub use client::Client;
pub use crossmesh_faults::BackendKind;
pub use proto::{
    DoneReply, ErrorReply, RejectedReply, Request, RequestBody, ReshardRequest, Response,
    StatsReply, TelemetryReply, TenantStats,
};
pub use server::{ServeConfig, ServeSummary, Server};
