//! Wall-clock multi-threaded execution backend for `crossmesh`.
//!
//! The simulator (`crossmesh-netsim`) *predicts* what a lowered
//! [`TaskGraph`](crossmesh_netsim::TaskGraph) would cost; this crate *runs*
//! one. Every device of the cluster becomes a trio of OS threads (compute,
//! send, receive), every [`Work::Flow`](crossmesh_netsim::Work) becomes an
//! actual chunked byte transfer — over in-process bounded channels for
//! intra-host edges, and optionally over real TCP loopback sockets for
//! inter-host edges — and every compute task occupies its device thread for
//! a calibrated spin/sleep. Dependencies are released exactly as the graph
//! dictates, per-task start/finish timestamps are taken from one monotonic
//! clock, and the result comes back as the same
//! [`Trace`](crossmesh_netsim::Trace) type the simulator produces, so
//! planners, reports, and the timeline exporter work unchanged.
//!
//! Each worker's queue carries the work that worker needs (a compute
//! task's wall occupancy, a flow's destination and size), and every frame
//! — sent over a channel or read off a socket — lands on its receiver
//! through one backpressured enqueue. A TCP frame is checked at that
//! boundary: it must name a flow task bound for the frame's device, or
//! the run fails with a [`FailureKind::Graph`](crossmesh_netsim::FailureKind)
//! error naming the flow.
//!
//! Two entry points:
//!
//! * [`ThreadedBackend`] — implements
//!   [`Backend`](crossmesh_netsim::Backend) for any lowered task graph
//!   (timing-shaped execution with real message passing);
//! * [`execute_plan`] — runs a planner's [`Plan`](crossmesh_core::Plan)
//!   with *real tile payloads* on `crossmesh-core`'s delivery engine, one
//!   lane (a pool task) per sending device, verifying byte-exact placement via
//!   [`crossmesh_core::dataplane::verify_destination`].
//!
//! # Example
//!
//! ```
//! use crossmesh_netsim::{Backend, ClusterSpec, LinkParams, TaskGraph, Work};
//! use crossmesh_runtime::ThreadedBackend;
//!
//! # fn main() -> Result<(), crossmesh_netsim::SimError> {
//! let cluster = ClusterSpec::homogeneous(2, 2, LinkParams::new(10e9, 1e9));
//! let mut graph = TaskGraph::new();
//! let f = graph.add(Work::flow(cluster.device(0, 0), cluster.device(1, 0), 1e6), []);
//! graph.add(Work::compute(cluster.device(1, 0), 0.01), [f]);
//! let trace = ThreadedBackend::threads().execute(&cluster, &graph)?;
//! assert!(trace.makespan() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod dataflow;
pub mod net;

pub use backend::{InjectedFaults, ThreadedBackend};
pub use dataflow::execute_plan;
pub use net::{bind_ephemeral, bind_retry, PollListener};
