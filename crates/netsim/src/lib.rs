//! Deterministic discrete-event, flow-level cluster network simulator.
//!
//! This crate is the hardware substrate of the `crossmesh` workspace. The
//! paper evaluates its communication strategies on a GPU cluster whose only
//! properties that matter for the analysis (§3 of the paper) are:
//!
//! 1. fast intra-host links (NVLink-class) and slow inter-host links,
//! 2. a fully-connected inter-host topology with equal pairwise bandwidth,
//! 3. the communication bottleneck sits at the host NIC, and
//! 4. full-duplex links: separate sending and receiving bandwidth.
//!
//! [`ClusterSpec`] describes such a cluster, [`TaskGraph`] describes a DAG of
//! compute tasks and network flows, and [`Engine`] executes the DAG on the
//! cluster: compute tasks occupy a device serially (FIFO), concurrent flows
//! share link and NIC capacity with max–min fairness (progressive filling),
//! and the engine advances a single simulated clock to the next completion.
//! The result is a [`Trace`] with per-task intervals and the makespan.
//!
//! The simulator is fully deterministic: no wall-clock time and no
//! randomness are consulted anywhere.
//!
//! It reports through `crossmesh-obs` like every layer above it: each run
//! adds its [`SimStats`] to the process-wide `netsim.*` metrics, and
//! [`Trace::export`] lays a run out as the unified timeline.
//!
//! # Example
//!
//! ```
//! use crossmesh_netsim::{ClusterSpec, Engine, LinkParams, TaskGraph, Work};
//!
//! # fn main() -> Result<(), crossmesh_netsim::SimError> {
//! // Two hosts with two devices each, 10 GB/s intra-host, 1 GB/s NIC.
//! let cluster = ClusterSpec::homogeneous(2, 2, LinkParams::new(10e9, 1e9));
//! let mut graph = TaskGraph::new();
//! let d = cluster.device(0, 0);
//! let e = cluster.device(1, 0);
//! let send = graph.add(Work::flow(d, e, 1e9), []);
//! graph.add(Work::compute(e, 0.5), [send]);
//! let trace = Engine::new(&cluster).run(&graph)?;
//! // 1 s transfer + 0.5 s compute (+ a 25 µs NIC latency).
//! assert!((trace.makespan() - 1.5).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod engine;
#[cfg(test)]
mod equivalence;
mod error;
mod faults;
mod graph;
mod rates;
#[cfg(test)]
mod reference;
mod stats;
mod topology;
mod trace;

pub use backend::{Backend, SimBackend};
pub use engine::Engine;
pub use error::{FailureKind, SimError};
pub use faults::{Disruptions, NicScalePeriod};
pub use graph::{Label, Task, TaskGraph, TaskId, Work};
pub use stats::SimStats;
pub use topology::{ClusterSpec, DeviceId, FabricModel, HostId, HostSpec, LinkParams};
pub use trace::{FaultStats, ResourceUsage, TaskInterval, Trace, TraceBuilder};
