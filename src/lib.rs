//! # crossmesh
//!
//! A from-scratch Rust reproduction of *On Optimizing the Communication of
//! Model Parallelism* (MLSys 2023): cross-mesh resharding for combined
//! intra-operator + inter-operator model parallelism, plus the
//! overlapping-friendly eager-1F1B pipeline schedule — evaluated on a
//! deterministic flow-level cluster simulator instead of a GPU testbed.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`netsim`] — discrete-event flow-level cluster network simulator.
//! * [`mesh`] — device meshes, sharding specs, layouts, unit-task
//!   decomposition of a cross-mesh resharding task.
//! * [`collectives`] — communication strategies (send/recv, local/global
//!   all-gather, chunked ring broadcast) and their cost models.
//! * [`core`] — the resharding planner: load balancing and scheduling of
//!   unit communication tasks.
//! * [`check`] — correctness checks: the static plan/schedule verifier,
//!   the determinism lint (`crossmesh-lint`), and the happens-before race
//!   detector with its seeded schedule fuzzer (`crossmesh check --races`).
//! * [`runtime`] — wall-clock multi-threaded execution backend: runs
//!   lowered task graphs for real (one OS thread trio per device, byte
//!   payloads over channels or TCP loopback) behind the same
//!   [`Backend`](netsim::Backend) trait as the simulator.
//! * [`faults`] — deterministic fault injection (host crashes, link
//!   degradation, stragglers, flow drops) and fault-tolerant recovery:
//!   sender failover via `Plan::repair` plus degradation reporting, with
//!   one seeded schedule driving both the simulator and the runtime.
//! * [`pipeline`] — GPipe / 1F1B / eager-1F1B schedules, overlap modes,
//!   backward weight delaying.
//! * [`obs`] — structured tracing facade, sharded metrics registry, and
//!   the unified Chrome/Perfetto timeline export shared by both backends.
//! * [`models`] — GPT-3-like and U-Transformer workload models and the AWS
//!   p3.8xlarge cluster preset used in the paper's evaluation.
//! * [`moe`] — MoE all-to-all: seeded token-to-expert routing,
//!   dispatch/combine unit-task decomposition over a destination-major
//!   byte space, and a byte-exact expert-shard data plane.
//! * [`autoshard`] — sharding-spec search for stage-boundary tensors (the
//!   "auto" half of the paper's `(auto, auto, 2)` configurations).
//! * [`serve`] — the multi-tenant resharding daemon: per-tenant
//!   token-bucket admission control, a shared cross-tenant plan cache,
//!   and a length-prefixed TCP request protocol with graceful drain.
//!
//! # Quickstart
//!
//! ```
//! use crossmesh::mesh::{DeviceMesh, ShardingSpec};
//! use crossmesh::core::{Planner, ReshardingTask, EnsemblePlanner};
//! use crossmesh::netsim::{ClusterSpec, LinkParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two hosts x 4 GPUs; meshes split host-wise.
//! let cluster = ClusterSpec::homogeneous(2, 4, LinkParams::new(100e9, 1.25e9));
//! let src = DeviceMesh::from_cluster_hosts(&cluster, 0..1, "src")?;
//! let dst = DeviceMesh::from_cluster_hosts(&cluster, 1..2, "dst")?;
//! let task = ReshardingTask::new(
//!     src,
//!     "S0R".parse::<ShardingSpec>()?,
//!     dst,
//!     "RS0".parse::<ShardingSpec>()?,
//!     &[1024, 1024],
//!     4, // bytes per element
//! )?;
//! let plan = EnsemblePlanner::default().plan(&task);
//! let report = plan.execute(&cluster)?;
//! println!("resharding took {:.3} ms", report.simulated_seconds * 1e3);
//! # Ok(())
//! # }
//! ```

pub use crossmesh_autoshard as autoshard;
pub use crossmesh_check as check;
pub use crossmesh_collectives as collectives;
pub use crossmesh_core as core;
pub use crossmesh_faults as faults;
pub use crossmesh_hb as hb;
pub use crossmesh_mesh as mesh;
pub use crossmesh_models as models;
pub use crossmesh_moe as moe;
pub use crossmesh_netsim as netsim;
pub use crossmesh_obs as obs;
pub use crossmesh_pipeline as pipeline;
pub use crossmesh_runtime as runtime;
pub use crossmesh_serve as serve;
