//! Workload models for the paper's evaluation (§5).
//!
//! * [`presets`] — the AWS p3.8xlarge cluster class the paper runs on
//!   (4×V100 16 GB per host, NVLink intra-host, 10 Gbps Ethernet).
//! * [`gpt`] — a GPT-3-style stacked-transformer cost model with the
//!   Table 3 parallel configurations (2.6 B parameters, batch 1024,
//!   `(dp, op, pp)` = (2,2,2) and (4,1,2)).
//! * [`utransformer`] — the U-Transformer (U-Net with attention, long skip
//!   connections) at 2.1 B parameters, batch 2048, two pipeline stages.
//! * [`moe`] — a GPT-MoE variant whose FFN layers are expert mixtures,
//!   deriving per-layer all-to-all traffic and bridging to the seeded
//!   routing draws of `crossmesh-moe`.
//! * [`memory`] — the Table 1 per-layer memory breakdown for mixed
//!   precision GPT-3 training.
//!
//! Model builders produce a [`ModelJob`]: a ready-to-simulate
//! [`StageGraph`](crossmesh_pipeline::StageGraph) plus the iteration FLOP
//! count, so simulated times convert to the paper's aggregate-TFLOPS
//! throughput metric.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gpt;
pub mod memory;
pub mod moe;
pub mod presets;
pub mod utransformer;

mod job;

pub use job::{ModelJob, ParallelConfig, Precision};
