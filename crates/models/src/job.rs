//! Common types for workload models.

use crossmesh_pipeline::StageGraph;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Numeric precision of training, which fixes element width and the
/// effective per-device compute rate we assume for a V100.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// Mixed precision (fp16 compute, fp32 master weights).
    Fp16,
    /// Full fp32.
    Fp32,
}

impl Precision {
    /// Bytes per tensor element.
    pub fn elem_bytes(self) -> u64 {
        match self {
            Precision::Fp16 => 2,
            Precision::Fp32 => 4,
        }
    }

    /// Effective achievable FLOP/s per V100 device (peak derated to the
    /// utilisation large dense models typically reach).
    pub fn effective_device_flops(self) -> f64 {
        match self {
            Precision::Fp16 => 50e12,
            Precision::Fp32 => 11e12,
        }
    }

    /// Bytes per parameter with ZeRO-1-style sharding: the fp32 master
    /// weights and Adam moments (12 bytes) are partitioned across the `dp`
    /// data-parallel replicas; each device keeps its working copy of the
    /// weights at the training precision. This is how billion-parameter
    /// configurations like Table 3's (4,1,2) fit 16 GB devices at all.
    pub fn zero1_state_bytes_per_param(self, dp: usize) -> f64 {
        self.elem_bytes() as f64 + 12.0 / dp.max(1) as f64
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Precision::Fp16 => "FP16",
            Precision::Fp32 => "FP32",
        })
    }
}

/// The paper's `(data parallel, operator parallel, pipeline parallel)`
/// degree tuple (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParallelConfig {
    /// Data-parallel degree (batch split).
    pub dp: usize,
    /// Operator (tensor) parallel degree (hidden split).
    pub op: usize,
    /// Pipeline-parallel degree (layer split).
    pub pp: usize,
}

impl ParallelConfig {
    /// Creates a config; all degrees must be positive.
    ///
    /// # Panics
    ///
    /// Panics if any degree is zero.
    pub fn new(dp: usize, op: usize, pp: usize) -> Self {
        assert!(
            dp > 0 && op > 0 && pp > 0,
            "parallel degrees must be positive"
        );
        ParallelConfig { dp, op, pp }
    }

    /// Total number of devices the config occupies.
    pub fn num_devices(&self) -> usize {
        self.dp * self.op * self.pp
    }

    /// Devices per pipeline stage.
    pub fn devices_per_stage(&self) -> usize {
        self.dp * self.op
    }
}

impl fmt::Display for ParallelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.dp, self.op, self.pp)
    }
}

/// A ready-to-simulate model: the pipeline stage graph plus enough
/// accounting to convert simulated time to the paper's throughput metric.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelJob {
    /// The pipeline to simulate.
    pub graph: StageGraph,
    /// Total model FLOPs per training iteration (forward + backward over
    /// the whole global batch).
    pub total_flops: f64,
    /// Devices participating.
    pub num_devices: usize,
}

impl ModelJob {
    /// The paper's Figure 7 metric: aggregate cluster throughput in
    /// TFLOPS for an iteration that took `iteration_seconds`.
    ///
    /// # Panics
    ///
    /// Panics if `iteration_seconds` is not positive.
    pub fn aggregate_tflops(&self, iteration_seconds: f64) -> f64 {
        assert!(iteration_seconds > 0.0, "iteration time must be positive");
        self.total_flops / iteration_seconds / 1e12
    }

    /// Per-GPU throughput in TFLOPS.
    ///
    /// # Panics
    ///
    /// Panics if `iteration_seconds` is not positive.
    pub fn per_gpu_tflops(&self, iteration_seconds: f64) -> f64 {
        self.aggregate_tflops(iteration_seconds) / self.num_devices as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_properties() {
        assert_eq!(Precision::Fp16.elem_bytes(), 2);
        assert_eq!(Precision::Fp32.elem_bytes(), 4);
        assert!(
            Precision::Fp16.effective_device_flops() > Precision::Fp32.effective_device_flops()
        );
    }

    #[test]
    fn parallel_config_counts() {
        let p = ParallelConfig::new(2, 2, 2);
        assert_eq!(p.num_devices(), 8);
        assert_eq!(p.devices_per_stage(), 4);
        assert_eq!(p.to_string(), "(2, 2, 2)");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_degree_panics() {
        ParallelConfig::new(0, 1, 1);
    }
}
