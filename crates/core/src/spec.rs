//! The portable description of a resharding problem and the one place it
//! is turned into a [`ReshardingTask`] on a [`ClusterSpec`].
//!
//! The CLI's `reshard`/`check --task`/`client`, `--emit-task` files and the
//! serve daemon's wire requests all carry the same strings (`"2x4"` meshes,
//! `"S0RR"` specs, `"1024x64"` shapes); [`TaskSpec::build`] is where they
//! are parsed, bounded and constructed, so a size a client or a file hands
//! us is checked once, before anything is allocated for it.

use crate::task::ReshardingTask;
use crossmesh_mesh::{DeviceMesh, MeshError};
use crossmesh_netsim::{ClusterSpec, LinkParams};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Most hosts (source rows + destination rows) a portable task may span.
pub const MAX_HOSTS: usize = 4096;
/// Most devices per host (mesh columns) a portable task may ask for.
pub const MAX_DEVICES_PER_HOST: usize = 64;

/// A resharding problem in portable strings plus the link parameters of
/// the cluster it runs on: what `reshard --emit-task` writes, `check
/// --task` reads, and a serve request is converted to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Source sharding spec, e.g. `"RS0R"`.
    pub src_spec: String,
    /// Destination sharding spec, e.g. `"S0RR"`.
    pub dst_spec: String,
    /// Source mesh `rows x cols`, e.g. `"2x4"`: rows are hosts.
    pub src_mesh: String,
    /// Destination mesh `rows x cols`.
    pub dst_mesh: String,
    /// Tensor shape, e.g. `"1024x64"`.
    pub shape: String,
    /// Bytes per element.
    pub elem_bytes: u64,
    /// Inter-host bandwidth, bytes/s.
    pub inter_bw: f64,
    /// Intra-host bandwidth, bytes/s.
    pub intra_bw: f64,
    /// Inter-host latency, seconds.
    pub inter_latency: f64,
    /// Intra-host latency, seconds.
    pub intra_latency: f64,
}

/// Why a [`TaskSpec`] was turned away.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TaskSpecError {
    /// A mesh or shape string does not parse.
    Malformed(String),
    /// The meshes exceed `MAX_HOSTS` / `MAX_DEVICES_PER_HOST`, or the
    /// tensor's byte size is zero or overflows `u64`.
    OutOfBounds(String),
    /// A spec does not parse, or meshes, specs and shape are inconsistent.
    Mesh(MeshError),
}

impl fmt::Display for TaskSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskSpecError::Malformed(msg) | TaskSpecError::OutOfBounds(msg) => write!(f, "{msg}"),
            TaskSpecError::Mesh(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TaskSpecError {}

impl From<MeshError> for TaskSpecError {
    fn from(e: MeshError) -> Self {
        TaskSpecError::Mesh(e)
    }
}

/// Parses `"2x4"` into `(rows, cols)`.
///
/// # Errors
///
/// A message naming the malformed input.
pub fn parse_mesh(s: &str) -> Result<(usize, usize), String> {
    let (a, b) = s
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("mesh {s:?} must look like 2x4"))?;
    let rows: usize = a.parse().map_err(|_| format!("bad mesh rows in {s:?}"))?;
    let cols: usize = b.parse().map_err(|_| format!("bad mesh cols in {s:?}"))?;
    if rows == 0 || cols == 0 {
        return Err(format!("mesh {s:?} must be non-empty"));
    }
    Ok((rows, cols))
}

/// Parses `"1024x64x8"` into a shape vector.
///
/// # Errors
///
/// A message naming the malformed component.
pub fn parse_shape(s: &str) -> Result<Vec<u64>, String> {
    s.split(['x', 'X'])
        .map(|p| {
            p.parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("bad shape component {p:?} in {s:?}"))
        })
        .collect()
}

/// Builds the cluster a portable task runs on and its two meshes: one
/// host per mesh row (source rows first, then destination rows), as many
/// devices per host as the wider mesh has columns.
///
/// # Errors
///
/// [`TaskSpecError::Malformed`] for unparsable meshes and
/// [`TaskSpecError::OutOfBounds`] past the fixed bounds — checked before
/// the cluster is allocated.
pub fn build_meshes(
    src_mesh: &str,
    dst_mesh: &str,
    links: LinkParams,
) -> Result<(ClusterSpec, DeviceMesh, DeviceMesh), TaskSpecError> {
    let src_shape = parse_mesh(src_mesh).map_err(TaskSpecError::Malformed)?;
    let dst_shape = parse_mesh(dst_mesh).map_err(TaskSpecError::Malformed)?;
    let hosts = src_shape.0.saturating_add(dst_shape.0);
    let devices = src_shape.1.max(dst_shape.1);
    if hosts > MAX_HOSTS || devices > MAX_DEVICES_PER_HOST {
        return Err(TaskSpecError::OutOfBounds(format!(
            "meshes {src_mesh} and {dst_mesh} span {hosts} hosts x {devices} devices; \
             at most {MAX_HOSTS} x {MAX_DEVICES_PER_HOST} are accepted"
        )));
    }
    let cluster = ClusterSpec::homogeneous(hosts as u32, devices as u32, links);
    let src = DeviceMesh::from_cluster(&cluster, 0, src_shape, "src")?;
    let dst = DeviceMesh::from_cluster(&cluster, src_shape.0, dst_shape, "dst")?;
    Ok((cluster, src, dst))
}

impl TaskSpec {
    /// Builds the task and the cluster it runs on.
    ///
    /// # Errors
    ///
    /// See [`TaskSpecError`]; nothing is allocated for a mesh or a tensor
    /// that is out of bounds.
    pub fn build(&self) -> Result<(ReshardingTask, ClusterSpec), TaskSpecError> {
        let shape = parse_shape(&self.shape).map_err(TaskSpecError::Malformed)?;
        let bytes = shape
            .iter()
            .try_fold(self.elem_bytes, |bytes, &n| bytes.checked_mul(n));
        if bytes.is_none_or(|b| b == 0) {
            return Err(TaskSpecError::OutOfBounds(format!(
                "shape {} x {} bytes per element is empty or overflows u64",
                self.shape, self.elem_bytes
            )));
        }
        let links = LinkParams::new(self.intra_bw, self.inter_bw)
            .with_latencies(self.intra_latency, self.inter_latency);
        let (cluster, src, dst) = build_meshes(&self.src_mesh, &self.dst_mesh, links)?;
        let task = ReshardingTask::new(
            src,
            self.src_spec.parse()?,
            dst,
            self.dst_spec.parse()?,
            &shape,
            self.elem_bytes,
        )?;
        Ok((task, cluster))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(src_mesh: &str, dst_mesh: &str, shape: &str) -> TaskSpec {
        TaskSpec {
            src_spec: "S0R".into(),
            dst_spec: "RS1".into(),
            src_mesh: src_mesh.into(),
            dst_mesh: dst_mesh.into(),
            shape: shape.into(),
            elem_bytes: 4,
            inter_bw: 1.25e9,
            intra_bw: 100e9,
            inter_latency: 25e-6,
            intra_latency: 5e-6,
        }
    }

    #[test]
    fn mesh_and_shape_parsing() {
        assert_eq!(parse_mesh("2x4").unwrap(), (2, 4));
        assert_eq!(parse_mesh("3X2").unwrap(), (3, 2));
        assert!(parse_mesh("2").is_err());
        assert!(parse_mesh("0x4").is_err());
        assert!(parse_mesh("nope").is_err());
        assert_eq!(parse_shape("8x4x2").unwrap(), vec![8, 4, 2]);
        assert!(parse_shape("8x0").is_err());
        assert!(parse_shape("8xq").is_err());
    }

    #[test]
    fn build_lays_hosts_out_source_rows_first() {
        let (task, cluster) = spec("1x4", "2x2", "32x32").build().unwrap();
        assert_eq!(cluster.num_hosts(), 3);
        assert_eq!(cluster.host(crossmesh_netsim::HostId(0)).devices, 4);
        assert_eq!(task.total_bytes(), 32 * 32 * 4);
        assert_eq!(task.src_mesh().shape(), (1, 4));
        assert_eq!(task.dst_mesh().shape(), (2, 2));
    }

    #[test]
    fn hostile_sizes_are_typed_errors_not_allocations() {
        for (src, dst) in [
            ("4000000000x1", "1x1"),
            ("1x1", "18446744073709551615x1"),
            ("1x65", "1x1"),
        ] {
            let err = spec(src, dst, "8x8").build().unwrap_err();
            assert!(
                matches!(err, TaskSpecError::OutOfBounds(_)),
                "{src} {dst}: {err}"
            );
        }
        let err = spec("1x2", "1x2", "4294967296x4294967296x4")
            .build()
            .unwrap_err();
        assert!(matches!(err, TaskSpecError::OutOfBounds(_)), "{err}");
        let mut zero = spec("1x2", "1x2", "8x8");
        zero.elem_bytes = 0;
        assert!(matches!(
            zero.build().unwrap_err(),
            TaskSpecError::OutOfBounds(_)
        ));
    }

    #[test]
    fn bad_strings_are_typed_errors() {
        let mut s = spec("1x2", "1x2", "8x8");
        s.src_spec = "QQ".into();
        assert!(matches!(s.build().unwrap_err(), TaskSpecError::Mesh(_)));
        assert!(matches!(
            spec("1x2", "oops", "8x8").build().unwrap_err(),
            TaskSpecError::Malformed(_)
        ));
    }
}
