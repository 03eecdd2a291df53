//! Device meshes, sharding specs, and distributed tensor layouts.
//!
//! This crate implements the paper's §2.2 formalization:
//!
//! * A [`DeviceMesh`] is a 2-D logical view `(m1, m2)` of a group of
//!   devices, each device belonging to a host of the simulated cluster.
//! * A [`ShardingSpec`] describes how an N-dimensional tensor is laid out
//!   over a mesh: each tensor dimension is either replicated (`R`) or
//!   sharded over one or more mesh axes (`S^0`, `S^1`, `S^01`).
//! * A [`Layout`] maps every mesh coordinate to the [`Tile`] (a hyper-
//!   rectangular index range) of the tensor that device holds.
//! * [`unit_tasks`] decomposes a **cross-mesh resharding task** — a tensor
//!   sharded on a source mesh that must appear with another spec on a
//!   destination mesh — into the paper's *unit communication tasks*, each
//!   carrying its replica set `N_i` and receiver set `M_i`. A unit is one
//!   source×destination intersection tile, the granularity the paper's
//!   evaluation counts, and every receiver takes the whole tile.
//!
//! # Example
//!
//! Task 1 of Figure 2 of the paper: a 4×4 matrix moves from spec `S^01 R`
//! on a 2×2 mesh to spec `S^0 R` on another 2×2 mesh.
//!
//! ```
//! use crossmesh_mesh::{DeviceMesh, ShardingSpec, unit_tasks};
//! use crossmesh_netsim::{ClusterSpec, LinkParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = ClusterSpec::homogeneous(4, 2, LinkParams::new(10e9, 1e9));
//! let mesh_a = DeviceMesh::from_cluster(&cluster, 0, (2, 2), "A")?;
//! let mesh_b = DeviceMesh::from_cluster(&cluster, 2, (2, 2), "B")?;
//! let tasks = unit_tasks(
//!     &mesh_a,
//!     &"S01R".parse::<ShardingSpec>()?,
//!     &mesh_b,
//!     &"S0R".parse::<ShardingSpec>()?,
//!     &[4, 4],
//!     4,
//! )?;
//! // One unit task per source row; the first row goes to both devices of
//! // the destination mesh's first row.
//! assert_eq!(tasks.len(), 4);
//! assert_eq!(tasks[0].receivers.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod device_mesh;
mod error;
mod layout;
mod spec;
mod tile;
mod unit_task;

pub use device_mesh::{DeviceMesh, MeshCoord};
pub use error::MeshError;
pub use layout::Layout;
pub use spec::{DimSharding, ShardingSpec};
pub use tile::Tile;
pub use unit_task::{unit_tasks, Receiver, UnitTask};
