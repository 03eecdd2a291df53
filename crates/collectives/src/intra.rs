//! Intra-mesh resharding: layout conversion *within* one device mesh
//! (Figure 1b of the paper — the communication of pure intra-operator
//! parallelism, which the paper contrasts with cross-mesh resharding).
//!
//! When an operator requires its input with a different sharding spec than
//! the producer emitted, the mesh's devices exchange tiles. Collective
//! primitives (all-gather, all-to-all) cover the common cases; this module
//! lowers the fully general case as a replica-aware tile exchange: every
//! device fetches each missing piece of its new tile from the nearest
//! holder (same device → no copy; same host → NVLink; otherwise NIC), with
//! round-robin load balancing among equally-near holders.

use crate::ring::RingResult;
use crossmesh_mesh::{DeviceMesh, Layout, MeshError, ShardingSpec, Tile};
use crossmesh_netsim::{Label, TaskGraph, TaskId, Work};

/// Lowers the conversion of a tensor on `mesh` from `src_spec` to
/// `dst_spec` into `graph`, gated by `ready` (typically the producing
/// compute tasks). Returns per-device completion markers.
///
/// # Errors
///
/// Propagates layout errors (rank mismatch, empty tensor).
pub fn lower_intra_mesh_resharding(
    graph: &mut TaskGraph,
    mesh: &DeviceMesh,
    src_spec: &ShardingSpec,
    dst_spec: &ShardingSpec,
    shape: &[u64],
    elem_bytes: u64,
    ready: &[TaskId],
) -> Result<RingResult, MeshError> {
    let src_layout = Layout::new(mesh, src_spec, shape)?;
    let dst_layout = Layout::new(mesh, dst_spec, shape)?;

    let slices = src_layout.unique_slices();
    // Round-robin cursor per unique source slice, for spreading fetches
    // over equally-near holders.
    let mut round_robin = vec![0usize; slices.len()];
    // Fetches land device by device, in mesh order: the flows into the
    // k-th device are received[first[k]..first[k + 1]].
    let mut received: Vec<TaskId> = Vec::new();
    let mut first: Vec<usize> = Vec::with_capacity(mesh.num_devices() + 1);
    for coord in mesh.coords() {
        first.push(received.len());
        let device = mesh.device(coord);
        let host = mesh.host(coord);
        let own = src_layout.tile_at(coord);
        let want = dst_layout.tile_at(coord);
        if want.is_empty() {
            continue;
        }
        for ((slice, holders), rr) in slices.iter().zip(&mut round_robin) {
            let Some(volume) = missing_overlap(want, slice, own) else {
                continue;
            };
            let bytes = volume * elem_bytes;
            // Nearest holder: same host first, then round-robin.
            let local = holders
                .iter()
                .find(|&&c| mesh.host(c) == host && mesh.device(c) != device);
            let src_device = match local {
                Some(&c) => mesh.device(c),
                None => {
                    let pick = mesh.device(holders[*rr % holders.len()]);
                    *rr += 1;
                    pick
                }
            };
            if src_device == device {
                continue;
            }
            received.push(graph.add_labeled(
                Work::flow(src_device, device, bytes as f64),
                ready.iter().copied(),
                Label::new("intra d{}->d{}", [src_device.0, device.0]),
            ));
        }
    }
    first.push(received.len());

    let done_per_device: Vec<TaskId> = first
        .windows(2)
        .map(|w| {
            graph.add(
                Work::Marker,
                received[w[0]..w[1]]
                    .iter()
                    .copied()
                    .chain(ready.iter().copied()),
            )
        })
        .collect();
    let done = graph.add(Work::Marker, done_per_device.iter().copied());
    Ok(RingResult {
        done_per_device,
        done,
    })
}

/// The volume of `want ∩ slice`, unless that overlap is empty or `own`
/// already holds all of it. Computed dimension by dimension, so no tile is
/// built per fetch.
fn missing_overlap(want: &Tile, slice: &Tile, own: &Tile) -> Option<u64> {
    assert_eq!(want.rank(), slice.rank(), "tile ranks differ");
    let mut volume = 1;
    let mut held = true;
    for d in 0..want.rank() {
        let (w, s, o) = (want.range(d), slice.range(d), own.range(d));
        let (start, end) = (w.start.max(s.start), w.end.min(s.end));
        if start >= end {
            return None;
        }
        volume *= end - start;
        held &= o.start <= start && end <= o.end;
    }
    (!held).then_some(volume)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmesh_netsim::{ClusterSpec, Engine, LinkParams};

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(2, 4, LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0))
    }

    fn run(src: &str, dst: &str, shape: &[u64]) -> (f64, f64) {
        let c = cluster();
        let mesh = DeviceMesh::from_cluster(&c, 0, (2, 4), "m").unwrap();
        let mut g = TaskGraph::new();
        let r = lower_intra_mesh_resharding(
            &mut g,
            &mesh,
            &src.parse().unwrap(),
            &dst.parse().unwrap(),
            shape,
            1,
            &[],
        )
        .unwrap();
        let t = Engine::new(&c).run(&g).unwrap();
        (
            t.interval(r.done).finish,
            t.usage().total_cross_host_bytes(),
        )
    }

    #[test]
    fn identity_conversion_is_free() {
        let (time, cross) = run("S0R", "S0R", &[16, 16]);
        assert_eq!(time, 0.0);
        assert_eq!(cross, 0.0);
    }

    #[test]
    fn narrowing_replication_is_free() {
        // RR -> S0R: every device already holds its (smaller) new tile.
        let (time, cross) = run("RR", "S0R", &[16, 16]);
        assert_eq!(time, 0.0);
        assert_eq!(cross, 0.0);
    }

    #[test]
    fn all_gather_stays_on_host_when_replicas_allow() {
        // S1R -> RR on a (2,4) mesh: dim 0 sharded over the intra-host
        // axis, so every missing piece has a same-host holder.
        let (time, cross) = run("S1R", "RR", &[16, 16]);
        assert!(time > 0.0);
        assert_eq!(cross, 0.0, "no NIC traffic needed");
    }

    #[test]
    fn cross_host_exchange_when_sharded_over_hosts() {
        // S0R -> RR: each host must fetch the other host's half.
        let (time, cross) = run("S0R", "RR", &[16, 16]);
        assert!(time > 0.0);
        assert!(cross > 0.0);
        // Each of 8 devices misses 128 elements held only remotely... but
        // the first row's devices hold [0..8) and need [8..16) from host 1
        // and vice versa: 4 devices/host x 128 bytes inbound.
        assert_eq!(cross, 8.0 * 128.0);
    }

    #[test]
    fn transpose_resharding_moves_data() {
        // S0R -> RS0: classic all-to-all-ish conversion.
        let (time, cross) = run("S0R", "RS0", &[16, 16]);
        assert!(time > 0.0);
        assert!(cross > 0.0);
    }

    #[test]
    fn ready_gates_the_exchange() {
        let c = cluster();
        let mesh = DeviceMesh::from_cluster(&c, 0, (2, 4), "m").unwrap();
        let mut g = TaskGraph::new();
        let gate = g.add(Work::compute(c.device(0, 0), 2.0), []);
        let r = lower_intra_mesh_resharding(
            &mut g,
            &mesh,
            &"S0R".parse().unwrap(),
            &"RR".parse().unwrap(),
            &[16, 16],
            1,
            &[gate],
        )
        .unwrap();
        let t = Engine::new(&c).run(&g).unwrap();
        assert!(t.interval(r.done).finish >= 2.0);
    }
}
