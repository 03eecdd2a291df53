//! Byte-exact execution of an all-to-all: did every expert shard land?
//!
//! The simulator prices an all-to-all plan; this module *runs* one on
//! real buffers, on `crossmesh-core`'s delivery engine. Ground truth comes
//! from the same data plane: every byte of the destination-major space
//! holds its own offset (truncated to one byte), senders materialize their
//! shards from that rule, and `verify_destination` proves each expert's
//! assembled region byte-identical to truth.
//!
//! [`execute_reference`] delivers the unit tasks sequentially — the
//! oracle; [`execute_threaded`] deals them round-robin into `pool` lanes,
//! tasks on the current rayon pool that copy each shard (rank 1, so one
//! contiguous run) straight into its expert's region behind that region's
//! lock, optionally under a seeded
//! [`FaultSchedule`](crossmesh_faults::FaultSchedule) whose `FlowDrop`
//! events force per-shard retries. Drop rolls are seeded per unit task
//! (mirroring the threaded runtime's per-flow rolls), so the outcome is
//! identical at every lane count and pool width.

use crate::a2a::A2aTask;
use crossmesh_core::dataplane::{deliver, DataPlaneError, DataPlaneReport, Delivery, DropRoll};
use crossmesh_faults::{FaultEvent, FaultSchedule};

/// Delivers every unit task sequentially and verifies the destinations.
///
/// # Errors
///
/// Any placement defect.
pub fn execute_reference(a2a: &A2aTask) -> Result<DataPlaneReport, DataPlaneError> {
    execute_threaded_with_faults(a2a, 1, None)
}

/// [`execute_threaded_with_faults`] without fault injection.
///
/// # Errors
///
/// Any placement defect.
pub fn execute_threaded(a2a: &A2aTask, pool: usize) -> Result<DataPlaneReport, DataPlaneError> {
    execute_threaded_with_faults(a2a, pool, None)
}

/// Executes the all-to-all on `pool` lanes (unit tasks are dealt
/// round-robin across them; one lane runs inline, several are tasks on the
/// current rayon pool), then verifies the destinations.
///
/// Under a fault schedule with `FlowDrop` events, each shard's
/// transmission attempts are rolled from a generator seeded by
/// `schedule.seed` and the unit index — never by pool width or thread
/// interleaving — so the delivered bytes are identical across pool
/// widths, faults or not. The strongest `FlowDrop` probability applies.
///
/// # Errors
///
/// [`DataPlaneError::Dropped`] when a shard exhausts its retry budget and
/// any placement defect.
pub fn execute_threaded_with_faults(
    a2a: &A2aTask,
    pool: usize,
    faults: Option<&FaultSchedule>,
) -> Result<DataPlaneReport, DataPlaneError> {
    let pool = pool.max(1);
    let lanes: Vec<Vec<Delivery<'_>>> = (0..pool)
        .map(|w| {
            let units = a2a.task().units().iter().skip(w).step_by(pool);
            units.map(|unit| Delivery { unit, holder: None }).collect()
        })
        .collect();
    let drops = faults.and_then(|f| {
        let prob = f.events.iter().fold(0.0, |p, e| match e {
            FaultEvent::FlowDrop { prob } => f64::max(p, *prob),
            _ => p,
        });
        (prob > 0.0).then_some(DropRoll {
            seed: f.seed,
            prob,
            max_retries: f.max_retries,
        })
    });
    deliver(
        a2a.task().shape(),
        1,
        a2a.destination_tiles().iter().cloned(),
        &lanes,
        drops,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingConfig;
    use crossmesh_mesh::DeviceMesh;
    use crossmesh_netsim::{ClusterSpec, LinkParams};

    fn skewed_a2a() -> A2aTask {
        let c = ClusterSpec::homogeneous(4, 2, LinkParams::new(100.0, 1.0));
        let tokens = DeviceMesh::from_cluster(&c, 0, (2, 2), "tokens").unwrap();
        let experts = DeviceMesh::from_cluster(&c, 2, (2, 2), "experts").unwrap();
        let cfg = RoutingConfig {
            tokens_per_device: 16,
            token_bytes: 3,
            skew: 1.5,
            seed: 11,
            ..RoutingConfig::default()
        };
        A2aTask::dispatch(&tokens, &experts, &cfg.bytes_matrix(4, 4))
    }

    #[test]
    fn reference_delivers_every_shard() {
        let a2a = skewed_a2a();
        let report = execute_reference(&a2a).unwrap();
        assert_eq!(report.delivered_bytes, a2a.total_bytes());
        assert_eq!(report.destination.len(), a2a.destination_tiles().len());
    }

    #[test]
    fn threaded_matches_reference_at_every_pool_width() {
        let a2a = skewed_a2a();
        let reference = execute_reference(&a2a).unwrap();
        for pool in [1, 2, 4, 7] {
            let threaded = execute_threaded(&a2a, pool).unwrap();
            assert_eq!(threaded, reference, "pool width {pool} diverged");
        }
    }

    #[test]
    fn faults_retry_without_changing_the_bytes() {
        let a2a = skewed_a2a();
        let reference = execute_reference(&a2a).unwrap();
        let schedule = FaultSchedule::new(42)
            .with_event(FaultEvent::FlowDrop { prob: 0.2 })
            .with_retry_policy(6, 1e-3);
        for pool in [1, 4] {
            let faulty = execute_threaded_with_faults(&a2a, pool, Some(&schedule)).unwrap();
            assert_eq!(faulty, reference, "pool width {pool} diverged under faults");
        }
    }

    #[test]
    fn hopeless_drops_surface_as_dropped() {
        let a2a = skewed_a2a();
        let schedule = FaultSchedule::new(1)
            .with_event(FaultEvent::FlowDrop { prob: 1.0 })
            .with_retry_policy(2, 1e-3);
        let err = execute_threaded_with_faults(&a2a, 2, Some(&schedule)).unwrap_err();
        assert!(matches!(err, DataPlaneError::Dropped { .. }), "{err}");
    }
}
