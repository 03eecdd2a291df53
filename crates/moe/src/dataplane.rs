//! Byte-exact execution of an all-to-all: did every expert shard land?
//!
//! The simulator prices an all-to-all plan; this module *runs* one on
//! real buffers, on `crossmesh-core`'s delivery engine. Ground truth comes
//! from the same data plane: every byte of the destination-major space
//! holds its own offset (truncated to one byte), senders materialize their
//! shards from that rule, and `verify_destination` proves each expert's
//! assembled region byte-identical to truth.
//!
//! [`execute`] deals the unit tasks round-robin into `pool` lanes: one
//! lane runs inline, in order — the sequential oracle — and several are
//! tasks on the current rayon pool that copy each shard (rank 1, so one
//! contiguous run) straight into its expert's region behind that region's
//! lock. A [`FaultSchedule`]'s `FlowDrop` events force per-shard retries
//! under the schedule's own drop rule ([`FaultSchedule::drop_roll`]), the
//! one the simulator and the threaded runtime roll per flow; the empty
//! schedule is the clean run. Drop rolls are seeded per unit task, so the
//! outcome is identical at every lane count and pool width.

use crate::a2a::A2aTask;
use crossmesh_core::dataplane::{deliver, DataPlaneError, DataPlaneReport, Delivery};
use crossmesh_faults::FaultSchedule;

/// [`execute`] under the empty fault schedule.
///
/// # Errors
///
/// Any placement defect.
pub fn execute_threaded(a2a: &A2aTask, pool: usize) -> Result<DataPlaneReport, DataPlaneError> {
    execute(a2a, pool, &FaultSchedule::default())
}

/// Executes the all-to-all on `pool` lanes (unit tasks are dealt
/// round-robin across them; one lane runs inline, several are tasks on the
/// current rayon pool), then verifies the destinations.
///
/// Each shard's transmission attempts are rolled from the `faults` drop
/// rule, seeded by `faults.seed` and the unit index — never by pool width
/// or thread interleaving — so the delivered bytes are identical across
/// pool widths, faults or not.
///
/// # Errors
///
/// [`DataPlaneError::Dropped`] when a shard exhausts its retry budget and
/// any placement defect.
pub fn execute(
    a2a: &A2aTask,
    pool: usize,
    faults: &FaultSchedule,
) -> Result<DataPlaneReport, DataPlaneError> {
    let pool = pool.max(1);
    let lanes: Vec<Vec<Delivery<'_>>> = (0..pool)
        .map(|w| {
            let units = a2a.task().units().iter().skip(w).step_by(pool);
            units.map(|unit| Delivery { unit, holder: None }).collect()
        })
        .collect();
    deliver(
        a2a.task().shape(),
        1,
        a2a.destination_tiles().iter().cloned(),
        &lanes,
        faults.drop_roll(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingConfig;
    use crossmesh_faults::FaultEvent;
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
        let report = execute(&a2a, 1, &FaultSchedule::default()).unwrap();
        assert_eq!(report.delivered_bytes, a2a.total_bytes());
        assert_eq!(report.destination.len(), a2a.destination_tiles().len());
    }

    #[test]
    fn threaded_matches_reference_at_every_pool_width() {
        let a2a = skewed_a2a();
        let reference = execute(&a2a, 1, &FaultSchedule::default()).unwrap();
        for pool in [1, 2, 4, 7] {
            let threaded = execute_threaded(&a2a, pool).unwrap();
            assert_eq!(threaded, reference, "pool width {pool} diverged");
        }
    }

    #[test]
    fn faults_retry_without_changing_the_bytes() {
        let a2a = skewed_a2a();
        let reference = execute(&a2a, 1, &FaultSchedule::default()).unwrap();
        let schedule = FaultSchedule::new(42)
            .with_event(FaultEvent::FlowDrop { prob: 0.2 })
            .with_retry_policy(6, 1e-3);
        for pool in [1, 4] {
            let faulty = execute(&a2a, pool, &schedule).unwrap();
            assert_eq!(faulty, reference, "pool width {pool} diverged under faults");
        }
    }

    #[test]
    fn hopeless_drops_surface_as_dropped() {
        let a2a = skewed_a2a();
        let schedule = FaultSchedule::new(1)
            .with_event(FaultEvent::FlowDrop { prob: 1.0 })
            .with_retry_policy(2, 1e-3);
        let err = execute(&a2a, 2, &schedule).unwrap_err();
        assert!(matches!(err, DataPlaneError::Dropped { .. }), "{err}");
    }

    #[test]
    fn drop_events_combine_like_the_schedule_says() {
        // Two independent 0.5 drops are one 0.75 drop, not the stronger
        // 0.5 of the two.
        let a2a = skewed_a2a();
        let with = |events: &[f64]| {
            events
                .iter()
                .fold(FaultSchedule::new(9), |s, &prob| {
                    s.with_event(FaultEvent::FlowDrop { prob })
                })
                .with_retry_policy(0, 1e-3)
        };
        let two = with(&[0.5, 0.5]);
        assert_eq!(two.drop_roll().map(|r| r.prob), Some(0.75));
        for pool in [1, 4] {
            assert_eq!(
                execute(&a2a, pool, &two),
                execute(&a2a, pool, &with(&[0.75])),
                "pool width {pool}"
            );
        }
    }
}
