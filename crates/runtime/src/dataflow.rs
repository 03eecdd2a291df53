//! Threaded data-plane execution: run a [`Plan`] with real tile payloads.
//!
//! Where [`ThreadedBackend`](crate::ThreadedBackend) executes a lowered
//! [`TaskGraph`](crossmesh_netsim::TaskGraph) with timing-shaped dummy
//! bytes, [`execute_plan`] moves the *actual tensor contents* through
//! `crossmesh-core`'s delivery engine with one lane per sending device:
//! every lane is a task on the current rayon pool that materializes its
//! sender's layout tile and copies the pieces its receivers need (in plan
//! order, a contiguous run at a time) straight into the destination tiles,
//! each behind its own lock. The assembled buffers pass the same
//! `verify_destination` check as the sequential data plane, against the
//! same ground truth.

use crossmesh_core::dataplane::{execute_plan_by, DataPlaneError, DataPlaneReport};
use crossmesh_core::Plan;

/// Executes `plan` across threads with real payloads and verifies the
/// destination placement byte-for-byte. The report matches what
/// [`crossmesh_core::dataplane::execute_and_verify`] produces for the
/// same plan.
///
/// # Errors
///
/// Any placement defect (missing slice, uncovered or corrupted element,
/// conflicting writes).
pub fn execute_plan(plan: &Plan<'_>) -> Result<DataPlaneReport, DataPlaneError> {
    execute_plan_by(plan, |a| a.sender)
}
