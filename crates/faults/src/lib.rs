//! Deterministic fault injection and fault-tolerant recovery for
//! cross-mesh resharding.
//!
//! One seeded [`FaultSchedule`] — host crashes, NIC degradation windows,
//! compute stragglers, probabilistic flow drops — drives every backend
//! through [`BackendKind::execute_with_faults`]: the flow-level simulator
//! realizes it as engine events, the threaded/TCP runtime as injected
//! wall-clock delays, drops, and dead hosts. All randomness is resolved once, per
//! `(seed, task id)`, when the schedule is compiled against a task graph,
//! so the same schedule yields the same outcome on every backend.
//!
//! On top of injection, [`execute_with_repair`] closes the loop: execute a
//! plan under faults, and when senders crash, repair the plan onto
//! surviving replicas (`Plan::repair` in `crossmesh-core`) and re-run,
//! reporting failovers, absorbed retries, and the degraded makespan.

#![warn(missing_docs)]

mod backend;
mod recovery;
mod schedule;

pub use backend::BackendKind;
pub use recovery::{execute_with_repair, RecoveryError, RecoveryReport};
pub use schedule::{FaultEvent, FaultSchedule};
