//! Sender exclusions: which replica holders a planner must avoid.
//!
//! Fault recovery feeds the set of crashed hosts in here; planners then
//! solve the same §3.2 problem with those senders removed from every unit
//! task's replica set `N_i`. If some `N_i` empties, the slice's data no
//! longer exists anywhere on the source mesh and repair reports
//! [`RepairError::DataLoss`] instead of silently producing a plan that
//! cannot deliver the tensor.

use crossmesh_netsim::HostId;
use std::collections::BTreeSet;
use std::fmt;

/// A set of senders that planning must avoid: every device on a crashed
/// host.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SenderExclusions {
    hosts: BTreeSet<HostId>,
}

impl SenderExclusions {
    /// No exclusions: planning sees every replica.
    pub fn none() -> Self {
        SenderExclusions::default()
    }

    /// Excludes every device on the given hosts.
    pub fn for_hosts<I: IntoIterator<Item = HostId>>(hosts: I) -> Self {
        SenderExclusions {
            hosts: hosts.into_iter().collect(),
        }
    }

    /// True if replicas on `host` may not be used as senders.
    pub fn excludes(&self, host: HostId) -> bool {
        self.hosts.contains(&host)
    }

    /// True if nothing is excluded.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// The excluded hosts, ascending.
    pub fn excluded_hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        self.hosts.iter().copied()
    }
}

impl fmt::Display for SenderExclusions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "none");
        }
        let parts: Vec<String> = self.hosts.iter().map(|h| h.to_string()).collect();
        write!(f, "{}", parts.join(","))
    }
}

/// Why a plan could not be repaired around the excluded senders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairError {
    /// Every replica holder of one unit task was excluded: the slice
    /// exists nowhere on the surviving source mesh. The tensor cannot be
    /// delivered; the caller must treat this as data loss, not retry.
    DataLoss {
        /// Index of the orphaned unit task (into
        /// [`ReshardingTask::units`](crate::ReshardingTask::units)).
        unit: usize,
    },
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::DataLoss { unit } => write!(
                f,
                "data loss: every replica holder of unit task {unit} is excluded"
            ),
        }
    }
}

impl std::error::Error for RepairError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_exclusion_covers_its_devices() {
        let e = SenderExclusions::for_hosts([HostId(1)]);
        assert!(e.excludes(HostId(1)));
        assert!(!e.excludes(HostId(0)));
        assert!(!e.is_empty());
        assert_eq!(e.excluded_hosts().collect::<Vec<_>>(), vec![HostId(1)]);
    }

    #[test]
    fn empty_excludes_nothing() {
        let e = SenderExclusions::none();
        assert!(e.is_empty());
        assert!(!e.excludes(HostId(0)));
        assert_eq!(e.to_string(), "none");
    }

    #[test]
    fn data_loss_names_the_unit() {
        let err = RepairError::DataLoss { unit: 4 };
        assert!(err.to_string().contains("unit task 4"));
    }
}
