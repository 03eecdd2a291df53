//! The (unit task × candidate sender host) table every searching planner
//! reads.
//!
//! Built once per `plan()` call: the hosts the task touches get dense
//! *slots* in ascending [`HostId`] order, and every unit task gets its
//! resolved strategy, its candidate senders (slot, analytic duration, the
//! slots the transfer occupies) and its receiver slots. The planners' hot
//! loops then index flat per-slot arrays instead of rebuilding host sets
//! per visit.

use super::{replica_on, PlannerConfig};
use crate::plan::Assignment;
use crate::task::ReshardingTask;
use crossmesh_collectives::{estimate_unit_task, Strategy};
use crossmesh_netsim::{DeviceId, HostId};

/// One candidate sender host of a unit task.
pub(super) struct Cand {
    pub host: HostId,
    /// The first replica device on `host`.
    pub sender: DeviceId,
    /// The slot of `host`.
    pub slot: u32,
    /// Analytic duration of the unit task sent from `host`.
    pub duration: f64,
    /// Every slot the transfer occupies — the receiver slots plus `slot`
    /// — ascending, as [`involved_hosts`](crate::plan::involved_hosts).
    pub involved: Vec<u32>,
}

/// One unit task's row.
pub(super) struct Row {
    pub strategy: Strategy,
    /// Candidate senders in ascending host order.
    pub cands: Vec<Cand>,
    /// Receiver host slots, ascending.
    pub receivers: Vec<u32>,
    /// Devices a round gains by packing this unit: the sender plus every
    /// receiver device.
    pub weight: usize,
}

/// One scheduled unit task: `(unit index, index into its candidates)`.
pub(super) type Pick = (usize, u32);

/// The table: one [`Row`] per unit task, in unit order.
pub(super) struct HostTable {
    pub rows: Vec<Row>,
    pub n_slots: usize,
}

impl HostTable {
    pub(super) fn build(task: &ReshardingTask, config: &PlannerConfig) -> Self {
        let hosts_of: Vec<(Vec<HostId>, Vec<HostId>)> = task
            .units()
            .iter()
            .map(|unit| (unit.sender_hosts(), unit.receiver_hosts()))
            .collect();
        let mut hosts: Vec<HostId> = hosts_of
            .iter()
            .flat_map(|(senders, receivers)| senders.iter().chain(receivers).copied())
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        let slot = |h: HostId| hosts.binary_search(&h).expect("every host was collected") as u32;

        let rows = task
            .units()
            .iter()
            .zip(&hosts_of)
            .map(|(unit, (senders, receivers))| {
                let strategy = config.strategy.resolve(unit);
                let receivers: Vec<u32> = receivers.iter().map(|&h| slot(h)).collect();
                let cands = senders
                    .iter()
                    .map(|&host| {
                        let s = slot(host);
                        let mut involved = receivers.clone();
                        if let Err(pos) = involved.binary_search(&s) {
                            involved.insert(pos, s);
                        }
                        Cand {
                            host,
                            sender: replica_on(unit, host),
                            slot: s,
                            duration: estimate_unit_task(&config.params, unit, host, strategy),
                            involved,
                        }
                    })
                    .collect();
                Row {
                    strategy,
                    cands,
                    receivers,
                    weight: 1 + unit.receivers.len(),
                }
            })
            .collect();
        HostTable {
            rows,
            n_slots: hosts.len(),
        }
    }

    pub(super) fn cand(&self, (unit, cand): Pick) -> &Cand {
        &self.rows[unit].cands[cand as usize]
    }

    /// Unit indices longest first (by the best-case duration), ties by
    /// index: the order LPT assigns in and DFS descends in.
    pub(super) fn longest_first(&self) -> Vec<usize> {
        let best: Vec<f64> = self
            .rows
            .iter()
            .map(|row| {
                row.cands
                    .iter()
                    .map(|c| c.duration)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        order.sort_by(|&a, &b| best[b].total_cmp(&best[a]).then(a.cmp(&b)));
        order
    }

    /// The makespan of `schedule` as a list schedule over host
    /// availability: the float operations of
    /// [`Plan::estimate`](crate::Plan::estimate) in the same order, so the
    /// two agree to the bit.
    pub(super) fn estimate(&self, schedule: &[Pick]) -> f64 {
        let mut cursor = vec![0.0f64; self.n_slots];
        let mut makespan = 0.0f64;
        for &pick in schedule {
            let c = self.cand(pick);
            let start = c
                .involved
                .iter()
                .map(|&s| cursor[s as usize])
                .fold(0.0, f64::max);
            let finish = start + c.duration;
            for &s in &c.involved {
                cursor[s as usize] = finish;
            }
            makespan = makespan.max(finish);
        }
        makespan
    }

    /// `schedule` as plan assignments.
    pub(super) fn assignments(&self, schedule: &[Pick]) -> Vec<Assignment> {
        schedule
            .iter()
            .map(|&pick| {
                let c = self.cand(pick);
                Assignment {
                    unit: pick.0,
                    sender: c.sender,
                    sender_host: c.host,
                    strategy: self.rows[pick.0].strategy,
                }
            })
            .collect()
    }
}
