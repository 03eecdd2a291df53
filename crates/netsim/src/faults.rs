//! Mechanical fault-injection inputs for the [`Engine`](crate::Engine).
//!
//! [`Disruptions`] is the *mechanism* half of fault injection: a fully
//! resolved, randomness-free description of what goes wrong and when.
//! Seeding, probability rolls, and user-facing schedules live in the
//! `crossmesh-faults` crate, which compiles its `FaultSchedule` down to
//! this type. Keeping randomness out of `netsim` preserves the crate's
//! core guarantee: identical inputs produce identical traces.

use crate::topology::{DeviceId, HostId};
use std::collections::BTreeMap;

/// A temporary bandwidth degradation of one host's NIC.
///
/// Periods on one host compound: while several are in force the NIC runs
/// at the product of their factors (multiplied in
/// [`Disruptions::nic_scale`] order), and it returns to full capacity only
/// when the last one ends — as stragglers on one device compound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicScalePeriod {
    /// The host whose NIC degrades.
    pub host: HostId,
    /// Multiplier applied to the NIC's send and receive capacity while the
    /// period is active (e.g. `0.1` = the link runs at 10%).
    pub factor: f64,
    /// Simulated time the degradation begins, seconds.
    pub from: f64,
    /// Simulated time this degradation ends, seconds.
    pub until: f64,
}

/// Fully resolved disruptions applied to one engine run.
///
/// All fields are mechanical: there is no randomness here, so the engine
/// stays deterministic under any `Disruptions` value. Flow drops are
/// expressed as an exact per-task drop count (how many transmission
/// attempts are lost before one succeeds), already rolled by the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct Disruptions {
    /// Hosts that crash, with the simulated time of death. From that point
    /// on every task running on, queued on, or flowing through the host
    /// fails, and the failure poisons dependent tasks.
    pub host_down: Vec<(HostId, f64)>,
    /// NIC degradation periods (see [`NicScalePeriod`]).
    pub nic_scale: Vec<NicScalePeriod>,
    /// Per-device compute slowdown factors (stragglers): a factor of `s`
    /// makes every compute task on the device take `s`× as long.
    pub compute_slowdown: Vec<(DeviceId, f64)>,
    /// For each flow task id: how many transmission attempts are dropped.
    /// Each drop costs a full re-transfer of the flow's bytes plus an
    /// exponential-backoff delay.
    pub flow_drops: BTreeMap<u32, u32>,
    /// Base delay before the first re-transmission, simulated seconds;
    /// attempt `k` waits `retry_backoff * 2^k`.
    pub retry_backoff: f64,
    /// Maximum number of re-transmissions per flow before it fails.
    pub max_retries: u32,
}

impl Disruptions {
    /// No disruptions: the engine behaves exactly as a plain run.
    pub fn none() -> Self {
        Disruptions {
            host_down: Vec::new(),
            nic_scale: Vec::new(),
            compute_slowdown: Vec::new(),
            flow_drops: BTreeMap::new(),
            retry_backoff: 1e-3,
            max_retries: 3,
        }
    }

    /// True if this value disrupts nothing.
    pub fn is_empty(&self) -> bool {
        self.host_down.is_empty()
            && self.nic_scale.is_empty()
            && self.compute_slowdown.is_empty()
            && self.flow_drops.is_empty()
    }

    /// Checks internal consistency; the engine asserts this on entry.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency:
    /// non-finite or non-positive times/factors, or an inverted
    /// degradation period.
    pub fn validate(&self) -> Result<(), String> {
        for &(host, at) in &self.host_down {
            if !at.is_finite() || at < 0.0 {
                return Err(format!(
                    "host {host} crash time {at} must be >= 0 and finite"
                ));
            }
        }
        for p in &self.nic_scale {
            if !(p.factor > 0.0 && p.factor.is_finite()) {
                return Err(format!(
                    "NIC scale factor {} for {} must be positive and finite",
                    p.factor, p.host
                ));
            }
            if !p.from.is_finite() || !p.until.is_finite() || p.from < 0.0 || p.until < p.from {
                return Err(format!(
                    "NIC scale period [{}, {}] for {} is invalid",
                    p.from, p.until, p.host
                ));
            }
        }
        for &(device, factor) in &self.compute_slowdown {
            if !(factor > 0.0 && factor.is_finite()) {
                return Err(format!(
                    "compute slowdown {factor} for {device} must be positive and finite"
                ));
            }
        }
        if !(self.retry_backoff >= 0.0 && self.retry_backoff.is_finite()) {
            return Err(format!(
                "retry backoff {} must be >= 0 and finite",
                self.retry_backoff
            ));
        }
        Ok(())
    }
}

impl Default for Disruptions {
    fn default() -> Self {
        Disruptions::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty_and_valid() {
        let d = Disruptions::none();
        assert!(d.is_empty());
        assert!(d.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut d = Disruptions::none();
        d.host_down.push((HostId(0), -1.0));
        assert!(d.validate().is_err());

        let mut d = Disruptions::none();
        d.nic_scale.push(NicScalePeriod {
            host: HostId(0),
            factor: 0.0,
            from: 0.0,
            until: 1.0,
        });
        assert!(d.validate().is_err());

        let mut d = Disruptions::none();
        d.nic_scale.push(NicScalePeriod {
            host: HostId(0),
            factor: 0.5,
            from: 2.0,
            until: 1.0,
        });
        assert!(d.validate().is_err());

        let mut d = Disruptions::none();
        d.compute_slowdown.push((DeviceId(0), f64::INFINITY));
        assert!(d.validate().is_err());
    }
}
