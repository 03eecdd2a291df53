//! Seeded fault schedules: the *policy* half of fault injection.
//!
//! A [`FaultSchedule`] is the user-facing description of what goes wrong:
//! host crashes at points in simulated time, NIC degradation windows,
//! compute stragglers, and a probabilistic flow-drop rate. It is the only
//! place randomness lives — [`FaultSchedule::to_disruptions`] rolls every
//! probabilistic event into exact per-task drop counts with a generator
//! seeded from `(schedule seed, task id)`, so the same schedule applied
//! to the same graph always yields the same mechanical
//! [`Disruptions`] / [`InjectedFaults`], and therefore the same outcome,
//! on every backend.

use crossmesh_netsim::{DeviceId, Disruptions, HostId, NicScalePeriod, TaskGraph, Work};
use crossmesh_runtime::InjectedFaults;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Host `host` crashes at simulated time `at` (seconds). Every task
    /// on, or flowing through, the host fails from then on.
    HostCrash {
        /// The crashing host.
        host: u32,
        /// Simulated crash time, seconds.
        at: f64,
    },
    /// Host `host`'s NIC runs at `factor`× capacity during
    /// `[from, until]` (seconds).
    LinkDegrade {
        /// The degraded host.
        host: u32,
        /// Capacity multiplier in `(0, 1]`.
        factor: f64,
        /// Degradation start, seconds.
        from: f64,
        /// Recovery time, seconds.
        until: f64,
    },
    /// Device `device` computes `slowdown`× slower for the whole run.
    Straggler {
        /// The straggling device.
        device: u32,
        /// Slowdown factor, `>= 1` to slow down.
        slowdown: f64,
    },
    /// Every flow transmission attempt is lost with probability `prob`,
    /// rolled independently per attempt and per flow task from the
    /// schedule seed.
    FlowDrop {
        /// Per-attempt drop probability in `[0, 1)`.
        prob: f64,
    },
}

/// A seeded, serializable fault schedule.
///
/// Build one programmatically with the `with_*` builders or load one from
/// JSON (see [`FaultSchedule::from_json`]); then compile it against a
/// lowered task graph with [`to_disruptions`](FaultSchedule::to_disruptions)
/// (simulator) or [`to_injected`](FaultSchedule::to_injected) (threaded
/// runtime). One schedule drives both backends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Seed for every probabilistic roll in the schedule.
    pub seed: u64,
    /// The injected faults.
    pub events: Vec<FaultEvent>,
    /// Re-transmissions allowed per flow before it fails.
    pub max_retries: u32,
    /// Base backoff before the first re-transmission, seconds; attempt
    /// `k` waits `retry_backoff * 2^k`.
    pub retry_backoff: f64,
}

impl Default for FaultSchedule {
    fn default() -> Self {
        FaultSchedule::new(0)
    }
}

impl FaultSchedule {
    /// An empty schedule with the given seed and default retry policy
    /// (3 retries, 1 ms base backoff).
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            seed,
            events: Vec::new(),
            max_retries: 3,
            retry_backoff: 1e-3,
        }
    }

    /// Returns a copy with `event` appended.
    #[must_use]
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Returns a copy with the retry policy replaced.
    #[must_use]
    pub fn with_retry_policy(mut self, max_retries: u32, retry_backoff: f64) -> Self {
        self.max_retries = max_retries;
        self.retry_backoff = retry_backoff;
        self
    }

    /// True if the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: a negative or
    /// non-finite retry backoff, negative or non-finite times, factors
    /// outside `(0, 1]`, slowdowns below 1, drop probabilities outside
    /// `[0, 1)`, or a backoff or degradation whose wall-clock delay on the
    /// threaded runtime does not fit a [`Duration`].
    pub fn validate(&self) -> Result<(), String> {
        self.backoff()?;
        for e in &self.events {
            match *e {
                FaultEvent::HostCrash { host, at } => {
                    if !at.is_finite() || at < 0.0 {
                        return Err(format!("h{host} crash time {at} must be >= 0 and finite"));
                    }
                }
                FaultEvent::LinkDegrade {
                    host,
                    factor,
                    from,
                    until,
                } => {
                    if !(factor > 0.0 && factor <= 1.0) {
                        return Err(format!("h{host} degrade factor {factor} must be in (0, 1]"));
                    }
                    if !from.is_finite() || !until.is_finite() || from < 0.0 || until < from {
                        return Err(format!(
                            "h{host} degrade period [{from}, {until}] is invalid"
                        ));
                    }
                    self.frame_delay(factor)
                        .map_err(|e| format!("h{host} {e}"))?;
                }
                FaultEvent::Straggler { device, slowdown } => {
                    if !(slowdown >= 1.0 && slowdown.is_finite()) {
                        return Err(format!(
                            "d{device} straggler slowdown {slowdown} must be >= 1 and finite"
                        ));
                    }
                }
                FaultEvent::FlowDrop { prob } => {
                    if !(0.0..1.0).contains(&prob) {
                        return Err(format!("flow drop probability {prob} must be in [0, 1)"));
                    }
                }
            }
        }
        Ok(())
    }

    /// The threaded runtime's base re-transmission backoff.
    fn backoff(&self) -> Result<Duration, String> {
        let seconds = self.retry_backoff;
        Duration::try_from_secs_f64(seconds).map_err(|_| {
            format!("retry backoff {seconds:?} s must be >= 0, finite and fit a wall-clock delay")
        })
    }

    /// The threaded runtime's per-frame delay on a link degraded to
    /// `factor`: `retry_backoff * (1/factor - 1)` wall seconds, so halving
    /// the capacity roughly doubles per-frame cost.
    fn frame_delay(&self, factor: f64) -> Result<Duration, String> {
        let seconds = self.retry_backoff * (1.0 / factor - 1.0);
        // NaN is a zero backoff times an infinite 1/factor: no delay.
        Duration::try_from_secs_f64(seconds.max(0.0)).map_err(|_| {
            format!(
                "degrade factor {factor:?} makes a per-frame delay of {seconds:?} s, \
                 which does not fit a wall-clock delay"
            )
        })
    }

    /// The hosts crashed by this schedule, ascending and deduplicated.
    pub fn crashed_hosts(&self) -> Vec<HostId> {
        let hosts: BTreeSet<u32> = self
            .events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::HostCrash { host, .. } => Some(*host),
                _ => None,
            })
            .collect();
        hosts.into_iter().map(HostId).collect()
    }

    /// Returns a copy with every [`FaultEvent::HostCrash`] removed — the
    /// schedule of the world *after* failover, where the dead host is
    /// simply avoided instead of crashing mid-run.
    #[must_use]
    pub fn without_crashes(&self) -> FaultSchedule {
        let mut s = self.clone();
        s.events
            .retain(|e| !matches!(e, FaultEvent::HostCrash { .. }));
        s
    }

    /// Per-attempt drop probability combined across every
    /// [`FaultEvent::FlowDrop`] event (independent drops).
    fn drop_probability(&self) -> f64 {
        let keep: f64 = self
            .events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::FlowDrop { prob } => Some(1.0 - prob),
                _ => None,
            })
            .product();
        1.0 - keep
    }

    /// Rolls the drop count for every flow task in `graph`: attempt `k`
    /// of a flow is dropped while the per-flow generator (seeded from the
    /// schedule seed and the task id) rolls below the combined drop
    /// probability, capped at one past the retry budget (enough to
    /// exhaust it). Deterministic per `(seed, graph)`.
    fn roll_drops(&self, graph: &TaskGraph) -> BTreeMap<u32, u32> {
        let prob = self.drop_probability();
        let mut drops = BTreeMap::new();
        if prob <= 0.0 {
            return drops;
        }
        for (id, task) in graph.iter() {
            if !matches!(task.work, Work::Flow { .. }) {
                continue;
            }
            let mut rng = SmallRng::seed_from_u64(self.seed ^ (0x9e37_79b9 + u64::from(id.0)));
            let mut count = 0u32;
            while count <= self.max_retries && rng.gen_f64() < prob {
                count += 1;
            }
            if count > 0 {
                drops.insert(id.0, count);
            }
        }
        drops
    }

    /// Compiles the schedule to the simulator's mechanical
    /// [`Disruptions`] for `graph`.
    pub fn to_disruptions(&self, graph: &TaskGraph) -> Disruptions {
        let mut d = Disruptions {
            retry_backoff: self.retry_backoff,
            max_retries: self.max_retries,
            ..Disruptions::none()
        };
        for e in &self.events {
            match *e {
                FaultEvent::HostCrash { host, at } => d.host_down.push((HostId(host), at)),
                FaultEvent::LinkDegrade {
                    host,
                    factor,
                    from,
                    until,
                } => d.nic_scale.push(NicScalePeriod {
                    host: HostId(host),
                    factor,
                    from,
                    until,
                }),
                FaultEvent::Straggler { device, slowdown } => {
                    d.compute_slowdown.push((DeviceId(device), slowdown));
                }
                FaultEvent::FlowDrop { .. } => {}
            }
        }
        d.flow_drops = self.roll_drops(graph);
        d
    }

    /// Compiles the schedule to the threaded runtime's wall-clock
    /// [`InjectedFaults`] for `graph`. Crash times collapse to whole-run
    /// death (the runtime has no simulated clock to crash at); a link
    /// degradation becomes a per-frame delay of
    /// `retry_backoff * (1/factor - 1)` wall seconds, so halving the
    /// capacity roughly doubles per-frame cost.
    ///
    /// # Panics
    ///
    /// Panics if the schedule fails [`validate`](Self::validate), which
    /// bounds every delay computed here.
    pub fn to_injected(&self, graph: &TaskGraph) -> InjectedFaults {
        let validated = "validate() bounds every injected delay";
        let mut f = InjectedFaults {
            max_retries: self.max_retries,
            backoff: self.backoff().expect(validated),
            ..InjectedFaults::default()
        };
        for e in &self.events {
            match *e {
                FaultEvent::HostCrash { host, .. } => {
                    if !f.dead_hosts.contains(&host) {
                        f.dead_hosts.push(host);
                    }
                }
                FaultEvent::LinkDegrade { host, factor, .. } => {
                    f.frame_delay
                        .push((host, self.frame_delay(factor).expect(validated)));
                }
                FaultEvent::Straggler { device, slowdown } => {
                    f.compute_slowdown.push((device, slowdown));
                }
                FaultEvent::FlowDrop { .. } => {}
            }
        }
        f.flow_drops = self.roll_drops(graph);
        f
    }

    /// Parses a schedule from its JSON form, then validates it.
    ///
    /// # Errors
    ///
    /// Returns the parse or validation error as a string.
    pub fn from_json(json: &str) -> Result<FaultSchedule, String> {
        let schedule: FaultSchedule = serde_json::from_str(json).map_err(|e| e.to_string())?;
        schedule.validate()?;
        Ok(schedule)
    }

    /// Serializes the schedule to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("fault schedules serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmesh_netsim::{ClusterSpec, LinkParams};

    fn graph_with_flows(n: u32) -> TaskGraph {
        let c = ClusterSpec::homogeneous(2, 2, LinkParams::new(100.0, 1.0));
        let mut g = TaskGraph::new();
        for i in 0..n {
            g.add(Work::flow(c.device(0, 0), c.device(1, i % 2), 64.0), []);
        }
        g
    }

    #[test]
    fn validation_catches_each_event_kind() {
        let bad = [
            FaultEvent::HostCrash { host: 0, at: -1.0 },
            FaultEvent::LinkDegrade {
                host: 0,
                factor: 0.0,
                from: 0.0,
                until: 1.0,
            },
            FaultEvent::LinkDegrade {
                host: 0,
                factor: 0.5,
                from: 2.0,
                until: 1.0,
            },
            FaultEvent::Straggler {
                device: 0,
                slowdown: 0.5,
            },
            FaultEvent::FlowDrop { prob: 1.0 },
        ];
        for e in bad {
            assert!(FaultSchedule::new(0).with_event(e).validate().is_err());
        }
        assert!(FaultSchedule::new(0).validate().is_ok());
    }

    #[test]
    fn crashed_hosts_dedup_and_sort() {
        let s = FaultSchedule::new(0)
            .with_event(FaultEvent::HostCrash { host: 2, at: 1.0 })
            .with_event(FaultEvent::HostCrash { host: 0, at: 2.0 })
            .with_event(FaultEvent::HostCrash { host: 2, at: 3.0 });
        assert_eq!(s.crashed_hosts(), vec![HostId(0), HostId(2)]);
        assert!(s.without_crashes().is_empty());
    }

    #[test]
    fn drop_rolls_are_deterministic_and_seed_sensitive() {
        let g = graph_with_flows(64);
        let s = FaultSchedule::new(7).with_event(FaultEvent::FlowDrop { prob: 0.3 });
        assert_eq!(s.roll_drops(&g), s.roll_drops(&g));
        let other = FaultSchedule::new(8).with_event(FaultEvent::FlowDrop { prob: 0.3 });
        assert_ne!(s.roll_drops(&g), other.roll_drops(&g));
        // Some flow must be dropped at p=0.3 over 64 flows; none at p=0.
        assert!(!s.roll_drops(&g).is_empty());
        assert!(FaultSchedule::new(7).roll_drops(&g).is_empty());
    }

    #[test]
    fn drop_counts_are_capped_past_the_retry_budget() {
        let g = graph_with_flows(32);
        let s = FaultSchedule::new(1)
            .with_retry_policy(2, 1e-4)
            .with_event(FaultEvent::FlowDrop { prob: 0.99 });
        for (_, &count) in s.roll_drops(&g).iter() {
            assert!(count <= 3, "count {count} exceeds max_retries + 1");
        }
    }

    #[test]
    fn compiles_to_both_backends() {
        let g = graph_with_flows(4);
        let s = FaultSchedule::new(3)
            .with_event(FaultEvent::HostCrash { host: 1, at: 0.5 })
            .with_event(FaultEvent::LinkDegrade {
                host: 0,
                factor: 0.5,
                from: 0.0,
                until: 2.0,
            })
            .with_event(FaultEvent::Straggler {
                device: 2,
                slowdown: 3.0,
            });
        let d = s.to_disruptions(&g);
        assert_eq!(d.host_down, vec![(HostId(1), 0.5)]);
        assert_eq!(d.nic_scale.len(), 1);
        assert_eq!(d.compute_slowdown, vec![(DeviceId(2), 3.0)]);
        assert!(d.validate().is_ok());
        let f = s.to_injected(&g);
        assert_eq!(f.dead_hosts, vec![1]);
        assert_eq!(f.compute_slowdown, vec![(2, 3.0)]);
        assert_eq!(f.frame_delay.len(), 1);
    }

    #[test]
    fn json_round_trips() {
        let s = FaultSchedule::new(42)
            .with_event(FaultEvent::HostCrash { host: 1, at: 0.25 })
            .with_event(FaultEvent::FlowDrop { prob: 0.1 });
        let parsed = FaultSchedule::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
        assert!(FaultSchedule::from_json("{not json").is_err());
        let invalid = FaultSchedule::new(0).with_event(FaultEvent::FlowDrop { prob: 2.0 });
        assert!(FaultSchedule::from_json(&invalid.to_json()).is_err());
    }

    #[test]
    fn delays_too_long_for_a_duration_are_rejected_naming_the_field() {
        // Both used to pass validation and then panic in `to_injected`.
        let backoff = r#"{"seed":0,"events":[],"max_retries":2,"retry_backoff":1e300}"#;
        let err = FaultSchedule::from_json(backoff).unwrap_err();
        assert!(err.contains("retry backoff"), "{err}");
        let degrade = r#"{"seed":0,"events":[{"LinkDegrade":{"host":0,"factor":1e-30,
            "from":0.0,"until":1.0}}],"max_retries":2,"retry_backoff":0.001}"#;
        let err = FaultSchedule::from_json(degrade).unwrap_err();
        assert!(err.contains("h0 degrade factor"), "{err}");
        // A zero backoff injects no delay, however deep the degradation
        // (here 1/factor is infinite, and 0 × ∞ is NaN).
        let s =
            FaultSchedule::new(0)
                .with_retry_policy(2, 0.0)
                .with_event(FaultEvent::LinkDegrade {
                    host: 0,
                    factor: 1e-310,
                    from: 0.0,
                    until: 1.0,
                });
        assert!(s.validate().is_ok());
        let f = s.to_injected(&graph_with_flows(1));
        assert_eq!(f.frame_delay, vec![(0, Duration::ZERO)]);
    }
}
