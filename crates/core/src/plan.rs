//! Plans: sender-assigned, ordered unit tasks, with estimation, lowering,
//! and simulated execution.

use crate::exclusions::{RepairError, SenderExclusions};
use crate::planners::{plan_with_exclusions, replica_on, EnsemblePlanner, PlannerConfig};
use crate::task::ReshardingTask;
use crossmesh_collectives::{estimate_unit_task, lower_unit_task_on, CostParams, LoweredComm};
use crossmesh_netsim::{
    Backend, ClusterSpec, DeviceId, HostId, SimBackend, SimError, TaskGraph, TaskId, Trace, Work,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

pub use crossmesh_check::verify::Assignment;

/// The lowered form of a plan inside a larger task graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoweredPlan {
    /// Lowered fragments per scheduled assignment (plan order).
    pub per_unit: Vec<LoweredComm>,
    /// Joins the whole resharding task.
    pub done: TaskId,
}

/// Result of executing a plan on the simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Completion time of the last unit task, simulated seconds.
    pub simulated_seconds: f64,
    /// Bytes that crossed host NICs.
    pub cross_host_bytes: f64,
    /// Number of simulator tasks the plan lowered to.
    pub tasks_lowered: usize,
}

/// One lowered and executed plan: the graph it lowered to, the backend's
/// trace of that graph, and the task joining the whole transfer. What
/// [`ExecutionReport`] summarizes and what a timeline export renders.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRun {
    /// The lowered task graph.
    pub graph: TaskGraph,
    /// The backend's trace of `graph`.
    pub trace: Trace,
    /// Joins the whole resharding task.
    pub done: TaskId,
}

impl PlanRun {
    /// Summarizes the run.
    pub fn report(&self) -> ExecutionReport {
        ExecutionReport {
            simulated_seconds: self.trace.interval(self.done).finish,
            cross_host_bytes: self.trace.usage().total_cross_host_bytes(),
            tasks_lowered: self.graph.len(),
        }
    }
}

/// A complete solution of the §3.2 optimization problem: an ordered list of
/// sender-assigned unit tasks. Ordering is the schedule: on every host,
/// tasks execute in plan order (tasks sharing no host proceed in parallel).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan<'t> {
    task: &'t ReshardingTask,
    assignments: Vec<Assignment>,
    params: CostParams,
}

impl<'t> Plan<'t> {
    /// Builds a plan from an ordered assignment list.
    ///
    /// # Panics
    ///
    /// Panics if the assignments do not cover every unit task exactly once,
    /// or a sender is not a replica of its unit task.
    pub fn new(task: &'t ReshardingTask, assignments: Vec<Assignment>, params: CostParams) -> Self {
        let mut seen = vec![false; task.units().len()];
        for a in &assignments {
            assert!(
                a.unit < task.units().len(),
                "assignment references unit {} of {}",
                a.unit,
                task.units().len()
            );
            assert!(!seen[a.unit], "unit {} scheduled twice", a.unit);
            seen[a.unit] = true;
            let unit = &task.units()[a.unit];
            assert!(
                unit.senders
                    .iter()
                    .any(|&(d, h)| d == a.sender && h == a.sender_host),
                "sender {} is not a replica holder of unit {}",
                a.sender,
                a.unit
            );
        }
        assert!(
            seen.iter().all(|&s| s),
            "plan must schedule every unit task"
        );
        Plan {
            task,
            assignments,
            params,
        }
    }

    /// The underlying resharding task.
    pub fn task(&self) -> &'t ReshardingTask {
        self.task
    }

    /// The ordered assignments.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// The cost parameters used for estimation.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Analytic makespan of the plan: a list schedule where each unit task
    /// starts once the sender host and all receiver hosts are free, and
    /// occupies them for its estimated duration.
    pub fn estimate(&self) -> f64 {
        let mut cursor: BTreeMap<HostId, f64> = BTreeMap::new();
        let mut makespan = 0.0f64;
        for a in &self.assignments {
            let unit = &self.task.units()[a.unit];
            let duration = estimate_unit_task(&self.params, unit, a.sender_host, a.strategy);
            let hosts = involved_hosts(unit, a.sender_host);
            let start = hosts
                .iter()
                .map(|h| cursor.get(h).copied().unwrap_or(0.0))
                .fold(0.0, f64::max);
            let finish = start + duration;
            for h in hosts {
                cursor.insert(h, finish);
            }
            makespan = makespan.max(finish);
        }
        makespan
    }

    /// A lower bound on any schedule's makespan, from pure bandwidth
    /// arguments: each receiver host's NIC must absorb every slice that no
    /// source replica can deliver locally, the NICs of the hosts holding
    /// those slices must between them emit each one at least once, and
    /// every unit task needs at least its own transfer time.
    pub fn lower_bound(&self) -> f64 {
        let mut recv_load: BTreeMap<HostId, f64> = BTreeMap::new();
        let mut longest = 0.0f64;
        let mut leaving = 0.0f64;
        let mut leaving_from: BTreeSet<HostId> = BTreeSet::new();
        for a in &self.assignments {
            let unit = &self.task.units()[a.unit];
            let bytes = unit.bytes as f64;
            let sender_hosts = unit.sender_hosts();
            let mut all_local = true;
            for h in unit.receiver_hosts() {
                if !sender_hosts.contains(&h) {
                    all_local = false;
                    *recv_load.entry(h).or_insert(0.0) += bytes / self.params.inter_bw;
                }
            }
            // Best-case transfer time of this unit in isolation.
            let best = if all_local {
                bytes / self.params.intra_bw
            } else {
                leaving += bytes;
                leaving_from.extend(sender_hosts);
                bytes / self.params.inter_bw
            };
            longest = longest.max(best);
        }
        let send_load = leaving / leaving_from.len().max(1) as f64 / self.params.inter_bw;
        recv_load
            .values()
            .copied()
            .fold(0.0, f64::max)
            .max(send_load)
            .max(longest)
    }

    /// Lowers the plan into `graph`. Host-level serialization is enforced
    /// with dependency chains: each unit task waits for the previous task
    /// (in plan order) on each host it touches.
    ///
    /// `cluster` is the topology for topology-aware strategies:
    /// [`Strategy::MultiRail`](crossmesh_collectives::Strategy::MultiRail)
    /// draws its NVLink rail relays from its host layout. With `None`,
    /// strategies that consult the cluster degrade to their topology-free
    /// lowering.
    pub fn lower_on(
        &self,
        graph: &mut TaskGraph,
        deps: &[TaskId],
        cluster: Option<&ClusterSpec>,
    ) -> LoweredPlan {
        let mut last_on_host: BTreeMap<HostId, TaskId> = BTreeMap::new();
        let mut per_unit = Vec::with_capacity(self.assignments.len());
        let mut unit_deps: Vec<TaskId> = Vec::new();
        for a in &self.assignments {
            let unit = &self.task.units()[a.unit];
            let hosts = involved_hosts(unit, a.sender_host);
            unit_deps.clear();
            unit_deps.extend_from_slice(deps);
            // One unit is often the last on several of these hosts: list
            // it once.
            for h in &hosts {
                if let Some(&m) = last_on_host.get(h) {
                    if !unit_deps.contains(&m) {
                        unit_deps.push(m);
                    }
                }
            }
            let lowered =
                lower_unit_task_on(graph, unit, a.sender, a.strategy, &unit_deps, cluster);
            for h in hosts {
                last_on_host.insert(h, lowered.done);
            }
            per_unit.push(lowered);
        }
        let done = graph.add(Work::Marker, per_unit.iter().map(|l| l.done));
        LoweredPlan { per_unit, done }
    }

    /// Repairs the plan after sender failures: a new plan for the same
    /// task that avoids every excluded sender.
    ///
    /// Two candidates are built and the one with the smaller analytic
    /// [`estimate`](Plan::estimate) wins:
    ///
    /// * **patch** — assignments whose senders survive keep their slot;
    ///   orphaned units are re-assigned with the LPT greedy on top of the
    ///   surviving per-host load (fast, minimal churn);
    /// * **replan** — the full ensemble planner re-runs on the filtered
    ///   task (slower, but escapes a badly skewed surviving layout).
    ///
    /// # Errors
    ///
    /// [`RepairError::DataLoss`] if some unit task has no surviving
    /// replica holder — the slice cannot be recovered from the source
    /// mesh.
    pub fn repair(&self, exclusions: &SenderExclusions) -> Result<Plan<'t>, RepairError> {
        let filtered = self.task.excluding(exclusions)?;
        if exclusions.is_empty() {
            return Ok(self.clone());
        }

        // Patch candidate: keep surviving assignments (and their host
        // loads), then place each orphan on the lightest surviving
        // replica host, longest orphan first.
        let mut load: BTreeMap<HostId, f64> = BTreeMap::new();
        let mut patched = Vec::with_capacity(self.assignments.len());
        let mut orphans = Vec::new();
        for a in &self.assignments {
            if exclusions.excludes(a.sender_host) {
                orphans.push(*a);
            } else {
                let unit = &self.task.units()[a.unit];
                *load.entry(a.sender_host).or_insert(0.0) +=
                    estimate_unit_task(&self.params, unit, a.sender_host, a.strategy);
                patched.push(*a);
            }
        }
        orphans.sort_by(|a, b| {
            let units = filtered.units();
            let best = |x: &Assignment| {
                units[x.unit]
                    .sender_hosts()
                    .into_iter()
                    .map(|h| estimate_unit_task(&self.params, &units[x.unit], h, x.strategy))
                    .fold(f64::INFINITY, f64::min)
            };
            best(b).total_cmp(&best(a)).then(a.unit.cmp(&b.unit))
        });
        for a in orphans {
            let unit = &filtered.units()[a.unit];
            let (host, duration) = unit
                .sender_hosts()
                .into_iter()
                .map(|h| (h, estimate_unit_task(&self.params, unit, h, a.strategy)))
                .min_by(|&(ha, da), &(hb, db)| {
                    let la = load.get(&ha).copied().unwrap_or(0.0) + da;
                    let lb = load.get(&hb).copied().unwrap_or(0.0) + db;
                    la.total_cmp(&lb).then(ha.cmp(&hb))
                })
                .expect("excluding() guarantees a surviving replica");
            *load.entry(host).or_insert(0.0) += duration;
            patched.push(Assignment {
                unit: a.unit,
                sender: replica_on(unit, host),
                sender_host: host,
                strategy: a.strategy,
            });
        }
        let patch = Plan::new(self.task, patched, self.params);

        // Replan candidate: the ensemble planner from scratch on the
        // filtered task.
        let replan = plan_with_exclusions(
            &EnsemblePlanner::new(PlannerConfig::new(self.params)),
            self.task,
            exclusions,
        )?;

        Ok(if patch.estimate() <= replan.estimate() {
            patch
        } else {
            replan
        })
    }

    /// Runs the static plan verifier (`crossmesh-check`) over this plan:
    /// coverage, sender-exclusion, ring well-formedness, and — when
    /// `cluster` is given — capacity sanity. Returns every diagnostic;
    /// an empty vector means the plan is provably well-formed.
    pub fn verify(
        &self,
        cluster: Option<&ClusterSpec>,
        excluded: &dyn Fn(DeviceId, HostId) -> bool,
    ) -> Vec<crossmesh_check::Diagnostic> {
        crossmesh_check::verify::verify_plan(
            self.task.units(),
            self.task.shape(),
            self.task.elem_bytes(),
            &self.assignments,
            cluster,
            excluded,
        )
    }

    /// Executes the plan alone on `cluster` with the simulator backend and
    /// reports the simulated completion time: [`run`](Plan::run) on
    /// [`SimBackend`], summarized.
    ///
    /// # Errors
    ///
    /// As [`run`](Plan::run).
    pub fn execute(&self, cluster: &ClusterSpec) -> Result<ExecutionReport, SimError> {
        Ok(self
            .run(cluster, |graph| SimBackend.execute(cluster, graph))?
            .report())
    }

    /// The one plan runner: statically verifies the plan, lowers it alone
    /// into a fresh graph with `cluster`'s topology (see
    /// [`lower_on`](Plan::lower_on)), and runs that graph through `exec` —
    /// a [`Backend`], or one under an injected fault schedule. On a real
    /// backend the report's `simulated_seconds` are wall seconds.
    ///
    /// # Errors
    ///
    /// A `check` [`SimError::Backend`] if verification convicts the plan
    /// (`exec` is then never called), else `exec`'s error.
    pub fn run(
        &self,
        cluster: &ClusterSpec,
        exec: impl FnOnce(&TaskGraph) -> Result<Trace, SimError>,
    ) -> Result<PlanRun, SimError> {
        let diags = self.verify(Some(cluster), &|_, _| false);
        if crossmesh_check::has_errors(&diags) {
            return Err(SimError::Backend {
                backend: "check",
                message: format!(
                    "plan failed static verification:\n{}",
                    crossmesh_check::render_text(&diags)
                ),
            });
        }
        let mut graph = TaskGraph::new();
        let done = self.lower_on(&mut graph, &[], Some(cluster)).done;
        let trace = exec(&graph)?;
        Ok(PlanRun { graph, trace, done })
    }
}

/// The hosts a unit task occupies while executing: its sender host plus all
/// receiver hosts.
pub(crate) fn involved_hosts(unit: &crossmesh_mesh::UnitTask, sender_host: HostId) -> Vec<HostId> {
    let mut hosts = unit.receiver_hosts();
    if let Err(pos) = hosts.binary_search(&sender_host) {
        hosts.insert(pos, sender_host);
    }
    hosts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossmesh_collectives::Strategy;
    use crossmesh_mesh::DeviceMesh;
    use crossmesh_netsim::{Engine, LinkParams};

    fn setup() -> (ClusterSpec, ReshardingTask) {
        let c =
            ClusterSpec::homogeneous(4, 2, LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0));
        let a = DeviceMesh::from_cluster(&c, 0, (2, 2), "A").unwrap();
        let b = DeviceMesh::from_cluster(&c, 2, (2, 2), "B").unwrap();
        let t = ReshardingTask::new(
            a,
            "S0R".parse().unwrap(),
            b,
            "S0R".parse().unwrap(),
            &[8, 8],
            1,
        )
        .unwrap();
        (c, t)
    }

    fn params() -> CostParams {
        CostParams {
            inter_bw: 1.0,
            intra_bw: 100.0,
            inter_latency: 0.0,
            intra_latency: 0.0,
        }
    }

    fn plan_for(task: &ReshardingTask) -> Plan<'_> {
        let assignments = task
            .units()
            .iter()
            .enumerate()
            .map(|(i, u)| Assignment {
                unit: i,
                sender: u.senders[0].0,
                sender_host: u.senders[0].1,
                strategy: Strategy::broadcast(),
            })
            .collect();
        Plan::new(task, assignments, params())
    }

    #[test]
    fn execute_reports_cross_host_traffic() {
        let (c, t) = setup();
        let plan = plan_for(&t);
        let report = plan.execute(&c).unwrap();
        // Two 32-byte halves, each broadcast to one remote host once.
        assert!((report.cross_host_bytes - 64.0).abs() < 1e-6);
        assert!(report.simulated_seconds > 0.0);
    }

    #[test]
    fn estimate_is_close_to_simulation_for_disjoint_tasks() {
        let (c, t) = setup();
        let plan = plan_for(&t);
        let est = plan.estimate();
        let sim = plan.execute(&c).unwrap().simulated_seconds;
        let rel = (est - sim).abs() / sim;
        assert!(rel < 0.2, "estimate {est} vs simulated {sim}");
    }

    #[test]
    fn the_runner_refuses_an_unverified_plan_before_the_backend_runs() {
        let (c, t) = setup();
        let mut plan = plan_for(&t);
        plan.assignments.pop();
        let mut ran = false;
        let err = plan
            .run(&c, |graph| {
                ran = true;
                SimBackend.execute(&c, graph)
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Backend {
                    backend: "check",
                    ..
                }
            ),
            "{err}"
        );
        assert!(!ran, "the backend ran a convicted plan");
    }

    #[test]
    fn lower_bound_holds() {
        let (c, t) = setup();
        let plan = plan_for(&t);
        let sim = plan.execute(&c).unwrap().simulated_seconds;
        assert!(plan.lower_bound() <= sim + 1e-9);
        assert!(plan.lower_bound() <= plan.estimate() + 1e-9);
    }

    #[test]
    fn lower_bound_counts_the_sender_nics() {
        // 128 unit tasks from two sender hosts to four receiver hosts: the
        // whole tensor leaves through two NICs, twice what any one of the
        // four receiving NICs absorbs.
        let c = ClusterSpec::homogeneous(6, 4, LinkParams::new(100.0, 1.0));
        let a = DeviceMesh::from_cluster(&c, 0, (2, 4), "A").unwrap();
        let b = DeviceMesh::from_cluster(&c, 2, (4, 4), "B").unwrap();
        let t = ReshardingTask::new(
            a,
            "RRS01".parse().unwrap(),
            b,
            "S01RR".parse().unwrap(),
            &[16, 16, 64],
            4,
        )
        .unwrap();
        assert_eq!(t.units().len(), 128);
        let plan = plan_for(&t);
        let two_nics = t.total_bytes() as f64 / 2.0 / params().inter_bw;
        assert!(plan.lower_bound() >= two_nics);
        assert!(plan.lower_bound() <= plan.estimate() + 1e-9);
        let sim = plan.execute(&c).unwrap().simulated_seconds;
        assert!(plan.lower_bound() <= sim + 1e-9);
    }

    #[test]
    fn conflicting_tasks_serialize() {
        // Force both units through the same sender host; they must not
        // overlap there.
        let (c, t) = setup();
        // Unit replicas: S0R on 2x2 mesh -> each slice held by one row
        // (2 devices on one host each, since rows are hosts).
        let assignments: Vec<Assignment> = t
            .units()
            .iter()
            .enumerate()
            .map(|(i, u)| Assignment {
                unit: i,
                sender: u.senders[0].0,
                sender_host: u.senders[0].1,
                strategy: Strategy::SendRecv,
            })
            .collect();
        let plan = Plan::new(&t, assignments, params());
        let mut graph = TaskGraph::new();
        let lowered = plan.lower_on(&mut graph, &[], None);
        let trace = Engine::new(&c).run(&graph).unwrap();
        // Receiver hosts are disjoint (unit 0 -> host 2, unit 1 -> host 3)
        // and senders are distinct hosts, so they CAN overlap.
        let i0 = trace.interval(lowered.per_unit[0].done);
        let i1 = trace.interval(lowered.per_unit[1].done);
        let overlap = i0.start < i1.finish && i1.start < i0.finish;
        assert!(overlap || i0.finish <= i1.start || i1.finish <= i0.start);
        assert!(trace.interval(lowered.done).finish > 0.0);
    }

    fn replicated_task() -> (ClusterSpec, ReshardingTask) {
        let c =
            ClusterSpec::homogeneous(4, 4, LinkParams::new(100.0, 1.0).with_latencies(0.0, 0.0));
        let a = DeviceMesh::from_cluster(&c, 0, (2, 4), "A").unwrap();
        let b = DeviceMesh::from_cluster(&c, 2, (2, 4), "B").unwrap();
        // RS1R: every slice is replicated on both sender hosts, so one
        // host can fail and the tensor is still recoverable.
        let t = ReshardingTask::new(
            a,
            "RS1R".parse().unwrap(),
            b,
            "S0RR".parse().unwrap(),
            &[8, 8, 8],
            1,
        )
        .unwrap();
        (c, t)
    }

    #[test]
    fn repair_routes_around_an_excluded_host() {
        let (c, t) = replicated_task();
        let plan = plan_for(&t);
        let dead = HostId(0);
        let e = crate::SenderExclusions::for_hosts([dead]);
        let repaired = plan.repair(&e).unwrap();
        // Full coverage, no excluded senders.
        assert_eq!(repaired.assignments().len(), t.units().len());
        assert!(repaired.assignments().iter().all(|a| a.sender_host != dead));
        // Still executable, end to end.
        let report = repaired.execute(&c).unwrap();
        assert!(report.simulated_seconds > 0.0);
    }

    #[test]
    fn repair_with_no_exclusions_is_identity() {
        let (_, t) = replicated_task();
        let plan = plan_for(&t);
        let repaired = plan.repair(&crate::SenderExclusions::none()).unwrap();
        assert_eq!(repaired.assignments(), plan.assignments());
    }

    #[test]
    fn repair_reports_data_loss_when_the_last_replica_dies() {
        let (_, t) = setup();
        // S0R source on a (2,2) mesh: each slice lives on one host only.
        let plan = plan_for(&t);
        let doomed = plan.assignments()[0].sender_host;
        let e = crate::SenderExclusions::for_hosts([doomed]);
        let err = plan.repair(&e).unwrap_err();
        assert!(matches!(err, crate::RepairError::DataLoss { .. }));
    }

    #[test]
    fn repair_is_no_worse_than_dropping_to_one_host() {
        // With host 0 gone, everything must go through host 1; the repair
        // estimate must match that single-host serialization, not exceed
        // it wildly.
        let (_, t) = replicated_task();
        let plan = plan_for(&t);
        let e = crate::SenderExclusions::for_hosts([HostId(0)]);
        let repaired = plan.repair(&e).unwrap();
        let total: f64 = repaired
            .assignments()
            .iter()
            .map(|a| {
                estimate_unit_task(
                    repaired.params(),
                    &t.units()[a.unit],
                    a.sender_host,
                    a.strategy,
                )
            })
            .sum();
        assert!(repaired.estimate() <= total + 1e-9);
    }

    #[test]
    #[should_panic(expected = "every unit task")]
    fn incomplete_plan_panics() {
        let (_, t) = setup();
        Plan::new(&t, vec![], params());
    }

    #[test]
    #[should_panic(expected = "not a replica holder")]
    fn bad_sender_panics() {
        let (c, t) = setup();
        let assignments = vec![
            Assignment {
                unit: 0,
                sender: c.device(3, 0),
                sender_host: HostId(3),
                strategy: Strategy::SendRecv,
            },
            Assignment {
                unit: 1,
                sender: t.units()[1].senders[0].0,
                sender_host: t.units()[1].senders[0].1,
                strategy: Strategy::SendRecv,
            },
        ];
        Plan::new(&t, assignments, params());
    }

    #[test]
    fn lowering_lists_each_predecessor_once() {
        // Every unit reaches both receiver hosts, so each unit after the
        // first follows the same predecessor on two of its hosts.
        let (c, _) = setup();
        let a = DeviceMesh::from_cluster(&c, 0, (2, 2), "A").unwrap();
        let b = DeviceMesh::from_cluster(&c, 2, (2, 2), "B").unwrap();
        let (from, to) = ("S0R".parse().unwrap(), "RR".parse().unwrap());
        let t = ReshardingTask::new(a, from, b, to, &[8, 8], 1).unwrap();
        let mut g = TaskGraph::new();
        plan_for(&t).lower_on(&mut g, &[], Some(&c));
        for (id, task) in g.iter() {
            let mut distinct = task.deps.to_vec();
            distinct.sort();
            distinct.dedup();
            assert_eq!(
                distinct.len(),
                task.deps.len(),
                "{id} waits on {:?}",
                task.deps
            );
        }
    }

    #[test]
    fn involved_hosts_includes_sender_once() {
        let (_, t) = setup();
        let u = &t.units()[0];
        let hosts = involved_hosts(u, u.senders[0].1);
        let mut dedup = hosts.clone();
        dedup.dedup();
        assert_eq!(hosts, dedup);
        assert!(hosts.contains(&u.senders[0].1));
    }
}
