//! Task graphs: DAGs of compute tasks and network flows.

use crate::topology::DeviceId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a task inside a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The work a task performs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Work {
    /// Occupy `device` for a fixed duration (seconds). Devices execute
    /// compute tasks one at a time, FIFO in ready order.
    Compute {
        /// Device the task runs on.
        device: DeviceId,
        /// Duration in seconds.
        seconds: f64,
    },
    /// Occupy `device` for `flops / device_flops` seconds, where
    /// `device_flops` comes from the cluster spec.
    ComputeFlops {
        /// Device the task runs on.
        device: DeviceId,
        /// Amount of work in floating-point operations.
        flops: f64,
    },
    /// Transfer `bytes` from `src` to `dst`. Concurrent flows share link
    /// and NIC capacity with max–min fairness.
    Flow {
        /// Sending device.
        src: DeviceId,
        /// Receiving device.
        dst: DeviceId,
        /// Message size in bytes.
        bytes: f64,
    },
    /// Completes instantly when its dependencies complete. Useful as a
    /// barrier or join marker.
    Marker,
}

impl Work {
    /// A fixed-duration compute task.
    pub fn compute(device: DeviceId, seconds: f64) -> Self {
        Work::Compute { device, seconds }
    }

    /// A compute task sized in FLOPs.
    pub fn compute_flops(device: DeviceId, flops: f64) -> Self {
        Work::ComputeFlops { device, flops }
    }

    /// A network flow of `bytes` from `src` to `dst`.
    pub fn flow(src: DeviceId, dst: DeviceId, bytes: f64) -> Self {
        Work::Flow { src, dst, bytes }
    }

    /// The device this work occupies, if it is a compute task.
    pub fn compute_device(&self) -> Option<DeviceId> {
        match *self {
            Work::Compute { device, .. } | Work::ComputeFlops { device, .. } => Some(device),
            _ => None,
        }
    }
}

/// A task's trace name, kept as the numbers its producer already holds.
///
/// A label is a static template whose `{}` holes are filled, in order,
/// with up to four numbers: `Label::new("bc u{} c{} h{}", [3, 5, 1])` reads
/// `bc u3 c5 h1`. Building one formats and allocates nothing; the name is
/// rendered through [`Display`](fmt::Display) only when a trace is
/// exported. The simulator never looks inside a label, so the producer
/// owns its vocabulary.
///
/// # Example
///
/// ```
/// use crossmesh_netsim::Label;
///
/// let label = Label::new("ag[s{}] d{}->d{}", [0, 4, 5]);
/// assert_eq!(label.to_string(), "ag[s0] d4->d5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    template: &'static str,
    args: [u32; 4],
}

impl Label {
    /// A label rendering `template` with its `{}` holes filled by `args`;
    /// more than four numbers do not compile.
    pub fn new<const N: usize>(template: &'static str, args: [u32; N]) -> Label {
        const { assert!(N <= 4, "a label holds at most four numbers") };
        let mut all = [0; 4];
        all[..N].copy_from_slice(&args);
        Label {
            template,
            args: all,
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = self.template.split("{}");
        f.write_str(parts.next().unwrap_or_default())?;
        for (i, part) in parts.enumerate() {
            match self.args.get(i) {
                Some(arg) => write!(f, "{arg}")?,
                None => f.write_str("{}")?,
            }
            f.write_str(part)?;
        }
        Ok(())
    }
}

impl Serialize for Label {
    fn serialize(&self) -> serde::Value {
        (self.template, self.args.to_vec()).serialize()
    }
}

/// Deserializing leaks the template string: a label is `Copy`, so its
/// template must be `'static`. Only test fixtures read graphs back.
impl Deserialize for Label {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let (template, numbers): (&'static str, Vec<u32>) = Deserialize::deserialize(v)?;
        let mut args = [0; 4];
        if numbers.len() > args.len() {
            return Err(serde::Error::custom("a label holds at most four numbers"));
        }
        args[..numbers.len()].copy_from_slice(&numbers);
        Ok(Label { template, args })
    }
}

/// One task of a [`TaskGraph`], borrowed from it: its work, the tasks it
/// depends on, and its trace label.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task<'g> {
    /// The work performed.
    pub work: Work,
    /// Tasks that must complete before this one starts.
    pub deps: &'g [TaskId],
    /// Optional name, rendered only when a trace is exported.
    pub label: Option<Label>,
}

/// A task as the graph stores it: its dependencies live in the graph's
/// one shared arena, at `deps_from..deps_to`.
#[derive(Debug, Clone, PartialEq)]
struct Node {
    work: Work,
    label: Option<Label>,
    deps_from: u32,
    deps_to: u32,
}

/// A DAG of [`Task`]s, acyclic by construction: dependencies must refer to
/// already-added tasks.
///
/// Every task's dependencies are stored back to back in one arena indexed
/// by per-task offsets (compressed sparse rows), and labels are `Copy`, so
/// adding a task allocates nothing beyond the amortized growth of two
/// vectors.
///
/// # Example
///
/// ```
/// use crossmesh_netsim::{DeviceId, TaskGraph, Work};
///
/// let mut graph = TaskGraph::new();
/// let produce = graph.add(Work::compute(DeviceId(0), 1.0), []);
/// let send = graph.add(Work::flow(DeviceId(0), DeviceId(1), 1e6), [produce]);
/// graph.add(Work::compute(DeviceId(1), 2.0), [send]);
/// assert_eq!(graph.len(), 3);
/// assert_eq!(graph.task(send).deps, [produce]);
/// assert_eq!(graph.total_flow_bytes(), 1e6);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGraph {
    nodes: Vec<Node>,
    deps: Vec<TaskId>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Creates an empty graph with room for `tasks` tasks and twice as
    /// many dependency edges — worth it when generating cluster-scale
    /// workloads (a 10k-host sweep adds ~100k tasks) so the arenas never
    /// reallocate mid-build.
    pub fn with_capacity(tasks: usize) -> Self {
        TaskGraph {
            nodes: Vec::with_capacity(tasks),
            deps: Vec::with_capacity(2 * tasks),
        }
    }

    /// Adds a task with the given dependencies and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if any dependency refers to a task not yet added (this is what
    /// keeps the graph acyclic by construction), or if a duration/byte count
    /// is negative or non-finite.
    pub fn add(&mut self, work: Work, deps: impl IntoIterator<Item = TaskId>) -> TaskId {
        self.push(work, deps, None)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adds a task with a trace label (see [`TaskGraph::add`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`TaskGraph::add`].
    pub fn add_labeled(
        &mut self,
        work: Work,
        deps: impl IntoIterator<Item = TaskId>,
        label: Label,
    ) -> TaskId {
        self.push(work, deps, Some(label))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Appends a task, or explains why it would break the graph's
    /// invariants (and leaves the graph unchanged).
    fn push(
        &mut self,
        work: Work,
        deps: impl IntoIterator<Item = TaskId>,
        label: Option<Label>,
    ) -> Result<TaskId, String> {
        match work {
            Work::Compute { seconds, .. } if !(seconds >= 0.0 && seconds.is_finite()) => {
                return Err("compute duration must be non-negative and finite".into())
            }
            Work::ComputeFlops { flops, .. } if !(flops >= 0.0 && flops.is_finite()) => {
                return Err("compute flops must be non-negative and finite".into())
            }
            Work::Flow { bytes, .. } if !(bytes >= 0.0 && bytes.is_finite()) => {
                return Err("flow bytes must be non-negative and finite".into())
            }
            Work::Flow { src, dst, .. } if src == dst => {
                return Err(format!(
                    "flow source and destination must differ (both {src})"
                ))
            }
            _ => {}
        }
        let id = TaskId(self.nodes.len() as u32);
        let from = self.deps.len();
        for d in deps {
            if d.0 >= id.0 {
                self.deps.truncate(from);
                return Err(format!(
                    "dependency {d} of task {id} must be added before it"
                ));
            }
            self.deps.push(d);
        }
        self.nodes.push(Node {
            work,
            label,
            deps_from: from as u32,
            deps_to: self.deps.len() as u32,
        });
        Ok(id)
    }

    /// Number of tasks in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> Task<'_> {
        self.view(&self.nodes[id.0 as usize])
    }

    fn view<'g>(&'g self, node: &Node) -> Task<'g> {
        Task {
            work: node.work,
            deps: &self.deps[node.deps_from as usize..node.deps_to as usize],
            label: node.label,
        }
    }

    /// Iterates over `(id, task)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, Task<'_>)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (TaskId(i as u32), self.view(node)))
    }

    /// Total bytes of all flows in the graph.
    pub fn total_flow_bytes(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| match n.work {
                Work::Flow { bytes, .. } => bytes,
                _ => 0.0,
            })
            .sum()
    }
}

/// The serialized form of one task: the graph serializes as a list of
/// these and deserializes through the same checks as [`TaskGraph::add`].
#[derive(Serialize, Deserialize)]
struct TaskRecord {
    work: Work,
    deps: Vec<TaskId>,
    label: Option<Label>,
}

impl Serialize for TaskGraph {
    fn serialize(&self) -> serde::Value {
        let records: Vec<TaskRecord> = self
            .iter()
            .map(|(_, t)| TaskRecord {
                work: t.work,
                deps: t.deps.to_vec(),
                label: t.label,
            })
            .collect();
        records.serialize()
    }
}

impl Deserialize for TaskGraph {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let records: Vec<TaskRecord> = Deserialize::deserialize(v)?;
        let mut graph = TaskGraph::with_capacity(records.len());
        for r in records {
            graph
                .push(r.work, r.deps, r.label)
                .map_err(serde::Error::custom)?;
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_returns_sequential_ids() {
        let mut g = TaskGraph::new();
        let a = g.add(Work::compute(DeviceId(0), 1.0), []);
        let b = g.add(Work::compute(DeviceId(0), 1.0), [a]);
        assert_eq!(a, TaskId(0));
        assert_eq!(b, TaskId(1));
        assert_eq!(g.len(), 2);
        assert_eq!(g.task(b).deps, [a]);
    }

    #[test]
    #[should_panic(expected = "must be added before")]
    fn forward_dependency_panics() {
        let mut g = TaskGraph::new();
        g.add(Work::Marker, [TaskId(5)]);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn self_flow_panics() {
        let mut g = TaskGraph::new();
        g.add(Work::flow(DeviceId(0), DeviceId(0), 1.0), []);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let mut g = TaskGraph::new();
        g.add(Work::compute(DeviceId(0), -1.0), []);
    }

    #[test]
    fn total_flow_bytes_sums_flows_only() {
        let mut g = TaskGraph::new();
        g.add(Work::flow(DeviceId(0), DeviceId(1), 10.0), []);
        g.add(Work::compute(DeviceId(0), 3.0), []);
        g.add(Work::flow(DeviceId(1), DeviceId(2), 5.0), []);
        assert_eq!(g.total_flow_bytes(), 15.0);
    }

    #[test]
    fn deserializing_checks_what_add_checks() {
        let mut g = TaskGraph::new();
        let a = g.add(Work::Marker, []);
        g.add_labeled(
            Work::compute(DeviceId(0), 1.0),
            [a],
            Label::new("s{} F{}", [0, 3]),
        );
        let mut v = g.serialize();
        assert_eq!(TaskGraph::deserialize(&v).unwrap(), g);
        // Point the first task at the second: a cycle `add` cannot build.
        v.as_array_mut().unwrap()[0]["deps"] = vec![TaskId(1)].serialize();
        let err = TaskGraph::deserialize(&v).unwrap_err().to_string();
        assert!(err.contains("must be added before"), "{err}");
    }

    #[test]
    fn labels_are_preserved() {
        let mut g = TaskGraph::new();
        let id = g.add_labeled(Work::Marker, [], Label::new("barrier", []));
        assert_eq!(g.task(id).label, Some(Label::new("barrier", [])));
    }
}
