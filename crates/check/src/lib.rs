//! # crossmesh-check
//!
//! Correctness checks for the crossmesh workspace. Two are static (they
//! run without executing a plan on any backend), two watch real code run:
//!
//! * [`verify`] — the plan/schedule **verifier**: a typed diagnostic engine
//!   over resharding plans (coverage, byte conservation, sender-exclusion
//!   compliance, broadcast-ring well-formedness, link-capacity sanity
//!   against the cluster topology) and pipeline schedules (operation-shape
//!   invariants, forward/backward ordering, backward weight-delay ordering,
//!   and a cross-stage dependency-graph topological check that reports
//!   deadlock cycles with a minimal witness).
//! * [`lint`] — a **determinism lint**: a source scanner enforcing the
//!   repo's determinism rules (no `HashMap`/`HashSet` in the planners, no
//!   wall clocks or unseeded RNG in the deterministic layers, no
//!   `unwrap()` in runtime send/recv paths, consistent multi-lock
//!   acquisition order, no stray `Ordering::Relaxed`), with an allowlist
//!   file.
//! * [`race`] — a **happens-before race detector**: a FastTrack-style
//!   vector-clock engine (epoch-compressed) fed by the `crossmesh-hb`
//!   instrumentation seam in the vendored sync shims; unordered
//!   conflicting accesses to declared shared-state access points surface
//!   as `race.*` diagnostics carrying both stack-side locations.
//! * [`schedules`] — a **seeded schedule fuzzer**: a preemption-point
//!   perturbation sweep that re-runs a workload (and its byte-identical
//!   equivalence oracle) across deterministic seeds, optionally with the
//!   race detector armed.
//!
//! Each check has one runner: `cargo test` for CI, and `crossmesh-lint`
//! or `crossmesh check --races` for people.
//!
//! Every pass reports through one currency, [`Diagnostic`]: a stable
//! [`Rule`] id, a [`Severity`], a human-locatable `location`, and an
//! explanation. Callers decide policy (the planner wiring refuses to
//! execute a plan with `Error` diagnostics; CI fails on any lint finding).
//!
//! This crate sits *below* `crossmesh-core` in the dependency graph — it
//! sees plans as slices of [`verify::Assignment`]s and schedules as
//! slices of [`verify::ScheduleOp`]s — so the planner, the plan cache, and
//! the fault-recovery loop can all call the verifier without a cycle.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lint;
pub mod race;
pub mod schedules;
pub mod verify;

use crossmesh_mesh::Tile;
use crossmesh_netsim::DeviceId;
use crossmesh_obs as obs;
use serde::Serialize;
use std::fmt;
use std::sync::OnceLock;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Severity {
    /// Suspicious but executable; reported, never blocks execution.
    Warning,
    /// The artifact is wrong: executing it would lose, duplicate, or
    /// corrupt data, or wedge the runtime. Execution wiring refuses it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable identifiers for every rule the passes can fire. Tests and
/// CI match on [`Rule::id`]; the enum exists so adding a rule is a
/// compile-visible event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rule {
    /// A unit task has no assignment: its slice would never be sent.
    CoverageMissing,
    /// A unit task is assigned more than once: its tiles would be sent
    /// (and written) twice.
    CoverageDuplicate,
    /// An assignment references a unit index outside the task.
    CoverageUnknownUnit,
    /// Two unit slices overlap on one destination device: some destination
    /// region would be written by two different unit tasks.
    CoverageOverlap,
    /// A unit's byte count disagrees with its slice volume: byte
    /// conservation is broken.
    CoverageBytes,
    /// The chosen sender is not in the unit's replica set.
    SenderNotReplica,
    /// The chosen sender is excluded (crashed host / failed device).
    SenderExcluded,
    /// A broadcast ring hop sends a chunk from a device to itself.
    RingSelfLoop,
    /// A broadcast ring visits a device twice: the ring has a cycle.
    RingCycle,
    /// Broadcast ring hops are not in the canonical order (sender first,
    /// then receivers sorted host-contiguously), so host-consecutive
    /// pipelining is broken.
    RingOrder,
    /// The chunk count does not match the closed form `K` used by the cost
    /// model `T^bc = t + A·t/K`.
    RingChunks,
    /// A plan references a device the cluster does not contain.
    CapacityUnknownDevice,
    /// An assignment's claimed host disagrees with the cluster topology.
    CapacityHostMismatch,
    /// A link bandwidth is non-positive or non-finite.
    CapacityBandwidth,
    /// The cluster's fabric is flat with unbounded bisection capacity, so
    /// every fabric-contention check is vacuously true.
    CapacityUnbounded,
    /// An expected all-to-all (src device → dst device) shard is never
    /// delivered by any scheduled unit task.
    A2aMissingPair,
    /// An all-to-all (src device → dst device) shard is delivered more
    /// than once, or a delivery has no matching expected pair.
    A2aDuplicatePair,
    /// The bytes delivered for an all-to-all pair disagree with the
    /// expected shard size.
    A2aBytes,
    /// A multi-rail spray overloads a physical rail beyond its fair share
    /// (plus one chunk), e.g. by declaring more logical rails than the
    /// fabric has.
    A2aRailCapacity,
    /// A pipeline stage's operation multiset is malformed (wrong counts of
    /// forward / backward-act / backward-weight ops).
    ScheduleShape,
    /// Forward (or backward-act) microbatches run out of ascending order
    /// within a stage.
    ScheduleForwardOrder,
    /// Within a stage, a microbatch's forward, backward-act, and
    /// backward-weight ops are not in causal order.
    ScheduleMicrobatchOrder,
    /// Backward weight-delay ordering violated: weight updates overtake
    /// each other or run before their activation-gradient half.
    ScheduleWeightOrder,
    /// The cross-stage dependency graph has a cycle: the schedule
    /// deadlocks. The explanation carries a minimal witness cycle.
    ScheduleDeadlock,
    /// `HashMap`/`HashSet` in planner sources: iteration order would leak
    /// into plans.
    LintHashIteration,
    /// Wall clock or unseeded RNG in a deterministic layer.
    LintWallClock,
    /// `unwrap()` in a runtime send/recv path.
    LintUnwrap,
    /// Two locks acquired in opposite orders in different places: a
    /// lock-order inversion that can deadlock under contention.
    LintLockOrder,
    /// `Ordering::Relaxed` on an atomic outside the allowlisted
    /// counter/fast-path sites: relaxed atomics carry no happens-before
    /// edge, so data published around them is unsynchronized.
    LintAtomicOrdering,
    /// Two threads wrote the same shared state with no happens-before
    /// edge between the writes.
    RaceWriteWrite,
    /// A read raced a later write to the same shared state (no
    /// happens-before edge from the read to the write).
    RaceReadWrite,
    /// A write raced a later read of the same shared state (no
    /// happens-before edge from the write to the read).
    RaceWriteRead,
}

impl Rule {
    /// The stable dotted identifier, e.g. `plan.coverage.missing`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::CoverageMissing => "plan.coverage.missing",
            Rule::CoverageDuplicate => "plan.coverage.duplicate",
            Rule::CoverageUnknownUnit => "plan.coverage.unknown-unit",
            Rule::CoverageOverlap => "plan.coverage.overlap",
            Rule::CoverageBytes => "plan.coverage.bytes",
            Rule::SenderNotReplica => "plan.sender.not-replica",
            Rule::SenderExcluded => "plan.sender.excluded",
            Rule::RingSelfLoop => "plan.ring.self-loop",
            Rule::RingCycle => "plan.ring.cycle",
            Rule::RingOrder => "plan.ring.order",
            Rule::RingChunks => "plan.ring.chunks",
            Rule::CapacityUnknownDevice => "plan.capacity.unknown-device",
            Rule::CapacityHostMismatch => "plan.capacity.host-mismatch",
            Rule::CapacityBandwidth => "plan.capacity.bandwidth",
            Rule::CapacityUnbounded => "plan.capacity.unbounded",
            Rule::A2aMissingPair => "plan.a2a.missing-pair",
            Rule::A2aDuplicatePair => "plan.a2a.duplicate-pair",
            Rule::A2aBytes => "plan.a2a.bytes",
            Rule::A2aRailCapacity => "plan.a2a.rail-capacity",
            Rule::ScheduleShape => "sched.shape",
            Rule::ScheduleForwardOrder => "sched.forward-order",
            Rule::ScheduleMicrobatchOrder => "sched.microbatch-order",
            Rule::ScheduleWeightOrder => "sched.weight-order",
            Rule::ScheduleDeadlock => "sched.deadlock",
            Rule::LintHashIteration => "lint.hash-iteration",
            Rule::LintWallClock => "lint.wall-clock",
            Rule::LintUnwrap => "lint.unwrap",
            Rule::LintLockOrder => "lint.lock-order",
            Rule::LintAtomicOrdering => "lint.atomic-ordering",
            Rule::RaceWriteWrite => "race.write-write",
            Rule::RaceReadWrite => "race.read-write",
            Rule::RaceWriteRead => "race.write-read",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

// Serialized as the dotted id (not the variant name): `--format json`
// consumers and CI match on the same identifier the text renderer prints.
impl serde::Serialize for Rule {
    fn serialize(&self) -> serde_json::Value {
        serde_json::Value::Str(self.id().to_string())
    }
}

/// First point of divergence between delivered and expected data: which
/// device, which tile, and where inside it.
///
/// Shared currency between the static verifier (overlapping destination
/// writes report the overlap region) and the dynamic data plane
/// (`crossmesh-core`'s `verify_destination` reports the first corrupted or
/// uncovered element through this same type).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TileDiff {
    /// The destination device the divergence is on.
    pub device: DeviceId,
    /// The tile region in question (the checked destination tile, or the
    /// overlap region for a double write).
    pub tile: Tile,
    /// Row-major element offset of the first divergent element *within*
    /// `tile`.
    pub offset: u64,
    /// Linear index of that element in the full tensor.
    pub linear_index: u64,
    /// The value the element should hold, if known.
    pub expected: Option<u64>,
    /// The value the element actually holds (`None` = never written).
    pub actual: Option<u64>,
}

impl fmt::Display for TileDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device {} tile {} offset {} (linear {})",
            self.device, self.tile, self.offset, self.linear_index
        )?;
        match (self.expected, self.actual) {
            (Some(e), Some(a)) => write!(f, ": expected {e}, got {a}"),
            (Some(e), None) => write!(f, ": expected {e}, never written"),
            (None, Some(a)) => write!(f, ": unexpectedly holds {a}"),
            (None, None) => Ok(()),
        }
    }
}

/// One finding from any pass.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// How bad it is.
    pub severity: Severity,
    /// Where: `unit 3 sender d5`, `stage 1 op 7`, `path.rs:42`, ...
    pub location: String,
    /// Why, in one sentence, with the offending values inlined.
    pub explanation: String,
    /// Structured first-divergence payload, when the rule concerns data
    /// placement (coverage overlaps, data-plane mismatches).
    pub diff: Option<TileDiff>,
}

impl Diagnostic {
    /// An `Error`-severity finding.
    pub fn error(rule: Rule, location: impl Into<String>, explanation: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Error,
            location: location.into(),
            explanation: explanation.into(),
            diff: None,
        }
    }

    /// A `Warning`-severity finding.
    pub fn warning(
        rule: Rule,
        location: impl Into<String>,
        explanation: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Warning,
            location: location.into(),
            explanation: explanation.into(),
            diff: None,
        }
    }

    /// Attaches a structured diff.
    #[must_use]
    pub fn with_diff(mut self, diff: TileDiff) -> Self {
        self.diff = Some(diff);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity,
            self.rule.id(),
            self.location,
            self.explanation
        )
    }
}

/// True if any diagnostic is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Renders diagnostics one per line (empty string when clean).
pub fn render_text(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(Diagnostic::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

struct CheckMetrics {
    runs: obs::Counter,
    diagnostics: obs::Counter,
    errors: obs::Counter,
    lint_findings: obs::Counter,
    race_findings: obs::Counter,
}

fn check_metrics() -> &'static CheckMetrics {
    static METRICS: OnceLock<CheckMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let m = obs::metrics();
        CheckMetrics {
            runs: m.counter("check.runs"),
            diagnostics: m.counter("check.diagnostics"),
            errors: m.counter("check.errors"),
            lint_findings: m.counter("check.lint_findings"),
            race_findings: m.counter("check.race_findings"),
        }
    })
}

/// Records one verifier run and its findings in the `check.*` metrics, and
/// emits a warn event per error diagnostic when a collector is installed.
pub(crate) fn record_run(target: &'static str, diags: &[Diagnostic]) {
    let m = check_metrics();
    m.runs.inc();
    m.diagnostics.add(diags.len() as u64);
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count() as u64;
    m.errors.add(errors);
    if errors > 0 && obs::enabled() {
        for d in diags.iter().filter(|d| d.severity == Severity::Error) {
            obs::event(
                obs::Level::Warn,
                target,
                "diagnostic",
                &[
                    obs::Field::str("rule", d.rule.id()),
                    obs::Field::str("location", d.location.clone()),
                    obs::Field::str("explanation", d.explanation.clone()),
                ],
            );
        }
    }
}

pub(crate) fn record_lint_findings(n: u64) {
    check_metrics().lint_findings.add(n);
}

pub(crate) fn record_race_findings(n: u64) {
    check_metrics().race_findings.add(n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_dotted() {
        let rules = [
            Rule::CoverageMissing,
            Rule::CoverageDuplicate,
            Rule::CoverageUnknownUnit,
            Rule::CoverageOverlap,
            Rule::CoverageBytes,
            Rule::SenderNotReplica,
            Rule::SenderExcluded,
            Rule::RingSelfLoop,
            Rule::RingCycle,
            Rule::RingOrder,
            Rule::RingChunks,
            Rule::CapacityUnknownDevice,
            Rule::CapacityHostMismatch,
            Rule::CapacityBandwidth,
            Rule::CapacityUnbounded,
            Rule::A2aMissingPair,
            Rule::A2aDuplicatePair,
            Rule::A2aBytes,
            Rule::A2aRailCapacity,
            Rule::ScheduleShape,
            Rule::ScheduleForwardOrder,
            Rule::ScheduleMicrobatchOrder,
            Rule::ScheduleWeightOrder,
            Rule::ScheduleDeadlock,
            Rule::LintHashIteration,
            Rule::LintWallClock,
            Rule::LintUnwrap,
            Rule::LintLockOrder,
            Rule::LintAtomicOrdering,
            Rule::RaceWriteWrite,
            Rule::RaceReadWrite,
            Rule::RaceWriteRead,
        ];
        let mut ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate rule id");
        for id in ids {
            assert!(id.contains('.'), "rule id {id} is not dotted");
        }
    }

    #[test]
    fn diagnostics_render_and_sort_by_severity() {
        let d = Diagnostic::error(Rule::CoverageMissing, "unit 3", "never sent");
        assert_eq!(
            d.to_string(),
            "error [plan.coverage.missing] unit 3: never sent"
        );
        assert!(Severity::Warning < Severity::Error);
        assert!(has_errors(std::slice::from_ref(&d)));
        assert!(!has_errors(&[Diagnostic::warning(
            Rule::RingChunks,
            "u0",
            "odd"
        )]));
        assert_eq!(render_text(&[]), "");
        assert!(render_text(&[d]).contains("plan.coverage.missing"));
    }

    #[test]
    fn tile_diff_displays_expectations() {
        let diff = TileDiff {
            device: DeviceId(4),
            tile: Tile::new([0..2, 0..2]),
            offset: 1,
            linear_index: 5,
            expected: Some(5),
            actual: Some(9),
        };
        let s = diff.to_string();
        assert!(s.contains("device d4"), "{s}");
        assert!(s.contains("expected 5, got 9"), "{s}");
    }
}
