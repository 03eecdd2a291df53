//! Per-stage operation orders for synchronous pipeline schedules.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One operation in a stage's schedule, tagged with its microbatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Forward pass of one microbatch.
    Forward(usize),
    /// Backward pass, activation-gradient half.
    BackwardAct(usize),
    /// Backward pass, weight-gradient half (no cross-mesh communication
    /// depends on it — the candidate for delaying).
    BackwardWeight(usize),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Forward(m) => write!(f, "F{m}"),
            Op::BackwardAct(m) => write!(f, "B{m}"),
            Op::BackwardWeight(m) => write!(f, "W{m}"),
        }
    }
}

/// The family of synchronous schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScheduleKind {
    /// All forwards, then all backwards (reverse microbatch order).
    GPipe,
    /// One-forward-one-backward with a warmup of `#stages − i` microbatches
    /// on stage `i` (0-indexed).
    OneFOneB,
    /// The paper's eager-1F1B: warmup of `min(2(#stages − i) − 1, M)`
    /// forwards, creating slack between dependent tasks so communication
    /// overlaps (paper §4).
    Eager1F1B,
    /// Forward-only execution for pipelined inference: every stage streams
    /// all microbatches' forwards with no backward passes (the paper's
    /// techniques apply to "model-parallel distributed training and
    /// inference" alike). Activation-memory accounting does not apply.
    Inference,
}

impl fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScheduleKind::GPipe => "gpipe",
            ScheduleKind::OneFOneB => "1f1b",
            ScheduleKind::Eager1F1B => "eager-1f1b",
            ScheduleKind::Inference => "inference",
        };
        f.write_str(s)
    }
}

/// How much the weight-gradient half of each backward is delayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WeightDelay {
    /// `BackwardWeight(m)` immediately follows `BackwardAct(m)`.
    None,
    /// `BackwardWeight(m)` is emitted after `BackwardAct(m + d)`,
    /// stragglers flushed at the end of the iteration.
    Fixed(usize),
}

impl WeightDelay {
    fn amount(self) -> usize {
        match self {
            WeightDelay::None => 0,
            WeightDelay::Fixed(d) => d,
        }
    }
}

/// A complete schedule: the ordered operation list of every stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    per_stage: Vec<Vec<Op>>,
    num_microbatches: usize,
}

impl Schedule {
    /// The ordered operations of stage `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn stage_ops(&self, s: usize) -> &[Op] {
        &self.per_stage[s]
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.per_stage.len()
    }

    /// Number of microbatches.
    pub fn num_microbatches(&self) -> usize {
        self.num_microbatches
    }

    /// Number of warmup forwards stage `s` runs before its first backward.
    pub fn warmup(&self, s: usize) -> usize {
        self.per_stage[s]
            .iter()
            .position(|op| matches!(op, Op::BackwardAct(_)))
            .unwrap_or(self.per_stage[s].len())
    }

    /// The whole schedule in the static checker's dependency-free op form,
    /// ready for `crossmesh_check::verify::verify_schedule`.
    pub fn check_ops(&self) -> Vec<Vec<crossmesh_check::verify::ScheduleOp>> {
        use crossmesh_check::verify::ScheduleOp;
        self.per_stage
            .iter()
            .map(|ops| {
                ops.iter()
                    .map(|op| match *op {
                        Op::Forward(m) => ScheduleOp::Forward(m as u32),
                        Op::BackwardAct(m) => ScheduleOp::BackwardAct(m as u32),
                        Op::BackwardWeight(m) => ScheduleOp::BackwardWeight(m as u32),
                    })
                    .collect()
            })
            .collect()
    }

    /// Peak number of in-flight activations on stage `s`: the maximum over
    /// time of forwards started minus activation-backwards completed. This
    /// is the multiplier on the stage's per-microbatch activation memory.
    pub fn peak_live_activations(&self, s: usize) -> usize {
        let mut live = 0isize;
        let mut peak = 0isize;
        for op in &self.per_stage[s] {
            match op {
                Op::Forward(_) => {
                    live += 1;
                    peak = peak.max(live);
                }
                Op::BackwardAct(_) => live -= 1,
                Op::BackwardWeight(_) => {}
            }
        }
        peak as usize
    }
}

/// Builds the per-stage operation order for `kind` over `num_stages` stages
/// and `num_microbatches` microbatches, with the weight-gradient halves
/// placed according to `weight_delay`.
///
/// # Example
///
/// ```
/// use crossmesh_pipeline::{build_schedule, ScheduleKind, WeightDelay};
///
/// let s = build_schedule(ScheduleKind::Eager1F1B, 4, 16, WeightDelay::None);
/// // Stage 0 runs 2*(4-0)-1 = 7 eager warmup forwards; the last stage 1.
/// assert_eq!(s.warmup(0), 7);
/// assert_eq!(s.warmup(3), 1);
/// // The price: up to 7 in-flight activations on stage 0.
/// assert_eq!(s.peak_live_activations(0), 7);
/// ```
///
/// # Panics
///
/// Panics if `num_stages` or `num_microbatches` is zero.
pub fn build_schedule(
    kind: ScheduleKind,
    num_stages: usize,
    num_microbatches: usize,
    weight_delay: WeightDelay,
) -> Schedule {
    assert!(num_stages > 0, "need at least one stage");
    assert!(num_microbatches > 0, "need at least one microbatch");
    let m = num_microbatches;
    let per_stage = (0..num_stages)
        .map(|i| {
            if kind == ScheduleKind::Inference {
                return (0..m).map(Op::Forward).collect();
            }
            let warmup = match kind {
                ScheduleKind::GPipe => m,
                ScheduleKind::OneFOneB => (num_stages - i).min(m),
                ScheduleKind::Eager1F1B => (2 * (num_stages - i) - 1).min(m),
                ScheduleKind::Inference => unreachable!("handled above"),
            };
            stage_ops(warmup, m, weight_delay.amount())
        })
        .collect();
    Schedule {
        per_stage,
        num_microbatches,
    }
}

/// Emits one stage's order: `warmup` forwards, then alternating
/// backward/forward until forwards run out, then the remaining backwards.
/// Weight-gradient ops trail their activation op by `delay` microbatches.
fn stage_ops(warmup: usize, m: usize, delay: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(3 * m);
    let mut emitted_w = 0usize;
    for f in 0..warmup {
        ops.push(Op::Forward(f));
    }
    for b in 0..m {
        ops.push(Op::BackwardAct(b));
        if b + 1 > delay && emitted_w < m {
            ops.push(Op::BackwardWeight(emitted_w));
            emitted_w += 1;
        }
        let f = warmup + b;
        if f < m {
            ops.push(Op::Forward(f));
        }
    }
    while emitted_w < m {
        ops.push(Op::BackwardWeight(emitted_w));
        emitted_w += 1;
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each stage must run every op exactly once, forwards in order,
    /// backward-act before backward-weight per microbatch.
    fn assert_valid(s: &Schedule) {
        let m = s.num_microbatches();
        for st in 0..s.num_stages() {
            let ops = s.stage_ops(st);
            assert_eq!(ops.len(), 3 * m, "stage {st} has {} ops", ops.len());
            let mut next_f = 0;
            let mut done_b = vec![false; m];
            let mut done_w = vec![false; m];
            let mut done_f = vec![false; m];
            for op in ops {
                match *op {
                    Op::Forward(f) => {
                        assert_eq!(f, next_f, "forwards out of order on stage {st}");
                        next_f += 1;
                        done_f[f] = true;
                    }
                    Op::BackwardAct(b) => {
                        assert!(done_f[b], "B{b} before F{b} on stage {st}");
                        assert!(!done_b[b]);
                        done_b[b] = true;
                    }
                    Op::BackwardWeight(w) => {
                        assert!(done_b[w], "W{w} before B{w} on stage {st}");
                        assert!(!done_w[w]);
                        done_w[w] = true;
                    }
                }
            }
            assert!(done_b.iter().all(|&x| x) && done_w.iter().all(|&x| x));
        }
    }

    /// Every built schedule also passes the static checker's hazard pass
    /// (shape, ordering, and deadlock-freedom of the stage dependency
    /// graph) via the `check_ops` bridge.
    #[test]
    fn built_schedules_pass_the_static_checker() {
        for kind in [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Eager1F1B,
            ScheduleKind::Inference,
        ] {
            for (stages, m) in [(1, 1), (2, 3), (4, 8), (3, 16)] {
                let s = build_schedule(kind, stages, m, WeightDelay::None);
                let diags = crossmesh_check::verify::verify_schedule(&s.check_ops(), m as u32);
                assert!(diags.is_empty(), "{kind} {stages}x{m}: {diags:?}");
            }
        }
    }

    #[test]
    fn all_schedules_are_valid_permutations() {
        for kind in [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Eager1F1B,
        ] {
            for stages in 1..=4 {
                for m in 1..=8 {
                    for d in [
                        WeightDelay::None,
                        WeightDelay::Fixed(1),
                        WeightDelay::Fixed(3),
                    ] {
                        assert_valid(&build_schedule(kind, stages, m, d));
                    }
                }
            }
        }
    }

    #[test]
    fn inference_is_forwards_only() {
        let s = build_schedule(ScheduleKind::Inference, 3, 5, WeightDelay::None);
        for st in 0..3 {
            let ops = s.stage_ops(st);
            assert_eq!(ops.len(), 5);
            assert!(ops.iter().all(|o| matches!(o, Op::Forward(_))));
        }
        assert_eq!(s.warmup(0), 5, "no backward ever appears");
    }

    #[test]
    fn one_f_one_b_warmup_counts() {
        let s = build_schedule(ScheduleKind::OneFOneB, 4, 8, WeightDelay::None);
        assert_eq!(s.warmup(0), 4);
        assert_eq!(s.warmup(1), 3);
        assert_eq!(s.warmup(3), 1);
    }

    #[test]
    fn eager_warmup_counts_match_paper() {
        // Stage i runs 2(#stages - i) - 1 warmup forwards (1 on the last).
        let s = build_schedule(ScheduleKind::Eager1F1B, 4, 16, WeightDelay::None);
        assert_eq!(s.warmup(0), 7);
        assert_eq!(s.warmup(1), 5);
        assert_eq!(s.warmup(2), 3);
        assert_eq!(s.warmup(3), 1);
    }

    #[test]
    fn eager_warmup_capped_by_microbatches() {
        let s = build_schedule(ScheduleKind::Eager1F1B, 4, 2, WeightDelay::None);
        assert_eq!(s.warmup(0), 2);
    }

    #[test]
    fn gpipe_runs_all_forwards_first() {
        let s = build_schedule(ScheduleKind::GPipe, 2, 4, WeightDelay::None);
        let ops = s.stage_ops(0);
        assert!(ops[..4].iter().all(|o| matches!(o, Op::Forward(_))));
        assert_eq!(s.peak_live_activations(0), 4);
    }

    #[test]
    fn memory_increase_of_eager_matches_section4() {
        // Eager stores at most (2(S-i)-1) activations vs (S-i) for 1F1B:
        // the increase is at most #stages per stage.
        let stages = 4;
        let m = 16;
        let a = build_schedule(ScheduleKind::OneFOneB, stages, m, WeightDelay::None);
        let b = build_schedule(ScheduleKind::Eager1F1B, stages, m, WeightDelay::None);
        for i in 0..stages {
            let extra = b.peak_live_activations(i) as isize - a.peak_live_activations(i) as isize;
            assert!(extra >= 0 && extra <= stages as isize);
        }
    }

    #[test]
    fn last_stage_alternates_immediately() {
        let s = build_schedule(ScheduleKind::OneFOneB, 3, 4, WeightDelay::None);
        let ops = s.stage_ops(2);
        assert_eq!(ops[0], Op::Forward(0));
        assert_eq!(ops[1], Op::BackwardAct(0));
    }

    #[test]
    fn weight_delay_moves_weight_ops_later() {
        let none = build_schedule(ScheduleKind::OneFOneB, 2, 4, WeightDelay::None);
        let delayed = build_schedule(ScheduleKind::OneFOneB, 2, 4, WeightDelay::Fixed(2));
        let pos = |s: &Schedule, st: usize| {
            s.stage_ops(st)
                .iter()
                .position(|o| *o == Op::BackwardWeight(0))
                .unwrap()
        };
        assert!(pos(&delayed, 0) > pos(&none, 0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Op::Forward(3).to_string(), "F3");
        assert_eq!(Op::BackwardAct(1).to_string(), "B1");
        assert_eq!(Op::BackwardWeight(0).to_string(), "W0");
        assert_eq!(ScheduleKind::Eager1F1B.to_string(), "eager-1f1b");
    }
}
