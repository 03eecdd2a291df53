//! Bounded model checker for the threaded runtime's dataflow programs.
//!
//! Channel dataflow in `crossmesh-runtime` is a fixed shape: one thread per
//! sender device pushing tile pieces into bounded per-destination channels,
//! one assembler thread per destination device draining its channel until
//! every sender hangs up (the threaded backend's frames still move this
//! way; the delivery engine behind `execute_plan` had this shape until its
//! lanes became pool tasks sharing only a lock per destination, which
//! leaves it nothing to deadlock on). [`Program`] is that shape as data; [`check`] is a
//! deterministic scheduler that explores *every* interleaving of a small
//! program (pruned with sleep sets, DPOR-style, and cut off at a
//! configurable transition bound) and asserts, on every path:
//!
//! * **no deadlock** — some thread can always step until all finish;
//! * **no double delivery** — no piece is ever received twice;
//! * **byte-exact delivery** — per channel, received bytes equal sent
//!   bytes, and no sent piece is lost.
//!
//! Exhaustive exploration is exponential, so this is a checker for *small*
//! programs — the point is to prove the communication skeleton (the part
//! that could deadlock or double-deliver) correct for representative
//! shapes, the way `loom` proves lock-free code correct on small cases.

use crate::{record_model_transitions, Diagnostic, Rule};
use crossmesh_mesh::UnitTask;
use crossmesh_netsim::DeviceId;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};

/// One bounded channel: delivers pieces in FIFO order, blocks senders when
/// `capacity` pieces are in flight.
#[derive(Debug, Clone, Serialize)]
pub struct Channel {
    /// Maximum number of queued pieces (must be at least 1; the real
    /// runtime uses `sync_channel(64)` per destination).
    pub capacity: usize,
}

/// One operation of one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Op {
    /// Push piece `piece` (`bytes` bytes) into channel `chan`; blocks while
    /// the channel is full.
    Send {
        /// Target channel index.
        chan: usize,
        /// Logical piece identity (a duplicate id models a double send).
        piece: u32,
        /// Payload size.
        bytes: u64,
    },
    /// Pop one piece from channel `chan`; blocks while the channel is
    /// empty and some sender of the channel is still running. When every
    /// sender has finished and the queue is empty, the receive observes
    /// hangup and the thread stops (the `while let Ok(..) = rx.recv()`
    /// loop exit).
    Recv {
        /// Source channel index.
        chan: usize,
    },
}

impl Op {
    fn chan(self) -> usize {
        match self {
            Op::Send { chan, .. } | Op::Recv { chan } => chan,
        }
    }
}

/// One thread: a name (for witness traces) and its operation sequence.
#[derive(Debug, Clone, Serialize)]
pub struct Thread {
    /// Short name used in witness traces, e.g. `send:d0` / `asm:d5`.
    pub name: String,
    /// Operations, executed in order.
    pub ops: Vec<Op>,
}

/// A whole dataflow program: channels plus threads.
#[derive(Debug, Clone, Serialize)]
pub struct Program {
    /// The bounded channels.
    pub channels: Vec<Channel>,
    /// The threads.
    pub threads: Vec<Thread>,
}

/// Exploration bound: the checker stops (reporting `truncated`) after this
/// many executed transitions across all interleavings.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Bound {
    /// Maximum transitions to execute before giving up.
    pub max_transitions: usize,
}

impl Default for Bound {
    fn default() -> Self {
        Bound {
            max_transitions: 200_000,
        }
    }
}

/// What the exploration found.
#[derive(Debug, Clone, Serialize)]
pub struct ModelReport {
    /// Complete interleavings examined (terminal states reached).
    pub interleavings: usize,
    /// Total transitions executed.
    pub transitions: usize,
    /// True if the transition bound cut exploration short.
    pub truncated: bool,
    /// Property violations, each with a witness interleaving in the
    /// explanation. Deduplicated by rule + location.
    pub violations: Vec<Diagnostic>,
}

struct Explorer<'p> {
    program: &'p Program,
    bound: Bound,
    interleavings: usize,
    transitions: usize,
    truncated: bool,
    violations: Vec<Diagnostic>,
    /// Total sends of each piece id in the program text (path-independent:
    /// every op of every thread eventually runs unless blocked forever,
    /// and a blocked thread is a reported deadlock).
    sends_per_piece: BTreeMap<u32, usize>,
}

#[derive(Clone)]
struct State {
    /// Per-channel FIFO of (piece, bytes).
    queues: Vec<VecDeque<(u32, u64)>>,
    /// Per-thread program counter.
    pc: Vec<usize>,
    /// Threads that stopped early after observing hangup.
    stopped: Vec<bool>,
    /// Per-piece delivered count.
    delivered: BTreeMap<u32, usize>,
    /// Per-channel (sent, received) byte totals.
    bytes: Vec<(u64, u64)>,
    /// Executed transition names, for witness traces.
    trace: Vec<String>,
}

impl<'p> Explorer<'p> {
    fn thread_done(&self, st: &State, t: usize) -> bool {
        st.stopped[t] || st.pc[t] >= self.program.threads[t].ops.len()
    }

    /// True if every thread that still has a `Send` on `chan` ahead of its
    /// program counter is unable to ever reach it... conservatively: a
    /// channel is hung up when every thread containing a send on it has
    /// finished. (Matches the runtime, where each sender thread holds a
    /// clone of the channel's tx for its whole lifetime.)
    fn hung_up(&self, st: &State, chan: usize) -> bool {
        self.program.threads.iter().enumerate().all(|(t, th)| {
            self.thread_done(st, t)
                || !th
                    .ops
                    .iter()
                    .any(|o| matches!(o, Op::Send { chan: c, .. } if *c == chan))
        })
    }

    fn enabled(&self, st: &State, t: usize) -> bool {
        if self.thread_done(st, t) {
            return false;
        }
        match self.program.threads[t].ops[st.pc[t]] {
            Op::Send { chan, .. } => st.queues[chan].len() < self.program.channels[chan].capacity,
            Op::Recv { chan } => !st.queues[chan].is_empty() || self.hung_up(st, chan),
        }
    }

    /// Executes thread `t`'s next op on a copy of `st`.
    fn step(&mut self, st: &State, t: usize) -> State {
        let mut next = st.clone();
        let op = self.program.threads[t].ops[st.pc[t]];
        match op {
            Op::Send { chan, piece, bytes } => {
                next.queues[chan].push_back((piece, bytes));
                next.bytes[chan].0 += bytes;
                next.trace.push(format!(
                    "{}:send(c{chan},p{piece})",
                    self.program.threads[t].name
                ));
                next.pc[t] += 1;
            }
            Op::Recv { chan } => {
                if let Some((piece, bytes)) = next.queues[chan].pop_front() {
                    *next.delivered.entry(piece).or_insert(0) += 1;
                    next.bytes[chan].1 += bytes;
                    next.trace.push(format!(
                        "{}:recv(c{chan},p{piece})",
                        self.program.threads[t].name
                    ));
                    next.pc[t] += 1;
                } else {
                    // Hangup observed: the assembler loop exits.
                    next.trace
                        .push(format!("{}:hangup(c{chan})", self.program.threads[t].name));
                    next.stopped[t] = true;
                }
            }
        }
        self.transitions += 1;
        next
    }

    fn report(&mut self, rule: Rule, location: String, explanation: String) {
        if self
            .violations
            .iter()
            .any(|d| d.rule == rule && d.location == location)
        {
            return;
        }
        if self.violations.len() < 32 {
            self.violations
                .push(Diagnostic::error(rule, location, explanation));
        }
    }

    fn check_terminal(&mut self, st: &State) {
        self.interleavings += 1;
        let witness = || st.trace.join(" ; ");
        let pieces: Vec<(u32, usize)> =
            self.sends_per_piece.iter().map(|(&p, &s)| (p, s)).collect();
        for (piece, sent) in pieces {
            let got = st.delivered.get(&piece).copied().unwrap_or(0);
            if got > 1 || got > sent {
                self.report(
                    Rule::ModelDoubleDelivery,
                    format!("piece {piece}"),
                    format!("delivered {got} times (sent {sent}): {}", witness()),
                );
            } else if got < sent {
                self.report(
                    Rule::ModelLost,
                    format!("piece {piece}"),
                    format!("sent {sent} time(s) but delivered {got}: {}", witness()),
                );
            }
        }
        for (c, &(sent, recvd)) in st.bytes.iter().enumerate() {
            if sent != recvd {
                self.report(
                    Rule::ModelBytes,
                    format!("channel {c}"),
                    format!("{sent} bytes sent but {recvd} received: {}", witness()),
                );
            }
        }
    }

    fn check_deadlock(&mut self, st: &State) {
        let blocked: Vec<String> = (0..self.program.threads.len())
            .filter(|&t| !self.thread_done(st, t))
            .map(|t| {
                let th = &self.program.threads[t];
                let op = th.ops[st.pc[t]];
                let kind = match op {
                    Op::Send { .. } => "send",
                    Op::Recv { .. } => "recv",
                };
                format!("{} blocked in {kind} on c{}", th.name, op.chan())
            })
            .collect();
        self.report(
            Rule::ModelDeadlock,
            "program".to_string(),
            format!(
                "all unfinished threads block forever ({}): after {}",
                blocked.join(", "),
                st.trace.join(" ; ")
            ),
        );
    }

    /// DFS with sleep sets. `sleep` is a bitmask of threads whose next
    /// transition is provably covered by a sibling exploration.
    fn explore(&mut self, st: &State, sleep: u64) {
        if self.truncated {
            return;
        }
        if self.transitions >= self.bound.max_transitions {
            self.truncated = true;
            return;
        }
        let enabled: Vec<usize> = (0..self.program.threads.len())
            .filter(|&t| self.enabled(st, t))
            .collect();
        if enabled.is_empty() {
            if (0..self.program.threads.len()).all(|t| self.thread_done(st, t)) {
                self.check_terminal(st);
            } else {
                self.check_deadlock(st);
            }
            return;
        }
        let mut sleep = sleep;
        for &t in &enabled {
            if sleep & (1 << t) != 0 {
                continue;
            }
            let op = self.program.threads[t].ops[st.pc[t]];
            // Wake sleeping threads whose next op touches the same channel
            // (dependent transitions do not commute).
            let mut child_sleep = 0u64;
            for u in 0..self.program.threads.len() {
                if sleep & (1 << u) == 0 || self.thread_done(st, u) {
                    continue;
                }
                let other = self.program.threads[u].ops[st.pc[u]];
                if other.chan() != op.chan() {
                    child_sleep |= 1 << u;
                }
            }
            let next = self.step(st, t);
            self.explore(&next, child_sleep);
            if self.truncated {
                return;
            }
            sleep |= 1 << t;
        }
    }
}

/// Explores every interleaving of `program` up to `bound` and reports all
/// property violations found, each with a witness schedule.
///
/// # Panics
///
/// Panics if the program has more than 64 threads, a channel with zero
/// capacity, or an op referencing a channel that does not exist.
pub fn check(program: &Program, bound: Bound) -> ModelReport {
    assert!(
        program.threads.len() <= 64,
        "model checker supports at most 64 threads"
    );
    for (i, c) in program.channels.iter().enumerate() {
        assert!(c.capacity >= 1, "channel {i} must have capacity >= 1");
    }
    let mut sends_per_piece: BTreeMap<u32, usize> = BTreeMap::new();
    for th in &program.threads {
        for op in &th.ops {
            assert!(
                op.chan() < program.channels.len(),
                "op references unknown channel {}",
                op.chan()
            );
            if let Op::Send { piece, .. } = op {
                *sends_per_piece.entry(*piece).or_insert(0) += 1;
            }
        }
    }
    let mut ex = Explorer {
        program,
        bound,
        interleavings: 0,
        transitions: 0,
        truncated: false,
        violations: Vec::new(),
        sends_per_piece,
    };
    let init = State {
        queues: vec![VecDeque::new(); program.channels.len()],
        pc: vec![0; program.threads.len()],
        stopped: vec![false; program.threads.len()],
        delivered: BTreeMap::new(),
        bytes: vec![(0, 0); program.channels.len()],
        trace: Vec::new(),
    };
    ex.explore(&init, 0);
    record_model_transitions(ex.transitions as u64);
    crate::record_run("check.model", &ex.violations);
    ModelReport {
        interleavings: ex.interleavings,
        transitions: ex.transitions,
        truncated: ex.truncated,
        violations: ex.violations,
    }
}

/// Builds the dataflow program the threaded runtime would run for a plan:
/// one bounded channel per destination device, one thread per sender
/// device pushing its assigned units' pieces in plan order, and one
/// assembler thread per destination receiving until hangup.
///
/// Piece ids are the logical (unit, receiver) identity, so a plan that
/// schedules a unit twice yields a program the checker convicts of double
/// delivery.
pub fn program_from_plan(
    units: &[UnitTask],
    assignments: &[crate::verify::AssignmentView],
    channel_capacity: usize,
) -> Program {
    // Channel per destination device, in device order.
    let mut chan_of: BTreeMap<DeviceId, usize> = BTreeMap::new();
    for a in assignments {
        let Some(unit) = units.get(a.unit) else {
            continue;
        };
        for r in &unit.receivers {
            let next = chan_of.len();
            chan_of.entry(r.device).or_insert(next);
        }
    }
    // Piece id per (unit, receiver position).
    let piece_id = |unit: usize, r: usize| -> u32 { ((unit as u32) << 8) | (r as u32 & 0xff) };

    // Sender threads grouped by sender device, pieces in plan order.
    let mut per_sender: BTreeMap<DeviceId, Vec<Op>> = BTreeMap::new();
    let mut expected: BTreeMap<usize, usize> = BTreeMap::new();
    for a in assignments {
        let Some(unit) = units.get(a.unit) else {
            continue;
        };
        let ops = per_sender.entry(a.sender).or_default();
        for (ri, r) in unit.receivers.iter().enumerate() {
            let chan = chan_of[&r.device];
            ops.push(Op::Send {
                chan,
                piece: piece_id(a.unit, ri),
                bytes: r.needed.volume(),
            });
            *expected.entry(chan).or_insert(0) += 1;
        }
    }

    let mut threads: Vec<Thread> = per_sender
        .into_iter()
        .map(|(d, ops)| Thread {
            name: format!("send:{d}"),
            ops,
        })
        .collect();
    for (device, &chan) in &chan_of {
        let n = expected.get(&chan).copied().unwrap_or(0);
        threads.push(Thread {
            name: format!("asm:{device}"),
            // One extra recv to observe hangup, like the runtime's
            // `while let Ok(piece) = rx.recv()` loop.
            ops: vec![Op::Recv { chan }; n + 1],
        });
    }
    Program {
        channels: vec![
            Channel {
                capacity: channel_capacity
            };
            chan_of.len()
        ],
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::AssignmentView;
    use crossmesh_collectives::Strategy;
    use crossmesh_mesh::{Receiver, Tile};
    use crossmesh_netsim::HostId;

    fn send(chan: usize, piece: u32) -> Op {
        Op::Send {
            chan,
            piece,
            bytes: 8,
        }
    }

    #[test]
    fn clean_fan_in_program_verifies() {
        // Two senders fan into one assembler.
        let p = Program {
            channels: vec![Channel { capacity: 2 }],
            threads: vec![
                Thread {
                    name: "send:a".into(),
                    ops: vec![send(0, 0), send(0, 1)],
                },
                Thread {
                    name: "send:b".into(),
                    ops: vec![send(0, 2)],
                },
                Thread {
                    name: "asm".into(),
                    ops: vec![Op::Recv { chan: 0 }; 4],
                },
            ],
        };
        let r = check(&p, Bound::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(!r.truncated);
        assert!(r.interleavings > 1, "multiple interleavings explored");
    }

    #[test]
    fn seeded_deadlock_interleaving_is_caught() {
        // Two threads flood each other's full channel and only then would
        // drain: every interleaving wedges with both blocked in send.
        let p = Program {
            channels: vec![Channel { capacity: 1 }, Channel { capacity: 1 }],
            threads: vec![
                Thread {
                    name: "t0".into(),
                    ops: vec![send(0, 0), send(0, 1), Op::Recv { chan: 1 }],
                },
                Thread {
                    name: "t1".into(),
                    ops: vec![send(1, 2), send(1, 3), Op::Recv { chan: 0 }],
                },
            ],
        };
        let r = check(&p, Bound::default());
        assert!(
            r.violations.iter().any(|d| d.rule == Rule::ModelDeadlock),
            "{:?}",
            r.violations
        );
        let dl = r
            .violations
            .iter()
            .find(|d| d.rule == Rule::ModelDeadlock)
            .expect("deadlock diagnostic");
        assert!(dl.explanation.contains("blocked in send"), "{dl}");
    }

    #[test]
    fn double_send_is_convicted_of_double_delivery() {
        let p = Program {
            channels: vec![Channel { capacity: 4 }],
            threads: vec![
                Thread {
                    name: "send:a".into(),
                    ops: vec![send(0, 7), send(0, 7)],
                },
                Thread {
                    name: "asm".into(),
                    ops: vec![Op::Recv { chan: 0 }; 3],
                },
            ],
        };
        let r = check(&p, Bound::default());
        assert!(
            r.violations
                .iter()
                .any(|d| d.rule == Rule::ModelDoubleDelivery),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn undrained_piece_is_reported_lost() {
        // The assembler exits after one recv; the second piece rots in the
        // queue on some path. (Queue non-empty => recv stays enabled, so
        // the loss shows as the assembler consuming 1 of 2 and stopping.)
        let p = Program {
            channels: vec![Channel { capacity: 2 }],
            threads: vec![
                Thread {
                    name: "send:a".into(),
                    ops: vec![send(0, 0), send(0, 1)],
                },
                Thread {
                    name: "asm".into(),
                    ops: vec![Op::Recv { chan: 0 }],
                },
            ],
        };
        let r = check(&p, Bound::default());
        assert!(
            r.violations.iter().any(|d| d.rule == Rule::ModelLost),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn truncation_reports_honestly() {
        let p = Program {
            channels: vec![Channel { capacity: 8 }],
            threads: (0..6)
                .map(|i| Thread {
                    name: format!("t{i}"),
                    ops: vec![send(0, i), send(0, 16 + i)],
                })
                .chain(std::iter::once(Thread {
                    name: "asm".into(),
                    ops: vec![Op::Recv { chan: 0 }; 13],
                }))
                .collect(),
        };
        let r = check(
            &p,
            Bound {
                max_transitions: 50,
            },
        );
        assert!(r.truncated);
    }

    #[test]
    fn plan_programs_mirror_the_runtime_shape() {
        let slice = Tile::new([0..2, 0..2]);
        let units = vec![UnitTask {
            index: 0,
            slice: slice.clone(),
            bytes: slice.volume(),
            senders: vec![(DeviceId(0), HostId(0))],
            receivers: vec![
                Receiver {
                    device: DeviceId(4),
                    host: HostId(1),
                    needed: Tile::new([0..2, 0..1]),
                },
                Receiver {
                    device: DeviceId(5),
                    host: HostId(1),
                    needed: Tile::new([0..2, 1..2]),
                },
            ],
        }];
        let a = AssignmentView {
            unit: 0,
            sender: DeviceId(0),
            sender_host: HostId(0),
            strategy: Strategy::SendRecv,
        };
        let p = program_from_plan(&units, std::slice::from_ref(&a), 2);
        assert_eq!(p.channels.len(), 2);
        assert_eq!(p.threads.len(), 3); // 1 sender + 2 assemblers
        let r = check(&p, Bound::default());
        assert!(r.violations.is_empty(), "{:?}", r.violations);

        // A duplicated assignment double-delivers every piece.
        let dup = vec![a.clone(), a];
        let p = program_from_plan(&units, &dup, 2);
        let r = check(&p, Bound::default());
        assert!(r
            .violations
            .iter()
            .any(|d| d.rule == Rule::ModelDoubleDelivery));
    }
}
