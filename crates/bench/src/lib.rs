//! Reproduction harnesses for every table and figure in the paper's
//! evaluation (§5). Each `figN`/`tableN` module exposes a `run()` that
//! regenerates the corresponding rows/series on the flow-level simulator;
//! the one binary, `repro_all`, prints them (all, or the sections named on
//! its command line). Every number this crate produces is deterministic
//! (simulated time, byte counts, work counters) and is pinned exactly by one
//! golden file, `BENCH_paper.json` ([`paper`], `tests/paper_golden.rs`). The
//! crate reads no clock (`lint.wall-clock` enforces it): wall time is judged
//! by `benchmark/` alone.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — GPT-3 layer memory breakdown |
//! | [`fig5`] | Figure 5 — single-device → multi-device microbenchmark |
//! | [`fig6`] | Figure 6 (+ Table 2) — multi-device → multi-device cases |
//! | [`fig7`] | Figure 7 (+ Table 3) — end-to-end GPT / U-Transformer |
//! | [`fig8`] | Figure 8 — load-balance ablation |
//! | [`fig9`] | Figure 9 — overlap-friendly schedule ablation |
//! | [`ablations`] | extension — design-choice sweeps (chunk count, DFS budget, permutations, weight delay, scale) |
//! | [`faults`] | extension — throughput vs injected fault rate (not in the paper) |
//! | [`moe`] | extension — MoE all-to-all strategies across fabrics and gate skews (not in the paper) |
//! | [`planner`] | `planner_work` — estimate, greedy visits and DFS nodes of one `plan()` per (case, planner) |
//! | [`netsim`] | `netsim_work` — engine counters and makespan of a GPT iteration at 64 – 1,024 hosts |
//! | [`obs_overhead`], [`race`] | `observer_work` — collector events and flight-recorder records per plan, seam events per armed all-to-all |
//! | [`paper`] | the golden document: every section above, and the path-naming diff |
//!
//! Simulated numbers are not the paper's wall-clock numbers — the substrate
//! is a simulator, not the authors' AWS cluster — but the *shapes* (who
//! wins, by what factor, where the crossovers sit) are the reproduction
//! targets, recorded in `EXPERIMENTS.md`.

pub mod ablations;
pub mod cases;
pub mod faults;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod moe;
pub mod netsim;
pub mod obs_overhead;
pub mod paper;
pub mod planner;
pub mod race;
pub mod table1;
pub mod table_fmt;
