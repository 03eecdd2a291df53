//! Reproduction harnesses for every table and figure in the paper's
//! evaluation (§5). Each `figN`/`tableN` module exposes a `run()` that
//! regenerates the corresponding rows/series on the flow-level simulator;
//! the `repro_*` binaries print them. Every number that is deterministic
//! (simulated time, byte counts, work counters) is pinned exactly by one
//! golden file, `BENCH_paper.json` ([`paper`], `tests/paper_golden.rs`);
//! wall clock is judged by `benchmark/` alone, and the five wall-clock
//! harnesses below only leave ungated `BENCH_*.json` records behind.
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
//! | [`paper`] | the golden document: every section above plus `planner_work`, and the path-naming diff |
//! | [`planner`] | record — planner wall-clock vs pool width + plan cache; its work counters are golden (`BENCH_planner.json`) |
//! | [`check_overhead`] | record — static-verifier cost next to the planning it guards (`BENCH_check.json`) |
//! | [`obs_overhead`] | record — observability overhead with collectors on/off (`BENCH_obs.json`) |
//! | [`netsim`] | record — incremental engine vs frozen reference + 10k-host GPT sweep (`BENCH_netsim.json`) |
//! | [`race`] | record — happens-before race-detector overhead, conviction sweep, clean-suite silence (`BENCH_race.json`) |
//!
//! Simulated numbers are not the paper's wall-clock numbers — the substrate
//! is a simulator, not the authors' AWS cluster — but the *shapes* (who
//! wins, by what factor, where the crossovers sit) are the reproduction
//! targets, recorded in `EXPERIMENTS.md`.

pub mod ablations;
pub mod cases;
pub mod check_overhead;
pub mod faults;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod hostenv;
pub mod moe;
pub mod netsim;
pub mod obs_overhead;
pub mod paper;
pub mod planner;
pub mod race;
pub mod repro;
pub mod table1;
pub mod table_fmt;

pub use repro::{report_main, repro_main, section};
