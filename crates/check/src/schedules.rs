//! Seeded schedule fuzzing: deterministic interleaving perturbation with
//! equivalence oracles re-run every round.
//!
//! The real concurrent programs (the threads backend, the dataplane, the
//! MoE all-to-all, the serve worker pool) are far too large to enumerate
//! every interleaving of, so this module samples them instead: the
//! `crossmesh-hb` seam turns every lock, channel, and pool operation into
//! a preemption point, and [`sweep`] re-runs a workload under a range of
//! perturbation seeds. Each seed yields a different — but reproducible —
//! interleaving: the per-thread RNG is derived from `(seed, thread)`, so
//! a convicting seed replays.
//!
//! The workload closure owns its own arming (e.g.
//! [`race::run_defect`](crate::race::run_defect) /
//! [`race::run_clean`](crate::race::run_clean) arm the detector and the
//! fuzzer per call) and reports per-seed diagnostics plus an oracle
//! verdict; the sweep aggregates. The fuzzer checks the *real* programs
//! under *many* schedules rather than a model of them under all.

use crate::Diagnostic;

/// What one seed produced.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// The perturbation seed this round ran under.
    pub seed: u64,
    /// Diagnostics the round surfaced (race findings, typically).
    pub diagnostics: Vec<Diagnostic>,
    /// `Some(reason)` when the byte-identical equivalence oracle failed.
    pub oracle_failure: Option<String>,
}

/// Aggregate of a seed sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Per-seed outcomes, in seed order.
    pub outcomes: Vec<SeedOutcome>,
}

impl SweepReport {
    /// Seeds whose equivalence oracle failed.
    pub fn oracle_failures(&self) -> Vec<u64> {
        self.outcomes
            .iter()
            .filter(|o| o.oracle_failure.is_some())
            .map(|o| o.seed)
            .collect()
    }

    /// Total diagnostics across all seeds.
    pub fn total_findings(&self) -> usize {
        self.outcomes.iter().map(|o| o.diagnostics.len()).sum()
    }
}

/// Runs `workload` once per seed in `[base_seed, base_seed + seeds)` and
/// aggregates the outcomes. The closure receives the seed and returns the
/// round's diagnostics plus an oracle verdict; panics inside the workload
/// are caught and reported as oracle failures so one bad seed does not
/// hide the rest of the sweep.
pub fn sweep<F>(base_seed: u64, seeds: u64, mut workload: F) -> SweepReport
where
    F: FnMut(u64) -> (Vec<Diagnostic>, Option<String>),
{
    let mut report = SweepReport::default();
    for seed in base_seed..base_seed.saturating_add(seeds) {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| workload(seed)));
        let (diagnostics, oracle_failure) = match outcome {
            Ok(pair) => pair,
            Err(payload) => {
                let reason = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "workload panicked".to_string());
                (Vec::new(), Some(reason))
            }
        };
        report.outcomes.push(SeedOutcome {
            seed,
            diagnostics,
            oracle_failure,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::race::{run_clean, run_defect, Defect};

    /// Seeds that produced at least one diagnostic.
    fn convicting_seeds(report: &SweepReport) -> Vec<u64> {
        report
            .outcomes
            .iter()
            .filter(|o| !o.diagnostics.is_empty())
            .map(|o| o.seed)
            .collect()
    }

    #[test]
    fn sweep_visits_every_seed_in_order() {
        let mut seen = Vec::new();
        let report = sweep(5, 4, |seed| {
            seen.push(seed);
            (Vec::new(), None)
        });
        assert_eq!(seen, vec![5, 6, 7, 8]);
        assert_eq!(report.outcomes.len(), 4);
        assert!(convicting_seeds(&report).is_empty());
        assert!(report.oracle_failures().is_empty());
    }

    #[test]
    fn panicking_rounds_surface_as_oracle_failures() {
        let report = sweep(0, 3, |seed| {
            if seed == 1 {
                panic!("oracle diverged");
            }
            (Vec::new(), None)
        });
        assert_eq!(report.oracle_failures(), vec![1]);
        assert!(report.outcomes[1]
            .oracle_failure
            .as_deref()
            .unwrap_or_default()
            .contains("oracle diverged"));
    }

    #[test]
    fn defect_sweep_convicts_every_seed() {
        let report = sweep(0, 8, |seed| {
            (run_defect(Defect::UnsyncBufferWrite, seed), None)
        });
        assert_eq!(
            convicting_seeds(&report),
            (0..8).collect::<Vec<_>>(),
            "{report:?}"
        );
        assert!(report.total_findings() >= 8);
    }

    #[test]
    fn clean_sweep_stays_silent() {
        let report = sweep(0, 4, |seed| (run_clean(4, seed), None));
        assert_eq!(convicting_seeds(&report), Vec::<u64>::new());
        assert!(report.oracle_failures().is_empty());
    }
}
