//! Host environment detection for honest benchmark reports.
//!
//! Every wall-clock record (`BENCH_{planner,check,obs,netsim,race}.json`)
//! embeds a [`HostEnv`] so a reader can tell a flat speedup curve on a
//! 1-core CI runner from a real scaling failure, and so two reports are
//! never compared across different hosts by accident. [`HostEnv::oversubscription_warning`] produces the warning
//! harnesses print when a sweep requests more pool threads than the host
//! can actually run in parallel — the measurements still run (the grid
//! stays comparable across hosts), but the numbers for those widths
//! measure scheduler interleaving, not parallel speedup.

use serde::{Deserialize, Serialize};

/// The measuring host, as recorded in every benchmark report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostEnv {
    /// `std::thread::available_parallelism()` — the ceiling for any
    /// honest parallel speedup on this host.
    pub host_threads: usize,
    /// The `CROSSMESH_THREADS` override, when set (it caps the default
    /// rayon pool, so sweeps that do not build their own pools inherit it).
    pub crossmesh_threads: Option<String>,
    /// Build profile the harness ran under (`debug` timings are not
    /// comparable to `release` ones).
    pub profile: String,
    /// `os/arch`, e.g. `linux/x86_64`.
    pub platform: String,
}

impl HostEnv {
    /// Detects the current host.
    pub fn detect() -> HostEnv {
        HostEnv {
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            crossmesh_threads: std::env::var("CROSSMESH_THREADS").ok(),
            profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
            platform: format!("{}/{}", std::env::consts::OS, std::env::consts::ARCH),
        }
    }

    /// Whether a requested pool width exceeds the host's real parallelism.
    pub fn oversubscribed(&self, requested: usize) -> bool {
        requested > self.host_threads
    }

    /// A speedup figure the host can actually vouch for: `Some(speedup)`
    /// when `requested` pool threads genuinely run in parallel here,
    /// `None` when the width is oversubscribed — in that regime the ratio
    /// measures scheduler interleaving, and reporting it as a speedup
    /// would let a 1-core CI runner publish fictional scaling numbers.
    pub fn reliable_speedup(&self, requested: usize, speedup: f64) -> Option<f64> {
        (!self.oversubscribed(requested)).then_some(speedup)
    }

    /// The warning to attach to a report (and print to stderr) when a
    /// sweep requests `requested` pool threads, or `None` if the host can
    /// genuinely run them in parallel.
    pub fn oversubscription_warning(&self, requested: usize) -> Option<String> {
        self.oversubscribed(requested).then(|| {
            format!(
                "requested pool width {requested} exceeds host parallelism \
                 {}; timings at this width measure interleaving, not speedup",
                self.host_threads
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_reports_at_least_one_thread() {
        let env = HostEnv::detect();
        assert!(env.host_threads >= 1);
        assert!(env.platform.contains('/'));
        assert!(env.profile == "debug" || env.profile == "release");
    }

    #[test]
    fn oversubscription_is_flagged_past_the_host_width() {
        let env = HostEnv {
            host_threads: 2,
            crossmesh_threads: None,
            profile: "debug".into(),
            platform: "test/test".into(),
        };
        assert!(!env.oversubscribed(1));
        assert!(!env.oversubscribed(2));
        assert!(env.oversubscribed(3));
        let warn = env.oversubscription_warning(8).expect("warns");
        assert!(warn.contains("8") && warn.contains("2"), "{warn}");
        assert!(env.oversubscription_warning(2).is_none());
    }

    #[test]
    fn reliable_speedup_refuses_oversubscribed_widths() {
        let env = HostEnv {
            host_threads: 2,
            crossmesh_threads: None,
            profile: "debug".into(),
            platform: "test/test".into(),
        };
        assert_eq!(env.reliable_speedup(2, 1.8), Some(1.8));
        assert_eq!(env.reliable_speedup(4, 3.5), None);
    }

    #[test]
    fn host_env_round_trips_through_json() {
        let env = HostEnv::detect();
        let text = serde_json::to_string(&env).expect("serializes");
        let back: HostEnv = serde_json::from_str(&text).expect("parses");
        assert_eq!(env, back);
    }
}
