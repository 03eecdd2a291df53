//! The benchmark's metric tables — the same names, units, directions and
//! bounds as `BENCHMARK.json` (a unit test holds the two together) — and
//! the report every workload fills in.

use crate::spans::Span;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// How much worse the metric may get before it counts as a
    /// regression: a share of the parent's median, or, when `absolute`,
    /// a difference in the metric's own unit.
    pub bound: f64,
    pub absolute: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        absolute: false,
    }
}

/// The bounds are sized from CALIBRATION.md by the driver's rule (a spread
/// between runs of the same code of at most a third of the bound where the
/// host allows it, and never a bound above a quarter), not the tenth the
/// issue hoped for: the CPU-bound pairs do not repeat within a tenth on a
/// shared host, whatever the benchmark does. `ok_frac`'s 0.01 is absolute,
/// as in the issue; `BENCHMARK.json` can only say "share of the median",
/// which for a ratio at or below 1 is the stricter reading.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_rps", "1/s", Better::Higher, 0.15),
    e2e("op_p50_ms", "ms", Better::Lower, 0.15),
    e2e("op_p95_ms", "ms", Better::Lower, 0.25),
    EndToEnd {
        absolute: true,
        ..e2e("ok_frac", "ratio", Better::Higher, 0.01)
    },
    e2e("peak_rss_mb", "MB", Better::Lower, 0.1),
    e2e("sim_makespan_geomean_ms", "ms", Better::Lower, 0.001),
];

/// Per-layer metrics, grouped by layer (crate) name. Every traced run
/// reports every one; a layer a workload never enters reports 0.
pub const PER_LAYER: [(&str, &str, Better); 55] = [
    ("wire.residual_ms.p50", "ms", Better::Lower),
    ("wire.residual_ms.p95", "ms", Better::Lower),
    ("proto.encode_us", "us", Better::Lower),
    ("proto.decode_us", "us", Better::Lower),
    ("proto.request_bytes", "bytes", Better::Lower),
    ("proto.reply_bytes", "bytes", Better::Lower),
    ("server.queue_ms.p50", "ms", Better::Lower),
    ("server.queue_ms.p95", "ms", Better::Lower),
    ("admission.shed_ratio", "ratio", Better::Lower),
    ("admission.rate_limited", "count", Better::Lower),
    ("admission.queue_full", "count", Better::Lower),
    ("admission.victim_shed_ratio", "ratio", Better::Lower),
    ("mesh.build_us", "us", Better::Lower),
    ("mesh.unit_tasks", "count", Better::Lower),
    ("cache.hit_us", "us", Better::Lower),
    ("cache.miss_overhead_us", "us", Better::Lower),
    ("cache.hit_ratio", "ratio", Better::Higher),
    ("cache.entries", "count", Better::Lower),
    ("server.plan_ms.p50", "ms", Better::Lower),
    ("server.plan_ms.p95", "ms", Better::Lower),
    ("planner.ensemble_ms", "ms", Better::Lower),
    ("planner.dfs_ms", "ms", Better::Lower),
    ("planner.greedy_ms", "ms", Better::Lower),
    ("planner.gap_ratio", "ratio", Better::Lower),
    ("check.verify_us", "us", Better::Lower),
    ("server.convictions", "count", Better::Lower),
    ("lower.lower_us", "us", Better::Lower),
    ("lower.graph_tasks", "count", Better::Lower),
    ("netsim.execute_us", "us", Better::Lower),
    ("netsim.events", "count", Better::Lower),
    ("server.exec_ms.p50", "ms", Better::Lower),
    ("server.exec_ms.p95", "ms", Better::Lower),
    ("netsim.scale_ms", "ms", Better::Lower),
    ("netsim.scale_events", "count", Better::Lower),
    ("netsim.events_per_s", "1/s", Better::Higher),
    ("runtime.threads_ms", "ms", Better::Lower),
    ("runtime.mbytes_per_s", "MB/s", Better::Higher),
    ("dataplane.reference_ms", "ms", Better::Lower),
    ("moe.threaded_ms", "ms", Better::Lower),
    ("pipeline.simulate_ms", "ms", Better::Lower),
    ("pipeline.cache_hit_ratio", "ratio", Better::Higher),
    ("pipeline.iter_speedup_geomean", "ratio", Better::Higher),
    ("moe.a2a_plan_ms", "ms", Better::Lower),
    ("moe.a2a_sim_ms", "ms", Better::Lower),
    ("paper.plan_ms", "ms", Better::Lower),
    ("paper.execute_ms", "ms", Better::Lower),
    ("paper.speedup_vs_sendrecv_geomean", "ratio", Better::Higher),
    ("paper.speedup_vs_alpa_geomean", "ratio", Better::Higher),
    ("loadgen.late_ms.p95", "ms", Better::Lower),
    ("replay.requests", "count", Better::Higher),
    ("replay.coverage", "ratio", Better::Higher),
    ("trace.spans", "count", Better::Higher),
    ("trace.op_rps", "1/s", Better::Higher),
    ("trace.overhead_frac", "ratio", Better::Lower),
    ("e2e.op_p99_ms", "ms", Better::Lower),
];

/// Named values, in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: usize,
    /// Ops answered correctly.
    pub ok: usize,
    /// Ops refused exactly as the admission contract says they must be
    /// (`serve_open`'s over-rate tenant); neither ok nor failed.
    pub shed_by_design: usize,
    /// Everything else: errors, timeouts, wrong answers, wrongful sheds.
    pub failed: usize,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Latency samples behind `op_p50_ms` / `op_p95_ms`.
    pub samples: usize,
    /// Samples beyond the reported tail percentile.
    pub tail_beyond: usize,
    pub checkpoint: usize,
    pub checkpoint_reached: bool,
    pub end_to_end: Values,
    /// Filled by traced runs only.
    pub per_layer: Values,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// A run is correct when nothing failed and something ran.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.ok > 0
    }

    /// Fills the latency and throughput metrics from the correct ops of
    /// a timed phase `phase_s` long: `(completion time in seconds since
    /// the phase began, latency in ms)` each.
    pub fn set_latencies(&mut self, samples: &[(f64, f64)], phase_s: f64, pace: Pace) {
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let (kept, op_rps) = match pace {
            Pace::Closed { clients } => {
                let kept = stats::quiet_half(samples, phase_s);
                let busy_s = kept.iter().sum::<f64>() / 1e3;
                let op_rps = clients as f64 * kept.len() as f64 / busy_s;
                (kept, op_rps)
            }
            Pace::Open { elapsed_s } => (all.clone(), all.len() as f64 / elapsed_s),
        };
        let sorted = stats::sorted(&kept);
        let tail = stats::tail(&sorted, 0.95);
        self.samples = sorted.len();
        self.tail_beyond = tail.beyond;
        self.end_to_end.set("op_rps", op_rps);
        self.end_to_end
            .set("op_p50_ms", stats::percentile(&sorted, 0.5).value);
        self.end_to_end.set("op_p95_ms", tail.value);
        self.end_to_end
            .set("ok_frac", self.ok as f64 / self.attempted.max(1) as f64);
        self.per_layer.set("trace.op_rps", op_rps);
        // p99 needs a thousand samples to have ten beyond it.
        let all = stats::sorted(&all);
        self.per_layer.set(
            "e2e.op_p99_ms",
            if all.len() >= 1000 {
                stats::percentile(&all, 0.99).value
            } else {
                0.0
            },
        );
    }
}

/// How a workload issues its ops, which decides how a run is summed up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// `clients` callers, each starting its next op when the previous one
    /// ended: the closed loops' connections, `offline_round`'s one thread.
    /// Every slice of the run does the same work, so the latencies are
    /// those of the quieter half of the run ([`stats::quiet_half`]), and
    /// `op_rps` is what the clients complete per second of *waiting*:
    /// `clients × ops / summed latency`. The time a client spends between
    /// ops (the closed loops' think time) is the generator's, not the
    /// program's, and is left out.
    Closed { clients: usize },
    /// Ops sent on a schedule. The slices of the run differ by schedule,
    /// not by host, so every op counts; `op_rps` is correct ops over the
    /// phase's length, first send to last reply.
    Open { elapsed_s: f64 },
}

/// Set-ups a run makes besides its own, for timing only.
const SPARE_SETUPS: usize = 4;

/// `setup_s`: the median of the run's own set-up (`first_s`, counted from
/// process start) and [`SPARE_SETUPS`] more, each made by `set_up`, timed,
/// and handed to `tear_down` untimed. The spares are made after the
/// measured phase, so that the memory that phase is charged with
/// (`peak_rss_mb`) is one set-up's and not five's.
pub fn setup_seconds<T>(
    first_s: f64,
    mut set_up: impl FnMut() -> Result<T, String>,
    mut tear_down: impl FnMut(T),
) -> Result<f64, String> {
    let mut seconds = vec![first_s];
    for _ in 0..SPARE_SETUPS {
        let began = std::time::Instant::now();
        let spare = set_up()?;
        seconds.push(began.elapsed().as_secs_f64());
        tear_down(spare);
    }
    Ok(stats::median(&seconds))
}

/// p50 and the supported tail of `values` under `prefix.p50`/`prefix.p95`.
pub fn set_p50_p95(out: &mut Values, p50: &'static str, p95: &'static str, values: &[f64]) {
    let sorted = stats::sorted(values);
    out.set(p50, stats::percentile(&sorted, 0.5).value);
    out.set(p95, stats::tail(&sorted, 0.95).value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the binary prints and `compare` judges by. They must agree.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");

        let listed = doc["end_to_end"].as_array().expect("end_to_end list");
        assert_eq!(listed.len(), END_TO_END.len());
        for (row, m) in listed.iter().zip(END_TO_END) {
            assert_eq!(row["name"], m.name);
            assert_eq!(row["unit"], m.unit);
            assert_eq!(row["better"], m.better.as_str());
            assert_eq!(row["bound"].as_f64(), Some(m.bound), "{}", m.name);
        }
        let listed = doc["per_layer"].as_array().expect("per_layer list");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (row, (name, unit, better)) in listed.iter().zip(PER_LAYER) {
            assert_eq!(row["name"], name);
            assert_eq!(row["unit"], unit);
            assert_eq!(row["better"], better.as_str());
        }
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(crate::WORKLOADS);
        assert!(names.iter().all(|n| ok_name(n)));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| ok_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.1)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
