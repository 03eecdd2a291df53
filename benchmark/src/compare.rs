//! `compare A B`: judges set B of result files against set A with the
//! benchmark's own bounds, one row per (workload, metric), never pooled.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Breach,
    /// A side's run-to-run spread (quartile distance over median) is
    /// wider than the bound, so the bound cannot be judged.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Breach => "BREACH",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's summary of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    pub fn of(values: &[f64]) -> Side {
        let (q1, q3) = stats::quartiles(values);
        Side {
            median: stats::median(values),
            q1,
            q3,
        }
    }

    /// Quartile distance in the unit of the metric's bound: a share of
    /// the median, or the metric's own unit when the bound is absolute.
    fn spread(&self, metric: &EndToEnd) -> f64 {
        in_bound_units(self.q3 - self.q1, self.median, metric)
    }
}

fn in_bound_units(difference: f64, base: f64, metric: &EndToEnd) -> f64 {
    if metric.absolute {
        difference
    } else {
        difference / base.abs()
    }
}

/// How much worse `b` is than `a` (negative = better), in the unit of the
/// metric's bound: a share of `a`, or the plain difference when the bound
/// is absolute.
pub fn worse_by(a: f64, b: f64, metric: &EndToEnd) -> f64 {
    let difference = match metric.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    in_bound_units(difference, a, metric)
}

pub fn judge(a: &Side, b: &Side, metric: &EndToEnd) -> Verdict {
    if a.spread(metric).max(b.spread(metric)) > metric.bound {
        Verdict::Unresolved
    } else if worse_by(a.median, b.median, metric) > metric.bound {
        Verdict::Breach
    } else {
        Verdict::Ok
    }
}

/// One workload's untraced result files in a directory.
#[derive(Debug, Default)]
pub struct Runs {
    files: usize,
    /// metric -> one value per file that measured it.
    pub values: BTreeMap<String, Vec<f64>>,
}

/// Every untraced result file of a directory.
#[derive(Debug, Default)]
pub struct ResultSet {
    pub workloads: BTreeMap<String, Runs>,
    /// The distinct `(seconds, nproc)` the files were taken with. Numbers
    /// taken at different run lengths or core counts are not comparable.
    conditions: BTreeSet<(u64, u64)>,
}

/// Reads every untraced result file in `dir` (span files and anything
/// that is not a result are skipped).
pub fn load(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::default();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && !name.ends_with(".trace.json")
        })
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
        let (Some(workload), Some(0), Some(metrics)) = (
            doc["workload"].as_str(),
            doc["trace"].as_u64(),
            doc["end_to_end"].as_object(),
        ) else {
            continue;
        };
        let (Some(seconds), Some(nproc)) = (doc["seconds"].as_u64(), doc["nproc"].as_u64()) else {
            return Err(format!(
                "{}: no `seconds` or `nproc`, so it cannot be compared",
                path.display()
            ));
        };
        set.conditions.insert((seconds, nproc));
        let into = set.workloads.entry(workload.to_string()).or_default();
        into.files += 1;
        for (name, m) in metrics {
            // A metric the run could not measure is written as null.
            if let Some(v) = m["value"].as_f64() {
                into.values.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// Prints the table; `Ok(true)` when no row breached and none is missing.
pub fn run(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_dir)?, load(b_dir)?);
    let conditions: BTreeSet<_> = a.conditions.union(&b.conditions).collect();
    if conditions.len() > 1 {
        return Err(format!(
            "not comparable: the runs differ in (seconds, nproc): {} has {:?}, {} has {:?}",
            a_dir.display(),
            a.conditions,
            b_dir.display(),
            b.conditions
        ));
    }
    println!(
        "{:<14} {:<24} {:>5}  {:>34}  {:>34}  {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median [q1, q3] (n)",
        "B median [q1, q3] (n)",
        "worse",
        "bound"
    );
    let mut clean = true;
    let mut rows = 0;
    for workload in crate::WORKLOADS {
        let (Some(ra), Some(rb)) = (a.workloads.get(workload), b.workloads.get(workload)) else {
            // A workload missing on both sides was simply not run; one
            // missing on one side cannot be judged.
            if a.workloads.contains_key(workload) != b.workloads.contains_key(workload) {
                println!("{workload:<14} missing on one side");
                clean = false;
            }
            continue;
        };
        for metric in &END_TO_END {
            let none = Vec::new();
            let va = ra.values.get(metric.name).unwrap_or(&none);
            let vb = rb.values.get(metric.name).unwrap_or(&none);
            if va.len() < ra.files || vb.len() < rb.files {
                println!(
                    "{workload:<14} {:<24} missing: measured in {} of {} runs of A, {} of {} of B",
                    metric.name,
                    va.len(),
                    ra.files,
                    vb.len(),
                    rb.files
                );
                clean = false;
                continue;
            }
            let (sa, sb) = (Side::of(va), Side::of(vb));
            let verdict = judge(&sa, &sb, metric);
            clean &= verdict != Verdict::Breach;
            rows += 1;
            let show =
                |s: &Side, n: usize| format!("{:.5} [{:.5}, {:.5}] ({n})", s.median, s.q1, s.q3);
            // An absolute bound is in the metric's unit, the others in %.
            let (scale, sign) = if metric.absolute {
                (1.0, " ")
            } else {
                (100.0, "%")
            };
            println!(
                "{workload:<14} {:<24} {:>5}  {:>34}  {:>34}  {:>+7.2}{sign} {:>5.2}{sign}  {}",
                metric.name,
                metric.unit,
                show(&sa, va.len()),
                show(&sb, vb.len()),
                worse_by(sa.median, sb.median, metric) * scale,
                metric.bound * scale,
                verdict.as_str()
            );
        }
    }
    if rows == 0 {
        return Err("no workload has results on both sides".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let p50 = metric("op_p50_ms"); // lower is better, 15 %
        let rps = metric("op_rps"); // higher is better, 15 %
        let tight = |m: f64| Side::of(&[m * 0.99, m, m * 1.01]);
        assert_eq!(judge(&tight(10.0), &tight(11.4), p50), Verdict::Ok);
        assert_eq!(judge(&tight(10.0), &tight(11.6), p50), Verdict::Breach);
        assert_eq!(judge(&tight(10.0), &tight(5.0), p50), Verdict::Ok);
        assert_eq!(judge(&tight(100.0), &tight(84.0), rps), Verdict::Breach);
        assert_eq!(judge(&tight(100.0), &tight(120.0), rps), Verdict::Ok);
        // A side whose own runs differ by more than the bound resolves
        // nothing, whatever the medians say.
        let noisy = Side::of(&[8.0, 10.0, 12.0]);
        assert_eq!(judge(&noisy, &tight(20.0), p50), Verdict::Unresolved);
        assert_eq!(judge(&tight(10.0), &noisy, p50), Verdict::Unresolved);
        // A single run has no spread.
        assert_eq!(
            judge(&Side::of(&[10.0]), &Side::of(&[10.5]), p50),
            Verdict::Ok
        );
    }

    #[test]
    fn ok_frac_is_judged_by_the_absolute_difference() {
        let ok = metric("ok_frac"); // higher is better, 0.01 absolute
        let exact = |m: f64| Side::of(&[m, m, m]);
        // 0.008 down from 0.7076 is 1.1 % of it, but inside 0.01 absolute.
        assert_eq!(judge(&exact(0.7076), &exact(0.6996), ok), Verdict::Ok);
        assert_eq!(judge(&exact(0.7076), &exact(0.6966), ok), Verdict::Breach);
        assert_eq!(judge(&exact(1.0), &exact(0.985), ok), Verdict::Breach);
        assert!((worse_by(0.7076, 0.6996, ok) - 0.008).abs() < 1e-12);
    }

    /// Untraced `serve_hit` results, one per `op_p50_ms` value (`None`: a
    /// run that could not measure it); every other metric reads 45.
    fn write_set(dir: &Path, seconds: u64, p50s: &[Option<f64>]) {
        std::fs::create_dir_all(dir).unwrap();
        for (i, p50) in p50s.iter().enumerate() {
            let mut metrics = serde_json::Map::new();
            for m in &END_TO_END {
                let value = if m.name == "op_p50_ms" {
                    json!(*p50)
                } else {
                    json!(45.0)
                };
                metrics.insert(m.name.into(), json!({"value": value, "unit": m.unit}));
            }
            let doc = json!({
                "workload": "serve_hit",
                "trace": 0u64,
                "seconds": seconds,
                "nproc": 2u64,
                "end_to_end": Value::Object(metrics),
            });
            std::fs::write(
                dir.join(format!("serve_hit-s{i}-t0.json")),
                serde_json::to_string(&doc).unwrap(),
            )
            .unwrap();
        }
        // Neither a span file nor a traced result is a result to judge.
        std::fs::write(dir.join("serve_hit.trace.json"), "{\"spans\": []}").unwrap();
        std::fs::write(
            dir.join("serve_hit-s0-t1.json"),
            "{\"workload\": \"serve_hit\", \"trace\": 1, \"end_to_end\": {}}",
        )
        .unwrap();
    }

    #[test]
    fn compares_synthetic_result_files() {
        // Under the (ignored) output directory, so tests write nothing
        // outside the repository.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-compare-{}", std::process::id()));
        let dir = |name: &str| root.join(name);
        let all = |v: [f64; 3]| v.map(Some);
        write_set(&dir("a"), 25, &all([44.0, 44.1, 43.9]));
        write_set(&dir("b"), 25, &all([44.2, 44.0, 44.1]));
        write_set(&dir("slow"), 25, &all([55.0, 55.1, 54.9]));
        write_set(&dir("short"), 5, &all([44.0, 44.1, 43.9]));
        write_set(&dir("holed"), 25, &[Some(44.0), None, Some(44.1)]);
        assert_eq!(
            load(&dir("a")).unwrap().workloads["serve_hit"].values["op_p50_ms"].len(),
            3
        );
        assert_eq!(run(&dir("a"), &dir("b")), Ok(true));
        assert_eq!(run(&dir("a"), &dir("slow")), Ok(false));
        // A run that could not measure a metric is not an improvement.
        assert_eq!(run(&dir("a"), &dir("holed")), Ok(false));
        // Runs of another length are another experiment.
        assert!(run(&dir("a"), &dir("short"))
            .unwrap_err()
            .contains("not comparable"));
        assert!(run(&dir("a"), &dir("nowhere")).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
