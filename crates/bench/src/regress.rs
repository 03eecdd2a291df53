//! Noise-aware benchmark regression gate.
//!
//! Diffs a freshly generated `BENCH_*.json` against the committed
//! baseline under a per-metric manifest: each rule names a JSON path
//! (`rows[*].millis`, `cache.speedup`), a direction, and a tolerance.
//! Ratio rules compare the *median* of the per-cell fresh/baseline
//! ratios — one noisy outlier cell cannot convict a run — and bound
//! rules hold an absolute floor/ceiling on the fresh document alone
//! (convictions stay zero, the recorder tax stays under its budget).
//!
//! The gate is host-env-aware: wall-clock rules are skipped — never
//! silently passed — when the fresh run cannot vouch for its timings
//! (debug build, different platform or core count than the baseline,
//! or an oversubscribed host). Simulated seconds, hit rates, and
//! conviction counts are deterministic and are checked everywhere.
//!
//! Shape mismatches (a `--smoke` run diffed against a full baseline)
//! are reported as [`Verdict::Skipped`], not failures: the gate only
//! ever convicts on evidence it actually holds. For the same reason,
//! wall-clock Max/Min pins are skipped when the fresh report is itself
//! a smoke run (`env.smoke`): a handful of iterations cannot support a
//! single-digit-percent bound, and convicting on that jitter would
//! train people to ignore the gate. Ratio rules are likewise skipped
//! when one report is a smoke run and the other is not — a smoke run
//! measures a smaller workload, so scalar figures like `cache.speedup`
//! compare different experiments across modes. The tight pins and
//! drift checks bind on full runs — exactly the runs that produce
//! committed baselines; deterministic invariant pins (conviction
//! counts, byte-identity) hold in every mode and are always checked.
//!
//! A deterministic ratio rule with zero tolerance is an *exact pin* on a
//! count the program makes of its own work (planner visits, search
//! nodes). Such a count carries no noise and is a pure function of the
//! case it was taken on, so it is judged on its worst cell instead of
//! the median and is compared between a smoke report and a full one: a
//! report that trims its cases in smoke mode changes shape and is
//! skipped as any shape mismatch is.

use crate::hostenv::HostEnv;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Which way "better" points for a ratio rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Smaller is better (latencies, makespans, overheads).
    Lower,
    /// Larger is better (speedups, hit rates, throughput).
    Higher,
}

/// What a rule checks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Check {
    /// Median per-cell fresh-vs-baseline ratio must not drift more than
    /// `tolerance` (fractional) in the bad direction.
    Ratio {
        /// Which drift direction is a regression.
        direction: Direction,
        /// Allowed fractional drift, e.g. `0.5` = 50% worse.
        tolerance: f64,
    },
    /// Every fresh value must be `<= ceiling` (baseline not consulted).
    Max {
        /// The inclusive ceiling.
        ceiling: f64,
    },
    /// Every fresh value must be `>= floor` (baseline not consulted).
    Min {
        /// The inclusive floor.
        floor: f64,
    },
}

/// One metric the gate watches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// JSON path into the report: dot-separated members, `[*]` fans out
    /// over an array, `[N]` indexes one element. Booleans read as 0/1.
    pub path: String,
    /// What to check at that path.
    pub check: Check,
    /// Whether the metric measures wall-clock time — subject to the
    /// host-env skip logic; deterministic metrics set `false`.
    pub wallclock: bool,
}

impl Rule {
    /// A wall-clock ratio rule (skipped on untrustworthy hosts).
    pub fn wallclock(path: &str, direction: Direction, tolerance: f64) -> Rule {
        Rule {
            path: path.into(),
            check: Check::Ratio {
                direction,
                tolerance,
            },
            wallclock: true,
        }
    }

    /// A deterministic ratio rule (checked on every host). With a zero
    /// `tolerance` it is an exact pin: judged on its worst cell, and
    /// compared between smoke and full reports of the same shape.
    pub fn deterministic(path: &str, direction: Direction, tolerance: f64) -> Rule {
        Rule {
            path: path.into(),
            check: Check::Ratio {
                direction,
                tolerance,
            },
            wallclock: false,
        }
    }

    fn is_exact_pin(&self) -> bool {
        !self.wallclock && matches!(self.check, Check::Ratio { tolerance, .. } if tolerance == 0.0)
    }

    /// An absolute ceiling on the fresh document.
    pub fn max(path: &str, ceiling: f64, wallclock: bool) -> Rule {
        Rule {
            path: path.into(),
            check: Check::Max { ceiling },
            wallclock,
        }
    }

    /// An absolute floor on the fresh document.
    pub fn min(path: &str, floor: f64, wallclock: bool) -> Rule {
        Rule {
            path: path.into(),
            check: Check::Min { floor },
            wallclock,
        }
    }
}

/// The rules for one `BENCH_*.json` report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// The report file name, e.g. `BENCH_planner.json`.
    pub file: String,
    /// The metrics the gate watches in it.
    pub rules: Vec<Rule>,
}

/// A rule's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Within tolerance.
    Ok,
    /// Out of tolerance — the gate fails.
    Regressed,
    /// Not comparable here (shape mismatch, missing file, or an
    /// untrustworthy host for a wall-clock metric); never a failure.
    Skipped,
}

/// One evaluated rule: the verdict plus the evidence behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// The report file the rule came from.
    pub file: String,
    /// The rule's JSON path.
    pub path: String,
    /// Pass / fail / not-comparable.
    pub verdict: Verdict,
    /// Median fresh-vs-baseline ratio for ratio rules.
    pub ratio: Option<f64>,
    /// Human-readable evidence ("median ratio 1.03 <= 1.50", skip reason).
    pub detail: String,
}

/// Comparison knobs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The host running the comparison (used for the oversubscription
    /// skip); [`HostEnv::detect`] outside tests.
    pub live: HostEnv,
    /// Check wall-clock rules even when the env says not to — the
    /// injected-slowdown self-test uses this so a 1-core CI runner
    /// still proves the detector fires.
    pub force_wallclock: bool,
}

impl Options {
    /// Production options for the current host.
    pub fn detect() -> Options {
        Options {
            live: HostEnv::detect(),
            force_wallclock: false,
        }
    }
}

/// Extracts every numeric leaf at `path` ([`Rule::path`] syntax).
/// Booleans map to 0/1; missing members and nulls produce no values.
pub fn extract(doc: &Value, path: &str) -> Vec<f64> {
    let mut frontier = vec![doc];
    for seg in path.split('.') {
        let (member, index) = match seg.find('[') {
            Some(i) => (&seg[..i], Some(&seg[i..])),
            None => (seg, None),
        };
        let mut next = Vec::new();
        for v in frontier {
            let v = if member.is_empty() {
                Some(v)
            } else {
                v.get(member)
            };
            let Some(v) = v else { continue };
            match index {
                None => next.push(v),
                Some("[*]") => {
                    if let Some(arr) = v.as_array() {
                        next.extend(arr.iter());
                    }
                }
                Some(ix) => {
                    if let Some(e) = ix
                        .strip_prefix('[')
                        .and_then(|s| s.strip_suffix(']'))
                        .and_then(|s| s.parse::<usize>().ok())
                        .and_then(|n| v.as_array().and_then(|a| a.get(n)))
                    {
                        next.push(e);
                    }
                }
            }
        }
        frontier = next;
    }
    frontier
        .into_iter()
        .filter_map(|v| match v {
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            other => other.as_f64(),
        })
        .collect()
}

/// Applies `f` to every numeric leaf at `path` — the injection hook the
/// self-test uses to worsen a report in place.
pub fn map_leaves(doc: &mut Value, path: &str, f: &mut dyn FnMut(f64) -> f64) {
    fn walk(v: &mut Value, segs: &[&str], f: &mut dyn FnMut(f64) -> f64) {
        let Some(seg) = segs.first() else {
            if let Some(n) = v.as_f64() {
                *v = Value::F64(f(n));
            }
            return;
        };
        let (member, index) = match seg.find('[') {
            Some(i) => (&seg[..i], Some(&seg[i..])),
            None => (*seg, None),
        };
        let v = if member.is_empty() {
            Some(v)
        } else {
            v.get_mut(member)
        };
        let Some(v) = v else { return };
        match index {
            None => walk(v, &segs[1..], f),
            Some("[*]") => {
                if let Some(arr) = v.as_array_mut() {
                    for e in arr {
                        walk(e, &segs[1..], f);
                    }
                }
            }
            Some(ix) => {
                if let Some(e) = ix
                    .strip_prefix('[')
                    .and_then(|s| s.strip_suffix(']'))
                    .and_then(|s| s.parse::<usize>().ok())
                    .and_then(|n| v.as_array_mut().and_then(|a| a.get_mut(n)))
                {
                    walk(e, &segs[1..], f);
                }
            }
        }
    }
    let segs: Vec<&str> = path.split('.').collect();
    walk(doc, &segs, f);
}

/// The `env` object a report embeds, if any.
fn doc_env(doc: &Value) -> Option<HostEnv> {
    doc.get("env")
        .cloned()
        .and_then(|v| serde_json::from_value(v).ok())
}

/// Why wall-clock rules cannot be trusted for this (baseline, fresh)
/// pair, or `None` when they can.
pub fn wallclock_skip_reason(base: &Value, fresh: &Value, opts: &Options) -> Option<String> {
    if opts.force_wallclock {
        return None;
    }
    let fresh_env = match doc_env(fresh) {
        Some(e) => e,
        None => return Some("fresh report embeds no host env".into()),
    };
    let base_env = match doc_env(base) {
        Some(e) => e,
        None => return Some("baseline report embeds no host env".into()),
    };
    if fresh_env.profile != "release" {
        return Some(format!("fresh profile is {}", fresh_env.profile));
    }
    if base_env.platform != fresh_env.platform || base_env.host_threads != fresh_env.host_threads {
        return Some(format!(
            "host mismatch: baseline {}x{} vs fresh {}x{}",
            base_env.host_threads, base_env.platform, fresh_env.host_threads, fresh_env.platform
        ));
    }
    if opts.live.host_threads < fresh_env.host_threads {
        return Some(format!(
            "oversubscribed: report claims {} threads, live host has {}",
            fresh_env.host_threads, opts.live.host_threads
        ));
    }
    None
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Evaluates one manifest against a (baseline, fresh) report pair.
pub fn compare(manifest: &Manifest, base: &Value, fresh: &Value, opts: &Options) -> Vec<Outcome> {
    let skip_wallclock = wallclock_skip_reason(base, fresh, opts);
    // A trimmed smoke run validates plumbing, not timings: its handful
    // of iterations swings far too much for a tight absolute pin, so
    // wall-clock Max/Min bounds are skipped — never noise-convicted —
    // on smoke reports. And a smoke report measures a *smaller
    // workload* than a full one, so diffing one against a full
    // baseline compares different experiments: ratio rules are skipped
    // whenever the two reports' modes differ (the scalar cousin of the
    // shape-mismatch skip — `cache.speedup` on an 8-unit smoke case
    // can never match the committed 20-unit figure). Both are
    // precision properties of the measurement, not host trust, so
    // `force_wallclock` does not override them; deterministic Max/Min
    // invariant pins (conviction counts, byte-identity) hold in every
    // mode and are always checked.
    let fresh_is_smoke = doc_env(fresh).map(|e| e.is_smoke()).unwrap_or(false);
    let base_is_smoke = doc_env(base).map(|e| e.is_smoke()).unwrap_or(false);
    let mode_mismatch = fresh_is_smoke != base_is_smoke;
    let mut out = Vec::new();
    for rule in &manifest.rules {
        let outcome = |verdict, ratio, detail: String| Outcome {
            file: manifest.file.clone(),
            path: rule.path.clone(),
            verdict,
            ratio,
            detail,
        };
        if rule.wallclock {
            if let Some(reason) = &skip_wallclock {
                out.push(outcome(Verdict::Skipped, None, reason.clone()));
                continue;
            }
            if fresh_is_smoke && matches!(rule.check, Check::Max { .. } | Check::Min { .. }) {
                out.push(outcome(
                    Verdict::Skipped,
                    None,
                    "smoke run: too few iterations for a wall-clock bound".into(),
                ));
                continue;
            }
        }
        if mode_mismatch && matches!(rule.check, Check::Ratio { .. }) && !rule.is_exact_pin() {
            out.push(outcome(
                Verdict::Skipped,
                None,
                "measurement mode mismatch: smoke vs full run".into(),
            ));
            continue;
        }
        let fresh_vals = extract(fresh, &rule.path);
        if fresh_vals.is_empty() {
            out.push(outcome(
                Verdict::Skipped,
                None,
                "path missing in fresh report".into(),
            ));
            continue;
        }
        match rule.check {
            Check::Ratio {
                direction,
                tolerance,
            } => {
                let base_vals = extract(base, &rule.path);
                if base_vals.len() != fresh_vals.len() {
                    out.push(outcome(
                        Verdict::Skipped,
                        None,
                        format!(
                            "shape mismatch: {} baseline vs {} fresh cells",
                            base_vals.len(),
                            fresh_vals.len()
                        ),
                    ));
                    continue;
                }
                let ratios: Vec<f64> = base_vals
                    .iter()
                    .zip(&fresh_vals)
                    .filter(|(b, f)| {
                        // A zero denominator carries no ratio information.
                        match direction {
                            Direction::Lower => **b > 0.0,
                            Direction::Higher => **f > 0.0,
                        }
                    })
                    .map(|(b, f)| match direction {
                        Direction::Lower => f / b,
                        Direction::Higher => b / f,
                    })
                    .collect();
                if ratios.is_empty() {
                    out.push(outcome(
                        Verdict::Skipped,
                        None,
                        "no comparable cells".into(),
                    ));
                    continue;
                }
                let (m, which) = if rule.is_exact_pin() {
                    (ratios.iter().copied().fold(f64::MIN, f64::max), "worst")
                } else {
                    (median(ratios), "median")
                };
                let limit = 1.0 + tolerance;
                let verdict = if m > limit {
                    Verdict::Regressed
                } else {
                    Verdict::Ok
                };
                out.push(outcome(
                    verdict,
                    Some(m),
                    format!("{which} drift ratio {m:.3} vs limit {limit:.3}"),
                ));
            }
            Check::Max { ceiling } => {
                let worst = fresh_vals.iter().cloned().fold(f64::MIN, f64::max);
                let verdict = if worst <= ceiling {
                    Verdict::Ok
                } else {
                    Verdict::Regressed
                };
                out.push(outcome(
                    verdict,
                    None,
                    format!("max {worst:.4} vs ceiling {ceiling:.4}"),
                ));
            }
            Check::Min { floor } => {
                let worst = fresh_vals.iter().cloned().fold(f64::MAX, f64::min);
                let verdict = if worst >= floor {
                    Verdict::Ok
                } else {
                    Verdict::Regressed
                };
                out.push(outcome(
                    verdict,
                    None,
                    format!("min {worst:.4} vs floor {floor:.4}"),
                ));
            }
        }
    }
    out
}

/// Worsens every ratio-rule metric in `doc` by `margin` *beyond* its
/// tolerance (`Lower` metrics inflate, `Higher` metrics deflate) — the
/// self-test's synthetic regression. Bound rules are left alone.
pub fn inject_slowdown(doc: &mut Value, manifest: &Manifest, margin: f64) {
    for rule in &manifest.rules {
        if let Check::Ratio {
            direction,
            tolerance,
        } = rule.check
        {
            let factor = (1.0 + tolerance) * (1.0 + margin);
            map_leaves(doc, &rule.path, &mut |x| match direction {
                Direction::Lower => x * factor,
                Direction::Higher => x / factor,
            });
        }
    }
}

/// The committed reports and the metrics the gate holds them to.
pub fn default_manifests() -> Vec<Manifest> {
    vec![
        Manifest {
            file: "BENCH_planner.json".into(),
            rules: vec![
                Rule::wallclock("rows[*].millis", Direction::Lower, 0.5),
                Rule::wallclock("cache.speedup", Direction::Higher, 0.6),
                Rule::deterministic("cache.hit_rate", Direction::Higher, 0.05),
                // The planners' own work counts per plan() call: exact
                // pins, so more work convicts where wall clock is skipped.
                Rule::deterministic("rows[*].greedy_visits", Direction::Lower, 0.0),
                Rule::deterministic("rows[*].dfs_nodes", Direction::Lower, 0.0),
            ],
        },
        Manifest {
            file: "BENCH_check.json".into(),
            rules: vec![
                Rule::wallclock("rows[*].verify_micros", Direction::Lower, 0.6),
                Rule::wallclock("rows[*].overhead_ratio", Direction::Lower, 0.6),
            ],
        },
        Manifest {
            file: "BENCH_serve.json".into(),
            rules: vec![
                Rule::wallclock("scenarios[*].p99_ms", Direction::Lower, 0.5),
                Rule::wallclock("scenarios[*].sustained_rps", Direction::Higher, 0.4),
                Rule::max("scenarios[*].verifier_convictions", 0.0, false),
                Rule::max("scenarios[*].failed", 0.0, false),
            ],
        },
        Manifest {
            file: "BENCH_moe.json".into(),
            rules: vec![
                // Simulated seconds are deterministic: a tight leash.
                Rule::deterministic("rows[*].makespan_seconds", Direction::Lower, 0.1),
                Rule::deterministic("rail_speedups[*].vs_send_recv", Direction::Higher, 0.2),
                Rule::max("rows[*].convictions", 0.0, false),
            ],
        },
        Manifest {
            file: "BENCH_netsim.json".into(),
            rules: vec![
                Rule::wallclock("engine[*].speedup", Direction::Higher, 0.5),
                Rule::max("engine[*].makespan_rel_err", 1e-6, false),
                Rule::max("convictions", 0.0, false),
            ],
        },
        Manifest {
            file: "BENCH_race.json".into(),
            rules: vec![
                // The acceptance pin: the armed FastTrack engine may tax
                // the all-to-all at most 5%; disarmed cost is measured
                // per-site and drift-checked, both host-env-gated.
                Rule::max("armed_overhead_pct", 5.0, true),
                Rule::wallclock("armed_ms", Direction::Lower, 0.5),
                // Detector accuracy is deterministic: checked everywhere.
                Rule::min("convicted_fraction", 1.0, false),
                Rule::max("clean_findings", 0.0, false),
                Rule::min("identical_outputs", 1.0, false),
            ],
        },
        Manifest {
            file: "BENCH_obs.json".into(),
            rules: vec![
                // The acceptance budget: an armed flight recorder may tax
                // the planner at most 2%. Wall-clock-gated, so it binds
                // on full runs and is skipped on smoke reports, whose
                // 9-iteration measurement swings by double digits.
                Rule::max("recorder_overhead_pct", 2.0, true),
                Rule::max("overhead_pct", 50.0, true),
                Rule::min("identical_estimates", 1.0, false),
                Rule::wallclock("recorder_ms", Direction::Lower, 0.5),
            ],
        },
    ]
}

/// Renders outcomes as an aligned table.
pub fn render(outcomes: &[Outcome]) -> String {
    let mut s = String::from("regression gate:\n");
    for o in outcomes {
        let v = match o.verdict {
            Verdict::Ok => "ok       ",
            Verdict::Regressed => "REGRESSED",
            Verdict::Skipped => "skipped  ",
        };
        s.push_str(&format!(
            "  {v}  {:<18} {:<34} {}\n",
            o.file, o.path, o.detail
        ));
    }
    let (ok, bad, skipped) = outcomes
        .iter()
        .fold((0, 0, 0), |(a, b, c), o| match o.verdict {
            Verdict::Ok => (a + 1, b, c),
            Verdict::Regressed => (a, b + 1, c),
            Verdict::Skipped => (a, b, c + 1),
        });
    s.push_str(&format!("  {ok} ok, {bad} regressed, {skipped} skipped\n"));
    s
}

/// Whether any rule convicted.
pub fn has_regressions(outcomes: &[Outcome]) -> bool {
    outcomes.iter().any(|o| o.verdict == Verdict::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn test_env() -> Value {
        json!({
            "host_threads": 4,
            "crossmesh_threads": json!(null),
            "profile": "release",
            "platform": "test/x",
        })
    }

    fn opts() -> Options {
        Options {
            live: HostEnv {
                host_threads: 8,
                crossmesh_threads: None,
                profile: "release".into(),
                platform: "test/x".into(),
                smoke: None,
            },
            force_wallclock: false,
        }
    }

    #[test]
    fn extract_handles_members_wildcards_and_bools() {
        let doc = json!({
            "a": json!({"b": 1.5}),
            "rows": json!([
                json!({"x": 1.0, "ok": true}),
                json!({"x": 2.0, "ok": false})
            ]),
        });
        assert_eq!(extract(&doc, "a.b"), vec![1.5]);
        assert_eq!(extract(&doc, "rows[*].x"), vec![1.0, 2.0]);
        assert_eq!(extract(&doc, "rows[1].x"), vec![2.0]);
        assert_eq!(extract(&doc, "rows[*].ok"), vec![1.0, 0.0]);
        assert!(extract(&doc, "missing.path").is_empty());
    }

    fn timing_doc(ms: &[f64]) -> Value {
        let rows: Vec<Value> = ms.iter().map(|&v| json!({"ms": v})).collect();
        json!({"env": test_env(), "rows": rows})
    }

    #[test]
    fn smoke_reports_skip_wallclock_bounds_only() {
        let manifest = Manifest {
            file: "BENCH_t.json".into(),
            rules: vec![
                Rule::max("overhead_pct", 2.0, true),
                Rule::min("convictions_ok", 1.0, false),
                Rule::wallclock("rows[*].ms", Direction::Lower, 0.5),
            ],
        };
        let mut smoke_env = test_env();
        smoke_env["smoke"] = json!(true);
        let base = json!({
            "env": test_env(),
            "rows": json!([json!({"ms": 1.0})]),
            "overhead_pct": 1.0,
            "convictions_ok": true,
        });
        // Way past the pin — but smoke jitter, not evidence.
        let fresh = json!({
            "env": smoke_env,
            "rows": json!([json!({"ms": 1.1})]),
            "overhead_pct": 50.0,
            "convictions_ok": false,
        });
        // Even under force_wallclock: the skip is about measurement
        // precision, not host trust.
        let mut o = opts();
        o.force_wallclock = true;
        let outcomes = compare(&manifest, &base, &fresh, &o);
        assert_eq!(outcomes[0].verdict, Verdict::Skipped, "{outcomes:?}");
        assert!(outcomes[0].detail.contains("smoke"), "{outcomes:?}");
        // Deterministic pins still run on smoke reports.
        assert_eq!(outcomes[1].verdict, Verdict::Regressed, "{outcomes:?}");
        // Smoke-vs-full ratio drift compares different workloads: skipped.
        assert_eq!(outcomes[2].verdict, Verdict::Skipped, "{outcomes:?}");
        assert!(outcomes[2].detail.contains("mode mismatch"), "{outcomes:?}");
        // Smoke-vs-smoke ratio drift is comparable and checked.
        let mut smoke_base = base.clone();
        smoke_base["env"] = fresh["env"].clone();
        let outcomes = compare(&manifest, &smoke_base, &fresh, &o);
        assert_eq!(outcomes[2].verdict, Verdict::Ok, "{outcomes:?}");
        // A full-run report with the same values convicts the pin.
        let mut full = fresh.clone();
        full["env"] = test_env();
        let outcomes = compare(&manifest, &base, &full, &o);
        assert_eq!(outcomes[0].verdict, Verdict::Regressed, "{outcomes:?}");
        assert_eq!(outcomes[2].verdict, Verdict::Ok, "{outcomes:?}");
    }

    #[test]
    fn exact_pins_convict_one_cell_and_cross_smoke_and_full_reports() {
        let m = Manifest {
            file: "t.json".into(),
            rules: vec![Rule::deterministic("rows[*].ms", Direction::Lower, 0.0)],
        };
        let base = timing_doc(&[100.0, 100.0, 100.0, 100.0, 100.0]);
        let mut smoke_env = test_env();
        smoke_env["smoke"] = json!(true);
        // A smoke report of the same shape, one cell one count up.
        let mut fresh = timing_doc(&[100.0, 100.0, 101.0, 100.0, 100.0]);
        fresh["env"] = smoke_env.clone();
        let out = compare(&m, &base, &fresh, &opts());
        assert_eq!(out[0].verdict, Verdict::Regressed, "{}", out[0].detail);
        // Fewer counts is not a regression; equal counts pass.
        let mut fresh = timing_doc(&[100.0, 90.0, 100.0, 100.0, 100.0]);
        fresh["env"] = smoke_env.clone();
        let out = compare(&m, &base, &fresh, &opts());
        assert_eq!(out[0].verdict, Verdict::Ok, "{}", out[0].detail);
        // A smoke report with trimmed cases is a shape mismatch.
        let mut fresh = timing_doc(&[101.0, 101.0]);
        fresh["env"] = smoke_env;
        let out = compare(&m, &base, &fresh, &opts());
        assert_eq!(out[0].verdict, Verdict::Skipped, "{}", out[0].detail);
    }

    #[test]
    fn median_ratio_shrugs_off_one_noisy_cell() {
        let base = timing_doc(&[1.0, 1.0, 1.0, 1.0, 1.0]);
        // One cell 5x slower (noise), the rest dead on.
        let fresh = timing_doc(&[5.0, 1.0, 1.01, 0.99, 1.0]);
        let m = Manifest {
            file: "t.json".into(),
            rules: vec![Rule::wallclock("rows[*].ms", Direction::Lower, 0.3)],
        };
        let out = compare(&m, &base, &fresh, &opts());
        assert_eq!(out[0].verdict, Verdict::Ok, "{}", out[0].detail);
        // But a board-wide slowdown convicts.
        let slow = timing_doc(&[1.4, 1.5, 1.4, 1.5, 1.4]);
        let out = compare(&m, &base, &slow, &opts());
        assert_eq!(out[0].verdict, Verdict::Regressed, "{}", out[0].detail);
        assert!(has_regressions(&out));
    }

    #[test]
    fn higher_is_better_checks_the_inverse_ratio() {
        let base = json!({"env": test_env(), "speedup": 4.0});
        let worse = json!({"env": test_env(), "speedup": 2.0});
        let m = Manifest {
            file: "t.json".into(),
            rules: vec![Rule::wallclock("speedup", Direction::Higher, 0.5)],
        };
        assert_eq!(
            compare(&m, &base, &worse, &opts())[0].verdict,
            Verdict::Regressed
        );
        let better = json!({"env": test_env(), "speedup": 8.0});
        assert_eq!(compare(&m, &base, &better, &opts())[0].verdict, Verdict::Ok);
    }

    #[test]
    fn bounds_check_the_fresh_document_alone() {
        let base = json!({});
        let fresh = json!({
            "rows": json!([json!({"convictions": 0.0}), json!({"convictions": 2.0})]),
            "flag": true,
        });
        let m = Manifest {
            file: "t.json".into(),
            rules: vec![
                Rule::max("rows[*].convictions", 0.0, false),
                Rule::min("flag", 1.0, false),
            ],
        };
        let out = compare(&m, &base, &fresh, &opts());
        assert_eq!(out[0].verdict, Verdict::Regressed);
        assert_eq!(out[1].verdict, Verdict::Ok);
    }

    #[test]
    fn wallclock_rules_skip_on_untrustworthy_hosts() {
        let m = Manifest {
            file: "t.json".into(),
            rules: vec![Rule::wallclock("ms", Direction::Lower, 0.1)],
        };
        let base = json!({"env": test_env(), "ms": 1.0});
        // 10x slower, but measured on a debug build: skipped, not failed.
        let mut env = test_env();
        env["profile"] = json!("debug");
        let fresh = json!({"env": env, "ms": 10.0});
        let out = compare(&m, &base, &fresh, &opts());
        assert_eq!(out[0].verdict, Verdict::Skipped);
        assert!(out[0].detail.contains("debug"), "{}", out[0].detail);
        // Core-count mismatch between baseline and fresh: skipped.
        let mut env = test_env();
        env["host_threads"] = json!(64);
        let fresh = json!({"env": env, "ms": 10.0});
        assert_eq!(
            compare(&m, &base, &fresh, &opts())[0].verdict,
            Verdict::Skipped
        );
        // A live host with fewer cores than the report claims: skipped.
        let fresh = json!({"env": test_env(), "ms": 10.0});
        let mut o = opts();
        o.live.host_threads = 1;
        assert_eq!(compare(&m, &base, &fresh, &o)[0].verdict, Verdict::Skipped);
        // force_wallclock overrides every skip.
        o.force_wallclock = true;
        assert_eq!(
            compare(&m, &base, &fresh, &o)[0].verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn shape_mismatch_is_skipped_not_failed() {
        let m = Manifest {
            file: "t.json".into(),
            rules: vec![Rule::deterministic("rows[*].ms", Direction::Lower, 0.1)],
        };
        let base = json!({"rows": json!([json!({"ms": 1.0}), json!({"ms": 1.0})])});
        let fresh = json!({"rows": json!([json!({"ms": 99.0})])});
        let out = compare(&m, &base, &fresh, &opts());
        assert_eq!(out[0].verdict, Verdict::Skipped);
        assert!(out[0].detail.contains("shape mismatch"));
        assert!(!has_regressions(&out));
    }

    #[test]
    fn injected_slowdown_convicts_every_ratio_rule() {
        for manifest in default_manifests() {
            let Ok(text) = std::fs::read_to_string(format!(
                "{}/../../{}",
                env!("CARGO_MANIFEST_DIR"),
                manifest.file
            )) else {
                continue; // baseline not committed yet
            };
            let base: Value = serde_json::from_str(&text).expect("baseline parses");
            // Identity first: a report never regresses against itself.
            let o = Options {
                live: HostEnv::detect(),
                force_wallclock: true,
            };
            let out = compare(&manifest, &base, &base, &o);
            assert!(!has_regressions(&out), "{}", render(&out));
            // Then the synthetic 20%-beyond-tolerance slowdown convicts
            // every ratio rule the report has cells for.
            let mut slow = base.clone();
            inject_slowdown(&mut slow, &manifest, 0.2);
            let out = compare(&manifest, &base, &slow, &o);
            for oc in &out {
                if matches!(
                    manifest
                        .rules
                        .iter()
                        .find(|r| r.path == oc.path)
                        .map(|r| r.check),
                    Some(Check::Ratio { .. })
                ) && oc.verdict != Verdict::Skipped
                {
                    assert_eq!(
                        oc.verdict,
                        Verdict::Regressed,
                        "{} {} survived injection: {}",
                        oc.file,
                        oc.path,
                        oc.detail
                    );
                }
            }
        }
    }

    #[test]
    fn render_summarizes_verdicts() {
        let out = vec![Outcome {
            file: "f".into(),
            path: "p".into(),
            verdict: Verdict::Ok,
            ratio: Some(1.01),
            detail: "fine".into(),
        }];
        let s = render(&out);
        assert!(s.contains("1 ok, 0 regressed, 0 skipped"));
    }
}
