//! `BENCH_paper.json`: every deterministic number the repo reproduces, in
//! one document, and the comparator that says *where* two such documents
//! differ.
//!
//! Everything here is simulated seconds, byte counts or work counters —
//! no wall clock — so it repeats byte for byte across hosts, build
//! profiles and pool widths, and `tests/paper_golden.rs` demands equality
//! with the committed file. Regenerate it with
//! `cargo run --release -p crossmesh-bench --bin repro_all -- --json > BENCH_paper.json`.

use crate::{
    ablations, faults, fig5, fig6, fig7, fig8, fig9, moe, netsim, obs_overhead, planner, race,
    table1,
};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeSet;

/// The `observer_work` section: what the collectors and the race detector
/// handle per operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObserverWork {
    /// One ensemble `plan()` under a counting collector and the flight
    /// recorder.
    pub ensemble_plan: obs_overhead::PlanWork,
    /// One armed 4-lane MoE all-to-all.
    pub all_to_all: race::SeamWork,
}

/// One harness run, as the section's JSON value and its rendered table.
fn section<T: Serialize>(rows: T, render: impl FnOnce(&T) -> String) -> (Value, String) {
    let value = serde_json::to_value(&rows).expect("rows serialize");
    (value, render(&rows))
}

type Section = (&'static str, fn() -> (Value, String));

/// Every section of the document, in the order the harnesses run. The
/// three `*_work` sections read process-wide counters and collectors, so
/// they run serially, here, last.
const SECTIONS: [Section; 12] = [
    ("table1", || section(table1::run(), table1::render)),
    ("fig5", || section(fig5::run(), |r| fig5::render(r))),
    ("fig6", || section(fig6::run(), |r| fig6::render(r))),
    ("fig7", || section(fig7::run(), |r| fig7::render(r))),
    ("fig8", || section(fig8::run(), |r| fig8::render(r))),
    ("fig9", || section(fig9::run(), |r| fig9::render(r))),
    ("ablations", || section(ablations::run(), ablations::render)),
    ("faults", || section(faults::run(), |r| faults::render(r))),
    ("moe", || section(moe::run(false), moe::render)),
    ("planner_work", || {
        section(planner::work(), |r| planner::render_work(r))
    }),
    ("netsim_work", || {
        section(netsim::work(), netsim::render_work)
    }),
    ("observer_work", || {
        let work = ObserverWork {
            ensemble_plan: obs_overhead::work(),
            all_to_all: race::work(),
        };
        section(work, |w| {
            obs_overhead::render(&w.ensemble_plan) + &race::render(&w.all_to_all)
        })
    }),
];

/// Runs the named sections (every section when `only` is empty) and returns
/// the combined document: pretty-printed JSON keyed by section name when
/// `json` is set, the rendered tables otherwise.
///
/// The `*_work` sections read process-wide counters: call this from a
/// process where nothing else is planning.
///
/// # Errors
///
/// A name in `only` that is not a section, with the valid names.
pub fn document(only: &[String], json: bool) -> Result<String, String> {
    let known = |name: &String| SECTIONS.iter().any(|(section, _)| section == name);
    if let Some(unknown) = only.iter().find(|name| !known(name)) {
        let valid: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown section {unknown:?}; the sections are: {}",
            valid.join(", ")
        ));
    }
    let ran = SECTIONS
        .iter()
        .filter(|(name, _)| only.is_empty() || only.iter().any(|n| n == name))
        .map(|(name, run)| (name.to_string(), run()));
    Ok(if json {
        let doc = Value::Object(ran.map(|(name, (value, _))| (name, value)).collect());
        serde_json::to_string_pretty(&doc).expect("values serialize")
    } else {
        ran.map(|(_, (_, text))| text)
            .collect::<Vec<_>>()
            .join("\n")
    })
}

/// One section of the committed `BENCH_paper.json`, for the module tests
/// that check the paper's shapes: golden == fresh is
/// `tests/paper_golden.rs`'s job, golden has the right shapes is theirs.
#[cfg(test)]
pub(crate) fn committed<T: serde::de::DeserializeOwned>(section: &str) -> T {
    let doc: Value = serde_json::from_str(include_str!("../../../BENCH_paper.json"))
        .expect("BENCH_paper.json parses");
    T::deserialize(&doc[section])
        .unwrap_or_else(|e| panic!("BENCH_paper.json section {section}: {e}"))
}

/// The first place two JSON documents differ, as `path: committed → fresh`
/// (e.g. `fig6[3].seconds: 0.43 → 0.44`), or `None` when they are equal.
/// Object members are visited in key order, array elements in index order.
pub fn first_difference(committed: &Value, fresh: &Value) -> Option<String> {
    fn show(v: Option<&Value>) -> String {
        v.map_or_else(
            || "missing".to_string(),
            |v| serde_json::to_string(v).expect("values serialize"),
        )
    }
    fn walk(path: &str, a: Option<&Value>, b: Option<&Value>) -> Option<String> {
        match (a, b) {
            (Some(Value::Object(x)), Some(Value::Object(y))) => {
                let keys: BTreeSet<&String> = x.keys().chain(y.keys()).collect();
                let dot = if path.is_empty() { "" } else { "." };
                keys.into_iter()
                    .find_map(|k| walk(&format!("{path}{dot}{k}"), x.get(k), y.get(k)))
            }
            (Some(Value::Array(x)), Some(Value::Array(y))) => x
                .iter()
                .zip(y)
                .enumerate()
                .find_map(|(i, (a, b))| walk(&format!("{path}[{i}]"), Some(a), Some(b)))
                .or_else(|| {
                    (x.len() != y.len())
                        .then(|| format!("{path}: {} elements → {} elements", x.len(), y.len()))
                }),
            _ if a == b => None,
            _ => Some(format!("{path}: {} → {}", show(a), show(b))),
        }
    }
    walk("", Some(committed), Some(fresh))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diff(committed: &str, fresh: &str) -> Option<String> {
        let parse = |s: &str| serde_json::from_str::<Value>(s).expect("valid JSON");
        first_difference(&parse(committed), &parse(fresh))
    }

    #[test]
    fn selected_sections_come_out_alone_and_unknown_names_are_refused() {
        let only = ["table1".to_string()];
        let doc: Value = serde_json::from_str(&document(&only, true).expect("table1 is a section"))
            .expect("valid JSON");
        let keys: Vec<&String> = doc.as_object().expect("an object").keys().collect();
        assert_eq!(keys, ["table1"]);
        assert!(document(&only, false)
            .expect("table1 is a section")
            .contains("Table 1"));

        let err = document(&["fig5".to_string(), "fig55".to_string()], true)
            .expect_err("fig55 is not a section");
        assert!(err.contains("\"fig55\""), "{err}");
        for (name, _) in SECTIONS {
            assert!(err.contains(name), "{err} should list {name}");
        }
    }

    #[test]
    fn observer_work_shapes_hold() {
        let work: ObserverWork = committed("observer_work");
        let plan = &work.ensemble_plan;
        // The recorder takes in what a collector is handed, plus metric
        // deltas; watching never changes what is computed.
        assert!(plan.collector_events > 0 && plan.recorder_records > plan.collector_events);
        assert!(plan.identical_estimates);
        assert!(work.all_to_all.events > 0);
        assert_eq!(work.all_to_all.findings, 0, "the dataplane is race-clean");
        assert!(work.all_to_all.identical_outputs);
    }

    #[test]
    fn equal_documents_have_no_difference() {
        let doc = r#"{"fig6":[{"case":"1","seconds":0.5}],"table1":{"total":3}}"#;
        assert_eq!(diff(doc, doc), None);
    }

    #[test]
    fn a_changed_number_is_named_by_its_nested_path() {
        assert_eq!(
            diff(
                r#"{"fig5":[1],"fig6":[{"seconds":0.1},{"seconds":0.25,"case":"2"}]}"#,
                r#"{"fig5":[1],"fig6":[{"seconds":0.1},{"seconds":0.5,"case":"2"}]}"#,
            )
            .as_deref(),
            Some("fig6[1].seconds: 0.25 → 0.5")
        );
    }

    #[test]
    fn an_array_length_mismatch_is_reported_after_its_common_prefix() {
        assert_eq!(
            diff(r#"{"moe":{"rows":[1,2,3]}}"#, r#"{"moe":{"rows":[1,2]}}"#).as_deref(),
            Some("moe.rows: 3 elements → 2 elements")
        );
        // A differing element inside the common prefix wins over the length.
        assert_eq!(
            diff(r#"{"rows":[1,2,3]}"#, r#"{"rows":[1,9]}"#).as_deref(),
            Some("rows[1]: 2 → 9")
        );
    }

    #[test]
    fn a_missing_member_is_reported_on_either_side() {
        assert_eq!(
            diff(r#"{"a":1,"faults":[]}"#, r#"{"a":1}"#).as_deref(),
            Some("faults: [] → missing")
        );
        assert_eq!(
            diff(r#"{"a":{}}"#, r#"{"a":{"dfs_nodes":7}}"#).as_deref(),
            Some("a.dfs_nodes: missing → 7")
        );
    }
}
