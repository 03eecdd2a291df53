//! `BENCH_paper.json`: every deterministic number the repo reproduces, in
//! one document, and the comparator that says *where* two such documents
//! differ.
//!
//! Everything here is simulated seconds, byte counts or work counters —
//! no wall clock — so it repeats byte for byte across hosts, build
//! profiles and pool widths, and `tests/paper_golden.rs` demands equality
//! with the committed file. Regenerate it with
//! `cargo run --release -p crossmesh-bench --bin repro_all -- --json > BENCH_paper.json`.

use crate::{ablations, faults, fig5, fig6, fig7, fig8, fig9, moe, planner, section, table1};
use serde_json::Value;
use std::collections::BTreeSet;

/// Runs every deterministic harness and returns the combined document:
/// pretty-printed JSON keyed by section name when `json` is set, the
/// rendered tables otherwise.
///
/// The `planner_work` section reads process-wide counters: call this from
/// a process where nothing else is planning.
pub fn document(json: bool) -> String {
    let sections = [
        section("table1", json, table1::run, table1::render),
        section("fig5", json, fig5::run, |r| fig5::render(r)),
        section("fig6", json, fig6::run, |r| fig6::render(r)),
        section("fig7", json, fig7::run, |r| fig7::render(r)),
        section("fig8", json, fig8::run, |r| fig8::render(r)),
        section("fig9", json, fig9::run, |r| fig9::render(r)),
        section("ablations", json, ablations::run, ablations::render),
        section("faults", json, faults::run, |r| faults::render(r)),
        section("moe", json, || moe::run(false), moe::render),
        section("planner_work", json, planner::work, |r| {
            planner::render_work(r)
        }),
    ];
    if !json {
        return sections.join("\n");
    }
    let doc: Value = serde_json::from_str(&format!("{{{}}}", sections.join(",")))
        .expect("sections join into valid JSON");
    serde_json::to_string_pretty(&doc).expect("values serialize")
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
