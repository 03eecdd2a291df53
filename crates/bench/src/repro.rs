//! Shared entry point for the `repro_*` binaries.
//!
//! Every reproduction binary does the same thing: run a harness, then
//! print either the human-readable rendering or (with `--json`) a
//! machine-readable dump. [`repro_main`] is that whole main function;
//! [`section`] is the same step returning a string so `paper::document`
//! can chain harnesses into one document; [`report_main`] is the main
//! function of the five wall-clock harnesses, which also leave their
//! report behind as a `BENCH_*.json` record.

use serde::Serialize;

/// Runs one reproduction harness end to end: calls `run`, then prints
/// `render(&rows)` — or, when `--json` appears on the command line, a
/// pretty-printed JSON dump of the rows instead.
///
/// `name` only appears in the panic message should the rows fail to
/// serialize (a harness bug).
pub fn repro_main<T, R, F>(name: &str, run: R, render: F)
where
    T: Serialize,
    R: FnOnce() -> T,
    F: FnOnce(&T) -> String,
{
    let json = std::env::args().any(|a| a == "--json");
    let rows = run();
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows)
                .unwrap_or_else(|e| panic!("{name}: rows must serialize: {e:?}"))
        );
    } else {
        println!("{}", render(&rows));
    }
}

/// Runs one wall-clock harness end to end: [`repro_main`], which on the
/// way also writes the report as pretty-printed JSON to `default_out` (or
/// the path after `--out`). The file is a record for EXPERIMENTS.md to
/// cite; nothing gates on it (wall clock is judged by `benchmark/`).
pub fn report_main<T, R, F>(default_out: &str, run: R, render: F)
where
    T: Serialize,
    R: FnOnce() -> T,
    F: FnOnce(&T) -> String,
{
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or(default_out, String::as_str);
    repro_main(
        default_out,
        || {
            let report = run();
            let pretty = serde_json::to_string_pretty(&report)
                .unwrap_or_else(|e| panic!("{default_out}: report must serialize: {e:?}"));
            std::fs::write(out, pretty).unwrap_or_else(|e| panic!("writing {out}: {e}"));
            report
        },
        |report| format!("{}\nwrote {out}", render(report)),
    );
}

/// One named section of a combined multi-harness document: the JSON
/// object member `"name":<rows>` when `json` is set, the rendered table
/// otherwise. `paper::document` joins JSON sections with `,` inside
/// `{...}` and text sections with newlines.
pub fn section<T, R, F>(name: &str, json: bool, run: R, render: F) -> String
where
    T: Serialize,
    R: FnOnce() -> T,
    F: FnOnce(&T) -> String,
{
    let rows = run();
    if json {
        format!(
            "{}:{}",
            serde_json::to_string(&name.to_string()).expect("strings serialize"),
            serde_json::to_string(&rows)
                .unwrap_or_else(|e| panic!("{name}: rows must serialize: {e:?}"))
        )
    } else {
        render(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_emits_a_json_member_or_the_rendering() {
        let member = section("t", true, || vec![1u32, 2], |_| unreachable!());
        assert_eq!(member, "\"t\":[1,2]");
        let text = section(
            "t",
            false,
            || vec![1u32, 2],
            |r| format!("{} rows", r.len()),
        );
        assert_eq!(text, "2 rows");
    }

    #[test]
    fn sections_join_into_parseable_json() {
        let doc = format!(
            "{{{}}}",
            [
                section("a", true, || 1u32, |_| String::new()),
                section("b", true, || vec!["x"], |_| String::new()),
            ]
            .join(",")
        );
        let v: serde_json::Value = serde_json::from_str(&doc).expect("valid JSON");
        assert_eq!(v["a"].as_f64(), Some(1.0));
        assert_eq!(v["b"][0], "x");
    }
}
