//! Determinism lint: a line-oriented source scanner enforcing the
//! workspace's determinism rules. Planner output must be byte-identical
//! across runs and thread counts, so the layers that compute it may not
//! consult hash-order collections, wall clocks, or unseeded randomness —
//! and the runtime's send/recv paths may not `unwrap()` (a poisoned
//! channel must surface as a transport error, not a panic).
//!
//! Five rules, each scoped to the directories where the invariant holds:
//!
//! | rule | scope | bans |
//! |---|---|---|
//! | `lint.hash-iteration` | `crates/core/src/planners/` | `HashMap`, `HashSet` |
//! | `lint.wall-clock` | core, collectives, mesh, moe, netsim, pipeline, bench | `Instant::now`, `SystemTime::now`, `thread_rng`, `from_entropy`, `rand::random` |
//! | `lint.unwrap` | runtime, serve, `crates/obs/src/recorder.rs`, `crates/core/src/dataplane.rs` | `.unwrap()` |
//! | `lint.atomic-ordering` | core, runtime, serve | `Ordering::Relaxed` outside allowlisted counter/fast-path sites |
//! | `lint.lock-order` | core, runtime, serve, obs | the same two locks taken in both orders (see [`LockOrderScanner`]) |
//!
//! Lines inside `#[cfg(test)]` regions and comment lines are skipped.
//! Findings can be suppressed through an allowlist file (see
//! [`parse_allowlist`]); the canonical allowlist lives at
//! `crates/check/lint-allow.txt` and is enforced in CI via the
//! `crossmesh-lint` binary.

use crate::{record_lint_findings, Diagnostic, Rule};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories (workspace-relative) scanned for the wall-clock/RNG rule:
/// the layers that compute plans and simulated time, and the harnesses
/// whose output `BENCH_paper.json` pins byte for byte.
const DETERMINISTIC_SCOPES: &[&str] = &[
    "crates/bench/src/",
    "crates/core/src/",
    "crates/collectives/src/",
    "crates/mesh/src/",
    "crates/moe/src/",
    "crates/netsim/src/",
    "crates/pipeline/src/",
];

/// Directory scanned for the hash-iteration rule.
const PLANNER_SCOPE: &str = "crates/core/src/planners/";

/// Directories scanned for the unwrap rule: the runtime's send/recv
/// paths, the serve daemon's request paths, the flight recorder's dump
/// path (each runs on threads whose panic would strand a run), and the
/// delivery engine, whose lanes run on the shared pool.
const UNWRAP_SCOPES: &[&str] = &[
    "crates/runtime/src/",
    "crates/serve/src/",
    "crates/obs/src/recorder.rs",
    "crates/core/src/dataplane.rs",
];

/// Directories scanned for the atomic-ordering rule. `Relaxed` is only
/// sound for monotone counters and snapshot gauges; anything that
/// *publishes* data needs Acquire/Release, so every `Relaxed` outside the
/// allowlist is a finding.
const ATOMIC_SCOPES: &[&str] = &[
    "crates/core/src/",
    "crates/runtime/src/",
    "crates/serve/src/",
];

/// Directories scanned for the lock-order rule.
const LOCK_ORDER_SCOPES: &[&str] = &[
    "crates/core/src/",
    "crates/runtime/src/",
    "crates/serve/src/",
    "crates/obs/src/",
];

/// One allowlist entry: suppresses `rule` findings in files whose
/// workspace-relative path ends with `path_suffix`, on lines containing
/// `pattern`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id to suppress, e.g. `lint.unwrap`.
    pub rule: String,
    /// Path suffix the entry applies to.
    pub path_suffix: String,
    /// Substring the offending line must contain.
    pub pattern: String,
}

impl AllowEntry {
    fn matches(&self, rule: Rule, rel_path: &str, line: &str) -> bool {
        self.rule == rule.id()
            && rel_path.ends_with(&self.path_suffix)
            && line.contains(&self.pattern)
    }
}

/// Parses an allowlist document: one entry per line, `|`-separated fields
/// `rule | path-suffix | line-substring`; `#` starts a comment.
///
/// Malformed lines (fewer than three fields) are ignored rather than
/// fatal, so a stray comment cannot brick CI.
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.splitn(3, '|').map(str::trim);
            Some(AllowEntry {
                rule: parts.next()?.to_string(),
                path_suffix: parts.next()?.to_string(),
                pattern: parts.next()?.to_string(),
            })
        })
        .collect()
}

fn in_scope(rel_path: &str, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| rel_path.starts_with(s))
}

/// Lints one source file. `rel_path` is the workspace-relative path (used
/// both for rule scoping and in diagnostics); `content` is the file text.
///
/// Everything from the first `#[cfg(test)]` line onward is skipped — the
/// workspace convention keeps test modules at the end of each file — as
/// are comment-only lines (a doc comment may legitimately *mention*
/// `Instant::now`).
pub fn lint_source(rel_path: &str, content: &str, allow: &[AllowEntry]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if !rel_path.ends_with(".rs") {
        return diags;
    }
    let hash_scope = rel_path.starts_with(PLANNER_SCOPE);
    let clock_scope = in_scope(rel_path, DETERMINISTIC_SCOPES);
    let unwrap_scope = in_scope(rel_path, UNWRAP_SCOPES);
    let atomic_scope = in_scope(rel_path, ATOMIC_SCOPES);
    if !(hash_scope || clock_scope || unwrap_scope || atomic_scope) {
        return diags;
    }

    for (i, line) in content.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        let lineno = i + 1;
        let mut push = |rule: Rule, what: &str, why: &str| {
            if allow.iter().any(|e| e.matches(rule, rel_path, line)) {
                return;
            }
            diags.push(Diagnostic::error(
                rule,
                format!("{rel_path}:{lineno}"),
                format!("{what}: {why}"),
            ));
        };
        if hash_scope {
            for token in ["HashMap", "HashSet"] {
                if line.contains(token) {
                    push(
                        Rule::LintHashIteration,
                        token,
                        "hash iteration order would leak into plans; use BTreeMap/BTreeSet",
                    );
                }
            }
        }
        if clock_scope {
            for token in [
                "Instant::now",
                "SystemTime::now",
                "thread_rng",
                "from_entropy",
                "rand::random",
            ] {
                if line.contains(token) {
                    push(
                        Rule::LintWallClock,
                        token,
                        "wall clock / unseeded RNG in a deterministic layer; thread seeds through the API",
                    );
                }
            }
        }
        if unwrap_scope && line.contains(".unwrap()") {
            push(
                Rule::LintUnwrap,
                ".unwrap()",
                "runtime send/recv paths must surface errors, not panic; use expect with a message or propagate",
            );
        }
        if atomic_scope && line.contains("Ordering::Relaxed") {
            push(
                Rule::LintAtomicOrdering,
                "Ordering::Relaxed",
                "relaxed atomics publish nothing; allowlist the site if it is a pure counter/gauge, \
                 otherwise use Acquire/Release",
            );
        }
    }
    diags
}

/// Cross-file lock-acquisition-order scanner behind `lint.lock-order`.
///
/// Within each function it records, for every `X.lock()` that happens
/// textually after an earlier `Y.lock()`, the ordered receiver pair
/// `(Y, X)`. After the whole corpus is scanned, any pair observed in
/// *both* orders is an inversion — two call paths that could deadlock by
/// each holding one lock while waiting on the other — and every involved
/// site is reported. Receivers are normalized (index and call-argument
/// text stripped, so `self.shards[i].lock()` and `self.shards[j].lock()`
/// agree); the textual-order heuristic over-approximates guard lifetimes,
/// which is what the allowlist is for.
#[derive(Debug, Default)]
pub struct LockOrderScanner {
    /// Ordered pair `(first, second)` -> sites where it was observed,
    /// each as `(location, source line of the second lock)`.
    pairs: std::collections::BTreeMap<(String, String), Vec<(String, String)>>,
}

/// The normalized lock receiver ending at `end` (the index of `.lock()`),
/// or `None` when there is no plausible receiver expression.
fn lock_receiver(line: &str, end: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut depth = 0u32;
    let mut start = end;
    while start > 0 {
        let c = bytes[start - 1] as char;
        let take = match c {
            ')' | ']' => {
                depth += 1;
                true
            }
            '(' | '[' => {
                if depth == 0 {
                    false
                } else {
                    depth -= 1;
                    true
                }
            }
            _ if depth > 0 => true,
            _ => c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == ':',
        };
        if !take {
            break;
        }
        start -= 1;
    }
    // Strip bracket contents so distinct keys hash to the same receiver.
    let mut out = String::new();
    let mut depth = 0u32;
    for c in line[start..end].chars() {
        match c {
            '(' | '[' => {
                if depth == 0 {
                    out.push(c);
                }
                depth += 1;
            }
            ')' | ']' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    out.push(c);
                }
            }
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    let out = out.trim_start_matches('.').to_string();
    if out.is_empty() || out == "self" {
        None
    } else {
        Some(out)
    }
}

impl LockOrderScanner {
    /// An empty scanner.
    pub fn new() -> LockOrderScanner {
        LockOrderScanner::default()
    }

    /// Scans one source file, accumulating ordered lock pairs. Test
    /// modules and comment lines are skipped like [`lint_source`].
    pub fn scan(&mut self, rel_path: &str, content: &str) {
        let mut held: Vec<(String, usize)> = Vec::new();
        for (i, line) in content.lines().enumerate() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("#[cfg(test)]") {
                break;
            }
            if trimmed.starts_with("//") {
                continue;
            }
            // A new fn starts a fresh ordering context.
            if trimmed.starts_with("fn ")
                || trimmed.contains(" fn ")
                || trimmed.starts_with("pub fn ")
            {
                held.clear();
            }
            let mut from = 0;
            while let Some(at) = line[from..].find(".lock()") {
                let end = from + at;
                if let Some(recv) = lock_receiver(line, end) {
                    let lineno = i + 1;
                    for (prev, _) in &held {
                        if *prev != recv {
                            self.pairs
                                .entry((prev.clone(), recv.clone()))
                                .or_default()
                                .push((format!("{rel_path}:{lineno}"), line.to_string()));
                        }
                    }
                    held.push((recv, lineno));
                }
                from = end + ".lock()".len();
            }
        }
    }

    /// Diagnostics for every pair of locks observed in both orders, one
    /// per involved site (deduplicated, allowlist applied).
    pub fn findings(&self, allow: &[AllowEntry]) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for ((a, b), sites) in &self.pairs {
            let reverse = match self.pairs.get(&(b.clone(), a.clone())) {
                Some(r) if (a, b) <= (b, a) => r,
                _ => continue,
            };
            for (site, line) in sites.iter().chain(reverse) {
                let (rel_path, _) = site.rsplit_once(':').unwrap_or((site.as_str(), ""));
                if allow
                    .iter()
                    .any(|e| e.matches(Rule::LintLockOrder, rel_path, line))
                {
                    continue;
                }
                if !seen.insert(site.clone()) {
                    continue;
                }
                diags.push(Diagnostic::error(
                    Rule::LintLockOrder,
                    site.clone(),
                    format!(
                        "locks `{a}` and `{b}` are taken in both orders across the workspace; \
                         a consistent order (or a lock merge) is required to rule out deadlock"
                    ),
                ));
            }
        }
        diags.sort_by(|x, y| x.location.cmp(&y.location));
        diags
    }
}

/// The outcome of a repository lint run.
#[derive(Debug)]
pub struct LintReport {
    /// Files scanned (in-scope `.rs` files found under the root).
    pub files_scanned: usize,
    /// All findings, ordered by path then line.
    pub diagnostics: Vec<Diagnostic>,
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every in-scope source file under the workspace `root`, applying
/// the allowlist.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the source tree.
pub fn lint_repo(root: &Path, allow: &[AllowEntry]) -> io::Result<LintReport> {
    let mut scopes: Vec<&str> = DETERMINISTIC_SCOPES.to_vec();
    scopes.extend(UNWRAP_SCOPES);
    scopes.extend(ATOMIC_SCOPES);
    scopes.extend(LOCK_ORDER_SCOPES);
    let mut files = Vec::new();
    for scope in &scopes {
        let path = root.join(scope);
        if path.is_dir() {
            collect_rs_files(&path, &mut files)?;
        } else if path.is_file() {
            files.push(path);
        }
    }
    files.sort();
    files.dedup();
    let mut diagnostics = Vec::new();
    let mut lock_order = LockOrderScanner::new();
    let mut files_scanned = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let content = fs::read_to_string(path)?;
        files_scanned += 1;
        diagnostics.extend(lint_source(&rel, &content, allow));
        if in_scope(&rel, LOCK_ORDER_SCOPES) {
            lock_order.scan(&rel, &content);
        }
    }
    diagnostics.extend(lock_order.findings(allow));
    record_lint_findings(diagnostics.len() as u64);
    Ok(LintReport {
        files_scanned,
        diagnostics,
    })
}

/// Loads and parses the allowlist at `path`; a missing file is an empty
/// allowlist.
///
/// # Errors
///
/// Propagates I/O errors other than `NotFound`.
pub fn load_allowlist(path: &Path) -> io::Result<Vec<AllowEntry>> {
    match fs::read_to_string(path) {
        Ok(text) => Ok(parse_allowlist(&text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banned_constructs_are_flagged_in_scope() {
        let src = "use std::collections::HashMap;\nlet m: HashMap<u32, u32> = HashMap::new();\n";
        let diags = lint_source("crates/core/src/planners/bad.rs", src, &[]);
        assert!(diags.iter().any(|d| d.rule == Rule::LintHashIteration));
        // Same content outside the planner scope: clean.
        assert!(lint_source("crates/models/src/gpt.rs", src, &[]).is_empty());
    }

    #[test]
    fn wall_clock_and_unwrap_rules_scope_correctly() {
        let clock = "let t0 = std::time::Instant::now();\n";
        assert!(lint_source("crates/core/src/plan.rs", clock, &[])
            .iter()
            .any(|d| d.rule == Rule::LintWallClock));
        // The golden's producer reads no clock either.
        assert!(lint_source("crates/bench/src/fig5.rs", clock, &[])
            .iter()
            .any(|d| d.rule == Rule::LintWallClock));
        // The runtime may use wall clocks (it measures real time)...
        assert!(lint_source("crates/runtime/src/backend.rs", clock, &[]).is_empty());
        // ...but may not unwrap.
        let unwrap = "let x = rx.recv().unwrap();\n";
        assert!(lint_source("crates/runtime/src/backend.rs", unwrap, &[])
            .iter()
            .any(|d| d.rule == Rule::LintUnwrap));
    }

    #[test]
    fn relaxed_atomics_are_flagged_unless_allowlisted() {
        let src = "self.flag.store(true, Ordering::Relaxed);\nself.hits.fetch_add(1, Ordering::Relaxed);\n";
        let diags = lint_source("crates/serve/src/server.rs", src, &[]);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == Rule::LintAtomicOrdering));
        // Allowlisting the counter leaves only the flag publication.
        let allow = parse_allowlist(
            "lint.atomic-ordering | server.rs | hits.fetch_add(1, Ordering::Relaxed)\n",
        );
        let diags = lint_source("crates/serve/src/server.rs", src, &allow);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].explanation.contains("Ordering::Relaxed"));
        // Out of scope (obs is Relaxed-by-design): clean.
        assert!(lint_source("crates/obs/src/metrics.rs", src, &[]).is_empty());
    }

    #[test]
    fn inverted_lock_orders_convict_every_site() {
        let mut scanner = LockOrderScanner::new();
        scanner.scan(
            "crates/serve/src/server.rs",
            "fn a(&self) {\n let s = self.dispatch.lock();\n let t = self.samples.lock();\n}\n",
        );
        scanner.scan(
            "crates/serve/src/other.rs",
            "fn b(&self) {\n let t = self.samples.lock();\n let s = self.dispatch.lock();\n}\n",
        );
        let diags = scanner.findings(&[]);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == Rule::LintLockOrder));
        assert!(diags.iter().any(|d| d.location.ends_with("server.rs:3")));
        assert!(diags.iter().any(|d| d.location.ends_with("other.rs:3")));
    }

    #[test]
    fn consistent_lock_order_is_clean_and_indexes_normalize() {
        let mut scanner = LockOrderScanner::new();
        // Same textual order in both functions; index arguments differ
        // but normalize to one receiver, so no self-pair is recorded.
        scanner.scan(
            "crates/core/src/cache.rs",
            "fn a(&self) {\n let g = self.shards[i].lock();\n let h = self.meta.lock();\n}\n\
             fn b(&self) {\n let g = self.shards[j + 1].lock();\n let h = self.meta.lock();\n}\n",
        );
        assert!(scanner.findings(&[]).is_empty());
        // A fn boundary resets the held set: locks in different functions
        // never pair.
        let mut reset = LockOrderScanner::new();
        reset.scan(
            "crates/core/src/cache.rs",
            "fn a(&self) {\n let g = self.x.lock();\n}\nfn b(&self) {\n let h = self.y.lock();\n}\n\
             fn c(&self) {\n let h = self.y.lock();\n let g = self.x.lock();\n}\n",
        );
        assert!(reset.findings(&[]).is_empty());
    }

    #[test]
    fn lock_receiver_extraction_handles_calls_and_indexes() {
        let line = "        let mut ring = self.shards[shard_index()].lock();";
        let at = line.find(".lock()").unwrap();
        assert_eq!(lock_receiver(line, at).as_deref(), Some("self.shards[]"));
        let line = "            let mut stream = stream.lock();";
        let at = line.find(".lock()").unwrap();
        assert_eq!(lock_receiver(line, at).as_deref(), Some("stream"));
        let line = "        let st = self.shard(key).lock();";
        let at = line.find(".lock()").unwrap();
        assert_eq!(lock_receiver(line, at).as_deref(), Some("self.shard()"));
    }

    #[test]
    fn unwrap_scope_covers_serve_the_recorder_and_the_dataplane() {
        let unwrap = "let x = rx.recv().unwrap();\n";
        for path in [
            "crates/serve/src/server.rs",
            "crates/obs/src/recorder.rs",
            "crates/runtime/src/backend.rs",
            "crates/core/src/dataplane.rs",
        ] {
            assert!(
                lint_source(path, unwrap, &[])
                    .iter()
                    .any(|d| d.rule == Rule::LintUnwrap),
                "{path} should be in the unwrap scope"
            );
        }
        // The rest of obs and of core stays out of scope.
        assert!(lint_source("crates/obs/src/metrics.rs", unwrap, &[]).is_empty());
        assert!(lint_source("crates/core/src/plan.rs", unwrap, &[]).is_empty());
    }

    #[test]
    fn comments_and_test_modules_are_skipped() {
        let src = "// Instant::now is banned here\n/// docs: thread_rng\n#[cfg(test)]\nmod tests { fn f() { let _ = std::time::Instant::now(); } }\n";
        assert!(lint_source("crates/core/src/plan.rs", src, &[]).is_empty());
    }

    #[test]
    fn allowlist_suppresses_matching_findings_only() {
        let src = "let x = header.try_into().unwrap();\nlet y = rx.recv().unwrap();\n";
        let allow = parse_allowlist(
            "# suppress the infallible header parse\nlint.unwrap | backend.rs | try_into()\n",
        );
        let diags = lint_source("crates/runtime/src/backend.rs", src, &allow);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].explanation.contains(".unwrap()"));
        assert!(diags[0].location.ends_with(":2"));
    }

    #[test]
    fn allowlist_parser_ignores_junk() {
        let entries = parse_allowlist("# comment\n\nnot-enough-fields\na | b | c\n");
        assert_eq!(
            entries,
            vec![AllowEntry {
                rule: "a".into(),
                path_suffix: "b".into(),
                pattern: "c".into(),
            }]
        );
    }

    #[test]
    fn fixture_file_with_banned_constructs_is_caught() {
        let fixture = include_str!("../tests/fixtures/nondeterministic_planner.rs");
        let diags = lint_source(
            "crates/core/src/planners/nondeterministic_planner.rs",
            fixture,
            &[],
        );
        assert!(
            diags.iter().any(|d| d.rule == Rule::LintHashIteration),
            "{diags:?}"
        );
        assert!(diags.iter().any(|d| d.rule == Rule::LintWallClock));
    }

    #[test]
    fn the_workspace_itself_is_lint_clean() {
        // The crate sits at crates/check; the workspace root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let allow = load_allowlist(&root.join("crates/check/lint-allow.txt")).expect("allowlist");
        let report = lint_repo(&root, &allow).expect("lint runs");
        assert!(
            report.files_scanned > 20,
            "scanned {}",
            report.files_scanned
        );
        assert!(
            report.diagnostics.is_empty(),
            "{}",
            crate::render_text(&report.diagnostics)
        );
    }
}
