//! # pagesim-lint
//!
//! Determinism/soundness static analysis for the pagesim workspace — the
//! build-time analog of Linux's `CONFIG_DEBUG_VM`: unsound simulator
//! changes should *fail to merge*, not corrupt characterization data.
//!
//! The repo's core contract is that figure output is byte-identical for
//! any `--jobs` count, cache state, or completion order, and (ROADMAP
//! item 1) that the fault/reclaim loops run at millions of pages per
//! second. Both are easy to break silently: one `.iter()` over a
//! `HashMap`, one `Instant::now()` hidden a helper away, one `format!`
//! per fault. This crate enforces the rule catalog below.
//!
//! ## Rule catalog
//!
//! File-scoped determinism rules (as in PR 3):
//!
//! | rule | id             | what it forbids |
//! |------|----------------|-----------------|
//! | L1   | `hash-iter`    | iterating `HashMap`/`HashSet` state in sim crates |
//! | L2   | `wall-clock`   | ambient time/entropy: `Instant::now`, `SystemTime`, `thread_rng`, `RandomState`, `OsRng` in sim crates |
//! | L3   | `thread-spawn` | `thread::spawn`/`scope`/`Builder` anywhere except `pagesim-bench::sweep` |
//! | L4   | `lint-header`  | a workspace member without `[lints] workspace = true`, or a root manifest without the `unsafe_code = "forbid"` deny table |
//! | L5   | `hot-unwrap`   | `.unwrap()`/`.expect(…)` on kernel hot-path files |
//! | L6   | `catch-unwind` | `catch_unwind` outside the sweep executor's isolation module |
//!
//! Call-graph rules, scoped to the *hot-path cone* — every function
//! transitively reachable from `Kernel::fault`, the reclaim/aging entry
//! points, or a `Policy` impl's hot methods (see [`graph::HOT_ROOTS`]):
//! L1/L2 constructs anywhere in the cone are reported with the full
//! root→…→function call chain, and the H-series hygiene rules apply:
//!
//! | rule | id               | what it forbids in the cone |
//! |------|------------------|------------------------------|
//! | H1   | `hot-alloc`      | heap allocation: `Box::new`, growth methods on std containers, `vec!`/`format!`, `.collect()`, `.to_owned()` family |
//! | H2   | `hot-clone`      | `.clone()` of non-`Copy` types |
//! | H3   | `hot-dyn`        | introducing `dyn` dispatch inside cone function bodies |
//! | H4   | `hot-float`      | `f32`/`f64` outside `pagesim-stats` |
//!
//! Plus one workspace-wide soundness rule:
//!
//! | rule | id               | what it requires |
//! |------|------------------|------------------|
//! | U1   | `safety-comment` | every `unsafe` block carries a preceding `// SAFETY:` comment (vendored stand-ins exempt) |
//!
//! A finding can be waived in place with an annotation **carrying a
//! reason**, on the same line or the line above:
//!
//! ```text
//! // lint: allow(hash-iter) drained under a sort before use
//! ```
//!
//! An annotation without a reason does not suppress anything. Pre-existing
//! H-series findings live in the ratcheted `lint-baseline.toml` instead
//! (see [`baseline`]): baselined findings warn, new ones fail, and fixed
//! ones must be removed from the baseline or the lint fails as stale.
//!
//! ## How it works
//!
//! Source is *scrubbed* (comments/strings blanked byte-for-byte, see
//! [`scrub`]), `#[cfg(test)]` items are stripped, a lightweight item
//! parser ([`parse`]) extracts `fn`/`impl`/`use`/`struct` structure, and
//! a name-resolved call graph ([`graph`]) computes the hot-path cone via
//! BFS with parent pointers — so every cone finding renders its chain.
//! The pass is a tripwire, not a verifier: resolution approximations are
//! documented in DESIGN.md, and the `sanitize` runtime feature backstops
//! what the static pass cannot see.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod baseline;
pub mod graph;
pub mod parse;
pub mod rules;
pub mod sarif;
mod scrub;

pub use scrub::scrub;

use graph::{Graph, Reach};
use parse::ParsedFile;
use scrub::{strip_cfg_gated, LineIndex};

/// The enforced rules.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rule {
    /// L1: no iteration over hash-ordered containers in sim crates.
    HashIter,
    /// L2: no wall-clock or ambient-entropy sources in sim crates.
    WallClock,
    /// L3: no thread creation outside `pagesim-bench::sweep`.
    ThreadSpawn,
    /// L4: every member opts into the workspace deny-lint table.
    LintHeader,
    /// L5: no `.unwrap()`/`.expect()` on kernel hot paths.
    HotUnwrap,
    /// L6: no `catch_unwind` outside the sanctioned isolation module.
    CatchUnwind,
    /// H1: no heap allocation in the fault/reclaim cone.
    HotAlloc,
    /// H2: no `.clone()` of non-`Copy` types in the cone.
    HotClone,
    /// H3: no `dyn` dispatch introduced inside cone function bodies.
    HotDyn,
    /// H4: no `f32`/`f64` in the cone outside `pagesim-stats`.
    HotFloat,
    /// U1: every `unsafe` block requires a `// SAFETY:` comment.
    SafetyComment,
}

impl Rule {
    /// Every rule, in catalog order.
    pub const ALL: &'static [Rule] = &[
        Rule::HashIter,
        Rule::WallClock,
        Rule::ThreadSpawn,
        Rule::LintHeader,
        Rule::HotUnwrap,
        Rule::CatchUnwind,
        Rule::HotAlloc,
        Rule::HotClone,
        Rule::HotDyn,
        Rule::HotFloat,
        Rule::SafetyComment,
    ];

    /// Short annotation id, as used in `// lint: allow(<id>) <reason>`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::WallClock => "wall-clock",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::LintHeader => "lint-header",
            Rule::HotUnwrap => "hot-unwrap",
            Rule::CatchUnwind => "catch-unwind",
            Rule::HotAlloc => "hot-alloc",
            Rule::HotClone => "hot-clone",
            Rule::HotDyn => "hot-dyn",
            Rule::HotFloat => "hot-float",
            Rule::SafetyComment => "safety-comment",
        }
    }

    /// Stable rule code (`L1`..`L6`, `H1`..`H4`, `U1`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::HashIter => "L1",
            Rule::WallClock => "L2",
            Rule::ThreadSpawn => "L3",
            Rule::LintHeader => "L4",
            Rule::HotUnwrap => "L5",
            Rule::CatchUnwind => "L6",
            Rule::HotAlloc => "H1",
            Rule::HotClone => "H2",
            Rule::HotDyn => "H3",
            Rule::HotFloat => "H4",
            Rule::SafetyComment => "U1",
        }
    }

    /// One-line description for the SARIF rule catalog.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::HashIter => "No iteration over hash-ordered containers in sim crates",
            Rule::WallClock => "No wall-clock or ambient-entropy sources in sim crates",
            Rule::ThreadSpawn => "No thread creation outside the deterministic sweep executor",
            Rule::LintHeader => "Workspace members must opt into the deny-lint table",
            Rule::HotUnwrap => "No unwrap/expect on SimError hot paths",
            Rule::CatchUnwind => "No catch_unwind outside the sanctioned isolation module",
            Rule::HotAlloc => "No heap allocation in the fault/reclaim cone",
            Rule::HotClone => "No clone of non-Copy types in the fault/reclaim cone",
            Rule::HotDyn => "No dyn dispatch introduced inside the fault/reclaim cone",
            Rule::HotFloat => "No f32/f64 in the fault/reclaim cone outside pagesim-stats",
            Rule::SafetyComment => "Every unsafe block requires a preceding SAFETY: comment",
        }
    }
}

/// One function hop along a root→…→construct call chain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChainHop {
    /// `Owner::name` symbol of the function.
    pub symbol: String,
    /// Workspace-relative file the function is defined in.
    pub file: String,
    /// 1-based line of the function definition.
    pub line: u32,
}

/// One rule violation at a source location.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Path of the offending file (workspace-relative when produced by
    /// [`lint_workspace`]).
    pub file: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Enclosing function symbol (`Owner::name`), when known.
    pub symbol: String,
    /// Hot-path call chain root→…→enclosing function, for cone findings.
    pub chain: Vec<ChainHop>,
}

impl Finding {
    fn new(rule: Rule, file: &str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            file: file.to_owned(),
            line,
            message,
            symbol: String::new(),
            chain: Vec::new(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}:{}: {}",
            self.rule.code(),
            self.rule.id(),
            self.file,
            self.line,
            self.message
        )?;
        if !self.chain.is_empty() {
            let path: Vec<&str> = self.chain.iter().map(|h| h.symbol.as_str()).collect();
            write!(f, " [chain: {}]", path.join(" -> "))?;
        }
        Ok(())
    }
}

/// Which source rules apply to a file (L4 is manifest-level, and the
/// graph/H/U rules are workspace-level; all are handled by
/// [`lint_workspace`]).
#[derive(Clone, Copy, Default, Debug)]
pub struct RuleSet {
    /// Apply L1 (`hash-iter`).
    pub hash_iter: bool,
    /// Apply L2 (`wall-clock`).
    pub wall_clock: bool,
    /// Apply L3 (`thread-spawn`).
    pub thread_spawn: bool,
    /// Apply L5 (`hot-unwrap`).
    pub hot_unwrap: bool,
    /// Apply L6 (`catch-unwind`).
    // lint: allow(catch-unwind) rule metadata field, not a panic catch
    pub catch_unwind: bool,
}

/// Workspace members whose sources carry the full determinism rule set
/// (directory names under `crates/`).
pub const SIM_CRATES: &[&str] = &[
    "core",
    "engine",
    "json",
    "kv",
    "mem",
    "policy",
    "stats",
    "swap",
    "trace",
    "workloads",
];

/// Workspace-relative files on the `SimError` hot path (fault handling,
/// reclaim, swap I/O) where L5 forbids `.unwrap()`/`.expect()`.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/kernel.rs",
    "crates/swap/src/device.rs",
    "crates/swap/src/slots.rs",
];

/// The one file allowed to create threads: the deterministic sweep
/// executor.
pub const THREAD_EXEMPT_FILES: &[&str] = &["crates/bench/src/sweep/mod.rs"];

/// The one file allowed to call `catch_unwind`: the sweep executor's
/// per-trial isolation module, where the swallow-a-panic policy is
/// documented and auditable in one place. Everywhere else a panic is a
/// broken invariant and must propagate (L6).
pub const UNWIND_EXEMPT_FILES: &[&str] = &["crates/bench/src/sweep/isolation.rs"];

/// Computes the rule set for a file, given its crate directory name (under
/// `crates/`) and workspace-relative path.
pub fn rules_for(crate_dir: &str, rel_path: &str) -> RuleSet {
    let sim = SIM_CRATES.contains(&crate_dir);
    RuleSet {
        hash_iter: sim,
        wall_clock: sim,
        thread_spawn: !THREAD_EXEMPT_FILES.contains(&rel_path),
        hot_unwrap: HOT_PATH_FILES.contains(&rel_path),
        // lint: allow(catch-unwind) rule metadata field, not a panic catch
        catch_unwind: !UNWIND_EXEMPT_FILES.contains(&rel_path),
    }
}

// ---------------------------------------------------------------------
// Allow annotations
// ---------------------------------------------------------------------

/// Parsed `// lint: allow(<id>) <reason>` annotations, keyed by 1-based
/// line. The bool records whether a non-empty reason was given — reasons
/// are mandatory for the annotation to suppress anything.
fn allow_annotations(src: &str) -> BTreeMap<u32, Vec<(String, bool)>> {
    let mut map: BTreeMap<u32, Vec<(String, bool)>> = BTreeMap::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find("lint: allow(") else {
            continue;
        };
        let rest = &line[pos + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let id = rest[..close].trim().to_owned();
        let reason = rest[close + 1..].trim();
        map.entry(idx as u32 + 1)
            .or_default()
            .push((id, !reason.is_empty()));
    }
    map
}

fn is_allowed(annotations: &BTreeMap<u32, Vec<(String, bool)>>, rule: Rule, line: u32) -> bool {
    [line, line.saturating_sub(1)].iter().any(|l| {
        annotations
            .get(l)
            .is_some_and(|v| v.iter().any(|(id, ok)| *ok && id == rule.id()))
    })
}

/// Runs the applicable per-file source rules over one file's contents.
pub fn lint_source(rules: RuleSet, file: &str, source: &str) -> Vec<Finding> {
    let annotations = allow_annotations(source);
    let mut text = scrub(source);
    strip_cfg_gated(&mut text, source);
    let lines = LineIndex::new(&text);
    let mut constructs = Vec::new();
    if rules.hash_iter {
        constructs.extend(rules::detect_hash_iter(&text));
    }
    if rules.wall_clock {
        constructs.extend(rules::detect_wall_clock(&text));
    }
    if rules.thread_spawn {
        constructs.extend(rules::detect_thread_spawn(&text));
    }
    if rules.hot_unwrap {
        constructs.extend(rules::detect_hot_unwrap(&text));
    }
    // lint: allow(catch-unwind) rule metadata field, not a panic catch
    if rules.catch_unwind {
        constructs.extend(rules::detect_catch_unwind(&text));
    }
    let mut found: Vec<Finding> = constructs
        .into_iter()
        .map(|c| Finding::new(c.rule, file, lines.line_of(c.offset), c.message))
        .collect();
    found.retain(|f| !is_allowed(&annotations, f.rule, f.line));
    found.sort_by_key(|a| (a.line, a.rule));
    found
}

// ---------------------------------------------------------------------
// Workspace scan
// ---------------------------------------------------------------------

/// Result of a whole-workspace scan.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceReport {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Rust sources scanned.
    pub files_scanned: usize,
    /// Functions in the call graph.
    pub functions: usize,
    /// Functions inside the hot-path cone.
    pub reachable: usize,
}

/// L4: manifest checks — the root deny table and each member's opt-in.
fn check_manifests(root: &Path, crate_dirs: &[PathBuf], out: &mut Vec<Finding>) {
    let root_manifest = root.join("Cargo.toml");
    let root_text = std::fs::read_to_string(&root_manifest).unwrap_or_default();
    if !toml_section_has(&root_text, "[workspace.lints.rust]", "unsafe_code", "forbid") {
        out.push(Finding::new(
            Rule::LintHeader,
            "Cargo.toml",
            1,
            "workspace root must define `[workspace.lints.rust]` with \
             `unsafe_code = \"forbid\"`"
                .to_owned(),
        ));
    }
    for dir in crate_dirs {
        let manifest = dir.join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest).unwrap_or_default();
        if !toml_section_has(&text, "[lints]", "workspace", "true") {
            let rel = manifest
                .strip_prefix(root)
                .unwrap_or(&manifest)
                .to_string_lossy()
                .into_owned();
            out.push(Finding::new(
                Rule::LintHeader,
                &rel,
                1,
                "workspace member must opt into the deny-lint table with \
                 `[lints] workspace = true`"
                    .to_owned(),
            ));
        }
    }
}

/// Whether `section` in `toml` contains a `key = value`-ish line (string
/// quotes on the value optional). Hand-rolled: the offline build has no
/// toml parser, and Cargo manifests in this repo are plain.
fn toml_section_has(toml: &str, section: &str, key: &str, value: &str) -> bool {
    let mut in_section = false;
    for line in toml.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_section = line == section;
            continue;
        }
        if !in_section {
            continue;
        }
        let Some((k, v)) = line.split_once('=') else {
            continue;
        };
        if k.trim() == key && v.trim().trim_matches('"') == value {
            return true;
        }
    }
    false
}

fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        let mut children: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        children.sort();
        for p in children {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Scans the whole workspace rooted at `root`: every member under
/// `crates/*` plus the umbrella `src/`. Runs the per-file rules
/// ([`rules_for`]) and L4 manifest checks, then parses every file, builds
/// the workspace call graph, and applies the graph rules: transitive
/// L1/L2 with chains, the H-series in the hot-path cone, and U1
/// everywhere. `vendor/*` stand-ins are external code and are skipped.
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut report = WorkspaceReport::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    check_manifests(root, &crate_dirs, &mut report.findings);

    // Pass 1: read + per-file rules + parse.
    let mut parsed: Vec<ParsedFile> = Vec::new();
    let mut annotations: Vec<BTreeMap<u32, Vec<(String, bool)>>> = Vec::new();
    let mut per_file: Vec<Finding> = Vec::new();
    {
        let mut scan = |crate_dir: &str, src_dir: &Path| {
            for path in rust_sources(src_dir) {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                let rules = rules_for(crate_dir, &rel);
                let Ok(source) = std::fs::read_to_string(&path) else {
                    continue;
                };
                report.files_scanned += 1;
                per_file.extend(lint_source(rules, &rel, &source));
                let mut text = scrub(&source);
                strip_cfg_gated(&mut text, &source);
                let ann = allow_annotations(&source);
                // U1 applies to every workspace crate (vendor/ unscanned).
                let lines = LineIndex::new(&text);
                for c in rules::detect_missing_safety(&text, &lines, &source) {
                    let line = lines.line_of(c.offset);
                    if !is_allowed(&ann, c.rule, line) {
                        per_file.push(Finding::new(c.rule, &rel, line, c.message));
                    }
                }
                parsed.push(parse::parse_file(&rel, crate_dir, text));
                annotations.push(ann);
            }
        };
        for dir in &crate_dirs {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            scan(&name, &dir.join("src"));
        }
        scan("repro-umbrella", &root.join("src"));
    }

    // Pass 2: call graph + cone rules.
    let g = Graph::build(&parsed);
    let reach = Reach::compute(&g);
    report.functions = g.nodes.len();
    report.reachable = reach.seen.iter().filter(|&&s| s).count();
    let line_indexes: Vec<LineIndex> = parsed.iter().map(|p| LineIndex::new(&p.text)).collect();
    // L1/L2 constructs per file, computed once and attributed to cone fns.
    let mut l12_cache: BTreeMap<usize, Vec<rules::Construct>> = BTreeMap::new();
    let mut graph_findings: Vec<Finding> = Vec::new();
    for ni in 0..g.nodes.len() {
        if !reach.seen[ni] {
            continue;
        }
        let fi = g.nodes[ni].file;
        let pf = &parsed[fi];
        let fd = &pf.fns[g.nodes[ni].fn_idx];
        let Some((_, body_end)) = fd.body else {
            continue;
        };
        let lines = &line_indexes[fi];
        let chain: Vec<ChainHop> = reach
            .chain(ni)
            .into_iter()
            .map(|n| {
                let def = g.def(&parsed, n);
                ChainHop {
                    symbol: g.nodes[n].symbol.clone(),
                    file: parsed[g.nodes[n].file].rel.clone(),
                    line: def.line,
                }
            })
            .collect();
        let l12 = l12_cache.entry(fi).or_insert_with(|| {
            let mut v = rules::detect_hash_iter(&pf.text);
            v.extend(rules::detect_wall_clock(&pf.text));
            v
        });
        let mut constructs: Vec<rules::Construct> = l12
            .iter()
            .filter(|c| c.offset >= fd.sig.0 && c.offset < body_end)
            .cloned()
            .collect();
        constructs.extend(rules::detect_hot_constructs(&g, &parsed, ni));
        for c in constructs {
            let line = lines.line_of(c.offset);
            if is_allowed(&annotations[fi], c.rule, line) {
                continue;
            }
            graph_findings.push(Finding {
                rule: c.rule,
                file: pf.rel.clone(),
                line,
                message: c.message,
                symbol: g.nodes[ni].symbol.clone(),
                chain: chain.clone(),
            });
        }
    }

    // Merge: graph findings (with symbol + chain) win over per-file
    // duplicates at the same (file, line, rule).
    let mut merged: BTreeMap<(String, u32, Rule), Finding> = BTreeMap::new();
    for f in per_file {
        merged.insert((f.file.clone(), f.line, f.rule), f);
    }
    for f in graph_findings {
        merged.insert((f.file.clone(), f.line, f.rule), f);
    }
    // H4 fires once per float token; collapse duplicates per line (the
    // merge key already does this).
    report.findings.extend(merged.into_values());
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM: RuleSet = RuleSet {
        hash_iter: true,
        wall_clock: true,
        thread_spawn: true,
        hot_unwrap: false,
        catch_unwind: true,
    };

    #[test]
    fn scrubbing_blanks_comments_and_strings() {
        let src = "let a = \"HashMap::new()\"; // HashMap\n/* HashSet */ let b = 1;\n";
        let s = scrub(src);
        let text = String::from_utf8_lossy(&s);
        assert!(!text.contains("HashMap"));
        assert!(!text.contains("HashSet"));
        assert_eq!(text.matches('\n').count(), 2);
    }

    #[test]
    fn raw_strings_and_lifetimes_survive() {
        let src = "fn f<'a>(x: &'a str) { let _ = r#\"thread_rng\"#; }";
        let s = scrub(src);
        let text = String::from_utf8_lossy(&s);
        assert!(!text.contains("thread_rng"));
        assert!(text.contains("fn f<"));
    }

    #[test]
    fn hash_iteration_is_flagged_with_line() {
        let src = "struct S { m: std::collections::HashMap<u32, u32> }\n\
                   impl S { fn f(&self) {\n\
                   for x in self.m.values() { drop(x); }\n\
                   } }\n";
        let found = lint_source(SIM, "x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::HashIter);
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn hash_membership_ops_are_fine() {
        let src = "struct S { m: std::collections::HashMap<u32, u32> }\n\
                   impl S { fn f(&mut self) {\n\
                   self.m.insert(1, 2); let _ = self.m.get(&1); self.m.remove(&1);\n\
                   } }\n";
        assert!(lint_source(SIM, "x.rs", src).is_empty());
    }

    #[test]
    fn allow_annotation_requires_reason() {
        let with_reason = "fn f() { let t = std::time::SystemTime::now(); } \
                           // lint: allow(wall-clock) host timing printed to stderr only\n";
        assert!(lint_source(SIM, "x.rs", with_reason).is_empty());
        let without =
            "fn f() { let t = std::time::SystemTime::now(); } // lint: allow(wall-clock)\n";
        assert_eq!(lint_source(SIM, "x.rs", without).len(), 1);
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "fn main() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { let _ = rand::thread_rng(); }\n\
                   }\n";
        assert!(lint_source(SIM, "x.rs", src).is_empty());
    }

    #[test]
    fn sanitize_gated_items_are_exempt() {
        // Sanitizer-only impls, statements, and struct fields are compiled
        // out of figure runs; the lint strips them like cfg(test) items.
        let src = "struct S { m: std::collections::HashMap<u32, u32>,\n\
                   #[cfg(feature = \"sanitize\")]\n\
                   tick: std::cell::Cell<u64>,\n\
                   }\n\
                   #[cfg(feature = \"sanitize\")]\n\
                   impl S { fn check(&self) { for x in self.m.values() { drop(x); } } }\n\
                   #[cfg(any(test, feature = \"sanitize\"))]\n\
                   fn audit() { let _ = std::time::SystemTime::now(); }\n\
                   impl S { fn hot(&mut self) { self.m.insert(1, 2); } }\n";
        assert!(lint_source(SIM, "x.rs", src).is_empty(), "{:?}", lint_source(SIM, "x.rs", src));
        // A marker mentioned inside a comment or string is not an
        // attribute: the item after it still lints.
        let commented = "// #[cfg(feature = \"sanitize\")] strips the next item\n\
                         struct S { m: std::collections::HashMap<u32, u32> }\n\
                         impl S { fn f(&self) { for x in self.m.values() { drop(x); } } }\n";
        assert_eq!(lint_source(SIM, "x.rs", commented).len(), 1);
    }

    #[test]
    fn catch_unwind_is_flagged_in_imports_and_calls() {
        let src = "use std::panic::catch_unwind;\n\
                   fn f() { let _ = catch_unwind(|| 1); }\n";
        let found = lint_source(SIM, "x.rs", src);
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|f| f.rule == Rule::CatchUnwind));
        // The sanctioned isolation module is exempt by path.
        let rules = rules_for("bench", "crates/bench/src/sweep/isolation.rs");
        assert!(!rules.catch_unwind);
        assert!(rules_for("bench", "crates/bench/src/sweep/mod.rs").catch_unwind);
    }

    #[test]
    fn toml_section_matcher() {
        let toml = "[package]\nname = \"x\"\n[lints]\nworkspace = true\n";
        assert!(toml_section_has(toml, "[lints]", "workspace", "true"));
        assert!(!toml_section_has(toml, "[lints]", "workspace", "false"));
        assert!(!toml_section_has("[package]\n", "[lints]", "workspace", "true"));
    }

    #[test]
    fn rule_codes_and_ids_are_stable() {
        let codes: Vec<&str> = Rule::ALL.iter().map(|r| r.code()).collect();
        assert_eq!(
            codes,
            vec!["L1", "L2", "L3", "L4", "L5", "L6", "H1", "H2", "H3", "H4", "U1"]
        );
        for r in Rule::ALL {
            assert!(!r.id().is_empty() && !r.describe().is_empty());
        }
    }
}
