//! Analyzer coverage: every rule L1–L6 demonstrated against known-bad and
//! known-good fixtures, asserting exact rule ids, file/line spans, and CLI
//! exit codes.

use std::path::{Path, PathBuf};
use std::process::Command;

use pagesim_lint::{lint_source, lint_workspace, rules_for, Rule, RuleSet};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str, rules: RuleSet) -> Vec<(Rule, u32)> {
    let source = std::fs::read_to_string(fixture(name)).expect("fixture readable");
    lint_source(rules, name, &source)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

const SIM: RuleSet = RuleSet {
    hash_iter: true,
    wall_clock: true,
    thread_spawn: true,
    hot_unwrap: false,
    catch_unwind: true,
};

const HOT: RuleSet = RuleSet {
    hash_iter: true,
    wall_clock: true,
    thread_spawn: true,
    hot_unwrap: true,
    catch_unwind: true,
};

#[test]
fn l1_flags_hash_iteration_with_spans() {
    assert_eq!(
        lint_fixture("l1_bad.rs", SIM),
        vec![(Rule::HashIter, 12), (Rule::HashIter, 18)]
    );
}

#[test]
fn l1_accepts_ordered_iteration_and_hash_membership() {
    assert_eq!(lint_fixture("l1_good.rs", SIM), vec![]);
}

#[test]
fn l1_allow_annotation_with_reason_suppresses() {
    assert_eq!(lint_fixture("l1_allowed.rs", SIM), vec![]);
}

#[test]
fn l2_flags_wall_clock_and_ambient_entropy() {
    assert_eq!(
        lint_fixture("l2_bad.rs", SIM),
        vec![
            (Rule::WallClock, 2),
            (Rule::WallClock, 5),
            (Rule::WallClock, 6),
            (Rule::WallClock, 8),
        ]
    );
}

#[test]
fn l2_would_catch_a_wall_clock_sampler() {
    // The interval sampler in crates/trace must advance on simulated time
    // only; this fixture shows the Instant-based variant is caught.
    assert_eq!(
        lint_fixture("l2_sampler_bad.rs", SIM),
        vec![(Rule::WallClock, 2), (Rule::WallClock, 5)]
    );
}

#[test]
fn trace_crate_carries_the_sim_rule_set() {
    // The JSON reader builds ordered objects for deterministic consumers;
    // L1 keeps hash containers out of it.
    for (krate, file) in [
        ("trace", "crates/trace/src/tracer.rs"),
        ("json", "crates/json/src/lib.rs"),
    ] {
        let rules = rules_for(krate, file);
        assert!(
            rules.hash_iter && rules.wall_clock && rules.thread_spawn,
            "{krate}"
        );
        assert!(!rules.hot_unwrap, "{krate}");
    }
}

#[test]
fn l2_accepts_sim_time_and_seeded_mixing() {
    assert_eq!(lint_fixture("l2_good.rs", SIM), vec![]);
}

#[test]
fn l3_flags_thread_spawn() {
    assert_eq!(lint_fixture("l3_bad.rs", SIM), vec![(Rule::ThreadSpawn, 3)]);
}

#[test]
fn l3_accepts_data_parallel_expression() {
    assert_eq!(lint_fixture("l3_good.rs", SIM), vec![]);
}

#[test]
fn l3_exempts_the_sweep_executor_file() {
    let rules = rules_for("bench", "crates/bench/src/sweep/mod.rs");
    assert!(!rules.thread_spawn);
    let rules = rules_for("bench", "crates/bench/src/lib.rs");
    assert!(rules.thread_spawn);
}

#[test]
fn l4_flags_missing_lint_headers_in_both_manifests() {
    let report = lint_workspace(&fixture("l4_bad_ws")).expect("fixture workspace");
    let got: Vec<(Rule, &str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            (Rule::LintHeader, "Cargo.toml", 1),
            (Rule::LintHeader, "crates/foo/Cargo.toml", 1),
        ]
    );
}

#[test]
fn l4_accepts_workspace_with_headers() {
    let report = lint_workspace(&fixture("l4_good_ws")).expect("fixture workspace");
    assert_eq!(report.findings, vec![]);
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn l5_flags_hot_path_unwraps_only_under_hot_rules() {
    assert_eq!(
        lint_fixture("l5_bad.rs", HOT),
        vec![(Rule::HotUnwrap, 3), (Rule::HotUnwrap, 4)]
    );
    // The same file judged as a non-hot-path source is clean: unwrap is
    // only banned where a SimError channel exists.
    assert_eq!(lint_fixture("l5_bad.rs", SIM), vec![]);
}

#[test]
fn l5_accepts_typed_error_propagation() {
    assert_eq!(lint_fixture("l5_good.rs", HOT), vec![]);
}

#[test]
fn hot_path_files_get_l5_automatically() {
    for file in pagesim_lint::HOT_PATH_FILES {
        let crate_dir = file.split('/').nth(1).expect("crates/<dir>/…");
        assert!(rules_for(crate_dir, file).hot_unwrap, "{file}");
    }
    assert!(!rules_for("core", "crates/core/src/lib.rs").hot_unwrap);
}

#[test]
fn l6_flags_catch_unwind_import_and_call() {
    assert_eq!(
        lint_fixture("l6_bad.rs", SIM),
        vec![
            (Rule::CatchUnwind, 4),
            (Rule::CatchUnwind, 7),
            (Rule::CatchUnwind, 8),
        ]
    );
}

#[test]
fn l6_accepts_propagating_panics() {
    assert_eq!(lint_fixture("l6_good.rs", SIM), vec![]);
}

#[test]
fn l6_exempts_only_the_isolation_module() {
    assert!(!rules_for("bench", "crates/bench/src/sweep/isolation.rs").catch_unwind);
    assert!(rules_for("bench", "crates/bench/src/sweep/mod.rs").catch_unwind);
    assert!(rules_for("core", "crates/core/src/kernel.rs").catch_unwind);
}

// ---------------------------------------------------------------------
// CLI exit codes
// ---------------------------------------------------------------------

fn run_cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pagesim-lint"))
        .args(args)
        .output()
        .expect("spawn pagesim-lint");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn cli_exit_one_with_rule_ids_on_findings() {
    let path = fixture("l1_bad.rs");
    let (code, stdout) = run_cli(&["--check-file", path.to_str().expect("utf8 path")]);
    assert_eq!(code, 1);
    assert!(stdout.contains("L1[hash-iter]"), "stdout: {stdout}");
    assert!(stdout.contains(":12:"), "stdout: {stdout}");
    assert!(stdout.contains(":18:"), "stdout: {stdout}");
}

#[test]
fn cli_exit_zero_on_clean_file() {
    let path = fixture("l1_good.rs");
    let (code, stdout) = run_cli(&["--check-file", path.to_str().expect("utf8 path")]);
    assert_eq!(code, 0);
    assert_eq!(stdout, "");
}

#[test]
fn cli_hot_flag_enables_l5() {
    let path = fixture("l5_bad.rs");
    let path = path.to_str().expect("utf8 path");
    let (code, stdout) = run_cli(&["--check-file", path, "--hot"]);
    assert_eq!(code, 1);
    assert!(stdout.contains("L5[hot-unwrap]"), "stdout: {stdout}");
    let (code, _) = run_cli(&["--check-file", path]);
    assert_eq!(code, 0);
}

#[test]
fn cli_workspace_mode_reports_l4() {
    let bad = fixture("l4_bad_ws");
    let (code, stdout) = run_cli(&["--workspace", "--root", bad.to_str().expect("utf8 path")]);
    assert_eq!(code, 1);
    assert!(stdout.contains("L4[lint-header]"), "stdout: {stdout}");
    let good = fixture("l4_good_ws");
    let (code, stdout) = run_cli(&["--workspace", "--root", good.to_str().expect("utf8 path")]);
    assert_eq!(code, 0);
    assert_eq!(stdout, "");
}

#[test]
fn cli_usage_error_is_exit_two() {
    let (code, _) = run_cli(&[]);
    assert_eq!(code, 2);
    let (code, _) = run_cli(&["--workspace", "--check-file", "x.rs"]);
    assert_eq!(code, 2);
}
