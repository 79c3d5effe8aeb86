//! Golden tests: every jouppi-lint lint has a `bad`/`ok` fixture pair
//! under `tests/fixtures/<lint>/`. Each case materializes a one-file
//! throwaway workspace in the system temp directory at the path where
//! the lint is active, then drives the real CLI: the `bad` fixture must
//! exit 1 and name the lint, the `ok` fixture (fixed or justifiably
//! suppressed) must exit 0.
//!
//! Fixture files live under `tests/`, which the workspace scan never
//! descends into, so they are never linted in place.

use std::fs;
use std::path::{Path, PathBuf};

/// (lint, fixture dir, path the fixture occupies in the temp workspace).
/// The lints that moved to clippy configuration keep their fixtures
/// next to these; `clippy_config.rs` drives them.
const CASES: [(&str, &str, &str); 10] = [
    (
        "relaxed-ordering",
        "relaxed-ordering",
        "crates/experiments/src/fixture.rs",
    ),
    (
        "bad-suppression",
        "bad-suppression",
        "crates/experiments/src/fixture.rs",
    ),
    (
        "unused-suppression",
        "unused-suppression",
        "crates/experiments/src/fixture.rs",
    ),
    ("lock-order", "lock-order", "crates/core/src/fixture.rs"),
    // A blocking call under a live guard is the depth-0 case of
    // lock-held-across-call.
    (
        "lock-held-across-call",
        "blocking-under-lock",
        "crates/core/src/fixture.rs",
    ),
    (
        "unbounded-growth",
        "unbounded-growth",
        "crates/serve/src/fixture.rs",
    ),
    (
        "panic-reachability",
        "panic-reachability",
        "crates/core/src/fixture.rs",
    ),
    (
        "transitive-purity",
        "transitive-purity",
        "crates/report/src/fixture.rs",
    ),
    (
        "untrusted-size-taint",
        "untrusted-size-taint",
        "crates/serve/src/fixture.rs",
    ),
    (
        "lock-held-across-call",
        "lock-held-across-call",
        "crates/core/src/fixture.rs",
    ),
];

/// Support files materialized alongside a fixture for both its bad and
/// ok runs — the interprocedural lints fire only when a serve-side
/// entrypoint in another crate reaches the fixture.
const SUPPORT: [(&str, &str, &str); 2] = [
    (
        "panic-reachability",
        "entry.rs",
        "crates/serve/src/entry.rs",
    ),
    ("transitive-purity", "entry.rs", "crates/serve/src/entry.rs"),
];

fn fixture(dir: &str, name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir)
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Creates a minimal workspace containing exactly one source file.
fn temp_workspace(tag: &str, rel_file: &str, contents: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("jouppi-lint-golden-{}-{tag}", std::process::id()));
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear a stale temp workspace");
    }
    let file = root.join(rel_file);
    fs::create_dir_all(file.parent().expect("fixture path has a parent")).expect("mkdir");
    fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    fs::write(&file, contents).expect("write fixture");
    root
}

/// Adds the fixture dir's support files (if any) to a temp workspace.
fn write_support(root: &Path, dir: &str) {
    for (support_dir, name, rel_file) in SUPPORT {
        if support_dir != dir {
            continue;
        }
        let file = root.join(rel_file);
        fs::create_dir_all(file.parent().expect("support path has a parent")).expect("mkdir");
        fs::write(&file, fixture(dir, name)).expect("write support file");
    }
}

fn lint_workspace(root: &Path, json: bool) -> jouppi_lint::cli::CliResult {
    let mut args = vec![
        "--root".to_owned(),
        root.to_string_lossy().into_owned(),
        "--workspace".to_owned(),
    ];
    if json {
        args.push("--json".to_owned());
    }
    jouppi_lint::cli::run(args)
}

#[test]
fn bad_fixtures_fail_with_the_expected_lint() {
    for (lint, dir, rel_file) in CASES {
        let root = temp_workspace(&format!("bad-{dir}"), rel_file, &fixture(dir, "bad.rs"));
        write_support(&root, dir);
        let r = lint_workspace(&root, false);
        assert_eq!(
            r.code, 1,
            "{lint}: expected findings\n{}{}",
            r.stdout, r.stderr
        );
        assert!(
            r.stdout.contains(&format!("[{lint}]")),
            "{lint}: findings do not name the lint:\n{}",
            r.stdout
        );
        fs::remove_dir_all(&root).expect("remove temp workspace");
    }
}

#[test]
fn ok_fixtures_pass_clean() {
    for (lint, dir, rel_file) in CASES {
        let root = temp_workspace(&format!("ok-{dir}"), rel_file, &fixture(dir, "ok.rs"));
        write_support(&root, dir);
        let r = lint_workspace(&root, false);
        assert_eq!(
            r.code, 0,
            "{lint}: expected clean\n{}{}",
            r.stdout, r.stderr
        );
        assert!(r.stdout.contains("clean"), "{lint}: {}", r.stdout);
        fs::remove_dir_all(&root).expect("remove temp workspace");
    }
}

#[test]
fn json_report_carries_machine_readable_findings() {
    let (lint, dir, rel_file) = CASES[0];
    let root = temp_workspace("json", rel_file, &fixture(dir, "bad.rs"));
    let r = lint_workspace(&root, true);
    assert_eq!(r.code, 1);
    let doc = jouppi_serve::json::Json::parse(r.stdout.trim()).expect("valid JSON");
    assert_eq!(
        doc.get("clean"),
        Some(&jouppi_serve::json::Json::Bool(false))
    );
    let findings = doc
        .get("findings")
        .and_then(|f| f.as_arr())
        .expect("findings array");
    assert!(!findings.is_empty());
    let first = &findings[0];
    assert_eq!(
        first.get("lint").and_then(|l| l.as_str()),
        Some(lint),
        "first finding should be the {lint} fixture's"
    );
    assert_eq!(first.get("file").and_then(|f| f.as_str()), Some(rel_file));
    fs::remove_dir_all(&root).expect("remove temp workspace");
}
