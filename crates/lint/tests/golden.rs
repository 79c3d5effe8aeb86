//! Golden tests: every jouppi-lint lint has at least one case, a fixture
//! directory under `tests/fixtures/` holding one or more `bad*.rs`
//! fixtures and an `ok.rs`. Each fixture materializes a one-file
//! throwaway workspace in the system temp directory, then drives the
//! real CLI: every `bad` fixture must exit 1 and name the lint, the `ok`
//! fixture (fixed or justifiably suppressed) must exit 0.
//!
//! Fixture files live under `tests/`, which the workspace scan never
//! descends into, so they are never linted in place.

use std::fs;
use std::path::{Path, PathBuf};

/// (lint, fixture dir, path the fixture occupies in the temp workspace).
/// The lints that moved to clippy configuration keep their fixtures
/// next to these; `clippy_config.rs` drives them.
const CASES: [(&str, &str, &str); 6] = [
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
    // A blocking call under a live guard is the depth-0 case of
    // lock-held-across-call.
    (
        "lock-held-across-call",
        "blocking-under-lock",
        "crates/core/src/fixture.rs",
    ),
    // A guard held across a call whose callee transitively blocks.
    (
        "lock-held-across-call",
        "lock-held-across-call",
        "crates/core/src/fixture.rs",
    ),
    // Taking a lock blocks: a nested acquisition, in place or in a
    // helper.
    (
        "lock-held-across-call",
        "nested-acquisition",
        "crates/core/src/fixture.rs",
    ),
];

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[expect(
    clippy::disallowed_methods,
    reason = "the test reads its committed fixtures"
)]
fn fixture(dir: &str, name: &str) -> String {
    let path = fixtures_dir().join(dir).join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The file names in a fixture directory, sorted.
fn fixture_files(dir: &str) -> Vec<String> {
    let path = fixtures_dir().join(dir);
    let mut names: Vec<String> = fs::read_dir(&path)
        .unwrap_or_else(|e| panic!("list {}: {e}", path.display()))
        .map(|entry| {
            entry
                .expect("fixture dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// The `bad*.rs` fixtures of a case, sorted.
fn bad_fixtures(dir: &str) -> Vec<String> {
    fixture_files(dir)
        .into_iter()
        .filter(|n| n.starts_with("bad") && n.ends_with(".rs"))
        .collect()
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

fn lint_workspace(root: &Path) -> jouppi_lint::cli::CliResult {
    jouppi_lint::cli::run(["--root".to_owned(), root.to_string_lossy().into_owned()])
}

#[test]
fn every_lint_has_a_bad_and_an_ok_fixture() {
    for lint in jouppi_lint::ALL_LINTS {
        assert!(
            CASES.iter().any(|(name, ..)| *name == lint.name()),
            "no golden case for `{lint}`"
        );
    }
    for (lint, dir, _) in CASES {
        assert!(
            jouppi_lint::LintId::from_name(lint).is_some(),
            "case `{dir}` names `{lint}`, which is not in the catalog"
        );
        let files = fixture_files(dir);
        assert!(files.contains(&"bad.rs".to_owned()), "{dir}: {files:?}");
        assert!(files.contains(&"ok.rs".to_owned()), "{dir}: {files:?}");
    }
}

#[test]
fn bad_fixtures_fail_with_the_expected_lint() {
    for (lint, dir, rel_file) in CASES {
        for bad in bad_fixtures(dir) {
            let tag = format!("{dir}-{}", bad.trim_end_matches(".rs"));
            let root = temp_workspace(&tag, rel_file, &fixture(dir, &bad));
            let r = lint_workspace(&root);
            assert_eq!(
                r.code, 1,
                "{dir}/{bad}: expected findings\n{}{}",
                r.stdout, r.stderr
            );
            assert!(
                r.stdout.contains(&format!("[{lint}]")),
                "{dir}/{bad}: findings do not name `{lint}`:\n{}",
                r.stdout
            );
            fs::remove_dir_all(&root).expect("remove temp workspace");
        }
    }
}

#[test]
fn ok_fixtures_pass_clean() {
    for (lint, dir, rel_file) in CASES {
        let root = temp_workspace(&format!("ok-{dir}"), rel_file, &fixture(dir, "ok.rs"));
        let r = lint_workspace(&root);
        assert_eq!(
            r.code, 0,
            "{lint}: expected clean\n{}{}",
            r.stdout, r.stderr
        );
        assert!(r.stdout.contains("clean"), "{lint}: {}", r.stdout);
        fs::remove_dir_all(&root).expect("remove temp workspace");
    }
}

/// A transitive finding names what the callee reaches: the lock it
/// takes or the call it blocks in, and the function that makes it.
#[test]
fn transitive_findings_name_the_witness() {
    let cases = [
        (
            "nested-acquisition",
            "bad-through-helpers.rs",
            "crates/core/src/fixture.rs:13: [lock-held-across-call] call to `core::read_b` \
             while guard of `p.a` is live — the callee (transitively) takes the lock `p.b` \
             in `core::read_b`; drop the guard before the call\n\
             crates/core/src/fixture.rs:18: [lock-held-across-call] call to `core::read_a` \
             while guard of `p.b` is live — the callee (transitively) takes the lock `p.a` \
             in `core::read_a`; drop the guard before the call\n\
             jouppi-lint: 2 findings in 1 files\n",
        ),
        (
            "lock-held-across-call",
            "bad.rs",
            "crates/core/src/fixture.rs:6: [lock-held-across-call] call to `core::pump` \
             while guard of `jobs` is live — the callee (transitively) blocks on `.recv()` \
             in `core::wait_one`; drop the guard before the call\n\
             jouppi-lint: 1 finding in 1 files\n",
        ),
    ];
    for (dir, bad, report) in cases {
        let tag = format!("witness-{dir}");
        let root = temp_workspace(&tag, "crates/core/src/fixture.rs", &fixture(dir, bad));
        let r = lint_workspace(&root);
        assert_eq!(r.code, 1, "{dir}/{bad}: {}{}", r.stdout, r.stderr);
        assert_eq!(r.stdout, report, "{dir}/{bad}");
        fs::remove_dir_all(&root).expect("remove temp workspace");
    }
}
