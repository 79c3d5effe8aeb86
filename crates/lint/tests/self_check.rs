//! The workspace must pass its own linter — the test form of the
//! `jouppi-lint --root .` gate ci.sh enforces.

use std::path::Path;

use jouppi_lint::find_root;

fn lint_this_workspace() -> jouppi_lint::cli::CliResult {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    jouppi_lint::cli::run(["--root".to_owned(), root.to_string_lossy().into_owned()])
}

#[test]
fn workspace_is_clean() {
    let r = lint_this_workspace();
    assert_eq!(
        r.code, 0,
        "jouppi-lint found findings in the workspace:\n{}{}",
        r.stdout, r.stderr
    );
    assert!(r.stdout.contains("clean"), "{}", r.stdout);
}

/// The human report is one summary line on a clean tree, and the walker
/// must have reached every crate's sources.
#[test]
fn workspace_report_is_clean_and_covers_the_tree() {
    let r = lint_this_workspace();
    assert_eq!(r.code, 0, "{}{}", r.stdout, r.stderr);
    let files: usize = r
        .stdout
        .strip_prefix("jouppi-lint: clean — ")
        .and_then(|rest| rest.strip_suffix(" files, 0 findings\n"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("not a clean one-line report: {}", r.stdout));
    assert!(
        files > 50,
        "only {files} files scanned — walker regression?"
    );
}
