//! The workspace must pass its own linter — the test form of the
//! `jouppi-lint --workspace` gate ci.sh enforces.

use std::path::Path;

use jouppi_lint::find_root;
use jouppi_serve::json::Json;

fn root_args(extra: &[&str]) -> Vec<String> {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let mut args = vec![
        "--root".to_owned(),
        root.to_string_lossy().into_owned(),
        "--workspace".to_owned(),
    ];
    args.extend(extra.iter().map(|s| (*s).to_owned()));
    args
}

#[test]
fn workspace_is_clean() {
    let r = jouppi_lint::cli::run(root_args(&[]));
    assert_eq!(
        r.code, 0,
        "jouppi-lint found findings in the workspace:\n{}{}",
        r.stdout, r.stderr
    );
    assert!(r.stdout.contains("clean"), "{}", r.stdout);
}

#[test]
fn workspace_json_report_is_clean_and_covers_the_tree() {
    let r = jouppi_lint::cli::run(root_args(&["--json"]));
    assert_eq!(r.code, 0, "{}{}", r.stdout, r.stderr);
    let doc = Json::parse(r.stdout.trim()).expect("valid JSON");
    assert_eq!(doc.get("clean"), Some(&Json::Bool(true)));
    match doc.get("files_scanned") {
        Some(Json::Int(n)) => {
            assert!(*n > 50, "only {n} files scanned — walker regression?");
        }
        other => panic!("files_scanned missing or mistyped: {other:?}"),
    }
}
