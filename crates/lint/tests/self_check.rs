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

/// Also pins the version-3 report schema: identification, a `clean`
/// flag consistent with the findings, and the call-graph counters.
#[test]
fn workspace_json_report_is_clean_and_covers_the_tree() {
    let r = jouppi_lint::cli::run(root_args(&["--json"]));
    assert_eq!(r.code, 0, "{}{}", r.stdout, r.stderr);
    let doc = Json::parse(r.stdout.trim()).expect("valid JSON");
    assert_eq!(doc.get("tool"), Some(&Json::str("jouppi-lint")));
    assert_eq!(doc.get("version"), Some(&Json::Int(3)));
    let findings = doc
        .get("findings")
        .and_then(Json::as_arr)
        .expect("findings array");
    let clean = doc
        .get("clean")
        .and_then(Json::as_bool)
        .expect("clean flag");
    assert_eq!(
        clean,
        findings.is_empty(),
        "`clean` disagrees: {findings:?}"
    );
    assert!(clean, "jouppi-lint found findings in the workspace");
    match doc.get("files_scanned") {
        Some(Json::Int(n)) => {
            assert!(*n > 50, "only {n} files scanned — walker regression?");
        }
        other => panic!("files_scanned missing or mistyped: {other:?}"),
    }
    let graph = doc.get("callgraph").expect("callgraph object");
    for field in [
        "nodes",
        "resolved_edges",
        "ambiguous_edges",
        "external_calls",
    ] {
        match graph.get(field) {
            Some(Json::Int(n)) => {
                assert!(
                    field != "nodes" || *n > 0,
                    "a workspace scan saw no functions"
                );
            }
            other => panic!("callgraph.{field} missing or mistyped: {other:?}"),
        }
    }
}
