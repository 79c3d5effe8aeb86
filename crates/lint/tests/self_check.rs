//! The workspace must pass its own linter — the test form of the
//! `jouppi-lint --workspace` gate ci.sh enforces.

use std::fs;
use std::path::Path;

use jouppi_lint::callgraph::{build, GraphFile};
use jouppi_lint::check::check_source_facts;
use jouppi_lint::find_root;
use jouppi_lint::interproc::PURITY_ENTRIES;
use jouppi_lint::policy::classify;
use jouppi_lint::workspace::source_files;
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

/// Every `transitive-purity` entry name is a jouppi-serve function of
/// the workspace call graph. Without this, renaming an entry point
/// would empty the analysis's entry set with no finding at all.
#[test]
fn purity_entries_name_serve_functions() {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let sources: Vec<_> = source_files(&root)
        .expect("walk the workspace")
        .iter()
        .filter_map(|rel| classify(rel))
        .map(|ctx| {
            let src = fs::read_to_string(root.join(&ctx.rel_path)).expect("read source");
            let facts = check_source_facts(&ctx, &src);
            (ctx, facts)
        })
        .collect();
    let inputs: Vec<GraphFile<'_>> = sources
        .iter()
        .map(|(ctx, facts)| GraphFile {
            ctx,
            ast: &facts.ast,
            test_ranges: &facts.test_ranges,
        })
        .collect();
    let graph = build(&inputs);
    for name in PURITY_ENTRIES {
        assert!(
            graph
                .nodes
                .iter()
                .any(|n| graph.files[n.file].crate_name == "serve" && n.decl.name == name),
            "PURITY_ENTRIES names `{name}`, which is no jouppi-serve function"
        );
    }
}
