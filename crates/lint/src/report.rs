//! Rendering scan results: human `file:line` lines and the `--json`
//! machine document (built on the workspace's ordered-JSON model).

use jouppi_serve::json::Json;

use crate::lint::ALL_LINTS;
use crate::workspace::ScanResult;

/// Human-readable report: one `file:line: [lint] message` line per
/// finding plus a summary line.
pub fn human(result: &ScanResult) -> String {
    let mut out = String::new();
    for (path, finding) in result.findings() {
        out.push_str(&format!(
            "{path}:{line}: [{lint}] {msg}\n",
            line = finding.line,
            lint = finding.lint.name(),
            msg = finding.message
        ));
    }
    let n = result.total_findings();
    if n == 0 {
        out.push_str(&format!(
            "jouppi-lint: clean — {} files, 0 findings\n",
            result.files_scanned()
        ));
    } else {
        out.push_str(&format!(
            "jouppi-lint: {n} finding{s} in {} files\n",
            result.files_scanned(),
            s = if n == 1 { "" } else { "s" }
        ));
    }
    out
}

/// Machine-readable report document (version 3: adds the `callgraph`
/// section sizing the workspace call graph behind the interprocedural
/// analyses).
pub fn to_json(result: &ScanResult) -> Json {
    let findings: Vec<Json> = result
        .findings()
        .map(|(path, f)| {
            Json::obj([
                ("file", Json::str(path)),
                ("line", Json::Int(i64::from(f.line))),
                ("lint", Json::str(f.lint.name())),
                ("message", Json::str(f.message.clone())),
            ])
        })
        .collect();
    let mut fields = vec![
        ("tool".to_owned(), Json::str("jouppi-lint")),
        ("version".to_owned(), Json::Int(3)),
        (
            "files_scanned".to_owned(),
            Json::Int(result.files_scanned() as i64),
        ),
        ("findings".to_owned(), Json::Arr(findings)),
        ("clean".to_owned(), Json::Bool(result.is_clean())),
    ];
    if let Some(g) = result.callgraph {
        fields.push((
            "callgraph".to_owned(),
            Json::obj([
                ("nodes", Json::Int(g.nodes as i64)),
                ("resolved_edges", Json::Int(g.resolved_edges as i64)),
                ("ambiguous_edges", Json::Int(g.ambiguous_edges as i64)),
                ("external_calls", Json::Int(g.external_calls as i64)),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// The `--timings` text: aggregate per-stage wall-clock cost.
pub fn timings(result: &ScanResult) -> String {
    let mut out = String::from("jouppi-lint timings:\n");
    let total: std::time::Duration = result.timings.iter().map(|(_, d)| *d).sum();
    for (stage, d) in &result.timings {
        out.push_str(&format!("  {stage:<22} {:>9.3}ms\n", d.as_secs_f64() * 1e3));
    }
    out.push_str(&format!(
        "  {:<22} {:>9.3}ms\n",
        "total",
        total.as_secs_f64() * 1e3
    ));
    out
}

/// The `--list` catalog text.
pub fn catalog() -> String {
    let mut out = String::from("jouppi-lint catalog:\n");
    for lint in ALL_LINTS {
        out.push_str(&format!("  {:<22} {}\n", lint.name(), lint.summary()));
    }
    out.push_str(
        "\nsuppression: // jouppi-lint: allow(<lint>) — <reason>\n\
         file scope:  // jouppi-lint: allow-file(<lint>) — <reason>\n\
         \nPer-file rules (unsafe code, ambient time and entropy, default hashers,\n\
         serve panics, printing, narrowing casts, discarded results) are clippy\n\
         configuration: see [workspace.lints] in Cargo.toml and clippy.toml.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{Finding, LintId};
    use crate::workspace::{CallGraphStats, FileReport};

    fn sample() -> ScanResult {
        ScanResult {
            files: vec![
                FileReport {
                    rel_path: "crates/core/src/x.rs".to_owned(),
                    findings: vec![Finding {
                        line: 7,
                        lint: LintId::RelaxedOrdering,
                        message: "`Ordering::Relaxed` on a cross-thread counter".to_owned(),
                    }],
                },
                FileReport {
                    rel_path: "crates/core/src/y.rs".to_owned(),
                    findings: Vec::new(),
                },
            ],
            timings: Vec::new(),
            callgraph: Some(CallGraphStats {
                nodes: 12,
                resolved_edges: 30,
                ambiguous_edges: 2,
                external_calls: 9,
            }),
        }
    }

    #[test]
    fn human_report_lists_findings_and_summary() {
        let text = human(&sample());
        assert!(text.contains("crates/core/src/x.rs:7: [relaxed-ordering]"));
        assert!(text.contains("1 finding in 2 files"));
        let clean = ScanResult {
            files: vec![FileReport {
                rel_path: "a.rs".to_owned(),
                findings: Vec::new(),
            }],
            timings: Vec::new(),
            callgraph: None,
        };
        assert!(human(&clean).contains("clean — 1 files, 0 findings"));
    }

    #[test]
    fn json_report_round_trips() {
        let doc = to_json(&sample());
        let parsed = Json::parse(&doc.encode()).expect("valid JSON");
        assert_eq!(parsed.get("clean"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("version"), Some(&Json::Int(3)));
        assert_eq!(parsed.get("files_scanned"), Some(&Json::Int(2)));
        assert!(parsed.get("baseline").is_none());
        let findings = parsed
            .get("findings")
            .and_then(Json::as_arr)
            .expect("findings array");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].get("line"), Some(&Json::Int(7)));
        assert_eq!(
            findings[0].get("lint"),
            Some(&Json::str("relaxed-ordering"))
        );
        let g = parsed.get("callgraph").expect("callgraph section");
        assert_eq!(g.get("nodes"), Some(&Json::Int(12)));
        assert_eq!(g.get("resolved_edges"), Some(&Json::Int(30)));
        assert_eq!(g.get("ambiguous_edges"), Some(&Json::Int(2)));
        assert_eq!(g.get("external_calls"), Some(&Json::Int(9)));
    }

    #[test]
    fn timings_text_totals_the_stages() {
        use std::time::Duration;
        let mut r = sample();
        r.timings = vec![
            ("guard-scan", Duration::from_millis(2)),
            ("parse", Duration::from_millis(3)),
        ];
        let text = timings(&r);
        assert!(text.contains("guard-scan"));
        assert!(text.contains("parse"));
        assert!(text.contains("total"));
        assert!(text.contains("5.000ms"));
    }

    #[test]
    fn catalog_names_every_lint() {
        let text = catalog();
        for lint in ALL_LINTS {
            assert!(text.contains(lint.name()), "missing {}", lint.name());
        }
    }
}
