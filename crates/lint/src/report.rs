//! Rendering scan results: human `file:line` lines, the `--timings`
//! breakdown and the `--list` catalog.

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
         \nPer-file rules (unsafe code, ambient time, entropy, environment and file\n\
         input, default hashers, library panics, printing, narrowing casts,\n\
         discarded results) are clippy configuration: see [workspace.lints] in\n\
         Cargo.toml and clippy.toml.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{Finding, LintId};
    use crate::workspace::FileReport;

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
        };
        assert!(human(&clean).contains("clean — 1 files, 0 findings"));
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
