//! The per-crate policy table: which lints apply where.
//!
//! Policy is keyed on a file's *workspace-relative path*. Only library
//! and binary sources (`src/` of the root package and of each
//! `crates/<name>`) are linted; integration tests, examples and
//! benches carry no jouppi-lint invariant, and `#[cfg(test)]` regions
//! inside linted files are skipped as well.
//!
//! | crate | relaxed-ordering | unbounded-growth |
//! |---|---|---|
//! | experiments, serve | ✔ | ✔ |
//! | every other crate | | |
//!
//! `lock-order` and the four call-graph lints (`panic-reachability`,
//! `transitive-purity`, `untrusted-size-taint`,
//! `lock-held-across-call`) apply to every linted file — reachability
//! is decided by the workspace call graph, so their findings land
//! wherever the offending function is declared.

use crate::lint::LintId;

/// Where a source file sits in the workspace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Crate directory name (`trace`, `serve`, …); `"jouppi"` for the
    /// umbrella crate at the workspace root.
    pub crate_name: String,
}

/// Classifies a workspace-relative path. Returns `None` for paths the
/// linter does not cover (tests, examples, benches, non-Rust files,
/// build output).
pub fn classify(rel_path: &str) -> Option<FileContext> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    let crate_name = match rel_path.split('/').collect::<Vec<_>>().as_slice() {
        ["crates", name, "src", ..] => (*name).to_owned(),
        ["src", ..] => "jouppi".to_owned(),
        _ => return None,
    };
    Some(FileContext {
        rel_path: rel_path.to_owned(),
        crate_name,
    })
}

/// The lints active for a file.
pub fn lints_for(ctx: &FileContext) -> Vec<LintId> {
    let mut lints = Vec::new();
    // The long-lived daemon (serve) and the sweep engine (experiments)
    // own the cross-thread counters and the long-lived collections.
    if ctx.crate_name == "experiments" || ctx.crate_name == "serve" {
        lints.push(LintId::RelaxedOrdering);
        lints.push(LintId::UnboundedGrowth);
    }
    lints.push(LintId::LockOrder);
    lints.push(LintId::PanicReachability);
    lints.push(LintId::TransitivePurity);
    lints.push(LintId::UntrustedSizeTaint);
    lints.push(LintId::LockHeldAcrossCall);
    lints
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_sources_only() {
        let lib = classify("crates/cache/src/lru.rs").expect("lib module");
        assert_eq!(lib.crate_name, "cache");
        let bin = classify("crates/cli/src/bin/jouppi.rs").expect("bin root");
        assert_eq!(bin.crate_name, "cli");
        let umbrella = classify("src/lib.rs").expect("umbrella root");
        assert_eq!(umbrella.crate_name, "jouppi");

        assert!(classify("tests/paper_claims.rs").is_none());
        assert!(classify("examples/quickstart.rs").is_none());
        assert!(classify("crates/serve/tests/integration.rs").is_none());
        assert!(classify("crates/lint/tests/fixtures/lock-order/bad.rs").is_none());
        assert!(classify("crates/workloads/examples/calibrate.rs").is_none());
        assert!(classify("crates/cache/benches/x.rs").is_none());
        assert!(classify("README.md").is_none());
    }

    #[test]
    fn policy_matches_the_table() {
        let everywhere = [
            LintId::LockOrder,
            LintId::PanicReachability,
            LintId::TransitivePurity,
            LintId::UntrustedSizeTaint,
            LintId::LockHeldAcrossCall,
        ];
        let report = classify("crates/report/src/table.rs").expect("report");
        assert_eq!(lints_for(&report), everywhere);

        for path in [
            "crates/serve/src/queue.rs",
            "crates/experiments/src/sweep.rs",
        ] {
            let ctx = classify(path).expect("classifiable");
            let lints = lints_for(&ctx);
            assert_eq!(
                lints[..2],
                [LintId::RelaxedOrdering, LintId::UnboundedGrowth]
            );
            assert_eq!(lints[2..], everywhere);
        }
    }
}
