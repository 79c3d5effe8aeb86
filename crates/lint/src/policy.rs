//! Which files are linted.
//!
//! Coverage is keyed on a file's *workspace-relative path*. Only library
//! and binary sources (`src/` of the root package and of each
//! `crates/<name>`) are linted; integration tests, examples and
//! benches carry no jouppi-lint invariant, and `#[cfg(test)]` regions
//! inside linted files are skipped as well. Every lint applies to every
//! linted file: `relaxed-ordering` wherever the token appears, and the
//! call-graph lint `lock-held-across-call` wherever the offending call
//! is made.

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
        assert!(classify("crates/lint/tests/fixtures/nested-acquisition/bad.rs").is_none());
        assert!(classify("crates/workloads/examples/calibrate.rs").is_none());
        assert!(classify("crates/cache/benches/x.rs").is_none());
        assert!(classify("README.md").is_none());
    }
}
