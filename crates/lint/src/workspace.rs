//! Workspace discovery and the full-tree scan.
//!
//! Only `src/` trees are linted (see [`crate::policy::classify`]). Each
//! file is checked once ([`crate::check::check_source_facts`]): its
//! token-scan findings, its suppression directives, its parsed AST and
//! the calls it makes under live guards. The **workspace call graph** is
//! then built over the ASTs ([`crate::callgraph`]) and the
//! interprocedural `lock-held-across-call` analysis
//! ([`crate::interproc`]) routes its findings to the declaring files.
//! Last, each file's directives are applied once, to all of its
//! findings ([`crate::check::FileFacts::settle`]).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::analyses::GuardedCall;
use crate::callgraph::{self, GraphFile};
use crate::check::{check_source_facts, FileFacts};
use crate::interproc;
use crate::lint::Finding;
use crate::policy::{classify, FileContext};

/// Directories never descended into: build output, VCS state, and the
/// test and example trees no jouppi-lint invariant covers.
const PRUNED_DIRS: [&str; 5] = ["target", ".git", "node_modules", "tests", "examples"];

/// One scanned file's findings.
#[derive(Clone, Debug)]
pub struct FileReport {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Findings in line order (empty for clean files).
    pub findings: Vec<Finding>,
}

/// The result of scanning a workspace.
#[derive(Clone, Debug)]
pub struct ScanResult {
    /// Per-file reports, sorted by path; clean files are included with
    /// empty findings so `files_scanned` is auditable.
    pub files: Vec<FileReport>,
    /// Aggregate wall-clock cost per analysis stage across all files,
    /// sorted by stage name (for `--timings`).
    pub timings: Vec<(&'static str, Duration)>,
}

impl ScanResult {
    /// Number of files lexed and checked.
    pub fn files_scanned(&self) -> usize {
        self.files.len()
    }

    /// All findings, flattened in (path, line) order.
    pub fn findings(&self) -> impl Iterator<Item = (&str, &Finding)> {
        self.files
            .iter()
            .flat_map(|f| f.findings.iter().map(move |x| (f.rel_path.as_str(), x)))
    }

    /// Total number of findings.
    pub fn total_findings(&self) -> usize {
        self.files.iter().map(|f| f.findings.len()).sum()
    }

    /// Whether the scan found nothing.
    pub fn is_clean(&self) -> bool {
        self.total_findings() == 0
    }
}

/// Walks upward from `start` looking for the workspace root (a
/// `Cargo.toml` declaring `[workspace]`).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Scans the whole workspace under `root`: every `.rs` file the policy
/// covers, in path order, with the pruned directories left out.
///
/// # Errors
///
/// Propagates I/O failures reading directories or files.
pub fn scan_workspace(root: &Path) -> io::Result<ScanResult> {
    Ok(scan_sources(&read_sources(root)?))
}

/// Reads every `.rs` file under `root` that the policy covers, in path
/// order, with the pruned directories left out.
fn read_sources(root: &Path) -> io::Result<Vec<(FileContext, String)>> {
    let mut rel_paths = Vec::new();
    collect_rs_files(root, root, &mut rel_paths)?;
    rel_paths.sort();
    let mut sources = Vec::new();
    for rel in &rel_paths {
        if let Some(ctx) = classify(rel) {
            let src = fs::read_to_string(root.join(rel))?;
            sources.push((ctx, src));
        }
    }
    Ok(sources)
}

/// Scans in-memory sources as one workspace.
pub fn scan_sources<S: AsRef<str>>(sources: &[(FileContext, S)]) -> ScanResult {
    let mut timings: BTreeMap<&'static str, Duration> = BTreeMap::new();
    // Per file: token scans, directives, AST and guarded calls.
    let mut facts: Vec<FileFacts> = sources
        .iter()
        .map(|(_, src)| check_source_facts(src.as_ref()))
        .collect();
    for (stage, d) in facts.iter().flat_map(|f| &f.timings) {
        *timings.entry(stage).or_default() += *d;
    }
    let guarded: Vec<Vec<GuardedCall>> = facts
        .iter_mut()
        .map(|f| std::mem::take(&mut f.guarded_calls))
        .collect();
    // The workspace call graph and the interprocedural analysis over the
    // retained ASTs; graph-file indexes are `sources` indexes.
    let t0 = Instant::now();
    let inputs: Vec<GraphFile<'_>> = sources
        .iter()
        .zip(&facts)
        .map(|((ctx, _), f)| GraphFile {
            ctx,
            ast: &f.ast,
            test_ranges: &f.test_ranges,
        })
        .collect();
    let graph = callgraph::build(&inputs);
    *timings.entry("callgraph-build").or_default() += t0.elapsed();
    let interproc_out = interproc::run(&graph, &guarded);
    for (stage, d) in interproc_out.timings {
        *timings.entry(stage).or_default() += d;
    }
    // Each file's directives apply once, to every finding in it.
    let files = sources
        .iter()
        .zip(facts)
        .zip(interproc_out.findings)
        .map(|(((ctx, _), facts), more)| FileReport {
            rel_path: ctx.rel_path.clone(),
            findings: facts.settle(more),
        })
        .collect();
    ScanResult {
        files,
        timings: timings.into_iter().collect(),
    }
}

/// Recursively collects `.rs` files, pruning build output; entries are
/// visited in sorted order so scans are deterministic.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if PRUNED_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_root_locates_this_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root above crates/lint");
        assert!(root.join("crates").is_dir());
        assert!(root.join("Cargo.toml").is_file());
    }

    #[test]
    fn scan_is_deterministic_and_covers_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root");
        let a = scan_workspace(&root).expect("first scan");
        let b = scan_workspace(&root).expect("second scan");
        assert!(a.files_scanned() > 20, "scanned {}", a.files_scanned());
        let paths = |r: &ScanResult| {
            r.files
                .iter()
                .map(|f| f.rel_path.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(paths(&a), paths(&b));
        assert!(paths(&a).contains(&"crates/lint/src/lexer.rs".to_owned()));
        // Only src/ trees are linted: tests, examples and build output
        // are not.
        assert!(
            paths(&a).iter().all(|p| p.contains("src/")),
            "{:?}",
            paths(&a)
        );
        // The call graph is built and timed alongside the per-file stages.
        let stages: Vec<&str> = a.timings.iter().map(|(stage, _)| *stage).collect();
        assert_eq!(
            stages,
            [
                "callgraph-build",
                "guard-scan",
                "lex+tokens",
                "lock-held-across-call",
                "parse"
            ]
        );
    }

    /// The lint errs toward missing findings, so a resolver that stopped
    /// resolving would leave the tree clean: the call graph over the
    /// real workspace must have functions and resolved calls.
    #[test]
    fn call_graph_covers_the_workspace() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let sources = read_sources(&root).expect("read the workspace");
        let facts: Vec<FileFacts> = sources
            .iter()
            .map(|(_, src)| check_source_facts(src))
            .collect();
        let inputs: Vec<GraphFile<'_>> = sources
            .iter()
            .zip(&facts)
            .map(|((ctx, _), f)| GraphFile {
                ctx,
                ast: &f.ast,
                test_ranges: &f.test_ranges,
            })
            .collect();
        let graph = callgraph::build(&inputs);
        let edges: usize = graph.edges.iter().map(Vec::len).sum();
        assert!(graph.nodes.len() > 100, "nodes: {}", graph.nodes.len());
        assert!(edges > 100, "resolved edges: {edges}");
    }
}
