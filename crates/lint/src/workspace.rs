//! Workspace discovery and the full-tree scan.
//!
//! Only `src/` trees are linted (see [`crate::policy::classify`]). The
//! scan runs in three phases. Phase one checks each file
//! independently ([`crate::check::check_source_facts`]), collecting
//! findings plus each file's cross-file facts: lock-acquisition edges,
//! calls captured under live guards, the parsed AST, and pending
//! workspace-lint suppressions. Phase two assembles the lock edges into
//! one graph *per crate* (lock identities are textual — `self.inner` in
//! two crates is two different locks) and reports every edge in a cycle.
//! Phase three builds the **workspace call graph** over the retained
//! ASTs ([`crate::callgraph`]) and runs the four interprocedural
//! analyses ([`crate::interproc`]); findings from both phases are routed
//! back to the declaring files, checked against the pending
//! suppressions, and the leftover directives become `unused-suppression`
//! findings.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::analyses::{lock_order_findings, LockEdge};
use crate::callgraph::{self, GraphFile};
use crate::check::{check_source_facts, suppress_pending, unused_pending};
use crate::interproc;
use crate::lint::{Finding, LintId};
use crate::policy::{classify, lints_for, FileContext};

/// Directories never descended into: build output, VCS state, and the
/// test and example trees no jouppi-lint invariant covers.
const PRUNED_DIRS: [&str; 5] = ["target", ".git", "node_modules", "tests", "examples"];

/// Size counters of the workspace call graph, surfaced in the JSON
/// report's `callgraph` section.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallGraphStats {
    /// Workspace functions (non-test, non-example).
    pub nodes: usize,
    /// Uniquely resolved call edges.
    pub resolved_edges: usize,
    /// Multi-candidate name-match edges (surfaced, never traversed).
    pub ambiguous_edges: usize,
    /// Call sites resolving outside the workspace (std, mostly).
    pub external_calls: usize,
}

/// One scanned file's findings.
#[derive(Clone, Debug)]
pub struct FileReport {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Findings in line order (empty for clean files).
    pub findings: Vec<Finding>,
}

/// The result of scanning a workspace.
#[derive(Clone, Debug, Default)]
pub struct ScanResult {
    /// Per-file reports, sorted by path; clean files are included with
    /// empty findings so `files_scanned` is auditable.
    pub files: Vec<FileReport>,
    /// Aggregate wall-clock cost per analysis stage across all files,
    /// sorted by stage name (for `--timings`).
    pub timings: Vec<(&'static str, Duration)>,
    /// Call-graph size counters (`None` when no file was scanned).
    pub callgraph: Option<CallGraphStats>,
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

/// Scans the whole workspace under `root`.
///
/// # Errors
///
/// Propagates I/O failures reading directories or files.
pub fn scan_workspace(root: &Path) -> io::Result<ScanResult> {
    let mut rel_paths = Vec::new();
    collect_rs_files(root, root, &mut rel_paths)?;
    rel_paths.sort();
    scan_files(root, &rel_paths)
}

/// Scans an explicit list of workspace-relative files; paths the policy
/// does not cover are skipped.
///
/// # Errors
///
/// Propagates I/O failures reading the files.
pub fn scan_files(root: &Path, rel_paths: &[String]) -> io::Result<ScanResult> {
    let mut sources = Vec::new();
    for rel in rel_paths {
        if let Some(ctx) = classify(rel) {
            let src = fs::read_to_string(root.join(rel))?;
            sources.push((ctx, src));
        }
    }
    Ok(scan_sources(&sources))
}

/// Scans in-memory sources as one workspace.
pub fn scan_sources<S: AsRef<str>>(sources: &[(FileContext, S)]) -> ScanResult {
    let mut result = ScanResult::default();
    let mut timings: BTreeMap<&'static str, Duration> = BTreeMap::new();
    // Phase one: per-file checks; park each file's cross-file facts.
    // `pendings`, `asts`, `test_ranges`, and `guarded` are parallel to
    // `sources` and `result.files`; `crate_edges` tags every edge with
    // the index of the file that produced it.
    let mut pendings = Vec::new();
    let mut asts = Vec::new();
    let mut test_ranges = Vec::new();
    let mut guarded = Vec::new();
    let mut crate_edges: BTreeMap<String, Vec<(usize, LockEdge)>> = BTreeMap::new();
    for (ctx, src) in sources {
        let facts = check_source_facts(ctx, src.as_ref());
        let file_index = result.files.len();
        for (stage, d) in facts.timings {
            *timings.entry(stage).or_default() += d;
        }
        crate_edges
            .entry(ctx.crate_name.clone())
            .or_default()
            .extend(facts.lock_edges.into_iter().map(|e| (file_index, e)));
        pendings.push(facts.pending);
        asts.push(facts.ast);
        test_ranges.push(facts.test_ranges);
        guarded.push(facts.guarded_calls);
        result.files.push(FileReport {
            rel_path: ctx.rel_path.clone(),
            findings: facts.findings,
        });
    }
    // Phase two: resolve lock-order per crate.
    let t0 = Instant::now();
    for edges in crate_edges.values() {
        let tagged: Vec<(String, LockEdge)> = edges
            .iter()
            .map(|(i, e)| (result.files[*i].rel_path.clone(), e.clone()))
            .collect();
        for (edge_index, finding) in lock_order_findings(&tagged) {
            let file_index = edges[edge_index].0;
            if !suppress_pending(&mut pendings[file_index], finding.lint, finding.line) {
                result.files[file_index].findings.push(finding);
            }
        }
    }
    *timings.entry("lock-order-resolve").or_default() += t0.elapsed();
    // Phase three: the workspace call graph and the interprocedural
    // analyses, over the ASTs retained in phase one (graph-file indexes
    // are `result.files` indexes).
    let t0 = Instant::now();
    if !asts.is_empty() {
        let inputs: Vec<GraphFile<'_>> = sources
            .iter()
            .zip(&asts)
            .zip(&test_ranges)
            .map(|(((ctx, _), ast), ranges)| GraphFile {
                ctx,
                ast,
                test_ranges: ranges,
            })
            .collect();
        let graph = callgraph::build(&inputs);
        result.callgraph = Some(CallGraphStats {
            nodes: graph.nodes.len(),
            resolved_edges: graph.resolved_edges,
            ambiguous_edges: graph.ambiguous_edges,
            external_calls: graph.external_calls,
        });
        *timings.entry("callgraph-build").or_default() += t0.elapsed();
        let actives: Vec<Vec<LintId>> = sources.iter().map(|(ctx, _)| lints_for(ctx)).collect();
        let interproc_out = interproc::run(&graph, &actives, &guarded);
        for (stage, d) in interproc_out.timings {
            *timings.entry(stage).or_default() += d;
        }
        for (file_index, finding) in interproc_out.findings {
            if !suppress_pending(&mut pendings[file_index], finding.lint, finding.line) {
                result.files[file_index].findings.push(finding);
            }
        }
    }
    // Settle the pending suppressions: anything still unused is itself a
    // finding.
    for (file_index, pending) in pendings.iter().enumerate() {
        for p in pending {
            if !p.used {
                result.files[file_index].findings.push(unused_pending(p));
            }
        }
        result.files[file_index]
            .findings
            .sort_by_key(|f| (f.line, f.lint.name()));
    }
    result.timings = timings.into_iter().collect();
    result
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
        // The call graph covers every workspace crate.
        let stats = a.callgraph.expect("call graph built");
        assert!(stats.nodes > 100, "nodes: {}", stats.nodes);
        assert!(
            stats.resolved_edges > 100,
            "edges: {}",
            stats.resolved_edges
        );
    }
}
