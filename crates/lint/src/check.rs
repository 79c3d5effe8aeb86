//! The checker: runs the active lints over one lexed source file.
//!
//! Pipeline per file: lex → locate `#[cfg(test)]`/`#[test]` regions →
//! parse suppression directives from comments → scan tokens for
//! `relaxed-ordering` → parse the AST and run the structural analyses →
//! apply suppressions → report unused directives.
//!
//! # Single-file vs. workspace facts
//!
//! `relaxed-ordering` and `unbounded-growth` resolve within one file.
//! **lock-order** needs the whole crate's acquisition graph (an A→B
//! edge in one file is only a deadlock when some other file holds B
//! while taking A), and the four call-graph lints need the workspace
//! call graph. So [`check_source_facts`] returns the resolved findings
//! *plus* the file's cross-file facts and its pending workspace-lint
//! suppressions, for [`crate::workspace`] to finish the job;
//! [`check_source`] runs that whole pipeline over a single in-memory
//! file.
//!
//! # Suppression directives
//!
//! ```text
//! // jouppi-lint: allow(<lint>) — <reason>
//! // jouppi-lint: allow-file(<lint>) — <reason>
//! ```
//!
//! A trailing `allow` applies to findings on its own line; a standalone
//! `allow` (nothing but whitespace before it) applies to the next line
//! of code. `allow-file` covers the whole file. The reason is required —
//! a directive without one is itself a finding (`bad-suppression`), and
//! a directive that suppresses nothing is `unused-suppression`. The
//! separator before the reason may be `—`, `–`, `-`, or `:`.

use std::time::{Duration, Instant};

use crate::analyses::{self, GuardedCall, LockEdge};
use crate::lexer::{lex, Lexed, TokKind, Token};
use crate::lint::{Finding, LintId};
use crate::parser::{parse, Ast};
use crate::policy::{lints_for, FileContext};
use crate::workspace::scan_sources;

/// Lints that only resolve once the whole workspace is assembled: the
/// crate-wide lock graph, plus the four call-graph analyses. Their
/// suppression directives stay pending through phase one.
pub const WORKSPACE_LINTS: [LintId; 5] = [
    LintId::LockOrder,
    LintId::PanicReachability,
    LintId::TransitivePurity,
    LintId::UntrustedSizeTaint,
    LintId::LockHeldAcrossCall,
];

/// Everything the workspace scan needs from one file: its resolved
/// findings plus the facts that only resolve workspace-wide.
#[derive(Clone, Debug, Default)]
pub struct FileFacts {
    /// Findings from every single-file lint, suppressed and sorted.
    pub findings: Vec<Finding>,
    /// Nested-acquisition edges (outside test regions) for the crate's
    /// lock graph.
    pub lock_edges: Vec<LockEdge>,
    /// Calls captured under a live guard (outside test regions), for the
    /// workspace lock-held-across-call pass.
    pub guarded_calls: Vec<GuardedCall>,
    /// The parsed AST, retained so the workspace scan can build the call
    /// graph without re-parsing.
    pub ast: Ast,
    /// `#[cfg(test)]`/`#[test]` line ranges (graph nodes exclude them).
    pub test_ranges: Vec<(u32, u32)>,
    /// Suppression directives naming a workspace lint, held open until
    /// the workspace phases resolve.
    pub pending: Vec<PendingSuppression>,
    /// Wall-clock cost per stage, for the `--timings` report.
    pub timings: Vec<(&'static str, Duration)>,
}

/// A workspace-lint suppression awaiting cross-file resolution.
#[derive(Clone, Debug)]
pub struct PendingSuppression {
    /// Line of the directive comment.
    pub line: u32,
    /// The workspace lints the directive names.
    pub lints: Vec<LintId>,
    /// Whether the directive is `allow-file`.
    pub file_scope: bool,
    /// For line directives: the line a finding must be on to match.
    pub target_line: Option<u32>,
    /// Whether the directive already suppressed something (its other
    /// named lints may have matched in phase one).
    pub used: bool,
}

impl PendingSuppression {
    /// Whether this directive covers a `lint` finding on `line`.
    pub fn covers(&self, lint: LintId, line: u32) -> bool {
        self.lints.contains(&lint) && (self.file_scope || self.target_line == Some(line))
    }
}

/// The unused-suppression finding for a pending directive that never
/// matched.
pub fn unused_pending(p: &PendingSuppression) -> Finding {
    Finding {
        line: p.line,
        lint: LintId::UnusedSuppression,
        message: format!(
            "suppression for `{}` matches no finding — delete it",
            p.lints
                .iter()
                .map(|l| l.name())
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

/// Checks one source file as a one-file workspace, returning findings
/// sorted by line. Lock-order cycles and the call-graph lints resolve
/// against this file alone.
pub fn check_source(ctx: &FileContext, src: &str) -> Vec<Finding> {
    let mut result = scan_sources(&[(ctx.clone(), src)]);
    result
        .files
        .pop()
        .map(|report| report.findings)
        .unwrap_or_default()
}

/// Marks the first pending suppression covering a `lint` finding on
/// `line` used; returns whether one matched.
pub fn suppress_pending(pending: &mut [PendingSuppression], lint: LintId, line: u32) -> bool {
    for p in pending.iter_mut() {
        if p.covers(lint, line) {
            p.used = true;
            return true;
        }
    }
    false
}

/// Checks one source file, returning findings plus cross-file facts.
pub fn check_source_facts(ctx: &FileContext, src: &str) -> FileFacts {
    let active = lints_for(ctx);
    let mut timings = Vec::new();
    let t0 = Instant::now();
    let lexed = lex(src);
    let test_ranges = test_regions(&lexed.tokens);
    let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| line >= a && line <= b);

    let (mut directives, mut findings) = parse_directives(&lexed, &in_test);
    if active.contains(&LintId::RelaxedOrdering) {
        relaxed_ordering(&lexed.tokens, &in_test, &mut findings);
    }
    timings.push(("lex+tokens", t0.elapsed()));

    let t0 = Instant::now();
    let ast = parse(&lexed);
    timings.push(("parse", t0.elapsed()));
    let out = analyses::run(&active, &ast);
    findings.extend(out.findings.into_iter().filter(|f| !in_test(f.line)));
    let lock_edges = out
        .lock_edges
        .into_iter()
        .filter(|e| !in_test(e.line))
        .collect();
    let guarded_calls = out
        .guarded_calls
        .into_iter()
        .filter(|c| !in_test(c.line))
        .collect();
    timings.extend(out.timings);

    // Apply suppressions to suppressible findings.
    findings.retain(|f| {
        if !f.lint.suppressible() {
            return true;
        }
        for d in directives.iter_mut() {
            let name_matches = d.lints.contains(&f.lint);
            let scope_matches = d.file_scope || d.target_line == Some(f.line);
            if name_matches && scope_matches {
                d.used = true;
                return false;
            }
        }
        true
    });

    // Directives naming a workspace lint stay pending — their findings
    // only materialize once the workspace phases run.
    let mut pending = Vec::new();
    for d in &directives {
        let workspace_named: Vec<LintId> = d
            .lints
            .iter()
            .copied()
            .filter(|l| WORKSPACE_LINTS.contains(l))
            .collect();
        if !workspace_named.is_empty() {
            pending.push(PendingSuppression {
                line: d.line,
                lints: workspace_named,
                file_scope: d.file_scope,
                target_line: d.target_line,
                used: d.used,
            });
        } else if !d.used {
            findings.push(Finding {
                line: d.line,
                lint: LintId::UnusedSuppression,
                message: format!(
                    "suppression for `{}` matches no finding — delete it",
                    d.lints
                        .iter()
                        .map(|l| l.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
    }

    findings.sort_by_key(|f| (f.line, f.lint.name()));
    FileFacts {
        findings,
        lock_edges,
        guarded_calls,
        ast,
        test_ranges,
        pending,
        timings,
    }
}

/// A parsed, well-formed suppression directive.
struct Directive {
    line: u32,
    lints: Vec<LintId>,
    file_scope: bool,
    /// For line directives: the line findings must be on to match.
    target_line: Option<u32>,
    used: bool,
}

/// The marker every directive starts with (after the comment introducer).
const MARKER: &str = "jouppi-lint:";

/// Extracts directives from comments, resolving standalone directives to
/// the next code line. Malformed directives become findings.
fn parse_directives(
    lexed: &Lexed,
    in_test: &dyn Fn(u32) -> bool,
) -> (Vec<Directive>, Vec<Finding>) {
    let mut directives = Vec::new();
    let mut findings = Vec::new();
    for comment in &lexed.comments {
        let Some(at) = comment.text.find(MARKER) else {
            continue;
        };
        if in_test(comment.line) {
            continue; // Lints don't run in test regions; nor do directives.
        }
        // Doc comments (`///`, `//!`, `/** … */`, `/*! … */`) document the
        // directive syntax; only plain comments carry live directives.
        let t = comment.text.as_str();
        if t.starts_with("///")
            || t.starts_with("//!")
            || t.starts_with("/**")
            || t.starts_with("/*!")
        {
            continue;
        }
        let rest = comment.text[at + MARKER.len()..].trim();
        match parse_one(rest) {
            Ok((lints, file_scope)) => {
                let target_line = if file_scope {
                    None
                } else if comment.owns_line {
                    next_code_line(&lexed.tokens, comment.line)
                } else {
                    Some(comment.line)
                };
                directives.push(Directive {
                    line: comment.line,
                    lints,
                    file_scope,
                    target_line,
                    used: false,
                });
            }
            Err(why) => findings.push(Finding {
                line: comment.line,
                lint: LintId::BadSuppression,
                message: why,
            }),
        }
    }
    (directives, findings)
}

/// Parses `allow(<lints>) <sep> <reason>` / `allow-file(…)`; returns the
/// lints and whether the directive is file-scoped.
fn parse_one(rest: &str) -> Result<(Vec<LintId>, bool), String> {
    let (file_scope, body) = if let Some(b) = rest.strip_prefix("allow-file(") {
        (true, b)
    } else if let Some(b) = rest.strip_prefix("allow(") {
        (false, b)
    } else {
        return Err(format!(
            "malformed directive: expected `allow(<lint>) — <reason>` or \
             `allow-file(<lint>) — <reason>`, got `{rest}`"
        ));
    };
    let Some((names, after)) = body.split_once(')') else {
        return Err("malformed directive: missing `)` after lint name".to_owned());
    };
    let mut lints = Vec::new();
    for name in names.split(',') {
        let name = name.trim();
        match LintId::from_name(name) {
            Some(l) if l.suppressible() => lints.push(l),
            Some(l) => {
                return Err(format!("lint `{}` may not be suppressed", l.name()));
            }
            None => return Err(format!("unknown lint `{name}` in directive")),
        }
    }
    if lints.is_empty() {
        return Err("directive names no lint".to_owned());
    }
    let reason = after
        .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':'))
        .trim();
    if reason.is_empty() {
        return Err(
            "suppression needs a reason: `jouppi-lint: allow(<lint>) — <why this is sound>`"
                .to_owned(),
        );
    }
    Ok((lints, file_scope))
}

/// The first line after `line` that carries a code token.
fn next_code_line(tokens: &[Token], line: u32) -> Option<u32> {
    tokens.iter().map(|t| t.line).find(|&l| l > line)
}

/// Line ranges covered by `#[cfg(test)]` / `#[test]` items (attribute
/// line through the item's closing brace).
fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_line = tokens[i].line;
        let Some((content_start, close)) = bracket_span(tokens, i + 1) else {
            break;
        };
        let content = &tokens[content_start..close];
        if !is_test_attribute(content) {
            i = close + 1;
            continue;
        }
        // Skip any further attributes, then find the item body.
        let mut j = close + 1;
        while tokens[j..].first().is_some_and(|t| t.is_punct('#'))
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match bracket_span(tokens, j + 1) {
                Some((_, c)) => j = c + 1,
                None => break,
            }
        }
        // The region runs to the close of the item's outermost brace
        // block; an item ending in `;` before any `{` has no body.
        let mut depth = 0usize;
        let mut end_line = attr_line;
        let mut entered = false;
        while j < tokens.len() {
            match &tokens[j].kind {
                TokKind::Punct(';') if depth == 0 => {
                    end_line = tokens[j].line;
                    break;
                }
                TokKind::Punct('{') => {
                    depth += 1;
                    entered = true;
                }
                TokKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if entered && depth == 0 {
                        end_line = tokens[j].line;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= tokens.len() {
            end_line = tokens.last().map_or(attr_line, |t| t.line);
        }
        regions.push((attr_line, end_line));
        i = j + 1;
    }
    regions
}

/// Given the index of a `[`, returns `(first content index, index of the
/// matching `]`)`.
fn bracket_span(tokens: &[Token], open: usize) -> Option<(usize, usize)> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some((open + 1, k));
            }
        }
    }
    None
}

/// Whether attribute content tokens are exactly `test` or `cfg(test)`.
/// (`cfg(not(test))` and friends are *not* test attributes.)
fn is_test_attribute(content: &[Token]) -> bool {
    match content {
        [t] => t.ident() == Some("test"),
        [c, o, t, p] => {
            c.ident() == Some("cfg")
                && o.is_punct('(')
                && t.ident() == Some("test")
                && p.is_punct(')')
        }
        _ => false,
    }
}

/// Flags `Ordering::Relaxed` outside test regions.
fn relaxed_ordering(tokens: &[Token], in_test: &dyn Fn(u32) -> bool, findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.ident() == Some("Relaxed")
            && i >= 3
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].ident() == Some("Ordering")
            && !in_test(t.line)
        {
            findings.push(Finding {
                line: t.line,
                lint: LintId::RelaxedOrdering,
                message: "`Ordering::Relaxed` on a cross-thread counter that feeds reported \
                          results — justify why relaxed is exact here (suppress with a \
                          reason) or use a stronger ordering"
                    .to_owned(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::classify;

    /// A crate where `relaxed-ordering` is active.
    fn ctx() -> FileContext {
        classify("crates/experiments/src/fixture.rs").expect("experiments context")
    }

    fn run(src: &str) -> Vec<Finding> {
        check_source(&ctx(), src)
    }

    const RELAXED: &str = "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n";

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "\
fn a() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { COUNTER.load(Ordering::Relaxed); }
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let f = run(&format!("#[cfg(not(test))]\n{RELAXED}"));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LintId::RelaxedOrdering);
    }

    #[test]
    fn standalone_directive_covers_next_line() {
        let src =
            format!("// jouppi-lint: allow(relaxed-ordering) — progress gauge only\n{RELAXED}");
        assert!(run(&src).is_empty());
    }

    #[test]
    fn trailing_directive_covers_its_line() {
        let src = "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); } \
                   // jouppi-lint: allow(relaxed-ordering) — gauge only\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn directive_without_reason_is_a_finding() {
        let f = run(&format!(
            "// jouppi-lint: allow(relaxed-ordering)\n{RELAXED}"
        ));
        assert!(f.iter().any(|f| f.lint == LintId::BadSuppression));
        // The finding it tried to suppress still fires.
        assert!(f.iter().any(|f| f.lint == LintId::RelaxedOrdering));
    }

    #[test]
    fn unknown_lint_in_directive_is_a_finding() {
        // Lints that moved to clippy configuration are unknown here too.
        for name in ["no-such", "ambient-time", "swallowed-result"] {
            let f = run(&format!(
                "// jouppi-lint: allow({name}) — because\nfn f() {{}}\n"
            ));
            assert_eq!(f.len(), 1, "{name}: {f:?}");
            assert_eq!(f[0].lint, LintId::BadSuppression);
        }
    }

    #[test]
    fn unused_directive_is_a_finding() {
        let f = run("// jouppi-lint: allow(relaxed-ordering) — just in case\nfn f() {}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LintId::UnusedSuppression);
        // Workspace-lint directives settle in the same one-file scan.
        let f = run("// jouppi-lint: allow(lock-order) — just in case\nfn f() {}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LintId::UnusedSuppression);
    }

    #[test]
    fn allow_file_covers_everything() {
        let src = format!(
            "// jouppi-lint: allow-file(relaxed-ordering) — monotone gauges only\n{RELAXED}{RELAXED}"
        );
        assert!(run(&src).is_empty());
    }

    #[test]
    fn relaxed_ordering_needs_the_full_path() {
        let src = "\
fn f(c: &AtomicU64) {
    c.load(Ordering::Relaxed);
    c.load(Ordering::SeqCst);
    let Relaxed = 1;
}
";
        let relaxed: Vec<u32> = run(src)
            .iter()
            .filter(|f| f.lint == LintId::RelaxedOrdering)
            .map(|f| f.line)
            .collect();
        assert_eq!(relaxed, vec![2]);
        // Outside serve and experiments the lint is off.
        let cache = classify("crates/cache/src/fixture.rs").expect("cache context");
        assert!(check_source(&cache, src).is_empty());
    }

    #[test]
    fn literals_never_trip_lints() {
        let src = r#"
let a = "Ordering::Relaxed .lock() .recv()";
let b = 'R';
// Ordering::Relaxed in a comment is fine too.
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn doc_comments_never_carry_directives() {
        // Docs that *describe* the syntax must not register as live
        // directives (which would then be flagged bad/unused).
        let src = "\
//! Suppress with `// jouppi-lint: allow(<lint>) — <reason>`.
/// Or file-wide: `// jouppi-lint: allow-file(relaxed-ordering) — reason`.
fn f() {}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn multiple_lints_in_one_directive() {
        let src = "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); } \
                   // jouppi-lint: allow(relaxed-ordering, unbounded-growth) — fixture exercising a two-lint directive\n";
        // relaxed-ordering suppressed; the unused unbounded-growth half
        // is fine because the directive as a whole was used.
        assert!(run(src).is_empty());
    }
}
