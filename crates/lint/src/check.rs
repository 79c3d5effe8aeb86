//! The checker: the per-file half of the workspace scan.
//!
//! Pipeline per file: lex → locate `#[cfg(test)]`/`#[test]` regions →
//! parse suppression directives from comments → scan tokens for
//! `relaxed-ordering` → parse the AST and run the guard-liveness scan.
//! [`check_source_facts`] returns those findings with the facts the
//! call graph needs. Once [`crate::workspace`] has added the
//! `lock-held-across-call` findings, [`FileFacts::settle`] applies the
//! file's directives to all of them at once and reports the unused
//! ones. [`check_source`] runs the whole scan over one in-memory file.
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

use crate::analyses::{self, GuardedCall};
use crate::lexer::{lex, Lexed, TokKind, Token};
use crate::lint::{Finding, LintId};
use crate::parser::{parse, Ast};
use crate::policy::FileContext;
use crate::workspace::scan_sources;

/// One file's half of the scan: its token-scan findings, its
/// suppression directives, and the facts the call graph needs.
#[derive(Debug)]
pub struct FileFacts {
    /// `bad-suppression` and `relaxed-ordering` findings, not yet
    /// suppressed.
    pub findings: Vec<Finding>,
    /// Calls captured under a live guard (outside test regions), for the
    /// workspace lock-held-across-call pass.
    pub guarded_calls: Vec<GuardedCall>,
    /// The parsed AST, retained so the workspace scan can build the call
    /// graph without re-parsing.
    pub ast: Ast,
    /// `#[cfg(test)]`/`#[test]` line ranges (graph nodes exclude them).
    pub test_ranges: Vec<(u32, u32)>,
    /// Wall-clock cost per stage, for the `--timings` report.
    pub timings: Vec<(&'static str, Duration)>,
    /// The well-formed suppression directives, in source order.
    directives: Vec<Directive>,
}

impl FileFacts {
    /// Applies the file's directives to its findings plus `more` (the
    /// call-graph findings in this file): a finding is dropped when a
    /// directive covers it, and the first covering directive counts as
    /// used. Each unused directive becomes an `unused-suppression`
    /// finding. Returns the findings sorted by line.
    pub fn settle(self, more: impl IntoIterator<Item = Finding>) -> Vec<Finding> {
        let mut directives = self.directives;
        let mut findings = self.findings;
        findings.extend(more);
        // Directives name only suppressible lints (see `parse_one`), so
        // no hygiene finding is ever covered.
        findings.retain(|f| {
            let covering = directives.iter_mut().find(|d| {
                d.lints.contains(&f.lint) && (d.file_scope || d.target_line == Some(f.line))
            });
            match covering {
                Some(d) => {
                    d.used = true;
                    false
                }
                None => true,
            }
        });
        for d in directives.iter().filter(|d| !d.used) {
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
        findings.sort_by_key(|f| (f.line, f.lint.name()));
        findings
    }
}

/// Checks one source file as a one-file workspace, returning findings
/// sorted by line. The call-graph lint resolves against this file
/// alone.
pub fn check_source(ctx: &FileContext, src: &str) -> Vec<Finding> {
    let mut result = scan_sources(&[(ctx.clone(), src)]);
    result
        .files
        .pop()
        .map(|report| report.findings)
        .unwrap_or_default()
}

/// Runs the per-file half of the scan over one source file.
pub fn check_source_facts(src: &str) -> FileFacts {
    let mut timings = Vec::new();
    let t0 = Instant::now();
    let lexed = lex(src);
    let test_ranges = test_regions(&lexed.tokens);
    let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| line >= a && line <= b);

    let (directives, mut findings) = parse_directives(&lexed, &in_test);
    relaxed_ordering(&lexed.tokens, &in_test, &mut findings);
    timings.push(("lex+tokens", t0.elapsed()));

    let t0 = Instant::now();
    let ast = parse(&lexed);
    timings.push(("parse", t0.elapsed()));
    let t0 = Instant::now();
    let guarded_calls = analyses::guarded_calls(&ast)
        .into_iter()
        .filter(|c| !in_test(c.line))
        .collect();
    timings.push(("guard-scan", t0.elapsed()));

    FileFacts {
        findings,
        guarded_calls,
        ast,
        test_ranges,
        timings,
        directives,
    }
}

/// A parsed, well-formed suppression directive.
#[derive(Debug)]
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
        // Lints that moved to clippy configuration or were deleted are
        // unknown here too.
        for name in [
            "no-such",
            "ambient-time",
            "swallowed-result",
            "lock-order",
            "unbounded-growth",
        ] {
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
        // Call-graph lint directives settle in the same pass.
        let f = run("// jouppi-lint: allow(lock-held-across-call) — just in case\nfn f() {}\n");
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
        // The lint applies to every linted crate.
        let cache = classify("crates/cache/src/fixture.rs").expect("cache context");
        assert_eq!(check_source(&cache, src).len(), 1);
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
                   // jouppi-lint: allow(relaxed-ordering, lock-held-across-call) — fixture exercising a two-lint directive\n";
        // relaxed-ordering suppressed; the unused lock-held-across-call
        // half is fine because the directive as a whole was used.
        assert!(run(src).is_empty());
    }
}
