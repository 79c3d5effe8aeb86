//! The four interprocedural analyses riding the workspace call graph.
//!
//! All four follow the repo's conservatism stance — **fail toward false
//! negatives**: only resolved (non-ambiguous) call edges are traversed,
//! and constructs with a documented contract are accepted.
//!
//! * **panic-reachability** — every non-test function in `jouppi-serve`
//!   is a request-handling entrypoint; no function transitively
//!   reachable from one may contain an undocumented panic site
//!   (`panic!`/`todo!`/`unimplemented!`/`unreachable!` macro or a bare
//!   `.unwrap()`). `.expect("message")` is a documented invariant and is
//!   accepted — clippy's `expect_used`, set on serve's crate root, still
//!   bans it inside the crate itself.
//! * **transitive purity** — from the cache-keyed simulate path (serve
//!   functions named `simulate` or `run_named_engine`), no reachable
//!   function may touch ambient time, randomness, environment,
//!   filesystem, or default-hasher collections: the result cache
//!   memoizes on (organization, workload, scale, seed) alone, so any
//!   ambient input would poison cached documents.
//! * **untrusted-size taint** — integers parsed out of request bodies
//!   (`get_u64`/`get_usize`/`.as_u64()`/`.as_i64()` in serve) must be
//!   bounds-checked (`min`/`clamp`/`try_from` or an `if` comparison)
//!   before flowing into `with_capacity`/`reserve`/`vec![_; n]` — also
//!   when the flow passes through calls, via per-function parameter
//!   summaries folded to a fixpoint.
//! * **lock-held-across-call** — a call made while a `MutexGuard` is
//!   live that is itself a blocking construct (`recv`, 0-argument
//!   `join`/`wait`, `thread::sleep`, …), or whose callee *transitively*
//!   reaches one, convoys every thread behind the lock.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use crate::analyses::{is_blocking_method, is_blocking_path, GuardedCall};
use crate::callgraph::{call_sites, path_to, reach_forward, reaches_backward, CallGraph, Callee};
use crate::lint::{Finding, LintId};
use crate::parser::{Block, Expr, Root, Step, Stmt};

/// What the interprocedural pass produces: findings routed to graph
/// file indexes, plus per-analysis timings.
#[derive(Debug, Default)]
pub struct InterprocOutput {
    /// `(graph file index, finding)` pairs.
    pub findings: Vec<(usize, Finding)>,
    /// Wall-clock cost per analysis.
    pub timings: Vec<(&'static str, Duration)>,
}

/// The crate whose public functions are request-handling entrypoints.
const ENTRY_CRATE: &str = "serve";

/// Serve functions forming the cache-keyed simulate path.
const PURITY_ENTRIES: [&str; 2] = ["simulate", "run_named_engine"];

/// Runs the four analyses. `active` and `guarded_calls` are parallel to
/// the graph's file list: which lints policy activates per file, and the
/// calls captured under live guards per file.
pub fn run(
    graph: &CallGraph<'_>,
    active: &[Vec<LintId>],
    guarded_calls: &[Vec<GuardedCall>],
) -> InterprocOutput {
    let mut out = InterprocOutput::default();
    let t0 = Instant::now();
    let facts: Vec<NodeFacts> = (0..graph.nodes.len())
        .map(|n| NodeFacts::of(graph, n))
        .collect();
    out.timings.push(("interproc-facts", t0.elapsed()));

    let wants = |file: usize, lint: LintId| active.get(file).is_some_and(|a| a.contains(&lint));

    // --- panic-reachability -------------------------------------------
    let t0 = Instant::now();
    let entries: Vec<usize> = (0..graph.nodes.len())
        .filter(|&n| graph.files[graph.nodes[n].file].crate_name == ENTRY_CRATE)
        .collect();
    let parent = reach_forward(graph, &entries);
    for (n, facts_n) in facts.iter().enumerate() {
        let Some((line, what)) = &facts_n.panic_site else {
            continue;
        };
        if parent[n] == usize::MAX || !wants(graph.nodes[n].file, LintId::PanicReachability) {
            continue;
        }
        out.findings.push((
            graph.nodes[n].file,
            Finding {
                line: *line,
                lint: LintId::PanicReachability,
                message: format!(
                    "undocumented panic site `{what}` reachable from serve entrypoints \
                     via {} — return an error (or .expect(\"…\") a stated invariant)",
                    call_path(graph, &parent, n)
                ),
            },
        ));
    }
    out.timings.push(("panic-reachability", t0.elapsed()));

    // --- transitive purity --------------------------------------------
    let t0 = Instant::now();
    let entries: Vec<usize> = (0..graph.nodes.len())
        .filter(|&n| {
            graph.files[graph.nodes[n].file].crate_name == ENTRY_CRATE
                && PURITY_ENTRIES.contains(&graph.nodes[n].decl.name.as_str())
        })
        .collect();
    let parent = reach_forward(graph, &entries);
    for (n, facts_n) in facts.iter().enumerate() {
        let Some((line, what)) = &facts_n.impure_site else {
            continue;
        };
        if parent[n] == usize::MAX || !wants(graph.nodes[n].file, LintId::TransitivePurity) {
            continue;
        }
        out.findings.push((
            graph.nodes[n].file,
            Finding {
                line: *line,
                lint: LintId::TransitivePurity,
                message: format!(
                    "ambient source `{what}` reachable from the cache-keyed simulate \
                     path via {} — cached results must depend only on \
                     (organization, workload, scale, seed)",
                    call_path(graph, &parent, n)
                ),
            },
        ));
    }
    out.timings.push(("transitive-purity", t0.elapsed()));

    // --- untrusted-size taint -----------------------------------------
    let t0 = Instant::now();
    taint(graph, &wants, &mut out.findings);
    out.timings.push(("untrusted-size-taint", t0.elapsed()));

    // --- lock-held-across-call ----------------------------------------
    // A guarded call that blocks itself is the depth-0 case; otherwise
    // the uniquely resolved callee must not reach a blocking construct.
    let t0 = Instant::now();
    let seeds: Vec<bool> = facts.iter().map(|f| f.direct_blocking).collect();
    let blocking = reaches_backward(graph, &seeds);
    for (file, calls) in guarded_calls.iter().enumerate() {
        if !wants(file, LintId::LockHeldAcrossCall) {
            continue;
        }
        let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
        for gc in calls {
            let (what, via) = if is_blocking(&gc.callee, gc.arity) {
                let what = match &gc.callee {
                    Callee::Method { name, .. } => format!(".{name}()"),
                    Callee::Path(path) => path.join("::"),
                };
                (what, "blocks")
            } else {
                let Some(caller) = graph.node_at(file, gc.fn_line) else {
                    continue;
                };
                let Some(target) = graph.resolve_unique(caller, &gc.callee, gc.arity) else {
                    continue;
                };
                if !blocking[target] {
                    continue;
                }
                (graph.label(target), "(transitively) blocks")
            };
            if !seen.insert((gc.line, what.clone())) {
                continue;
            }
            out.findings.push((
                file,
                Finding {
                    line: gc.line,
                    lint: LintId::LockHeldAcrossCall,
                    message: format!(
                        "call to `{what}` while guard of `{}` is live — the callee {via}; \
                         drop the guard before the call",
                        gc.held
                    ),
                },
            ));
        }
    }
    out.timings.push(("lock-held-across-call", t0.elapsed()));

    out
}

/// Renders an entry → … → node call path from a predecessor array.
fn call_path(graph: &CallGraph<'_>, parent: &[usize], node: usize) -> String {
    path_to(parent, node)
        .iter()
        .map(|&i| graph.label(i))
        .collect::<Vec<_>>()
        .join(" → ")
}

/// Per-node facts the reachability analyses consume.
struct NodeFacts {
    /// First undocumented panic site, if any.
    panic_site: Option<(u32, String)>,
    /// First ambient (time/RNG/env/fs/default-hasher) site, if any.
    impure_site: Option<(u32, String)>,
    /// Whether the body directly contains a blocking construct.
    direct_blocking: bool,
}

impl NodeFacts {
    fn of(graph: &CallGraph<'_>, n: usize) -> NodeFacts {
        let mut facts = NodeFacts {
            panic_site: None,
            impure_site: None,
            direct_blocking: false,
        };
        let Some(body) = graph.nodes[n].body else {
            return facts;
        };
        facts.direct_blocking = call_sites(body)
            .iter()
            .any(|site| is_blocking(&site.callee, site.arity));
        for_each_expr(body, &mut |e| match e {
            Expr::Macro { name, line, .. }
                if facts.panic_site.is_none()
                    && matches!(
                        name.as_str(),
                        "panic" | "todo" | "unimplemented" | "unreachable"
                    ) =>
            {
                facts.panic_site = Some((*line, format!("{name}!")));
            }
            Expr::Chain(chain) => {
                for step in &chain.steps {
                    if let Step::Method { name, args, line } = step {
                        if name == "unwrap" && args.is_empty() && facts.panic_site.is_none() {
                            facts.panic_site = Some((*line, ".unwrap()".to_owned()));
                        }
                    }
                }
                if facts.impure_site.is_none() {
                    if let Root::Path(path) = &chain.root {
                        if let Some(what) = impure_path(path) {
                            facts.impure_site = Some((chain.line, what));
                        }
                    }
                }
            }
            _ => {}
        });
        facts
    }
}

/// Whether a call site is itself in the blocking catalog.
fn is_blocking(callee: &Callee, arity: usize) -> bool {
    match callee {
        Callee::Method { name, .. } => is_blocking_method(name, arity),
        Callee::Path(path) => is_blocking_path(path),
    }
}

/// Ambient type/function names whose mere mention in a call path is an
/// impurity (mirrors the determinism bans in `clippy.toml`).
const IMPURE_SEGMENTS: [&str; 10] = [
    "Instant",
    "SystemTime",
    "UNIX_EPOCH",
    "RandomState",
    "DefaultHasher",
    "OsRng",
    "StdRng",
    "thread_rng",
    "from_entropy",
    "getrandom",
];

/// Whether a path expression is an ambient (impure) source; returns a
/// human label when it is.
fn impure_path(path: &[String]) -> Option<String> {
    for (i, seg) in path.iter().enumerate() {
        if IMPURE_SEGMENTS.contains(&seg.as_str()) {
            return Some(seg.clone());
        }
        let next = path.get(i + 1).map(String::as_str);
        match (seg.as_str(), next) {
            ("env", Some(v)) if v.starts_with("var") => return Some(format!("env::{v}")),
            ("fs", Some(f)) => return Some(format!("fs::{f}")),
            ("File", Some(m @ ("open" | "create" | "options"))) => {
                return Some(format!("File::{m}"))
            }
            (h @ ("HashMap" | "HashSet"), Some(c @ ("new" | "with_capacity" | "default"))) => {
                return Some(format!("{h}::{c}"))
            }
            _ => {}
        }
    }
    None
}

/// Calls `f` on every expression in the block, pre-order, including
/// chain arguments, closure bodies, and macro arguments.
fn for_each_expr(block: &Block, f: &mut impl FnMut(&Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    visit(init, f);
                }
                if let Some(b) = &l.else_block {
                    for_each_expr(b, f);
                }
            }
            Stmt::Expr(e) => visit(e, f),
            Stmt::Item(_) => {}
        }
    }
}

fn visit(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    f(expr);
    match expr {
        Expr::Chain(chain) => {
            if let Root::Grouped(inner) = &chain.root {
                visit(inner, f);
            }
            for step in &chain.steps {
                match step {
                    Step::Method { args, .. } | Step::Call { args, .. } => {
                        for a in args {
                            visit(a, f);
                        }
                    }
                    Step::Index(inner, _) => visit(inner, f),
                    Step::Field(_, _) | Step::Try(_) => {}
                }
            }
        }
        Expr::Block(b) => for_each_expr(b, f),
        Expr::If {
            cond,
            then_block,
            else_branch,
        } => {
            visit(cond, f);
            for_each_expr(then_block, f);
            if let Some(e) = else_branch {
                visit(e, f);
            }
        }
        Expr::While { cond, body } => {
            visit(cond, f);
            for_each_expr(body, f);
        }
        Expr::Loop { body } => for_each_expr(body, f),
        Expr::For { iter, body } => {
            visit(iter, f);
            for_each_expr(body, f);
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            visit(scrutinee, f);
            for a in arms {
                visit(a, f);
            }
        }
        Expr::Closure { body, .. } => visit(body, f),
        Expr::Macro { args, .. } => {
            for a in args {
                visit(a, f);
            }
        }
        Expr::Group(children) => {
            for c in children {
                visit(c, f);
            }
        }
        Expr::Lit(_) | Expr::Unit(_) => {}
    }
}

// -------------------------------------------------------------------
// Untrusted-size taint
// -------------------------------------------------------------------

/// Methods/functions whose integer result is request-derived.
const TAINT_SOURCES: [&str; 5] = ["get_u64", "get_usize", "as_u64", "as_i64", "as_usize"];

/// Chain steps/paths that bound a value (make it trusted).
const GUARD_FNS: [&str; 6] = [
    "min",
    "clamp",
    "try_from",
    "checked_mul",
    "checked_add",
    "saturating_sub",
];

/// Allocation sinks taking a size argument.
const ALLOC_SINKS: [&str; 3] = ["with_capacity", "reserve", "reserve_exact"];

/// Taint-relevant facts of one function body.
#[derive(Default)]
struct TaintFacts {
    /// Names bounds-checked somewhere in the body (`if` conditions,
    /// `min`/`clamp`/`try_from`/checked-arithmetic uses).
    guarded: BTreeSet<String>,
    /// Alloc sinks: `(line, sink name, identifiers in its arguments)`.
    sinks: Vec<(u32, String, Vec<String>)>,
    /// Resolved workspace calls: `(line, target node, idents per arg)`.
    calls: Vec<(u32, usize, Vec<Vec<String>>)>,
    /// Request-derived local names (serve sources only).
    tainted: BTreeSet<String>,
}

fn taint(
    graph: &CallGraph<'_>,
    wants: &impl Fn(usize, LintId) -> bool,
    findings: &mut Vec<(usize, Finding)>,
) {
    let tf: Vec<TaintFacts> = (0..graph.nodes.len())
        .map(|n| taint_facts(graph, n))
        .collect();

    // Parameter summaries to a fixpoint: which parameter indices reach
    // an alloc sink unguarded, possibly through further calls.
    let mut sink_params: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); graph.nodes.len()];
    loop {
        let mut changed = false;
        for n in 0..graph.nodes.len() {
            for (p_idx, p_name) in graph.nodes[n].decl.params.iter().enumerate() {
                if sink_params[n].contains(&p_idx) || tf[n].guarded.contains(p_name) {
                    continue;
                }
                let hits_sink = tf[n]
                    .sinks
                    .iter()
                    .any(|(_, _, idents)| idents.iter().any(|i| i == p_name));
                let hits_call = tf[n].calls.iter().any(|(_, target, args)| {
                    args.iter().enumerate().any(|(j, idents)| {
                        idents.iter().any(|i| i == p_name) && sink_params[*target].contains(&j)
                    })
                });
                if hits_sink || hits_call {
                    sink_params[n].insert(p_idx);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Findings: a tainted, unguarded name reaching a sink directly or
    // through a sink-reaching parameter — reported once per function.
    for (n, t) in tf.iter().enumerate() {
        let file = graph.nodes[n].file;
        if !wants(file, LintId::UntrustedSizeTaint) {
            continue;
        }
        let live: Vec<&String> = t.tainted.difference(&t.guarded).collect();
        if live.is_empty() {
            continue;
        }
        let mut hit: Option<(u32, String)> = None;
        for (line, sink, idents) in &t.sinks {
            if let Some(name) = live.iter().find(|name| idents.contains(name)) {
                hit = Some((
                    *line,
                    format!("request-derived `{name}` flows into `{sink}`"),
                ));
                break;
            }
        }
        if hit.is_none() {
            'calls: for (line, target, args) in &t.calls {
                for (j, idents) in args.iter().enumerate() {
                    if !sink_params[*target].contains(&j) {
                        continue;
                    }
                    if let Some(name) = live.iter().find(|name| idents.contains(name)) {
                        hit = Some((
                            *line,
                            format!(
                                "request-derived `{name}` flows into an allocation via \
                                 `{}` parameter `{}`",
                                graph.label(*target),
                                graph.nodes[*target]
                                    .decl
                                    .params
                                    .get(j)
                                    .map_or("_", String::as_str)
                            ),
                        ));
                        break 'calls;
                    }
                }
            }
        }
        if let Some((line, what)) = hit {
            findings.push((
                file,
                Finding {
                    line,
                    lint: LintId::UntrustedSizeTaint,
                    message: format!(
                        "{what} without a bounds check — an attacker-chosen length is an \
                         allocation-size DoS; cap it (min/clamp or an explicit limit) first"
                    ),
                },
            ));
        }
    }
}

/// Collects every `let` statement in a block, recursively (nested
/// blocks, branches, loops, closures included).
fn lets_in<'a>(block: &'a Block, out: &mut Vec<&'a crate::parser::LetStmt>) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let(l) => {
                out.push(l);
                if let Some(init) = &l.init {
                    lets_in_expr(init, out);
                }
                if let Some(b) = &l.else_block {
                    lets_in(b, out);
                }
            }
            Stmt::Expr(e) => lets_in_expr(e, out),
            Stmt::Item(_) => {}
        }
    }
}

fn lets_in_expr<'a>(expr: &'a Expr, out: &mut Vec<&'a crate::parser::LetStmt>) {
    match expr {
        Expr::Block(b) => lets_in(b, out),
        Expr::If {
            cond,
            then_block,
            else_branch,
        } => {
            lets_in_expr(cond, out);
            lets_in(then_block, out);
            if let Some(e) = else_branch {
                lets_in_expr(e, out);
            }
        }
        Expr::While { cond, body } => {
            lets_in_expr(cond, out);
            lets_in(body, out);
        }
        Expr::Loop { body } => lets_in(body, out),
        Expr::For { iter, body } => {
            lets_in_expr(iter, out);
            lets_in(body, out);
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            lets_in_expr(scrutinee, out);
            for a in arms {
                lets_in_expr(a, out);
            }
        }
        Expr::Closure { body, .. } => lets_in_expr(body, out),
        Expr::Macro { args, .. } | Expr::Group(args) => {
            for a in args {
                lets_in_expr(a, out);
            }
        }
        Expr::Chain(chain) => {
            if let Root::Grouped(inner) = &chain.root {
                lets_in_expr(inner, out);
            }
            for step in &chain.steps {
                match step {
                    Step::Method { args, .. } | Step::Call { args, .. } => {
                        for a in args {
                            lets_in_expr(a, out);
                        }
                    }
                    Step::Index(inner, _) => lets_in_expr(inner, out),
                    Step::Field(_, _) | Step::Try(_) => {}
                }
            }
        }
        Expr::Lit(_) | Expr::Unit(_) => {}
    }
}

/// Collects the identifiers mentioned in an expression (single lowercase
/// path segments — variables, not types or literals).
fn idents_in(expr: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    visit(expr, &mut |e| {
        if let Expr::Chain(chain) = e {
            if let Root::Path(path) = &chain.root {
                for seg in path {
                    if seg.chars().next().is_some_and(char::is_lowercase) {
                        out.push(seg.clone());
                    }
                }
            }
        }
    });
    out
}

fn taint_facts(graph: &CallGraph<'_>, n: usize) -> TaintFacts {
    let mut t = TaintFacts::default();
    let Some(body) = graph.nodes[n].body else {
        return t;
    };
    let in_serve = graph.files[graph.nodes[n].file].crate_name == ENTRY_CRATE;
    collect_taint(graph, n, body, in_serve, &mut t);
    t
}

fn collect_taint(
    graph: &CallGraph<'_>,
    n: usize,
    block: &Block,
    in_serve: bool,
    t: &mut TaintFacts,
) {
    // Let bindings initialized from a request-derived source taint the
    // bound names — unless the same chain already bounds the value.
    if in_serve {
        let mut lets = Vec::new();
        lets_in(block, &mut lets);
        for l in lets {
            let Some(init) = &l.init else { continue };
            let mut sourced = false;
            let mut bounded = false;
            visit(init, &mut |e| {
                if let Expr::Chain(chain) = e {
                    if let Root::Path(path) = &chain.root {
                        if path
                            .last()
                            .is_some_and(|s| TAINT_SOURCES.contains(&s.as_str()))
                        {
                            sourced = true;
                        }
                    }
                    for step in &chain.steps {
                        if let Step::Method { name, .. } = step {
                            if TAINT_SOURCES.contains(&name.as_str()) {
                                sourced = true;
                            }
                            if GUARD_FNS.contains(&name.as_str()) {
                                bounded = true;
                            }
                        }
                    }
                }
            });
            if sourced && !bounded {
                t.tainted.extend(l.names.iter().cloned());
            }
        }
    }

    // Guards, sinks, and resolved calls — over the whole body.
    for_each_expr(block, &mut |e| match e {
        Expr::If { cond, .. } | Expr::While { cond, .. } => {
            t.guarded.extend(idents_in(cond));
        }
        Expr::Chain(chain) => {
            for (k, step) in chain.steps.iter().enumerate() {
                match step {
                    Step::Method { name, args, line } => {
                        if GUARD_FNS.contains(&name.as_str()) {
                            if let Root::Path(path) = &chain.root {
                                for seg in path {
                                    if seg.chars().next().is_some_and(char::is_lowercase) {
                                        t.guarded.insert(seg.clone());
                                    }
                                }
                            }
                            for a in args {
                                t.guarded.extend(idents_in(a));
                            }
                        }
                        if ALLOC_SINKS.contains(&name.as_str()) {
                            let idents: Vec<String> = args.iter().flat_map(idents_in).collect();
                            t.sinks.push((*line, name.clone(), idents));
                        } else {
                            let receiver = if k == 0 {
                                chain.root_path().and_then(|p| p.last().cloned())
                            } else {
                                None
                            };
                            let callee = Callee::Method {
                                receiver,
                                name: name.clone(),
                            };
                            if let Some(target) = graph.resolve_unique(n, &callee, args.len()) {
                                t.calls
                                    .push((*line, target, args.iter().map(idents_in).collect()));
                            }
                        }
                    }
                    Step::Call { args, line } => {
                        if k != 0 {
                            continue;
                        }
                        let Some(path) = chain.root_path() else {
                            continue;
                        };
                        let last = path.last().map(String::as_str).unwrap_or("");
                        if GUARD_FNS.contains(&last) {
                            for a in args {
                                t.guarded.extend(idents_in(a));
                            }
                        } else if ALLOC_SINKS.contains(&last) {
                            let idents: Vec<String> = args.iter().flat_map(idents_in).collect();
                            t.sinks.push((*line, last.to_owned(), idents));
                        } else if let Some(target) =
                            graph.resolve_unique(n, &Callee::Path(path.to_vec()), args.len())
                        {
                            t.calls
                                .push((*line, target, args.iter().map(idents_in).collect()));
                        }
                    }
                    _ => {}
                }
            }
        }
        Expr::Macro { name, args, line } if name == "vec" && args.len() == 2 => {
            // The parser flattens `vec![elem; count]` and `vec![a, b]` to
            // the same two-arg shape; only the second position can be a
            // repeat count, so only its identifiers are sink inputs. A
            // two-element list whose second element is request-derived is
            // the (accepted) false-positive residue.
            let idents = idents_in(&args[1]);
            if !idents.is_empty() {
                t.sinks.push((*line, "vec![_; n]".to_owned(), idents));
            }
        }
        _ => {}
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{build, GraphFile};
    use crate::lexer::lex;
    use crate::parser::{parse, Ast};
    use crate::policy::classify;

    fn run_on(files: &[(&str, &str)]) -> Vec<(String, Finding)> {
        let asts: Vec<(String, Ast)> = files
            .iter()
            .map(|(p, s)| ((*p).to_owned(), parse(&lex(s))))
            .collect();
        let ctxs: Vec<crate::policy::FileContext> = asts
            .iter()
            .map(|(p, _)| classify(p).expect("classifiable"))
            .collect();
        let inputs: Vec<GraphFile<'_>> = asts
            .iter()
            .zip(ctxs.iter())
            .map(|((_, ast), ctx)| GraphFile {
                ctx,
                ast,
                test_ranges: &[],
            })
            .collect();
        let graph = build(&inputs);
        let all: Vec<Vec<LintId>> = files
            .iter()
            .map(|_| {
                vec![
                    LintId::PanicReachability,
                    LintId::TransitivePurity,
                    LintId::UntrustedSizeTaint,
                    LintId::LockHeldAcrossCall,
                ]
            })
            .collect();
        let guarded: Vec<Vec<GuardedCall>> = files.iter().map(|_| Vec::new()).collect();
        let out = run(&graph, &all, &guarded);
        out.findings
            .into_iter()
            .map(|(i, f)| (files[i].0.to_owned(), f))
            .collect()
    }

    fn lints(findings: &[(String, Finding)], lint: LintId) -> Vec<(String, u32)> {
        findings
            .iter()
            .filter(|(_, f)| f.lint == lint)
            .map(|(p, f)| (p.clone(), f.line))
            .collect()
    }

    #[test]
    fn panic_three_calls_deep_is_reachable_from_serve() {
        let findings = run_on(&[
            (
                "crates/serve/src/routes.rs",
                "use jouppi_core::enter;\nfn handler() { enter(); }\n",
            ),
            (
                "crates/core/src/lib.rs",
                "pub fn enter() { middle(); }\nfn middle() { deep(); }\n\
                 fn deep() { panic!(\"boom\"); }\n",
            ),
        ]);
        let hits = lints(&findings, LintId::PanicReachability);
        assert_eq!(hits, [("crates/core/src/lib.rs".to_owned(), 3)]);
        let msg = &findings
            .iter()
            .find(|(_, f)| f.lint == LintId::PanicReachability)
            .expect("finding")
            .1
            .message;
        assert!(
            msg.contains("serve::handler"),
            "call path in message: {msg}"
        );
    }

    #[test]
    fn expect_is_a_documented_contract_not_a_panic_site() {
        let findings = run_on(&[
            (
                "crates/serve/src/routes.rs",
                "use jouppi_core::enter;\nfn handler() { enter(); }\n",
            ),
            (
                "crates/core/src/lib.rs",
                "pub fn enter() { let x: Option<u8> = None; \
                 let _y = x.expect(\"validated at construction\"); }\n",
            ),
        ]);
        assert!(lints(&findings, LintId::PanicReachability).is_empty());
    }

    #[test]
    fn unreached_panic_is_not_flagged() {
        let findings = run_on(&[
            ("crates/serve/src/routes.rs", "fn handler() {}\n"),
            (
                "crates/core/src/lib.rs",
                "pub fn island() { let x: Option<u8> = None; let _ = x.unwrap(); }\n",
            ),
        ]);
        assert!(lints(&findings, LintId::PanicReachability).is_empty());
    }

    #[test]
    fn system_time_behind_helper_breaks_purity() {
        let findings = run_on(&[
            (
                "crates/serve/src/sim.rs",
                "use crate::stamp::stamp;\nfn simulate() { let _t = stamp(); }\n",
            ),
            (
                "crates/serve/src/stamp.rs",
                "pub fn stamp() -> u64 { SystemTime::now(); 0 }\n",
            ),
        ]);
        let hits = lints(&findings, LintId::TransitivePurity);
        assert_eq!(hits, [("crates/serve/src/stamp.rs".to_owned(), 1)]);
    }

    #[test]
    fn purity_only_checks_the_simulate_path() {
        // The same helper reached from a non-simulate fn is fine.
        let findings = run_on(&[
            (
                "crates/serve/src/metrics.rs",
                "use crate::stamp::stamp;\nfn render_metrics() { let _t = stamp(); }\n",
            ),
            (
                "crates/serve/src/stamp.rs",
                "pub fn stamp() -> u64 { SystemTime::now(); 0 }\n",
            ),
        ]);
        assert!(lints(&findings, LintId::TransitivePurity).is_empty());
    }

    #[test]
    fn unchecked_request_length_reaching_with_capacity_is_tainted() {
        let findings = run_on(&[(
            "crates/serve/src/sim.rs",
            "fn simulate(obj: &Json) {\n\
                 let depth = get_u64(obj, \"depth\");\n\
                 let v: Vec<u8> = Vec::with_capacity(depth);\n\
             }\n\
             fn get_u64(obj: &Json, key: &str) -> usize { 0 }\n",
        )]);
        let hits = lints(&findings, LintId::UntrustedSizeTaint);
        assert_eq!(hits, [("crates/serve/src/sim.rs".to_owned(), 3)]);
    }

    #[test]
    fn bounds_checked_length_is_clean() {
        for guarded in [
            // .min() cap on the source chain
            "fn simulate(obj: &Json) {\n\
                 let depth = get_u64(obj, \"depth\").min(64);\n\
                 let v: Vec<u8> = Vec::with_capacity(depth);\n\
             }\n\
             fn get_u64(obj: &Json, key: &str) -> usize { 0 }\n",
            // explicit if comparison
            "fn simulate(obj: &Json) {\n\
                 let depth = get_u64(obj, \"depth\");\n\
                 if depth > 64 { return; }\n\
                 let v: Vec<u8> = Vec::with_capacity(depth);\n\
             }\n\
             fn get_u64(obj: &Json, key: &str) -> usize { 0 }\n",
        ] {
            let findings = run_on(&[("crates/serve/src/sim.rs", guarded)]);
            assert!(
                lints(&findings, LintId::UntrustedSizeTaint).is_empty(),
                "guarded variant flagged:\n{guarded}"
            );
        }
    }

    #[test]
    fn taint_flows_through_a_callee_parameter() {
        let findings = run_on(&[
            (
                "crates/serve/src/sim.rs",
                "use jouppi_core::build_table;\n\
                 fn simulate(obj: &Json) {\n\
                     let depth = get_u64(obj, \"depth\");\n\
                     build_table(depth);\n\
                 }\n\
                 fn get_u64(obj: &Json, key: &str) -> usize { 0 }\n",
            ),
            (
                "crates/core/src/lib.rs",
                "pub fn build_table(rows: usize) -> Vec<u64> { Vec::with_capacity(rows) }\n",
            ),
        ]);
        let hits = lints(&findings, LintId::UntrustedSizeTaint);
        assert_eq!(hits, [("crates/serve/src/sim.rs".to_owned(), 4)]);
    }

    #[test]
    fn lock_held_across_transitively_blocking_call() {
        let asts: Vec<(String, Ast)> = [(
            "crates/serve/src/worker.rs",
            "fn tick(q: &Mutex<u8>) { let g = q.lock(); drain_jobs(); }\n\
                 fn drain_jobs() { wait_for_result(); }\n\
                 fn wait_for_result() { let rx: Receiver<u8> = todo_rx(); rx.recv(); }\n",
        )]
        .iter()
        .map(|(p, s)| ((*p).to_owned(), parse(&lex(s))))
        .collect();
        let ctxs: Vec<crate::policy::FileContext> = asts
            .iter()
            .map(|(p, _)| classify(p).expect("classifiable"))
            .collect();
        let inputs: Vec<GraphFile<'_>> = asts
            .iter()
            .zip(ctxs.iter())
            .map(|((_, ast), ctx)| GraphFile {
                ctx,
                ast,
                test_ranges: &[],
            })
            .collect();
        let graph = build(&inputs);
        let active = vec![vec![LintId::LockHeldAcrossCall]];
        // What GuardScan would capture: drain_jobs() called in tick with
        // the q guard live.
        let guarded = vec![vec![GuardedCall {
            in_fn: "tick".to_owned(),
            fn_line: 1,
            callee: Callee::Path(vec!["drain_jobs".to_owned()]),
            arity: 0,
            line: 1,
            held: "q".to_owned(),
        }]];
        let out = run(&graph, &active, &guarded);
        let hits: Vec<&Finding> = out
            .findings
            .iter()
            .filter(|(_, f)| f.lint == LintId::LockHeldAcrossCall)
            .map(|(_, f)| f)
            .collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("drain_jobs"));
    }
}
