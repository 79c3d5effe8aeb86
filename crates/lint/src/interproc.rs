//! The interprocedural analysis riding the workspace call graph:
//! **lock-held-across-call**. A call made while a `MutexGuard` is live
//! that is itself a blocking construct (another lock, `recv`,
//! 0-argument `join`/`wait`, `thread::sleep`, `thread::scope`, …), or
//! whose callee *transitively* reaches one, convoys every thread behind
//! the lock — and a nested acquisition, in place or in a callee, can
//! deadlock against any other acquisition order.
//!
//! It follows the repo's conservatism stance — **fail toward false
//! negatives**: only resolved (non-ambiguous) call edges are traversed.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use crate::analyses::{is_blocking_method, is_blocking_path, GuardedCall};
use crate::callgraph::{call_sites, reaches_backward, CallGraph, Callee};
use crate::lint::{Finding, LintId};

/// What the interprocedural pass produces: findings routed to graph
/// file indexes, plus its timing.
#[derive(Debug, Default)]
pub struct InterprocOutput {
    /// `(graph file index, finding)` pairs.
    pub findings: Vec<(usize, Finding)>,
    /// Wall-clock cost per analysis.
    pub timings: Vec<(&'static str, Duration)>,
}

/// Runs lock-held-across-call. `guarded_calls` is parallel to the
/// graph's file list: the calls captured under live guards per file.
pub fn run(graph: &CallGraph<'_>, guarded_calls: &[Vec<GuardedCall>]) -> InterprocOutput {
    let mut out = InterprocOutput::default();
    // A guarded call that blocks itself is the depth-0 case; otherwise
    // the uniquely resolved callee must not reach a blocking construct.
    let t0 = Instant::now();
    let seeds: Vec<bool> = graph
        .nodes
        .iter()
        .map(|node| {
            node.body.is_some_and(|body| {
                call_sites(body)
                    .iter()
                    .any(|site| is_blocking(&site.callee, site.arity))
            })
        })
        .collect();
    let blocking = reaches_backward(graph, &seeds);
    for (file, calls) in guarded_calls.iter().enumerate() {
        let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
        for gc in calls {
            let message = if let Some(acquired) = &gc.acquires {
                format!(
                    "acquiring `{acquired}` while guard of `{}` is live — a nested \
                     acquisition deadlocks against any other order (or, re-entrant, \
                     against itself); drop the guard first",
                    gc.held
                )
            } else if is_blocking(&gc.callee, gc.arity) {
                let what = match &gc.callee {
                    Callee::Method { name, .. } => format!(".{name}()"),
                    Callee::Path(path) => path.join("::"),
                };
                format!(
                    "call to `{what}` while guard of `{}` is live — the callee blocks; \
                     drop the guard before the call",
                    gc.held
                )
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
                format!(
                    "call to `{}` while guard of `{}` is live — the callee (transitively) \
                     blocks or takes a lock; drop the guard before the call",
                    graph.label(target),
                    gc.held
                )
            };
            if !seen.insert((gc.line, message.clone())) {
                continue;
            }
            out.findings.push((
                file,
                Finding {
                    line: gc.line,
                    lint: LintId::LockHeldAcrossCall,
                    message,
                },
            ));
        }
    }
    out.timings.push(("lock-held-across-call", t0.elapsed()));
    out
}

/// Whether a call site is itself in the blocking catalog.
fn is_blocking(callee: &Callee, arity: usize) -> bool {
    match callee {
        Callee::Method { name, .. } => is_blocking_method(name, arity),
        Callee::Path(path) => is_blocking_path(path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{build, GraphFile};
    use crate::lexer::lex;
    use crate::parser::{parse, Ast};
    use crate::policy::classify;

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
        // What GuardScan would capture: drain_jobs() called in tick with
        // the q guard live.
        let guarded = vec![vec![GuardedCall {
            in_fn: "tick".to_owned(),
            fn_line: 1,
            callee: Callee::Path(vec!["drain_jobs".to_owned()]),
            arity: 0,
            line: 1,
            held: "q".to_owned(),
            acquires: None,
        }]];
        let out = run(&graph, &guarded);
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
