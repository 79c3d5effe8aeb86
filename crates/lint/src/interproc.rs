//! The interprocedural analysis riding the workspace call graph:
//! **lock-held-across-call**. A call made while a `MutexGuard` is live
//! that is itself a blocking construct (another lock, `recv`,
//! 0-argument `join`/`wait`, `thread::sleep`, `thread::scope`, …), or
//! whose callee *transitively* reaches one, convoys every thread behind
//! the lock — and a nested acquisition, in place or in a callee, can
//! deadlock against any other acquisition order.
//!
//! It follows the repo's conservatism stance — **fail toward false
//! negatives**: only uniquely resolved calls are call-graph edges. A
//! transitive finding names its witness: the blocking call or the lock
//! the callee reaches, and the function that makes it.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use crate::analyses::{is_acquisition, is_blocking_method, is_blocking_path, GuardedCall};
use crate::callgraph::{call_sites, reaches_backward, CallGraph, CallSite, Callee};
use crate::lint::{Finding, LintId};

/// What the interprocedural pass produces: findings per graph file,
/// plus its timing.
#[derive(Debug)]
pub struct InterprocOutput {
    /// Each graph file's findings, parallel to the graph's file list.
    pub findings: Vec<Vec<Finding>>,
    /// Wall-clock cost per analysis.
    pub timings: Vec<(&'static str, Duration)>,
}

/// Runs lock-held-across-call. `guarded_calls` is parallel to the
/// graph's file list: the calls captured under live guards per file.
pub fn run(graph: &CallGraph<'_>, guarded_calls: &[Vec<GuardedCall>]) -> InterprocOutput {
    let mut out = InterprocOutput {
        findings: vec![Vec::new(); guarded_calls.len()],
        timings: Vec::new(),
    };
    // A guarded call that blocks itself is the depth-0 case; otherwise
    // the uniquely resolved callee must not reach a blocking construct.
    // A seed is a function that makes a blocking call; its first one is
    // the witness a transitive finding names.
    let t0 = Instant::now();
    let seeds: Vec<Option<CallSite<'_>>> = graph
        .nodes
        .iter()
        .map(|node| {
            call_sites(node.body?)
                .into_iter()
                .find(|site| is_blocking(&site.callee, site.arity))
        })
        .collect();
    let is_seed: Vec<bool> = seeds.iter().map(Option::is_some).collect();
    let nearest = reaches_backward(graph, &is_seed);
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
                format!(
                    "call to `{}` while guard of `{}` is live — the callee blocks; \
                     drop the guard before the call",
                    gc.callee, gc.held
                )
            } else {
                let Some(caller) = graph.node_at(file, gc.fn_line) else {
                    continue;
                };
                let Some(target) = graph.resolve(caller, &gc.callee) else {
                    continue;
                };
                let Some(seed) = nearest[target] else {
                    continue;
                };
                let Some(site) = &seeds[seed] else {
                    continue;
                };
                let reached = match &site.callee {
                    Callee::Method { name, .. } if is_acquisition(name, site.arity) => {
                        format!("takes the lock `{}`", site.receiver_text())
                    }
                    callee => format!("blocks on `{callee}`"),
                };
                format!(
                    "call to `{}` while guard of `{}` is live — the callee (transitively) \
                     {reached} in `{}`; drop the guard before the call",
                    graph.label(target),
                    gc.held,
                    graph.label(seed)
                )
            };
            if !seen.insert((gc.line, message.clone())) {
                continue;
            }
            out.findings[file].push(Finding {
                line: gc.line,
                lint: LintId::LockHeldAcrossCall,
                message,
            });
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
            fn_line: 1,
            callee: Callee::Path(vec!["drain_jobs".to_owned()]),
            arity: 0,
            line: 1,
            held: "q".to_owned(),
            acquires: None,
        }]];
        let out = run(&graph, &guarded);
        let hits: Vec<&Finding> = out.findings.iter().flatten().collect();
        assert_eq!(hits.len(), 1);
        // The finding names the callee, the blocking call it reaches and
        // the function that makes that call.
        assert!(hits[0].message.contains("`serve::drain_jobs`"));
        assert!(hits[0]
            .message
            .contains("blocks on `.recv()` in `serve::wait_for_result`"));
    }
}
