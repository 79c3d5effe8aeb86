//! The guard-liveness scan, built on [`crate::parser`]'s AST.
//!
//! The scan produces *facts*, not findings: every call made while a lock
//! guard is live ([`GuardedCall`]), which the workspace
//! `lock-held-across-call` pass ([`crate::interproc`]) checks against
//! the blocking catalog and the call graph. Taking a lock is in the
//! catalog, so a nested acquisition is a finding whether it happens in
//! place or inside any uniquely resolved callee. The scan is
//! scope-aware: it knows which `let` binds a guard and when a block
//! ends.
//!
//! ## Guard liveness model
//!
//! A *guard* comes into being at a 0-argument `.lock()` / `.read()` /
//! `.write()` call. Its identity is the textual receiver chain before
//! the acquiring call (`self.inner`, `TRACE_CACHE`, `self`) — no type
//! resolution, so identities are textual.
//!
//! * A `let`-bound guard (the init chain ends at the acquisition,
//!   possibly via `unwrap` / `expect` / `unwrap_or_else`) lives to the
//!   end of its enclosing block.
//! * A temporary guard (`q.lock().unwrap().len()`) lives to the end of
//!   its statement — and through the body for `if`/`while`/`for`/`match`
//!   headers, matching Rust's scrutinee temporary extension.
//! * `drop(g)` ends a guard early; passing a guard to `Condvar::wait` /
//!   `wait_timeout` / `wait_while` consumes it (the condvar unlocks).
//! * Closure bodies are walked with the surrounding guards live (they
//!   usually run inline: `unwrap_or_else`, `map`); closures passed to a
//!   callee named `spawn` are walked with no guards, because they run on
//!   another thread.
//!
//! While any guard is live, every call is captured as a
//! [`GuardedCall`], a further acquisition included (it records the lock
//! it takes). A captured call that is itself blocking — a 0-argument
//! `lock`/`read`/`write`, `recv`, a 0-argument `join`/`wait`/`accept`,
//! `read_to_end`, `thread::sleep`, `thread::scope`,
//! `TcpStream::connect`, … — is the depth-0 case of
//! `lock-held-across-call`.
//!
//! Accepted imprecision, chosen to fail toward false *negatives*:
//! rebinding a consumed guard (`inner = cv.wait(inner)…`) ends tracking,
//! and guards borrowed into called functions are not followed.

use crate::callgraph::{extend_chain, Callee};
use crate::parser::{Ast, Block, Chain, Expr, FnItem, Item, LetStmt, Root, Step, Stmt};

/// One call made while at least one lock guard was live. The workspace
/// scan resolves the callee against the call graph and flags it when the
/// callee (transitively) blocks.
#[derive(Clone, Debug)]
pub struct GuardedCall {
    /// Line of the enclosing `fn` keyword (node lookup key).
    pub fn_line: u32,
    /// The callee, as the call graph models call sites.
    pub callee: Callee,
    /// Argument count at the site (`self` not counted).
    pub arity: usize,
    /// Line of the call.
    pub line: u32,
    /// The held guards' identities, joined for the message.
    pub held: String,
    /// The identity of the lock the call takes, when it is an
    /// acquisition.
    pub acquires: Option<String>,
}

/// Whether a method `name` called with `arity` arguments is in the
/// blocking catalog (shared with the interprocedural pass).
pub fn is_blocking_method(name: &str, arity: usize) -> bool {
    BLOCKING_METHODS
        .iter()
        .any(|&(b, n)| b == name && (n == usize::MAX || arity == n))
}

/// Whether a method `name` called with `arity` arguments takes a lock:
/// a 0-argument `lock`, `read` or `write`.
pub fn is_acquisition(name: &str, arity: usize) -> bool {
    arity == 0 && matches!(name, "lock" | "read" | "write")
}

/// Whether a call path ends in a blocking free/associated function.
pub fn is_blocking_path(path: &[String]) -> bool {
    BLOCKING_PATHS.iter().any(|pat| {
        path.len() >= pat.len()
            && path[path.len() - pat.len()..]
                .iter()
                .zip(pat.iter())
                .all(|(a, b)| a == b)
    })
}

/// Runs the guard-liveness scan over one parsed file, returning every
/// call made under a live guard.
pub fn guarded_calls(ast: &Ast) -> Vec<GuardedCall> {
    let mut scan = GuardScan {
        guarded_calls: Vec::new(),
        live: Vec::new(),
        next_serial: 0,
        current_fn: 0,
    };
    for f in ast.functions() {
        if let Some(body) = &f.body {
            scan.live.clear();
            scan.current_fn = f.line;
            scan.walk_block(body);
        }
    }
    scan.guarded_calls
}

// -------------------------------------------------------------------
// Guard-liveness scan
// -------------------------------------------------------------------

/// A live lock guard.
#[derive(Clone, Debug)]
struct Guard {
    /// `let`-bound names (empty for a statement temporary).
    names: Vec<String>,
    /// Lock identity (receiver text before the acquiring call).
    lock_id: String,
    /// Monotone creation stamp; statement temporaries are purged by
    /// comparing against the statement's starting stamp.
    serial: u64,
}

struct GuardScan {
    guarded_calls: Vec<GuardedCall>,
    live: Vec<Guard>,
    next_serial: u64,
    /// Line of the `fn` keyword whose body is being walked.
    current_fn: u32,
}

/// Chain-tail methods through which an acquisition's result is still the
/// guard.
const GUARD_TAIL: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

/// Methods that consume a guard passed as their argument (the condvar
/// family unlocks while waiting — that is the sanctioned way to block).
const GUARD_CONSUMERS: [&str; 4] = ["wait", "wait_timeout", "wait_while", "wait_timeout_while"];

/// Blocking method names with the argument count they block at
/// (`usize::MAX` = any). `wait` and `join` only block at zero arguments:
/// `Condvar::wait(guard)` is the condvar pattern and `Vec::join(", ")`
/// is string joining. Taking a lock blocks until its holder lets go, so
/// a 0-argument `lock`/`read`/`write` is here too: under another guard
/// it is a nested acquisition, which deadlocks against any other order
/// (or, re-entrant, against itself).
const BLOCKING_METHODS: [(&str, usize); 13] = [
    ("lock", 0),
    ("read", 0),
    ("write", 0),
    ("recv", 0),
    ("recv_timeout", usize::MAX),
    ("recv_deadline", usize::MAX),
    ("join", 0),
    ("accept", 0),
    ("wait", 0),
    ("park", 0),
    ("read_to_end", usize::MAX),
    ("read_to_string", usize::MAX),
    ("read_exact", usize::MAX),
];

/// Blocking free/associated functions, matched as path suffixes.
/// `thread::scope` joins every thread spawned in it before returning.
const BLOCKING_PATHS: [&[&str]; 5] = [
    &["thread", "sleep"],
    &["sleep"],
    &["thread", "scope"],
    &["TcpStream", "connect"],
    &["UnixStream", "connect"],
];

impl GuardScan {
    fn stamp(&mut self) -> u64 {
        self.next_serial += 1;
        self.next_serial
    }

    fn walk_block(&mut self, block: &Block) {
        let scope_mark = self.live.len();
        for stmt in &block.stmts {
            let stmt_stamp = self.next_serial;
            match stmt {
                Stmt::Let(l) => self.walk_let(l, stmt_stamp),
                Stmt::Expr(e) => {
                    self.walk_expr(e);
                    self.purge_temps(stmt_stamp);
                }
                Stmt::Item(item) => {
                    // A nested fn's body runs when called, not here:
                    // walk it with no inherited guards.
                    if let Item::Fn(FnItem {
                        line,
                        body: Some(body),
                        ..
                    }) = item
                    {
                        let saved = std::mem::take(&mut self.live);
                        let saved_fn = std::mem::replace(&mut self.current_fn, *line);
                        self.walk_block(body);
                        self.current_fn = saved_fn;
                        self.live = saved;
                    }
                }
            }
        }
        self.live.truncate(scope_mark);
    }

    fn walk_let(&mut self, l: &LetStmt, stmt_stamp: u64) {
        let mut bound_serial = None;
        if let Some(init) = &l.init {
            bound_serial = self.walk_expr(init);
        }
        if let Some(e) = &l.else_block {
            self.walk_block(e);
        }
        // Promote the init's guard temporary into a named guard that
        // lives to end of block; any other temporaries die with the
        // statement. (An empty name list — `let _ = m.lock()` — means
        // the guard drops immediately, which the purge gets right.)
        if let Some(serial) = bound_serial {
            if let Some(g) = self.live.iter_mut().find(|g| g.serial == serial) {
                g.names = l.names.clone();
            }
        }
        self.purge_temps(stmt_stamp);
    }

    /// Removes unnamed guards created after `stamp` (statement
    /// temporaries whose statement just ended). Temporaries created by
    /// an *enclosing* statement — a match scrutinee, while this arm
    /// statement ends — have earlier serials and survive.
    fn purge_temps(&mut self, stamp: u64) {
        self.live
            .retain(|g| !(g.names.is_empty() && g.serial > stamp));
    }

    /// Walks one expression; returns the serial of the guard the
    /// expression evaluates to, if it is a live guard.
    fn walk_expr(&mut self, expr: &Expr) -> Option<u64> {
        match expr {
            Expr::Chain(chain) => self.walk_chain(chain),
            Expr::Block(b) => {
                self.walk_block(b);
                None
            }
            Expr::If {
                cond,
                then_block,
                else_branch,
            } => {
                // Scrutinee temporaries (`if let Some(g) = q.lock()…`)
                // live through the branches.
                let mark = self.live.len();
                self.walk_expr(cond);
                self.walk_block(then_block);
                if let Some(e) = else_branch {
                    self.walk_expr(e);
                }
                self.live.truncate(mark);
                None
            }
            Expr::While { cond, body } => {
                let mark = self.live.len();
                self.walk_expr(cond);
                self.walk_block(body);
                self.live.truncate(mark);
                None
            }
            Expr::Loop { body } => {
                self.walk_block(body);
                None
            }
            Expr::For { iter, body } => {
                let mark = self.live.len();
                self.walk_expr(iter);
                self.walk_block(body);
                self.live.truncate(mark);
                None
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                let mark = self.live.len();
                self.walk_expr(scrutinee);
                for arm in arms {
                    self.walk_expr(arm);
                }
                self.live.truncate(mark);
                None
            }
            Expr::Closure { body, .. } => {
                self.walk_expr(body);
                None
            }
            Expr::Macro { args, .. } => {
                for a in args {
                    self.walk_expr(a);
                }
                None
            }
            Expr::Group(children) => {
                for c in children {
                    self.walk_expr(c);
                }
                None
            }
            Expr::Lit(_) | Expr::Unit(_) => None,
        }
    }

    fn walk_chain(&mut self, chain: &Chain) -> Option<u64> {
        // `drop(g)` ends a guard.
        if let Root::Path(path) = &chain.root {
            if path.len() == 1 && path[0] == "drop" {
                if let Some(Step::Call { args, .. }) = chain.steps.first() {
                    if let [Expr::Chain(inner)] = args.as_slice() {
                        if let Some(name) = bare_name(inner) {
                            self.live.retain(|g| !g.names.iter().any(|n| n == name));
                            return None;
                        }
                    }
                }
            }
        }
        // Receiver identity accumulates across the chain's prefix.
        let mut receiver = match &chain.root {
            Root::Path(path) => path.join("::"),
            Root::Grouped(inner) => {
                let inner_guard = self.walk_expr(inner);
                inner_guard
                    .and_then(|s| self.live.iter().find(|g| g.serial == s))
                    .map(|g| g.lock_id.clone())
                    .unwrap_or_else(|| "(…)".to_owned())
            }
        };
        let mut guard_serial: Option<u64> = None;
        for (step_index, step) in chain.steps.iter().enumerate() {
            match step {
                Step::Field(..) => guard_serial = None,
                Step::Index(index, _) => {
                    self.walk_expr(index);
                    guard_serial = None;
                }
                Step::Method { name, args, line } => {
                    self.walk_args(name, args);
                    let acquires = is_acquisition(name, args.len());
                    if !acquires && guard_serial.is_some() && GUARD_TAIL.contains(&name.as_str()) {
                        // The chain's value is still the guard.
                    } else {
                        // An acquisition is captured before its own guard
                        // goes live: only the guards already held count.
                        self.capture_call(
                            Callee::Method {
                                receiver: if step_index == 0 {
                                    chain.root_path().and_then(|p| p.last().cloned())
                                } else {
                                    None
                                },
                                name: name.clone(),
                            },
                            args.len(),
                            *line,
                            acquires.then(|| receiver.clone()),
                        );
                        guard_serial = None;
                        if acquires {
                            let serial = self.stamp();
                            self.live.push(Guard {
                                names: Vec::new(),
                                lock_id: receiver.clone(),
                                serial,
                            });
                            guard_serial = Some(serial);
                        }
                    }
                }
                Step::Call { args, line } => {
                    let mut callee = String::new();
                    if step_index == 0 {
                        if let Root::Path(path) = &chain.root {
                            self.capture_call(Callee::Path(path.clone()), args.len(), *line, None);
                            callee = path.last().cloned().unwrap_or_default();
                        }
                    }
                    self.walk_args(&callee, args);
                    guard_serial = None;
                }
                Step::Try(_) => {}
            }
            extend_chain(&mut receiver, step);
        }
        guard_serial
    }

    /// Walks call arguments for the method/function `callee`: consumes
    /// guards passed to the condvar family, and isolates closures passed
    /// to `spawn` (they run on another thread, without our guards).
    fn walk_args(&mut self, callee: &str, args: &[Expr]) {
        let consumes = GUARD_CONSUMERS.contains(&callee);
        let detached = callee == "spawn";
        for arg in args {
            if consumes {
                if let Expr::Chain(c) = arg {
                    if let Some(name) = bare_name(c) {
                        if self.live.iter().any(|g| g.names.iter().any(|n| n == name)) {
                            self.live.retain(|g| !g.names.iter().any(|n| n == name));
                            continue;
                        }
                    }
                }
            }
            if detached {
                if let Expr::Closure { body, .. } = arg {
                    let saved = std::mem::take(&mut self.live);
                    self.walk_expr(body);
                    self.live = saved;
                    continue;
                }
            }
            self.walk_expr(arg);
        }
    }

    /// Records a call made under a live guard, for the workspace
    /// lock-held-across-call pass; `acquires` names the lock an
    /// acquisition takes.
    fn capture_call(&mut self, callee: Callee, arity: usize, line: u32, acquires: Option<String>) {
        if self.live.is_empty() {
            return;
        }
        let held = self
            .live
            .iter()
            .map(|g| g.lock_id.as_str())
            .collect::<Vec<_>>()
            .join("`, `");
        self.guarded_calls.push(GuardedCall {
            fn_line: self.current_fn,
            callee,
            arity,
            line,
            held,
            acquires,
        });
    }
}

/// The single identifier of a bare-path, step-free chain.
fn bare_name(chain: &Chain) -> Option<&str> {
    match (&chain.root, chain.steps.as_slice()) {
        (Root::Path(path), []) if path.len() == 1 => Some(&path[0]),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_source;
    use crate::lexer::lex;
    use crate::lint::{Finding, LintId};
    use crate::parser::parse;
    use crate::policy::classify;

    /// The acquisitions the scan records under a live guard, as
    /// `(held, acquired, line)`.
    fn nested(src: &str) -> Vec<(String, String, u32)> {
        guarded_calls(&parse(&lex(src)))
            .into_iter()
            .filter_map(|c| c.acquires.map(|a| (c.held, a, c.line)))
            .collect()
    }

    /// What the full one-file pipeline reports for lock-held-across-call.
    fn findings(src: &str) -> Vec<Finding> {
        let ctx = classify("crates/serve/src/fixture.rs").expect("serve context");
        check_source(&ctx, src)
            .into_iter()
            .filter(|f| f.lint == LintId::LockHeldAcrossCall)
            .collect()
    }

    /// Lines where the full one-file pipeline reports a lock held
    /// across a blocking call or a further acquisition.
    fn blocking_lines(src: &str) -> Vec<u32> {
        findings(src).iter().map(|f| f.line).collect()
    }

    fn pair(held: &str, acquired: &str, line: u32) -> (String, String, u32) {
        (held.to_owned(), acquired.to_owned(), line)
    }

    #[test]
    fn nested_acquisition_records_an_edge() {
        let src = "\
fn f(&self) {
    let a = self.alpha.lock().unwrap();
    let b = self.beta.lock().unwrap();
    a.touch(b.len());
}
";
        assert_eq!(nested(src), vec![pair("self.alpha", "self.beta", 3)]);
        // The finding names both the held lock and the acquired one.
        let found = findings(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
        assert!(
            found[0].message.contains("`self.beta`") && found[0].message.contains("`self.alpha`"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn block_scoped_guard_records_no_edge() {
        let src = "\
fn f(&self) {
    { let a = self.alpha.lock().unwrap(); a.touch(); }
    let b = self.beta.lock().unwrap();
}
";
        assert!(nested(src).is_empty(), "{:?}", nested(src));
        assert!(blocking_lines(src).is_empty());
    }

    #[test]
    fn drop_ends_a_guard() {
        let src = "\
fn f(&self) {
    let a = self.alpha.lock().unwrap();
    drop(a);
    let b = self.beta.lock().unwrap();
}
";
        assert!(nested(src).is_empty(), "{:?}", nested(src));
        assert!(blocking_lines(src).is_empty());
    }

    #[test]
    fn a_dereferenced_guard_is_a_temporary() {
        // `*g` copies the value out: the guard drops with its statement.
        let src = "\
fn f(&self) -> u64 {
    let a = *self.alpha.lock().unwrap();
    let b = *self.beta.lock().unwrap();
    a + b
}
";
        assert!(nested(src).is_empty(), "{:?}", nested(src));
        assert!(blocking_lines(src).is_empty());
    }

    #[test]
    fn reentrant_acquisition_is_a_self_cycle() {
        // `std::sync::Mutex` deadlocks on re-acquiring a lock it holds.
        let src = "\
fn f(&self) {
    let q = self.queue.lock().unwrap();
    let again = self.queue.lock().unwrap();
}
";
        assert_eq!(nested(src), vec![pair("self.queue", "self.queue", 3)]);
        assert_eq!(blocking_lines(src), vec![3]);
    }

    #[test]
    fn nested_acquisition_through_a_helper_is_flagged() {
        // The inner lock is taken in a callee: the call graph carries the
        // acquisition back to the call made under the guard.
        let src = "\
fn total(p: &Pair) -> u64 {
    let a = p.a.lock().unwrap();
    *a + read_b(p)
}
fn read_b(p: &Pair) -> u64 {
    *p.b.lock().unwrap()
}
";
        assert!(nested(src).is_empty(), "{:?}", nested(src));
        let found = findings(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
        assert!(found[0].message.contains("read_b"), "{}", found[0].message);
    }

    #[test]
    fn blocking_under_live_guard_is_flagged() {
        let src = "\
fn f(&self) {
    let inner = self.inner.lock().unwrap();
    let msg = self.rx.recv();
    inner.apply(msg);
}
";
        assert_eq!(blocking_lines(src), vec![3]);
    }

    #[test]
    fn condvar_wait_consumes_the_guard() {
        // The queue.rs pattern: wait_timeout takes the guard by value —
        // the condvar unlocks while waiting, so nothing is held.
        let src = "\
fn f(&self) {
    let mut inner = self.inner.lock().unwrap();
    let (g, timeout) = self.job_done.wait_timeout(inner, left).unwrap();
    thread::sleep(ONE);
}
";
        // `inner` is consumed at wait_timeout; the rebound `g` is not
        // tracked (accepted false negative) — so nothing is flagged.
        assert!(blocking_lines(src).is_empty());
    }

    #[test]
    fn sleep_and_connect_are_blocking_paths() {
        let src = "\
fn f(&self) {
    let g = self.state.lock().unwrap();
    std::thread::sleep(TICK);
    let c = TcpStream::connect(addr);
    std::thread::scope(|s| { s.spawn(|| work()); });
    g.touch();
}
";
        assert_eq!(blocking_lines(src), vec![3, 4, 5]);
    }

    #[test]
    fn join_on_vec_of_strings_is_not_blocking() {
        let src = "\
fn f(&self) {
    let g = self.state.lock().unwrap();
    let s = parts.join(\", \");
    g.set(s);
}
";
        assert!(blocking_lines(src).is_empty());
    }

    #[test]
    fn spawned_closures_do_not_inherit_guards() {
        let src = "\
fn f(&self) {
    let g = self.state.lock().unwrap();
    thread::spawn(move || { let x = rx.recv(); });
    g.touch();
}
";
        assert!(blocking_lines(src).is_empty());
    }

    #[test]
    fn match_scrutinee_guard_lives_through_arms() {
        let src = "\
fn f(&self) {
    match self.state.lock().unwrap().kind() {
        Kind::A => { let x = self.rx.recv(); }
        Kind::B => {}
    }
    let y = self.rx.recv();
}
";
        // recv inside the arm runs under the scrutinee's guard
        // temporary; the one after the match does not.
        assert_eq!(blocking_lines(src), vec![3]);
    }
}
