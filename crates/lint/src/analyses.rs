//! The structural analyses, built on [`crate::parser`]'s AST.
//!
//! Two analyses run here. **unbounded-growth** produces findings
//! directly. The **guard-liveness scan** produces *facts*: nested
//! acquisitions ([`LockEdge`]s), which the workspace scan assembles into
//! a per-crate acquisition graph before reporting cycles (see
//! [`lock_order_findings`]), and calls made under a live guard
//! ([`GuardedCall`]s), which the workspace `lock-held-across-call` pass
//! checks against the blocking catalog and the call graph. Both are
//! scope-aware: they know which `let` binds a guard and when a block
//! ends.
//!
//! ## Guard liveness model
//!
//! A *guard* comes into being at a 0-argument `.lock()` / `.read()` /
//! `.write()` call. Its identity is the textual receiver chain before
//! the acquiring call (`self.inner`, `TRACE_CACHE`, `self`) — no type
//! resolution, so identities are textual and compared per crate.
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
//! While any guard is live, a further acquisition records a [`LockEdge`]
//! (held → acquired), and every other call is captured as a
//! [`GuardedCall`]. A captured call that is itself blocking — `recv`, a
//! 0-argument `join`/`wait`/`accept`, `read_to_end`, `thread::sleep`,
//! `thread::scope`, `TcpStream::connect`, … — is the depth-0 case of
//! `lock-held-across-call`.
//!
//! Accepted imprecision, chosen to fail toward false *negatives*:
//! rebinding a consumed guard (`inner = cv.wait(inner)…`) ends tracking,
//! and guards borrowed into called functions are not followed.

use std::time::{Duration, Instant};

use crate::callgraph::Callee;
use crate::lint::{Finding, LintId};
use crate::parser::{Ast, Block, Chain, Expr, FnItem, Item, LetStmt, Root, Step, Stmt};

/// What the structural analyses produce for one file.
#[derive(Clone, Debug, Default)]
pub struct AnalysisOutput {
    /// Findings from the single-file analysis (unbounded-growth).
    pub findings: Vec<Finding>,
    /// Nested-acquisition facts for the lock-order pass.
    pub lock_edges: Vec<LockEdge>,
    /// Calls made while a guard was live, for the workspace
    /// lock-held-across-call pass.
    pub guarded_calls: Vec<GuardedCall>,
    /// Wall-clock cost per analysis, for the `--timings` report.
    pub timings: Vec<(&'static str, Duration)>,
}

/// One call made while at least one lock guard was live. The workspace
/// scan resolves the callee against the call graph and flags it when the
/// callee (transitively) blocks.
#[derive(Clone, Debug)]
pub struct GuardedCall {
    /// Name of the enclosing function.
    pub in_fn: String,
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
}

/// Whether a method `name` called with `arity` arguments is in the
/// blocking catalog (shared with the interprocedural pass).
pub fn is_blocking_method(name: &str, arity: usize) -> bool {
    BLOCKING_METHODS
        .iter()
        .any(|&(b, n)| b == name && (n == usize::MAX || arity == n))
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

/// One nested lock acquisition: `held` was live when `acquired` was
/// taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockEdge {
    /// Identity of the guard already held.
    pub held: String,
    /// Identity of the lock being acquired.
    pub acquired: String,
    /// Line of the acquiring call.
    pub line: u32,
}

/// Runs the guard-liveness scan, plus unbounded-growth when active,
/// over one parsed file. `in_test` tells which lines are test code: a
/// test that measures or clears a collection is no bounding path.
pub fn run(active: &[LintId], ast: &Ast, in_test: &dyn Fn(u32) -> bool) -> AnalysisOutput {
    let mut out = AnalysisOutput::default();
    let t0 = Instant::now();
    let mut scan = GuardScan {
        edges: Vec::new(),
        guarded_calls: Vec::new(),
        live: Vec::new(),
        next_serial: 0,
        current_fn: (String::new(), 0),
    };
    for f in ast.functions() {
        if let Some(body) = &f.body {
            scan.live.clear();
            scan.current_fn = (f.name.clone(), f.line);
            scan.walk_block(body);
        }
    }
    out.lock_edges = scan.edges;
    out.guarded_calls = scan.guarded_calls;
    out.timings.push(("guard-scan", t0.elapsed()));
    if active.contains(&LintId::UnboundedGrowth) {
        let t0 = Instant::now();
        unbounded_growth(ast, in_test, &mut out.findings);
        out.timings.push(("unbounded-growth", t0.elapsed()));
    }
    out
}

/// Builds lock-order findings from a set of accumulated edges (one
/// crate's worth): an edge is reported iff it participates in a cycle —
/// its acquired lock can reach its held lock through other edges,
/// including the length-1 cycle of re-acquiring a held lock, which
/// `std::sync::Mutex` deadlocks on.
///
/// Edges arrive tagged with their file path; findings come back as
/// `(edge index, finding)` pairs so the caller can route each finding to
/// the file that produced the edge.
pub fn lock_order_findings(edges: &[(String, LockEdge)]) -> Vec<(usize, Finding)> {
    let mut out = Vec::new();
    for (i, (_, edge)) in edges.iter().enumerate() {
        if reaches(edges, &edge.acquired, &edge.held) {
            out.push((
                i,
                Finding {
                    line: edge.line,
                    lint: LintId::LockOrder,
                    message: format!(
                        "acquiring `{}` while holding `{}` completes a lock cycle — \
                         a potential deadlock; establish one acquisition order",
                        edge.acquired, edge.held
                    ),
                },
            ));
        }
    }
    out
}

/// Whether `from` reaches `to` over the edge set (`from == to` counts:
/// a self-edge is a re-entrant acquisition).
fn reaches(edges: &[(String, LockEdge)], from: &str, to: &str) -> bool {
    if from == to {
        return true;
    }
    let mut seen: Vec<&str> = vec![from];
    let mut stack: Vec<&str> = vec![from];
    while let Some(node) = stack.pop() {
        for (_, e) in edges {
            if e.held == node {
                if e.acquired == to {
                    return true;
                }
                if !seen.contains(&e.acquired.as_str()) {
                    seen.push(&e.acquired);
                    stack.push(&e.acquired);
                }
            }
        }
    }
    false
}

// -------------------------------------------------------------------
// Guard-liveness scan (lock-order edges + guarded calls)
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
    edges: Vec<LockEdge>,
    guarded_calls: Vec<GuardedCall>,
    live: Vec<Guard>,
    next_serial: u64,
    /// Name and line of the function whose body is being walked.
    current_fn: (String, u32),
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
/// is string joining.
const BLOCKING_METHODS: [(&str, usize); 10] = [
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
                        name,
                        line,
                        body: Some(body),
                        ..
                    }) = item
                    {
                        let saved = std::mem::take(&mut self.live);
                        let saved_fn =
                            std::mem::replace(&mut self.current_fn, (name.clone(), *line));
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
                Step::Field(name, _) => {
                    receiver = format!("{receiver}.{name}");
                    guard_serial = None;
                }
                Step::Method { name, args, line } => {
                    self.walk_args(name, args);
                    let acquires =
                        args.is_empty() && matches!(name.as_str(), "lock" | "read" | "write");
                    if acquires {
                        for g in &self.live {
                            self.edges.push(LockEdge {
                                held: g.lock_id.clone(),
                                acquired: receiver.clone(),
                                line: *line,
                            });
                        }
                        let serial = self.stamp();
                        self.live.push(Guard {
                            names: Vec::new(),
                            lock_id: receiver.clone(),
                            serial,
                        });
                        guard_serial = Some(serial);
                    } else if guard_serial.is_some() && GUARD_TAIL.contains(&name.as_str()) {
                        // The chain's value is still the guard.
                    } else {
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
                        );
                        guard_serial = None;
                    }
                    receiver = format!("{receiver}.{name}()");
                }
                Step::Call { args, line } => {
                    let mut callee = String::new();
                    if step_index == 0 {
                        if let Root::Path(path) = &chain.root {
                            self.capture_call(Callee::Path(path.clone()), args.len(), *line);
                            callee = path.last().cloned().unwrap_or_default();
                        }
                    }
                    self.walk_args(&callee, args);
                    guard_serial = None;
                    receiver = format!("{receiver}()");
                }
                Step::Index(index, _) => {
                    self.walk_expr(index);
                    guard_serial = None;
                    receiver = format!("{receiver}[]");
                }
                Step::Try(_) => {}
            }
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
    /// lock-held-across-call pass.
    fn capture_call(&mut self, callee: Callee, arity: usize, line: u32) {
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
            in_fn: self.current_fn.0.clone(),
            fn_line: self.current_fn.1,
            callee,
            arity,
            line,
            held,
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

// -------------------------------------------------------------------
// unbounded-growth
// -------------------------------------------------------------------

/// Collection type names tracked for growth.
const COLLECTION_TYPES: [&str; 9] = [
    "Vec",
    "VecDeque",
    "HashMap",
    "BTreeMap",
    "HashSet",
    "BTreeSet",
    "FxHashMap",
    "FxHashSet",
    "BinaryHeap",
];

/// Methods that grow a collection.
const GROW_METHODS: [&str; 10] = [
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "append",
    "entry",
    "or_insert",
    "or_insert_with",
    "or_default",
];

/// Methods that shrink a collection, cap it, or consult its size —
/// evidence of a bounding path.
const BOUND_METHODS: [&str; 16] = [
    "pop",
    "pop_front",
    "pop_back",
    "remove",
    "remove_entry",
    "clear",
    "truncate",
    "drain",
    "retain",
    "split_off",
    "take",
    "swap_remove",
    "shrink_to_fit",
    "len",
    "is_empty",
    "capacity",
];

/// Flags collection-typed struct fields and statics that only ever grow
/// in this file: some chain grows them, and no chain outside test code
/// shrinks, prunes, or even measures them.
fn unbounded_growth(ast: &Ast, in_test: &dyn Fn(u32) -> bool, findings: &mut Vec<Finding>) {
    // Tracked entities: (name, declaration line).
    let mut tracked: Vec<(String, u32)> = Vec::new();
    for s in ast.structs() {
        for field in &s.fields {
            if COLLECTION_TYPES.iter().any(|c| ty_mentions(&field.ty, c)) {
                tracked.push((field.name.clone(), field.line));
            }
        }
    }
    for s in ast.statics() {
        if COLLECTION_TYPES.iter().any(|c| ty_mentions(&s.ty, c)) {
            tracked.push((s.name.clone(), s.line));
        }
    }
    if tracked.is_empty() {
        return;
    }
    let mut grows = vec![false; tracked.len()];
    let mut bounds = vec![false; tracked.len()];
    // Aliases: a `let` whose init chain mentions a tracked name makes
    // its bindings stand for that entity (`let mut q = CACHE.lock()…`).
    let mut aliases: Vec<(String, usize)> = Vec::new();
    for f in ast.functions() {
        if let (Some(body), false) = (&f.body, in_test(f.line)) {
            growth_in_block(body, &tracked, &mut aliases, &mut grows, &mut bounds);
        }
    }
    for (i, (name, line)) in tracked.iter().enumerate() {
        if grows[i] && !bounds[i] {
            findings.push(Finding {
                line: *line,
                lint: LintId::UnboundedGrowth,
                message: format!(
                    "collection `{name}` only grows in this file — add an eviction, \
                     pruning, or capacity path (or suppress with the reason it is bounded)"
                ),
            });
        }
    }
}

/// Whether a space-joined type-word string contains `word` exactly.
fn ty_mentions(ty: &str, word: &str) -> bool {
    ty.split(' ').any(|w| w == word)
}

fn growth_in_block(
    block: &Block,
    tracked: &[(String, u32)],
    aliases: &mut Vec<(String, usize)>,
    grows: &mut [bool],
    bounds: &mut [bool],
) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let(l) => {
                if let Some(Expr::Chain(chain)) = &l.init {
                    for (i, (name, _)) in tracked.iter().enumerate() {
                        if chain_mentions(chain, name) {
                            for bound in &l.names {
                                aliases.push((bound.clone(), i));
                            }
                        }
                    }
                }
                if let Some(init) = &l.init {
                    growth_in_expr(init, tracked, aliases, grows, bounds);
                }
                if let Some(e) = &l.else_block {
                    growth_in_block(e, tracked, aliases, grows, bounds);
                }
            }
            Stmt::Expr(e) => growth_in_expr(e, tracked, aliases, grows, bounds),
            Stmt::Item(Item::Fn(FnItem {
                body: Some(body), ..
            })) => growth_in_block(body, tracked, aliases, grows, bounds),
            Stmt::Item(_) => {}
        }
    }
}

fn growth_in_expr(
    expr: &Expr,
    tracked: &[(String, u32)],
    aliases: &mut Vec<(String, usize)>,
    grows: &mut [bool],
    bounds: &mut [bool],
) {
    match expr {
        Expr::Chain(chain) => {
            attribute_chain(chain, tracked, aliases, grows, bounds);
            if let Root::Grouped(inner) = &chain.root {
                growth_in_expr(inner, tracked, aliases, grows, bounds);
            }
            for step in &chain.steps {
                match step {
                    Step::Method { args, .. } | Step::Call { args, .. } => {
                        for a in args {
                            growth_in_expr(a, tracked, aliases, grows, bounds);
                        }
                    }
                    Step::Index(i, _) => growth_in_expr(i, tracked, aliases, grows, bounds),
                    _ => {}
                }
            }
        }
        Expr::Block(b) => growth_in_block(b, tracked, aliases, grows, bounds),
        Expr::If {
            cond,
            then_block,
            else_branch,
        } => {
            growth_in_expr(cond, tracked, aliases, grows, bounds);
            growth_in_block(then_block, tracked, aliases, grows, bounds);
            if let Some(e) = else_branch {
                growth_in_expr(e, tracked, aliases, grows, bounds);
            }
        }
        Expr::While { cond, body } => {
            growth_in_expr(cond, tracked, aliases, grows, bounds);
            growth_in_block(body, tracked, aliases, grows, bounds);
        }
        Expr::Loop { body } => growth_in_block(body, tracked, aliases, grows, bounds),
        Expr::For { iter, body } => {
            growth_in_expr(iter, tracked, aliases, grows, bounds);
            growth_in_block(body, tracked, aliases, grows, bounds);
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            growth_in_expr(scrutinee, tracked, aliases, grows, bounds);
            for a in arms {
                growth_in_expr(a, tracked, aliases, grows, bounds);
            }
        }
        Expr::Closure { body, .. } => growth_in_expr(body, tracked, aliases, grows, bounds),
        Expr::Macro { args, .. } => {
            for a in args {
                growth_in_expr(a, tracked, aliases, grows, bounds);
            }
        }
        Expr::Group(children) => {
            for c in children {
                growth_in_expr(c, tracked, aliases, grows, bounds);
            }
        }
        Expr::Lit(_) | Expr::Unit(_) => {}
    }
}

/// Whether a chain's root path or field steps mention `name`.
fn chain_mentions(chain: &Chain, name: &str) -> bool {
    let root_hit = matches!(&chain.root, Root::Path(p) if p.iter().any(|s| s == name));
    root_hit
        || chain
            .steps
            .iter()
            .any(|s| matches!(s, Step::Field(f, _) if f == name))
}

/// Attributes a chain's grow/bound method calls to the tracked entities
/// it mentions (directly or through an alias): every method step after
/// the mention counts.
fn attribute_chain(
    chain: &Chain,
    tracked: &[(String, u32)],
    aliases: &[(String, usize)],
    grows: &mut [bool],
    bounds: &mut [bool],
) {
    // (tracked index, position): -1 for a root mention, the step index
    // for a field mention.
    let mut touched: Vec<(usize, isize)> = Vec::new();
    if let Root::Path(path) = &chain.root {
        for seg in path {
            for (i, (name, _)) in tracked.iter().enumerate() {
                if seg == name {
                    touched.push((i, -1));
                }
            }
            for (alias, i) in aliases {
                if seg == alias {
                    touched.push((*i, -1));
                }
            }
        }
    }
    for (k, step) in chain.steps.iter().enumerate() {
        if let Step::Field(f, _) = step {
            for (i, (name, _)) in tracked.iter().enumerate() {
                if f == name {
                    touched.push((i, k as isize));
                }
            }
        }
    }
    for (i, pos) in touched {
        for (k, step) in chain.steps.iter().enumerate() {
            if (k as isize) <= pos {
                continue;
            }
            if let Step::Method { name, .. } = step {
                if GROW_METHODS.contains(&name.as_str()) {
                    grows[i] = true;
                }
                if BOUND_METHODS.contains(&name.as_str()) {
                    bounds[i] = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_source;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::policy::classify;

    fn run_on(active: &[LintId], src: &str) -> AnalysisOutput {
        run(active, &parse(&lex(src)), &|_| false)
    }

    fn lines_of(out: &AnalysisOutput, lint: LintId) -> Vec<u32> {
        out.findings
            .iter()
            .filter(|f| f.lint == lint)
            .map(|f| f.line)
            .collect()
    }

    /// Lines where the full one-file pipeline reports a blocking call
    /// under a live guard — the depth-0 case of lock-held-across-call.
    fn blocking_lines(src: &str) -> Vec<u32> {
        let ctx = classify("crates/serve/src/fixture.rs").expect("serve context");
        check_source(&ctx, src)
            .iter()
            .filter(|f| f.lint == LintId::LockHeldAcrossCall)
            .map(|f| f.line)
            .collect()
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
        let out = run_on(&[LintId::LockOrder], src);
        assert_eq!(
            out.lock_edges,
            vec![LockEdge {
                held: "self.alpha".to_owned(),
                acquired: "self.beta".to_owned(),
                line: 3,
            }]
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
        let out = run_on(&[LintId::LockOrder], src);
        assert!(out.lock_edges.is_empty(), "{:?}", out.lock_edges);
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
        let out = run_on(&[LintId::LockOrder], src);
        assert!(out.lock_edges.is_empty(), "{:?}", out.lock_edges);
    }

    #[test]
    fn cycle_detection_reports_both_edges() {
        let edges = vec![
            (
                "a.rs".to_owned(),
                LockEdge {
                    held: "A".into(),
                    acquired: "B".into(),
                    line: 1,
                },
            ),
            (
                "b.rs".to_owned(),
                LockEdge {
                    held: "B".into(),
                    acquired: "A".into(),
                    line: 2,
                },
            ),
            (
                "c.rs".to_owned(),
                LockEdge {
                    held: "A".into(),
                    acquired: "C".into(),
                    line: 3,
                },
            ),
        ];
        let findings = lock_order_findings(&edges);
        let indices: Vec<usize> = findings.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![0, 1]);
    }

    #[test]
    fn reentrant_acquisition_is_a_self_cycle() {
        let edges = vec![(
            "a.rs".to_owned(),
            LockEdge {
                held: "Q".into(),
                acquired: "Q".into(),
                line: 9,
            },
        )];
        assert_eq!(lock_order_findings(&edges).len(), 1);
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

    #[test]
    fn growth_without_bound_is_flagged_and_pruned_is_not() {
        let src = "\
struct State {
    log: Vec<Event>,
    seen: BTreeMap<u64, Event>,
    count: usize,
}
fn record(&mut self, e: Event) {
    self.log.push(e.clone());
    self.seen.insert(e.id, e);
    if self.seen.len() > CAP { self.seen.remove(&oldest); }
}
";
        let out = run_on(&[LintId::UnboundedGrowth], src);
        // `log` only grows (line 2); `seen` has a pruning path; `count`
        // is not a collection.
        assert_eq!(lines_of(&out, LintId::UnboundedGrowth), vec![2]);
    }

    #[test]
    fn a_test_measuring_a_collection_is_no_bound() {
        let src = "\
struct Server { conns: Vec<Handle> }
fn accept(&mut self, h: Handle) { self.conns.push(h); }
#[cfg(test)]
mod tests {
    fn reaped(s: &Server) -> bool { s.conns.len() == 1 }
}
";
        let ctx = classify("crates/serve/src/fixture.rs").expect("serve context");
        let lines: Vec<u32> = check_source(&ctx, src)
            .iter()
            .filter(|f| f.lint == LintId::UnboundedGrowth)
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![1]);
    }

    #[test]
    fn growth_through_static_alias_is_tracked() {
        let src = "\
static CACHE: Mutex<Vec<(Config, TraceSet)>> = Mutex::new(Vec::new());
fn put(t: TraceSet) {
    let mut cache = CACHE.lock().unwrap();
    cache.push((cfg, t));
}
";
        let out = run_on(&[LintId::UnboundedGrowth], src);
        assert_eq!(lines_of(&out, LintId::UnboundedGrowth), vec![1]);
        // With an eviction path through the same alias it is clean.
        let bounded = format!(
            "{src}fn evict() {{ let mut cache = CACHE.lock().unwrap(); \
             if cache.len() > 3 {{ cache.remove(0); }} }}\n"
        );
        let out = run_on(&[LintId::UnboundedGrowth], &bounded);
        assert!(lines_of(&out, LintId::UnboundedGrowth).is_empty());
    }
}
