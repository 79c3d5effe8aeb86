//! A conservative workspace call graph over the symbol tables.
//!
//! Nodes are the workspace's non-test function declarations; edges are
//! call sites resolved syntactically:
//!
//! 1. **Path calls** (`helper()`, `crate::json::Json::parse(…)`,
//!    `jouppi_core::simulate(…)`) resolve through the file's `use`
//!    imports, `crate`/`self`/`super` prefixes, and the `jouppi_*` →
//!    crate-directory mapping; a two-segment tail also tries
//!    `Type::method` against impl-block self-types (same crate first,
//!    then workspace-wide).
//! 2. **Method calls** (`queue.push(…)`, `self.resolve(…)`) resolve by
//!    receiver-name heuristics: the receiver identifier is matched
//!    against the snake_case of every impl self-type defining that
//!    method (`queue` matches `JobQueue`); `self.…` prefers the
//!    enclosing impl block's type.
//! 3. Anything still unresolved falls back to a workspace-wide name
//!    match. Ubiquitous std method names (`len`, `push`, `get`, …) never
//!    fall back by bare name: a receiver-less `x.push(…)` is far more
//!    likely `Vec::push` than any workspace `push`.
//!
//! Only a **unique** resolution becomes an edge. A site with several
//! candidates, or none in the workspace (std, mostly), adds nothing, so
//! the interprocedural analysis riding [`reaches_backward`] fails toward
//! false negatives — the same stance as the guard-liveness scan.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

use crate::parser::{Ast, Block, Chain, Expr, Root, Step, Stmt};
use crate::policy::FileContext;
use crate::symbols::{self, FileSymbols, FnDecl};

/// What a call site calls.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Callee {
    /// A path call: `foo(…)`, `a::b::c(…)`, `Type::method(…)`.
    Path(Vec<String>),
    /// A method call `recv.name(…)`. `receiver` is the last identifier
    /// of the chain root when the call is the chain's first step
    /// (`self`, `queue`, …); `None` mid-chain.
    Method {
        /// The receiver identifier, when syntactically evident.
        receiver: Option<String>,
        /// The method name.
        name: String,
    },
}

impl fmt::Display for Callee {
    /// `.name()` for a method, `a::b` for a path.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Callee::Method { name, .. } => write!(f, ".{name}()"),
            Callee::Path(path) => f.write_str(&path.join("::")),
        }
    }
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite<'a> {
    /// What is being called.
    pub callee: Callee,
    /// Number of arguments at the site (`self` not counted).
    pub arity: usize,
    /// For a method call, the chain it is a step of and that step's
    /// index: the steps before it are the receiver.
    step_of: Option<(&'a Chain, usize)>,
}

impl CallSite<'_> {
    /// The textual receiver chain of a method call (`p.b` in
    /// `p.b.lock()`, `self.inner` in `self.inner.lock()`): a lock's
    /// identity, as the guard-liveness scan names it. Empty for path
    /// calls.
    pub fn receiver_text(&self) -> String {
        let Some((chain, step)) = self.step_of else {
            return String::new();
        };
        let mut text = match &chain.root {
            Root::Path(segments) => segments.join("::"),
            Root::Grouped(_) => "(…)".to_owned(),
        };
        for s in &chain.steps[..step] {
            extend_chain(&mut text, s);
        }
        text
    }
}

/// Appends one chain step to a textual receiver chain: `.field`,
/// `.method()`, `()` or `[]`.
pub fn extend_chain(chain: &mut String, step: &Step) {
    match step {
        Step::Field(name, _) => {
            chain.push('.');
            chain.push_str(name);
        }
        Step::Method { name, .. } => {
            chain.push('.');
            chain.push_str(name);
            chain.push_str("()");
        }
        Step::Call { .. } => chain.push_str("()"),
        Step::Index(..) => chain.push_str("[]"),
        Step::Try(_) => {}
    }
}

/// One file's worth of input to the graph builder.
pub struct GraphFile<'a> {
    /// The file's policy context (crate, path, role).
    pub ctx: &'a FileContext,
    /// Its parsed AST.
    pub ast: &'a Ast,
    /// `#[cfg(test)]`/`#[test]` line ranges — functions inside are not
    /// graph nodes.
    pub test_ranges: &'a [(u32, u32)],
}

/// One graph node: a workspace function.
pub struct Node<'a> {
    /// Index of the declaring file in the builder's input slice.
    pub file: usize,
    /// The declaration (name, impl type, module, receiver).
    pub decl: FnDecl,
    /// The function body, when present.
    pub body: Option<&'a Block>,
}

/// The workspace call graph.
pub struct CallGraph<'a> {
    /// All nodes; indices are stable identifiers.
    pub nodes: Vec<Node<'a>>,
    /// Adjacency: `edges[i]` are the nodes node `i` calls, each once.
    pub edges: Vec<Vec<usize>>,
    /// Per-file symbol tables, parallel to the builder's input slice.
    pub files: Vec<FileSymbols>,
    /// Name-resolution indexes, retained for late single-site lookups.
    index: Indexes,
}

impl<'a> CallGraph<'a> {
    /// Finds the node declared in `file` whose `fn` keyword is on
    /// `line`.
    pub fn node_at(&self, file: usize, line: u32) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.file == file && n.decl.line == line)
    }

    /// Resolves one late call site (e.g. a call captured under a lock
    /// guard) from `caller`'s context, as an edge would: only a
    /// **unique** resolution names a target.
    pub fn resolve(&self, caller: usize, callee: &Callee) -> Option<usize> {
        let symbols = &self.files[self.nodes[caller].file];
        resolve(callee, &self.nodes[caller], symbols, &self.index)
    }

    /// A short human label for a node: `crate::Type::name` or
    /// `crate::name`.
    pub fn label(&self, node: usize) -> String {
        let n = &self.nodes[node];
        let krate = &self.files[n.file].crate_name;
        match &n.decl.impl_type {
            Some(t) => format!("{krate}::{t}::{}", n.decl.name),
            None => format!("{krate}::{}", n.decl.name),
        }
    }
}

/// Method names so ubiquitous in std that a bare (receiver-less) name
/// match would mostly manufacture false edges. These still resolve via
/// receiver/impl-type matching.
const COMMON_METHODS: [&str; 41] = [
    "new",
    "len",
    "get",
    "get_mut",
    "push",
    "pop",
    "insert",
    "remove",
    "clear",
    "iter",
    "iter_mut",
    "next",
    "clone",
    "into",
    "from",
    "to_owned",
    "to_string",
    "as_str",
    "as_ref",
    "map",
    "and_then",
    "ok",
    "err",
    "is_empty",
    "contains",
    "extend",
    "collect",
    "min",
    "max",
    "clamp",
    "parse",
    "write",
    "read",
    "send",
    "recv",
    "join",
    "lock",
    "drain",
    "entry",
    "flush",
    "wait",
];

/// Path roots that are definitionally outside the workspace.
const EXTERNAL_ROOTS: [&str; 4] = ["std", "core", "alloc", "proc_macro"];

/// Extracts every call site in a block, recursively (closures, nested
/// blocks, macro arguments included).
pub fn call_sites(block: &Block) -> Vec<CallSite<'_>> {
    let mut out = Vec::new();
    walk_block(block, &mut out);
    out
}

fn walk_block<'a>(block: &'a Block, out: &mut Vec<CallSite<'a>>) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    walk_expr(init, out);
                }
                if let Some(b) = &l.else_block {
                    walk_block(b, out);
                }
            }
            Stmt::Expr(e) => walk_expr(e, out),
            Stmt::Item(_) => {}
        }
    }
}

fn walk_expr<'a>(expr: &'a Expr, out: &mut Vec<CallSite<'a>>) {
    match expr {
        Expr::Chain(chain) => {
            let root_path = match &chain.root {
                Root::Path(segments) => Some(segments),
                Root::Grouped(inner) => {
                    walk_expr(inner, out);
                    None
                }
            };
            for (k, step) in chain.steps.iter().enumerate() {
                match step {
                    Step::Call { args, .. } => {
                        if k == 0 {
                            if let Some(path) = root_path {
                                out.push(CallSite {
                                    callee: Callee::Path(path.clone()),
                                    arity: args.len(),
                                    step_of: None,
                                });
                            }
                        }
                        for a in args {
                            walk_expr(a, out);
                        }
                    }
                    Step::Method { name, args, .. } => {
                        let receiver_name = if k == 0 {
                            root_path.and_then(|p| p.last().cloned())
                        } else {
                            None
                        };
                        out.push(CallSite {
                            callee: Callee::Method {
                                receiver: receiver_name,
                                name: name.clone(),
                            },
                            arity: args.len(),
                            step_of: Some((chain, k)),
                        });
                        for a in args {
                            walk_expr(a, out);
                        }
                    }
                    Step::Index(inner, _) => walk_expr(inner, out),
                    Step::Field(_, _) | Step::Try(_) => {}
                }
            }
        }
        Expr::Block(b) => walk_block(b, out),
        Expr::If {
            cond,
            then_block,
            else_branch,
        } => {
            walk_expr(cond, out);
            walk_block(then_block, out);
            if let Some(e) = else_branch {
                walk_expr(e, out);
            }
        }
        Expr::While { cond, body } => {
            walk_expr(cond, out);
            walk_block(body, out);
        }
        Expr::Loop { body } => walk_block(body, out),
        Expr::For { iter, body } => {
            walk_expr(iter, out);
            walk_block(body, out);
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            walk_expr(scrutinee, out);
            for a in arms {
                walk_expr(a, out);
            }
        }
        Expr::Closure { body, .. } => walk_expr(body, out),
        Expr::Macro { args, .. } => {
            for a in args {
                walk_expr(a, out);
            }
        }
        Expr::Group(children) => {
            for c in children {
                walk_expr(c, out);
            }
        }
        Expr::Lit(_) | Expr::Unit(_) => {}
    }
}

/// Builds the workspace call graph from per-file ASTs.
pub fn build<'a>(inputs: &[GraphFile<'a>]) -> CallGraph<'a> {
    let mut nodes: Vec<Node<'a>> = Vec::new();
    let mut files: Vec<FileSymbols> = Vec::with_capacity(inputs.len());
    for (fi, input) in inputs.iter().enumerate() {
        let (symbols, bodies) = symbols::collect(input.ctx, input.ast, input.test_ranges);
        for (decl, f) in symbols.fns.iter().zip(&bodies) {
            nodes.push(Node {
                file: fi,
                decl: decl.clone(),
                body: f.body.as_ref(),
            });
        }
        files.push(symbols);
    }

    let index = Indexes::new(&nodes, &files);
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (node, out) in nodes.iter().zip(&mut edges) {
        let Some(body) = node.body else { continue };
        let symbols = &files[node.file];
        for site in call_sites(body) {
            if let Some(to) = resolve(&site.callee, node, symbols, &index) {
                if !out.contains(&to) {
                    out.push(to);
                }
            }
        }
    }

    CallGraph {
        nodes,
        edges,
        files,
        index,
    }
}

/// Secondary indexes over the node list.
struct Indexes {
    /// crate name → exists.
    crates: Vec<String>,
    /// fn name → nodes.
    by_name: BTreeMap<String, Vec<usize>>,
    /// (crate, module, name) → nodes (free functions only).
    by_module: BTreeMap<(String, Vec<String>, String), Vec<usize>>,
    /// (crate, impl type, name) → nodes.
    by_crate_impl: BTreeMap<(String, String, String), Vec<usize>>,
    /// (impl type, name) → nodes, workspace-wide.
    by_impl: BTreeMap<(String, String), Vec<usize>>,
}

impl Indexes {
    fn new(nodes: &[Node<'_>], files: &[FileSymbols]) -> Indexes {
        let mut crates: Vec<String> = files.iter().map(|f| f.crate_name.clone()).collect();
        crates.sort();
        crates.dedup();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_module: BTreeMap<(String, Vec<String>, String), Vec<usize>> = BTreeMap::new();
        let mut by_crate_impl: BTreeMap<(String, String, String), Vec<usize>> = BTreeMap::new();
        let mut by_impl: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            let krate = files[node.file].crate_name.clone();
            by_name.entry(node.decl.name.clone()).or_default().push(i);
            match &node.decl.impl_type {
                Some(t) => {
                    by_crate_impl
                        .entry((krate.clone(), t.clone(), node.decl.name.clone()))
                        .or_default()
                        .push(i);
                    by_impl
                        .entry((t.clone(), node.decl.name.clone()))
                        .or_default()
                        .push(i);
                }
                None => {
                    by_module
                        .entry((krate, node.decl.module.clone(), node.decl.name.clone()))
                        .or_default()
                        .push(i);
                }
            }
        }
        Indexes {
            crates,
            by_name,
            by_module,
            by_crate_impl,
            by_impl,
        }
    }

    fn is_workspace_crate(&self, name: &str) -> bool {
        self.crates.iter().any(|c| c == name)
    }
}

/// Maps an import-path crate segment (`jouppi_core`, `jouppi`) to the
/// crate directory name the policy layer uses (`core`, `jouppi`).
fn crate_of_segment(seg: &str, index: &Indexes) -> Option<String> {
    if seg == "jouppi" && index.is_workspace_crate("jouppi") {
        return Some("jouppi".to_owned());
    }
    let dir = seg.strip_prefix("jouppi_")?;
    index.is_workspace_crate(dir).then(|| dir.to_owned())
}

fn resolve(
    callee: &Callee,
    caller: &Node<'_>,
    symbols: &FileSymbols,
    index: &Indexes,
) -> Option<usize> {
    match callee {
        Callee::Path(path) => resolve_path(path, caller, symbols, index),
        Callee::Method { receiver, name } => {
            resolve_method(receiver.as_deref(), name, caller, symbols, index)
        }
    }
}

fn resolve_path(
    path: &[String],
    caller: &Node<'_>,
    symbols: &FileSymbols,
    index: &Indexes,
) -> Option<usize> {
    // Splice a leading import alias: `Json::parse` + `use crate::json::Json`
    // → `crate::json::Json::parse`.
    let mut full: Vec<String> = match symbols.imports.get(path.first()?) {
        Some(target) => target.iter().chain(path.iter().skip(1)).cloned().collect(),
        None => path.to_vec(),
    };

    // Normalize the crate prefix.
    let mut krate = symbols.crate_name.clone();
    let mut module_base: Option<Vec<String>> = None;
    loop {
        let first = full.first().cloned()?;
        match first.as_str() {
            "crate" => {
                full.remove(0);
                module_base = Some(Vec::new());
            }
            "self" => {
                full.remove(0);
                module_base = Some(symbols.module.clone());
            }
            "super" => {
                full.remove(0);
                let mut m = module_base.take().unwrap_or_else(|| symbols.module.clone());
                m.pop();
                module_base = Some(m);
                continue; // repeated `super::super::…`
            }
            s if EXTERNAL_ROOTS.contains(&s) => return None,
            s => {
                if let Some(c) = crate_of_segment(s, index) {
                    full.remove(0);
                    krate = c;
                    module_base = Some(Vec::new());
                }
            }
        }
        break;
    }
    let name = full.last().cloned()?;
    let prefix: Vec<String> = match &module_base {
        Some(base) => base
            .iter()
            .chain(full[..full.len() - 1].iter())
            .cloned()
            .collect(),
        None => full[..full.len() - 1].to_vec(),
    };

    // (a) Free function at the exact module path.
    if let Some(nodes) = index
        .by_module
        .get(&(krate.clone(), prefix.clone(), name.clone()))
    {
        return unique(nodes);
    }
    // Bare single-segment call: a sibling in the caller's own module.
    if full.len() == 1 && module_base.is_none() {
        if let Some(nodes) =
            index
                .by_module
                .get(&(krate.clone(), caller.decl.module.clone(), name.clone()))
        {
            return unique(nodes);
        }
        // …or at the crate root (`use`-free sibling module call can't
        // reach here, but crate-root helpers are common).
        if let Some(nodes) = index
            .by_module
            .get(&(krate.clone(), Vec::new(), name.clone()))
        {
            return unique(nodes);
        }
    }
    // (b) `Type::method`: the second-to-last segment as an impl type.
    if let Some(ty) = full.len().checked_sub(2).map(|k| full[k].clone()) {
        if ty.chars().next().is_some_and(char::is_uppercase) {
            if let Some(nodes) = index
                .by_crate_impl
                .get(&(krate.clone(), ty.clone(), name.clone()))
            {
                return unique(nodes);
            }
            if let Some(nodes) = index.by_impl.get(&(ty, name.clone())) {
                return unique(nodes);
            }
        }
    }
    // (c) Workspace-wide bare-name fallback, single-segment sites only —
    // a dotted external path (`io::stdout()`) must not name-match.
    if path.len() == 1 {
        if let Some(nodes) = index.by_name.get(&name) {
            return unique(nodes);
        }
    }
    None
}

fn resolve_method(
    receiver: Option<&str>,
    name: &str,
    caller: &Node<'_>,
    symbols: &FileSymbols,
    index: &Indexes,
) -> Option<usize> {
    // `self.method()` prefers the enclosing impl block's type.
    if receiver == Some("self") {
        if let Some(ty) = &caller.decl.impl_type {
            if let Some(nodes) =
                index
                    .by_crate_impl
                    .get(&(symbols.crate_name.clone(), ty.clone(), name.to_owned()))
            {
                return unique(nodes);
            }
            if let Some(nodes) = index.by_impl.get(&(ty.clone(), name.to_owned())) {
                return unique(nodes);
            }
        }
    } else if let Some(recv) = receiver {
        // Receiver-name heuristic against impl self-types.
        let mut candidates: Vec<usize> = Vec::new();
        for ((ty, fn_name), nodes) in &index.by_impl {
            if fn_name == name && receiver_matches(recv, ty) {
                candidates.extend(nodes.iter().copied());
            }
        }
        if !candidates.is_empty() {
            // Prefer same-crate candidates when they narrow the set.
            let same_crate: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| {
                    index
                        .by_crate_impl
                        .iter()
                        .any(|((c, _, _), nodes)| c == &symbols.crate_name && nodes.contains(&i))
                })
                .collect();
            let pick = if !same_crate.is_empty() {
                same_crate
            } else {
                candidates
            };
            return unique(&pick);
        }
    }
    // Bare-name fallback, unless the name is a ubiquitous std method.
    if COMMON_METHODS.contains(&name) {
        return None;
    }
    match index.by_name.get(name) {
        Some(nodes) => unique(nodes),
        None => None,
    }
}

/// Whether receiver identifier `recv` plausibly names a value of type
/// `ty`: `queue` matches `JobQueue` (`job_queue`), `cache` matches
/// `AugmentedCache` (`augmented_cache`), exact snake match always.
fn receiver_matches(recv: &str, ty: &str) -> bool {
    let snake = symbols::snake_case(ty);
    recv == snake || snake.ends_with(&format!("_{recv}")) || recv.ends_with(&format!("_{snake}"))
}

/// The one candidate, when there is exactly one: a name with several
/// candidates stays unresolved.
fn unique(nodes: &[usize]) -> Option<usize> {
    match nodes {
        [one] => Some(*one),
        _ => None,
    }
}

/// Reverse reachability over the edges, for "does this callee
/// transitively block?". `is_seed[i]` marks node `i` as a seed; the
/// result holds, for every node from which a seed is reachable, the
/// nearest such seed (a seed is its own), and `None` for every other
/// node.
pub fn reaches_backward(graph: &CallGraph<'_>, is_seed: &[bool]) -> Vec<Option<usize>> {
    let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); graph.nodes.len()];
    for (from, edges) in graph.edges.iter().enumerate() {
        for &to in edges {
            reverse[to].push(from);
        }
    }
    let mut nearest: Vec<Option<usize>> = (0..is_seed.len())
        .map(|i| is_seed[i].then_some(i))
        .collect();
    let mut queue: VecDeque<usize> = (0..is_seed.len()).filter(|&i| is_seed[i]).collect();
    while let Some(n) = queue.pop_front() {
        for &p in &reverse[n] {
            if nearest[p].is_none() {
                nearest[p] = nearest[n];
                queue.push_back(p);
            }
        }
    }
    nearest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::policy::classify;

    /// Builds a graph from (rel_path, src) pairs.
    fn graph_of<'a>(asts: &'a [(String, Ast)]) -> CallGraph<'a> {
        let ctxs: Vec<FileContext> = asts
            .iter()
            .map(|(p, _)| classify(p).expect("classifiable"))
            .collect();
        // Leak the contexts for the test's lifetime simplicity.
        let ctxs: &'static [FileContext] = Box::leak(ctxs.into_boxed_slice());
        let inputs: Vec<GraphFile<'a>> = asts
            .iter()
            .zip(ctxs.iter())
            .map(|((_, ast), ctx)| GraphFile {
                ctx,
                ast,
                test_ranges: &[],
            })
            .collect();
        build(&inputs)
    }

    fn parsed(files: &[(&str, &str)]) -> Vec<(String, Ast)> {
        files
            .iter()
            .map(|(p, s)| ((*p).to_owned(), parse(&lex(s))))
            .collect()
    }

    fn node_named(g: &CallGraph<'_>, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.decl.name == name)
            .unwrap_or_else(|| panic!("node {name}"))
    }

    fn has_edge(g: &CallGraph<'_>, from: &str, to: &str) -> bool {
        g.edges[node_named(g, from)].contains(&node_named(g, to))
    }

    #[test]
    fn same_file_and_cross_module_path_calls_resolve() {
        let asts = parsed(&[
            (
                "crates/serve/src/routes.rs",
                "use crate::sim;\nfn route() { helper(); sim::simulate(); }\nfn helper() {}\n",
            ),
            ("crates/serve/src/sim.rs", "pub fn simulate() {}\n"),
        ]);
        let g = graph_of(&asts);
        assert!(has_edge(&g, "route", "helper"));
        assert!(has_edge(&g, "route", "simulate"));
    }

    #[test]
    fn cross_crate_paths_resolve_via_jouppi_prefix() {
        let asts = parsed(&[
            (
                "crates/serve/src/sim.rs",
                "use jouppi_core::AugmentedCache;\n\
                 fn simulate() { let c = AugmentedCache::new(); jouppi_core::replay(); }\n",
            ),
            (
                "crates/core/src/lib.rs",
                "pub fn replay() {}\n\
                 pub struct AugmentedCache;\n\
                 impl AugmentedCache { pub fn new() -> Self { AugmentedCache } }\n",
            ),
        ]);
        let g = graph_of(&asts);
        assert!(has_edge(&g, "simulate", "replay"));
        assert!(has_edge(&g, "simulate", "new"));
    }

    #[test]
    fn method_calls_resolve_by_receiver_name() {
        let asts = parsed(&[(
            "crates/serve/src/queue.rs",
            "pub struct JobQueue;\n\
             impl JobQueue {\n\
                 pub fn admit(&self) { self.evict(); }\n\
                 fn evict(&self) {}\n\
             }\n\
             fn drive(queue: &JobQueue) { queue.admit(); }\n",
        )]);
        let g = graph_of(&asts);
        assert!(has_edge(&g, "admit", "evict")); // self.method()
        assert!(has_edge(&g, "drive", "admit")); // receiver heuristic
    }

    #[test]
    fn multi_candidate_name_match_is_ambiguous() {
        let asts = parsed(&[
            (
                "crates/serve/src/a.rs",
                "fn caller(x: &X) { x.refresh(); }\n",
            ),
            (
                "crates/serve/src/b.rs",
                "struct B; impl B { fn refresh(&self) {} }\n",
            ),
            (
                "crates/core/src/c.rs",
                "struct C; impl C { fn refresh(&self) {} }\n",
            ),
        ]);
        let g = graph_of(&asts);
        let caller = node_named(&g, "caller");
        assert!(
            g.edges[caller].is_empty(),
            "two refresh candidates: the site stays unresolved"
        );
    }

    #[test]
    fn common_std_method_names_do_not_name_match() {
        let asts = parsed(&[
            (
                "crates/serve/src/a.rs",
                "fn caller(v: &mut Vec<u8>) { v.push(1); }\n",
            ),
            (
                "crates/serve/src/b.rs",
                "struct Stack; impl Stack { fn push(&mut self, b: u8) {} }\n",
            ),
        ]);
        let g = graph_of(&asts);
        let caller = node_named(&g, "caller");
        assert!(
            g.edges[caller].is_empty(),
            "`v.push` must not edge to Stack::push by bare name"
        );
    }

    #[test]
    fn reachability_follows_resolved_edges_only() {
        // `caller`'s `x.refresh()` has two candidates, so it resolves to
        // no edge and `caller` reaches nothing.
        let asts = parsed(&[
            (
                "crates/serve/src/a.rs",
                "fn entry() { step(); }\n\
                 fn step() { leaf(); }\n\
                 fn leaf() {}\n\
                 fn island() {}\n\
                 fn caller(x: &X) { x.refresh(); }\n",
            ),
            (
                "crates/serve/src/b.rs",
                "struct B; impl B { fn refresh(&self) { leaf(); } }\n",
            ),
            (
                "crates/core/src/c.rs",
                "struct C; impl C { fn refresh(&self) {} }\n",
            ),
        ]);
        let g = graph_of(&asts);
        let mut seeds = vec![false; g.nodes.len()];
        seeds[node_named(&g, "leaf")] = true;
        let reaches = reaches_backward(&g, &seeds);
        assert!(reaches[node_named(&g, "entry")].is_some());
        assert!(reaches[node_named(&g, "step")].is_some());
        assert!(reaches[node_named(&g, "island")].is_none());
        assert!(reaches[node_named(&g, "caller")].is_none());
    }

    #[test]
    fn backward_reachability_finds_transitive_callers() {
        let asts = parsed(&[(
            "crates/serve/src/a.rs",
            "fn top() { mid(); }\nfn mid() { blocker(); }\nfn blocker() {}\nfn other() {}\n",
        )]);
        let g = graph_of(&asts);
        let blocker = node_named(&g, "blocker");
        let mut seeds = vec![false; g.nodes.len()];
        seeds[blocker] = true;
        let reaches = reaches_backward(&g, &seeds);
        // Every caller names the seed it reaches.
        assert_eq!(reaches[node_named(&g, "top")], Some(blocker));
        assert_eq!(reaches[node_named(&g, "mid")], Some(blocker));
        assert_eq!(reaches[blocker], Some(blocker));
        assert_eq!(reaches[node_named(&g, "other")], None);
    }
}
