//! A tolerant recursive-descent parser, just deep enough for the
//! structural analyses.
//!
//! The structural analyses (lock-order, unbounded-growth, the call graph
//! and the lints riding it) need *structure*: which `let` binds what,
//! where a block ends, what a method-call chain's receiver is. This
//! parser recovers exactly that much shape from the lexer's token
//! stream — items, blocks, statements, and expressions — and
//! deliberately nothing more: no types are resolved, no names checked,
//! no macro expanded.
//!
//! Design rules, in order:
//!
//! 1. **Never fail.** Unknown constructs are consumed token-by-token and
//!    folded into opaque [`Expr::Group`] nodes; a malformed region can
//!    only cost local precision, never the whole file.
//! 2. **Always make progress.** Every loop either consumes a token or
//!    returns; pathological input terminates.
//! 3. **Preserve lines.** Every node that an analysis might report on
//!    carries the 1-based source line of its first token.
//!
//! Known, accepted limitations (documented in DESIGN.md §10): macro
//! bodies are re-parsed best-effort as expression lists (non-expression
//! macro grammars degrade to opaque groups); match-arm *patterns* are
//! skipped, so a lock acquired inside a pattern (impossible) or a
//! sub-pattern guard is invisible; turbofish and generic argument lists
//! are skipped, not parsed.

#![expect(
    clippy::while_let_loop,
    reason = "the scanning loops peek, then mutate `self` (bump/recover) mid-body; \
              `while let` would hold the peek borrow across those calls"
)]

use crate::lexer::{Lexed, TokKind, Token};

/// A parsed source file: its top-level items, flattened through
/// containers by [`Ast::functions`].
#[derive(Clone, Debug, Default)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl Ast {
    /// Every function item in the file, at any nesting depth
    /// (free functions, methods in `impl`/`trait` blocks, functions in
    /// inline modules).
    pub fn functions(&self) -> Vec<&FnItem> {
        let mut out = Vec::new();
        collect_fns(&self.items, &mut out);
        out
    }

    /// Every struct item in the file, at any nesting depth.
    pub fn structs(&self) -> Vec<&StructItem> {
        let mut out = Vec::new();
        collect_structs(&self.items, &mut out);
        out
    }

    /// Every `static`/`const` item in the file, at any nesting depth.
    pub fn statics(&self) -> Vec<&StaticItem> {
        let mut out = Vec::new();
        collect_statics(&self.items, &mut out);
        out
    }
}

fn collect_fns<'a>(items: &'a [Item], out: &mut Vec<&'a FnItem>) {
    for item in items {
        match item {
            Item::Fn(f) => {
                out.push(f);
                // Nested fns inside the body are reachable through the
                // body's statements; analyses walk those in place.
            }
            Item::Container { items, .. } => collect_fns(items, out),
            _ => {}
        }
    }
}

fn collect_structs<'a>(items: &'a [Item], out: &mut Vec<&'a StructItem>) {
    for item in items {
        match item {
            Item::Struct(s) => out.push(s),
            Item::Container { items, .. } => collect_structs(items, out),
            _ => {}
        }
    }
}

fn collect_statics<'a>(items: &'a [Item], out: &mut Vec<&'a StaticItem>) {
    for item in items {
        match item {
            Item::Static(s) => out.push(s),
            Item::Container { items, .. } => collect_statics(items, out),
            _ => {}
        }
    }
}

/// One top-level or nested item.
#[derive(Clone, Debug)]
pub enum Item {
    /// A function with a parsed body.
    Fn(FnItem),
    /// A struct with named fields (tuple structs have none).
    Struct(StructItem),
    /// A `static` or `const` with its type and initializer.
    Static(StaticItem),
    /// One import flattened out of a `use` tree.
    Use(UseItem),
    /// An `impl`/`trait`/`mod` block: a transparent container of items.
    Container {
        /// What kind of container this is.
        kind: ContainerKind,
        /// The container's name: the `impl` block's self-type (last
        /// segment of the final type path), or the `trait`/`mod` name.
        name: String,
        /// The items inside the container.
        items: Vec<Item>,
    },
}

/// What kind of item container a [`Item::Container`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContainerKind {
    /// An `impl` block (inherent or trait impl).
    Impl,
    /// A `trait` definition.
    Trait,
    /// An inline `mod` block.
    Mod,
}

/// One import produced by flattening a `use` tree: `use a::{b, c as d};`
/// yields two [`UseItem`]s.
#[derive(Clone, Debug)]
pub struct UseItem {
    /// Full path segments (`["crate", "json", "Json"]`).
    pub path: Vec<String>,
    /// The name the import binds locally: the last path segment, or the
    /// `as` alias. Empty for glob imports.
    pub alias: String,
    /// Whether this is a `::*` glob import.
    pub glob: bool,
    /// Line of the `use` keyword.
    pub line: u32,
}

/// A function item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Parameter names in declaration order (`self` excluded; the first
    /// bound identifier of each pattern parameter).
    pub params: Vec<String>,
    /// Whether the parameter list starts with a `self` receiver.
    pub has_self: bool,
    /// The body; `None` for bodyless trait-method declarations.
    pub body: Option<Block>,
}

/// One named struct field.
#[derive(Clone, Debug)]
pub struct Field {
    /// The field name.
    pub name: String,
    /// The field's type as its identifier words, space-joined
    /// (e.g. `"Mutex Vec ExperimentConfig TraceSet"`). Enough to ask
    /// "does this type mention `Vec`?" without a type grammar.
    pub ty: String,
    /// Line of the field name.
    pub line: u32,
}

/// A struct item and its named fields.
#[derive(Clone, Debug)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// Line of the `struct` keyword.
    pub line: u32,
    /// Named fields (empty for tuple/unit structs).
    pub fields: Vec<Field>,
}

/// A `static` or `const` item.
#[derive(Clone, Debug)]
pub struct StaticItem {
    /// The item's name.
    pub name: String,
    /// The type's identifier words, space-joined (see [`Field::ty`]).
    pub ty: String,
    /// Line of the item keyword.
    pub line: u32,
    /// The initializer expression, when one parsed.
    pub init: Option<Expr>,
}

/// A `{ … }` block of statements.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
    /// Line of the closing `}` (scope end for guard liveness).
    pub end_line: u32,
}

/// One statement.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// A `let` binding.
    Let(LetStmt),
    /// An expression statement (with or without trailing `;`).
    Expr(Expr),
    /// A nested item (`fn`, `struct`, `use`, …) inside a block.
    Item(Item),
}

/// A `let` statement.
#[derive(Clone, Debug)]
pub struct LetStmt {
    /// Lower-case identifiers bound by the pattern (constructor path
    /// segments and keywords excluded).
    pub names: Vec<String>,
    /// The initializer, when present.
    pub init: Option<Expr>,
    /// The `else { … }` block of a let-else, when present.
    pub else_block: Option<Block>,
    /// Line of the `let` keyword.
    pub line: u32,
}

/// An expression, reduced to the shapes the analyses consume.
#[derive(Clone, Debug)]
pub enum Expr {
    /// A postfix chain: root plus `.field` / `.method(…)` / `(…)` /
    /// `[…]` / `?` steps. The workhorse node.
    Chain(Chain),
    /// A block expression.
    Block(Block),
    /// `if` / `if let`, with the else branch (block or chained `if`).
    If {
        /// The condition (the scrutinee, for `if let`).
        cond: Box<Expr>,
        /// The then-block.
        then_block: Block,
        /// `else` branch: a [`Expr::Block`] or a nested [`Expr::If`].
        else_branch: Option<Box<Expr>>,
    },
    /// `while` / `while let`.
    While {
        /// The condition (the scrutinee, for `while let`).
        cond: Box<Expr>,
        /// The loop body.
        body: Block,
    },
    /// `loop { … }`.
    Loop {
        /// The loop body.
        body: Block,
    },
    /// `for pat in iter { … }` (the pattern is not retained).
    For {
        /// The iterated expression.
        iter: Box<Expr>,
        /// The loop body.
        body: Block,
    },
    /// `match scrutinee { … }`; arms carry guards and bodies only.
    Match {
        /// The matched expression.
        scrutinee: Box<Expr>,
        /// One expression per arm: the body, or a group of
        /// `[guard, body]` when the arm has an `if` guard.
        arms: Vec<Expr>,
        /// Line of the match's closing `}` (scrutinee temporaries live
        /// this long).
        end_line: u32,
    },
    /// A closure; parameters are not retained.
    Closure {
        /// The closure body.
        body: Box<Expr>,
        /// Line of the opening `|`.
        line: u32,
    },
    /// A macro invocation with best-effort re-parsed arguments.
    Macro {
        /// The macro name (last path segment, without `!`).
        name: String,
        /// Comma/semicolon-separated argument expressions.
        args: Vec<Expr>,
        /// Line of the macro name.
        line: u32,
    },
    /// Anything structural but opaque: binary operations, tuples,
    /// arrays, struct literals, `return`/`break` operands. Children are
    /// walked; the operator itself is discarded.
    Group(Vec<Expr>),
    /// A literal, number, or lifetime.
    Lit(u32),
    /// `()`, or an elided/empty expression.
    Unit(u32),
}

impl Expr {
    /// The line of the expression's first token.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Chain(c) => c.line,
            Expr::Block(b) => b.stmts.first().map_or(b.end_line, Stmt::line),
            Expr::If { cond, .. } => cond.line(),
            Expr::While { cond, .. } => cond.line(),
            Expr::Loop { body } => body.stmts.first().map_or(body.end_line, Stmt::line),
            Expr::For { iter, .. } => iter.line(),
            Expr::Match { scrutinee, .. } => scrutinee.line(),
            Expr::Closure { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Lit(line)
            | Expr::Unit(line) => *line,
            Expr::Group(children) => children.first().map_or(0, Expr::line),
        }
    }
}

impl Stmt {
    /// The line of the statement's first token.
    pub fn line(&self) -> u32 {
        match self {
            Stmt::Let(l) => l.line,
            Stmt::Expr(e) => e.line(),
            Stmt::Item(Item::Fn(f)) => f.line,
            Stmt::Item(Item::Struct(s)) => s.line,
            Stmt::Item(Item::Static(s)) => s.line,
            Stmt::Item(Item::Use(u)) => u.line,
            Stmt::Item(Item::Container { .. }) => 0,
        }
    }
}

/// A postfix chain: `root.step.step…`.
#[derive(Clone, Debug)]
pub struct Chain {
    /// What the chain starts from.
    pub root: Root,
    /// Postfix steps in application order.
    pub steps: Vec<Step>,
    /// Line of the chain's first token.
    pub line: u32,
}

impl Chain {
    /// The root's path segments, when the root is a plain path.
    pub fn root_path(&self) -> Option<&[String]> {
        match &self.root {
            Root::Path(segments) => Some(segments),
            Root::Grouped(_) => None,
        }
    }
}

/// A chain's starting point.
#[derive(Clone, Debug)]
pub enum Root {
    /// A path: `x`, `self`, `a::b::C`.
    Path(Vec<String>),
    /// A parenthesized/block/macro expression being chained from.
    Grouped(Box<Expr>),
}

/// One postfix step in a chain.
#[derive(Clone, Debug)]
pub enum Step {
    /// `.name` (fields and tuple indices; `.0` becomes `"0"`).
    Field(String, u32),
    /// `.name(args)`, turbofish skipped.
    Method {
        /// The method name.
        name: String,
        /// Parsed argument expressions.
        args: Vec<Expr>,
        /// Line of the method name.
        line: u32,
    },
    /// `(args)` applied to the chain so far (a path call).
    Call {
        /// Parsed argument expressions.
        args: Vec<Expr>,
        /// Line of the opening parenthesis.
        line: u32,
    },
    /// `[index]`.
    Index(Box<Expr>, u32),
    /// `?`.
    Try(u32),
}

/// Parses a lexed file. Infallible: see the module docs.
pub fn parse(lexed: &Lexed) -> Ast {
    let mut p = P {
        t: &lexed.tokens,
        i: 0,
        depth: 0,
    };
    Ast {
        items: p.items(false),
    }
}

/// Maximum expression nesting before the parser degrades to opaque
/// consumption (stack-overflow guard on pathological input).
const MAX_DEPTH: u32 = 160;

struct P<'a> {
    t: &'a [Token],
    i: usize,
    depth: u32,
}

impl<'a> P<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.t.get(self.i)
    }

    fn peek_at(&self, k: usize) -> Option<&'a Token> {
        self.t.get(self.i + k)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let tok = self.t.get(self.i);
        if tok.is_some() {
            self.i += 1;
        }
        tok
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek().is_some_and(|t| t.is_punct(c))
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek().and_then(Token::ident) == Some(s)
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.at_punct(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn line(&self) -> u32 {
        self.peek().or_else(|| self.t.last()).map_or(1, |t| t.line)
    }

    /// Whether the `>` punct at index `k` is really the tail of `->`
    /// (adjacent to a preceding `-`).
    fn is_arrow_tail(&self, k: usize) -> bool {
        k > 0
            && self.t[k].is_punct('>')
            && self.t[k - 1].is_punct('-')
            && self.t[k - 1].pos + 1 == self.t[k].pos
    }

    /// Whether two puncts at `i` and `i+1` are adjacent in the source.
    fn adjacent(&self, a: usize, b: usize) -> bool {
        match (self.t.get(a), self.t.get(b)) {
            (Some(x), Some(y)) => x.pos + 1 == y.pos,
            _ => false,
        }
    }

    // ---------------------------------------------------------------
    // Items
    // ---------------------------------------------------------------

    /// Parses items until end of input (or the container's closing `}`
    /// when `in_container`).
    fn items(&mut self, in_container: bool) -> Vec<Item> {
        let mut items = Vec::new();
        while let Some(tok) = self.peek() {
            if in_container && tok.is_punct('}') {
                break;
            }
            self.skip_attributes();
            let Some(tok) = self.peek() else { break };
            if in_container && tok.is_punct('}') {
                break;
            }
            match tok.ident() {
                Some("pub") => {
                    self.bump();
                    if self.at_punct('(') {
                        self.skip_balanced('(', ')');
                    }
                }
                Some("unsafe" | "async" | "default" | "extern") => {
                    self.bump();
                    // `extern "C"` — the ABI literal rides along.
                    if matches!(self.peek().map(|t| &t.kind), Some(TokKind::Literal)) {
                        self.bump();
                    }
                }
                Some("fn") => items.push(Item::Fn(self.fn_item())),
                Some("struct") => items.push(Item::Struct(self.struct_item())),
                Some("static") => {
                    if let Some(s) = self.static_item() {
                        items.push(Item::Static(s));
                    }
                }
                Some("const") => {
                    // `const fn` is a function; `const NAME: T = …` an item.
                    if self.peek_at(1).and_then(Token::ident) == Some("fn") {
                        self.bump();
                    } else if let Some(s) = self.static_item() {
                        items.push(Item::Static(s));
                    }
                }
                Some("impl" | "trait") => {
                    if let Some(c) = self.container() {
                        items.push(c);
                    }
                }
                Some("mod") => {
                    self.bump();
                    let name = self.bump().and_then(Token::ident).unwrap_or("?").to_owned();
                    if self.eat_punct('{') {
                        let inner = self.items(true);
                        self.eat_punct('}');
                        items.push(Item::Container {
                            kind: ContainerKind::Mod,
                            name,
                            items: inner,
                        });
                    } else {
                        self.eat_punct(';');
                    }
                }
                Some("enum" | "union") => {
                    self.skip_to_body_open();
                    if self.at_punct('{') {
                        self.skip_balanced('{', '}');
                    } else {
                        self.eat_punct(';');
                    }
                }
                Some("use") => {
                    for u in self.use_item() {
                        items.push(Item::Use(u));
                    }
                }
                Some("type") => self.skip_past(';'),
                Some("macro_rules") => {
                    self.bump();
                    self.eat_punct('!');
                    self.bump(); // name
                    if self.at_punct('{') {
                        self.skip_balanced('{', '}');
                    } else {
                        self.skip_past(';');
                    }
                }
                _ => {
                    // Unknown construct at item level: consume one token
                    // and keep going (error recovery).
                    self.bump();
                }
            }
        }
        items
    }

    /// Skips `#[…]` / `#![…]` attribute runs.
    fn skip_attributes(&mut self) {
        while self.at_punct('#') {
            let hash = self.i;
            self.bump();
            self.eat_punct('!');
            if self.at_punct('[') {
                self.skip_balanced('[', ']');
            } else {
                // A stray `#` (not an attribute): restore and bail so the
                // caller's recovery path consumes it.
                self.i = hash;
                break;
            }
        }
    }

    /// Consumes a balanced `open … close` region, including both
    /// delimiters. Counts only the given pair.
    fn skip_balanced(&mut self, open: char, close: char) {
        let mut depth = 0usize;
        while let Some(tok) = self.bump() {
            if tok.is_punct(open) {
                depth += 1;
            } else if tok.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Consumes tokens through the next `c` at bracket depth 0.
    fn skip_past(&mut self, c: char) {
        let mut round = 0i32;
        let mut square = 0i32;
        let mut curly = 0i32;
        while let Some(tok) = self.bump() {
            match tok.kind {
                TokKind::Punct('(') => round += 1,
                TokKind::Punct(')') => round -= 1,
                TokKind::Punct('[') => square += 1,
                TokKind::Punct(']') => square -= 1,
                TokKind::Punct('{') => curly += 1,
                TokKind::Punct('}') => curly -= 1,
                _ => {}
            }
            if tok.is_punct(c) && round <= 0 && square <= 0 && curly <= 0 {
                return;
            }
        }
    }

    /// Skips an item header (generics, bounds, where clause) up to its
    /// body `{` or terminating `;` — whichever comes first at depth 0.
    /// Leaves the `{`/`;` unconsumed.
    fn skip_to_body_open(&mut self) {
        let mut angle = 0i32;
        let mut round = 0i32;
        let mut square = 0i32;
        while let Some(tok) = self.peek() {
            match tok.kind {
                TokKind::Punct('{') | TokKind::Punct(';')
                    if angle <= 0 && round == 0 && square == 0 =>
                {
                    return;
                }
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') if !self.is_arrow_tail(self.i) => angle -= 1,
                TokKind::Punct('(') => round += 1,
                TokKind::Punct(')') => round -= 1,
                TokKind::Punct('[') => square += 1,
                TokKind::Punct(']') => square -= 1,
                _ => {}
            }
            self.bump();
        }
    }

    /// Parses an `impl`/`trait` container with its kind and name (the
    /// `impl` keyword is next). Returns `None` when no body follows.
    fn container(&mut self) -> Option<Item> {
        let is_impl = self.at_ident("impl");
        self.bump(); // `impl` / `trait`
        let (kind, name) = if is_impl {
            if self.at_punct('<') {
                self.skip_generics();
            }
            (ContainerKind::Impl, self.impl_self_type())
        } else {
            let name = self.peek().and_then(Token::ident).unwrap_or("?").to_owned();
            (ContainerKind::Trait, name)
        };
        self.skip_to_body_open();
        if self.eat_punct('{') {
            let inner = self.items(true);
            self.eat_punct('}');
            Some(Item::Container {
                kind,
                name,
                items: inner,
            })
        } else {
            self.eat_punct(';');
            None
        }
    }

    /// Scans ahead (without consuming) to the impl body's `{`/`;` and
    /// returns the self-type name: the last angle-depth-0 identifier of
    /// the final type path. `for` resets the candidate (so `impl Trait
    /// for Type` yields `Type`), `where` stops the scan, and type-syntax
    /// keywords are skipped.
    fn impl_self_type(&self) -> String {
        let mut angle = 0i32;
        let mut round = 0i32;
        let mut square = 0i32;
        let mut name = String::from("?");
        let mut k = self.i;
        while let Some(tok) = self.t.get(k) {
            match &tok.kind {
                TokKind::Punct('{') | TokKind::Punct(';')
                    if angle <= 0 && round == 0 && square == 0 =>
                {
                    break;
                }
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') if !self.is_arrow_tail(k) => angle -= 1,
                TokKind::Punct('(') => round += 1,
                TokKind::Punct(')') => round -= 1,
                TokKind::Punct('[') => square += 1,
                TokKind::Punct(']') => square -= 1,
                TokKind::Ident(word) if angle <= 0 && round == 0 && square == 0 => {
                    match word.as_str() {
                        "where" => break,
                        "for" => name = String::from("?"),
                        "dyn" | "mut" | "const" | "unsafe" | "crate" | "self" | "super" => {}
                        _ => name.clone_from(word),
                    }
                }
                _ => {}
            }
            k += 1;
        }
        name
    }

    /// Parses a `use` item (the `use` keyword is next) into its
    /// flattened imports, consuming through the terminating `;`.
    fn use_item(&mut self) -> Vec<UseItem> {
        let line = self.line();
        self.eat_ident("use");
        let mut out = Vec::new();
        self.use_tree(Vec::new(), line, &mut out);
        self.eat_punct(';');
        out
    }

    /// Parses one branch of a `use` tree starting from `prefix`,
    /// stopping (unconsumed) at `,` / `}` / `;`.
    fn use_tree(&mut self, prefix: Vec<String>, line: u32, out: &mut Vec<UseItem>) {
        let mut path = prefix;
        let start_len = path.len();
        loop {
            let Some(tok) = self.peek() else { break };
            match &tok.kind {
                TokKind::Punct(';' | ',' | '}') => break,
                TokKind::Punct('*') => {
                    self.bump();
                    out.push(UseItem {
                        path,
                        alias: String::new(),
                        glob: true,
                        line,
                    });
                    return;
                }
                TokKind::Punct('{') => {
                    self.bump();
                    while let Some(t) = self.peek() {
                        if t.is_punct('}') {
                            self.bump();
                            break;
                        }
                        if t.is_punct(',') {
                            self.bump();
                            continue;
                        }
                        if t.is_punct(';') {
                            // Unbalanced tree; let the caller's `;` eat it.
                            break;
                        }
                        let before = self.i;
                        self.use_tree(path.clone(), line, out);
                        if self.i == before {
                            self.bump();
                        }
                    }
                    return;
                }
                TokKind::Ident(word) if word == "as" => {
                    self.bump();
                    let alias = self.bump().and_then(Token::ident).unwrap_or("_").to_owned();
                    out.push(UseItem {
                        path,
                        alias,
                        glob: false,
                        line,
                    });
                    return;
                }
                TokKind::Ident(word) => {
                    path.push(word.clone());
                    self.bump();
                }
                TokKind::Punct(':') => {
                    self.bump();
                }
                _ => {
                    // Unknown token in a use tree: consume and bail.
                    self.bump();
                    break;
                }
            }
        }
        if path.len() > start_len {
            // `use a::{self, b}` binds `a` itself for the `self` leaf.
            if path.last().is_some_and(|s| s == "self") {
                path.pop();
            }
            if let Some(last) = path.last() {
                let alias = last.clone();
                out.push(UseItem {
                    path,
                    alias,
                    glob: false,
                    line,
                });
            }
        }
    }

    fn fn_item(&mut self) -> FnItem {
        let line = self.line();
        self.eat_ident("fn");
        let name = self.bump().and_then(Token::ident).unwrap_or("?").to_owned();
        if self.at_punct('<') {
            self.skip_generics();
        }
        let (params, has_self) = if self.at_punct('(') {
            self.fn_params()
        } else {
            (Vec::new(), false)
        };
        self.skip_to_body_open();
        let body = if self.at_punct('{') {
            Some(self.block())
        } else {
            self.eat_punct(';');
            None
        };
        FnItem {
            name,
            line,
            params,
            has_self,
            body,
        }
    }

    /// Parses a parameter list (the `(` is next) into parameter names:
    /// the first bound identifier of each parameter's pattern. Returns
    /// the names and whether the list starts with a `self` receiver.
    fn fn_params(&mut self) -> (Vec<String>, bool) {
        self.eat_punct('(');
        let mut params = Vec::new();
        let mut has_self = false;
        let mut first = true;
        loop {
            if self.at_punct(')') || self.peek().is_none() {
                self.eat_punct(')');
                break;
            }
            let before = self.i;
            let name = self.param_pattern_name();
            if self.eat_punct(':') {
                self.type_words_until(&[',', ')']);
            }
            self.eat_punct(',');
            match name {
                Some(n) if first && n == "self" => has_self = true,
                Some(n) => params.push(n),
                None => {}
            }
            first = false;
            if self.i == before {
                self.bump();
            }
        }
        (params, has_self)
    }

    /// Scans one parameter's pattern up to its `:` / `,` / `)` at depth
    /// 0 (stop unconsumed) and returns the first identifier it binds
    /// (`mut`/`ref` and `_` excluded).
    fn param_pattern_name(&mut self) -> Option<String> {
        let mut round = 0i32;
        let mut square = 0i32;
        let mut curly = 0i32;
        let mut name = None;
        while let Some(tok) = self.peek() {
            if round == 0 && square == 0 && curly == 0 {
                if let TokKind::Punct(c) = tok.kind {
                    if matches!(c, ':' | ',' | ')') {
                        break;
                    }
                }
            }
            match &tok.kind {
                TokKind::Punct('(') => round += 1,
                TokKind::Punct(')') => round -= 1,
                TokKind::Punct('[') => square += 1,
                TokKind::Punct(']') => square -= 1,
                TokKind::Punct('{') => curly += 1,
                TokKind::Punct('}') => curly -= 1,
                TokKind::Ident(word) => {
                    let lower = word
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_lowercase() || c == '_');
                    if name.is_none()
                        && lower
                        && !matches!(word.as_str(), "mut" | "ref" | "box" | "_" | "dyn")
                    {
                        name = Some(word.clone());
                    }
                }
                _ => {}
            }
            self.bump();
        }
        name
    }

    /// Skips a `<…>` generics list, arrow-aware.
    fn skip_generics(&mut self) {
        let mut depth = 0i32;
        while let Some(tok) = self.peek() {
            match tok.kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') if !self.is_arrow_tail(self.i) => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            self.bump();
        }
    }

    fn struct_item(&mut self) -> StructItem {
        let line = self.line();
        self.eat_ident("struct");
        let name = self.bump().and_then(Token::ident).unwrap_or("?").to_owned();
        if self.at_punct('<') {
            self.skip_generics();
        }
        // `where` bounds before the body.
        self.skip_to_body_open();
        let mut fields = Vec::new();
        if self.eat_punct('{') {
            loop {
                self.skip_attributes();
                if self.at_punct('}') || self.peek().is_none() {
                    break;
                }
                if self.eat_ident("pub") && self.at_punct('(') {
                    self.skip_balanced('(', ')');
                }
                let field_line = self.line();
                let Some(fname) = self.bump().and_then(Token::ident) else {
                    continue;
                };
                if !self.eat_punct(':') {
                    continue;
                }
                let ty = self.type_words_until(&[',', '}']);
                fields.push(Field {
                    name: fname.to_owned(),
                    ty,
                    line: field_line,
                });
                self.eat_punct(',');
            }
            self.eat_punct('}');
        } else if self.at_punct('(') {
            self.skip_balanced('(', ')');
            self.eat_punct(';');
        } else {
            self.eat_punct(';');
        }
        StructItem { name, line, fields }
    }

    fn static_item(&mut self) -> Option<StaticItem> {
        let line = self.line();
        self.bump(); // `static` / `const`
        self.eat_ident("mut"); // `static mut` (forbidden by unsafe anyway)
        let name = self.bump().and_then(Token::ident)?.to_owned();
        if !self.eat_punct(':') {
            self.skip_past(';');
            return None;
        }
        let ty = self.type_words_until(&['=', ';']);
        let init = if self.eat_punct('=') {
            Some(self.expr(false))
        } else {
            None
        };
        self.eat_punct(';');
        Some(StaticItem {
            name,
            ty,
            line,
            init,
        })
    }

    /// Collects a type region's identifier words until one of `stops`
    /// appears at bracket depth 0 (angle/round/square aware). Leaves the
    /// stop token unconsumed.
    fn type_words_until(&mut self, stops: &[char]) -> String {
        let mut angle = 0i32;
        let mut round = 0i32;
        let mut square = 0i32;
        let mut words: Vec<&str> = Vec::new();
        while let Some(tok) = self.peek() {
            if angle <= 0 && round == 0 && square == 0 {
                if let TokKind::Punct(c) = tok.kind {
                    if stops.contains(&c) {
                        break;
                    }
                }
            }
            match tok.kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') if !self.is_arrow_tail(self.i) => angle -= 1,
                TokKind::Punct('(') => round += 1,
                TokKind::Punct(')') => round -= 1,
                TokKind::Punct('[') => square += 1,
                TokKind::Punct(']') => square -= 1,
                TokKind::Ident(_) => {
                    if let Some(word) = tok.ident() {
                        words.push(word);
                    }
                }
                _ => {}
            }
            self.bump();
        }
        words.join(" ")
    }

    // ---------------------------------------------------------------
    // Blocks and statements
    // ---------------------------------------------------------------

    /// Parses a `{ … }` block (the `{` must be next).
    fn block(&mut self) -> Block {
        self.eat_punct('{');
        let mut stmts = Vec::new();
        let mut end_line = self.line();
        loop {
            self.skip_attributes();
            let Some(tok) = self.peek() else {
                end_line = self.t.last().map_or(end_line, |t| t.line);
                break;
            };
            if tok.is_punct('}') {
                end_line = tok.line;
                self.bump();
                break;
            }
            if tok.is_punct(';') {
                self.bump();
                continue;
            }
            match tok.ident() {
                Some("let") => stmts.push(Stmt::Let(self.let_stmt())),
                Some("fn") => stmts.push(Stmt::Item(Item::Fn(self.fn_item()))),
                Some("struct") => stmts.push(Stmt::Item(Item::Struct(self.struct_item()))),
                Some("use" | "type") => self.skip_past(';'),
                Some("static") => {
                    if let Some(s) = self.static_item() {
                        stmts.push(Stmt::Item(Item::Static(s)));
                    }
                }
                Some("const") if self.peek_at(1).and_then(Token::ident) != Some("fn") => {
                    if let Some(s) = self.static_item() {
                        stmts.push(Stmt::Item(Item::Static(s)));
                    }
                }
                Some("impl" | "trait" | "mod" | "enum") => {
                    // Items in blocks: reuse the item parser for one item.
                    let before = self.i;
                    let mut inner = self.items_one();
                    stmts.extend(inner.drain(..).map(Stmt::Item));
                    if self.i == before {
                        self.bump();
                    }
                }
                _ => {
                    let expr = self.expr(false);
                    self.eat_punct(';');
                    stmts.push(Stmt::Expr(expr));
                }
            }
        }
        Block { stmts, end_line }
    }

    /// Parses at most one item (used for items embedded in blocks).
    fn items_one(&mut self) -> Vec<Item> {
        // The generic item loop, bounded to one iteration's worth of
        // progress: delegate and trim.
        let Some(tok) = self.peek() else {
            return Vec::new();
        };
        match tok.ident() {
            Some("impl" | "trait") => self.container().into_iter().collect(),
            Some("mod") => {
                self.bump();
                let name = self.bump().and_then(Token::ident).unwrap_or("?").to_owned();
                if self.eat_punct('{') {
                    let inner = self.items(true);
                    self.eat_punct('}');
                    return vec![Item::Container {
                        kind: ContainerKind::Mod,
                        name,
                        items: inner,
                    }];
                }
                self.eat_punct(';');
                Vec::new()
            }
            Some("enum") => {
                self.skip_to_body_open();
                if self.at_punct('{') {
                    self.skip_balanced('{', '}');
                } else {
                    self.eat_punct(';');
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn let_stmt(&mut self) -> LetStmt {
        let line = self.line();
        self.eat_ident("let");
        let names = self.pattern_names(&['=', ':', ';']);
        if self.eat_punct(':') {
            self.type_words_until(&['=', ';']);
        }
        let init = if self.eat_punct('=') {
            Some(self.expr(false))
        } else {
            None
        };
        let else_block = if self.at_ident("else") {
            self.bump();
            if self.at_punct('{') {
                Some(self.block())
            } else {
                None
            }
        } else {
            None
        };
        self.eat_punct(';');
        LetStmt {
            names,
            init,
            else_block,
            line,
        }
    }

    /// Collects the names a pattern binds, consuming tokens until one of
    /// `stops` at bracket depth 0 (the stop is left unconsumed). Returns
    /// the bound lower-case names.
    fn pattern_names(&mut self, stops: &[char]) -> Vec<String> {
        let mut names = Vec::new();
        let mut round = 0i32;
        let mut square = 0i32;
        let mut curly = 0i32;
        while let Some(tok) = self.peek() {
            if round == 0 && square == 0 && curly == 0 {
                if let TokKind::Punct(c) = tok.kind {
                    if stops.contains(&c) {
                        break;
                    }
                }
            }
            match &tok.kind {
                TokKind::Punct('(') => round += 1,
                TokKind::Punct(')') => round -= 1,
                TokKind::Punct('[') => square += 1,
                TokKind::Punct(']') => square -= 1,
                TokKind::Punct('{') => curly += 1,
                TokKind::Punct('}') => curly -= 1,
                TokKind::Ident(word) => {
                    let lower_start = word
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_lowercase() || c == '_');
                    let keyword = matches!(word.as_str(), "mut" | "ref" | "box" | "_");
                    // A lower-case ident followed by `::` or `(` is a
                    // path/constructor, not a binding.
                    let next = self.peek_at(1);
                    let path_like = next.is_some_and(|n| n.is_punct(':') || n.is_punct('('));
                    if lower_start && !keyword && !path_like {
                        names.push(word.clone());
                    }
                }
                _ => {}
            }
            self.bump();
        }
        names
    }

    // ---------------------------------------------------------------
    // Expressions
    // ---------------------------------------------------------------

    /// Parses one expression. `no_struct` suppresses struct-literal
    /// parsing (condition/scrutinee positions, where `{` opens a body).
    fn expr(&mut self, no_struct: bool) -> Expr {
        if self.depth >= MAX_DEPTH {
            // Degrade: consume one token so callers keep making progress.
            let line = self.line();
            self.bump();
            return Expr::Unit(line);
        }
        self.depth += 1;
        let result = self.expr_inner(no_struct);
        self.depth -= 1;
        result
    }

    fn expr_inner(&mut self, no_struct: bool) -> Expr {
        let first = self.unary(no_struct);
        let mut parts = vec![first];
        loop {
            let Some(tok) = self.peek() else { break };
            match tok.kind {
                // Range `..` / `..=`: consume, then parse the (optional)
                // right side.
                TokKind::Punct('.')
                    if self.peek_at(1).is_some_and(|n| n.is_punct('.'))
                        && self.adjacent(self.i, self.i + 1) =>
                {
                    self.bump();
                    self.bump();
                    self.eat_punct('=');
                    if self.expr_continues(no_struct) {
                        parts.push(self.unary(no_struct));
                    }
                }
                TokKind::Punct('+' | '-' | '*' | '/' | '%' | '^' | '|' | '&' | '<' | '>' | '=') => {
                    self.bump();
                    // Swallow compound-operator tails (`==`, `+=`, `<<`,
                    // `&&`, …).
                    while self.peek().is_some_and(|t| {
                        matches!(t.kind, TokKind::Punct('=' | '<' | '>' | '&' | '|'))
                    }) && self.adjacent(self.i - 1, self.i)
                    {
                        self.bump();
                    }
                    if self.expr_continues(no_struct) {
                        parts.push(self.unary(no_struct));
                    }
                }
                TokKind::Punct('!')
                    if self.peek_at(1).is_some_and(|n| n.is_punct('='))
                        && self.adjacent(self.i, self.i + 1) =>
                {
                    self.bump();
                    self.bump();
                    parts.push(self.unary(no_struct));
                }
                _ => break,
            }
        }
        if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            Expr::Group(parts)
        }
    }

    /// Whether another operand plausibly follows (not a terminator).
    fn expr_continues(&self, no_struct: bool) -> bool {
        match self.peek() {
            None => false,
            Some(tok) => match tok.kind {
                TokKind::Punct(';' | ',' | ')' | ']' | '}') => false,
                TokKind::Punct('{') => !no_struct,
                _ => true,
            },
        }
    }

    /// Prefix operators, then a postfix chain, then `as` casts.
    fn unary(&mut self, no_struct: bool) -> Expr {
        // Prefix: `& && * ! -` (fold — analyses don't care).
        while let Some(tok) = self.peek() {
            match tok.kind {
                TokKind::Punct('&' | '*' | '!' | '-') => {
                    self.bump();
                    self.eat_ident("mut");
                }
                _ => break,
            }
        }
        let expr = self.postfix(no_struct);
        // `as Ty` changes nothing the analyses track: keep the operand.
        while self.at_ident("as") {
            self.bump();
            self.skip_cast_type();
        }
        expr
    }

    /// Consumes the target type of an `as` cast: a path with optional
    /// generics.
    fn skip_cast_type(&mut self) {
        while self.peek().and_then(Token::ident).is_some() {
            self.bump();
            if self.at_punct('<') {
                self.skip_generics();
            }
            if self.at_punct(':') && self.peek_at(1).is_some_and(|t| t.is_punct(':')) {
                self.bump();
                self.bump();
            } else {
                break;
            }
        }
    }

    fn postfix(&mut self, no_struct: bool) -> Expr {
        let line = self.line();
        let primary = self.primary(no_struct);
        // Only chains continue with postfix steps; control-flow and
        // literal primaries are returned as-is (`.await`-style chaining
        // off a block is rare and safely ignored).
        let root = match primary {
            Expr::Chain(chain) => return self.chain_steps(chain),
            Expr::Macro { .. } | Expr::Group(_) | Expr::Unit(_)
                if self.at_punct('.') || self.at_punct('?') =>
            {
                Root::Grouped(Box::new(primary))
            }
            other => return other,
        };
        self.chain_steps(Chain {
            root,
            steps: Vec::new(),
            line,
        })
    }

    /// Applies postfix steps to a chain until none remain.
    fn chain_steps(&mut self, mut chain: Chain) -> Expr {
        loop {
            let Some(tok) = self.peek() else { break };
            match tok.kind {
                TokKind::Punct('?') => {
                    chain.steps.push(Step::Try(tok.line));
                    self.bump();
                }
                TokKind::Punct('(') => {
                    let line = tok.line;
                    let args = self.paren_args();
                    chain.steps.push(Step::Call { args, line });
                }
                TokKind::Punct('[') => {
                    let line = tok.line;
                    self.bump();
                    let index = if self.at_punct(']') {
                        Expr::Unit(line)
                    } else {
                        self.expr(false)
                    };
                    // Tolerate `[a; b]`-style contents.
                    while !self.at_punct(']') && self.peek().is_some() {
                        self.bump();
                    }
                    self.eat_punct(']');
                    chain.steps.push(Step::Index(Box::new(index), line));
                }
                TokKind::Punct('.') => {
                    // Range `..` ends the chain.
                    if self.peek_at(1).is_some_and(|n| n.is_punct('.'))
                        && self.adjacent(self.i, self.i + 1)
                    {
                        break;
                    }
                    self.bump();
                    match self.peek().map(|t| t.kind.clone()) {
                        Some(TokKind::Ident(name)) => {
                            let line = self.line();
                            self.bump();
                            // Method turbofish: `.collect::<…>()`.
                            if self.at_punct(':')
                                && self.peek_at(1).is_some_and(|t| t.is_punct(':'))
                            {
                                self.bump();
                                self.bump();
                                if self.at_punct('<') {
                                    self.skip_generics();
                                }
                            }
                            if self.at_punct('(') {
                                let args = self.paren_args();
                                chain.steps.push(Step::Method { name, args, line });
                            } else {
                                chain.steps.push(Step::Field(name, line));
                            }
                        }
                        Some(TokKind::Num) => {
                            let line = self.line();
                            self.bump();
                            chain.steps.push(Step::Field("#tuple".to_owned(), line));
                        }
                        _ => break,
                    }
                }
                _ => break,
            }
        }
        Expr::Chain(chain)
    }

    /// Parses a parenthesized, comma-separated argument list (the `(`
    /// must be next); consumes through the matching `)`.
    fn paren_args(&mut self) -> Vec<Expr> {
        self.eat_punct('(');
        let mut args = Vec::new();
        loop {
            match self.peek() {
                None => break,
                Some(tok) if tok.is_punct(')') => {
                    self.bump();
                    break;
                }
                Some(tok) if tok.is_punct(',') => {
                    self.bump();
                }
                Some(_) => {
                    let before = self.i;
                    args.push(self.expr(false));
                    if self.i == before {
                        self.bump();
                    }
                }
            }
        }
        args
    }

    fn primary(&mut self, no_struct: bool) -> Expr {
        let line = self.line();
        let Some(tok) = self.peek() else {
            return Expr::Unit(line);
        };
        match &tok.kind {
            TokKind::Literal | TokKind::Num | TokKind::Lifetime => {
                self.bump();
                Expr::Lit(line)
            }
            TokKind::Punct('{') => Expr::Block(self.block()),
            TokKind::Punct('(') => {
                let args = self.paren_args();
                match args.len() {
                    0 => Expr::Unit(line),
                    1 => {
                        let inner = args.into_iter().next().expect("one arg");
                        Expr::Chain(Chain {
                            root: Root::Grouped(Box::new(inner)),
                            steps: Vec::new(),
                            line,
                        })
                    }
                    _ => Expr::Group(args),
                }
            }
            TokKind::Punct('[') => {
                self.bump();
                let mut items = Vec::new();
                loop {
                    match self.peek() {
                        None => break,
                        Some(t) if t.is_punct(']') => {
                            self.bump();
                            break;
                        }
                        Some(t) if t.is_punct(',') || t.is_punct(';') => {
                            self.bump();
                        }
                        Some(_) => {
                            let before = self.i;
                            items.push(self.expr(false));
                            if self.i == before {
                                self.bump();
                            }
                        }
                    }
                }
                Expr::Group(items)
            }
            TokKind::Punct('|') => self.closure(line),
            TokKind::Punct(_) => {
                // Unknown punctuation in expression position: consume it
                // (recovery) and try again via Unit.
                self.bump();
                Expr::Unit(line)
            }
            TokKind::Ident(word) => match word.as_str() {
                "move" => {
                    self.bump();
                    if self.at_punct('|') {
                        self.closure(line)
                    } else {
                        Expr::Unit(line)
                    }
                }
                "if" => self.if_expr(),
                "while" => {
                    self.bump();
                    let cond = self.condition();
                    let body = self.block_or_empty();
                    Expr::While {
                        cond: Box::new(cond),
                        body,
                    }
                }
                "loop" => {
                    self.bump();
                    Expr::Loop {
                        body: self.block_or_empty(),
                    }
                }
                "for" => {
                    self.bump();
                    // Skip the pattern to `in` at depth 0.
                    let mut round = 0i32;
                    while let Some(t) = self.peek() {
                        if round == 0 && t.ident() == Some("in") {
                            break;
                        }
                        if t.is_punct('(') {
                            round += 1;
                        } else if t.is_punct(')') {
                            round -= 1;
                        }
                        self.bump();
                    }
                    self.eat_ident("in");
                    let iter = self.expr(true);
                    let body = self.block_or_empty();
                    Expr::For {
                        iter: Box::new(iter),
                        body,
                    }
                }
                "match" => self.match_expr(),
                "unsafe" | "async" => {
                    self.bump();
                    if self.at_punct('{') {
                        Expr::Block(self.block())
                    } else {
                        Expr::Unit(line)
                    }
                }
                "return" | "break" | "continue" | "yield" => {
                    self.bump();
                    // `break 'label`:
                    if matches!(self.peek().map(|t| &t.kind), Some(TokKind::Lifetime)) {
                        self.bump();
                    }
                    if self.expr_continues(no_struct) {
                        Expr::Group(vec![self.expr(no_struct)])
                    } else {
                        Expr::Unit(line)
                    }
                }
                "let" => {
                    // `let` in expression position (inside `if let`
                    // chains handled by condition(); this is recovery).
                    self.bump();
                    self.pattern_names(&['=', ';', ')', '{']);
                    if self.eat_punct('=') {
                        self.expr(true)
                    } else {
                        Expr::Unit(line)
                    }
                }
                _ => self.path_expr(no_struct),
            },
        }
    }

    fn closure(&mut self, line: u32) -> Expr {
        // `|params|` or `||`.
        self.eat_punct('|');
        if !self.at_punct('|') || !self.adjacent(self.i - 1, self.i) {
            // Non-empty parameter list: skip to the closing `|` at
            // bracket depth 0 (types may contain angles).
            let mut angle = 0i32;
            let mut round = 0i32;
            let mut square = 0i32;
            while let Some(tok) = self.peek() {
                match tok.kind {
                    TokKind::Punct('|') if angle <= 0 && round == 0 && square == 0 => break,
                    TokKind::Punct('<') => angle += 1,
                    TokKind::Punct('>') if !self.is_arrow_tail(self.i) => angle -= 1,
                    TokKind::Punct('(') => round += 1,
                    TokKind::Punct(')') => round -= 1,
                    TokKind::Punct('[') => square += 1,
                    TokKind::Punct(']') => square -= 1,
                    _ => {}
                }
                self.bump();
            }
        }
        self.eat_punct('|');
        // Optional `-> Type` before a braced body.
        if self.at_punct('-') && self.peek_at(1).is_some_and(|t| t.is_punct('>')) {
            self.bump();
            self.bump();
            self.type_words_until(&['{']);
        }
        let body = self.expr(false);
        Expr::Closure {
            body: Box::new(body),
            line,
        }
    }

    fn if_expr(&mut self) -> Expr {
        self.eat_ident("if");
        let cond = self.condition();
        let then_block = self.block_or_empty();
        let else_branch = if self.at_ident("else") {
            self.bump();
            if self.at_ident("if") {
                Some(Box::new(self.if_expr()))
            } else if self.at_punct('{') {
                Some(Box::new(Expr::Block(self.block())))
            } else {
                None
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            then_block,
            else_branch,
        }
    }

    /// An `if`/`while` condition: handles the `let PAT = scrutinee`
    /// form, returning the scrutinee (what matters for guard tracking).
    fn condition(&mut self) -> Expr {
        if self.at_ident("let") {
            self.bump();
            self.pattern_names(&['=']);
            self.eat_punct('=');
        }
        self.expr(true)
    }

    fn block_or_empty(&mut self) -> Block {
        if self.at_punct('{') {
            self.block()
        } else {
            Block::default()
        }
    }

    fn match_expr(&mut self) -> Expr {
        self.eat_ident("match");
        let scrutinee = self.expr(true);
        let mut arms = Vec::new();
        let mut end_line = self.line();
        if self.eat_punct('{') {
            loop {
                self.skip_attributes();
                let Some(tok) = self.peek() else { break };
                if tok.is_punct('}') {
                    end_line = tok.line;
                    self.bump();
                    break;
                }
                if tok.is_punct(',') {
                    self.bump();
                    continue;
                }
                // Skip the arm pattern to its `=>` (or a depth-0 `if`
                // guard, which we parse as an expression).
                let guard = self.skip_arm_pattern();
                self.eat_punct('=');
                self.eat_punct('>');
                let body = self.expr(false);
                arms.push(match guard {
                    Some(guard) => Expr::Group(vec![guard, body]),
                    None => body,
                });
            }
        }
        Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
            end_line,
        }
    }

    /// Consumes a match-arm pattern up to (not including) its `=>`;
    /// parses and returns a depth-0 `if` guard when present.
    fn skip_arm_pattern(&mut self) -> Option<Expr> {
        let mut round = 0i32;
        let mut square = 0i32;
        let mut curly = 0i32;
        while let Some(tok) = self.peek() {
            if round == 0 && square == 0 && curly == 0 {
                if tok.is_punct('=')
                    && self.peek_at(1).is_some_and(|n| n.is_punct('>'))
                    && self.adjacent(self.i, self.i + 1)
                {
                    return None;
                }
                if tok.ident() == Some("if") {
                    self.bump();
                    return Some(self.expr(true));
                }
            }
            match tok.kind {
                TokKind::Punct('(') => round += 1,
                TokKind::Punct(')') => round -= 1,
                TokKind::Punct('[') => square += 1,
                TokKind::Punct(']') => square -= 1,
                TokKind::Punct('{') => curly += 1,
                TokKind::Punct('}') => curly -= 1,
                _ => {}
            }
            self.bump();
        }
        None
    }

    /// A path expression: `a::b::c` (turbofish skipped), then struct
    /// literal or macro handling.
    fn path_expr(&mut self, no_struct: bool) -> Expr {
        let line = self.line();
        let mut segments = Vec::new();
        loop {
            let Some(word) = self.peek().and_then(Token::ident) else {
                break;
            };
            segments.push(word.to_owned());
            self.bump();
            // `::` continuation (possibly turbofish).
            if self.at_punct(':') && self.peek_at(1).is_some_and(|t| t.is_punct(':')) {
                self.bump();
                self.bump();
                if self.at_punct('<') {
                    self.skip_generics();
                    // A turbofish may be followed by `::` again
                    // (`Vec::<u8>::new`).
                    if self.at_punct(':') && self.peek_at(1).is_some_and(|t| t.is_punct(':')) {
                        self.bump();
                        self.bump();
                    } else {
                        break;
                    }
                }
            } else {
                break;
            }
        }
        if segments.is_empty() {
            self.bump();
            return Expr::Unit(line);
        }
        // Macro invocation: `name!(…)` / `name![…]` / `name!{…}`.
        if self.at_punct('!') {
            let open = self.peek_at(1).map(|t| t.kind.clone());
            if let Some(TokKind::Punct(open_c @ ('(' | '[' | '{'))) = open {
                self.bump(); // `!`
                let close_c = match open_c {
                    '(' => ')',
                    '[' => ']',
                    _ => '}',
                };
                let args = self.macro_args(open_c, close_c);
                return Expr::Macro {
                    name: segments.last().cloned().unwrap_or_default(),
                    args,
                    line,
                };
            }
        }
        // Struct literal: `Path { field: expr, … }`.
        if !no_struct && self.at_punct('{') && starts_uppercase(segments.last()) {
            return self.struct_literal(line);
        }
        Expr::Chain(Chain {
            root: Root::Path(segments),
            steps: Vec::new(),
            line,
        })
    }

    /// Best-effort macro arguments: the balanced token region is
    /// isolated first, then re-parsed as a `,`/`;`-separated expression
    /// list (so a misparse can never escape the macro).
    fn macro_args(&mut self, open: char, close: char) -> Vec<Expr> {
        // Find the end of the balanced region.
        let start = self.i;
        let mut depth = 0usize;
        let mut end = self.i;
        while let Some(tok) = self.t.get(end) {
            if tok.is_punct(open) {
                depth += 1;
            } else if tok.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            end += 1;
        }
        let inner = &self.t[(start + 1).min(end)..end];
        self.i = (end + 1).min(self.t.len());
        let mut sub = P {
            t: inner,
            i: 0,
            depth: self.depth,
        };
        let mut args = Vec::new();
        while sub.peek().is_some() {
            if sub.at_punct(',') || sub.at_punct(';') {
                sub.bump();
                continue;
            }
            let before = sub.i;
            args.push(sub.expr(false));
            if sub.i == before {
                sub.bump();
            }
        }
        args
    }

    fn struct_literal(&mut self, line: u32) -> Expr {
        self.eat_punct('{');
        let mut children = Vec::new();
        loop {
            let Some(tok) = self.peek() else { break };
            if tok.is_punct('}') {
                self.bump();
                break;
            }
            if tok.is_punct(',') {
                self.bump();
                continue;
            }
            // `..base`:
            if tok.is_punct('.') {
                self.bump();
                self.eat_punct('.');
                let before = self.i;
                children.push(self.expr(false));
                if self.i == before {
                    self.bump();
                }
                continue;
            }
            // `name: expr` or shorthand `name`.
            let before = self.i;
            if self.peek().and_then(Token::ident).is_some()
                && self.peek_at(1).is_some_and(|t| t.is_punct(':'))
                && !self.peek_at(2).is_some_and(|t| t.is_punct(':'))
            {
                self.bump();
                self.bump();
                children.push(self.expr(false));
            } else {
                children.push(self.expr(false));
            }
            if self.i == before {
                self.bump();
            }
        }
        let _ = line;
        Expr::Group(children)
    }
}

fn starts_uppercase(segment: Option<&String>) -> bool {
    segment
        .and_then(|s| s.chars().next())
        .is_some_and(char::is_uppercase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src))
    }

    /// Renders every chain in the AST as `root.step.step` strings, for
    /// compact structural assertions.
    fn chains(ast: &Ast) -> Vec<String> {
        let mut out = Vec::new();
        for f in ast.functions() {
            if let Some(body) = &f.body {
                walk_block(body, &mut out);
            }
        }
        out
    }

    fn walk_block(b: &Block, out: &mut Vec<String>) {
        for s in &b.stmts {
            match s {
                Stmt::Let(l) => {
                    if let Some(e) = &l.init {
                        walk_expr(e, out);
                    }
                    if let Some(e) = &l.else_block {
                        walk_block(e, out);
                    }
                }
                Stmt::Expr(e) => walk_expr(e, out),
                Stmt::Item(_) => {}
            }
        }
    }

    fn walk_expr(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::Chain(c) => {
                let mut text = match &c.root {
                    Root::Path(p) => p.join("::"),
                    Root::Grouped(inner) => {
                        walk_expr(inner, out);
                        "(…)".to_owned()
                    }
                };
                for step in &c.steps {
                    match step {
                        Step::Field(name, _) => text.push_str(&format!(".{name}")),
                        Step::Method { name, args, .. } => {
                            text.push_str(&format!(".{name}({})", args.len()));
                            for a in args {
                                walk_expr(a, out);
                            }
                        }
                        Step::Call { args, .. } => {
                            text.push_str(&format!("({})", args.len()));
                            for a in args {
                                walk_expr(a, out);
                            }
                        }
                        Step::Index(i, _) => {
                            text.push_str("[…]");
                            walk_expr(i, out);
                        }
                        Step::Try(_) => text.push('?'),
                    }
                }
                out.push(text);
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

    #[test]
    fn method_chains_survive() {
        let ast = parse_src("fn f() { self.inner.lock().unwrap_or_else(|e| e.into_inner()); }");
        let c = chains(&ast);
        assert!(
            c.contains(&"self.inner.lock(0).unwrap_or_else(1)".to_owned()),
            "{c:?}"
        );
        assert!(c.contains(&"e.into_inner(0)".to_owned()), "{c:?}");
    }

    #[test]
    fn let_bindings_capture_names() {
        let src = "fn f() { let mut cache = x.lock(); let (tx, rx) = channel(); let Some((id, job)) = q.pop() else { return; }; let _ = g(); }";
        let ast = parse_src(src);
        let f = &ast.functions()[0];
        let lets: Vec<&LetStmt> = f
            .body
            .as_ref()
            .unwrap()
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Let(l) => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(lets[0].names, vec!["cache"]);
        assert_eq!(lets[1].names, vec!["tx", "rx"]);
        assert_eq!(lets[2].names, vec!["id", "job"]);
        assert!(lets[2].else_block.is_some());
        assert!(lets[3].names.is_empty());
    }

    #[test]
    fn nested_closures_parse() {
        let src = "fn f() { outer(move || { inner(|x| x.lock().go(|y| y + 1)); }); }";
        let c = chains(&parse_src(src));
        assert!(c.contains(&"x.lock(0).go(1)".to_owned()), "{c:?}");
        assert!(c.iter().any(|s| s.starts_with("outer(")), "{c:?}");
    }

    #[test]
    fn turbofish_is_skipped_not_mangled() {
        let src = "fn f() { let v = iter.collect::<Vec<FxHashMap<u64, u32>>>(); Vec::<u8>::new(); q.wait::<T>(x); }";
        let c = chains(&parse_src(src));
        assert!(c.contains(&"iter.collect(0)".to_owned()), "{c:?}");
        assert!(c.contains(&"Vec::new(0)".to_owned()), "{c:?}");
        assert!(c.contains(&"q.wait(1)".to_owned()), "{c:?}");
    }

    #[test]
    fn raw_strings_and_literals_stay_opaque() {
        let src = r####"fn f() { let s = r#"x.lock() { nope"#; m.insert(s, "y.read()"); }"####;
        let c = chains(&parse_src(src));
        assert_eq!(c, vec!["s", "m.insert(2)"]);
    }

    #[test]
    fn match_arms_and_guards_parse() {
        let src = "fn f(x: Option<u8>) { match q.lock() { Some(v) if v.check() => v.go(), None => other(), } }";
        let c = chains(&parse_src(src));
        assert!(c.contains(&"q.lock(0)".to_owned()), "{c:?}");
        assert!(c.contains(&"v.check(0)".to_owned()), "{c:?}");
        assert!(c.contains(&"v.go(0)".to_owned()), "{c:?}");
        assert!(c.contains(&"other(0)".to_owned()), "{c:?}");
    }

    #[test]
    fn casts_keep_their_operand() {
        let src = "fn f() -> u32 { q.lock().len() as u32 + (n as usize) as u32 }";
        let c = chains(&parse_src(src));
        assert!(c.contains(&"q.lock(0).len(0)".to_owned()), "{c:?}");
        assert!(c.contains(&"n".to_owned()), "{c:?}");
    }

    #[test]
    fn struct_fields_and_statics_capture_types() {
        let src = "
static CACHE: Mutex<Vec<(Config, TraceSet)>> = Mutex::new(Vec::new());
struct Inner {
    queue: VecDeque<(u64, Job)>,
    jobs: BTreeMap<u64, (String, JobState)>,
    running: usize,
}
";
        let ast = parse_src(src);
        let statics = ast.statics();
        assert_eq!(statics.len(), 1);
        assert_eq!(statics[0].name, "CACHE");
        assert!(statics[0].ty.contains("Vec"), "{}", statics[0].ty);
        let structs = ast.structs();
        assert_eq!(structs.len(), 1);
        assert_eq!(structs[0].fields.len(), 3);
        assert_eq!(structs[0].fields[0].name, "queue");
        assert!(structs[0].fields[0].ty.contains("VecDeque"));
        assert!(structs[0].fields[2].ty.contains("usize"));
    }

    #[test]
    fn impl_and_mod_containers_are_transparent() {
        let src = "
impl<T: Send> Foo<T> where T: Clone {
    pub fn a(&self) { self.x.lock(); }
}
mod inner {
    fn b() { Q.read(); }
}
trait Tr {
    fn decl(&self);
    fn with_default(&self) { self.y.write(); }
}
";
        let ast = parse_src(src);
        let fns: Vec<&str> = ast.functions().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(fns, vec!["a", "b", "decl", "with_default"]);
        assert!(ast.functions()[2].body.is_none());
    }

    #[test]
    fn macros_reparse_their_arguments() {
        let src = r#"fn f() { assert_eq!(q.lock().len(), 3, "queue {}", depth); format!("{}", x.read()); }"#;
        let c = chains(&parse_src(src));
        assert!(c.contains(&"q.lock(0).len(0)".to_owned()), "{c:?}");
        assert!(c.contains(&"x.read(0)".to_owned()), "{c:?}");
    }

    #[test]
    fn struct_literals_and_ranges_do_not_derail() {
        let src = "
fn f() -> S {
    for i in 0..n {
        go(i);
    }
    S { a: x.make(), b: 2, ..base.clone() }
}
";
        let c = chains(&parse_src(src));
        assert!(c.contains(&"go(1)".to_owned()), "{c:?}");
        assert!(c.contains(&"x.make(0)".to_owned()), "{c:?}");
        assert!(c.contains(&"base.clone(0)".to_owned()), "{c:?}");
    }

    #[test]
    fn if_let_and_while_let_yield_scrutinees() {
        let src = "
fn f() {
    if let Some(v) = q.lock().front() { v.go(); }
    while let Ok(m) = rx.recv() { m.go(); }
}
";
        let c = chains(&parse_src(src));
        assert!(c.contains(&"q.lock(0).front(0)".to_owned()), "{c:?}");
        assert!(c.contains(&"rx.recv(0)".to_owned()), "{c:?}");
    }

    #[test]
    fn pathological_input_terminates() {
        // Unbalanced everything; the parser must terminate and not panic.
        let src = "fn f( { ) } ] => let x = = 3 |||| as as u32 fn fn { { {";
        let _ = parse_src(src);
        let deep = format!("fn f() {{ {}1{} }}", "(".repeat(500), ")".repeat(500));
        let _ = parse_src(&deep);
    }

    #[test]
    fn blocks_record_end_lines() {
        let src = "fn f() {\n    let g = m.lock();\n    g.use_it();\n}\n";
        let ast = parse_src(src);
        let body = ast.functions()[0].body.as_ref().unwrap();
        assert_eq!(body.end_line, 4);
    }

    #[test]
    fn shift_and_comparison_operators_are_binary() {
        let src = "fn f() { let a = x << 2; let b = m.len() >= cap; let c = p < q && r > s; }";
        let c = chains(&parse_src(src));
        assert!(c.contains(&"m.len(0)".to_owned()), "{c:?}");
    }
}
