//! Per-file symbol tables: which functions a file declares (with their
//! impl-block context and module path) and which names its `use`
//! imports bind.
//!
//! This is the name-resolution substrate for the workspace call graph
//! (`crate::callgraph`). Resolution is deliberately syntactic — no type
//! checking, no trait solving — so the table records exactly what the
//! tolerant parser can see: a function's bare name, the self-type of
//! the `impl` block it sits in (when any), the module path derived from
//! the file's workspace-relative path plus inline `mod` blocks, and the
//! file's flattened `use` imports (alias → full path).

use std::collections::BTreeMap;

use crate::parser::{Ast, Block, ContainerKind, FnItem, Item};
use crate::policy::FileContext;

/// One function declaration, as the call graph sees it.
#[derive(Clone, Debug)]
pub struct FnDecl {
    /// The function's bare name.
    pub name: String,
    /// The self-type of the enclosing `impl`/`trait` block, if any.
    pub impl_type: Option<String>,
    /// Module path within the crate (file path modules plus inline
    /// `mod` blocks); empty at the crate root.
    pub module: Vec<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
}

/// The symbols one file contributes to the workspace.
#[derive(Clone, Debug, Default)]
pub struct FileSymbols {
    /// Crate directory name (`serve`, `cache`, …; `jouppi` for the
    /// umbrella crate).
    pub crate_name: String,
    /// The file's module path within its crate (`routes.rs` → `[routes]`,
    /// `lib.rs` → `[]`, `foo/mod.rs` → `[foo]`).
    pub module: Vec<String>,
    /// Flattened non-glob `use` imports: local alias → full path.
    pub imports: BTreeMap<String, Vec<String>>,
    /// Function declarations, in source order. Parallel to the bodies
    /// returned by [`collect`].
    pub fns: Vec<FnDecl>,
}

/// Derives a file's module path within its crate from its
/// workspace-relative path: the components after `src/`, with the
/// `.rs` extension and `lib`/`main`/`mod` tails dropped.
pub fn module_path(rel_path: &str) -> Vec<String> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let tail: &[&str] = match parts.as_slice() {
        ["crates", _, "src", tail @ ..] => tail,
        ["src", tail @ ..] => tail,
        _ => return Vec::new(),
    };
    let mut module: Vec<String> = Vec::new();
    for (i, part) in tail.iter().enumerate() {
        let last = i + 1 == tail.len();
        if last {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if !matches!(stem, "lib" | "main" | "mod") {
                module.push(stem.to_owned());
            }
        } else {
            module.push((*part).to_owned());
        }
    }
    module
}

/// Collects a file's symbol table plus, in parallel order, a reference
/// to each declared function (so the call graph can walk the bodies
/// without cloning them). Function-local `fn` items are excluded —
/// they are only callable from their enclosing body, which the
/// intra-function analyses already walk in place. Functions whose `fn`
/// keyword sits inside one of `test_ranges` (inclusive line ranges) are
/// excluded too: test helpers are not part of the production graph.
pub fn collect<'a>(
    ctx: &FileContext,
    ast: &'a Ast,
    test_ranges: &[(u32, u32)],
) -> (FileSymbols, Vec<&'a FnItem>) {
    let mut symbols = FileSymbols {
        crate_name: ctx.crate_name.clone(),
        module: module_path(&ctx.rel_path),
        ..FileSymbols::default()
    };
    let mut bodies = Vec::new();
    let module = symbols.module.clone();
    walk_items(
        &ast.items,
        &module,
        None,
        test_ranges,
        &mut symbols,
        &mut bodies,
    );
    (symbols, bodies)
}

fn in_ranges(line: u32, ranges: &[(u32, u32)]) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

fn walk_items<'a>(
    items: &'a [Item],
    module: &[String],
    impl_type: Option<&str>,
    test_ranges: &[(u32, u32)],
    symbols: &mut FileSymbols,
    bodies: &mut Vec<&'a FnItem>,
) {
    for item in items {
        match item {
            Item::Fn(f) => {
                if in_ranges(f.line, test_ranges) {
                    continue;
                }
                symbols.fns.push(FnDecl {
                    name: f.name.clone(),
                    impl_type: impl_type.map(str::to_owned),
                    module: module.to_vec(),
                    line: f.line,
                });
                bodies.push(f);
            }
            Item::Use(u) => {
                if in_ranges(u.line, test_ranges) {
                    continue;
                }
                // A glob import binds no name.
                if !u.alias.is_empty() {
                    symbols.imports.insert(u.alias.clone(), u.path.clone());
                }
            }
            Item::Container {
                kind, name, items, ..
            } => match kind {
                ContainerKind::Impl | ContainerKind::Trait => walk_items(
                    items,
                    module,
                    Some(name.as_str()),
                    test_ranges,
                    symbols,
                    bodies,
                ),
                ContainerKind::Mod => {
                    let mut nested = module.to_vec();
                    nested.push(name.clone());
                    walk_items(items, &nested, None, test_ranges, symbols, bodies);
                }
            },
        }
    }
}

/// Lower-cases a `CamelCase` type name to `snake_case` for the
/// receiver-name heuristics (`JobQueue` → `job_queue`).
pub fn snake_case(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// The body of a function, when it has one.
pub fn fn_body(f: &FnItem) -> Option<&Block> {
    f.body.as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::policy::classify;

    fn symbols_of(rel_path: &str, src: &str) -> FileSymbols {
        let ctx = classify(rel_path).expect("classifiable path");
        let ast = parse(&lex(src));
        collect(&ctx, &ast, &[]).0
    }

    #[test]
    fn module_paths_from_file_layout() {
        assert_eq!(module_path("crates/serve/src/routes.rs"), ["routes"]);
        assert!(module_path("crates/serve/src/lib.rs").is_empty());
        assert_eq!(module_path("crates/x/src/foo/mod.rs"), ["foo"]);
        assert_eq!(module_path("crates/x/src/foo/bar.rs"), ["foo", "bar"]);
        assert!(module_path("src/lib.rs").is_empty());
        assert_eq!(
            module_path("crates/cli/src/bin/jouppi.rs"),
            ["bin", "jouppi"]
        );
    }

    #[test]
    fn collects_fns_with_impl_context() {
        let src = "\
fn free() {}
impl Queue {
    fn push(&mut self, item: u64) {}
}
impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
}
mod inner {
    fn nested(n: usize) {}
}
";
        let s = symbols_of("crates/serve/src/queue.rs", src);
        let names: Vec<(String, Option<String>)> = s
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".to_owned(), None),
                ("push".to_owned(), Some("Queue".to_owned())),
                ("fmt".to_owned(), Some("CacheGeometry".to_owned())),
                ("nested".to_owned(), None),
            ]
        );
        assert_eq!(s.fns[3].module, ["queue", "inner"]);
    }

    #[test]
    fn use_imports_flatten() {
        let src = "\
use crate::json::Json;
use jouppi_core::{AugmentedCache, AugmentedConfig as Cfg};
use std::collections::btree_map::*;
";
        let s = symbols_of("crates/serve/src/sim.rs", src);
        assert_eq!(
            s.imports.get("Json").map(Vec::as_slice),
            Some(["crate", "json", "Json"].map(str::to_owned).as_slice())
        );
        assert_eq!(
            s.imports.get("AugmentedCache").map(Vec::as_slice),
            Some(
                ["jouppi_core", "AugmentedCache"]
                    .map(str::to_owned)
                    .as_slice()
            )
        );
        assert_eq!(
            s.imports.get("Cfg").map(Vec::as_slice),
            Some(
                ["jouppi_core", "AugmentedConfig"]
                    .map(str::to_owned)
                    .as_slice()
            )
        );
        // A glob import binds no name.
        assert_eq!(s.imports.len(), 3);
    }

    #[test]
    fn test_region_fns_are_excluded() {
        let src = "\
fn prod() {}
mod tests {
    fn helper() {}
}
";
        let ctx = classify("crates/serve/src/sim.rs").expect("ctx");
        let ast = parse(&lex(src));
        // Lines 2-4 marked as a test region (as `#[cfg(test)]` would).
        let (s, bodies) = collect(&ctx, &ast, &[(2, 4)]);
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "prod");
        assert_eq!(bodies.len(), 1);
    }

    #[test]
    fn snake_case_for_receiver_matching() {
        assert_eq!(snake_case("JobQueue"), "job_queue");
        assert_eq!(snake_case("AugmentedCache"), "augmented_cache");
        assert_eq!(snake_case("Json"), "json");
        assert_eq!(snake_case("already_snake"), "already_snake");
    }
}
