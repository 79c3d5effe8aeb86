//! `jouppi-lint` — std-only static analysis for the Jouppi workspace.
//!
//! The repo's headline guarantee is *exactness*: every paper claim is
//! reproduced bit-for-bit, and the miss-log fan-out is bit-identical
//! to per-cell scheduling. Most of the conventions behind that are
//! per-file rules the toolchain checks with full type information:
//! `[workspace.lints]` in the root `Cargo.toml`, the root `clippy.toml`
//! and crate-root attributes ban unsafe code, ambient time, entropy,
//! environment and file input, default hashers, panics in library code,
//! printing in libraries, narrowing casts and discarded results. This
//! crate keeps only what clippy cannot express: a fact about the whole
//! workspace (which calls made under a lock block or take another lock,
//! through a call graph) and one ordering rule with a written-reason
//! convention.
//!
//! Architecture:
//!
//! * [`lexer`] — a hand-rolled Rust lexer (comments, strings, raw
//!   strings, char/byte literals, lifetimes), so lint patterns are
//!   matched against *code tokens* only, never text inside literals;
//! * [`parser`] — a tolerant recursive-descent parser recovering just
//!   enough structure (items, blocks, statements, chains) for the
//!   syntax-aware analyses;
//! * [`lint`] — the catalog of enforced invariants;
//! * [`policy`] — which workspace files are linted;
//! * [`check`] — the per-file checker, including `#[cfg(test)]` region
//!   exemption, the `relaxed-ordering` token scan and the suppression
//!   directive engine;
//! * [`analyses`] — the guard-liveness scan walking the parsed AST,
//!   which records every call (a nested acquisition included) made
//!   under a live lock guard;
//! * [`symbols`] — per-file symbol tables (function declarations with
//!   impl/module context, flattened `use` imports);
//! * [`callgraph`] — the conservative workspace call graph (uniquely
//!   resolved calls only) and its reachability engine;
//! * [`interproc`] — the interprocedural analysis riding the graph
//!   (lock-held-across-call);
//! * [`workspace`] — the one-pass workspace scan: walk, per-file
//!   checks, call graph, then each file's directives applied once;
//! * [`report`] — human `file:line` output, the `--timings` breakdown
//!   and the `--list` catalog;
//! * [`cli`] — the driver behind the `jouppi-lint` binary.
//!
//! # Example
//!
//! ```
//! use jouppi_lint::check::check_source;
//! use jouppi_lint::lint::LintId;
//! use jouppi_lint::policy::classify;
//!
//! let ctx = classify("crates/experiments/src/example.rs").expect("lintable path");
//! let src = "fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }";
//! let findings = check_source(&ctx, src);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].lint, LintId::RelaxedOrdering);
//!
//! // With a justified suppression the file is clean.
//! let clean = check_source(
//!     &ctx,
//!     &format!("// jouppi-lint: allow(relaxed-ordering) — doc example\n{src}"),
//! );
//! assert!(clean.is_empty());
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the linter times its own analysis stages and reads the sources it checks; it produces no simulation results"
)]
#![warn(missing_docs)]

pub mod analyses;
pub mod callgraph;
pub mod check;
pub mod cli;
pub mod interproc;
pub mod lexer;
pub mod lint;
pub mod parser;
pub mod policy;
pub mod report;
pub mod symbols;
pub mod workspace;

pub use check::check_source;
pub use lint::{Finding, LintId, ALL_LINTS};
pub use policy::{classify, FileContext};
pub use workspace::{find_root, scan_workspace, ScanResult};
