//! `jouppi-lint` — std-only static analysis for the Jouppi workspace.
//!
//! The repo's headline guarantee is *exactness*: every paper claim is
//! reproduced bit-for-bit, and the miss-log fan-out is bit-identical
//! to per-cell scheduling. Most of the conventions behind that are
//! per-file rules the toolchain checks with full type information:
//! `[workspace.lints]` in the root `Cargo.toml`, the root `clippy.toml`
//! and crate-root attributes ban unsafe code, ambient time and entropy,
//! default hashers, panics in serve, printing in libraries, narrowing
//! casts and discarded results. This crate keeps only what clippy cannot
//! express: facts about the whole workspace (a call graph, per-crate
//! lock graphs) and one ordering rule with a written-reason convention.
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
//! * [`policy`] — the per-crate table mapping files to active lints;
//! * [`check`] — the per-file checker, including `#[cfg(test)]` region
//!   exemption, the `relaxed-ordering` token scan and the suppression
//!   directive engine;
//! * [`analyses`] — the structural analyses walking the parsed AST
//!   (unbounded-growth, and the guard-liveness scan feeding lock-order
//!   and lock-held-across-call);
//! * [`symbols`] — per-file symbol tables (function declarations with
//!   impl/module context, flattened `use` imports);
//! * [`callgraph`] — the conservative workspace call graph and its
//!   reachability engine (resolved vs. explicitly ambiguous edges);
//! * [`interproc`] — the four interprocedural analyses riding the graph
//!   (panic-reachability, transitive purity, untrusted-size taint,
//!   lock-held-across-call);
//! * [`workspace`] — deterministic workspace walking, including the
//!   crate-wide lock-order resolution phase and the workspace
//!   call-graph phase;
//! * [`report`] — human `file:line` output, the `--json` document, and
//!   the `--timings` breakdown;
//! * [`cli`] — the driver shared by the `jouppi-lint` binary and the
//!   `jouppi lint` subcommand.
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
    reason = "the linter times its own analysis stages; it produces no simulation results"
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
pub use policy::{classify, lints_for, FileContext};
pub use workspace::{find_root, scan_workspace, ScanResult};
