//! `jouppi-lint` — std-only static analysis for the Jouppi workspace.
//!
//! The repo's headline guarantee is *exactness*: every paper claim is
//! reproduced bit-for-bit, and the miss-log fan-out is bit-identical
//! to per-cell scheduling. Those guarantees rest on conventions the
//! compiler does not enforce — no ambient time or entropy in simulation
//! crates, hasher-independent aggregation, no panic paths in the serve
//! request loop. Since the workspace builds offline with zero external
//! dependencies, tools like dylint and miri are out of reach; this crate
//! is the checker built in the same std-only style as the rest.
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
//!   exemption and the suppression-directive engine;
//! * [`analyses`] — the structural analyses (lock-order,
//!   blocking-under-lock, unbounded-growth, swallowed-result,
//!   truncating-cast) walking the parsed AST;
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
//! * [`baseline`] — the `lint-baseline.json` ratchet (grandfathered
//!   findings may only shrink);
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
//! let ctx = classify("crates/core/src/example.rs").expect("lintable path");
//! let findings = check_source(&ctx, "fn f() { let t = Instant::now(); }");
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].lint, LintId::AmbientTime);
//!
//! // With a justified suppression the file is clean.
//! let clean = check_source(
//!     &ctx,
//!     "// jouppi-lint: allow(ambient-time) — doc example\n\
//!      fn f() { let t = Instant::now(); }",
//! );
//! assert!(clean.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyses;
pub mod baseline;
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
