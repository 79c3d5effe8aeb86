//! Synthetic benchmark workloads standing in for the six WRL traces of
//! Jouppi (ISCA 1990).
//!
//! The paper's evaluation drives every experiment with address traces of
//! six large programs captured on a DEC WRL Titan (`ccom`, `grr`, `yacc`,
//! `met`, `linpack`, `liver`; Table 2-1). Those traces no longer exist in
//! public form, so this crate substitutes *seeded synthetic generators* —
//! one per program — composed from reference-pattern primitives that model
//! the documented behaviour of each original program (see `DESIGN.md` §3
//! for the substitution argument):
//!
//! * [`exec`] — an instruction-fetch engine: procedures laid out in a code
//!   segment, executed sequentially with loops, calls, and returns;
//! * [`data`] — data-reference patterns: strided sweeps, interleaved
//!   vector kernels, alternating string compares, pointer chases, table
//!   lookups, hot conflict sets, and stack frames;
//! * [`Benchmark`] — the six programs, each wiring an instruction engine
//!   and a weighted mixture of data patterns into a deterministic
//!   [`jouppi_trace::TraceSource`].
//!
//! Generators are calibrated so the baseline 4KB/16B direct-mapped miss
//! rates land near Table 2-2 and the conflict-miss fractions near Figure
//! 3-1, and so the paper's qualitative orderings hold (`met` has the
//! highest data-conflict ratio, `linpack`/`liver` have essentially zero
//! instruction misses and long sequential data streams, `liver`'s misses
//! are interleaved streams).
//!
//! # Examples
//!
//! ```
//! use jouppi_trace::TraceSource;
//! use jouppi_workloads::{Benchmark, Scale};
//!
//! let src = Benchmark::Linpack.source(Scale::new(10_000), 42);
//! let stats = jouppi_trace::TraceStats::from_refs(src.refs());
//! assert_eq!(stats.instruction_refs, 10_000);
//! assert!(stats.data_refs() > 0);
//! // Deterministic: same seed, same trace.
//! let again = jouppi_trace::TraceStats::from_refs(src.refs());
//! assert_eq!(stats, again);
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

mod benchmarks;
pub mod data;
pub mod exec;
mod gen;
pub mod kernels;

pub use benchmarks::{Benchmark, PaperRow, WorkloadSource};
pub use gen::{Scale, TraceGen};
