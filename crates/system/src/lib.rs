//! The baseline and improved system models of Jouppi (ISCA 1990).
//!
//! Section 2 of the paper defines the machine every experiment assumes: a
//! 1000-MIPS-peak processor with on-chip 4KB direct-mapped split I/D
//! caches (16B lines, 24-instruction-time miss penalty) in front of a 1MB
//! direct-mapped pipelined second-level cache (128B lines,
//! 320-instruction-time miss penalty to main memory). Section 5 improves
//! it with a four-entry data victim cache, a single instruction stream
//! buffer, and a four-way data stream buffer.
//!
//! This crate wires those organizations out of `jouppi-core` and
//! `jouppi-cache` parts and adds the instruction-time accounting behind
//! Figures 2-2 and 5-1 (performance lost per hierarchy level).
//!
//! # Examples
//!
//! ```
//! use jouppi_system::{SystemConfig, SystemModel};
//! use jouppi_workloads::{Benchmark, Scale};
//!
//! let mut base = SystemModel::new(SystemConfig::baseline());
//! let mut improved = SystemModel::new(SystemConfig::improved());
//! let src = Benchmark::Ccom.source(Scale::new(50_000), 42);
//! let b = base.run(&src);
//! let i = improved.run(&src);
//! assert!(i.performance_fraction() > b.performance_fraction());
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

mod config;
mod model;
mod perf;

pub use config::SystemConfig;
pub use model::{SystemModel, SystemReport};
pub use perf::TimeBreakdown;
