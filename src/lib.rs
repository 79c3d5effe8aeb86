//! # jouppi — victim caches, miss caches & stream buffers (ISCA 1990)
//!
//! Umbrella crate for a from-scratch Rust reproduction of Norman P.
//! Jouppi's *Improving Direct-Mapped Cache Performance by the Addition of a
//! Small Fully-Associative Cache and Prefetch Buffers* (ISCA 1990). It
//! re-exports the workspace crates:
//!
//! * [`trace`] — memory-reference model (addresses, references, traces),
//! * [`cache`] — conventional cache simulation substrate + 3-C classifier,
//! * [`core`] — the paper's mechanisms: miss caches, victim caches, stream
//!   buffers (single and multi-way), and prefetch baselines,
//! * [`workloads`] — the six synthetic benchmark trace generators,
//! * [`system`] — the baseline and improved two-level system models,
//! * [`experiments`] — one module per paper table/figure,
//! * [`report`] — ASCII tables and charts for rendering results.
//!
//! # Examples
//!
//! Measure how much a 4-entry victim cache helps the paper's baseline 4KB
//! direct-mapped data cache on the `ccom` workload:
//!
//! ```no_run
//! use jouppi::cache::CacheGeometry;
//! use jouppi::core::{AugmentedCache, AugmentedConfig};
//! use jouppi::trace::TraceSource;
//! use jouppi::workloads::{Benchmark, Scale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let geom = CacheGeometry::direct_mapped(4096, 16)?;
//! let mut cache = AugmentedCache::new(AugmentedConfig::new(geom).victim_cache(4));
//! let workload = Benchmark::Ccom.source(Scale::default(), 42);
//! for r in workload.refs().filter(|r| r.kind.is_data()) {
//!     cache.access(r.addr);
//! }
//! println!("miss rate: {:.4}", cache.stats().demand_miss_rate());
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub use jouppi_cache as cache;
pub use jouppi_core as core;
pub use jouppi_experiments as experiments;
pub use jouppi_report as report;
pub use jouppi_system as system;
pub use jouppi_trace as trace;
pub use jouppi_workloads as workloads;
