//! Reproduction of every table and figure in Jouppi (ISCA 1990).
//!
//! One module per paper artifact (or per pair sharing machinery):
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`tables`] | Table 1-1 (miss costs), 2-1 (program characteristics), 2-2 (baseline miss rates) |
//! | [`fig_2_2`] | Figure 2-2 — baseline performance lost per hierarchy level |
//! | [`fig_3_1`] | Figure 3-1 — conflict-miss fractions |
//! | [`conflict_sweep`] | Figures 3-3 / 3-5 — miss-cache / victim-cache entry sweeps |
//! | [`victim_geometry`] | Figures 3-6 / 3-7 — victim cache vs cache size / line size |
//! | [`fig_4_1`] | Figure 4-1 — limited time for prefetch |
//! | [`stream_sweep`] | Figures 4-3 / 4-5 — stream-buffer run-length sweeps |
//! | [`stream_geometry`] | Figures 4-6 / 4-7 — stream buffers vs cache size / line size |
//! | [`overlap`] | §5 — victim-cache / stream-buffer orthogonality |
//! | [`fig_5_1`] | Figure 5-1 — improved system performance |
//!
//! Plus the §5 future-work extensions and ablations the paper calls for:
//!
//! | Module | Extension |
//! |---|---|
//! | [`ext_stride`] | non-unit-stride streams + stride-detecting buffers |
//! | [`ext_l2_victim`] | victim caches for second-level caches (§3.5) |
//! | [`ext_multiprogramming`] | interleaved multiprogrammed workloads |
//! | [`ext_associativity`] | DM + victim cache vs real set-associativity |
//! | [`ext_latency`] | stream-buffer benefit under prefetch latency |
//! | [`ext_replacement`] | victim-cache replacement-policy ablation |
//! | [`ext_penalty`] | mechanism value vs miss penalty (Table 1-1's range) |
//! | [`ext_working_set`] | working-set curves: FA-LRU vs direct-mapped at every size, one pass |
//! | [`ext_pollution`] | prefetch-into-cache pollution vs stream buffers |
//! | [`single_pass`] | full size × associativity × policy grid in one pass per side |
//! | [`ext_seed`] | seed-sensitivity of the Figure 5-1 headline |
//! | [`ext_write_bandwidth`] | §2's store-bandwidth argument for a pipelined L2 |
//!
//! Every experiment takes an [`ExperimentConfig`] (trace scale + seed),
//! returns a plain data struct, and renders itself as text; the `repro`
//! binary drives them all, and `repro --check` grades the full claim
//! list ([`checks`]) as a reproduction certificate.
//!
//! # Examples
//!
//! ```no_run
//! use jouppi_experiments::{common::ExperimentConfig, fig_5_1};
//!
//! let cfg = ExperimentConfig::default();
//! let result = fig_5_1::run(&cfg);
//! println!("{}", result.render());
//! println!("average improvement: {:.0}%", result.avg_improvement_pct());
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(
    clippy::unwrap_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]
#![warn(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

pub mod checks;
pub mod common;
pub mod conflict_sweep;
pub mod diagrams;
pub mod ext_associativity;
pub mod ext_l2_victim;
pub mod ext_latency;
pub mod ext_multiprogramming;
pub mod ext_penalty;
pub mod ext_pollution;
pub mod ext_replacement;
pub mod ext_seed;
pub mod ext_stride;
pub mod ext_working_set;
pub mod ext_write_bandwidth;
pub mod fig_2_2;
pub mod fig_3_1;
pub mod fig_4_1;
pub mod fig_5_1;
pub mod overlap;
pub mod single_pass;
pub mod stream_geometry;
pub mod stream_sweep;
pub mod sweep;
pub mod tables;
pub mod victim_geometry;

pub use common::ExperimentConfig;
