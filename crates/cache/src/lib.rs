//! Cache-simulation substrate for the Jouppi (ISCA 1990) reproduction.
//!
//! This crate provides the conventional caching machinery the paper builds
//! on: tag-only set-associative cache models (direct-mapped through
//! fully-associative), replacement policies, an exact O(1) LRU structure,
//! and the three-C miss classifier (compulsory / capacity / conflict, after
//! Hill) that Sections 3 and 4 of the paper rely on to separate the misses
//! each mechanism targets. [`DirectMappedSweep`] and [`BandedShadow`]
//! simulate and classify every size of a cache-size sweep in one pass.
//!
//! Caches here are *functional* simulators: they track which line addresses
//! are resident, not data bytes, because every metric in the paper is a miss
//! count. Stores are treated as allocating references (the paper explicitly
//! sets aside write-policy tradeoffs).
//!
//! # Examples
//!
//! Simulate the paper's baseline 4KB direct-mapped data cache with 16-byte
//! lines:
//!
//! ```
//! use jouppi_cache::{Cache, CacheGeometry};
//! use jouppi_trace::Addr;
//!
//! # fn main() -> Result<(), jouppi_cache::GeometryError> {
//! let geom = CacheGeometry::direct_mapped(4096, 16)?;
//! let mut cache = Cache::new(geom);
//! cache.access(Addr::new(0x0));      // compulsory miss
//! cache.access(Addr::new(0x8));      // same 16B line: hit
//! cache.access(Addr::new(0x1000));   // maps to set 0 too: conflict evicts
//! cache.access(Addr::new(0x0));      // miss again
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().misses, 3);
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

mod classify;
mod geometry;
mod lru;
mod lru_map;
mod replacement;
mod set_assoc;
mod single_pass;
mod size_axis;
mod stack_distance;
mod stats;

pub use classify::{ClassifiedCache, MissClass, MissClassifier};
pub use geometry::{CacheGeometry, GeometryError};
pub use jouppi_trace::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use lru::{LruSet, TouchOutcome, SMALL_CAPACITY_MAX};
pub use lru_map::{Displaced, LruMap};
pub use replacement::ReplacementPolicy;
pub use set_assoc::{AccessResult, Cache};
pub use single_pass::{FifoSweep, LruSweep, SinglePassError};
pub use size_axis::{BandedShadow, DirectMappedSweep};
pub use stack_distance::StackDistanceProfile;
pub use stats::{CacheStats, MissBreakdown};
