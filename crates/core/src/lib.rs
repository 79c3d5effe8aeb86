//! The mechanisms proposed in Jouppi (ISCA 1990): miss caches, victim
//! caches, and stream buffers, plus the prefetch baselines they are
//! compared against.
//!
//! All structures here sit *between a direct-mapped first-level cache and
//! its refill path*, exactly as the paper requires: they are consulted only
//! on first-level misses and therefore stay off the processor's critical
//! path.
//!
//! * [`MissCache`] — a 2-5 entry fully-associative cache loaded with the
//!   *requested* line on every L1 miss (§3.1).
//! * [`VictimCache`] — the improvement: loaded with the *victim* of the L1
//!   replacement instead, so no line is duplicated between L1 and the
//!   victim cache (§3.2).
//! * [`StreamBuffer`] — a sequential prefetch FIFO started at the line
//!   after a miss; only the head has a tag comparator (§4.1).
//! * [`MultiWayStreamBuffer`] — four stream buffers in parallel with LRU
//!   allocation, for interleaved data streams (§4.2), optionally
//!   allocating each stream with the stride a [`stride::StrideDetector`]
//!   confirms.
//! * [`prefetch`] — prefetch-always, prefetch-on-miss, and tagged prefetch
//!   (Smith), used for the Figure 4-1 comparison.
//! * [`WriteBuffer`] — the write-through store path of §2, whose
//!   bandwidth argument motivates the pipelined second-level cache.
//! * [`AugmentedCache`] — a direct-mapped L1 composed with any of the
//!   above, producing the per-access outcomes and statistics every
//!   experiment consumes.
//! * [`MissLog`] — the misses of one L1 pass, from which every
//!   augmentation of that L1 is answered without touching the hits.
//!
//! # Examples
//!
//! The canonical tight conflict the paper opens §3.1 with — two lines that
//! alternate and map to the same cache line — is fully absorbed by a
//! one-entry victim cache:
//!
//! ```
//! use jouppi_cache::CacheGeometry;
//! use jouppi_core::{AccessOutcome, AugmentedCache, AugmentedConfig};
//! use jouppi_trace::Addr;
//!
//! # fn main() -> Result<(), jouppi_cache::GeometryError> {
//! let geom = CacheGeometry::direct_mapped(4096, 16)?;
//! let mut cache = AugmentedCache::new(AugmentedConfig::new(geom).victim_cache(1));
//! let (a, b) = (Addr::new(0x0000), Addr::new(0x1000)); // conflict partners
//! cache.access(a);
//! cache.access(b);
//! for _ in 0..100 {
//!     assert_eq!(cache.access(a), AccessOutcome::VictimHit);
//!     assert_eq!(cache.access(b), AccessOutcome::VictimHit);
//! }
//! assert_eq!(cache.stats().full_misses, 2); // only the two cold misses
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(
    clippy::unwrap_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]
#![warn(missing_docs)]

mod augmented;
mod miss_cache;
mod miss_log;
mod multi_way;
pub mod prefetch;
mod stream_buffer;
pub mod stride;
mod victim_cache;
mod write_buffer;

pub use augmented::{AccessOutcome, AugmentedCache, AugmentedConfig, AugmentedStats, ConflictAid};
pub use miss_cache::MissCache;
pub use miss_log::MissLog;
pub use multi_way::MultiWayStreamBuffer;
pub use stream_buffer::{StreamBuffer, StreamBufferConfig, StreamProbe};
pub use victim_cache::VictimCache;
pub use write_buffer::WriteBuffer;
