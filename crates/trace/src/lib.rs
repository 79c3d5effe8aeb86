//! Memory reference traces for the Jouppi (ISCA 1990) reproduction.
//!
//! The paper's experiments are *trace driven*: a benchmark produces a
//! sequence of memory references (instruction fetches, loads, and stores),
//! and cache models consume that sequence. This crate defines the shared
//! vocabulary used by every other crate in the workspace:
//!
//! * [`Addr`] and [`LineAddr`] — byte and cache-line addresses,
//! * [`AccessKind`] and [`MemRef`] — a single reference,
//! * [`TraceSource`] — anything that can produce a reference stream,
//! * [`SideView`] and [`LineInterner`] — one cache side's lines, and
//!   its runs of repeats with dense line ids, memoized once per recorded
//!   trace,
//! * [`TraceStats`] — the per-trace counters reported in Table 2-1 of the
//!   paper (dynamic instructions, data references, total references).
//!
//! # Examples
//!
//! ```
//! use jouppi_trace::{Addr, AccessKind, MemRef, TraceStats};
//!
//! let refs = [
//!     MemRef::instr(Addr::new(0x1000)),
//!     MemRef::load(Addr::new(0x8000)),
//!     MemRef::store(Addr::new(0x8008)),
//! ];
//! let stats = TraceStats::from_refs(refs.iter().copied());
//! assert_eq!(stats.instruction_refs, 1);
//! assert_eq!(stats.data_refs(), 2);
//! assert_eq!(stats.total_refs(), 3);
//! assert_eq!(refs[1].addr.line(16), jouppi_trace::LineAddr::new(0x800));
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

mod access;
mod addr;
mod footprint;
pub mod io;
mod line_hash;
mod rng;
mod source;
mod stats;

pub use access::{AccessKind, MemRef};
pub use addr::{Addr, LineAddr};
pub use footprint::Footprint;
pub use line_hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher, LineInterner};
pub use rng::{SampleRange, SmallRng};
pub use source::{LineRun, RecordedTrace, SideView, TraceSource, BASE_LINE_SIZE};
pub use stats::TraceStats;
