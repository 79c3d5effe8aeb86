//! Named microkernels: tiny single-pattern workloads for targeted
//! experiments and unit studies.
//!
//! Each microkernel isolates one reference behaviour from the paper's
//! discussion — a tight conflict pair, a pure sequential stream, a
//! column walk, a gather — as a self-contained [`TraceSource`], so users
//! can probe a mechanism with exactly the stimulus it was designed for
//! (or designed to fail on).
//!
//! # Examples
//!
//! ```
//! use jouppi_trace::TraceSource;
//! use jouppi_workloads::kernels::Microkernel;
//!
//! let src = Microkernel::StringCompareConflict.source(10_000, 1);
//! assert!(src.refs().count() >= 10_000);
//! ```

use jouppi_trace::SmallRng;

use jouppi_trace::{MemRef, TraceSource};

use crate::data::{
    GatherScatter, HotConflictSet, InterleavedSweep, Pattern, PointerChase, StridedSweep,
    StringCompare, Transpose,
};

/// One of the isolated reference behaviours.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Microkernel {
    /// §3.1's character-string compare: two pointers that always collide
    /// in the baseline cache (fixed by a 2-entry miss cache).
    StringCompareConflict,
    /// A persistent 3-way conflict set (fixed by a ≥2-entry victim cache).
    ThreeWayConflict,
    /// One long unit-stride stream (fixed by a single stream buffer).
    SequentialStream,
    /// Four interleaved unit-stride streams (needs the 4-way buffer).
    InterleavedStreams,
    /// A row walk of a column-major matrix (needs stride detection).
    ColumnWalk,
    /// Random pointer chasing (no spatial locality; nothing helps but
    /// capacity).
    PointerChase,
    /// Data-dependent gather (unpredictable; defeats every prefetcher).
    Gather,
}

impl Microkernel {
    /// All microkernels.
    pub const ALL: [Microkernel; 7] = [
        Microkernel::StringCompareConflict,
        Microkernel::ThreeWayConflict,
        Microkernel::SequentialStream,
        Microkernel::InterleavedStreams,
        Microkernel::ColumnWalk,
        Microkernel::PointerChase,
        Microkernel::Gather,
    ];

    /// A short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Microkernel::StringCompareConflict => "strcmp-conflict",
            Microkernel::ThreeWayConflict => "3way-conflict",
            Microkernel::SequentialStream => "sequential",
            Microkernel::InterleavedStreams => "interleaved",
            Microkernel::ColumnWalk => "column-walk",
            Microkernel::PointerChase => "pointer-chase",
            Microkernel::Gather => "gather",
        }
    }

    /// A replayable data-reference source of `refs` loads.
    pub fn source(self, refs: u64, seed: u64) -> MicrokernelSource {
        MicrokernelSource {
            kernel: self,
            refs,
            seed,
        }
    }

    fn build(self, seed: u64) -> (Pattern, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(seed ^ (self as u64).wrapping_mul(0x1234_5677));
        let pattern = match self {
            Microkernel::StringCompareConflict => {
                StringCompare::new(0x1000_0000, 0x2000_0000, 64 << 10, 4096, 1.0, 64, 256).into()
            }
            Microkernel::ThreeWayConflict => HotConflictSet::new(0x1000_0100, 4096, 3, 2).into(),
            Microkernel::SequentialStream => StridedSweep::new(0x1000_0000, 8, 8 << 20).into(),
            Microkernel::InterleavedStreams => InterleavedSweep::new(
                vec![
                    0x1000_0000,
                    0x2000_0000 + 1040,
                    0x3000_0000 + 2080,
                    0x4000_0000 + 3120,
                ],
                8,
                4 << 20,
            )
            .into(),
            Microkernel::ColumnWalk => Transpose::new(0x1000_0000, 128, 130).into(),
            Microkernel::PointerChase => PointerChase::new(0x1000_0000, 64, 8192, &mut rng).into(),
            Microkernel::Gather => {
                GatherScatter::new(0x1000_0000, 0x4000_0000, (4 << 20) / 8, 8).into()
            }
        };
        (pattern, rng)
    }
}

impl std::fmt::Display for Microkernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A replayable [`TraceSource`] for one microkernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MicrokernelSource {
    kernel: Microkernel,
    refs: u64,
    seed: u64,
}

impl TraceSource for MicrokernelSource {
    fn refs(&self) -> Box<dyn Iterator<Item = MemRef> + '_> {
        let (mut pattern, mut rng) = self.kernel.build(self.seed);
        let n = self.refs;
        Box::new((0..n).map(move |_| MemRef::load(pattern.next_addr(&mut rng))))
    }

    fn name(&self) -> &str {
        self.kernel.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jouppi_cache::CacheGeometry;
    use jouppi_core::{AugmentedCache, AugmentedConfig, StreamBufferConfig};

    fn miss_rate(kernel: Microkernel, cfg: AugmentedConfig) -> f64 {
        let mut cache = AugmentedCache::new(cfg);
        for r in kernel.source(30_000, 7).refs() {
            cache.access(r.addr);
        }
        cache.stats().demand_miss_rate()
    }

    fn geom() -> CacheGeometry {
        CacheGeometry::direct_mapped(4096, 16).unwrap()
    }

    #[test]
    fn each_kernel_is_fixed_by_its_intended_mechanism() {
        // strcmp conflict: 2-entry miss cache suffices.
        let bare = miss_rate(
            Microkernel::StringCompareConflict,
            AugmentedConfig::new(geom()),
        );
        let fixed = miss_rate(
            Microkernel::StringCompareConflict,
            AugmentedConfig::new(geom()).miss_cache(2),
        );
        assert!(fixed < bare * 0.3, "strcmp: {bare} → {fixed}");

        // 3-way conflict: a 2-entry victim cache captures it.
        let bare = miss_rate(Microkernel::ThreeWayConflict, AugmentedConfig::new(geom()));
        let fixed = miss_rate(
            Microkernel::ThreeWayConflict,
            AugmentedConfig::new(geom()).victim_cache(2),
        );
        assert!(fixed < bare * 0.1, "3way: {bare} → {fixed}");

        // Sequential: single stream buffer.
        let bare = miss_rate(Microkernel::SequentialStream, AugmentedConfig::new(geom()));
        let fixed = miss_rate(
            Microkernel::SequentialStream,
            AugmentedConfig::new(geom()).stream_buffer(StreamBufferConfig::new(4)),
        );
        assert!(fixed < bare * 0.05, "sequential: {bare} → {fixed}");

        // Interleaved: needs the 4-way buffer.
        let single = miss_rate(
            Microkernel::InterleavedStreams,
            AugmentedConfig::new(geom()).stream_buffer(StreamBufferConfig::new(4)),
        );
        let multi = miss_rate(
            Microkernel::InterleavedStreams,
            AugmentedConfig::new(geom()).multi_way_stream_buffer(4, StreamBufferConfig::new(4)),
        );
        assert!(multi < single * 0.3, "interleaved: {single} → {multi}");

        // Column walk: needs stride detection.
        let seq = miss_rate(
            Microkernel::ColumnWalk,
            AugmentedConfig::new(geom()).multi_way_stream_buffer(4, StreamBufferConfig::new(4)),
        );
        let strided = miss_rate(
            Microkernel::ColumnWalk,
            AugmentedConfig::new(geom()).strided_stream_buffer(4, StreamBufferConfig::new(4), 128),
        );
        assert!(strided < seq * 0.3, "column-walk: {seq} → {strided}");
    }

    #[test]
    fn gather_and_chase_resist_every_mechanism() {
        for kernel in [Microkernel::Gather, Microkernel::PointerChase] {
            let bare = miss_rate(kernel, AugmentedConfig::new(geom()));
            let best = miss_rate(
                kernel,
                AugmentedConfig::new(geom())
                    .victim_cache(4)
                    .strided_stream_buffer(4, StreamBufferConfig::new(4), 128),
            );
            assert!(
                best > bare * 0.8,
                "{kernel}: {bare} → {best} should barely improve"
            );
        }
    }

    #[test]
    fn sources_are_replayable_and_named() {
        for k in Microkernel::ALL {
            let src = k.source(1_000, 3);
            let a: Vec<_> = src.refs().collect();
            let b: Vec<_> = src.refs().collect();
            assert_eq!(a, b, "{k} not deterministic");
            assert_eq!(a.len(), 1_000);
            assert_eq!(jouppi_trace::TraceSource::name(&src), k.name());
            assert_eq!(k.to_string(), k.name());
        }
    }
}
