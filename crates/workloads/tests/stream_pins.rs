//! Every generated reference stream, pinned: an FNV-1a digest of each
//! reference's address and kind, and the reference count, for the six
//! benchmarks at two (scale, seed) pairs and the seven microkernels at
//! one. A change to any draw, or to the order of the draws, changes the
//! digest.
//!
//! Each stream is digested through every path that produces it: the boxed
//! [`TraceSource::refs`], [`RecordedTrace::record`], and for a benchmark
//! the concrete generator that `/v1/simulate` drives with `for_each`.
//! So the generator's step-at-a-time `next` and its internal loop cannot
//! drift apart.
//!
//! The pins hold for x86_64 Linux: `Executor::new` and `TableLookup::new`
//! call `f64::powf`, which the platform's libm computes, and the weights
//! it returns choose callees and table ranks.

use jouppi_trace::{AccessKind, MemRef, RecordedTrace, TraceSource};
use jouppi_workloads::kernels::Microkernel;
use jouppi_workloads::Benchmark::{self, Ccom, Grr, Linpack, Liver, Met, Yacc};
use jouppi_workloads::Scale;

/// (benchmark, scale, seed, references, digest).
const BENCHMARK_PINS: [(Benchmark, u64, u64, u64, u64); 12] = [
    (Ccom, 20_000, 42, 28_970, 0x72dd_59b6_2bf9_af8f),
    (Ccom, 100_000, 901, 144_542, 0xa532_4edc_a206_b94f),
    (Grr, 20_000, 42, 28_799, 0x97d7_afdd_f7fa_45be),
    (Grr, 100_000, 901, 144_093, 0xe014_1073_0680_db05),
    (Yacc, 20_000, 42, 26_602, 0xee66_5b51_d93b_43eb),
    (Yacc, 100_000, 901, 133_004, 0x115b_f30f_71d4_0245),
    (Met, 20_000, 42, 30_142, 0xaff4_e8e0_f5a5_56be),
    (Met, 100_000, 901, 150_617, 0x0ebc_aa0b_9b71_1ef3),
    (Linpack, 20_000, 42, 25_623, 0x4676_56d0_5c0c_9727),
    (Linpack, 100_000, 901, 127_976, 0x5ffb_4eb2_5395_0dc1),
    (Liver, 20_000, 42, 26_276, 0xecff_9504_6c24_dbff),
    (Liver, 100_000, 901, 131_679, 0xff25_bf59_2808_2f1e),
];

/// Each microkernel's 50,000 loads at seed 42: (kernel, digest).
const KERNEL_PINS: [(Microkernel, u64); 7] = [
    (Microkernel::StringCompareConflict, 0xd56e_eb18_4ffd_a871),
    (Microkernel::ThreeWayConflict, 0xb0bc_9eb6_4e33_d5bd),
    (Microkernel::SequentialStream, 0xb58e_598d_d09e_3f95),
    (Microkernel::InterleavedStreams, 0x2ac9_bb7c_536f_9ce9),
    (Microkernel::ColumnWalk, 0x4657_74e8_e91a_48d1),
    (Microkernel::PointerChase, 0xa618_ca3e_b88f_eb35),
    (Microkernel::Gather, 0xa51f_98fa_34d1_75ac),
];

const KERNEL_REFS: u64 = 50_000;

/// `(references, FNV-1a digest)` of a stream, folding in each reference's
/// address as eight little-endian bytes, then its kind. It drives the
/// stream with `for_each`, so a concrete generator runs its own loop.
fn digest(refs: impl IntoIterator<Item = MemRef>) -> (u64, u64) {
    let (mut count, mut hash) = (0, 0xcbf2_9ce4_8422_2325_u64);
    refs.into_iter().for_each(|r| {
        let kind = match r.kind {
            AccessKind::InstrFetch => 0,
            AccessKind::Load => 1,
            AccessKind::Store => 2,
        };
        for byte in r.addr.get().to_le_bytes().into_iter().chain([kind]) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        count += 1;
    });
    (count, hash)
}

/// `(references, digest)` of a source through the boxed iterator and
/// through a recording, which must agree with each other.
fn digest_source(source: &dyn TraceSource) -> (u64, u64) {
    let boxed = digest(source.refs());
    let recorded = digest(RecordedTrace::record(source).as_slice().iter().copied());
    assert_eq!(recorded, boxed, "{}: recorded against boxed", source.name());
    boxed
}

#[test]
fn benchmark_streams_match_their_pins() {
    for (bench, scale, seed, refs, pinned) in BENCHMARK_PINS {
        let source = bench.source(Scale::new(scale), seed);
        let generated = digest(source.generator());
        assert_eq!(
            generated,
            (refs, pinned),
            "{bench} at scale {scale}, seed {seed}: generator's loop, (refs, digest {:#018x})",
            generated.1
        );
        assert_eq!(
            digest_source(&source),
            generated,
            "{bench} at scale {scale}, seed {seed}: boxed refs against the generator's loop"
        );
    }
}

#[test]
fn kernel_streams_match_their_pins() {
    for (kernel, pinned) in KERNEL_PINS {
        let actual = digest_source(&kernel.source(KERNEL_REFS, 42));
        assert_eq!(
            actual,
            (KERNEL_REFS, pinned),
            "{kernel}: (refs, digest {:#018x})",
            actual.1
        );
    }
}
