//! The six benchmark programs of Table 2-1, as synthetic generators.

use std::fmt;

use jouppi_trace::{MemRef, SmallRng, TraceSource};

use crate::data::{
    Daxpy, HotConflictSet, InterleavedSweep, Mixture, PointerChase, StackFrames, StridedSweep,
    StringCompare, TableLookup,
};
use crate::exec::{CodeLayout, ExecConfig, Executor};
use crate::gen::{Scale, TraceGen};

/// The direct-mapped cache image size the paper's baseline L1 has
/// (4KB with 16B lines): addresses congruent modulo this collide.
const CACHE_SPAN: u64 = 4096;

/// Program code segment base.
const CODE_BASE: u64 = 0x0100_0000;

/// Stack top (frames grow down from here).
const STACK_TOP: u64 = 0x7FFF_F000;

/// Data-region bases, one per logical structure, far apart and
/// `CACHE_SPAN`-aligned.
const REGION: [u64; 6] = [
    0x1000_0000,
    0x2000_0000,
    0x3000_0000,
    0x4000_0000,
    0x5000_0000,
    0x6000_0000,
];

/// One of the six test programs from Table 2-1 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// `ccom` — a C compiler: call-heavy code, string compares, pointer
    /// chasing over ASTs and symbol tables.
    Ccom,
    /// `grr` — PC-board CAD (routing): grid traversals and routing tables.
    Grr,
    /// `yacc` — parser generator: DFA table walks and a parser stack.
    Yacc,
    /// `met` — PC-board CAD: alternating accesses to a few structures that
    /// collide in the cache (the suite's highest conflict ratio).
    Met,
    /// `linpack` — 100×100 numeric: `daxpy` column sweeps.
    Linpack,
    /// `liver` — Livermore loops: 14 sequential vector kernels over
    /// interleaved operand arrays.
    Liver,
}

/// Reference data from the paper for one benchmark (Tables 2-1 and 2-2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperRow {
    /// Dynamic instructions in the original trace, in millions.
    pub dynamic_instr_m: f64,
    /// Data references in the original trace, in millions.
    pub data_refs_m: f64,
    /// The paper's "program type" column.
    pub program_type: &'static str,
    /// Baseline 4KB/16B instruction-cache miss rate (Table 2-2).
    pub baseline_instr_miss_rate: f64,
    /// Baseline 4KB/16B data-cache miss rate (Table 2-2).
    pub baseline_data_miss_rate: f64,
}

impl Benchmark {
    /// All six benchmarks in the paper's order.
    pub const ALL: [Benchmark; 6] = [
        Benchmark::Ccom,
        Benchmark::Grr,
        Benchmark::Yacc,
        Benchmark::Met,
        Benchmark::Linpack,
        Benchmark::Liver,
    ];

    /// The benchmark's name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Ccom => "ccom",
            Benchmark::Grr => "grr",
            Benchmark::Yacc => "yacc",
            Benchmark::Met => "met",
            Benchmark::Linpack => "linpack",
            Benchmark::Liver => "liver",
        }
    }

    /// Looks a benchmark up by its paper name (`"ccom"`, `"liver"`, …).
    ///
    /// # Examples
    ///
    /// ```
    /// use jouppi_workloads::Benchmark;
    /// assert_eq!(Benchmark::from_name("met"), Some(Benchmark::Met));
    /// assert_eq!(Benchmark::from_name("doom"), None);
    /// ```
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The paper's published characteristics and baseline miss rates.
    pub fn paper_row(self) -> PaperRow {
        match self {
            Benchmark::Ccom => PaperRow {
                dynamic_instr_m: 31.5,
                data_refs_m: 14.0,
                program_type: "C compiler",
                baseline_instr_miss_rate: 0.096,
                baseline_data_miss_rate: 0.120,
            },
            Benchmark::Grr => PaperRow {
                dynamic_instr_m: 134.2,
                data_refs_m: 59.2,
                program_type: "PC board CAD",
                baseline_instr_miss_rate: 0.061,
                baseline_data_miss_rate: 0.062,
            },
            Benchmark::Yacc => PaperRow {
                dynamic_instr_m: 51.0,
                data_refs_m: 16.7,
                program_type: "Unix utility",
                baseline_instr_miss_rate: 0.028,
                baseline_data_miss_rate: 0.040,
            },
            Benchmark::Met => PaperRow {
                dynamic_instr_m: 99.4,
                data_refs_m: 50.3,
                program_type: "PC board CAD",
                baseline_instr_miss_rate: 0.017,
                baseline_data_miss_rate: 0.039,
            },
            Benchmark::Linpack => PaperRow {
                dynamic_instr_m: 144.8,
                data_refs_m: 40.7,
                program_type: "100x100 numeric",
                baseline_instr_miss_rate: 0.000,
                baseline_data_miss_rate: 0.144,
            },
            Benchmark::Liver => PaperRow {
                dynamic_instr_m: 23.6,
                data_refs_m: 7.4,
                program_type: "LFK (numeric)",
                baseline_instr_miss_rate: 0.000,
                baseline_data_miss_rate: 0.273,
            },
        }
    }

    /// Average data references per instruction in the original trace.
    pub fn data_per_instr(self) -> f64 {
        let row = self.paper_row();
        row.data_refs_m / row.dynamic_instr_m
    }

    /// Creates a deterministic, replayable trace source for this
    /// benchmark.
    pub fn source(self, scale: Scale, seed: u64) -> WorkloadSource {
        WorkloadSource {
            benchmark: self,
            scale,
            seed,
        }
    }

    fn build(self, scale: Scale, seed: u64) -> TraceGen {
        // Separate the seed per benchmark so a suite run at one seed does
        // not correlate across programs.
        let mut rng = SmallRng::seed_from_u64(seed ^ (self as u64).wrapping_mul(0x9e37_79b9));
        match self {
            Benchmark::Ccom => build_ccom(scale, &mut rng),
            Benchmark::Grr => build_grr(scale, &mut rng),
            Benchmark::Yacc => build_yacc(scale, &mut rng),
            Benchmark::Met => build_met(scale, &mut rng),
            Benchmark::Linpack => build_linpack(scale, &mut rng),
            Benchmark::Liver => build_liver(scale, &mut rng),
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A replayable [`TraceSource`] for one benchmark at a fixed scale and
/// seed. Every call to [`TraceSource::refs`] regenerates the identical
/// trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WorkloadSource {
    benchmark: Benchmark,
    scale: Scale,
    seed: u64,
}

impl WorkloadSource {
    /// A fresh generator of the trace, from the beginning: the concrete
    /// iterator behind [`TraceSource::refs`]. Driven through `for_each` or
    /// `fold`, it generates with no dynamic call per reference.
    pub fn generator(&self) -> TraceGen {
        self.benchmark.build(self.scale, self.seed)
    }

    /// The benchmark this source generates.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The scale (dynamic instruction count).
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl TraceSource for WorkloadSource {
    fn refs(&self) -> Box<dyn Iterator<Item = MemRef> + '_> {
        Box::new(self.generator())
    }

    fn name(&self) -> &str {
        self.benchmark.name()
    }

    /// Fills the vector through the generator's own loop. It reserves room
    /// for two references per instruction, the most a trace can hold, so
    /// it never regrows; shrinking then frees the untouched rest.
    fn record_refs(&self) -> Vec<MemRef> {
        let bound = self.scale.instructions.saturating_mul(2);
        let mut refs = Vec::with_capacity(usize::try_from(bound).unwrap_or(usize::MAX));
        self.generator().for_each(|r| refs.push(r));
        refs.shrink_to_fit();
        refs
    }
}

/// Draws `n` procedure lengths uniformly from `lo..=hi` instructions.
fn proc_lengths(rng: &mut SmallRng, n: usize, lo: u32, hi: u32) -> Vec<u32> {
    (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
}

fn build_ccom(scale: Scale, rng: &mut SmallRng) -> TraceGen {
    // Call-heavy compiler: ~7k instructions of code (~28KB, 7 cache
    // images), moderate locality.
    let lengths = proc_lengths(rng, 48, 40, 240);
    let layout = CodeLayout::contiguous(CODE_BASE, &lengths);
    let exec = Executor::new(
        layout,
        ExecConfig {
            call_prob: 0.04,
            max_depth: 10,
            callee_skew: 1.38,
            sequential_dispatch: false,
        },
    );
    // Most data references go to hot, cache-resident state (stack frames,
    // small work buffers, a hot symbol-table fringe); the misses come from
    // string compares (part conflicting) and AST pointer chasing.
    let chase = PointerChase::new(REGION[2], 48, 4500, rng); // ~216KB AST heap
    let data = Mixture::new()
        .with_burst(
            1.05,
            48,
            StringCompare::new(REGION[0], REGION[1], 256 << 10, CACHE_SPAN, 0.13, 24, 120),
        )
        .with_burst(0.32, 8, chase)
        .with_burst(1.0, 4, TableLookup::new(REGION[3], 64, 16, 0.5)) // hot symtab fringe
        .with_burst(4.0, 8, StackFrames::new(STACK_TOP, 1 << 10, 96))
        .with_burst(3.0, 16, StridedSweep::new(REGION[4] + 1280, 8, 768)); // work buffers
    TraceGen::new(
        exec,
        data,
        rng.clone(),
        scale,
        Benchmark::Ccom.data_per_instr(),
        0.35,
    )
}

fn build_grr(scale: Scale, rng: &mut SmallRng) -> TraceGen {
    // Router: medium code footprint, grid-plane sweeps plus routing
    // tables, above-average data conflicts.
    let lengths = proc_lengths(rng, 32, 40, 160);
    let layout = CodeLayout::contiguous(CODE_BASE, &lengths);
    let exec = Executor::new(
        layout,
        ExecConfig {
            call_prob: 0.03,
            max_depth: 8,
            callee_skew: 1.35,
            sequential_dispatch: false,
        },
    );
    let data = Mixture::new()
        .with_burst(
            0.32,
            12,
            HotConflictSet::new(REGION[2] + 0x140, CACHE_SPAN, 2, 3),
        )
        .with_burst(0.24, 16, StridedSweep::new(REGION[0], 16, 96 << 10)) // grid plane
        .with_burst(3.0, 4, TableLookup::new(REGION[1], 64, 16, 0.5)) // hot route tables
        .with_burst(5.0, 8, StackFrames::new(STACK_TOP, 1 << 10, 64))
        .with_burst(1.2, 16, StridedSweep::new(REGION[3] + 1280, 8, 768)); // reused net list
    TraceGen::new(
        exec,
        data,
        rng.clone(),
        scale,
        Benchmark::Grr.data_per_instr(),
        0.30,
    )
}

fn build_yacc(scale: Scale, rng: &mut SmallRng) -> TraceGen {
    // Parser generator: small hot code, DFA tables, parser stack, token
    // buffer.
    let lengths = proc_lengths(rng, 24, 30, 120);
    let layout = CodeLayout::contiguous(CODE_BASE, &lengths);
    let exec = Executor::new(
        layout,
        ExecConfig {
            call_prob: 0.03,
            max_depth: 8,
            callee_skew: 1.55,
            sequential_dispatch: false,
        },
    );
    let data = Mixture::new()
        .with_burst(
            0.25,
            12,
            HotConflictSet::new(REGION[2] + 0xa20, CACHE_SPAN, 2, 3),
        )
        .with_burst(0.18, 16, StridedSweep::new(REGION[1], 4, 128 << 10)) // token scan
        .with_burst(0.12, 4, TableLookup::new(REGION[0], 3072, 8, 0.4)) // 24KB DFA cold part
        .with_burst(3.0, 4, TableLookup::new(REGION[3], 96, 8, 0.3)) // hot DFA rows
        .with_burst(3.0, 8, StackFrames::new(STACK_TOP, 1 << 10, 32))
        .with_burst(3.25, 8, StridedSweep::new(REGION[4] + 1280, 8, 768)); // value stack
    TraceGen::new(
        exec,
        data,
        rng.clone(),
        scale,
        Benchmark::Yacc.data_per_instr(),
        0.25,
    )
}

fn build_met(scale: Scale, rng: &mut SmallRng) -> TraceGen {
    // The conflict-miss showcase: most references go to a handful of hot
    // structures; several of them collide in a 4KB direct-mapped image.
    let lengths = proc_lengths(rng, 20, 30, 110);
    let layout = CodeLayout::contiguous(CODE_BASE, &lengths);
    let exec = Executor::new(
        layout,
        ExecConfig {
            call_prob: 0.025,
            max_depth: 6,
            callee_skew: 1.45,
            sequential_dispatch: false,
        },
    );
    let data = Mixture::new()
        .with_burst(
            0.36,
            24,
            HotConflictSet::new(REGION[0] + 0x100, CACHE_SPAN, 3, 4),
        )
        .with_burst(
            0.25,
            8,
            HotConflictSet::new(REGION[1] + 0x980, CACHE_SPAN, 2, 2),
        )
        .with_burst(0.06, 16, StridedSweep::new(REGION[3], 16, 64 << 10))
        .with_burst(3.0, 4, TableLookup::new(REGION[2], 64, 16, 0.6)) // hot cell table
        .with_burst(4.0, 8, StackFrames::new(STACK_TOP, 1 << 10, 48))
        .with_burst(2.0, 16, StridedSweep::new(REGION[4] + 1280, 8, 768)); // wavefront
    TraceGen::new(
        exec,
        data,
        rng.clone(),
        scale,
        Benchmark::Met.data_per_instr(),
        0.35,
    )
}

fn build_linpack(scale: Scale, rng: &mut SmallRng) -> TraceGen {
    // Tiny loop kernel, one big matrix: the inner daxpy dominates.
    let layout = CodeLayout::contiguous(CODE_BASE, &[40, 60, 24, 30])
        .with_loop(1, 10, 50, 20) // dgefa column loop
        .with_loop(2, 4, 20, 200); // daxpy inner loop
    let exec = Executor::new(
        layout,
        ExecConfig {
            call_prob: 0.015,
            max_depth: 6,
            callee_skew: 1.0,
            sequential_dispatch: false,
        },
    );
    let data = Mixture::new()
        .with_burst(3.6, 60, Daxpy::new(REGION[0], 100, 201))
        .with_burst(1.0, 8, StackFrames::new(STACK_TOP, 1 << 10, 64))
        .with_burst(2.9, 16, StridedSweep::new(REGION[1] + 2048, 8, 768)); // pivot bookkeeping
    TraceGen::new(
        exec,
        data,
        rng.clone(),
        scale,
        Benchmark::Linpack.data_per_instr(),
        0.33,
    )
}

fn build_liver(scale: Scale, rng: &mut SmallRng) -> TraceGen {
    // 14 kernels executed in sequence, each a tight vector loop over
    // interleaved operand arrays larger than the cache.
    let lengths = proc_lengths(rng, 14, 40, 90);
    let mut layout = CodeLayout::contiguous(CODE_BASE, &lengths);
    for (i, &len) in lengths.iter().enumerate() {
        layout = layout.with_loop(i, 4, len - 2, 400);
    }
    let exec = Executor::new(
        layout,
        ExecConfig {
            call_prob: 0.0,
            max_depth: 2,
            callee_skew: 0.0,
            sequential_dispatch: true,
        },
    );
    // Operand arrays are staggered by a non-multiple of the 4KB cache
    // image so parallel streams do not alias each other's sets.
    let data = Mixture::new()
        .with_burst(
            2.7,
            48,
            InterleavedSweep::new(
                vec![
                    REGION[0],
                    REGION[0] + (1 << 20) + 1040,
                    REGION[0] + (2 << 20) + 2080,
                ],
                8,
                128 << 10,
            ),
        )
        .with_burst(
            1.8,
            32,
            InterleavedSweep::new(vec![REGION[1], REGION[1] + (1 << 20) + 1360], 8, 96 << 10),
        )
        .with_burst(4.5, 8, StridedSweep::new(REGION[2] + 1280, 8, 640)); // reused scalars
    TraceGen::new(
        exec,
        data,
        rng.clone(),
        scale,
        Benchmark::Liver.data_per_instr(),
        0.28,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use jouppi_trace::TraceStats;

    #[test]
    fn all_benchmarks_generate_requested_instructions() {
        for b in Benchmark::ALL {
            let src = b.source(Scale::new(20_000), 1);
            let stats = TraceStats::from_refs(src.refs());
            assert_eq!(
                stats.instruction_refs, 20_000,
                "{b} wrong instruction count"
            );
        }
    }

    #[test]
    fn data_ratios_match_table_2_1() {
        for b in Benchmark::ALL {
            let src = b.source(Scale::new(100_000), 2);
            let stats = TraceStats::from_refs(src.refs());
            let want = b.data_per_instr();
            let got = stats.data_per_instr();
            assert!(
                (got - want).abs() < 0.02,
                "{b}: data/instr {got:.3} vs paper {want:.3}"
            );
        }
    }

    #[test]
    fn traces_are_deterministic() {
        for b in Benchmark::ALL {
            let src = b.source(Scale::new(5_000), 7);
            let a: Vec<_> = src.refs().collect();
            let b2: Vec<_> = src.refs().collect();
            assert_eq!(a, b2, "{b} trace not replayable");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = Benchmark::Ccom
            .source(Scale::new(5_000), 1)
            .refs()
            .collect();
        let b: Vec<_> = Benchmark::Ccom
            .source(Scale::new(5_000), 2)
            .refs()
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn benchmarks_differ_from_each_other() {
        let a: Vec<_> = Benchmark::Ccom
            .source(Scale::new(5_000), 1)
            .refs()
            .collect();
        let b: Vec<_> = Benchmark::Yacc
            .source(Scale::new(5_000), 1)
            .refs()
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn from_name_roundtrips() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::from_name("nope"), None);
        assert_eq!(Benchmark::from_name(""), None);
    }

    #[test]
    fn paper_rows_are_complete() {
        let mut names = std::collections::BTreeSet::new();
        for b in Benchmark::ALL {
            let row = b.paper_row();
            assert!(row.dynamic_instr_m > 0.0);
            assert!(row.data_refs_m > 0.0);
            assert!(!row.program_type.is_empty());
            assert!(names.insert(b.name()));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn source_accessors() {
        let src = Benchmark::Met.source(Scale::new(1_000), 9);
        assert_eq!(src.benchmark(), Benchmark::Met);
        assert_eq!(src.scale(), Scale::new(1_000));
        assert_eq!(src.seed(), 9);
        assert_eq!(jouppi_trace::TraceSource::name(&src), "met");
    }

    #[test]
    fn numeric_benchmarks_have_tiny_instruction_footprints() {
        use jouppi_trace::AccessKind;
        for b in [Benchmark::Linpack, Benchmark::Liver] {
            let src = b.source(Scale::new(50_000), 3);
            let distinct: std::collections::BTreeSet<u64> = src
                .refs()
                .filter(|r| r.kind == AccessKind::InstrFetch)
                .map(|r| r.addr.get() / 16)
                .collect();
            assert!(
                distinct.len() < 256,
                "{b}: {} instruction lines won't fit 4KB",
                distinct.len()
            );
        }
    }
}
