//! Data-reference patterns: the building blocks of the six workloads.
//!
//! Every behaviour the paper's data-cache results rest on appears here as
//! a reusable, seeded generator:
//!
//! * [`StridedSweep`] — one long unit-(or larger-)stride stream over a
//!   region bigger than the cache (sequential capacity misses; stream
//!   buffers eat these).
//! * [`InterleavedSweep`] — several arrays walked in lockstep (Livermore
//!   kernels; the multi-way stream buffer's reason to exist).
//! * [`Daxpy`] — LINPACK's inner loop: a cached `x` column against a
//!   streaming `y` column with a store per element.
//! * [`StringCompare`] — the paper's canonical tight conflict: two
//!   pointers advanced alternately, sometimes landing on the same cache
//!   set (§3.1's character-string example).
//! * [`HotConflictSet`] — a persistent group of lines mapping to one set,
//!   rotated forever (`met`'s dominant pattern).
//! * [`PointerChase`] — a random cyclic permutation walk over a heap
//!   region (compiler/CAD data structures; capacity misses a victim cache
//!   cannot help).
//! * [`TableLookup`] — skewed random lookups into a table (yacc's DFA
//!   tables, symbol tables).
//! * [`StackFrames`] — procedure frames pushed and popped near the top of
//!   stack (high locality, few misses).
//! * [`Transpose`] — a row walk of a column-major matrix (a constant
//!   non-unit stride).
//! * [`GatherScatter`] — index loads driving random target loads.
//! * [`Pattern`] — any one of the above.
//! * [`Mixture`] — a weighted blend of patterns.
//!
//! Every pattern's `next_addr` is deterministic given the `SmallRng`
//! handed in (the workload owns one seeded RNG shared by all its
//! patterns).

use jouppi_trace::{Addr, SmallRng};

/// One stream sweeping a region with a fixed stride, wrapping at the end.
///
/// # Examples
///
/// ```
/// use jouppi_trace::SmallRng;
/// use jouppi_workloads::data::StridedSweep;
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut s = StridedSweep::new(0x1000, 8, 32);
/// let addrs: Vec<u64> = (0..5).map(|_| s.next_addr(&mut rng).get()).collect();
/// assert_eq!(addrs, vec![0x1000, 0x1008, 0x1010, 0x1018, 0x1000]);
/// ```
#[derive(Clone, Debug)]
pub struct StridedSweep {
    base: u64,
    /// The stride reduced modulo `region`, so one subtraction wraps.
    stride: u64,
    region: u64,
    /// Always below `region`.
    pos: u64,
}

impl StridedSweep {
    /// Sweeps `region` bytes starting at `base`, advancing `stride` bytes
    /// per reference.
    ///
    /// # Panics
    ///
    /// Panics if `stride` or `region` is zero.
    pub fn new(base: u64, stride: u64, region: u64) -> Self {
        assert!(
            stride > 0 && region > 0,
            "stride and region must be nonzero"
        );
        StridedSweep {
            base,
            stride: stride % region,
            region,
            pos: 0,
        }
    }

    /// Produces the next data address.
    #[inline]
    pub fn next_addr(&mut self, _rng: &mut SmallRng) -> Addr {
        let addr = Addr::new(self.base + self.pos);
        self.pos = wrap_add(self.pos, self.stride, self.region);
        addr
    }
}

/// `(pos + stride) % region` for `pos` and `stride` below `region`,
/// without a division: their sum is below `2 * region`.
#[inline]
fn wrap_add(pos: u64, stride: u64, region: u64) -> u64 {
    let next = pos + stride;
    if next >= region {
        next - region
    } else {
        next
    }
}

/// Several arrays walked in lockstep at the same element index —
/// `x[i] = y[i] * z[i]` and friends.
#[derive(Clone, Debug)]
pub struct InterleavedSweep {
    bases: Vec<u64>,
    /// The stride reduced modulo `region`, as in [`StridedSweep`].
    stride: u64,
    region: u64,
    pos: u64,
    way: usize,
}

impl InterleavedSweep {
    /// Walks each of `bases` with the given element stride over `region`
    /// bytes, cycling base-by-base before advancing the index.
    ///
    /// # Panics
    ///
    /// Panics if `bases` is empty or `stride`/`region` is zero.
    pub fn new(bases: Vec<u64>, stride: u64, region: u64) -> Self {
        assert!(!bases.is_empty(), "need at least one array");
        assert!(
            stride > 0 && region > 0,
            "stride and region must be nonzero"
        );
        InterleavedSweep {
            bases,
            stride: stride % region,
            region,
            pos: 0,
            way: 0,
        }
    }

    /// Number of interleaved streams.
    pub fn ways(&self) -> usize {
        self.bases.len()
    }

    /// Produces the next data address.
    #[inline]
    pub fn next_addr(&mut self, _rng: &mut SmallRng) -> Addr {
        let addr = Addr::new(self.bases[self.way] + self.pos);
        self.way += 1;
        if self.way == self.bases.len() {
            self.way = 0;
            self.pos = wrap_add(self.pos, self.stride, self.region);
        }
        addr
    }
}

/// LINPACK's `daxpy` kernel over an `n`×`n` (leading dimension `lda`)
/// column-major matrix of f64: for each target column `j`, stream
/// `y[i] += a * x[i]` — two loads and a store per element, with the `x`
/// column reused across all `j`.
///
/// The standard 100×100 LINPACK declares its array `201×200`, so the
/// column stride is `lda` = 201 elements, not `n`; the resulting odd byte
/// stride staggers columns across cache sets just as in the real
/// benchmark.
#[derive(Clone, Debug)]
pub struct Daxpy {
    base: u64,
    n: u64,
    lda: u64,
    k: u64,
    j: u64,
    i: u64,
    phase: u8,
}

/// Bytes per matrix element (f64).
const F64_BYTES: u64 = 8;

impl Daxpy {
    /// A fresh factorization sweep over an `n`×`n` matrix at `base` with
    /// leading dimension `lda` (in elements).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `lda < n`.
    pub fn new(base: u64, n: u64, lda: u64) -> Self {
        assert!(n >= 2, "daxpy needs at least a 2x2 matrix");
        assert!(lda >= n, "leading dimension must cover the matrix");
        Daxpy {
            base,
            n,
            lda,
            k: 0,
            j: 1,
            i: 0,
            phase: 0,
        }
    }

    fn col_addr(&self, col: u64, row: u64) -> u64 {
        self.base + col * self.lda * F64_BYTES + row * F64_BYTES
    }

    /// Produces the next data address.
    #[inline]
    pub fn next_addr(&mut self, _rng: &mut SmallRng) -> Addr {
        let addr = match self.phase {
            0 => self.col_addr(self.k, self.i), // load x[i]
            _ => self.col_addr(self.j, self.i), // load then store y[i]
        };
        self.phase += 1;
        if self.phase == 3 {
            self.phase = 0;
            self.i += 1;
            if self.i == self.n {
                self.i = 0;
                self.j += 1;
                if self.j == self.n {
                    // next elimination step: new pivot column
                    self.k = (self.k + 1) % self.n;
                    self.j = if self.k == 0 { 1 } else { 0 };
                }
                if self.j == self.k {
                    self.j += 1;
                    if self.j == self.n {
                        self.k = (self.k + 1) % self.n;
                        self.j = if self.k == 0 { 1 } else { 0 };
                    }
                }
            }
        }
        Addr::new(addr)
    }
}

/// The §3.1 string-compare conflict: two pointers advanced alternately
/// through episodes, landing on the same cache set with probability
/// `conflict_prob`.
#[derive(Clone, Debug)]
pub struct StringCompare {
    region_a: u64,
    region_b: u64,
    region_len: u64,
    /// Cache span that determines set collisions (line size × number of
    /// sets of the reference cache, 4096 for the paper's 4KB/16B L1).
    cache_span: u64,
    conflict_prob: f64,
    min_len: u64,
    max_len: u64,
    // episode state
    a: u64,
    b: u64,
    off: u64,
    remaining: u64,
    second: bool,
}

impl StringCompare {
    /// Compares strings drawn from two `region_len`-byte regions at
    /// `region_a`/`region_b`; with probability `conflict_prob` an episode's
    /// two strings collide in a cache whose size is `cache_span` bytes
    /// (direct-mapped). Episode lengths are uniform in
    /// `min_len..=max_len` byte pairs.
    ///
    /// # Panics
    ///
    /// Panics if the regions are smaller than `cache_span + max_len`, if
    /// `min_len > max_len`, or if `conflict_prob` is outside `[0, 1]`.
    pub fn new(
        region_a: u64,
        region_b: u64,
        region_len: u64,
        cache_span: u64,
        conflict_prob: f64,
        min_len: u64,
        max_len: u64,
    ) -> Self {
        assert!(min_len >= 1 && min_len <= max_len, "bad episode lengths");
        assert!(
            (0.0..=1.0).contains(&conflict_prob),
            "conflict_prob must be a probability"
        );
        assert!(
            region_len >= cache_span + max_len,
            "regions must span at least one full cache image"
        );
        StringCompare {
            region_a,
            region_b,
            region_len,
            cache_span,
            conflict_prob,
            min_len,
            max_len,
            a: region_a,
            b: region_b,
            off: 0,
            remaining: 0,
            second: false,
        }
    }

    fn new_episode(&mut self, rng: &mut SmallRng) {
        let len = rng.gen_range(self.min_len..=self.max_len);
        let max_start = self.region_len - len;
        let a_off = rng.gen_range(0..max_start) & !3; // word-align
        self.a = self.region_a + a_off;
        self.b = if rng.gen_bool(self.conflict_prob) {
            // Same index bits: b ≡ a (mod cache_span). Both regions are
            // cache_span-aligned by construction of the workloads.
            let congruent = a_off % self.cache_span;
            let images = (self.region_len - congruent - len) / self.cache_span;
            let k = rng.gen_range(0..=images);
            self.region_b + congruent + k * self.cache_span
        } else {
            self.region_b + (rng.gen_range(0..max_start) & !3)
        };
        self.off = 0;
        self.remaining = len;
        self.second = false;
    }

    /// Produces the next data address.
    #[inline]
    pub fn next_addr(&mut self, rng: &mut SmallRng) -> Addr {
        if self.remaining == 0 {
            self.new_episode(rng);
        }
        let addr = if self.second {
            self.b + self.off
        } else {
            self.a + self.off
        };
        if self.second {
            self.off += 4;
            self.remaining = self.remaining.saturating_sub(4);
        }
        self.second = !self.second;
        Addr::new(addr)
    }
}

/// A persistent group of addresses that all map to the same cache set,
/// referenced round-robin — `met`'s dominant pattern, and the purest
/// possible conflict-miss generator.
#[derive(Clone, Debug)]
pub struct HotConflictSet {
    lines: Vec<u64>,
    dwell: u64,
    idx: usize,
    used: u64,
}

impl HotConflictSet {
    /// Rotates over `ways` addresses spaced exactly `cache_span` bytes
    /// apart starting at `base`, spending `dwell` consecutive references
    /// on each before moving on.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or `dwell` is zero.
    pub fn new(base: u64, cache_span: u64, ways: usize, dwell: u64) -> Self {
        assert!(ways > 0, "need at least one way");
        assert!(dwell > 0, "dwell must be nonzero");
        HotConflictSet {
            lines: (0..ways as u64).map(|i| base + i * cache_span).collect(),
            dwell,
            idx: 0,
            used: 0,
        }
    }

    /// The number of conflicting addresses in the set.
    pub fn ways(&self) -> usize {
        self.lines.len()
    }

    /// Produces the next data address.
    #[inline]
    pub fn next_addr(&mut self, rng: &mut SmallRng) -> Addr {
        let addr = self.lines[self.idx] + (rng.gen_range(0..4u64)) * 4;
        self.used += 1;
        if self.used == self.dwell {
            self.used = 0;
            self.idx = (self.idx + 1) % self.lines.len();
        }
        Addr::new(addr)
    }
}

/// A walk over a random cyclic permutation of heap nodes — pointer-rich
/// data structures with no spatial locality.
#[derive(Clone, Debug)]
pub struct PointerChase {
    base: u64,
    node_bytes: u64,
    next: Vec<u32>,
    cur: u32,
}

impl PointerChase {
    /// Builds one random cycle over `count` nodes of `node_bytes` each,
    /// laid out contiguously at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero, exceeds `u32::MAX`, or `node_bytes` is
    /// zero.
    pub fn new(base: u64, node_bytes: u64, count: usize, rng: &mut SmallRng) -> Self {
        assert!(count > 0 && count <= u32::MAX as usize, "bad node count");
        assert!(node_bytes > 0, "nodes must have nonzero size");
        // Sattolo's algorithm: a uniform random single cycle.
        let mut order: Vec<u32> = (0..count as u32).collect();
        let mut i = count - 1;
        while i > 0 {
            let j = rng.gen_range(0..i);
            order.swap(i, j);
            i -= 1;
        }
        // order is a permutation; make `next` follow the cycle it encodes.
        let mut next = vec![0u32; count];
        for w in 0..count {
            next[order[w] as usize] = order[(w + 1) % count];
        }
        PointerChase {
            base,
            node_bytes,
            next,
            cur: 0,
        }
    }

    /// Total bytes the chase touches.
    pub fn footprint(&self) -> u64 {
        self.node_bytes * self.next.len() as u64
    }

    /// Produces the next data address.
    #[inline]
    pub fn next_addr(&mut self, _rng: &mut SmallRng) -> Addr {
        let addr = self.base + u64::from(self.cur) * self.node_bytes;
        self.cur = self.next[self.cur as usize];
        Addr::new(addr)
    }
}

/// Skewed random lookups into a table (DFA transition tables, symbol
/// tables). Rank `r` is selected with probability ∝ 1/(r+1)^`skew`.
#[derive(Clone, Debug)]
pub struct TableLookup {
    base: u64,
    entry_bytes: u64,
    cum: Vec<f64>,
}

impl TableLookup {
    /// Looks up entries of `entry_bytes` each in a table of `entries` at
    /// `base`, with Zipf-like skew (0.0 = uniform).
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `entry_bytes` is zero, or if the rank
    /// weights' total is not finite and positive (a NaN `skew`, or one so
    /// negative that a weight overflows).
    pub fn new(base: u64, entries: usize, entry_bytes: u64, skew: f64) -> Self {
        assert!(entries > 0 && entry_bytes > 0, "empty table");
        let cum = zipf_cumulative(entries, skew);
        TableLookup {
            base,
            entry_bytes,
            cum,
        }
    }

    /// Produces the next data address.
    #[inline]
    pub fn next_addr(&mut self, rng: &mut SmallRng) -> Addr {
        let total = *self.cum.last().expect("nonempty table");
        let x: f64 = rng.gen_range(0.0..total);
        let rank = self.cum.partition_point(|&c| c < x).min(self.cum.len() - 1);
        Addr::new(self.base + rank as u64 * self.entry_bytes)
    }
}

/// Cumulative Zipf-like weights over `n` ranks: rank `r` weighs
/// 1/(r+1)^`skew`.
///
/// # Panics
///
/// Panics if the total is not finite and positive: a draw scales a
/// uniform number by it, so a NaN or infinite total would pick ranks
/// unrelated to the weights, or none at all.
pub(crate) fn zipf_cumulative(n: usize, skew: f64) -> Vec<f64> {
    let mut cum = Vec::with_capacity(n);
    let mut acc = 0.0;
    for r in 0..n {
        acc += 1.0 / ((r + 1) as f64).powf(skew);
        cum.push(acc);
    }
    assert!(
        acc.is_finite() && acc > 0.0,
        "rank weights with skew {skew} total {acc}; the total must be finite and positive"
    );
    cum
}

/// Procedure frames pushed and popped near the top of stack — dense
/// sequential references with high reuse.
#[derive(Clone, Debug)]
pub struct StackFrames {
    top: u64,
    max_depth_bytes: u64,
    frame_bytes: u64,
    sp: u64,
}

impl StackFrames {
    /// A stack growing down from `top`, at most `max_depth_bytes` deep,
    /// with `frame_bytes` frames.
    ///
    /// # Panics
    ///
    /// Panics if `frame_bytes` is zero or exceeds `max_depth_bytes`.
    pub fn new(top: u64, max_depth_bytes: u64, frame_bytes: u64) -> Self {
        assert!(
            frame_bytes > 0 && frame_bytes <= max_depth_bytes,
            "bad frame size"
        );
        StackFrames {
            top,
            max_depth_bytes,
            frame_bytes,
            sp: 0,
        }
    }

    /// Produces the next data address.
    #[inline]
    pub fn next_addr(&mut self, rng: &mut SmallRng) -> Addr {
        // Random walk of the frame pointer, referencing within the frame.
        let r: f64 = rng.next_f64();
        if r < 0.1 && self.sp + self.frame_bytes <= self.max_depth_bytes {
            self.sp += self.frame_bytes; // call
        } else if r < 0.2 && self.sp >= self.frame_bytes {
            self.sp -= self.frame_bytes; // return
        }
        let off = rng.gen_range(0..self.frame_bytes / 4) * 4;
        Addr::new(self.top - self.sp - off)
    }
}

/// A row-major walk over a column-major matrix: consecutive references
/// jump a full column (`lda` elements), the canonical non-unit-stride
/// pattern §5 flags for future work.
#[derive(Clone, Debug)]
pub struct Transpose {
    base: u64,
    n: u64,
    lda_bytes: u64,
    elem: u64,
    i: u64,
    j: u64,
}

impl Transpose {
    /// Walks an `n`×`n` matrix of 8-byte elements at `base` with leading
    /// dimension `lda` (elements), row index outer, column index inner.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `lda < n`.
    pub fn new(base: u64, n: u64, lda: u64) -> Self {
        assert!(n > 0, "matrix must be nonempty");
        assert!(lda >= n, "leading dimension must cover the matrix");
        Transpose {
            base,
            n,
            lda_bytes: lda * 8,
            elem: 8,
            i: 0,
            j: 0,
        }
    }

    /// The byte stride between consecutive references.
    pub fn stride_bytes(&self) -> u64 {
        self.lda_bytes
    }

    /// Produces the next data address.
    #[inline]
    pub fn next_addr(&mut self, _rng: &mut SmallRng) -> Addr {
        let addr = self.base + self.j * self.lda_bytes + self.i * self.elem;
        self.j += 1;
        if self.j == self.n {
            self.j = 0;
            self.i = (self.i + 1) % self.n;
        }
        Addr::new(addr)
    }
}

/// Data-dependent indirection: `a[idx[i]]` with random indices — the
/// access pattern no sequential or strided prefetcher can help, because
/// the next address is unpredictable until the index loads.
#[derive(Clone, Debug)]
pub struct GatherScatter {
    index_base: u64,
    target_base: u64,
    targets: u64,
    elem: u64,
    i: u64,
    count: u64,
    phase: bool,
}

impl GatherScatter {
    /// Gathers from `targets` elements of `elem` bytes at `target_base`,
    /// driven by a sequential index array at `index_base` (each gather is
    /// an index load followed by a random target load).
    ///
    /// # Panics
    ///
    /// Panics if `targets` or `elem` is zero.
    pub fn new(index_base: u64, target_base: u64, targets: u64, elem: u64) -> Self {
        assert!(targets > 0 && elem > 0, "empty gather target");
        GatherScatter {
            index_base,
            target_base,
            targets,
            elem,
            i: 0,
            count: 0,
            phase: false,
        }
    }

    /// Produces the next data address.
    #[inline]
    pub fn next_addr(&mut self, rng: &mut SmallRng) -> Addr {
        if self.phase {
            self.phase = false;
            let idx = rng.gen_range(0..self.targets);
            Addr::new(self.target_base + idx * self.elem)
        } else {
            self.phase = true;
            self.count += 1;
            self.i = (self.i + 1) % (1 << 20);
            Addr::new(self.index_base + self.i * 4)
        }
    }
}

/// Declares [`Pattern`] over the pattern types: a variant and a `From`
/// for each, and the `match` that draws from whichever one it holds.
macro_rules! patterns {
    ($($kind:ident),* $(,)?) => {
        /// One data pattern of any kind: what a [`Mixture`] blends and a
        /// microkernel runs. An enum over the closed set of kinds in this
        /// module, so drawing an address is a `match`, not a virtual call.
        #[derive(Clone, Debug)]
        pub enum Pattern {
            $(
                #[doc = concat!("A [`", stringify!($kind), "`].")]
                $kind($kind),
            )*
        }

        impl Pattern {
            /// Produces the next data address.
            #[inline]
            pub fn next_addr(&mut self, rng: &mut SmallRng) -> Addr {
                match self {
                    $(Pattern::$kind(pattern) => pattern.next_addr(rng),)*
                }
            }
        }

        $(
            impl From<$kind> for Pattern {
                fn from(pattern: $kind) -> Self {
                    Pattern::$kind(pattern)
                }
            }
        )*
    };
}

patterns!(
    StridedSweep,
    InterleavedSweep,
    Daxpy,
    StringCompare,
    HotConflictSet,
    PointerChase,
    TableLookup,
    StackFrames,
    Transpose,
    GatherScatter,
);

/// A weighted blend of patterns with *burst* scheduling: when a pattern
/// is selected it runs for a burst of consecutive references before the
/// mixture draws again.
///
/// Bursts model the loop structure of real programs — a string compare or
/// vector kernel issues dozens of consecutive references before control
/// moves elsewhere. This temporal clustering is load-bearing: the paper's
/// miss caches and stream buffers only work because a pattern's misses
/// arrive back-to-back, not shuffled uniformly among other misses.
///
/// A pattern's expected share of references is proportional to its weight
/// regardless of its burst length (selection probability is divided by
/// the burst length).
///
/// # Examples
///
/// ```
/// use jouppi_trace::SmallRng;
/// use jouppi_workloads::data::{Mixture, StridedSweep, TableLookup};
///
/// let mut rng = SmallRng::seed_from_u64(3);
/// let mut mix = Mixture::new()
///     .with_burst(3.0, 16, StridedSweep::new(0x10_000, 8, 1 << 16))
///     .with(1.0, TableLookup::new(0x90_000, 256, 16, 1.0));
/// let _addr = mix.next_addr(&mut rng);
/// ```
#[derive(Debug, Default)]
pub struct Mixture {
    entries: Vec<MixEntry>,
    /// Cumulative selection weights (weight / burst).
    cum: Vec<f64>,
    total: f64,
    /// The entry whose burst is running, while `remaining > 0`.
    current: usize,
    remaining: u32,
}

#[derive(Debug)]
struct MixEntry {
    burst: u32,
    pattern: Pattern,
}

impl Mixture {
    /// An empty mixture. At least one pattern must be added before use.
    pub fn new() -> Self {
        Mixture::default()
    }

    /// Adds a pattern with the given relative weight and a burst length
    /// of one (every reference re-draws).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite and positive.
    #[must_use]
    pub fn with(self, weight: f64, pattern: impl Into<Pattern>) -> Self {
        self.with_burst(weight, 1, pattern)
    }

    /// Adds a pattern that runs `burst` consecutive references each time
    /// it is selected, still receiving `weight`'s proportional share of
    /// references overall.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite and positive, or `burst` is zero.
    #[must_use]
    pub fn with_burst(mut self, weight: f64, burst: u32, pattern: impl Into<Pattern>) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "weights must be positive"
        );
        assert!(burst > 0, "burst length must be nonzero");
        self.total += weight / f64::from(burst);
        self.cum.push(self.total);
        self.entries.push(MixEntry {
            burst,
            pattern: pattern.into(),
        });
        self
    }

    /// Number of component patterns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the mixture has no components.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Produces the next data address, drawing a new pattern when the
    /// running burst is spent.
    ///
    /// # Panics
    ///
    /// Panics if the mixture is empty.
    #[inline]
    pub fn next_addr(&mut self, rng: &mut SmallRng) -> Addr {
        if self.remaining == 0 {
            let x: f64 = rng.gen_range(0.0..self.total);
            self.current = self
                .cum
                .partition_point(|c| *c < x)
                .min(self.entries.len() - 1);
            self.remaining = self.entries[self.current].burst;
        }
        self.remaining -= 1;
        self.entries[self.current].pattern.next_addr(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    #[test]
    fn strided_sweep_wraps() {
        let mut r = rng();
        let mut s = StridedSweep::new(100, 16, 48);
        let seq: Vec<u64> = (0..6).map(|_| s.next_addr(&mut r).get()).collect();
        assert_eq!(seq, vec![100, 116, 132, 100, 116, 132]);
    }

    #[test]
    fn sweeps_wrap_as_the_remainder_does() {
        let mut r = rng();
        for (stride, region) in [(8, 768), (16, 48), (40, 32), (32, 32), (7, 5)] {
            let mut s = StridedSweep::new(100, stride, region);
            let mut t = InterleavedSweep::new(vec![100, 1 << 20], stride, region);
            let mut pos = 0;
            for _ in 0..50 {
                let at = format!("stride {stride}, region {region}, pos {pos}");
                assert_eq!(s.next_addr(&mut r).get(), 100 + pos, "{at}");
                assert_eq!(t.next_addr(&mut r).get(), 100 + pos, "{at}");
                assert_eq!(t.next_addr(&mut r).get(), (1 << 20) + pos, "{at}");
                pos = (pos + stride) % region;
            }
        }
    }

    #[test]
    fn interleaved_sweep_cycles_arrays_then_advances() {
        let mut r = rng();
        let mut s = InterleavedSweep::new(vec![0, 1000], 8, 32);
        let seq: Vec<u64> = (0..6).map(|_| s.next_addr(&mut r).get()).collect();
        assert_eq!(seq, vec![0, 1000, 8, 1008, 16, 1016]);
        assert_eq!(s.ways(), 2);
    }

    #[test]
    fn daxpy_reuses_x_column_and_streams_y() {
        let mut r = rng();
        let n = 4;
        let mut d = Daxpy::new(0, n, n);
        // First element of the first daxpy: x[0] (col 0), y[0], y[0] (col 1).
        let a0 = d.next_addr(&mut r).get();
        let a1 = d.next_addr(&mut r).get();
        let a2 = d.next_addr(&mut r).get();
        assert_eq!(a0, 0); // col 0, row 0
        assert_eq!(a1, n * 8); // col 1, row 0
        assert_eq!(a2, a1); // store to the same element
    }

    #[test]
    fn daxpy_skips_pivot_column_as_target() {
        let mut r = rng();
        let n = 3;
        let mut d = Daxpy::new(0, n, n);
        // Walk a full elimination step (k=0): targets must be cols 1 and 2.
        let mut targets = std::collections::BTreeSet::new();
        for _ in 0..(3 * n * (n - 1)) {
            let phase0 = d.phase == 0;
            let a = d.next_addr(&mut r).get();
            if !phase0 {
                targets.insert(a / (n * 8));
            }
        }
        assert!(!targets.contains(&0), "pivot column must not be a target");
    }

    #[test]
    fn string_compare_alternates_and_advances() {
        let mut r = rng();
        let mut s = StringCompare::new(0, 1 << 20, 1 << 19, 4096, 0.0, 64, 64);
        let a0 = s.next_addr(&mut r).get();
        let b0 = s.next_addr(&mut r).get();
        let a1 = s.next_addr(&mut r).get();
        let b1 = s.next_addr(&mut r).get();
        assert_eq!(a1, a0 + 4);
        assert_eq!(b1, b0 + 4);
        assert!(a0 < 1 << 19);
        assert!(b0 >= 1 << 20);
    }

    #[test]
    fn string_compare_conflict_prob_one_collides_sets() {
        let mut r = rng();
        // Regions are 4096-aligned, so congruence mod 4096 ⇒ same set.
        let mut s = StringCompare::new(0, 1 << 20, 1 << 19, 4096, 1.0, 32, 32);
        for _ in 0..50 {
            let a = s.next_addr(&mut r).get();
            let b = s.next_addr(&mut r).get();
            assert_eq!(a % 4096, b % 4096, "episode pair must collide");
        }
    }

    #[test]
    fn hot_conflict_set_rotates_same_set_addresses() {
        let mut r = rng();
        let mut h = HotConflictSet::new(0x8000, 4096, 3, 2);
        let addrs: Vec<u64> = (0..12).map(|_| h.next_addr(&mut r).get()).collect();
        // All congruent mod 4096 up to the sub-line jitter (<16B).
        for a in &addrs {
            assert_eq!((a & !15) % 4096, 0x8000 % 4096);
        }
        // Dwell 2: address line changes every 2 refs.
        assert_eq!(addrs[0] & !15, addrs[1] & !15);
        assert_ne!(addrs[1] & !15, addrs[2] & !15);
        assert_eq!(h.ways(), 3);
    }

    #[test]
    fn pointer_chase_visits_every_node() {
        let mut r = rng();
        let mut p = PointerChase::new(0, 64, 100, &mut r);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(p.next_addr(&mut r).get());
        }
        assert_eq!(seen.len(), 100, "a single cycle visits all nodes");
        assert_eq!(p.footprint(), 6400);
    }

    #[test]
    fn pointer_chase_has_no_short_cycles() {
        let mut r = rng();
        let mut p = PointerChase::new(0, 16, 50, &mut r);
        let first = p.next_addr(&mut r).get();
        // The cycle length is exactly `count`: the start reappears on the
        // 51st call (50 steps after the first).
        let mut reappear = None;
        for i in 1..100 {
            if p.next_addr(&mut r).get() == first {
                reappear = Some(i);
                break;
            }
        }
        assert_eq!(reappear, Some(50));
    }

    #[test]
    fn table_lookup_skew_prefers_low_ranks() {
        let mut r = rng();
        let mut t = TableLookup::new(0, 1000, 8, 1.5);
        let mut low = 0;
        for _ in 0..10_000 {
            if t.next_addr(&mut r).get() / 8 < 10 {
                low += 1;
            }
        }
        assert!(low > 3000, "skew 1.5 should hit top-10 often, got {low}");
    }

    #[test]
    fn table_lookup_uniform_spreads() {
        let mut r = rng();
        let mut t = TableLookup::new(0, 100, 8, 0.0);
        let mut counts = vec![0u32; 100];
        for _ in 0..10_000 {
            counts[(t.next_addr(&mut r).get() / 8) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 30), "uniform should cover all");
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn table_lookup_with_a_nan_skew_panics_at_construction() {
        let _ = TableLookup::new(0, 16, 8, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn table_lookup_with_an_overflowing_weight_panics_at_construction() {
        let _ = TableLookup::new(0, 16, 8, -2000.0);
    }

    #[test]
    fn stack_frames_stay_in_bounds() {
        let mut r = rng();
        let top = 0x7000_0000u64;
        let mut s = StackFrames::new(top, 4096, 128);
        for _ in 0..10_000 {
            let a = s.next_addr(&mut r).get();
            assert!(a <= top && a > top - 4096 - 128);
        }
    }

    #[test]
    fn transpose_strides_by_lda() {
        let mut r = rng();
        let mut t = Transpose::new(0, 3, 5);
        let seq: Vec<u64> = (0..7).map(|_| t.next_addr(&mut r).get()).collect();
        // Row 0: columns 0,1,2 at stride 40B; then row 1 starts at +8.
        assert_eq!(seq, vec![0, 40, 80, 8, 48, 88, 16]);
        assert_eq!(t.stride_bytes(), 40);
    }

    #[test]
    fn gather_alternates_index_and_target() {
        let mut r = rng();
        let mut g = GatherScatter::new(0, 1 << 30, 1000, 8);
        let a0 = g.next_addr(&mut r).get();
        let a1 = g.next_addr(&mut r).get();
        let a2 = g.next_addr(&mut r).get();
        assert!(a0 < 1 << 30, "first ref is the index load");
        assert!(a1 >= 1 << 30, "second ref is the gathered target");
        assert!(a2 < 1 << 30);
        // Index loads advance sequentially.
        assert_eq!(a2, a0 + 4);
    }

    #[test]
    fn gather_targets_are_spread() {
        let mut r = rng();
        let mut g = GatherScatter::new(0, 1 << 30, 4096, 8);
        let mut targets = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            let a = g.next_addr(&mut r).get();
            if a >= 1 << 30 {
                targets.insert(a);
            }
        }
        assert!(
            targets.len() > 500,
            "gathered {} distinct targets",
            targets.len()
        );
    }

    #[test]
    fn mixture_draws_in_proportion() {
        let mut r = rng();
        // Two sweeps in disjoint regions; weight 3:1.
        let mut m = Mixture::new()
            .with(3.0, StridedSweep::new(0, 4, 1 << 20))
            .with(1.0, StridedSweep::new(1 << 30, 4, 1 << 20));
        let mut first = 0;
        let n = 20_000;
        for _ in 0..n {
            if m.next_addr(&mut r).get() < 1 << 30 {
                first += 1;
            }
        }
        let frac = first as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.03, "expected ~0.75, got {frac}");
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn bad_weight_panics() {
        let _mixture = Mixture::new().with(0.0, StridedSweep::new(0, 4, 16));
    }
}
