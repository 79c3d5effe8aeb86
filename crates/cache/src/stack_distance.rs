//! Exact LRU stack-distance (reuse-distance) profiling.
//!
//! The *stack distance* of a reference is its depth in the LRU stack: the
//! number of distinct lines touched since the previous reference to the
//! same line, plus one. Mattson's classic result makes it the universal
//! currency of cache analysis: a fully-associative LRU cache of capacity
//! `C` hits exactly the references with stack distance ≤ `C`. One pass
//! over a trace therefore yields the miss rate of *every* cache size at
//! once — the curve underlying the paper's capacity-miss discussion and a
//! one-pass cross-check of the three-C classifier's shadow cache.
//!
//! The implementation is the standard O(n log n) Fenwick-tree algorithm
//! over access timestamps.

use jouppi_trace::{FxHashMap, LineAddr};

/// A Fenwick (binary indexed) tree over timestamps, counting 0/1 marks.
///
/// Grows by doubling; growth rebuilds the tree from the kept point
/// values (a Fenwick tree cannot be extended in place, because new
/// parent nodes cover ranges of old elements).
#[derive(Clone, Debug)]
struct Fenwick {
    tree: Vec<u64>,
    raw: Vec<u8>,
}

impl Fenwick {
    fn new() -> Self {
        Fenwick {
            tree: vec![0; 2],
            raw: vec![0; 2],
        }
    }

    /// Preallocates for timestamps up to `max_timestamp`, so a profile
    /// over a stream of known length never pays a doubling rebuild.
    fn with_capacity(max_timestamp: usize) -> Self {
        let len = (max_timestamp + 1).next_power_of_two().max(2);
        Fenwick {
            tree: vec![0; len],
            raw: vec![0; len],
        }
    }

    fn grow_to(&mut self, idx: usize) {
        if idx < self.raw.len() {
            return;
        }
        let new_len = (idx + 1).next_power_of_two().max(self.raw.len() * 2);
        self.raw.resize(new_len, 0);
        // O(n) rebuild: seed with point values, then propagate each node
        // into its parent.
        self.tree = self.raw.iter().map(|&v| u64::from(v)).collect();
        for i in 1..new_len {
            let parent = i + (i & i.wrapping_neg());
            if parent < new_len {
                self.tree[parent] += self.tree[i];
            }
        }
    }

    /// Sets the 0/1 mark at 1-based position `idx`.
    fn set(&mut self, idx: usize, value: u8) {
        debug_assert!(idx >= 1 && value <= 1);
        self.grow_to(idx);
        let old = self.raw[idx];
        if old == value {
            return;
        }
        self.raw[idx] = value;
        let delta = i64::from(value) - i64::from(old);
        let mut i = idx;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `1..=idx`.
    fn prefix(&self, mut idx: usize) -> u64 {
        let mut sum = 0;
        idx = idx.min(self.tree.len().saturating_sub(1));
        while idx > 0 {
            sum += self.tree[idx];
            idx -= idx & idx.wrapping_neg();
        }
        sum
    }
}

/// One-pass exact stack-distance profile of a reference stream.
///
/// # Examples
///
/// ```
/// use jouppi_cache::StackDistanceProfile;
/// use jouppi_trace::LineAddr;
///
/// let mut p = StackDistanceProfile::new();
/// for &n in &[1u64, 2, 3, 1, 2, 3] {
///     p.observe(LineAddr::new(n));
/// }
/// // Second round re-references at depth 3 each time.
/// assert_eq!(p.cold_refs(), 3);
/// assert_eq!(p.misses_for_capacity(3), 3);  // only the cold misses
/// assert_eq!(p.misses_for_capacity(2), 6);  // depth-3 reuses miss too
/// ```
#[derive(Clone, Debug, Default)]
pub struct StackDistanceProfile {
    /// `hist[d]` = references with stack distance exactly `d` (1-based;
    /// index 0 unused).
    hist: Vec<u64>,
    cold: u64,
    total: u64,
    last_access: FxHashMap<LineAddr, usize>,
    marks: Fenwick,
    now: usize,
}

impl Default for Fenwick {
    fn default() -> Self {
        Fenwick::new()
    }
}

impl StackDistanceProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        StackDistanceProfile::default()
    }

    /// Creates an empty profile preallocated for `refs_hint` references.
    ///
    /// Timestamps advance once per [`Self::observe`], so a caller that
    /// knows the stream length (e.g. a memoized trace) can size the
    /// Fenwick tree once up front instead of paying O(n) doubling
    /// rebuilds as the pass runs. Observing more than `refs_hint`
    /// references is still correct — the tree falls back to growing.
    pub fn with_capacity(refs_hint: usize) -> Self {
        StackDistanceProfile {
            marks: Fenwick::with_capacity(refs_hint),
            ..StackDistanceProfile::default()
        }
    }

    /// Observes one reference.
    pub fn observe(&mut self, line: LineAddr) {
        self.now += 1;
        self.total += 1;
        match self.last_access.insert(line, self.now) {
            Some(prev) => {
                // Distinct lines since `prev` = marked timestamps in
                // (prev, now); each mark is some line's most recent access.
                let between = self.marks.prefix(self.now - 1) - self.marks.prefix(prev);
                let depth = between as usize + 1;
                if self.hist.len() <= depth {
                    self.hist.resize(depth + 1, 0);
                }
                self.hist[depth] += 1;
                self.marks.set(prev, 0);
            }
            None => self.cold += 1,
        }
        self.marks.set(self.now, 1);
    }

    /// Total references observed.
    pub fn total_refs(&self) -> u64 {
        self.total
    }

    /// First-touch (compulsory) references.
    pub fn cold_refs(&self) -> u64 {
        self.cold
    }

    /// Number of distinct lines observed.
    pub fn distinct_lines(&self) -> usize {
        self.last_access.len()
    }

    /// References with stack distance exactly `depth` (1-based).
    pub fn at_depth(&self, depth: usize) -> u64 {
        self.hist.get(depth).copied().unwrap_or(0)
    }

    /// Misses a fully-associative LRU cache holding `lines` lines would
    /// take on the observed stream (Mattson): cold references plus every
    /// reuse at depth greater than `lines`.
    pub fn misses_for_capacity(&self, lines: usize) -> u64 {
        let deep: u64 = self
            .hist
            .iter()
            .enumerate()
            .skip(lines + 1)
            .map(|(_, &c)| c)
            .sum();
        self.cold + deep
    }

    /// Miss rate of a fully-associative LRU cache of `lines` lines.
    pub fn miss_rate_for_capacity(&self, lines: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.misses_for_capacity(lines) as f64 / self.total as f64
        }
    }

    /// The full miss-rate curve over the given capacities (in lines).
    pub fn miss_rate_curve(&self, capacities: &[usize]) -> Vec<(usize, f64)> {
        capacities
            .iter()
            .map(|&c| (c, self.miss_rate_for_capacity(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cache, CacheGeometry};

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn immediate_rereference_has_depth_one() {
        let mut p = StackDistanceProfile::new();
        p.observe(l(7));
        p.observe(l(7));
        assert_eq!(p.at_depth(1), 1);
        assert_eq!(p.cold_refs(), 1);
        assert_eq!(p.misses_for_capacity(1), 1);
    }

    #[test]
    fn cyclic_stream_depths() {
        let mut p = StackDistanceProfile::new();
        for _ in 0..3 {
            for n in 0..4 {
                p.observe(l(n));
            }
        }
        // After the cold round, every reuse is at depth 4.
        assert_eq!(p.cold_refs(), 4);
        assert_eq!(p.at_depth(4), 8);
        assert_eq!(p.misses_for_capacity(4), 4);
        assert_eq!(p.misses_for_capacity(3), 12);
        assert_eq!(p.total_refs(), 12);
        assert_eq!(p.distinct_lines(), 4);
    }

    #[test]
    fn matches_fully_associative_lru_cache_for_all_sizes() {
        // The Mattson property, on a pseudo-random stream with heavy
        // reuse: profile misses == simulated FA-LRU misses, all sizes.
        let stream: Vec<u64> = (0..3000u64).map(|i| (i * 31 + i / 7) % 97).collect();
        let mut p = StackDistanceProfile::new();
        for &n in &stream {
            p.observe(l(n));
        }
        for lines in [1u64, 2, 4, 8, 16, 32, 64, 128] {
            let geom = CacheGeometry::fully_associative(lines * 16, 16).unwrap();
            let mut cache = Cache::new(geom);
            let mut misses = 0;
            for &n in &stream {
                if cache.access_line(l(n)).is_miss() {
                    misses += 1;
                }
            }
            assert_eq!(
                p.misses_for_capacity(lines as usize),
                misses,
                "capacity {lines}"
            );
        }
    }

    #[test]
    fn miss_rate_curve_is_monotone_nonincreasing() {
        let stream: Vec<u64> = (0..2000u64).map(|i| (i * 13) % 211).collect();
        let mut p = StackDistanceProfile::new();
        for &n in &stream {
            p.observe(l(n));
        }
        let caps: Vec<usize> = (0..10).map(|i| 1 << i).collect();
        let curve = p.miss_rate_curve(&caps);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12, "{curve:?}");
        }
        // Very large capacity leaves only compulsory misses.
        let last = curve.last().unwrap().1;
        assert!((last - p.cold_refs() as f64 / p.total_refs() as f64).abs() < 1e-12);
    }

    #[test]
    fn with_capacity_is_identical_and_never_regrows() {
        let stream: Vec<u64> = (0..2000u64).map(|i| (i * 31 + i / 7) % 97).collect();
        let mut plain = StackDistanceProfile::new();
        let mut hinted = StackDistanceProfile::with_capacity(stream.len());
        let initial_len = hinted.marks.raw.len();
        assert!(initial_len > stream.len());
        for &n in &stream {
            plain.observe(l(n));
            hinted.observe(l(n));
        }
        assert_eq!(hinted.marks.raw.len(), initial_len, "hinted tree regrew");
        for cap in [1usize, 3, 8, 50, 97, 200] {
            assert_eq!(
                plain.misses_for_capacity(cap),
                hinted.misses_for_capacity(cap),
                "capacity {cap}"
            );
        }
        assert_eq!(plain.cold_refs(), hinted.cold_refs());
        // Under-hinting stays correct by falling back to growth.
        let mut tiny = StackDistanceProfile::with_capacity(4);
        for &n in &stream {
            tiny.observe(l(n));
        }
        assert_eq!(tiny.misses_for_capacity(50), plain.misses_for_capacity(50));
    }

    #[test]
    fn empty_profile_is_all_zero() {
        let p = StackDistanceProfile::new();
        assert_eq!(p.total_refs(), 0);
        assert_eq!(p.miss_rate_for_capacity(4), 0.0);
        assert_eq!(p.at_depth(3), 0);
    }
}
