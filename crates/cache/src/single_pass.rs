//! One-pass multi-geometry miss-count engines.
//!
//! The per-cell simulators in [`crate::set_assoc`] pay one trace pass per
//! (size, associativity) cell. This module answers *every* cell from a
//! single traversal:
//!
//! * [`LruSweep`] — Mattson's stack-distance algorithm, generalized by
//!   *set refinement*: an S-set, A-way LRU cache hits exactly the
//!   references whose stack distance **within their set's substream** is
//!   ≤ A (sets partition the line space by the same shift/mask indexing
//!   as [`crate::CacheGeometry::set_of`], and LRU acts independently per
//!   set). Tracking within-set distances for one set count therefore
//!   yields the exact miss count of every associativity at that set
//!   count; tracking a list of set counts covers a whole size ×
//!   associativity grid in one pass. The 1-set level is classic Mattson:
//!   the fully-associative miss-rate curve for every capacity at once.
//!   Each level resolves depths only up to its largest queried
//!   associativity, with capped per-set MRU arrays: still exact for
//!   those queries (hit ⇔ depth ≤ ways), because a deeper reference
//!   misses at every associativity the level answers.
//!
//! * [`FifoSweep`] — FIFO has no inclusion property (Belady's anomaly:
//!   more frames can miss *more*), so no histogram shortcut exists. The
//!   DEW observation (Wires et al., arXiv:1506.03181) still collapses
//!   the sweep into one pass: FIFO state changes **only on misses**, so
//!   each cell can be kept as a tiny ring of per-set cursors, advanced
//!   lazily, with a per-line 64-bit presence mask selecting in O(1) which
//!   cells miss. Work per reference is O(1 + #cells-that-miss) instead
//!   of O(#cells), and one sweep tracks at most
//!   [`FifoSweep::MAX_CELLS`] (64) cells. At one way FIFO and LRU are
//!   the same policy (a one-way set has no replacement choice), so a
//!   caller that also runs an [`LruSweep`] may leave its direct-mapped
//!   cells out of the FIFO sweep and read them from LRU.
//!
//! Both engines keep per-line state in `Vec`s indexed by dense line ids
//! ([`jouppi_trace::LineInterner`]), and read a line's address only to
//! pick its set. `observe_id` takes ids memoized with the trace
//! ([`jouppi_trace::SideView::runs`]); `observe` interns each line as
//! it arrives, one map probe per reference. An immediate repeat of the
//! line just observed hits in every cell and changes no state, so a
//! caller may observe each run of repeats once; `total_refs` then counts
//! runs.
//!
//! Both engines are exact — equal to the [`crate::Cache`] oracle miss
//! for miss, which the unit tests here and the cross-crate equivalence
//! suites pin on random, cyclic, and Belady-anomaly streams.

use std::error::Error;
use std::fmt;

use jouppi_trace::{LineAddr, LineInterner};

use crate::CacheGeometry;

/// Free-slot marker in the engines' id arrays. No line id equals it
/// (see [`LineInterner`]), so no line can be mistaken for a free slot.
const FREE: u32 = u32::MAX;

/// Why a single-pass engine could not be constructed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SinglePassError {
    /// No geometry cells were requested.
    Empty,
    /// A set count was zero or not a power of two (shift/mask indexing).
    BadSetCount(u64),
    /// An associativity was zero.
    BadAssociativity(u64),
    /// More FIFO cells than the presence bitmask can index.
    TooManyCells {
        /// Cells requested.
        requested: usize,
        /// The [`FifoSweep::MAX_CELLS`] limit.
        max: usize,
    },
}

impl fmt::Display for SinglePassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SinglePassError::Empty => write!(f, "at least one geometry cell is required"),
            SinglePassError::BadSetCount(v) => {
                write!(f, "set count must be a nonzero power of two, got {v}")
            }
            SinglePassError::BadAssociativity(v) => {
                write!(f, "associativity must be nonzero, got {v}")
            }
            SinglePassError::TooManyCells { requested, max } => {
                write!(
                    f,
                    "{requested} FIFO cells requested; the bitmask holds {max}"
                )
            }
        }
    }
}

impl Error for SinglePassError {}

/// One tracked set count: flattened per-set MRU arrays truncated at the
/// level's associativity bound.
///
/// A hit at array index `i` is within-set stack distance `i + 1`; a
/// warm reference absent from the array is deeper than the bound and
/// lands in one overflow bucket. Nothing is lost: an A-way set hits
/// exactly the references with depth ≤ A, so depths beyond the largest
/// associativity anyone will query never need resolving, and the
/// per-reference cost is a word scan that usually ends at the first
/// (most recent) slot.
#[derive(Clone, Debug)]
struct Level {
    /// `num_sets - 1`; line→set is one mask.
    mask: u64,
    /// Largest associativity this level can answer.
    bound: u32,
    /// `hist[d]` = references at within-set stack distance exactly `d`
    /// (`2..=bound`; indices 0 and 1 unused — depth-1 hits are below
    /// every answerable associativity, so no query ever reads them and
    /// `observe` does not count them).
    hist: Vec<u64>,
    /// Warm references deeper than `bound` — a miss at every
    /// answerable associativity.
    deep: u64,
    /// Resident entries per set (each ≤ `bound`).
    lens: Vec<u32>,
    /// `entries[set * bound..][..lens[set]]`: the ids of the set's LRU
    /// stack, most recent first, truncated at `bound` (whatever falls
    /// off the end is exactly the set's least-recent tracked line).
    entries: Vec<u32>,
}

/// A single-pass LRU sweep: one trace traversal, exact miss counts for
/// every `(num_sets, associativity)` cell up to each set count's largest
/// queried associativity.
///
/// # Examples
///
/// ```
/// use jouppi_cache::LruSweep;
/// use jouppi_trace::LineAddr;
///
/// // Set counts 1 (fully associative, up to 3 ways) and 2 (up to 2).
/// let mut sweep = LruSweep::bounded(&[(1, 3), (2, 2)]).unwrap();
/// for &n in &[0u64, 1, 2, 0, 1, 2] {
///     sweep.observe(LineAddr::new(n));
/// }
/// // FA-LRU with 3 lines holds the whole loop: only cold misses.
/// assert_eq!(sweep.misses(1, 3), Some(3));
/// // 2 lines thrash: every reference misses.
/// assert_eq!(sweep.misses(1, 2), Some(6));
/// // 2 sets × 2 ways: lines {0, 2} share set 0 but both fit.
/// assert_eq!(sweep.misses(2, 2), Some(3));
/// ```
#[derive(Clone, Debug)]
pub struct LruSweep {
    /// Tracked set counts, ascending and distinct.
    set_counts: Vec<u64>,
    /// One level per tracked set count, in `set_counts` order.
    levels: Vec<Level>,
    /// Scratch: within-set depth per level for the last `observe_depths`.
    depths: Vec<u32>,
    total: u64,
    /// First touches, which is also the number of distinct lines: ids
    /// arrive in first-touch order, so a line is new iff its id equals
    /// this count.
    cold: u64,
    /// Ids for lines fed through [`Self::observe`].
    interner: LineInterner,
}

impl LruSweep {
    /// Creates a sweep over `(num_sets, max_associativity)` cells: each
    /// set count's within-set distances are resolved up to the largest
    /// associativity listed for it. Queries at or below the bound are
    /// exact — an A-way set hits iff the depth is ≤ A, so deeper depths
    /// never matter — while [`Self::misses`] returns `None` beyond it.
    /// Capping the per-set MRU arrays at the bound is what lets one pass
    /// answer a whole geometry grid faster than simulating any single
    /// cell.
    ///
    /// # Examples
    ///
    /// ```
    /// use jouppi_cache::LruSweep;
    /// use jouppi_trace::LineAddr;
    ///
    /// // One fully-associative level, bounded at 2 ways.
    /// let mut sweep = LruSweep::bounded(&[(1, 2)]).unwrap();
    /// for &n in &[0u64, 1, 0, 2] {
    ///     sweep.observe(LineAddr::new(n));
    /// }
    /// // Line 1 sits at depth 3 on its reuse: deeper than the bound, so
    /// // its depth reads as bound + 1, a miss at both answerable sizes.
    /// let (cold, depths) = sweep.observe_depths(LineAddr::new(1));
    /// assert!(!cold);
    /// assert_eq!(depths, &[3]);
    /// assert_eq!(sweep.misses(1, 2), Some(4));
    /// assert_eq!(sweep.misses(1, 1), Some(5));
    /// // Beyond the tracked bound the sweep cannot answer.
    /// assert_eq!(sweep.misses(1, 3), None);
    /// ```
    ///
    /// # Errors
    ///
    /// [`SinglePassError`] when the list is empty, a set count is not a
    /// nonzero power of two, or an associativity bound is zero (or does
    /// not fit the `u32` a level stores it in).
    pub fn bounded(cells: &[(u64, u64)]) -> Result<Self, SinglePassError> {
        let mut counts: Vec<u64> = cells.iter().map(|&(s, _)| s).collect();
        counts.sort_unstable();
        counts.dedup();
        if counts.is_empty() {
            return Err(SinglePassError::Empty);
        }
        if let Some(&c) = counts.iter().find(|&&c| !c.is_power_of_two()) {
            return Err(SinglePassError::BadSetCount(c));
        }
        let mut bounds = vec![0u32; counts.len()];
        for &(sets, assoc) in cells {
            let bound = match u32::try_from(assoc) {
                Ok(b) if b > 0 => b,
                _ => return Err(SinglePassError::BadAssociativity(assoc)),
            };
            let k = counts
                .binary_search(&sets)
                .expect("counts were built from these cells");
            bounds[k] = bounds[k].max(bound);
        }
        let levels = counts
            .iter()
            .zip(&bounds)
            .map(|(&c, &bound)| Level {
                mask: c - 1,
                bound,
                hist: vec![0; bound as usize + 1],
                deep: 0,
                lens: vec![0; c as usize],
                entries: vec![FREE; c as usize * bound as usize],
            })
            .collect();
        let n = counts.len();
        Ok(LruSweep {
            set_counts: counts,
            levels,
            depths: vec![0; n],
            total: 0,
            cold: 0,
            interner: LineInterner::new(),
        })
    }

    /// Observes one reference, interning its line.
    ///
    /// Feed a sweep either lines, here and in [`Self::observe_depths`],
    /// or ids, in [`Self::observe_id`]: not both.
    pub fn observe(&mut self, line: LineAddr) {
        self.observe_depths(line);
    }

    /// Observes one reference by its line id, with no hashing: `id` is
    /// the line's id from one [`LineInterner`] fed this sweep's whole
    /// stream in order, as the ids of [`jouppi_trace::SideView::runs`]
    /// are, and `line` its address, which picks the set at each level.
    ///
    /// # Panics
    ///
    /// Panics if `id` skips past the next new id: ids must arrive in
    /// first-touch order.
    pub fn observe_id(&mut self, id: u32, line: LineAddr) {
        self.step::<false>(id, line);
    }

    /// Observes one reference and returns `(first touch, depths)`, where
    /// `depths[k]` is the within-set stack distance at the k-th tracked
    /// set count (in [`Self::set_counts`] order; 0 on first touch).
    /// Depths deeper than a level's bound read as `bound + 1`.
    ///
    /// The per-reference prediction: an S-set, A-way LRU cache hits this
    /// reference iff it is not a first touch and the depth at level S is
    /// ≤ A, for every A up to the level's bound.
    pub fn observe_depths(&mut self, line: LineAddr) -> (bool, &[u32]) {
        let id = self.interner.intern(line);
        let cold = self.step::<true>(id, line);
        (cold, &self.depths)
    }

    /// Observes line `id` at address `line` and returns whether it was a
    /// first touch. Fills `depths` when `DEPTHS` asks for them.
    #[inline]
    fn step<const DEPTHS: bool>(&mut self, id: u32, line: LineAddr) -> bool {
        self.total += 1;
        assert!(
            u64::from(id) <= self.cold,
            "line ids must arrive in first-touch order"
        );
        let cold = u64::from(id) == self.cold;
        let raw = line.get();
        for (k, level) in self.levels.iter_mut().enumerate() {
            let bound = level.bound as usize;
            let set = (raw & level.mask) as usize;
            let base = set * bound;
            // Depth 1 here is depth 1 at every finer level too (set
            // refinement: finer substreams are subsequences, so depth is
            // non-increasing in set count). A depth-1 hit changes nothing
            // — the line already fronts those MRU arrays, and depth 1 is
            // a hit at every answerable associativity, so `misses` never
            // reads it (`hist[1]` stays 0) — and the walk ends. At the
            // coarsest level this is the whole reference.
            if level.entries[base] == id {
                if DEPTHS {
                    self.depths[k..].fill(1);
                }
                break;
            }
            // Search-and-shift from slot 1: the line moves to the front
            // and each walked entry slides one slot down; when the line
            // is found mid-array the walk has already rotated the prefix.
            let len = level.lens[set] as usize;
            let mut carry = level.entries[base];
            level.entries[base] = id;
            let mut depth = 0u32;
            let slots = level.entries[base + 1..base + len.max(1)].iter_mut();
            for (slot, d) in slots.zip(2u32..) {
                let cur = *slot;
                *slot = carry;
                if cur == id {
                    depth = d;
                    break;
                }
                carry = cur;
            }
            if depth != 0 {
                level.hist[depth as usize] += 1;
            } else {
                // Deeper than the bound, or a first touch. The
                // carried-out line — the set's least-recent tracked
                // entry — falls off unless there is still room for it.
                if len == 0 {
                    level.lens[set] = 1;
                } else if len < bound {
                    level.entries[base + len] = carry;
                    level.lens[set] += 1;
                }
                if !cold {
                    level.deep += 1;
                }
                depth = level.bound + 1;
            }
            if DEPTHS {
                self.depths[k] = if cold { 0 } else { depth };
            }
        }
        if cold {
            self.cold += 1;
        }
        cold
    }

    /// The tracked set counts, ascending.
    pub fn set_counts(&self) -> &[u64] {
        &self.set_counts
    }

    /// Index of `num_sets` in [`Self::set_counts`], if tracked.
    pub fn level_of(&self, num_sets: u64) -> Option<usize> {
        self.set_counts.binary_search(&num_sets).ok()
    }

    /// Exact misses of an LRU cache with `num_sets` sets of
    /// `associativity` ways on the observed stream; `None` when
    /// `num_sets` is not tracked, or `associativity` is 0 or exceeds the
    /// level's bound.
    pub fn misses(&self, num_sets: u64, associativity: u64) -> Option<u64> {
        let level = &self.levels[self.level_of(num_sets)?];
        if associativity == 0 || associativity > u64::from(level.bound) {
            return None;
        }
        let above: u64 = level.hist.iter().skip(associativity as usize + 1).sum();
        Some(self.cold + level.deep + above)
    }

    /// Exact misses of an LRU cache with the given geometry.
    pub fn misses_for_geometry(&self, geom: &CacheGeometry) -> Option<u64> {
        self.misses(geom.num_sets(), geom.associativity())
    }

    /// Miss rate of an LRU cache with the given geometry.
    pub fn miss_rate_for_geometry(&self, geom: &CacheGeometry) -> Option<f64> {
        self.miss_rate(geom.num_sets(), geom.associativity())
    }

    /// Miss rate of an LRU cache with `num_sets` sets of `associativity`
    /// ways (0.0 on an empty stream).
    pub fn miss_rate(&self, num_sets: u64, associativity: u64) -> Option<f64> {
        let misses = self.misses(num_sets, associativity)?;
        Some(if self.total == 0 {
            0.0
        } else {
            misses as f64 / self.total as f64
        })
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
        self.cold as usize
    }
}

/// One FIFO geometry cell: set-major rings of resident line ids.
#[derive(Clone, Debug)]
struct FifoCell {
    /// `num_sets - 1`.
    set_mask: u64,
    assoc: u32,
    /// `slots[set * assoc + way]`: a line id, or [`FREE`].
    slots: Vec<u32>,
    /// Next way to fill/evict per set (= insertion count mod assoc, so
    /// it always points at the oldest resident — exactly the
    /// [`crate::Cache`] FIFO fill order: free ways in index order, then
    /// minimum insertion stamp).
    cursors: Vec<u32>,
    misses: u64,
}

/// A single-pass FIFO sweep over an explicit list of geometry cells.
///
/// # Examples
///
/// Belady's anomaly, straight from the textbook stream — *more* frames,
/// *more* misses — which is why FIFO needs per-cell state rather than a
/// stack-distance histogram:
///
/// ```
/// use jouppi_cache::FifoSweep;
/// use jouppi_trace::LineAddr;
///
/// let mut sweep = FifoSweep::new(&[(1, 3), (1, 4)]).unwrap();
/// for &n in &[1u64, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5] {
///     sweep.observe(LineAddr::new(n));
/// }
/// assert_eq!(sweep.misses(1, 3), Some(9));
/// assert_eq!(sweep.misses(1, 4), Some(10));
/// ```
#[derive(Clone, Debug)]
pub struct FifoSweep {
    /// `(num_sets, associativity)` per cell, in construction order.
    keys: Vec<(u64, u64)>,
    cells: Vec<FifoCell>,
    /// `present[id]`: bitmask of the cells line `id` is resident in.
    present: Vec<u64>,
    /// Mask with one bit per cell.
    all: u64,
    total: u64,
    /// Ids for lines fed through [`Self::observe`].
    interner: LineInterner,
}

impl FifoSweep {
    /// Most cells one sweep can track (the width of the per-line
    /// presence bitmask).
    pub const MAX_CELLS: usize = 64;

    /// Creates a sweep over `(num_sets, associativity)` cells
    /// (duplicates removed, order preserved).
    ///
    /// # Errors
    ///
    /// [`SinglePassError`] when the list is empty or oversized, a set
    /// count is not a nonzero power of two, or an associativity is zero
    /// (or does not fit the `u32` a cell stores it in).
    pub fn new(cells: &[(u64, u64)]) -> Result<Self, SinglePassError> {
        let mut keys: Vec<(u64, u64)> = Vec::with_capacity(cells.len());
        for &cell in cells {
            if !keys.contains(&cell) {
                keys.push(cell);
            }
        }
        if keys.is_empty() {
            return Err(SinglePassError::Empty);
        }
        if keys.len() > FifoSweep::MAX_CELLS {
            return Err(SinglePassError::TooManyCells {
                requested: keys.len(),
                max: FifoSweep::MAX_CELLS,
            });
        }
        let cells = keys
            .iter()
            .map(|&(sets, assoc)| {
                if sets == 0 || !sets.is_power_of_two() {
                    return Err(SinglePassError::BadSetCount(sets));
                }
                let ways = match u32::try_from(assoc) {
                    Ok(w) if w > 0 => w,
                    _ => return Err(SinglePassError::BadAssociativity(assoc)),
                };
                Ok(FifoCell {
                    set_mask: sets - 1,
                    assoc: ways,
                    slots: vec![FREE; (sets * assoc) as usize],
                    cursors: vec![0; sets as usize],
                    misses: 0,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        // 1..=64 cells: the shift is 0..=63, where `(1 << len) - 1` would
        // overflow at 64.
        let all = u64::MAX >> (FifoSweep::MAX_CELLS - keys.len());
        Ok(FifoSweep {
            keys,
            cells,
            present: Vec::new(),
            all,
            total: 0,
            interner: LineInterner::new(),
        })
    }

    /// Observes one reference, interning its line, and returns the
    /// bitmask of cells (by construction order) that missed.
    ///
    /// Feed a sweep either lines, here, or ids, in [`Self::observe_id`]:
    /// not both.
    pub fn observe(&mut self, line: LineAddr) -> u64 {
        let id = self.interner.intern(line);
        self.observe_id(id, line)
    }

    /// Observes one reference by its line id, with no hashing, and
    /// returns the bitmask of cells that missed. `id` is the line's id
    /// from one [`LineInterner`] fed this sweep's stream, as the ids of
    /// [`jouppi_trace::SideView::runs`] are, and `line` its address, which
    /// picks the set in each cell.
    pub fn observe_id(&mut self, id: u32, line: LineAddr) -> u64 {
        self.total += 1;
        let idx = id as usize;
        if idx >= self.present.len() {
            self.present.resize(idx + 1, 0);
        }
        let missing = !self.present[idx] & self.all;
        if missing == 0 {
            return 0;
        }
        let raw = line.get();
        let mut m = missing;
        while m != 0 {
            let c = m.trailing_zeros() as usize;
            m &= m - 1;
            let cell = &mut self.cells[c];
            cell.misses += 1;
            let set = (raw & cell.set_mask) as usize;
            let cursor = cell.cursors[set];
            let pos = set * cell.assoc as usize + cursor as usize;
            let evicted = std::mem::replace(&mut cell.slots[pos], id);
            if evicted != FREE {
                // The victim is resident in this cell; it cannot be
                // `id` (we are missing here).
                self.present[evicted as usize] &= !(1u64 << c);
            }
            cell.cursors[set] = if cursor + 1 == cell.assoc {
                0
            } else {
                cursor + 1
            };
        }
        self.present[idx] |= missing;
        missing
    }

    /// The tracked `(num_sets, associativity)` cells, in construction
    /// order (duplicates removed).
    pub fn cells(&self) -> &[(u64, u64)] {
        &self.keys
    }

    /// Exact FIFO misses for the `(num_sets, associativity)` cell;
    /// `None` when the cell is not tracked.
    pub fn misses(&self, num_sets: u64, associativity: u64) -> Option<u64> {
        let idx = self
            .keys
            .iter()
            .position(|&k| k == (num_sets, associativity))?;
        Some(self.cells[idx].misses)
    }

    /// Exact FIFO misses for the given geometry.
    pub fn misses_for_geometry(&self, geom: &CacheGeometry) -> Option<u64> {
        self.misses(geom.num_sets(), geom.associativity())
    }

    /// Total references observed.
    pub fn total_refs(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cache, ReplacementPolicy};

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    /// A pseudo-random stream with heavy reuse and phase shifts.
    fn mixed_stream() -> Vec<u64> {
        let mut v: Vec<u64> = (0..4000u64).map(|i| (i * 31 + i / 7) % 97).collect();
        v.extend((0..500u64).flat_map(|i| [i % 40, (i * 17) % 160]));
        v
    }

    /// Cyclic thrash: the classic LRU worst case, plus a conflict-heavy
    /// stride that lands every reference in set 0 of small set counts.
    fn adversarial_streams() -> Vec<Vec<u64>> {
        vec![
            (0..600u64).map(|i| i % 9).collect(),
            (0..600u64).map(|i| (i % 7) * 64).collect(),
            vec![1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5],
            (0..400u64).map(|i| (i * i) % 53).collect(),
        ]
    }

    /// The per-cell oracle's misses for one geometry/policy.
    fn oracle(stream: &[u64], sets: u64, assoc: u64, policy: ReplacementPolicy) -> u64 {
        let geom = CacheGeometry::new(sets * assoc * 16, 16, assoc).expect("valid");
        assert_eq!(geom.num_sets(), sets);
        let mut cache = Cache::with_policy(geom, policy);
        let mut misses = 0;
        for &n in stream {
            if cache.access_line(l(n)).is_miss() {
                misses += 1;
            }
        }
        misses
    }

    const GRID: [(u64, u64); 12] = [
        (1, 1),
        (1, 4),
        (1, 16),
        (2, 2),
        (4, 1),
        (4, 4),
        (8, 2),
        (8, 8),
        (16, 1),
        (16, 4),
        (32, 2),
        (64, 1),
    ];

    #[test]
    fn lru_sweep_matches_cache_oracle_on_mixed_stream() {
        let stream = mixed_stream();
        let mut sweep = LruSweep::bounded(&GRID).unwrap();
        for &n in &stream {
            sweep.observe(l(n));
        }
        for &(sets, assoc) in &GRID {
            assert_eq!(
                sweep.misses(sets, assoc),
                Some(oracle(&stream, sets, assoc, ReplacementPolicy::Lru)),
                "LRU {sets} sets × {assoc} ways"
            );
        }
    }

    #[test]
    fn fifo_sweep_matches_cache_oracle_on_mixed_stream() {
        let stream = mixed_stream();
        let mut sweep = FifoSweep::new(&GRID).unwrap();
        for &n in &stream {
            sweep.observe(l(n));
        }
        for &(sets, assoc) in &GRID {
            assert_eq!(
                sweep.misses(sets, assoc),
                Some(oracle(&stream, sets, assoc, ReplacementPolicy::Fifo)),
                "FIFO {sets} sets × {assoc} ways"
            );
        }
    }

    #[test]
    fn both_engines_match_oracle_on_adversarial_streams() {
        for stream in adversarial_streams() {
            let mut lru = LruSweep::bounded(&GRID).unwrap();
            let mut fifo = FifoSweep::new(&GRID).unwrap();
            for &n in &stream {
                lru.observe(l(n));
                fifo.observe(l(n));
            }
            for &(sets, assoc) in &GRID {
                assert_eq!(
                    lru.misses(sets, assoc),
                    Some(oracle(&stream, sets, assoc, ReplacementPolicy::Lru)),
                    "LRU {sets}x{assoc} on {stream:?}"
                );
                assert_eq!(
                    fifo.misses(sets, assoc),
                    Some(oracle(&stream, sets, assoc, ReplacementPolicy::Fifo)),
                    "FIFO {sets}x{assoc} on {stream:?}"
                );
            }
        }
    }

    #[test]
    fn belady_anomaly_is_reproduced_exactly() {
        // FIFO at 4 frames misses MORE than at 3 on this stream — the
        // proof no inclusion/histogram shortcut exists for FIFO.
        let stream = [1u64, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5];
        let mut sweep = FifoSweep::new(&[(1, 3), (1, 4)]).unwrap();
        for &n in &stream {
            sweep.observe(l(n));
        }
        // The textbook counts: 9 misses at 3 frames, 10 at 4.
        assert_eq!(sweep.misses(1, 3), Some(9));
        assert_eq!(sweep.misses(1, 4), Some(10));
        // The 4-frame cell is a constructible power-of-two geometry, so
        // cross-check it against the per-cell oracle too (3 frames is a
        // 48-byte cache, which CacheGeometry rejects — the sweep is not
        // limited to constructible sizes).
        assert_eq!(
            sweep.misses(1, 4).unwrap(),
            oracle(&stream, 1, 4, ReplacementPolicy::Fifo)
        );
    }

    #[test]
    fn observe_depths_predicts_per_reference_hits() {
        let stream = mixed_stream();
        for (sets, assoc) in [(1u64, 8u64), (4, 2), (16, 1), (8, 4)] {
            let geom = CacheGeometry::new(sets * assoc * 16, 16, assoc).unwrap();
            let mut cache = Cache::new(geom);
            // A bound well past the associativity resolves the depths
            // the prediction compares against, not just bound + 1.
            let mut sweep = LruSweep::bounded(&[(sets, 64)]).unwrap();
            for &n in &stream {
                let (cold, depths) = sweep.observe_depths(l(n));
                let predicted_hit = !cold && u64::from(depths[0]) <= assoc;
                assert_eq!(
                    cache.access_line(l(n)).is_hit(),
                    predicted_hit,
                    "{sets}x{assoc} at line {n}"
                );
            }
        }
    }

    #[test]
    fn one_set_level_is_classic_mattson() {
        // The 1-set level must agree with StackDistanceProfile (and
        // therefore FA-LRU) at every capacity up to its bound.
        let stream = mixed_stream();
        let mut sweep = LruSweep::bounded(&[(1, 128)]).unwrap();
        let mut profile = crate::StackDistanceProfile::new();
        for &n in &stream {
            sweep.observe(l(n));
            profile.observe(l(n));
        }
        for cap in [1u64, 2, 4, 8, 16, 32, 64, 128] {
            assert_eq!(
                sweep.misses(1, cap),
                Some(profile.misses_for_capacity(cap as usize)),
                "capacity {cap}"
            );
        }
        assert_eq!(sweep.cold_refs(), profile.cold_refs());
        assert_eq!(sweep.total_refs(), profile.total_refs());
        assert_eq!(sweep.distinct_lines(), profile.distinct_lines());
    }

    #[test]
    fn geometry_queries_and_accessors() {
        let mut sweep = LruSweep::bounded(&[(4, 2)]).unwrap();
        let mut fifo = FifoSweep::new(&[(4, 2)]).unwrap();
        for &n in &[0u64, 4, 0, 8, 4, 0] {
            sweep.observe(l(n));
            fifo.observe(l(n));
        }
        let geom = CacheGeometry::new(4 * 2 * 16, 16, 2).unwrap();
        assert_eq!(
            sweep.misses_for_geometry(&geom),
            sweep.misses(4, 2),
            "geometry helper must agree"
        );
        assert_eq!(fifo.misses_for_geometry(&geom), fifo.misses(4, 2));
        assert_eq!(fifo.cells(), &[(4, 2)]);
        assert_eq!(fifo.total_refs(), 6);
        assert_eq!(
            sweep.miss_rate(4, 2).unwrap(),
            sweep.misses(4, 2).unwrap() as f64 / 6.0
        );
        assert_eq!(sweep.misses(3, 2), None);
        assert_eq!(sweep.misses(4, 0), None);
        assert_eq!(fifo.misses(9, 9), None);
        // Set counts come back sorted and deduplicated.
        let cells = [(16, 1), (1, 4), (4, 2), (8, 1), (2, 1), (4, 1)];
        let sweep = LruSweep::bounded(&cells).unwrap();
        assert_eq!(sweep.set_counts(), &[1, 2, 4, 8, 16]);
        assert_eq!(sweep.level_of(8), Some(3));
        assert_eq!(sweep.level_of(3), None);
    }

    #[test]
    fn constructors_reject_bad_shapes() {
        assert_eq!(
            LruSweep::bounded(&[(0, 1)]).unwrap_err(),
            SinglePassError::BadSetCount(0)
        );
        assert_eq!(
            LruSweep::bounded(&[(4, 1), (12, 1)]).unwrap_err(),
            SinglePassError::BadSetCount(12)
        );
        assert_eq!(FifoSweep::new(&[]).unwrap_err(), SinglePassError::Empty);
        assert_eq!(
            FifoSweep::new(&[(6, 2)]).unwrap_err(),
            SinglePassError::BadSetCount(6)
        );
        assert_eq!(
            FifoSweep::new(&[(4, 0)]).unwrap_err(),
            SinglePassError::BadAssociativity(0)
        );
        let too_many: Vec<(u64, u64)> = (0..65).map(|i| (1u64, i + 1)).collect();
        assert!(matches!(
            FifoSweep::new(&too_many).unwrap_err(),
            SinglePassError::TooManyCells { requested: 65, .. }
        ));
        // Errors render.
        assert!(SinglePassError::BadSetCount(6)
            .to_string()
            .contains("power of two"));
        assert!(SinglePassError::Empty.to_string().contains("at least one"));
        assert!(SinglePassError::BadAssociativity(0)
            .to_string()
            .contains("nonzero"));
        assert!(SinglePassError::TooManyCells {
            requested: 65,
            max: 64
        }
        .to_string()
        .contains("64"));
    }

    #[test]
    fn bounded_sweep_matches_exact_and_oracle_within_bounds() {
        // The sweep must equal the per-cell oracle at every cell it
        // tracks, on both the mixed and the adversarial streams, and
        // count every reference and distinct line exactly.
        let mut streams = adversarial_streams();
        streams.push(mixed_stream());
        for stream in streams {
            let mut bounded = LruSweep::bounded(&GRID).unwrap();
            for &n in &stream {
                bounded.observe(l(n));
            }
            for &(sets, assoc) in &GRID {
                assert_eq!(
                    bounded.misses(sets, assoc),
                    Some(oracle(&stream, sets, assoc, ReplacementPolicy::Lru)),
                    "bounded vs oracle at {sets}x{assoc}"
                );
            }
            let distinct: std::collections::BTreeSet<u64> = stream.iter().copied().collect();
            assert_eq!(bounded.total_refs(), stream.len() as u64);
            assert_eq!(bounded.cold_refs(), distinct.len() as u64);
            assert_eq!(bounded.distinct_lines(), distinct.len());
        }
    }

    #[test]
    fn bounded_sweep_takes_the_largest_bound_per_set_count() {
        // (1, 2) and (1, 5) collapse into one level bounded at 5; both
        // associativities answer, 6 does not. Capacities 3 and 5 are no
        // power-of-two cache, so the fully-associative stack profile is
        // the oracle.
        let mut sweep = LruSweep::bounded(&[(1, 2), (1, 5)]).unwrap();
        let stream = mixed_stream();
        let mut profile = crate::StackDistanceProfile::new();
        for &n in &stream {
            sweep.observe(l(n));
            profile.observe(l(n));
        }
        assert_eq!(sweep.set_counts(), &[1]);
        for assoc in [1u64, 2, 3, 4, 5] {
            assert_eq!(
                sweep.misses(1, assoc),
                Some(profile.misses_for_capacity(assoc as usize)),
                "{assoc}"
            );
        }
        assert_eq!(sweep.misses(1, 6), None, "beyond the bound");
    }

    #[test]
    fn bounded_depths_predict_per_reference_hits() {
        // The per-reference contract holds for every associativity at or
        // below the bound, however tight: deeper depths surface as
        // bound + 1, which correctly predicts a miss.
        let stream = mixed_stream();
        for (sets, bound) in [(1u64, 8u64), (4, 2), (16, 1), (8, 4)] {
            for assoc in [1u64, 2, 4, 8].into_iter().filter(|&a| a <= bound) {
                let geom = CacheGeometry::new(sets * assoc * 16, 16, assoc).unwrap();
                let mut cache = Cache::new(geom);
                let mut sweep = LruSweep::bounded(&[(sets, bound)]).unwrap();
                for &n in &stream {
                    let (cold, depths) = sweep.observe_depths(l(n));
                    let predicted_hit = !cold && u64::from(depths[0]) <= assoc;
                    assert_eq!(
                        cache.access_line(l(n)).is_hit(),
                        predicted_hit,
                        "{sets} sets, bound {bound}, {assoc} ways at line {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn bounded_constructor_rejects_bad_cells() {
        assert_eq!(LruSweep::bounded(&[]).unwrap_err(), SinglePassError::Empty);
        assert_eq!(
            LruSweep::bounded(&[(3, 2)]).unwrap_err(),
            SinglePassError::BadSetCount(3)
        );
        assert_eq!(
            LruSweep::bounded(&[(4, 0)]).unwrap_err(),
            SinglePassError::BadAssociativity(0)
        );
        assert_eq!(
            LruSweep::bounded(&[(4, u64::from(u32::MAX) + 1)]).unwrap_err(),
            SinglePassError::BadAssociativity(u64::from(u32::MAX) + 1)
        );
    }

    #[test]
    fn engines_count_the_all_ones_line_like_any_other() {
        // The all-ones line is an ordinary line to both engines: their
        // free slots hold ids, which never collide with it.
        let max = u64::MAX;
        let stream = [max, 0, max, 0, max];
        let mut lru = LruSweep::bounded(&[(1, 1)]).unwrap();
        let mut fifo = FifoSweep::new(&[(1, 1)]).unwrap();
        for &n in &stream {
            lru.observe(l(n));
            fifo.observe(l(n));
        }
        assert_eq!(lru.misses(1, 1), Some(5));
        assert_eq!(fifo.misses(1, 1), Some(5));
        // Lines crowding the top of the address space, on every grid cell.
        const SEED: u64 = 0x616c_6c5f_6f6e_6573;
        let mut rng = jouppi_trace::SmallRng::seed_from_u64(SEED);
        for round in 0..16 {
            let stream: Vec<u64> = (0..200 + rng.below(200))
                .map(|_| max - ((rng.below(6) as u64) << rng.below(8)))
                .collect();
            let mut lru = LruSweep::bounded(&GRID).unwrap();
            let mut fifo = FifoSweep::new(&GRID).unwrap();
            for &n in &stream {
                lru.observe(l(n));
                fifo.observe(l(n));
            }
            for &(sets, assoc) in &GRID {
                let at = format!("seed {SEED:#x} round {round}: {sets}x{assoc}");
                let lru_oracle = oracle(&stream, sets, assoc, ReplacementPolicy::Lru);
                let fifo_oracle = oracle(&stream, sets, assoc, ReplacementPolicy::Fifo);
                assert_eq!(lru.misses(sets, assoc), Some(lru_oracle), "LRU {at}");
                assert_eq!(fifo.misses(sets, assoc), Some(fifo_oracle), "FIFO {at}");
            }
        }
    }

    #[test]
    fn fifo_constructor_rejects_associativity_beyond_u32() {
        // 2^32 ways must not truncate to 0 ways over 2^32 slots.
        let ways = 1u64 << 32;
        assert_eq!(
            FifoSweep::new(&[(1, ways)]).unwrap_err(),
            SinglePassError::BadAssociativity(ways)
        );
    }

    #[test]
    fn observing_ids_equals_observing_lines() {
        // Ids from one interner over the stream, against engines that
        // intern the lines themselves; lines are spread so their bits and
        // their ids pick different sets.
        let stream: Vec<u64> = mixed_stream().iter().map(|&n| n * 0x1_0001 + 3).collect();
        let mut interner = jouppi_trace::LineInterner::new();
        let mut by_id = (
            LruSweep::bounded(&GRID).unwrap(),
            FifoSweep::new(&GRID).unwrap(),
        );
        let mut by_line = by_id.clone();
        for &n in &stream {
            let id = interner.intern(l(n));
            by_id.0.observe_id(id, l(n));
            let missed = by_id.1.observe_id(id, l(n));
            by_line.0.observe(l(n));
            assert_eq!(by_line.1.observe(l(n)), missed);
        }
        for &(sets, assoc) in &GRID {
            let lru = oracle(&stream, sets, assoc, ReplacementPolicy::Lru);
            assert_eq!(by_id.0.misses(sets, assoc), Some(lru), "{sets}x{assoc}");
            assert_eq!(by_line.0.misses(sets, assoc), Some(lru), "{sets}x{assoc}");
            assert_eq!(
                by_id.1.misses(sets, assoc),
                by_line.1.misses(sets, assoc),
                "{sets}x{assoc}"
            );
        }
        assert_eq!(by_id.0.distinct_lines(), interner.len());
    }

    #[test]
    #[should_panic(expected = "first-touch order")]
    fn ids_out_of_first_touch_order_are_rejected() {
        let mut sweep = LruSweep::bounded(&[(1, 2)]).unwrap();
        sweep.observe_id(0, l(5));
        sweep.observe_id(2, l(6));
    }

    #[test]
    fn fifo_sweep_uses_every_bit_of_its_mask() {
        // 64 distinct cells fill the mask; there `(1 << len) - 1` would
        // wrap to an empty mask in a release build. The cells run from
        // 128 sets × 128 ways down to one line, so cell 63, the top bit,
        // evicts on every new reference.
        let cells: Vec<(u64, u64)> = (0..8u32)
            .rev()
            .flat_map(|s| (0..8u32).rev().map(move |a| (1u64 << s, 1u64 << a)))
            .collect();
        assert_eq!(cells.len(), FifoSweep::MAX_CELLS);
        assert_eq!(cells[63], (1, 1));
        let stream = mixed_stream();
        let mut sweep = FifoSweep::new(&cells).unwrap();
        // A first touch misses in every cell, the top one included.
        assert_eq!(sweep.observe(l(stream[0])), u64::MAX);
        for &n in &stream[1..] {
            sweep.observe(l(n));
        }
        for (c, &(sets, assoc)) in cells.iter().enumerate() {
            assert_eq!(
                sweep.misses(sets, assoc),
                Some(oracle(&stream, sets, assoc, ReplacementPolicy::Fifo)),
                "cell {c}: {sets} sets × {assoc} ways"
            );
        }
        let mut too_many = cells;
        too_many.push((256, 1));
        assert_eq!(
            FifoSweep::new(&too_many).unwrap_err(),
            SinglePassError::TooManyCells {
                requested: 65,
                max: 64
            }
        );
    }

    #[test]
    fn fifo_duplicate_cells_are_deduplicated() {
        let sweep = FifoSweep::new(&[(1, 2), (1, 2), (2, 1)]).unwrap();
        assert_eq!(sweep.cells(), &[(1, 2), (2, 1)]);
    }
}
