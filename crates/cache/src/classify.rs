//! Three-C miss classification (compulsory / capacity / conflict).
//!
//! The paper (following Hill) defines **conflict misses** as "misses that
//! would not occur if the cache was fully-associative and had LRU
//! replacement", **compulsory misses** as first references to a line, and
//! **capacity misses** as the remainder. This module implements that
//! definition directly: a shadow fully-associative LRU cache of the same
//! capacity runs alongside the real cache, plus a seen-lines set for
//! compulsory detection. Both are indexed by dense line ids
//! ([`jouppi_trace::LineInterner`]), so a reference costs no hashing
//! when its id is memoized with the trace.

use jouppi_trace::{Addr, LineAddr, LineInterner};

use crate::{AccessResult, Cache, CacheGeometry, CacheStats, MissBreakdown};

/// The class of a single miss under the three-C model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First-ever reference to the line.
    Compulsory,
    /// The fully-associative shadow cache missed too.
    Capacity,
    /// Only the real (less associative) cache missed.
    Conflict,
}

/// Classifies misses of a cache by running a shadow fully-associative LRU
/// cache of the same capacity.
///
/// Feed **every** reference to [`MissClassifier::observe`], passing whether
/// the real cache missed; the classifier keeps its shadow state in sync and
/// returns the class for misses. [`MissClassifier::observe_id`] takes the
/// line's id instead and hashes nothing.
///
/// # Examples
///
/// ```
/// use jouppi_cache::{Cache, CacheGeometry, MissClass, MissClassifier};
/// use jouppi_trace::LineAddr;
///
/// # fn main() -> Result<(), jouppi_cache::GeometryError> {
/// let geom = CacheGeometry::direct_mapped(64, 16)?; // 4 lines
/// let mut cache = Cache::new(geom);
/// let mut cls = MissClassifier::new(geom);
///
/// // Two lines that conflict in the direct-mapped cache but easily fit in
/// // a 4-line fully-associative cache:
/// let (a, b) = (LineAddr::new(0), LineAddr::new(4));
/// for (i, &line) in [a, b, a, b].iter().enumerate() {
///     let miss = cache.access_line(line).is_miss();
///     let class = cls.observe(line, miss);
///     if i < 2 {
///         assert_eq!(class, Some(MissClass::Compulsory));
///     } else {
///         assert_eq!(class, Some(MissClass::Conflict));
///     }
/// }
/// assert_eq!(cls.breakdown().conflict, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct MissClassifier {
    shadow: ShadowLru,
    breakdown: MissBreakdown,
    /// Ids for lines fed through [`Self::observe`].
    interner: LineInterner,
}

impl MissClassifier {
    /// Creates a classifier for a cache of the given geometry (the shadow
    /// cache gets the same capacity in lines).
    pub fn new(geom: CacheGeometry) -> Self {
        MissClassifier {
            shadow: ShadowLru::new(geom.num_lines() as usize),
            breakdown: MissBreakdown::new(),
            interner: LineInterner::new(),
        }
    }

    /// Observes one reference.
    ///
    /// `real_miss` says whether the cache being classified missed on this
    /// reference. Returns the miss class when `real_miss` is `true`, `None`
    /// otherwise. Must be called for *every* reference, hits included, so
    /// the shadow cache sees the same stream.
    ///
    /// Feed a classifier either lines, here, or ids, in
    /// [`Self::observe_id`]: not both.
    pub fn observe(&mut self, line: LineAddr, real_miss: bool) -> Option<MissClass> {
        let id = self.interner.intern(line);
        self.observe_id(id, real_miss)
    }

    /// Observes one reference by its line id, with no hashing: `id` is
    /// the line's id from one [`LineInterner`] fed the classifier's whole
    /// stream in order, as the ids of [`jouppi_trace::SideView::runs`]
    /// are. An immediate repeat of the line just observed is a shadow hit
    /// that changes no state, so a caller may observe each run of repeats
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if `id` skips past the next new id: ids must arrive in
    /// first-touch order.
    pub fn observe_id(&mut self, id: u32, real_miss: bool) -> Option<MissClass> {
        let probe = self.shadow.access(id);
        if !real_miss {
            return None;
        }
        let class = match probe {
            ShadowProbe::FirstTouch => MissClass::Compulsory,
            ShadowProbe::SeenButEvicted => MissClass::Capacity,
            ShadowProbe::Resident => MissClass::Conflict,
        };
        match class {
            MissClass::Compulsory => self.breakdown.compulsory += 1,
            MissClass::Capacity => self.breakdown.capacity += 1,
            MissClass::Conflict => self.breakdown.conflict += 1,
        }
        Some(class)
    }

    /// The accumulated per-class miss counts.
    pub fn breakdown(&self) -> MissBreakdown {
        self.breakdown
    }

    /// Number of distinct lines observed so far (equals the compulsory miss
    /// count of any demand-fetch cache over the same stream).
    pub fn distinct_lines(&self) -> usize {
        self.shadow.distinct_lines()
    }
}

/// What the shadow cache knew about a line before the access updated it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShadowProbe {
    /// Never referenced before → compulsory if the real cache missed.
    FirstTouch,
    /// Referenced before but since evicted from the fully-associative
    /// shadow → capacity if the real cache missed.
    SeenButEvicted,
    /// Resident in the shadow → conflict if the real cache missed.
    Resident,
}

/// Sentinel state of a line that was seen but is no longer resident in
/// the shadow cache.
const EVICTED: u32 = u32::MAX;
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct ShadowNode {
    id: u32,
    prev: u32,
    next: u32,
}

/// The classifier's shadow state: a fully-associative LRU cache *and* the
/// first-touch set, folded into one array indexed by line id, so the
/// per-reference hot path costs one indexed load (the classic three-C
/// loop needs both facts for every reference).
///
/// `state[id]`: the line's slot while resident, [`EVICTED`] once
/// evicted. Ids arrive in first-touch order, so an id past the end is a
/// first touch and `state.len()` is the distinct-line count.
#[derive(Clone, Debug)]
struct ShadowLru {
    state: Vec<u32>,
    slots: Vec<ShadowNode>,
    head: u32,
    tail: u32,
    resident: usize,
    capacity: usize,
}

impl ShadowLru {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "shadow capacity must be nonzero");
        assert!(
            capacity < EVICTED as usize,
            "shadow capacity exceeds slot index range"
        );
        ShadowLru {
            state: Vec::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            resident: 0,
            capacity,
        }
    }

    fn distinct_lines(&self) -> usize {
        self.state.len()
    }

    /// Accesses line `id`: reports its prior state and leaves it resident
    /// MRU (evicting the LRU line to make room if needed).
    fn access(&mut self, id: u32) -> ShadowProbe {
        let prior = match self.state.get(id as usize).copied() {
            Some(slot) if slot != EVICTED => {
                // Hot path (shadow hit): one load, and a list relink
                // unless the line is already the most recent.
                if slot != self.head {
                    self.unlink(slot);
                    self.push_front(slot);
                }
                return ShadowProbe::Resident;
            }
            Some(_) => ShadowProbe::SeenButEvicted,
            None => {
                assert_eq!(
                    id as usize,
                    self.state.len(),
                    "line ids must arrive in first-touch order"
                );
                self.state.push(EVICTED);
                ShadowProbe::FirstTouch
            }
        };
        let idx = self.make_room();
        self.slots[idx as usize] = ShadowNode {
            id,
            prev: NIL,
            next: NIL,
        };
        self.state[id as usize] = idx;
        self.push_front(idx);
        self.resident += 1;
        prior
    }

    /// Frees (or allocates) a slot for an incoming line, evicting the LRU
    /// resident if the shadow is at capacity. Evicted slots are reused
    /// immediately, so no free list is needed.
    fn make_room(&mut self) -> u32 {
        if self.resident == self.capacity {
            let lru = self.tail;
            let victim = self.slots[lru as usize].id;
            self.unlink(lru);
            self.state[victim as usize] = EVICTED;
            self.resident -= 1;
            return lru;
        }
        self.slots.push(ShadowNode {
            id: NIL,
            prev: NIL,
            next: NIL,
        });
        (self.slots.len() - 1) as u32
    }

    fn unlink(&mut self, idx: u32) {
        let ShadowNode { prev, next, .. } = self.slots[idx as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.slots[idx as usize].prev = NIL;
        self.slots[idx as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// A cache bundled with a classifier: every access is classified.
///
/// This is the workhorse for Figure 3-1 (conflict-miss fractions) and for
/// the conflict-miss denominators in Figures 3-3 through 3-7.
///
/// # Examples
///
/// ```
/// use jouppi_cache::{CacheGeometry, ClassifiedCache};
/// use jouppi_trace::Addr;
///
/// # fn main() -> Result<(), jouppi_cache::GeometryError> {
/// let mut c = ClassifiedCache::new(CacheGeometry::direct_mapped(4096, 16)?);
/// c.access(Addr::new(0));
/// c.access(Addr::new(4096)); // conflicts with the first line
/// c.access(Addr::new(0));
/// let b = c.breakdown();
/// assert_eq!(b.compulsory, 2);
/// assert_eq!(b.conflict, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ClassifiedCache {
    cache: Cache,
    classifier: MissClassifier,
}

impl ClassifiedCache {
    /// Creates a direct-mapped (or other) cache with an attached classifier.
    pub fn new(geom: CacheGeometry) -> Self {
        ClassifiedCache {
            cache: Cache::new(geom),
            classifier: MissClassifier::new(geom),
        }
    }

    /// Accesses a byte address, returning the miss class if it missed.
    pub fn access(&mut self, addr: Addr) -> Option<MissClass> {
        let line = self.cache.geometry().line_of(addr);
        self.access_line(line)
    }

    /// Accesses a line address, returning the miss class if it missed.
    pub fn access_line(&mut self, line: LineAddr) -> Option<MissClass> {
        let result = self.cache.access_line(line);
        self.classifier
            .observe(line, matches!(result, AccessResult::Miss { .. }))
    }

    /// The underlying cache's demand statistics.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// The per-class miss counts so far.
    pub fn breakdown(&self) -> MissBreakdown {
        self.classifier.breakdown()
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        self.cache.geometry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    /// 64B direct-mapped cache with 16B lines: 4 sets, 4 lines total.
    fn small() -> (Cache, MissClassifier) {
        let geom = CacheGeometry::direct_mapped(64, 16).unwrap();
        (Cache::new(geom), MissClassifier::new(geom))
    }

    fn run(cache: &mut Cache, cls: &mut MissClassifier, line: LineAddr) -> Option<MissClass> {
        let miss = cache.access_line(line).is_miss();
        cls.observe(line, miss)
    }

    #[test]
    fn first_touch_is_compulsory() {
        let (mut c, mut k) = small();
        assert_eq!(run(&mut c, &mut k, l(0)), Some(MissClass::Compulsory));
        assert_eq!(run(&mut c, &mut k, l(0)), None); // hit
        assert_eq!(k.distinct_lines(), 1);
    }

    #[test]
    fn tight_conflict_is_classified_conflict() {
        let (mut c, mut k) = small();
        // Lines 0 and 4 collide in the 4-set cache; the 4-line shadow holds both.
        for &line in &[l(0), l(4), l(0), l(4), l(0)] {
            run(&mut c, &mut k, line);
        }
        let b = k.breakdown();
        assert_eq!(b.compulsory, 2);
        assert_eq!(b.conflict, 3);
        assert_eq!(b.capacity, 0);
    }

    #[test]
    fn working_set_larger_than_cache_is_capacity() {
        let (mut c, mut k) = small();
        // 8 distinct non-conflicting-in-time lines cycled: exceeds 4-line
        // capacity in the shadow too.
        for _ in 0..3 {
            for i in 0..8 {
                run(&mut c, &mut k, l(i));
            }
        }
        let b = k.breakdown();
        assert_eq!(b.compulsory, 8);
        assert!(b.capacity > 0);
        // Every miss after the first round would also miss fully-associative
        // (LRU cycling over 8 > 4 lines), so no conflict misses.
        assert_eq!(b.conflict, 0);
    }

    #[test]
    fn classes_partition_total_misses() {
        let (mut c, mut k) = small();
        let mut misses = 0;
        // A stream mixing reuse, conflicts, and capacity pressure.
        let stream: Vec<u64> = (0..200).map(|i| (i * 7 + i % 3) % 16).collect();
        for &n in &stream {
            let miss = c.access_line(l(n)).is_miss();
            if miss {
                misses += 1;
            }
            k.observe(l(n), miss);
        }
        assert_eq!(k.breakdown().total(), misses);
    }

    #[test]
    fn fully_associative_cache_has_no_conflict_misses() {
        let geom = CacheGeometry::fully_associative(64, 16).unwrap();
        let mut c = Cache::new(geom);
        let mut k = MissClassifier::new(geom);
        let stream: Vec<u64> = (0..500).map(|i| (i * 13 + i / 7) % 12).collect();
        for &n in &stream {
            let miss = c.access_line(l(n)).is_miss();
            k.observe(l(n), miss);
        }
        assert_eq!(
            k.breakdown().conflict,
            0,
            "an FA-LRU cache can never have conflict misses by definition"
        );
    }

    #[test]
    fn compulsory_equals_distinct_lines() {
        let (mut c, mut k) = small();
        let stream: Vec<u64> = (0..300).map(|i| (i * 5) % 23).collect();
        for &n in &stream {
            let miss = c.access_line(l(n)).is_miss();
            k.observe(l(n), miss);
        }
        assert_eq!(k.breakdown().compulsory as usize, k.distinct_lines());
    }

    #[test]
    fn classified_cache_wrapper_matches_manual_composition() {
        let geom = CacheGeometry::direct_mapped(64, 16).unwrap();
        let mut wrapped = ClassifiedCache::new(geom);
        let (mut c, mut k) = small();
        let stream: Vec<u64> = (0..400).map(|i| (i * 3 + i % 5) % 20).collect();
        for &n in &stream {
            let a = wrapped.access_line(l(n));
            let b = run(&mut c, &mut k, l(n));
            assert_eq!(a, b);
        }
        assert_eq!(wrapped.breakdown(), k.breakdown());
        assert_eq!(wrapped.stats().misses, c.stats().misses);
        assert_eq!(wrapped.geometry(), &geom);
    }

    #[test]
    fn classified_cache_accepts_byte_addresses() {
        let geom = CacheGeometry::direct_mapped(64, 16).unwrap();
        let mut c = ClassifiedCache::new(geom);
        assert_eq!(c.access(Addr::new(0x8)), Some(MissClass::Compulsory));
        assert_eq!(c.access(Addr::new(0xc)), None); // same line: hit
    }
}
