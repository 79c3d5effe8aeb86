//! The generic set-associative cache model.

use jouppi_trace::{Addr, LineAddr, SmallRng};

use crate::{CacheGeometry, CacheStats, ReplacementPolicy};

/// Outcome of a demand access to a [`Cache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was resident.
    Hit,
    /// The line was not resident; it has been filled, evicting `victim`
    /// (if the target way held a valid line).
    Miss {
        /// The line displaced by the fill, if any. This is exactly the line
        /// a victim cache would capture.
        victim: Option<LineAddr>,
    },
}

impl AccessResult {
    /// Returns `true` for [`AccessResult::Hit`].
    #[inline]
    pub const fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit)
    }

    /// Returns `true` for [`AccessResult::Miss`].
    #[inline]
    pub const fn is_miss(&self) -> bool {
        !self.is_hit()
    }
}

#[derive(Clone, Copy, Debug)]
struct Way {
    line: LineAddr,
    /// Last-use time under LRU; insertion time under FIFO; unused by Random.
    stamp: u64,
}

/// A tag-only set-associative cache (direct-mapped through fully
/// associative) with a configurable replacement policy.
///
/// Lines live in one flat slot arena (`num_sets × associativity`,
/// set-major) rather than per-set `Vec`s, so a set's ways are a
/// contiguous slice and the direct-mapped case — the paper's baseline,
/// and the hot path of every sweep — reduces to a single slot compare
/// with no way scan and no replacement-policy dispatch.
///
/// Two API levels are provided:
///
/// * [`Cache::access`] / [`Cache::access_line`] — a complete demand access:
///   lookup, fill-on-miss, and statistics. This is what plain baseline
///   simulations and the L1 of `jouppi-core`'s augmented organizations
///   use.
/// * The primitives [`Cache::lookup`] and [`Cache::fill`] — used by
///   `jouppi-core`'s prefetch simulator, which fills prefetched lines
///   into the cache. The primitives do **not** update [`Cache::stats`];
///   the simulator keeps its own counters.
///
/// # Examples
///
/// ```
/// use jouppi_cache::{AccessResult, Cache, CacheGeometry};
/// use jouppi_trace::Addr;
///
/// # fn main() -> Result<(), jouppi_cache::GeometryError> {
/// let mut c = Cache::new(CacheGeometry::direct_mapped(64, 16)?);
/// assert!(c.access(Addr::new(0)).is_miss());
/// assert!(c.access(Addr::new(8)).is_hit());     // same line
/// // 64B direct-mapped cache of 16B lines = 4 sets; 0 and 64 collide:
/// match c.access(Addr::new(64)) {
///     AccessResult::Miss { victim } => assert_eq!(victim, Some(Addr::new(0).line(16))),
///     AccessResult::Hit => unreachable!(),
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    geom: CacheGeometry,
    policy: ReplacementPolicy,
    /// Slot arena, set-major: set `s` owns `slots[s*assoc .. (s+1)*assoc]`.
    slots: Vec<Option<Way>>,
    assoc: usize,
    stats: CacheStats,
    tick: u64,
    rng: SmallRng,
}

impl Cache {
    /// Creates an empty cache with LRU replacement (exact LRU; for a
    /// direct-mapped cache the policy is irrelevant).
    pub fn new(geom: CacheGeometry) -> Self {
        Cache::with_policy(geom, ReplacementPolicy::Lru)
    }

    /// Creates an empty cache with the given replacement policy.
    pub fn with_policy(geom: CacheGeometry, policy: ReplacementPolicy) -> Self {
        let assoc = geom.associativity() as usize;
        Cache {
            geom,
            policy,
            slots: vec![None; geom.num_lines() as usize],
            assoc,
            stats: CacheStats::default(),
            tick: 0,
            rng: SmallRng::seed_from_u64(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// The cache's geometry.
    #[inline]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// The replacement policy in use.
    #[inline]
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Demand-access statistics accumulated by [`Cache::access`].
    #[inline]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The slice of slots backing the set `line` maps to.
    #[inline]
    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let start = self.geom.set_of(line) * self.assoc;
        start..start + self.assoc
    }

    /// Performs a full demand access for a byte address: lookup, fill on
    /// miss, and statistics update.
    pub fn access(&mut self, addr: Addr) -> AccessResult {
        let line = self.geom.line_of(addr);
        self.access_line(line)
    }

    /// Performs a full demand access for a line address.
    pub fn access_line(&mut self, line: LineAddr) -> AccessResult {
        if self.assoc == 1 {
            self.access_line_direct(line)
        } else {
            self.access_line_generic(line)
        }
    }

    /// The direct-mapped fast path: one slot, one compare, no way scan,
    /// no replacement-policy dispatch. Stamps are irrelevant at
    /// associativity 1 (the sole slot is always the victim), so the tick
    /// counter is not advanced.
    #[inline]
    fn access_line_direct(&mut self, line: LineAddr) -> AccessResult {
        self.stats.accesses += 1;
        let idx = self.geom.set_of(line);
        match &mut self.slots[idx] {
            Some(way) if way.line == line => {
                self.stats.hits += 1;
                AccessResult::Hit
            }
            Some(way) => {
                let victim = way.line;
                way.line = line;
                self.stats.misses += 1;
                self.stats.evictions += 1;
                AccessResult::Miss {
                    victim: Some(victim),
                }
            }
            slot @ None => {
                *slot = Some(Way { line, stamp: 0 });
                self.stats.misses += 1;
                AccessResult::Miss { victim: None }
            }
        }
    }

    /// The generic demand-access path, valid for any associativity.
    ///
    /// Exposed (hidden from docs) so equivalence tests can pit the
    /// direct-mapped fast path against it on the same trace.
    #[doc(hidden)]
    pub fn access_line_generic(&mut self, line: LineAddr) -> AccessResult {
        self.stats.accesses += 1;
        if self.lookup(line) {
            self.stats.hits += 1;
            AccessResult::Hit
        } else {
            self.stats.misses += 1;
            let victim = self.fill(line);
            if victim.is_some() {
                self.stats.evictions += 1;
            }
            AccessResult::Miss { victim }
        }
    }

    /// Checks residency without updating replacement state or statistics.
    pub fn probe(&self, line: LineAddr) -> bool {
        self.slots[self.set_range(line)]
            .iter()
            .any(|w| matches!(w, Some(w) if w.line == line))
    }

    /// Looks up a line: on a hit the line's recency is updated (for LRU) and
    /// `true` is returned; on a miss nothing changes and `false` is
    /// returned. Statistics are *not* updated.
    pub fn lookup(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        if self.assoc == 1 {
            // Direct-mapped: recency is irrelevant, skip the scan.
            return matches!(&self.slots[range.start], Some(w) if w.line == line);
        }
        let lru = self.policy == ReplacementPolicy::Lru;
        for way in self.slots[range].iter_mut().flatten() {
            if way.line == line {
                if lru {
                    way.stamp = tick;
                }
                return true;
            }
        }
        false
    }

    /// Fills a line into the cache, evicting per the replacement policy if
    /// the set is full. Returns the displaced line, if any. Statistics are
    /// *not* updated.
    ///
    /// If the line is already resident this is a no-op returning `None`
    /// (composites may race a prefetch against a demand fill).
    pub fn fill(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        if self.assoc == 1 {
            let slot = &mut self.slots[range.start];
            return match slot {
                Some(way) if way.line == line => None,
                Some(way) => {
                    let victim = way.line;
                    *way = Way { line, stamp: tick };
                    Some(victim)
                }
                None => {
                    *slot = Some(Way { line, stamp: tick });
                    None
                }
            };
        }
        let mut free = None;
        for (i, slot) in self.slots[range.clone()].iter().enumerate() {
            match slot {
                Some(way) if way.line == line => return None,
                None if free.is_none() => free = Some(i),
                _ => {}
            }
        }
        let offset = match free {
            Some(i) => i,
            None => match self.policy {
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo => self.slots[range.clone()]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.expect("full set has no empty slots").stamp)
                    .map(|(i, _)| i)
                    .expect("associativity is nonzero"),
                ReplacementPolicy::Random => self.rng.below(self.assoc),
            },
        };
        let slot = &mut self.slots[range.start + offset];
        let victim = slot.map(|w| w.line);
        *slot = Some(Way { line, stamp: tick });
        victim
    }

    /// Number of currently resident lines.
    pub fn resident_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Iterates over all resident lines (set order, then way order).
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.slots.iter().filter_map(|s| s.map(|w| w.line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm(size: u64, line: u64) -> Cache {
        Cache::new(CacheGeometry::direct_mapped(size, line).unwrap())
    }

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn direct_mapped_conflict_eviction() {
        let mut c = dm(64, 16); // 4 sets
        assert_eq!(c.access_line(l(0)), AccessResult::Miss { victim: None });
        assert_eq!(c.access_line(l(0)), AccessResult::Hit);
        // line 4 maps to set 0 as well
        assert_eq!(
            c.access_line(l(4)),
            AccessResult::Miss { victim: Some(l(0)) }
        );
        assert_eq!(
            c.access_line(l(0)),
            AccessResult::Miss { victim: Some(l(4)) }
        );
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 3);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn two_way_lru_keeps_recently_used() {
        let geom = CacheGeometry::new(64, 16, 2).unwrap(); // 2 sets, 2-way
        let mut c = Cache::new(geom);
        // Set 0 holds lines 0, 2, 4, ... (even lines).
        c.access_line(l(0));
        c.access_line(l(2));
        c.access_line(l(0)); // touch 0: now 2 is LRU
        assert_eq!(
            c.access_line(l(4)),
            AccessResult::Miss { victim: Some(l(2)) }
        );
        assert!(c.probe(l(0)));
        assert!(c.probe(l(4)));
    }

    #[test]
    fn fifo_ignores_touches() {
        let geom = CacheGeometry::new(32, 16, 2).unwrap(); // 1 set, 2-way
        let mut c = Cache::with_policy(geom, ReplacementPolicy::Fifo);
        c.access_line(l(0));
        c.access_line(l(1));
        c.access_line(l(0)); // hit; FIFO order unchanged
        assert_eq!(
            c.access_line(l(2)),
            AccessResult::Miss { victim: Some(l(0)) }
        );
    }

    #[test]
    fn random_policy_evicts_something_from_full_set() {
        let geom = CacheGeometry::new(64, 16, 4).unwrap(); // 1 set, 4-way
        let mut c = Cache::with_policy(geom, ReplacementPolicy::Random);
        for i in 0..4 {
            assert_eq!(c.access_line(l(i)), AccessResult::Miss { victim: None });
        }
        match c.access_line(l(10)) {
            AccessResult::Miss { victim: Some(v) } => assert!(v.get() < 4),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(c.resident_count(), 4);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let geom = CacheGeometry::new(32, 16, 2).unwrap();
        let mut c = Cache::new(geom);
        c.access_line(l(0));
        c.access_line(l(1));
        assert!(c.probe(l(0))); // must NOT make 0 MRU
        assert_eq!(
            c.access_line(l(2)),
            AccessResult::Miss { victim: Some(l(0)) }
        );
    }

    #[test]
    fn fill_is_idempotent_for_resident_lines() {
        let mut c = dm(64, 16);
        c.fill(l(0));
        assert_eq!(c.fill(l(0)), None);
        assert_eq!(c.resident_count(), 1);
    }

    #[test]
    fn byte_address_access_uses_line_size() {
        let mut c = dm(4096, 16);
        c.access(Addr::new(0x100));
        assert!(c.access(Addr::new(0x10f)).is_hit());
        assert!(c.access(Addr::new(0x110)).is_miss());
    }

    #[test]
    fn resident_lines_enumerates_all() {
        let mut c = dm(64, 16);
        c.access_line(l(0));
        c.access_line(l(1));
        let mut lines: Vec<_> = c.resident_lines().collect();
        lines.sort();
        assert_eq!(lines, vec![l(0), l(1)]);
    }

    #[test]
    fn fully_associative_equals_lru_set_behaviour() {
        let geom = CacheGeometry::fully_associative(64, 16).unwrap(); // 4 lines
        let mut c = Cache::new(geom);
        for i in 0..4 {
            c.access_line(l(i * 100)); // arbitrary lines all share set 0
        }
        c.access_line(l(0)); // touch first
        match c.access_line(l(999)) {
            AccessResult::Miss { victim } => assert_eq!(victim, Some(l(100))),
            AccessResult::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn direct_mapped_fast_path_matches_generic_path() {
        // Same pseudo-random line stream through both entry points: the
        // results and stats must agree step for step.
        let geom = CacheGeometry::direct_mapped(256, 16).unwrap(); // 16 sets
        let mut fast = Cache::new(geom);
        let mut generic = Cache::new(geom);
        let mut x = 0xdead_beefu64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let line = l(x >> 40); // ~24-bit line space, heavy conflicts
            assert_eq!(fast.access_line(line), generic.access_line_generic(line));
        }
        assert_eq!(fast.stats(), generic.stats());
        let mut a: Vec<_> = fast.resident_lines().collect();
        let mut b: Vec<_> = generic.resident_lines().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
