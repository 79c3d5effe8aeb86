//! The miss cache of §3.1.

use jouppi_trace::LineAddr;

/// A small fully-associative cache between a direct-mapped cache and its
/// refill path, loaded with the **requested** line on every first-level
/// miss (§3.1 of the paper).
///
/// Because the requested line is loaded into both the direct-mapped cache
/// and the miss cache, lines are duplicated — the observation that motivates
/// [victim caching](crate::VictimCache).
///
/// The miss cache is probed in parallel with the upper cache; a probe that
/// hits turns a many-cycle off-chip miss into a one-cycle reload.
///
/// Replacement is exact LRU. The lines sit in one `Vec` in MRU-first
/// order and are scanned linearly, as the hardware's parallel comparators
/// are searched: at the paper's 1-15 entries a scan costs one or two
/// cache lines of data and no hashing.
///
/// # Examples
///
/// ```
/// use jouppi_core::MissCache;
/// use jouppi_trace::LineAddr;
///
/// let mut mc = MissCache::new(2);
/// let (a, b) = (LineAddr::new(0), LineAddr::new(256)); // conflicting pair
/// // First misses: loaded into the miss cache alongside the upper cache.
/// mc.insert(a);
/// mc.insert(b);
/// // The alternating string-compare pattern now hits in the miss cache:
/// assert!(mc.probe_and_touch(a));
/// assert!(mc.probe_and_touch(b));
/// ```
#[derive(Clone, Debug)]
pub struct MissCache {
    /// Resident lines, most-recently used first.
    lines: Vec<LineAddr>,
    capacity: usize,
}

impl MissCache {
    /// Creates a miss cache with `entries` lines (the paper studies 1-15,
    /// recommending 2-5).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "miss cache capacity must be nonzero");
        MissCache {
            lines: Vec::with_capacity(entries),
            capacity: entries,
        }
    }

    /// Number of entries the miss cache can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently valid entries.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Returns `true` if no entries are valid.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Probes for `line` on an upper-cache miss. On a hit the entry becomes
    /// most-recently used (the upper cache is reloaded from here in one
    /// cycle) and `true` is returned.
    #[inline]
    pub fn probe_and_touch(&mut self, line: LineAddr) -> bool {
        match self.lines.iter().position(|&l| l == line) {
            Some(pos) => {
                self.lines[..=pos].rotate_right(1);
                true
            }
            None => false,
        }
    }

    /// Checks residency without updating recency (for overlap statistics).
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.lines.contains(&line)
    }

    /// Loads the requested `line` after a full miss as the
    /// most-recently-used entry, replacing the least-recently-used one
    /// when full. Returns the entry that was displaced, if any. A line
    /// already resident is only touched, and `None` is returned.
    pub fn insert(&mut self, line: LineAddr) -> Option<LineAddr> {
        if self.probe_and_touch(line) {
            return None;
        }
        let evicted = (self.lines.len() == self.capacity)
            .then(|| self.lines.pop())
            .flatten();
        self.lines.insert(0, line);
        evicted
    }

    /// Iterates over the resident lines, most-recently used first.
    pub fn iter(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.lines.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn two_entry_cache_absorbs_alternating_pair() {
        let mut mc = MissCache::new(2);
        mc.insert(l(1));
        mc.insert(l(2));
        for _ in 0..10 {
            assert!(mc.probe_and_touch(l(1)));
            assert!(mc.probe_and_touch(l(2)));
        }
        assert_eq!(mc.len(), 2);
    }

    #[test]
    fn lru_replacement_on_insert() {
        let mut mc = MissCache::new(2);
        mc.insert(l(1));
        mc.insert(l(2));
        mc.probe_and_touch(l(1)); // 2 becomes LRU
        assert_eq!(mc.insert(l(3)), Some(l(2)));
        assert!(mc.contains(l(1)));
        assert!(!mc.contains(l(2)));
    }

    #[test]
    fn probe_miss_returns_false() {
        let mut mc = MissCache::new(2);
        assert!(!mc.probe_and_touch(l(7)));
        assert!(mc.is_empty());
        assert_eq!(mc.capacity(), 2);
    }

    #[test]
    fn thrashing_three_way_conflict_defeats_two_entries() {
        // Three alternating conflicting lines overwhelm a 2-entry miss
        // cache cycled in LRU order — the paper's motivating limit case.
        let mut mc = MissCache::new(2);
        let mut hits = 0;
        for i in 0..30 {
            let line = l(i % 3);
            if mc.probe_and_touch(line) {
                hits += 1;
            } else {
                mc.insert(line);
            }
        }
        assert_eq!(
            hits, 0,
            "LRU cycling of 3 lines through 2 entries never hits"
        );
    }

    #[test]
    fn iter_is_mru_first() {
        let mut mc = MissCache::new(3);
        mc.insert(l(1));
        mc.insert(l(2));
        mc.insert(l(3));
        mc.probe_and_touch(l(1));
        let order: Vec<_> = mc.iter().collect();
        assert_eq!(order, vec![l(1), l(3), l(2)]);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = MissCache::new(0);
    }
}
