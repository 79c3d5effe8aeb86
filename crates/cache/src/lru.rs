//! An exact least-recently-used set of cache lines.
//!
//! [`LruSet`] holds the fully-associative miss caches of `jouppi-core`
//! (1-15 entries in the paper). It is a single `Vec` kept in MRU-first
//! order and scanned linearly, which is what the hardware's parallel
//! comparators do; at these sizes a scan beats any hash map: no
//! hashing, no pointer chasing, one cache line or two of data. Larger
//! sets scan linearly too, as `jouppi-core`'s victim cache does at
//! every size. `tests/lru_backends.rs` pins it to a naive model on
//! random operation sequences.

use jouppi_trace::LineAddr;

/// Outcome of [`LruSet::touch_or_insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TouchOutcome {
    /// The line was already present and has been moved to MRU.
    Hit,
    /// The line was inserted without evicting anything.
    Inserted,
    /// The line was inserted and the returned LRU line was evicted.
    Evicted(LineAddr),
}

/// A fixed-capacity set of cache lines with exact LRU replacement.
///
/// # Examples
///
/// ```
/// use jouppi_cache::LruSet;
/// use jouppi_trace::LineAddr;
///
/// let mut lru = LruSet::new(2);
/// lru.insert(LineAddr::new(1));
/// lru.insert(LineAddr::new(2));
/// lru.touch(LineAddr::new(1));              // 1 is now MRU
/// let evicted = lru.insert(LineAddr::new(3)); // evicts LRU = 2
/// assert_eq!(evicted, Some(LineAddr::new(2)));
/// assert!(lru.contains(LineAddr::new(1)));
/// assert!(lru.contains(LineAddr::new(3)));
/// ```
#[derive(Clone, Debug)]
pub struct LruSet {
    /// Resident lines in MRU-first order.
    lines: Vec<LineAddr>,
    capacity: usize,
}

impl LruSet {
    /// Creates an empty set holding at most `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruSet capacity must be nonzero");
        LruSet {
            lines: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum number of resident lines.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident lines.
    #[inline]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Returns `true` if no lines are resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Returns `true` if `line` is resident (without affecting recency).
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.lines.contains(&line)
    }

    /// Marks `line` as most-recently used. Returns `true` if it was present.
    #[inline]
    pub fn touch(&mut self, line: LineAddr) -> bool {
        match self.lines.iter().position(|&l| l == line) {
            Some(pos) => {
                self.lines[..=pos].rotate_right(1);
                true
            }
            None => false,
        }
    }

    /// Inserts `line` as MRU, evicting the LRU line if the set is full.
    ///
    /// If the line is already present it is simply touched and `None` is
    /// returned.
    pub fn insert(&mut self, line: LineAddr) -> Option<LineAddr> {
        match self.touch_or_insert(line) {
            TouchOutcome::Evicted(victim) => Some(victim),
            _ => None,
        }
    }

    /// Touches `line` if present, otherwise inserts it (evicting LRU if
    /// full), and reports which of the three happened.
    pub fn touch_or_insert(&mut self, line: LineAddr) -> TouchOutcome {
        if self.touch(line) {
            return TouchOutcome::Hit;
        }
        let evicted = (self.lines.len() == self.capacity)
            .then(|| self.lines.pop())
            .flatten();
        self.lines.insert(0, line);
        match evicted {
            Some(victim) => TouchOutcome::Evicted(victim),
            None => TouchOutcome::Inserted,
        }
    }

    /// Removes `line` from the set. Returns `true` if it was present.
    pub fn remove(&mut self, line: LineAddr) -> bool {
        match self.lines.iter().position(|&l| l == line) {
            Some(pos) => {
                self.lines.remove(pos);
                true
            }
            None => false,
        }
    }

    /// The least-recently-used line, if any.
    pub fn lru(&self) -> Option<LineAddr> {
        self.lines.last().copied()
    }

    /// The most-recently-used line, if any.
    pub fn mru(&self) -> Option<LineAddr> {
        self.lines.first().copied()
    }

    /// Iterates over resident lines from MRU to LRU.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.lines.iter())
    }

    /// Removes all lines.
    pub fn clear(&mut self) {
        self.lines.clear();
    }
}

/// Iterator over an [`LruSet`] from MRU to LRU, created by [`LruSet::iter`].
#[derive(Clone, Debug)]
pub struct Iter<'a>(std::slice::Iter<'a, LineAddr>);

impl Iterator for Iter<'_> {
    type Item = LineAddr;

    fn next(&mut self) -> Option<LineAddr> {
        self.0.next().copied()
    }
}

impl<'a> IntoIterator for &'a LruSet {
    type Item = LineAddr;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn insert_until_full_then_evict_lru() {
        let mut s = LruSet::new(3);
        assert_eq!(s.insert(l(1)), None);
        assert_eq!(s.insert(l(2)), None);
        assert_eq!(s.insert(l(3)), None);
        assert_eq!(s.len(), 3);
        // 1 is LRU.
        assert_eq!(s.insert(l(4)), Some(l(1)));
        assert!(!s.contains(l(1)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn touch_changes_eviction_order() {
        let mut s = LruSet::new(2);
        s.insert(l(1));
        s.insert(l(2));
        assert!(s.touch(l(1)));
        assert_eq!(s.insert(l(3)), Some(l(2)));
        assert!(s.contains(l(1)));
    }

    #[test]
    fn touch_missing_returns_false() {
        let mut s = LruSet::new(2);
        assert!(!s.touch(l(9)));
        s.insert(l(1));
        assert!(!s.touch(l(9)));
    }

    #[test]
    fn reinsert_present_line_is_a_touch() {
        let mut s = LruSet::new(2);
        s.insert(l(1));
        s.insert(l(2));
        assert_eq!(s.touch_or_insert(l(1)), TouchOutcome::Hit);
        assert_eq!(s.insert(l(3)), Some(l(2)));
    }

    #[test]
    fn remove_frees_capacity() {
        let mut s = LruSet::new(2);
        s.insert(l(1));
        s.insert(l(2));
        assert!(s.remove(l(1)));
        assert!(!s.remove(l(1)));
        assert_eq!(s.insert(l(3)), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn mru_lru_and_iter_order() {
        let mut s = LruSet::new(3);
        s.insert(l(1));
        s.insert(l(2));
        s.insert(l(3));
        s.touch(l(2));
        assert_eq!(s.mru(), Some(l(2)));
        assert_eq!(s.lru(), Some(l(1)));
        let order: Vec<_> = s.iter().collect();
        assert_eq!(order, vec![l(2), l(3), l(1)]);
        let order2: Vec<_> = (&s).into_iter().collect();
        assert_eq!(order, order2);
    }

    #[test]
    fn clear_empties() {
        let mut s = LruSet::new(2);
        s.insert(l(1));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.lru(), None);
        assert_eq!(s.mru(), None);
        assert_eq!(s.insert(l(5)), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn capacity_one_behaves() {
        let mut s = LruSet::new(1);
        assert_eq!(s.insert(l(1)), None);
        assert_eq!(s.insert(l(2)), Some(l(1)));
        assert_eq!(s.touch_or_insert(l(2)), TouchOutcome::Hit);
        assert_eq!(s.capacity(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = LruSet::new(0);
    }

    #[test]
    fn large_capacity_still_exact_lru() {
        let mut s = LruSet::new(1024);
        for i in 0..1024 {
            s.insert(l(i));
        }
        s.touch(l(0)); // protect the oldest line
        assert_eq!(s.insert(l(5000)), Some(l(1)));
        assert!(s.contains(l(0)));
    }
}
