//! An exact least-recently-used set of cache lines.
//!
//! [`LruSet`] underpins everything in this workspace that needs true LRU:
//! the small fully-associative miss/victim caches in `jouppi-core` (1-16
//! entries — the paper's structures) and large shadow structures like the
//! stack-distance profile's bookkeeping.
//!
//! Two backends sit behind one API, switched on capacity at construction:
//!
//! * **Small** (capacity ≤ [`SMALL_CAPACITY_MAX`]) — a single `Vec` kept in
//!   MRU-first order and scanned linearly. This is exactly what the
//!   hardware's parallel comparators do, and at ≤ 64 inline entries a scan
//!   beats any hash map: no hashing, no pointer chasing, one cache line or
//!   two of data.
//! * **Hashed** (larger capacities) — a hash map from line address to slot
//!   index (keyed by the fast [`FxHasher`](crate::FxHasher)) plus an
//!   intrusive doubly-linked list threaded through a slab of slots, giving
//!   O(1) touch, insert, evict, and remove.
//!
//! Both backends implement exact LRU, so which one is selected can never
//! change results — pinned by the randomized equivalence test in
//! `tests/lru_backends.rs`.

use jouppi_trace::{FxHashMap, LineAddr};

/// Largest capacity served by the linear small-vector backend. Above this
/// the hash-map backend's O(1) operations win over an O(n) scan.
pub const SMALL_CAPACITY_MAX: usize = 64;

const NIL: usize = usize::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    line: LineAddr,
    prev: usize,
    next: usize,
}

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
    backend: Backend,
    capacity: usize,
}

#[derive(Clone, Debug)]
enum Backend {
    /// Resident lines in MRU-first order.
    Small(Vec<LineAddr>),
    Hashed(Hashed),
}

#[derive(Clone, Debug)]
struct Hashed {
    map: FxHashMap<LineAddr, usize>,
    slots: Vec<Node>,
    free: Vec<usize>,
    head: usize, // MRU
    tail: usize, // LRU
}

impl LruSet {
    /// Creates an empty set holding at most `capacity` lines, picking the
    /// backend (linear scan vs hash map) that fits the capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruSet capacity must be nonzero");
        if capacity <= SMALL_CAPACITY_MAX {
            LruSet {
                backend: Backend::Small(Vec::with_capacity(capacity)),
                capacity,
            }
        } else {
            LruSet::new_hashed(capacity)
        }
    }

    /// Creates an empty set that always uses the hash-map backend, even at
    /// small capacities where [`LruSet::new`] would pick the linear scan.
    /// Exists so the backend-equivalence tests can drive both
    /// implementations at the same capacity; results are identical either
    /// way.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new_hashed(capacity: usize) -> Self {
        assert!(capacity > 0, "LruSet capacity must be nonzero");
        LruSet {
            backend: Backend::Hashed(Hashed {
                map: FxHashMap::with_capacity_and_hasher(capacity.min(1 << 20), Default::default()),
                slots: Vec::with_capacity(capacity.min(1 << 20)),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
            }),
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
        match &self.backend {
            Backend::Small(v) => v.len(),
            Backend::Hashed(h) => h.map.len(),
        }
    }

    /// Returns `true` if no lines are resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `line` is resident (without affecting recency).
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        match &self.backend {
            Backend::Small(v) => v.contains(&line),
            Backend::Hashed(h) => h.map.contains_key(&line),
        }
    }

    /// Marks `line` as most-recently used. Returns `true` if it was present.
    #[inline]
    pub fn touch(&mut self, line: LineAddr) -> bool {
        match &mut self.backend {
            Backend::Small(v) => match v.iter().position(|&l| l == line) {
                Some(pos) => {
                    v[..=pos].rotate_right(1);
                    true
                }
                None => false,
            },
            Backend::Hashed(h) => h.touch(line),
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
        let capacity = self.capacity;
        match &mut self.backend {
            Backend::Small(v) => {
                let evicted = (v.len() == capacity).then(|| v.pop().expect("full set"));
                v.insert(0, line);
                match evicted {
                    Some(victim) => TouchOutcome::Evicted(victim),
                    None => TouchOutcome::Inserted,
                }
            }
            Backend::Hashed(h) => h.insert_new(line, capacity),
        }
    }

    /// Removes `line` from the set. Returns `true` if it was present.
    pub fn remove(&mut self, line: LineAddr) -> bool {
        match &mut self.backend {
            Backend::Small(v) => match v.iter().position(|&l| l == line) {
                Some(pos) => {
                    v.remove(pos);
                    true
                }
                None => false,
            },
            Backend::Hashed(h) => h.remove(line),
        }
    }

    /// The least-recently-used line, if any.
    pub fn lru(&self) -> Option<LineAddr> {
        match &self.backend {
            Backend::Small(v) => v.last().copied(),
            Backend::Hashed(h) => (h.tail != NIL).then(|| h.slots[h.tail].line),
        }
    }

    /// The most-recently-used line, if any.
    pub fn mru(&self) -> Option<LineAddr> {
        match &self.backend {
            Backend::Small(v) => v.first().copied(),
            Backend::Hashed(h) => (h.head != NIL).then(|| h.slots[h.head].line),
        }
    }

    /// Iterates over resident lines from MRU to LRU.
    pub fn iter(&self) -> Iter<'_> {
        Iter(match &self.backend {
            Backend::Small(v) => IterInner::Small(v.iter()),
            Backend::Hashed(h) => IterInner::Hashed {
                set: h,
                cursor: h.head,
            },
        })
    }

    /// Removes all lines.
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Small(v) => v.clear(),
            Backend::Hashed(h) => {
                h.map.clear();
                h.slots.clear();
                h.free.clear();
                h.head = NIL;
                h.tail = NIL;
            }
        }
    }

    /// Returns `true` if this set runs on the linear small-vector backend
    /// (capacity ≤ [`SMALL_CAPACITY_MAX`] via [`LruSet::new`]).
    pub fn is_small_backend(&self) -> bool {
        matches!(self.backend, Backend::Small(_))
    }
}

impl Hashed {
    fn touch(&mut self, line: LineAddr) -> bool {
        if let Some(&idx) = self.map.get(&line) {
            self.unlink(idx);
            self.push_front(idx);
            true
        } else {
            false
        }
    }

    /// Inserts a line known to be absent, evicting LRU at capacity.
    fn insert_new(&mut self, line: LineAddr, capacity: usize) -> TouchOutcome {
        let evicted = if self.map.len() == capacity {
            let lru = self.tail;
            let victim = self.slots[lru].line;
            self.unlink(lru);
            self.map.remove(&victim);
            self.free.push(lru);
            Some(victim)
        } else {
            None
        };
        let node = Node {
            line,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = node;
                idx
            }
            None => {
                self.slots.push(node);
                self.slots.len() - 1
            }
        };
        self.map.insert(line, idx);
        self.push_front(idx);
        match evicted {
            Some(v) => TouchOutcome::Evicted(v),
            None => TouchOutcome::Inserted,
        }
    }

    fn remove(&mut self, line: LineAddr) -> bool {
        if let Some(idx) = self.map.remove(&line) {
            self.unlink(idx);
            self.free.push(idx);
            true
        } else {
            false
        }
    }

    fn unlink(&mut self, idx: usize) {
        let Node { prev, next, .. } = self.slots[idx];
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// Iterator over an [`LruSet`] from MRU to LRU, created by [`LruSet::iter`].
#[derive(Clone, Debug)]
pub struct Iter<'a>(IterInner<'a>);

#[derive(Clone, Debug)]
enum IterInner<'a> {
    Small(std::slice::Iter<'a, LineAddr>),
    Hashed { set: &'a Hashed, cursor: usize },
}

impl Iterator for Iter<'_> {
    type Item = LineAddr;

    fn next(&mut self) -> Option<LineAddr> {
        match &mut self.0 {
            IterInner::Small(it) => it.next().copied(),
            IterInner::Hashed { set, cursor } => {
                if *cursor == NIL {
                    return None;
                }
                let node = &set.slots[*cursor];
                *cursor = node.next;
                Some(node.line)
            }
        }
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

    /// Every unit test runs against both backends at the same capacity.
    fn both(capacity: usize, check: impl Fn(LruSet)) {
        check(LruSet::new(capacity));
        check(LruSet::new_hashed(capacity));
    }

    #[test]
    fn backend_selection_switches_on_capacity() {
        assert!(LruSet::new(1).is_small_backend());
        assert!(LruSet::new(SMALL_CAPACITY_MAX).is_small_backend());
        assert!(!LruSet::new(SMALL_CAPACITY_MAX + 1).is_small_backend());
        assert!(!LruSet::new_hashed(2).is_small_backend());
    }

    #[test]
    fn insert_until_full_then_evict_lru() {
        both(3, |mut s| {
            assert_eq!(s.insert(l(1)), None);
            assert_eq!(s.insert(l(2)), None);
            assert_eq!(s.insert(l(3)), None);
            assert_eq!(s.len(), 3);
            // 1 is LRU.
            assert_eq!(s.insert(l(4)), Some(l(1)));
            assert!(!s.contains(l(1)));
            assert_eq!(s.len(), 3);
        });
    }

    #[test]
    fn touch_changes_eviction_order() {
        both(2, |mut s| {
            s.insert(l(1));
            s.insert(l(2));
            assert!(s.touch(l(1)));
            assert_eq!(s.insert(l(3)), Some(l(2)));
            assert!(s.contains(l(1)));
        });
    }

    #[test]
    fn touch_missing_returns_false() {
        both(2, |mut s| {
            assert!(!s.touch(l(9)));
            s.insert(l(1));
            assert!(!s.touch(l(9)));
        });
    }

    #[test]
    fn reinsert_present_line_is_a_touch() {
        both(2, |mut s| {
            s.insert(l(1));
            s.insert(l(2));
            assert_eq!(s.touch_or_insert(l(1)), TouchOutcome::Hit);
            assert_eq!(s.insert(l(3)), Some(l(2)));
        });
    }

    #[test]
    fn remove_frees_capacity() {
        both(2, |mut s| {
            s.insert(l(1));
            s.insert(l(2));
            assert!(s.remove(l(1)));
            assert!(!s.remove(l(1)));
            assert_eq!(s.insert(l(3)), None);
            assert_eq!(s.len(), 2);
        });
    }

    #[test]
    fn mru_lru_and_iter_order() {
        both(3, |mut s| {
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
        });
    }

    #[test]
    fn clear_empties() {
        both(2, |mut s| {
            s.insert(l(1));
            s.clear();
            assert!(s.is_empty());
            assert_eq!(s.lru(), None);
            assert_eq!(s.mru(), None);
            assert_eq!(s.insert(l(5)), None);
            assert_eq!(s.len(), 1);
        });
    }

    #[test]
    fn capacity_one_behaves() {
        both(1, |mut s| {
            assert_eq!(s.insert(l(1)), None);
            assert_eq!(s.insert(l(2)), Some(l(1)));
            assert_eq!(s.touch_or_insert(l(2)), TouchOutcome::Hit);
            assert_eq!(s.capacity(), 1);
        });
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = LruSet::new(0);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_hashed_panics() {
        let _ = LruSet::new_hashed(0);
    }

    #[test]
    fn hashed_backend_reuses_slots_after_eviction() {
        let mut s = LruSet::new_hashed(3);
        for i in 0..100 {
            s.insert(l(i));
        }
        assert_eq!(s.len(), 3);
        if let Backend::Hashed(h) = &s.backend {
            // Slab must not grow past capacity + a few reusable slots.
            assert!(h.slots.len() <= 4);
        } else {
            panic!("expected hashed backend");
        }
    }

    #[test]
    fn large_capacity_still_exact_lru() {
        let mut s = LruSet::new(SMALL_CAPACITY_MAX + 1);
        for i in 0..=SMALL_CAPACITY_MAX as u64 {
            s.insert(l(i));
        }
        s.touch(l(0)); // protect the oldest line
        assert_eq!(s.insert(l(999)), Some(l(1)));
        assert!(s.contains(l(0)));
    }
}
