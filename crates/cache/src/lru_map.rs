//! A generic fixed-capacity key → value map with exact LRU eviction.
//!
//! [`LruMap`] generalizes the line-address [`LruSet`](crate::LruSet) to
//! arbitrary keys and values; it backs memoization layers like the
//! serve daemon's content-addressed result cache. The same two backends
//! sit behind one API, switched on capacity at construction:
//!
//! * **Small** (capacity ≤ [`SMALL_CAPACITY_MAX`](crate::SMALL_CAPACITY_MAX))
//!   — a single `Vec` of `(key, value)` pairs kept in MRU-first order and
//!   scanned linearly; at a few dozen entries the scan beats hashing.
//! * **Hashed** (larger capacities) — an [`FxHashMap`] from key to slot
//!   index plus an intrusive doubly-linked list threaded through a slab
//!   of slots, giving O(1) get, insert, evict, and remove.
//!
//! Both backends implement exact LRU, so which one is selected can never
//! change behavior — pinned by the equivalence test below.

use std::hash::Hash;

use jouppi_trace::FxHashMap;

use crate::lru::SMALL_CAPACITY_MAX;

const NIL: usize = usize::MAX;

/// What [`LruMap::insert`] displaced, if anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Displaced<K, V> {
    /// The key was new and there was room: nothing displaced.
    None,
    /// The key was already present; this is its previous value.
    Replaced(V),
    /// The map was full; the least-recently-used entry was evicted.
    Evicted(K, V),
}

/// A fixed-capacity map with exact least-recently-used eviction.
///
/// # Examples
///
/// ```
/// use jouppi_cache::{Displaced, LruMap};
///
/// let mut m: LruMap<u64, &str> = LruMap::new(2);
/// m.insert(1, "one");
/// m.insert(2, "two");
/// assert_eq!(m.get(&1), Some(&"one"));        // 1 is now MRU
/// let out = m.insert(3, "three");             // evicts LRU = 2
/// assert_eq!(out, Displaced::Evicted(2, "two"));
/// assert_eq!(m.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct LruMap<K, V> {
    backend: Backend<K, V>,
    capacity: usize,
}

#[derive(Clone, Debug)]
enum Backend<K, V> {
    /// Resident entries in MRU-first order.
    Small(Vec<(K, V)>),
    Hashed(Hashed<K, V>),
}

/// A slab slot. `value` is `Some` while the slot is resident and taken
/// on eviction/removal, so values move out without `unsafe` or a
/// `V: Default` bound; links are meaningful only while resident.
#[derive(Clone, Debug)]
struct Node<K, V> {
    key: K,
    value: Option<V>,
    prev: usize,
    next: usize,
}

#[derive(Clone, Debug)]
struct Hashed<K, V> {
    map: FxHashMap<K, usize>,
    slots: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // MRU
    tail: usize, // LRU
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// Creates an empty map holding at most `capacity` entries, picking
    /// the backend (linear scan vs hash map) that fits the capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruMap capacity must be nonzero");
        if capacity <= SMALL_CAPACITY_MAX {
            LruMap {
                backend: Backend::Small(Vec::with_capacity(capacity)),
                capacity,
            }
        } else {
            LruMap::new_hashed(capacity)
        }
    }

    /// Creates an empty map that always uses the hash-map backend, even
    /// at small capacities where [`LruMap::new`] would pick the linear
    /// scan. Exists so equivalence tests can drive both implementations
    /// at the same capacity; results are identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new_hashed(capacity: usize) -> Self {
        assert!(capacity > 0, "LruMap capacity must be nonzero");
        LruMap {
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

    /// Maximum number of resident entries.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident entries.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Small(v) => v.len(),
            Backend::Hashed(h) => h.map.len(),
        }
    }

    /// Returns `true` if no entries are resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value for `key`, marking the entry most-recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match &mut self.backend {
            Backend::Small(v) => match v.iter().position(|(k, _)| k == key) {
                Some(pos) => {
                    v[..=pos].rotate_right(1);
                    v.first().map(|(_, value)| value)
                }
                None => None,
            },
            Backend::Hashed(h) => {
                let idx = *h.map.get(key)?;
                h.unlink(idx);
                h.push_front(idx);
                h.slots[idx].value.as_ref()
            }
        }
    }

    /// The value for `key` without affecting recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        match &self.backend {
            Backend::Small(v) => v.iter().find(|(k, _)| k == key).map(|(_, value)| value),
            Backend::Hashed(h) => h.map.get(key).and_then(|&idx| h.slots[idx].value.as_ref()),
        }
    }

    /// Inserts `key` → `value` as MRU, reporting what was displaced:
    /// the previous value when the key was already present, or the LRU
    /// entry when the map was full.
    pub fn insert(&mut self, key: K, value: V) -> Displaced<K, V> {
        let capacity = self.capacity;
        match &mut self.backend {
            Backend::Small(v) => {
                if let Some(pos) = v.iter().position(|(k, _)| k == &key) {
                    v[..=pos].rotate_right(1);
                    let old = std::mem::replace(&mut v[0].1, value);
                    return Displaced::Replaced(old);
                }
                let evicted = (v.len() == capacity).then(|| v.pop()).flatten();
                v.insert(0, (key, value));
                match evicted {
                    Some((k, val)) => Displaced::Evicted(k, val),
                    None => Displaced::None,
                }
            }
            Backend::Hashed(h) => {
                if let Some(&idx) = h.map.get(&key) {
                    h.unlink(idx);
                    h.push_front(idx);
                    match h.slots[idx].value.replace(value) {
                        Some(old) => return Displaced::Replaced(old),
                        None => return Displaced::None, // unreachable: resident slots hold Some
                    }
                }
                let evicted = if h.map.len() == capacity {
                    let lru = h.tail;
                    h.unlink(lru);
                    h.free.push(lru);
                    let victim_key = h.slots[lru].key.clone();
                    h.map.remove(&victim_key);
                    h.slots[lru].value.take().map(|v| (victim_key, v))
                } else {
                    None
                };
                let node = Node {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                };
                let idx = match h.free.pop() {
                    Some(idx) => {
                        h.slots[idx] = node;
                        idx
                    }
                    None => {
                        h.slots.push(node);
                        h.slots.len() - 1
                    }
                };
                h.map.insert(key, idx);
                h.push_front(idx);
                match evicted {
                    Some((k, v)) => Displaced::Evicted(k, v),
                    None => Displaced::None,
                }
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match &mut self.backend {
            Backend::Small(v) => v
                .iter()
                .position(|(k, _)| k == key)
                .map(|pos| v.remove(pos).1),
            Backend::Hashed(h) => {
                let idx = h.map.remove(key)?;
                h.unlink(idx);
                h.free.push(idx);
                h.slots[idx].value.take()
            }
        }
    }

    /// Removes all entries.
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

    /// Keys from MRU to LRU (cloned; for tests and introspection).
    pub fn keys_mru_to_lru(&self) -> Vec<K> {
        match &self.backend {
            Backend::Small(v) => v.iter().map(|(k, _)| k.clone()).collect(),
            Backend::Hashed(h) => {
                let mut out = Vec::with_capacity(h.map.len());
                let mut cursor = h.head;
                while cursor != NIL {
                    out.push(h.slots[cursor].key.clone());
                    cursor = h.slots[cursor].next;
                }
                out
            }
        }
    }

    /// Returns `true` if this map runs on the linear small-vector
    /// backend (capacity ≤ [`SMALL_CAPACITY_MAX`](crate::SMALL_CAPACITY_MAX)
    /// via [`LruMap::new`]).
    pub fn is_small_backend(&self) -> bool {
        matches!(self.backend, Backend::Small(_))
    }
}

impl<K, V> Hashed<K, V> {
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every unit test runs against both backends at the same capacity.
    fn both(capacity: usize, check: impl Fn(LruMap<u64, String>)) {
        check(LruMap::new(capacity));
        check(LruMap::new_hashed(capacity));
    }

    fn s(text: &str) -> String {
        text.to_owned()
    }

    #[test]
    fn backend_selection_switches_on_capacity() {
        assert!(LruMap::<u64, u64>::new(1).is_small_backend());
        assert!(LruMap::<u64, u64>::new(SMALL_CAPACITY_MAX).is_small_backend());
        assert!(!LruMap::<u64, u64>::new(SMALL_CAPACITY_MAX + 1).is_small_backend());
        assert!(!LruMap::<u64, u64>::new_hashed(2).is_small_backend());
    }

    #[test]
    fn insert_until_full_then_evict_lru() {
        both(3, |mut m| {
            assert_eq!(m.insert(1, s("a")), Displaced::None);
            assert_eq!(m.insert(2, s("b")), Displaced::None);
            assert_eq!(m.insert(3, s("c")), Displaced::None);
            assert_eq!(m.len(), 3);
            // 1 is LRU.
            assert_eq!(m.insert(4, s("d")), Displaced::Evicted(1, s("a")));
            assert_eq!(m.peek(&1), None);
            assert_eq!(m.len(), 3);
            assert_eq!(m.capacity(), 3);
        });
    }

    #[test]
    fn get_changes_eviction_order() {
        both(2, |mut m| {
            m.insert(1, s("a"));
            m.insert(2, s("b"));
            assert_eq!(m.get(&1), Some(&s("a")));
            assert_eq!(m.insert(3, s("c")), Displaced::Evicted(2, s("b")));
            assert_eq!(m.peek(&1), Some(&s("a")));
        });
    }

    #[test]
    fn peek_does_not_touch() {
        both(2, |mut m| {
            m.insert(1, s("a"));
            m.insert(2, s("b"));
            assert_eq!(m.peek(&1), Some(&s("a")));
            // 1 is still LRU despite the peek.
            assert_eq!(m.insert(3, s("c")), Displaced::Evicted(1, s("a")));
        });
    }

    #[test]
    fn reinsert_replaces_and_touches() {
        both(2, |mut m| {
            m.insert(1, s("a"));
            m.insert(2, s("b"));
            assert_eq!(m.insert(1, s("a2")), Displaced::Replaced(s("a")));
            assert_eq!(m.insert(3, s("c")), Displaced::Evicted(2, s("b")));
            assert_eq!(m.get(&1), Some(&s("a2")));
        });
    }

    #[test]
    fn remove_frees_capacity() {
        both(2, |mut m| {
            m.insert(1, s("a"));
            m.insert(2, s("b"));
            assert_eq!(m.remove(&1), Some(s("a")));
            assert_eq!(m.remove(&1), None);
            assert_eq!(m.insert(3, s("c")), Displaced::None);
            assert_eq!(m.len(), 2);
        });
    }

    #[test]
    fn mru_order_is_observable() {
        both(3, |mut m| {
            m.insert(1, s("a"));
            m.insert(2, s("b"));
            m.insert(3, s("c"));
            m.get(&2);
            assert_eq!(m.keys_mru_to_lru(), vec![2, 3, 1]);
        });
    }

    #[test]
    fn clear_empties() {
        both(2, |mut m| {
            m.insert(1, s("a"));
            m.clear();
            assert!(m.is_empty());
            assert_eq!(m.insert(5, s("e")), Displaced::None);
            assert_eq!(m.len(), 1);
        });
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = LruMap::<u64, u64>::new(0);
    }

    #[test]
    fn hashed_backend_reuses_slots_after_eviction() {
        let mut m: LruMap<u64, u64> = LruMap::new_hashed(3);
        for i in 0..100 {
            m.insert(i, i * 10);
        }
        assert_eq!(m.len(), 3);
        if let Backend::Hashed(h) = &m.backend {
            assert!(h.slots.len() <= 4, "slab grew to {}", h.slots.len());
        } else {
            panic!("expected hashed backend");
        }
    }

    /// The two backends stay in lockstep under a randomized op stream.
    #[test]
    fn backends_are_equivalent() {
        let mut small: LruMap<u64, u64> = LruMap::new(8);
        let mut hashed: LruMap<u64, u64> = LruMap::new_hashed(8);
        // Deterministic LCG op stream: inserts, gets, removes over a
        // 16-key universe at capacity 8 exercises evict + slot reuse.
        let mut x: u64 = 0x1234_5678;
        for step in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 16;
            match x % 3 {
                0 => {
                    assert_eq!(
                        small.insert(key, step),
                        hashed.insert(key, step),
                        "insert({key}) diverged at step {step}"
                    );
                }
                1 => {
                    assert_eq!(
                        small.get(&key).copied(),
                        hashed.get(&key).copied(),
                        "get({key}) diverged at step {step}"
                    );
                }
                _ => {
                    assert_eq!(
                        small.remove(&key),
                        hashed.remove(&key),
                        "remove({key}) diverged at step {step}"
                    );
                }
            }
            assert_eq!(small.len(), hashed.len());
            assert_eq!(small.keys_mru_to_lru(), hashed.keys_mru_to_lru());
        }
    }
}
