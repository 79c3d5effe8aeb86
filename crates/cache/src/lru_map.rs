//! A generic fixed-capacity key → value map with exact LRU eviction.
//!
//! [`LruMap`] generalizes the line-address [`LruSet`](crate::LruSet) to
//! arbitrary keys and values; it backs memoization layers like the
//! serve daemon's content-addressed result cache. It is an
//! [`FxHashMap`] from key to slot index plus an intrusive doubly-linked
//! list threaded through a slab of slots, giving O(1) get, insert,
//! evict, and remove at any capacity. The tests below pin it to a naive
//! MRU-ordered `Vec` model on random operation sequences.

use std::hash::Hash;

use jouppi_trace::FxHashMap;

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
    map: FxHashMap<K, usize>,
    slots: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // MRU
    tail: usize, // LRU
    capacity: usize,
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

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// Creates an empty map holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruMap capacity must be nonzero");
        LruMap {
            map: FxHashMap::with_capacity_and_hasher(capacity.min(1 << 20), Default::default()),
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
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
        self.map.len()
    }

    /// Returns `true` if no entries are resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value for `key`, marking the entry most-recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        self.slots[idx].value.as_ref()
    }

    /// The value for `key` without affecting recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map
            .get(key)
            .and_then(|&idx| self.slots[idx].value.as_ref())
    }

    /// Inserts `key` → `value` as MRU, reporting what was displaced:
    /// the previous value when the key was already present, or the LRU
    /// entry when the map was full.
    pub fn insert(&mut self, key: K, value: V) -> Displaced<K, V> {
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            self.push_front(idx);
            return match self.slots[idx].value.replace(value) {
                Some(old) => Displaced::Replaced(old),
                None => Displaced::None, // resident slots hold Some
            };
        }
        let evicted = if self.map.len() == self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            self.free.push(lru);
            let victim_key = self.slots[lru].key.clone();
            self.map.remove(&victim_key);
            self.slots[lru].value.take().map(|v| (victim_key, v))
        } else {
            None
        };
        let node = Node {
            key: key.clone(),
            value: Some(value),
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
        self.map.insert(key, idx);
        self.push_front(idx);
        match evicted {
            Some((k, v)) => Displaced::Evicted(k, v),
            None => Displaced::None,
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        self.free.push(idx);
        self.slots[idx].value.take()
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Keys from MRU to LRU (cloned; for tests and introspection).
    pub fn keys_mru_to_lru(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cursor = self.head;
        while cursor != NIL {
            out.push(self.slots[cursor].key.clone());
            cursor = self.slots[cursor].next;
        }
        out
    }

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

    fn s(text: &str) -> String {
        text.to_owned()
    }

    #[test]
    fn insert_until_full_then_evict_lru() {
        let mut m: LruMap<u64, String> = LruMap::new(3);
        assert_eq!(m.insert(1, s("a")), Displaced::None);
        assert_eq!(m.insert(2, s("b")), Displaced::None);
        assert_eq!(m.insert(3, s("c")), Displaced::None);
        assert_eq!(m.len(), 3);
        // 1 is LRU.
        assert_eq!(m.insert(4, s("d")), Displaced::Evicted(1, s("a")));
        assert_eq!(m.peek(&1), None);
        assert_eq!(m.len(), 3);
        assert_eq!(m.capacity(), 3);
    }

    #[test]
    fn get_changes_eviction_order() {
        let mut m: LruMap<u64, String> = LruMap::new(2);
        m.insert(1, s("a"));
        m.insert(2, s("b"));
        assert_eq!(m.get(&1), Some(&s("a")));
        assert_eq!(m.insert(3, s("c")), Displaced::Evicted(2, s("b")));
        assert_eq!(m.peek(&1), Some(&s("a")));
    }

    #[test]
    fn peek_does_not_touch() {
        let mut m: LruMap<u64, String> = LruMap::new(2);
        m.insert(1, s("a"));
        m.insert(2, s("b"));
        assert_eq!(m.peek(&1), Some(&s("a")));
        // 1 is still LRU despite the peek.
        assert_eq!(m.insert(3, s("c")), Displaced::Evicted(1, s("a")));
    }

    #[test]
    fn reinsert_replaces_and_touches() {
        let mut m: LruMap<u64, String> = LruMap::new(2);
        m.insert(1, s("a"));
        m.insert(2, s("b"));
        assert_eq!(m.insert(1, s("a2")), Displaced::Replaced(s("a")));
        assert_eq!(m.insert(3, s("c")), Displaced::Evicted(2, s("b")));
        assert_eq!(m.get(&1), Some(&s("a2")));
    }

    #[test]
    fn remove_frees_capacity() {
        let mut m: LruMap<u64, String> = LruMap::new(2);
        m.insert(1, s("a"));
        m.insert(2, s("b"));
        assert_eq!(m.remove(&1), Some(s("a")));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.insert(3, s("c")), Displaced::None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn mru_order_is_observable() {
        let mut m: LruMap<u64, String> = LruMap::new(3);
        m.insert(1, s("a"));
        m.insert(2, s("b"));
        m.insert(3, s("c"));
        m.get(&2);
        assert_eq!(m.keys_mru_to_lru(), vec![2, 3, 1]);
    }

    #[test]
    fn clear_empties() {
        let mut m: LruMap<u64, String> = LruMap::new(2);
        m.insert(1, s("a"));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, s("e")), Displaced::None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = LruMap::<u64, u64>::new(0);
    }

    #[test]
    fn hashed_backend_reuses_slots_after_eviction() {
        let mut m: LruMap<u64, u64> = LruMap::new(3);
        for i in 0..100 {
            m.insert(i, i * 10);
        }
        assert_eq!(m.len(), 3);
        assert!(m.slots.len() <= 4, "slab grew to {}", m.slots.len());
    }

    /// The map and a naive MRU-ordered `Vec` model stay in lockstep
    /// under a randomized op stream, at capacities from 1 to 1,024.
    #[test]
    fn backends_are_equivalent() {
        for capacity in [1usize, 2, 8, 64, 65, 1024] {
            let mut map: LruMap<u64, u64> = LruMap::new(capacity);
            // (key, value), most recent first.
            let mut model: Vec<(u64, u64)> = Vec::new();
            // Deterministic LCG op stream: inserts, gets, removes over a
            // universe of twice the capacity exercises evict + slot reuse.
            let universe = 2 * capacity as u64;
            let mut x: u64 = 0x1234_5678;
            for step in 0..10_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let key = (x >> 33) % universe;
                let pos = model.iter().position(|&(k, _)| k == key);
                let at = format!("capacity {capacity}, step {step}, key {key}");
                match x % 3 {
                    0 => {
                        let want = match pos {
                            Some(p) => Displaced::Replaced(model.remove(p).1),
                            None if model.len() == capacity => {
                                let (k, v) = model.pop().expect("full model");
                                Displaced::Evicted(k, v)
                            }
                            None => Displaced::None,
                        };
                        model.insert(0, (key, step));
                        assert_eq!(map.insert(key, step), want, "insert: {at}");
                    }
                    1 => {
                        let want = pos.map(|p| {
                            let entry = model.remove(p);
                            model.insert(0, entry);
                            entry.1
                        });
                        assert_eq!(map.get(&key).copied(), want, "get: {at}");
                    }
                    _ => {
                        let want = pos.map(|p| model.remove(p).1);
                        assert_eq!(map.remove(&key), want, "remove: {at}");
                    }
                }
                assert_eq!(map.len(), model.len(), "{at}");
                let keys: Vec<u64> = model.iter().map(|&(k, _)| k).collect();
                assert_eq!(map.keys_mru_to_lru(), keys, "{at}");
            }
        }
    }
}
