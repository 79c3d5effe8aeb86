//! Content-addressed result cache with singleflight coalescing.
//!
//! Every simulation this daemon serves is a pure function of its request
//! parameters — the workspace's clippy configuration bans ambient time,
//! entropy, environment and file input outside the modules that opt out
//! with a reason — so `/v1/simulate` and `/v1/sweep` responses can be
//! memoized and deduplicated. This is
//! the paper's thesis turned on the service layer: a small
//! fully-associative cache in front of an expensive backing store
//! removes most misses, and skewed (Zipf) reuse makes a small cache
//! disproportionately effective.
//!
//! Three pieces:
//!
//! * **Content keys** — request bodies are canonicalized with
//!   [`Json::encode_canonical`] (object keys sorted recursively, so key
//!   order never splits the cache) and hashed into a 128-bit [`Key`] by
//!   two independently-seeded [`FxHasher`] lanes, domain-separated per
//!   endpoint.
//! * **Memoization** — completed result documents live in a bounded
//!   exact-LRU memo behind one mutex: a hash map from key to entry,
//!   where each entry carries the stamp of its last use, and a
//!   `BTreeMap` from stamp to key whose first key is the least recently
//!   used. A hit restamps its entry and a full memo evicts the first
//!   stamp, both logarithmic in the capacity. Each entry
//!   keeps the document as an `Arc<Json>` and its served encoding — the
//!   body [`Response::json`] would produce — as an `Arc<[u8]>`, encoded
//!   once at insert. A synchronous hit probes with
//!   [`ResultCache::cached_body`] and sends those bytes, so it costs one
//!   lookup and no encoding; async tickets, job polls and coalesced
//!   waiters take the document.
//! * **Singleflight** — the first requester for a missing key becomes
//!   the *leader* and computes; concurrent requesters for the same key
//!   block on a shared `Flight` slot (`Mutex` + `Condvar`, std-only)
//!   and receive the leader's document. The handoff is panic-safe: the
//!   leader holds an RAII [`LeaderGuard`] whose `Drop` marks the flight
//!   abandoned and wakes every waiter, and woken waiters loop back into
//!   [`ResultCache::begin`] to re-elect a new leader. A failed or
//!   panicking leader therefore never strands a herd.
//!
//! Lock discipline: the cache-wide mutex and each flight's mutex are
//! never held at the same time — `begin`/`finish` drop the cache lock
//! before touching a flight, so there is no order to get wrong.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use jouppi_trace::{FxHashMap, FxHasher};

use crate::http::Response;
use crate::json::Json;

/// How the server-wide cache behaves (`cache: {mode}` in the config).
/// A single request skips the cache with the `?cache=bypass` knob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// Full caching: lookups, singleflight coalescing, and stores.
    #[default]
    On,
    /// The cache does not exist: no lookups, no stores, no headers.
    Off,
}

impl CacheMode {
    /// Parses the flag spelling (`on`, `off`).
    pub fn parse(text: &str) -> Option<CacheMode> {
        match text {
            "on" => Some(CacheMode::On),
            "off" => Some(CacheMode::Off),
            _ => None,
        }
    }
}

/// Result-cache configuration (part of the server config).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Whether the cache serves or is disabled.
    pub mode: CacheMode,
    /// Maximum memoized result documents.
    pub capacity: usize,
}

impl Default for CacheConfig {
    /// Caching on, 256 memoized results.
    fn default() -> Self {
        CacheConfig {
            mode: CacheMode::On,
            capacity: 256,
        }
    }
}

/// Domain-separation tags for the two hash lanes; arbitrary distinct
/// odd constants so the lanes never collapse onto each other.
const LANE_LO: u64 = 0x6a6f_7570_7069_3031; // "jouppi01"
const LANE_HI: u64 = 0x6a6f_7570_7069_3032; // "jouppi02"

/// A 128-bit content key: two independent FxHash lanes over the
/// endpoint name and the canonical request text.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub struct Key(u128);

/// Hashes `(endpoint, body)` into a content key. Bodies that differ
/// only in object key order hash identically; different endpoints are
/// domain-separated so `/v1/simulate` and `/v1/sweep` never collide.
pub fn content_key(endpoint: &str, body: &Json) -> Key {
    use std::hash::Hasher;
    let canon = body.encode_canonical();
    let lane = |tag: u64| {
        let mut h = FxHasher::default();
        h.write_u64(tag);
        h.write(endpoint.as_bytes());
        // One byte per multiply. A multiply carries a difference only
        // upward, so with eight bytes per multiply a difference in one
        // word's top byte can be cancelled by one in the next word's low
        // byte, in both lanes at once (`{"k":1394}` and `{"k":1319}` would
        // share a key). A byte enters at the bottom and spreads upward.
        for &byte in canon.as_bytes() {
            h.write_u8(byte);
        }
        h.finish()
    };
    Key((u128::from(lane(LANE_LO)) << 64) | u128::from(lane(LANE_HI)))
}

/// One in-flight computation: waiters park on `done` until the leader
/// resolves the slot.
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
    /// Job-queue ticket for queued (sweep) leaders, so duplicate async
    /// requests can coalesce onto the same job id. 0 = not published.
    ticket: AtomicU64,
}

enum FlightState {
    /// The leader is computing.
    Running,
    /// The leader stored this document.
    Done(Arc<Json>),
    /// The leader failed, panicked, or declined to cache; waiters must
    /// re-elect.
    Abandoned,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: Mutex::new(FlightState::Running),
            done: Condvar::new(),
            ticket: AtomicU64::new(0),
        }
    }

    /// Blocks until the leader resolves; `None` means abandoned.
    fn await_outcome(&self) -> Option<Arc<Json>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match &*state {
                FlightState::Running => {
                    state = self.done.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                FlightState::Done(doc) => return Some(Arc::clone(doc)),
                FlightState::Abandoned => return None,
            }
        }
    }

    fn resolve(&self, outcome: Option<Arc<Json>>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = match outcome {
            Some(doc) => FlightState::Done(doc),
            None => FlightState::Abandoned,
        };
        drop(state);
        self.done.notify_all();
    }
}

/// A memoized result document plus its served encoding.
struct Entry {
    doc: Arc<Json>,
    /// `Response::json(200, &doc)`'s body, encoded once at insert.
    body: Arc<[u8]>,
    /// The stamp of the entry's last use: its key in `Inner::by_stamp`.
    stamp: u64,
}

struct Inner {
    memo: FxHashMap<Key, Entry>,
    /// Every entry's key by its stamp; the first is the least recently
    /// used.
    by_stamp: BTreeMap<u64, Key>,
    /// The last stamp handed out; each use takes the next one.
    clock: u64,
    inflight: FxHashMap<Key, Arc<Flight>>,
    bytes_resident: u64,
}

impl Inner {
    /// The entry for `key`, restamped as the most recently used.
    fn touch(&mut self, key: Key) -> Option<&Entry> {
        let entry = self.memo.get_mut(&key)?;
        self.by_stamp.remove(&entry.stamp);
        self.clock += 1;
        entry.stamp = self.clock;
        self.by_stamp.insert(self.clock, key);
        Some(entry)
    }

    /// Stores `entry` under `key` as the most recently used, evicting
    /// the least recently used entry if the memo then holds more than
    /// `capacity`. Returns whether it evicted.
    fn store(&mut self, key: Key, mut entry: Entry, capacity: usize) -> bool {
        self.clock += 1;
        entry.stamp = self.clock;
        self.bytes_resident += entry.body.len() as u64;
        if let Some(old) = self.memo.insert(key, entry) {
            self.by_stamp.remove(&old.stamp);
            self.bytes_resident -= old.body.len() as u64;
        }
        self.by_stamp.insert(self.clock, key);
        let evicted = (self.memo.len() > capacity)
            .then(|| self.by_stamp.pop_first())
            .flatten()
            .and_then(|(_, lru)| self.memo.remove(&lru));
        if let Some(old) = &evicted {
            self.bytes_resident -= old.body.len() as u64;
        }
        evicted.is_some()
    }
}

/// Point-in-time counters for `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Requests answered from the memo (`jouppi_result_cache_hits_total`).
    pub hits: u64,
    /// Requests that had to compute (`jouppi_result_cache_misses_total`).
    pub misses: u64,
    /// Memo entries displaced by capacity
    /// (`jouppi_result_cache_evictions_total`).
    pub evictions: u64,
    /// Requests that rode another request's computation
    /// (`jouppi_result_cache_coalesced_total`).
    pub coalesced: u64,
    /// Stored response-body bytes of all memoized documents
    /// (`jouppi_result_cache_bytes_resident`).
    pub bytes_resident: u64,
    /// Memoized documents currently resident.
    pub entries: u64,
}

/// What [`ResultCache::begin`] decided for a request.
pub enum Lookup {
    /// Mode is [`CacheMode::Off`]: compute as if the cache did not exist.
    Disabled,
    /// This request carries the bypass knob: compute fresh, store
    /// nothing.
    Bypass,
    /// Memo hit: serve this document.
    Hit(Arc<Json>),
    /// Another request computed this document while we waited.
    Coalesced(Arc<Json>),
    /// This request is the leader: compute, then call
    /// [`LeaderGuard::complete`] (or drop the guard to abandon).
    Miss(LeaderGuard),
}

/// Like [`Lookup`], but never blocks: used by the queued sweep path,
/// where a connection thread must not park on a Condvar.
pub enum TryLookup {
    /// Mode is [`CacheMode::Off`].
    Disabled,
    /// This request bypasses the cache.
    Bypass,
    /// Memo hit: serve this document.
    Hit(Arc<Json>),
    /// A leader is already computing; its job-queue ticket, if it has
    /// published one. `None` only in the brief window between leader
    /// election and ticket publication — callers fall back to an
    /// uncached compute.
    InFlight(Option<u64>),
    /// This request is the leader.
    Miss(LeaderGuard),
}

/// The content-addressed result cache. One per server, shared as an
/// `Arc` so leader guards can ride into queued jobs.
pub struct ResultCache {
    mode: CacheMode,
    /// Most memoized documents; at least 1.
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    coalesced: AtomicU64,
}

impl ResultCache {
    /// An empty cache with the given mode and capacity.
    pub fn new(config: CacheConfig) -> Arc<ResultCache> {
        Arc::new(ResultCache {
            mode: config.mode,
            capacity: config.capacity.max(1),
            inner: Mutex::new(Inner {
                memo: FxHashMap::default(),
                by_stamp: BTreeMap::new(),
                clock: 0,
                inflight: FxHashMap::default(),
                bytes_resident: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        })
    }

    /// Looks `key` up, *blocking* behind an in-flight leader if one
    /// exists. Used by synchronous endpoints (`/v1/simulate`): a
    /// thundering herd of identical requests costs one simulation.
    ///
    /// Waiters woken by an abandoned flight loop back and re-elect —
    /// one of them becomes the new leader, so a panicking leader never
    /// strands the herd.
    pub fn begin(self: &Arc<Self>, key: Key, bypass: bool) -> Lookup {
        match self.gate(bypass) {
            Some(Gate::Disabled) => return Lookup::Disabled,
            Some(Gate::Bypass) => return Lookup::Bypass,
            None => {}
        }
        loop {
            let flight = match self.lookup_or_lead(key) {
                Ok(Elected::Hit(doc)) => return Lookup::Hit(doc),
                Ok(Elected::Leader(leader)) => return Lookup::Miss(leader),
                Err(flight) => flight,
            };
            // Park outside the cache lock; a Done flight coalesces,
            // an Abandoned one sends us back to re-elect.
            if let Some(doc) = flight.await_outcome() {
                self.coalesced.fetch_add(1, Ordering::SeqCst);
                return Lookup::Coalesced(doc);
            }
        }
    }

    /// The memoized response body for `key`: the bytes
    /// `Response::json(200, &doc)` produced for the stored document when
    /// it was stored. A hit counts like one from [`begin`](Self::begin);
    /// a miss counts nothing and elects no leader, so the caller goes on
    /// to `begin` or `try_begin`. `None` under [`CacheMode::Off`], or
    /// with `bypass` set.
    pub fn cached_body(&self, key: Key, bypass: bool) -> Option<Arc<[u8]>> {
        if self.gate(bypass).is_some() {
            return None;
        }
        let body = self
            .lock()
            .touch(key)
            .map(|entry| Arc::clone(&entry.body))?;
        self.hits.fetch_add(1, Ordering::SeqCst);
        Some(body)
    }

    /// Looks `key` up without ever blocking. Used by the queued sweep
    /// path: an in-flight duplicate coalesces onto the leader's job
    /// ticket instead of parking the connection thread.
    pub fn try_begin(self: &Arc<Self>, key: Key, bypass: bool) -> TryLookup {
        match self.gate(bypass) {
            Some(Gate::Disabled) => return TryLookup::Disabled,
            Some(Gate::Bypass) => return TryLookup::Bypass,
            None => {}
        }
        let flight = match self.lookup_or_lead(key) {
            Ok(Elected::Hit(doc)) => return TryLookup::Hit(doc),
            Ok(Elected::Leader(leader)) => return TryLookup::Miss(leader),
            Err(flight) => flight,
        };
        self.coalesced.fetch_add(1, Ordering::SeqCst);
        let ticket = flight.ticket.load(Ordering::SeqCst);
        TryLookup::InFlight((ticket != 0).then_some(ticket))
    }

    /// Memo hit, new leadership, or the flight to wait on.
    fn lookup_or_lead(self: &Arc<Self>, key: Key) -> Result<Elected, Arc<Flight>> {
        let mut inner = self.lock();
        if let Some(entry) = inner.touch(key) {
            let doc = Arc::clone(&entry.doc);
            drop(inner);
            self.hits.fetch_add(1, Ordering::SeqCst);
            return Ok(Elected::Hit(doc));
        }
        if let Some(flight) = inner.inflight.get(&key) {
            return Err(Arc::clone(flight));
        }
        inner.inflight.insert(key, Arc::new(Flight::new()));
        drop(inner);
        self.misses.fetch_add(1, Ordering::SeqCst);
        Ok(Elected::Leader(LeaderGuard {
            cache: Arc::clone(self),
            key,
            resolved: false,
        }))
    }

    fn gate(&self, bypass: bool) -> Option<Gate> {
        match self.mode {
            CacheMode::Off => Some(Gate::Disabled),
            CacheMode::On if bypass => Some(Gate::Bypass),
            CacheMode::On => None,
        }
    }

    /// Point-in-time counters for `/metrics`.
    pub fn counters(&self) -> CacheCounters {
        let (bytes_resident, entries) = {
            let inner = self.lock();
            (inner.bytes_resident, inner.memo.len() as u64)
        };
        CacheCounters {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            evictions: self.evictions.load(Ordering::SeqCst),
            coalesced: self.coalesced.load(Ordering::SeqCst),
            bytes_resident,
            entries,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stores (or abandons) the leader's outcome and wakes waiters.
    fn finish(&self, key: Key, outcome: Option<Arc<Json>>) {
        // Encode outside the lock; hits then serve these bytes verbatim.
        let entry = outcome.as_ref().map(|doc| Entry {
            doc: Arc::clone(doc),
            body: Response::json(200, doc).body.into(),
            stamp: 0,
        });
        let flight = {
            let mut inner = self.lock();
            if let Some(entry) = entry {
                if inner.store(key, entry, self.capacity) {
                    self.evictions.fetch_add(1, Ordering::SeqCst);
                }
            }
            inner.inflight.remove(&key)
        };
        if let Some(flight) = flight {
            flight.resolve(outcome);
        }
    }

    /// Publishes a leader's job-queue ticket by key — the router calls
    /// this after `submit`, when the guard has already moved into the
    /// job closure. No-op if the flight already resolved.
    pub(crate) fn publish_ticket(&self, key: Key, job_id: u64) {
        let inner = self.lock();
        if let Some(flight) = inner.inflight.get(&key) {
            flight.ticket.store(job_id, Ordering::SeqCst);
        }
    }
}

enum Gate {
    Disabled,
    Bypass,
}

/// What [`ResultCache::lookup_or_lead`] finds for a key that is not in
/// flight.
enum Elected {
    /// Memo hit.
    Hit(Arc<Json>),
    /// The caller leads the computation.
    Leader(LeaderGuard),
}

/// RAII leadership of one in-flight key. Call
/// [`complete`](LeaderGuard::complete) with the result document, or
/// [`abandon`](LeaderGuard::abandon) on failure; merely dropping the
/// guard (a panic unwinding through the leader) also abandons, waking
/// every waiter so one of them re-elects. Leadership therefore cannot
/// leak no matter how the computation ends.
pub struct LeaderGuard {
    cache: Arc<ResultCache>,
    key: Key,
    resolved: bool,
}

impl LeaderGuard {
    /// Stores `doc` in the memo and hands it to every waiter.
    pub fn complete(mut self, doc: &Arc<Json>) {
        self.resolved = true;
        self.cache.finish(self.key, Some(Arc::clone(doc)));
    }

    /// Declines to cache (failed computation); waiters re-elect.
    pub fn abandon(mut self) {
        self.resolved = true;
        self.cache.finish(self.key, None);
    }

    /// Publishes the leader's job-queue ticket so duplicate async
    /// requests can coalesce onto the same job id.
    pub fn publish_ticket(&self, job_id: u64) {
        self.cache.publish_ticket(self.key, job_id);
    }
}

impl Drop for LeaderGuard {
    fn drop(&mut self) {
        if !self.resolved {
            self.cache.finish(self.key, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cache(capacity: usize) -> Arc<ResultCache> {
        ResultCache::new(CacheConfig {
            mode: CacheMode::On,
            capacity,
        })
    }

    fn doc(n: i64) -> Arc<Json> {
        Arc::new(Json::obj([("value", Json::Int(n))]))
    }

    fn key(n: u64) -> Key {
        content_key("test", &Json::obj([("k", Json::Int(n as i64))]))
    }

    fn lead(c: &Arc<ResultCache>, k: Key) -> LeaderGuard {
        match c.begin(k, false) {
            Lookup::Miss(leader) => leader,
            _ => panic!("expected to lead"),
        }
    }

    #[test]
    fn content_keys_ignore_object_key_order() {
        let a = Json::parse(r#"{"workload":"ccom","scale":5000,"victim":4}"#).unwrap();
        let b = Json::parse(r#"{"victim":4,"workload":"ccom","scale":5000}"#).unwrap();
        assert_eq!(content_key("simulate", &a), content_key("simulate", &b));
        // Different values and different endpoints both split the key.
        let c = Json::parse(r#"{"workload":"ccom","scale":5001,"victim":4}"#).unwrap();
        assert_ne!(content_key("simulate", &a), content_key("simulate", &c));
        assert_ne!(content_key("simulate", &a), content_key("sweep", &a));
    }

    /// Bodies that differ across an eight-byte boundary of their
    /// canonical text get distinct keys.
    #[test]
    fn content_keys_of_nearby_bodies_are_distinct() {
        let mut keys: Vec<Key> = (0..20_000).map(key).collect();
        for scale in 1_000..3_000 {
            for seed in 0..5 {
                let body = Json::obj([("scale", Json::Int(scale)), ("seed", Json::Int(seed))]);
                keys.push(content_key("simulate", &body));
            }
        }
        let total = keys.len();
        keys.sort_unstable_by_key(|k| k.0);
        keys.dedup();
        assert_eq!(keys.len(), total, "content keys collide");
    }

    #[test]
    fn miss_store_hit_round_trip() {
        let c = cache(4);
        lead(&c, key(1)).complete(&doc(10));
        match c.begin(key(1), false) {
            Lookup::Hit(d) => assert_eq!(*d, *doc(10)),
            _ => panic!("expected a hit"),
        }
        let counters = c.counters();
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.hits, 1);
        assert_eq!(counters.entries, 1);
        assert!(counters.bytes_resident > 0);
    }

    #[test]
    fn cached_body_serves_the_bytes_encoded_at_insert() {
        let c = cache(4);
        assert!(c.cached_body(key(1), false).is_none(), "empty memo");
        assert_eq!(
            c.counters(),
            CacheCounters::default(),
            "a miss counts nothing"
        );
        lead(&c, key(1)).complete(&doc(10));
        let body = c.cached_body(key(1), false).expect("memoized");
        assert_eq!(&body[..], Response::json(200, &doc(10)).body.as_slice());
        assert!(c.cached_body(key(2), false).is_none(), "other key");
        assert!(c.cached_body(key(1), true).is_none(), "bypass knob");
        let counters = c.counters();
        assert_eq!((counters.hits, counters.misses), (1, 1));
        assert_eq!(counters.bytes_resident, body.len() as u64);

        let off = ResultCache::new(CacheConfig {
            mode: CacheMode::Off,
            capacity: 4,
        });
        // Store through the lower layer so only the gate can hide it.
        let leader = match off.lookup_or_lead(key(1)) {
            Ok(Elected::Leader(leader)) => leader,
            _ => panic!("expected to lead"),
        };
        leader.complete(&doc(10));
        assert!(off.cached_body(key(1), false).is_none(), "mode off");
        assert_eq!(off.counters().hits, 0, "mode off");
    }

    #[test]
    fn capacity_bounds_and_eviction_order() {
        let c = cache(2);
        lead(&c, key(1)).complete(&doc(1));
        lead(&c, key(2)).complete(&doc(2));
        // Touch key 1 so key 2 is LRU.
        assert!(matches!(c.begin(key(1), false), Lookup::Hit(_)));
        lead(&c, key(3)).complete(&doc(3));
        let counters = c.counters();
        assert_eq!(counters.entries, 2, "capacity must bound the memo");
        assert_eq!(counters.evictions, 1);
        assert!(matches!(c.begin(key(1), false), Lookup::Hit(_)));
        assert!(matches!(c.begin(key(3), false), Lookup::Hit(_)));
        // Key 2 was evicted: looking it up elects a new leader.
        assert!(matches!(c.begin(key(2), false), Lookup::Miss(_)));
    }

    #[test]
    fn bytes_gauge_tracks_insert_and_evict() {
        let c = cache(1);
        lead(&c, key(1)).complete(&doc(1));
        let one = c.counters().bytes_resident;
        assert_eq!(one, doc(1).encode().len() as u64 + 1);
        lead(&c, key(2)).complete(&doc(2));
        assert_eq!(
            c.counters().bytes_resident,
            doc(2).encode().len() as u64 + 1
        );
    }

    #[test]
    fn bypass_and_off_modes() {
        let c = cache(4);
        assert!(matches!(c.begin(key(1), true), Lookup::Bypass));
        assert!(matches!(c.try_begin(key(1), true), TryLookup::Bypass));
        // A bypass never stores and never counts.
        assert_eq!(c.counters().misses, 0);
        // Even a stored entry is invisible to a bypassing request.
        lead(&c, key(1)).complete(&doc(1));
        assert!(matches!(c.begin(key(1), true), Lookup::Bypass));

        let off = ResultCache::new(CacheConfig {
            mode: CacheMode::Off,
            capacity: 4,
        });
        assert!(matches!(off.begin(key(1), false), Lookup::Disabled));
        assert!(matches!(off.try_begin(key(1), false), TryLookup::Disabled));
        // The mode wins over the knob: there is no cache to bypass.
        assert!(matches!(off.begin(key(1), true), Lookup::Disabled));
    }

    #[test]
    fn waiters_coalesce_onto_the_leader() {
        let c = cache(4);
        let leader = lead(&c, key(7));
        let herd: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || match c.begin(key(7), false) {
                    Lookup::Coalesced(d) | Lookup::Hit(d) => d,
                    _ => panic!("waiter must not lead while a leader is live"),
                })
            })
            .collect();
        // Give the herd time to park on the flight.
        std::thread::sleep(Duration::from_millis(50));
        leader.complete(&doc(77));
        for h in herd {
            assert_eq!(*h.join().expect("waiter"), *doc(77));
        }
        let counters = c.counters();
        assert_eq!(counters.misses, 1, "one leader, one computation");
        assert_eq!(counters.hits + counters.coalesced, 4);
        assert!(counters.coalesced >= 1, "the parked herd must coalesce");
    }

    #[test]
    fn abandoned_leader_wakes_and_reelects_waiters() {
        let c = cache(4);
        let leader = lead(&c, key(9));
        // The waiter reports over a channel, so a waiter that never
        // returns (one that keeps re-finding a stale abandoned flight)
        // fails the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let reelected = match c.begin(key(9), false) {
                    // Re-elected: this waiter becomes the new leader and
                    // finishes the job.
                    Lookup::Miss(new_leader) => {
                        new_leader.complete(&doc(99));
                        Ok(())
                    }
                    Lookup::Coalesced(_) | Lookup::Hit(_) => Err("coalesced"),
                    _ => Err("unexpected lookup"),
                };
                tx.send(reelected).expect("the test waits for the report");
            });
        }
        std::thread::sleep(Duration::from_millis(50));
        // The leader "panics": its guard drops without completing.
        drop(leader);
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(outcome) => assert_eq!(
                outcome,
                Ok(()),
                "the parked waiter must be re-elected leader"
            ),
            Err(e) => panic!("the parked waiter did not report within 5 s: {e}"),
        }
        assert!(matches!(c.begin(key(9), false), Lookup::Hit(_)));
    }

    #[test]
    fn finished_flights_leave_the_inflight_map() {
        let c = cache(4);
        lead(&c, key(1)).complete(&doc(1));
        lead(&c, key(2)).abandon();
        drop(lead(&c, key(3)));
        let leader = match c.try_begin(key(4), false) {
            TryLookup::Miss(leader) => leader,
            _ => panic!("expected to lead"),
        };
        leader.complete(&doc(4));
        assert!(c.lock().inflight.is_empty(), "a resolved flight stayed");
    }

    /// The memo and a naive MRU-first list agree on every hit, miss,
    /// eviction, entry count, resident byte and the recency order, under
    /// seeded random probes, lookups, stores and abandons over twice as
    /// many keys as the capacity, at capacities from 1 to 1,024.
    #[test]
    fn memo_matches_a_naive_lru_model() {
        const SEED: u64 = 0x1234_5678;
        let mut rng = jouppi_trace::SmallRng::seed_from_u64(SEED);
        for capacity in [1usize, 2, 8, 64, 65, 1024] {
            let c = cache(capacity);
            let keys: Vec<Key> = (0..2 * capacity as u64).map(key).collect();
            // (key index, stored value, body bytes), most recent first.
            let mut model: Vec<(usize, i64, u64)> = Vec::new();
            let (mut hits, mut misses, mut evictions) = (0, 0, 0);
            for step in 0..10_000i64 {
                let k = rng.below(keys.len());
                let at = format!("seed {SEED:#x}: capacity {capacity}, step {step}, key {k}");
                let hit = model.iter().position(|&(m, ..)| m == k).map(|p| {
                    let e = model.remove(p);
                    model.insert(0, e);
                    e.1
                });
                hits += u64::from(hit.is_some());
                match rng.below(4) {
                    0 => {
                        let body = c.cached_body(keys[k], false);
                        let want = hit.map(|v| Response::json(200, &doc(v)).body);
                        assert_eq!(body.as_deref(), want.as_deref(), "cached_body: {at}");
                    }
                    draw => match (c.begin(keys[k], false), hit) {
                        (Lookup::Hit(d), Some(v)) => assert_eq!(*d, *doc(v), "hit: {at}"),
                        (Lookup::Miss(leader), None) => {
                            misses += 1;
                            if draw == 1 {
                                leader.abandon();
                            } else {
                                leader.complete(&doc(step));
                                let bytes = Response::json(200, &doc(step)).body.len();
                                model.insert(0, (k, step, bytes as u64));
                                if model.len() > capacity {
                                    model.pop();
                                    evictions += 1;
                                }
                            }
                        }
                        _ => panic!("begin disagrees with the model: {at}"),
                    },
                }
                let bytes: u64 = model.iter().map(|&(.., b)| b).sum();
                let counters = c.counters();
                assert_eq!(
                    (counters.hits, counters.misses, counters.evictions),
                    (hits, misses, evictions),
                    "{at}"
                );
                assert_eq!(counters.entries, model.len() as u64, "{at}");
                assert_eq!(counters.bytes_resident, bytes, "{at}");
                let order: Vec<Key> = c.lock().by_stamp.values().rev().copied().collect();
                let want: Vec<Key> = model.iter().map(|&(m, ..)| keys[m]).collect();
                assert_eq!(order, want, "recency order: {at}");
            }
        }
    }

    #[test]
    fn try_begin_reports_inflight_ticket() {
        let c = cache(4);
        let leader = match c.try_begin(key(3), false) {
            TryLookup::Miss(leader) => leader,
            _ => panic!("expected to lead"),
        };
        assert!(matches!(
            c.try_begin(key(3), false),
            TryLookup::InFlight(None)
        ));
        leader.publish_ticket(42);
        assert!(matches!(
            c.try_begin(key(3), false),
            TryLookup::InFlight(Some(42))
        ));
        leader.complete(&doc(3));
        assert!(matches!(c.try_begin(key(3), false), TryLookup::Hit(_)));
    }
}
