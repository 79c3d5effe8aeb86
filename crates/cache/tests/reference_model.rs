//! Seeded rounds pitting `Cache` against a naive reference
//! implementation: a per-set vector with explicit recency bookkeeping.
//!
//! Randomness comes from the workspace's seeded `jouppi_trace::SmallRng`.
//! Each round seeds its own generator, and a failure prints that seed.

use jouppi_cache::{AccessResult, Cache, CacheGeometry, ReplacementPolicy};
use jouppi_trace::{LineAddr, SmallRng};

const ROUNDS: u64 = 256;

/// A deliberately simple model of a set-associative LRU cache.
struct NaiveLru {
    sets: Vec<Vec<LineAddr>>, // each set ordered MRU-first
    assoc: usize,
    num_sets: u64,
}

impl NaiveLru {
    fn new(num_sets: u64, assoc: usize) -> Self {
        NaiveLru {
            sets: vec![Vec::new(); num_sets as usize],
            assoc,
            num_sets,
        }
    }

    fn access(&mut self, line: LineAddr) -> (bool, Option<LineAddr>) {
        let set = &mut self.sets[(line.get() % self.num_sets) as usize];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            set.insert(0, line);
            (true, None)
        } else {
            set.insert(0, line);
            let victim = (set.len() > self.assoc).then(|| set.pop().expect("overfull"));
            (false, victim)
        }
    }
}

/// Between 1 and `max_len - 1` line numbers, each below `max_line`.
fn line_stream(rng: &mut SmallRng, max_line: u64, max_len: usize) -> Vec<u64> {
    let len = 1 + rng.below(max_len - 1);
    (0..len).map(|_| rng.gen_range(0..max_line)).collect()
}

#[test]
fn set_associative_lru_matches_naive_model() {
    for round in 0..ROUNDS {
        let seed = 0x726d_0000 + round;
        let mut rng = SmallRng::seed_from_u64(seed);
        // Every (ways, sets) pair in {1, 2, 4, 8}², 16 rounds each.
        let assoc = 1u64 << (round % 4);
        let sets = 1u64 << (round / 4 % 4);
        let stream = line_stream(&mut rng, 256, 500);
        let line_size = 16u64;
        let geom = CacheGeometry::new(sets * assoc * line_size, line_size, assoc).unwrap();
        let mut cache = Cache::new(geom);
        let mut model = NaiveLru::new(sets, assoc as usize);
        let at = format!("seed {seed:#x}, {assoc} ways x {sets} sets");
        for &n in &stream {
            let line = LineAddr::new(n);
            let (model_hit, model_victim) = model.access(line);
            match cache.access_line(line) {
                AccessResult::Hit => assert!(model_hit, "{at}: cache hit, model missed"),
                AccessResult::Miss { victim } => {
                    assert!(!model_hit, "{at}: cache missed, model hit");
                    assert_eq!(victim, model_victim, "{at}: victim mismatch");
                }
            }
        }
        // Residency agrees exactly.
        let mut ours: Vec<u64> = cache.resident_lines().map(|l| l.get()).collect();
        let mut theirs: Vec<u64> = model.sets.iter().flatten().map(|l| l.get()).collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(ours, theirs, "{at}");
    }
}

#[test]
fn stats_count_exactly_the_observed_outcomes() {
    for round in 0..ROUNDS {
        let seed = 0x726d_1000 + round;
        let stream = line_stream(&mut SmallRng::seed_from_u64(seed), 64, 300);
        let geom = CacheGeometry::direct_mapped(16 * 16, 16).unwrap();
        let mut cache = Cache::new(geom);
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        for &n in &stream {
            match cache.access_line(LineAddr::new(n)) {
                AccessResult::Hit => hits += 1,
                AccessResult::Miss { victim } => {
                    misses += 1;
                    if victim.is_some() {
                        evictions += 1;
                    }
                }
            }
        }
        let s = cache.stats();
        let at = format!("seed {seed:#x}");
        assert_eq!(s.hits, hits, "{at}");
        assert_eq!(s.misses, misses, "{at}");
        assert_eq!(s.evictions, evictions, "{at}");
        assert_eq!(s.accesses, hits + misses, "{at}");
    }
}

#[test]
fn fifo_eviction_order_is_insertion_order() {
    // In a 1-set FIFO cache, victims must come out in exactly the order
    // their lines were first inserted (reinsertions after eviction count
    // anew).
    for round in 0..ROUNDS {
        let seed = 0x726d_2000 + round;
        let stream = line_stream(&mut SmallRng::seed_from_u64(seed), 64, 300);
        let geom = CacheGeometry::new(4 * 16, 16, 4).unwrap(); // 1 set, 4-way
        let mut cache = Cache::with_policy(geom, ReplacementPolicy::Fifo);
        let mut inserted: Vec<u64> = Vec::new(); // queue of resident lines
        for &n in &stream {
            match cache.access_line(LineAddr::new(n)) {
                AccessResult::Hit => {}
                AccessResult::Miss { victim } => {
                    if let Some(v) = victim {
                        let expected = inserted.remove(0);
                        assert_eq!(v.get(), expected, "seed {seed:#x}");
                    }
                    inserted.push(n);
                }
            }
        }
    }
}
