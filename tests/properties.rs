//! Properties of the core data structures and their paper invariants,
//! driven by random reference streams.
//!
//! Each property runs seeded rounds of random line streams and
//! parameters. Randomness comes from the workspace's seeded xoshiro PRNG
//! (`jouppi_trace::SmallRng`), so every failure reproduces from the
//! printed seed and round.

use std::collections::BTreeSet;

use jouppi::cache::{
    Cache, CacheGeometry, FifoSweep, LruSweep, MissClass, MissClassifier, ReplacementPolicy,
    StackDistanceProfile,
};
use jouppi::core::{AugmentedCache, AugmentedConfig, MissCache, StreamBufferConfig, VictimCache};
use jouppi::trace::{LineAddr, LineInterner, SmallRng};

const SEED: u64 = 0x5052_4f50_4552_5459; // "PROPERTY"
const ROUNDS: usize = 64;

fn l(n: u64) -> LineAddr {
    LineAddr::new(n)
}

/// `1..len` lines drawn from `0..max_line`: values are small so conflicts
/// and reuse actually occur.
fn line_stream(rng: &mut SmallRng, max_line: u64, len: usize) -> Vec<u64> {
    (0..1 + rng.below(len - 1))
        .map(|_| rng.below(max_line as usize) as u64)
        .collect()
}

/// Misses of a per-cell cache of `sets` × `assoc` 16B lines.
fn cell_misses(stream: &[u64], sets: u64, assoc: u64, policy: ReplacementPolicy) -> u64 {
    let geom = CacheGeometry::new(sets * assoc * 16, 16, assoc).expect("power-of-two cell");
    let mut cache = Cache::with_policy(geom, policy);
    for &n in stream {
        cache.access_line(l(n));
    }
    cache.stats().misses
}

/// Misses of `sets` LRU sets of `assoc` ways each, the set chosen by the
/// line's low bits: set-associative LRU at any way count, which a
/// [`Cache`] (power-of-two ways only) cannot model.
fn per_set_lru_misses(stream: &[u64], sets: u64, assoc: u64) -> u64 {
    let mut set_lrus: Vec<MissCache> = (0..sets).map(|_| MissCache::new(assoc as usize)).collect();
    let mut misses = 0;
    for &n in stream {
        let set = &mut set_lrus[(n & (sets - 1)) as usize];
        if !set.probe_and_touch(l(n)) {
            set.insert(l(n));
            misses += 1;
        }
    }
    misses
}

/// A miss cache never exceeds capacity and evicts exactly the LRU line.
#[test]
fn lru_set_respects_capacity() {
    let mut rng = SmallRng::seed_from_u64(SEED);
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 64, 200);
        let cap = 1 + rng.below(9);
        let mut lru = MissCache::new(cap);
        let mut reference: Vec<u64> = Vec::new(); // MRU at front
        for (t, &n) in stream.iter().enumerate() {
            let at = format!("seed {SEED:#x} round {round}: cap {cap}, ref {t} (line {n})");
            let evicted = lru.insert(l(n)).map(|v| v.get());
            if let Some(pos) = reference.iter().position(|&x| x == n) {
                reference.remove(pos);
                assert_eq!(evicted, None, "{at}");
            } else if reference.len() == cap {
                let lru_line = reference.pop().expect("full");
                assert_eq!(evicted, Some(lru_line), "{at}");
            } else {
                assert_eq!(evicted, None, "{at}");
            }
            reference.insert(0, n);
            assert!(lru.len() <= cap, "{at}");
            assert_eq!(lru.len(), reference.len(), "{at}");
        }
        // Final MRU→LRU order matches the reference model.
        let order: Vec<u64> = lru.iter().map(|line| line.get()).collect();
        assert_eq!(order, reference, "seed {SEED:#x} round {round}");
    }
}

/// A fully-associative Cache with LRU equals an 8-entry miss cache on the
/// same stream (same hits, same evictions).
#[test]
fn fully_associative_cache_equals_lru_set() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 1);
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 128, 300);
        let geom = CacheGeometry::fully_associative(8 * 16, 16).expect("8 lines");
        let mut cache = Cache::new(geom);
        let mut lru = MissCache::new(8);
        for (t, &n) in stream.iter().enumerate() {
            let at = format!("seed {SEED:#x} round {round}: ref {t} (line {n})");
            let lru_hit = lru.contains(l(n));
            lru.insert(l(n));
            assert_eq!(cache.access_line(l(n)).is_hit(), lru_hit, "{at}");
            assert_eq!(cache.probe(l(n)), lru.contains(l(n)), "{at}");
            assert!(cache.resident_count() <= 8, "{at}");
        }
    }
}

/// The three miss classes partition total misses, and compulsory misses
/// equal the number of distinct lines.
#[test]
fn three_c_partition() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 2);
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 96, 400);
        let geom = CacheGeometry::direct_mapped(16 * 16, 16).expect("16 lines");
        let mut cache = Cache::new(geom);
        let mut cls = MissClassifier::new(geom);
        let mut misses = 0u64;
        for &n in &stream {
            let miss = cache.access_line(l(n)).is_miss();
            misses += u64::from(miss);
            cls.observe(l(n), miss);
        }
        let b = cls.breakdown();
        assert_eq!(b.total(), misses, "seed {SEED:#x} round {round}");
        let distinct: BTreeSet<_> = stream.iter().collect();
        assert_eq!(
            b.compulsory as usize,
            distinct.len(),
            "seed {SEED:#x} round {round}"
        );
    }
}

/// LRU stack property: a larger fully-associative LRU cache never misses
/// more than a smaller one on the same stream.
#[test]
fn lru_inclusion_property() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 3);
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 256, 400);
        let misses_by_size: Vec<u64> = [4u64, 8, 16, 32]
            .iter()
            .map(|&lines| cell_misses(&stream, 1, lines, ReplacementPolicy::Lru))
            .collect();
        for w in misses_by_size.windows(2) {
            assert!(
                w[1] <= w[0],
                "seed {SEED:#x} round {round}: bigger LRU cache missed more: {misses_by_size:?}"
            );
        }
    }
}

/// Victim-cache exclusivity and the L1-miss invariance across
/// organizations, on arbitrary streams.
#[test]
fn victim_cache_invariants() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 4);
    let geom = CacheGeometry::direct_mapped(8 * 16, 16).expect("8 sets");
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 64, 400);
        let entries = 1 + rng.below(5);
        let mut bare = AugmentedCache::new(AugmentedConfig::new(geom));
        let mut c = AugmentedCache::new(AugmentedConfig::new(geom).victim_cache(entries));
        for &n in &stream {
            bare.access_line(l(n));
            c.access_line(l(n));
        }
        let at = format!("seed {SEED:#x} round {round}: {entries} entries");
        assert!(c.exclusivity_holds(), "{at}");
        assert_eq!(c.stats().l1_misses(), bare.stats().l1_misses(), "{at}");
        assert_eq!(
            c.stats().l1_misses(),
            c.stats().victim_hits + c.stats().full_misses,
            "{at}"
        );
    }
}

/// Larger victim caches never service fewer misses on-chip.
#[test]
fn victim_cache_monotone_in_entries() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 5);
    let geom = CacheGeometry::direct_mapped(8 * 16, 16).expect("8 sets");
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 48, 300);
        let mut prev = 0u64;
        for entries in [1usize, 2, 4, 8, 16] {
            let mut c = AugmentedCache::new(AugmentedConfig::new(geom).victim_cache(entries));
            for &n in &stream {
                c.access_line(l(n));
            }
            let hits = c.stats().victim_hits;
            assert!(
                hits >= prev,
                "seed {SEED:#x} round {round}: {entries} entries: {hits} < {prev}"
            );
            prev = hits;
        }
    }
}

/// Raw VictimCache structure: a swap-hit removes the line and the cache
/// never holds more than its capacity.
#[test]
fn raw_victim_cache_size_bound() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 6);
    for round in 0..ROUNDS {
        let cap = 1 + rng.below(5);
        let mut vc = VictimCache::new(cap);
        for op in 0..1 + rng.below(199) {
            let req = l(rng.below(32) as u64);
            let vic = l(rng.below(32) as u64);
            let at = format!("seed {SEED:#x} round {round}: cap {cap}, op {op}");
            if req != vic {
                if !vc.probe_swap(req, Some(vic)) {
                    vc.insert_victim(vic);
                }
                assert!(!vc.contains(req), "{at}");
            }
            assert!(vc.len() <= cap, "{at}");
        }
    }
}

/// Stream buffers never *add* misses: full misses with a buffer are at
/// most the bare cache's misses.
#[test]
fn stream_buffer_never_hurts() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 7);
    let geom = CacheGeometry::direct_mapped(8 * 16, 16).expect("8 sets");
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 200, 400);
        let ways = 1 + rng.below(4);
        let mut bare = AugmentedCache::new(AugmentedConfig::new(geom));
        let mut c = AugmentedCache::new(
            AugmentedConfig::new(geom).multi_way_stream_buffer(ways, StreamBufferConfig::new(4)),
        );
        for &n in &stream {
            bare.access_line(l(n));
            c.access_line(l(n));
        }
        assert!(
            c.stats().full_misses <= bare.stats().full_misses,
            "seed {SEED:#x} round {round}: {ways} ways"
        );
    }
}

/// The stack-distance profile predicts FA-LRU misses exactly (Mattson),
/// for every capacity, on arbitrary streams.
#[test]
fn stack_distance_predicts_fa_lru() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 8);
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 96, 400);
        let mut profile = StackDistanceProfile::new();
        for &n in &stream {
            profile.observe(l(n));
        }
        for lines in [1u64, 2, 4, 8, 32] {
            assert_eq!(
                profile.misses_for_capacity(lines as usize),
                cell_misses(&stream, 1, lines, ReplacementPolicy::Lru),
                "seed {SEED:#x} round {round}: {lines} lines"
            );
        }
        let distinct: BTreeSet<_> = stream.iter().collect();
        assert_eq!(
            profile.cold_refs() as usize,
            distinct.len(),
            "seed {SEED:#x} round {round}"
        );
    }
}

/// Set refinement: the within-set stack distance at S sets predicts an
/// S-set A-way LRU cache's hit/miss per reference (hit ⇔ not a first
/// touch and depth ≤ A), on arbitrary streams.
#[test]
fn within_set_depth_predicts_set_assoc_lru() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 9);
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 128, 400);
        for (sets, assoc) in [(1u64, 4u64), (4, 1), (4, 2), (8, 4), (16, 2)] {
            let geom = CacheGeometry::new(sets * assoc * 16, 16, assoc).expect("valid cell");
            let mut cache = Cache::new(geom);
            // Bounded well past the associativity, so the depths the
            // prediction reads are resolved rather than capped.
            let mut sweep = LruSweep::bounded(&[(sets, 32)]).expect("power of two");
            for (t, &n) in stream.iter().enumerate() {
                let (cold, depths) = sweep.observe_depths(l(n));
                let predicted_hit = !cold && u64::from(depths[0]) <= assoc;
                assert_eq!(
                    cache.access_line(l(n)).is_hit(),
                    predicted_hit,
                    "seed {SEED:#x} round {round}: {sets} sets x {assoc} ways at ref {t} (line {n})"
                );
            }
            assert_eq!(
                sweep.misses(sets, assoc),
                Some(cache.stats().misses),
                "seed {SEED:#x} round {round}: {sets} sets x {assoc} ways"
            );
        }
    }
}

/// The bounded LRU sweep equals per-set LRU simulation at every
/// associativity up to each level's bound, including bounds that are not
/// powers of two on multi-set levels; agrees with per-cell [`Cache`]
/// simulation and the stack profile where those apply; declines to answer
/// beyond the bound; and counts cold references and distinct lines
/// exactly, on arbitrary streams.
#[test]
fn bounded_lru_sweep_matches_exact_within_bounds() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 10);
    let cells = [(1u64, 6u64), (2, 3), (4, 5), (8, 2), (16, 1)];
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 128, 400);
        let mut bounded = LruSweep::bounded(&cells).expect("valid cells");
        let mut profile = StackDistanceProfile::new();
        for &n in &stream {
            bounded.observe(l(n));
            profile.observe(l(n));
        }
        for (sets, bound) in cells {
            for assoc in 1..=bound {
                let at = format!(
                    "seed {SEED:#x} round {round}: {sets} sets x {assoc} ways (bound {bound})"
                );
                let exact = per_set_lru_misses(&stream, sets, assoc);
                assert_eq!(bounded.misses(sets, assoc), Some(exact), "{at}");
                if sets == 1 {
                    assert_eq!(profile.misses_for_capacity(assoc as usize), exact, "{at}");
                }
                if assoc.is_power_of_two() {
                    let cell = cell_misses(&stream, sets, assoc, ReplacementPolicy::Lru);
                    assert_eq!(cell, exact, "{at}");
                }
            }
            assert_eq!(bounded.misses(sets, bound + 1), None);
        }
        let distinct: BTreeSet<u64> = stream.iter().copied().collect();
        assert_eq!(bounded.cold_refs(), distinct.len() as u64);
        assert_eq!(bounded.distinct_lines(), distinct.len());
    }
}

/// The one-pass FIFO curves equal per-cell FIFO simulation exactly, for
/// every tracked (set count, associativity) cell, on arbitrary streams.
#[test]
fn fifo_sweep_matches_per_cell_fifo() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 11);
    let cells = [(1u64, 2u64), (1, 8), (2, 4), (4, 1), (8, 2), (16, 1)];
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 160, 400);
        let mut sweep = FifoSweep::new(&cells).expect("valid cells");
        for &n in &stream {
            sweep.observe(l(n));
        }
        for (sets, assoc) in cells {
            assert_eq!(
                sweep.misses(sets, assoc),
                Some(cell_misses(&stream, sets, assoc, ReplacementPolicy::Fifo)),
                "seed {SEED:#x} round {round}: {sets} sets x {assoc} ways"
            );
        }
    }
}

/// Set-associative caches with FIFO/Random still respect capacity and
/// never "lose" lines spuriously (a line probed right after its access is
/// present).
#[test]
fn policies_respect_capacity() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 12);
    let geom = CacheGeometry::new(4 * 16 * 2, 16, 2).expect("4 sets, 2-way");
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 64, 300);
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let mut cache = Cache::with_policy(geom, policy);
            for (t, &n) in stream.iter().enumerate() {
                cache.access_line(l(n));
                let at = format!("seed {SEED:#x} round {round}: {policy} at ref {t}");
                assert!(cache.probe(l(n)), "{at}: line vanished");
                assert!(cache.resident_count() <= 8, "{at}");
            }
        }
    }
}

/// Fed line ids, the classifier equals the three-C definition run
/// naively: a fully-associative LRU list of the cache's capacity plus a
/// set of lines seen, with a direct-mapped cache deciding which
/// references miss.
#[test]
fn id_classifier_matches_naive_three_c_model() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 13);
    for round in 0..ROUNDS {
        let stream = line_stream(&mut rng, 96, 400);
        let lines = 1u64 << rng.below(5);
        let geom = CacheGeometry::direct_mapped(lines * 16, 16).expect("power of two");
        let mut cache = Cache::new(geom);
        let mut interner = LineInterner::new();
        let mut cls = MissClassifier::new(geom);
        let mut shadow: Vec<u64> = Vec::new(); // MRU at front
        let mut seen = BTreeSet::new();
        for (t, &n) in stream.iter().enumerate() {
            let miss = cache.access_line(l(n)).is_miss();
            let expected = miss.then(|| {
                if !seen.contains(&n) {
                    MissClass::Compulsory
                } else if shadow.contains(&n) {
                    MissClass::Conflict
                } else {
                    MissClass::Capacity
                }
            });
            seen.insert(n);
            if let Some(pos) = shadow.iter().position(|&x| x == n) {
                shadow.remove(pos);
            } else if shadow.len() as u64 == lines {
                shadow.pop();
            }
            shadow.insert(0, n);
            let id = interner.intern(l(n));
            assert_eq!(
                cls.observe_id(id, miss),
                expected,
                "seed {SEED:#x} round {round}: {lines} lines at ref {t} (line {n})"
            );
        }
        assert_eq!(cls.distinct_lines(), seen.len());
    }
}
