//! Property-based tests over the core data structures and their paper
//! invariants, driven by random reference streams.

//
// Gated: requires the `proptest` feature (and re-adding the `proptest`
// dev-dependency, which the offline build environment cannot download).
#![cfg(feature = "proptest")]

use jouppi::cache::{
    Cache, CacheGeometry, FifoSweep, LruSet, LruSweep, MissClassifier, ReplacementPolicy,
    StackDistanceProfile,
};
use jouppi::core::{AugmentedCache, AugmentedConfig, StreamBufferConfig, VictimCache};
use jouppi::trace::LineAddr;
use proptest::prelude::*;

/// Random line streams with controllable locality: values are small so
/// conflicts and reuse actually occur.
fn line_stream(max_line: u64, len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..max_line, 1..len)
}

proptest! {
    /// An LruSet never exceeds capacity and evicts exactly the LRU.
    #[test]
    fn lru_set_respects_capacity(stream in line_stream(64, 200), cap in 1usize..10) {
        let mut lru = LruSet::new(cap);
        let mut reference: Vec<u64> = Vec::new(); // MRU at front
        for &n in &stream {
            let line = LineAddr::new(n);
            let evicted = match lru.touch_or_insert(line) {
                jouppi::cache::TouchOutcome::Evicted(v) => Some(v.get()),
                _ => None,
            };
            // Maintain the reference model.
            if let Some(pos) = reference.iter().position(|&x| x == n) {
                reference.remove(pos);
                prop_assert!(evicted.is_none());
            } else if reference.len() == cap {
                let lru_line = reference.pop().expect("full");
                prop_assert_eq!(evicted, Some(lru_line));
            } else {
                prop_assert!(evicted.is_none());
            }
            reference.insert(0, n);
            prop_assert!(lru.len() <= cap);
            prop_assert_eq!(lru.len(), reference.len());
        }
        // Final MRU→LRU order matches the reference model.
        let order: Vec<u64> = lru.iter().map(|l| l.get()).collect();
        prop_assert_eq!(order, reference);
    }

    /// A fully-associative Cache with LRU equals an LruSet on the same
    /// stream (same hits, same evictions).
    #[test]
    fn fully_associative_cache_equals_lru_set(stream in line_stream(128, 300)) {
        let geom = CacheGeometry::fully_associative(8 * 16, 16).unwrap(); // 8 lines
        let mut cache = Cache::new(geom);
        let mut lru = LruSet::new(8);
        for &n in &stream {
            let line = LineAddr::new(n);
            let lru_hit = lru.contains(line);
            lru.touch_or_insert(line);
            let cache_hit = cache.access_line(line).is_hit();
            prop_assert_eq!(cache_hit, lru_hit);
            prop_assert_eq!(cache.probe(line), lru.contains(line));
            prop_assert!(cache.resident_count() <= 8);
        }
    }

    /// The three miss classes partition total misses, and compulsory
    /// misses equal the number of distinct lines that missed first.
    #[test]
    fn three_c_partition(stream in line_stream(96, 400)) {
        let geom = CacheGeometry::direct_mapped(16 * 16, 16).unwrap(); // 16 lines
        let mut cache = Cache::new(geom);
        let mut cls = MissClassifier::new(geom);
        let mut misses = 0u64;
        for &n in &stream {
            let line = LineAddr::new(n);
            let miss = cache.access_line(line).is_miss();
            if miss { misses += 1; }
            cls.observe(line, miss);
        }
        let b = cls.breakdown();
        prop_assert_eq!(b.total(), misses);
        let distinct: std::collections::BTreeSet<_> = stream.iter().collect();
        prop_assert_eq!(b.compulsory as usize, distinct.len());
    }

    /// LRU stack property: a larger fully-associative LRU cache never
    /// misses more than a smaller one on the same stream.
    #[test]
    fn lru_inclusion_property(stream in line_stream(256, 400)) {
        let mut misses_by_size = Vec::new();
        for lines in [4u64, 8, 16, 32] {
            let geom = CacheGeometry::fully_associative(lines * 16, 16).unwrap();
            let mut cache = Cache::new(geom);
            let mut misses = 0;
            for &n in &stream {
                if cache.access_line(LineAddr::new(n)).is_miss() {
                    misses += 1;
                }
            }
            misses_by_size.push(misses);
        }
        for w in misses_by_size.windows(2) {
            prop_assert!(w[1] <= w[0], "bigger LRU cache missed more: {:?}", misses_by_size);
        }
    }

    /// Victim-cache exclusivity and the L1-miss invariance across
    /// organizations, on arbitrary streams.
    #[test]
    fn victim_cache_invariants(stream in line_stream(64, 400), entries in 1usize..6) {
        let geom = CacheGeometry::direct_mapped(8 * 16, 16).unwrap(); // 8 sets
        let bare = {
            let mut c = AugmentedCache::new(AugmentedConfig::new(geom));
            for &n in &stream { c.access_line(LineAddr::new(n)); }
            c.stats().l1_misses()
        };
        let mut c = AugmentedCache::new(AugmentedConfig::new(geom).victim_cache(entries));
        for &n in &stream {
            c.access_line(LineAddr::new(n));
        }
        prop_assert!(c.exclusivity_holds());
        prop_assert_eq!(c.stats().l1_misses(), bare);
        prop_assert_eq!(
            c.stats().l1_misses(),
            c.stats().victim_hits + c.stats().full_misses
        );
    }

    /// Larger victim caches never service fewer misses on-chip.
    #[test]
    fn victim_cache_monotone_in_entries(stream in line_stream(48, 300)) {
        let geom = CacheGeometry::direct_mapped(8 * 16, 16).unwrap();
        let mut prev = 0u64;
        for entries in [1usize, 2, 4, 8, 16] {
            let mut c = AugmentedCache::new(AugmentedConfig::new(geom).victim_cache(entries));
            for &n in &stream { c.access_line(LineAddr::new(n)); }
            let hits = c.stats().victim_hits;
            prop_assert!(hits >= prev, "{entries} entries: {hits} < {prev}");
            prev = hits;
        }
    }

    /// Raw VictimCache structure: a swap-hit removes the line and the
    /// set's size never exceeds capacity.
    #[test]
    fn raw_victim_cache_size_bound(ops in prop::collection::vec((0u64..32, 0u64..32), 1..200), cap in 1usize..6) {
        let mut vc = VictimCache::new(cap);
        for &(req, vic) in &ops {
            let (req, vic) = (LineAddr::new(req), LineAddr::new(vic));
            if req != vic {
                if !vc.probe_swap(req, Some(vic)) {
                    vc.insert_victim(vic);
                }
                prop_assert!(!vc.contains(req) || req == vic);
            }
            prop_assert!(vc.len() <= cap);
        }
    }

    /// Stream buffers never *add* misses: full misses with a buffer are
    /// at most the bare cache's misses.
    #[test]
    fn stream_buffer_never_hurts(stream in line_stream(200, 400), ways in 1usize..5) {
        let geom = CacheGeometry::direct_mapped(8 * 16, 16).unwrap();
        let bare = {
            let mut c = AugmentedCache::new(AugmentedConfig::new(geom));
            for &n in &stream { c.access_line(LineAddr::new(n)); }
            c.stats().full_misses
        };
        let mut c = AugmentedCache::new(
            AugmentedConfig::new(geom).multi_way_stream_buffer(ways, StreamBufferConfig::new(4)),
        );
        for &n in &stream { c.access_line(LineAddr::new(n)); }
        prop_assert!(c.stats().full_misses <= bare);
    }

    /// The stack-distance profile predicts FA-LRU misses exactly
    /// (Mattson), for every capacity, on arbitrary streams.
    #[test]
    fn stack_distance_predicts_fa_lru(stream in line_stream(96, 400)) {
        let mut profile = StackDistanceProfile::new();
        for &n in &stream {
            profile.observe(LineAddr::new(n));
        }
        for lines in [1u64, 2, 4, 8, 32] {
            let geom = CacheGeometry::fully_associative(lines * 16, 16).unwrap();
            let mut cache = Cache::new(geom);
            let mut misses = 0u64;
            for &n in &stream {
                if cache.access_line(LineAddr::new(n)).is_miss() {
                    misses += 1;
                }
            }
            prop_assert_eq!(profile.misses_for_capacity(lines as usize), misses);
        }
        // Compulsory count equals distinct lines.
        let distinct: std::collections::BTreeSet<_> = stream.iter().collect();
        prop_assert_eq!(profile.cold_refs() as usize, distinct.len());
    }

    /// Set refinement: the within-set stack distance at S sets predicts
    /// an S-set A-way LRU cache's hit/miss per reference (hit ⇔ not a
    /// first touch and depth ≤ A), on arbitrary streams.
    #[test]
    fn within_set_depth_predicts_set_assoc_lru(stream in line_stream(128, 400)) {
        for (sets, assoc) in [(1u64, 4u64), (4, 1), (4, 2), (8, 4), (16, 2)] {
            let geom = CacheGeometry::new(sets * assoc * 16, 16, assoc).unwrap();
            let mut cache = Cache::new(geom);
            let mut sweep = LruSweep::for_set_counts(&[sets]).unwrap();
            for &n in &stream {
                let line = LineAddr::new(n);
                let (cold, depths) = sweep.observe_depths(line);
                let predicted_hit = !cold && u64::from(depths[0]) <= assoc;
                prop_assert_eq!(
                    cache.access_line(line).is_hit(),
                    predicted_hit,
                    "{} sets x {} ways at line {}", sets, assoc, n
                );
            }
            prop_assert_eq!(
                sweep.misses(sets, assoc),
                Some(cache.stats().misses)
            );
        }
    }

    /// The bounded LRU backend equals the exact Fenwick backend at every
    /// associativity up to each level's bound, and declines to answer
    /// beyond it, on arbitrary streams.
    #[test]
    fn bounded_lru_sweep_matches_exact_within_bounds(stream in line_stream(128, 400)) {
        let cells = [(1u64, 6u64), (2, 3), (8, 2), (16, 1)];
        let counts: Vec<u64> = cells.iter().map(|&(s, _)| s).collect();
        let mut exact = LruSweep::for_set_counts(&counts).unwrap();
        let mut bounded = LruSweep::bounded(&cells).unwrap();
        for &n in &stream {
            exact.observe(LineAddr::new(n));
            bounded.observe(LineAddr::new(n));
        }
        for (sets, bound) in cells {
            for assoc in 1..=bound {
                prop_assert_eq!(
                    bounded.misses(sets, assoc),
                    exact.misses(sets, assoc),
                    "{} sets x {} ways (bound {})", sets, assoc, bound
                );
            }
            prop_assert_eq!(bounded.misses(sets, bound + 1), None);
        }
        prop_assert_eq!(bounded.cold_refs(), exact.cold_refs());
        prop_assert_eq!(bounded.distinct_lines(), exact.distinct_lines());
    }

    /// The one-pass FIFO curves equal per-cell FIFO simulation exactly,
    /// for every tracked (set count, associativity) cell, on arbitrary
    /// streams.
    #[test]
    fn fifo_sweep_matches_per_cell_fifo(stream in line_stream(160, 400)) {
        let cells = [(1u64, 2u64), (1, 8), (2, 4), (4, 1), (8, 2), (16, 1)];
        let mut sweep = FifoSweep::new(&cells).unwrap();
        for &n in &stream {
            sweep.observe(LineAddr::new(n));
        }
        for (sets, assoc) in cells {
            let geom = CacheGeometry::new(sets * assoc * 16, 16, assoc).unwrap();
            let mut cache = Cache::with_policy(geom, ReplacementPolicy::Fifo);
            for &n in &stream {
                cache.access_line(LineAddr::new(n));
            }
            prop_assert_eq!(
                sweep.misses(sets, assoc),
                Some(cache.stats().misses),
                "{} sets x {} ways", sets, assoc
            );
        }
    }

    /// Set-associative caches with FIFO/Random still respect capacity and
    /// never "lose" lines spuriously (a resident line probed right after
    /// insertion is present).
    #[test]
    fn policies_respect_capacity(stream in line_stream(64, 300)) {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo, ReplacementPolicy::Random] {
            let geom = CacheGeometry::new(4 * 16 * 2, 16, 2).unwrap(); // 4 sets, 2-way
            let mut cache = Cache::with_policy(geom, policy);
            for &n in &stream {
                let line = LineAddr::new(n);
                cache.access_line(line);
                prop_assert!(cache.probe(line), "{policy}: line vanished");
                prop_assert!(cache.resident_count() <= 8);
            }
        }
    }
}
