//! Seeded property tests for the stack inclusion that `MissLog`'s size
//! sweeps rely on.
//!
//! * **Victim caches.** A size-`V` LRU victim cache holds the top `V`
//!   entries of one stack of L1 victims, where a hit removes its entry.
//!   So the hits counted by depth in one 16-entry stack pass must equal,
//!   for every `V` in `1..=16`, what a `VictimCache(V)` takes.
//! * **Miss caches.** Without stream buffers a miss cache is LRU over
//!   the miss sequence, so the hits a `StackDistanceProfile` of the
//!   missed lines predicts (`MissLog::miss_cache_sweep`) must equal each
//!   `MissCache(N)`.
//!
//! Inputs are conflict-heavy random line streams over 64B–1KB
//! direct-mapped L1s: a few lines per set, sequential runs, and
//! occasional far lines. Randomness comes from the workspace's seeded
//! xoshiro PRNG (`jouppi_trace::SmallRng`), so every failure reproduces
//! from the printed seed and round.

use jouppi_cache::CacheGeometry;
use jouppi_core::{AugmentedCache, AugmentedConfig, AugmentedStats, MissLog};
use jouppi_trace::{LineAddr, SmallRng};

const SEED: u64 = 0x4a6f_7570_7069_3930; // "Jouppi90"
const ROUNDS: usize = 64;
const MAX_ENTRIES: usize = 16;

/// A random L1 of 64B..=1KB with 16B lines (4..=64 sets).
fn l1(rng: &mut SmallRng) -> CacheGeometry {
    CacheGeometry::direct_mapped(64 << rng.below(5), 16).expect("power-of-two geometry")
}

/// A conflict-heavy stream: lines drawn from a few tags per set, so most
/// misses are conflicts, with sequential runs and rare far lines mixed in.
fn stream(rng: &mut SmallRng, geom: &CacheGeometry) -> Vec<LineAddr> {
    let sets = geom.num_sets();
    let tags = 2 + rng.below(4) as u64;
    let hot_sets = 1 + rng.below(sets.min(8) as usize) as u64;
    let len = 500 + rng.below(1500);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        match rng.below(20) {
            0 => {
                let start = rng.below(1 << 12) as u64;
                out.extend((start..start + 1 + rng.below(8) as u64).map(LineAddr::new));
            }
            1 => out.push(LineAddr::new(1 << 20 | rng.below(1 << 16) as u64)),
            _ => {
                let set = rng.below(hot_sets as usize) as u64;
                let tag = rng.below(tags as usize) as u64;
                out.push(LineAddr::new(tag * sets + set));
            }
        }
    }
    out
}

fn simulate(cfg: AugmentedConfig, lines: &[LineAddr]) -> AugmentedStats {
    let mut cache = AugmentedCache::new(cfg);
    for &line in lines {
        cache.access_line(line);
    }
    *cache.stats()
}

#[test]
fn victim_stack_depths_answer_every_victim_cache_size() {
    let mut rng = SmallRng::seed_from_u64(SEED);
    for round in 0..ROUNDS {
        let geom = l1(&mut rng);
        let lines = stream(&mut rng, &geom);
        let log = MissLog::record(geom, lines.iter().copied());
        let by_depth = log.victim_cache_sweep(MAX_ENTRIES);
        assert_eq!(by_depth.len(), MAX_ENTRIES);
        for (v, stats) in (1..=MAX_ENTRIES).zip(&by_depth) {
            let oracle = simulate(AugmentedConfig::new(geom).victim_cache(v), &lines);
            assert_eq!(
                *stats, oracle,
                "seed {SEED:#x} round {round}: {geom} victim cache {v}"
            );
        }
        assert!(
            by_depth
                .windows(2)
                .all(|w| w[0].victim_hits <= w[1].victim_hits),
            "round {round}: hits must grow with size"
        );
    }
}

#[test]
fn stack_distance_profile_answers_every_miss_cache_size() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 1);
    for round in 0..ROUNDS {
        let geom = l1(&mut rng);
        let lines = stream(&mut rng, &geom);
        let log = MissLog::record(geom, lines.iter().copied());
        let by_capacity = log.miss_cache_sweep(MAX_ENTRIES);
        assert_eq!(by_capacity.len(), MAX_ENTRIES);
        for (n, stats) in (1..=MAX_ENTRIES).zip(&by_capacity) {
            let oracle = simulate(AugmentedConfig::new(geom).miss_cache(n), &lines);
            assert_eq!(
                *stats, oracle,
                "seed {SEED:#x} round {round}: {geom} miss cache {n}"
            );
        }
    }
}

#[test]
fn streams_are_conflict_heavy() {
    // Anchor for the generator: the properties above would pass
    // vacuously on streams whose misses never reach the aids, or only
    // reach the top of the stack.
    let mut rng = SmallRng::seed_from_u64(SEED);
    let (mut misses, mut hits) = (0, [0u64; 3]);
    for _ in 0..ROUNDS {
        let geom = l1(&mut rng);
        let lines = stream(&mut rng, &geom);
        let by_size = [1, 4, MAX_ENTRIES]
            .map(|v| simulate(AugmentedConfig::new(geom).victim_cache(v), &lines));
        misses += by_size[0].l1_misses();
        for (h, stats) in hits.iter_mut().zip(&by_size) {
            *h += stats.victim_hits;
        }
    }
    assert!(
        hits[0] > 0 && hits[0] < hits[1] && hits[1] < hits[2],
        "{hits:?}"
    );
    assert!(hits[2] * 3 > misses, "{hits:?} of {misses} misses");
}
