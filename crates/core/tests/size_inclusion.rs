//! Seeded property tests for the size-axis inclusion behind
//! `MissLog::record_sizes` and `BandedShadow`.
//!
//! * **Direct-mapped sizes.** At one line size a hit in a direct-mapped
//!   cache is a hit in every larger one, so one walk that stops at the
//!   first hit must log, size for size and entry for entry, what
//!   `MissLog::record` logs at that size alone. It must also report as
//!   missed exactly the sizes whose own `Cache` missed.
//! * **Banded shadow.** One LRU stack with a marker at each capacity
//!   must classify every size's misses as a `MissClassifier` of that
//!   capacity does beside a `Cache` of that size. Its fully-associative
//!   misses must equal what a `StackDistanceProfile` predicts.
//!
//! Geometries take random set counts from 1 set (a one-line cache) up,
//! on 16B lines or, every fourth round, 64B lines. Streams are mostly
//! first touches or mostly evictions. Randomness comes from the
//! workspace's seeded xoshiro PRNG (`jouppi_trace::SmallRng`), so every
//! failure reproduces from the printed seed and round.

use jouppi_cache::{BandedShadow, Cache, CacheGeometry, MissClassifier, StackDistanceProfile};
use jouppi_core::MissLog;
use jouppi_trace::{LineAddr, SmallRng};

const SEED: u64 = 0x5349_5a45_4c41_4444; // "SIZELADD"
const ROUNDS: usize = 64;

/// Ascending direct-mapped sizes of one line size, 1 to 512 sets. The
/// first two rounds start at 1 and 2 sets, so the shadow's smallest
/// capacities are one and two lines.
fn sizes(rng: &mut SmallRng, round: usize) -> Vec<CacheGeometry> {
    let line = if round % 4 == 3 { 64 } else { 16 };
    let mut exps: Vec<u32> = (0..10).filter(|_| rng.below(3) == 0).collect();
    if round < 2 {
        exps.push(round as u32);
        exps.sort_unstable();
        exps.dedup();
    }
    if exps.is_empty() {
        exps.push(rng.below(10) as u32);
    }
    exps.iter()
        .map(|&e| CacheGeometry::direct_mapped(line << e, line).expect("power-of-two geometry"))
        .collect()
}

/// Mostly first touches (even rounds) or mostly evictions (odd rounds),
/// scaled to the largest size.
fn stream(rng: &mut SmallRng, round: usize, largest: &CacheGeometry) -> Vec<LineAddr> {
    // A pool several times the largest size, so sets stay full and most
    // misses evict.
    let pool = largest.num_lines() as usize * (2 + rng.below(4));
    let len = 400 + rng.below(1200);
    let mut out: Vec<LineAddr> = Vec::with_capacity(len);
    while out.len() < len {
        let line = if round.is_multiple_of(2) {
            if out.is_empty() || rng.below(8) != 0 {
                // A line no earlier reference is likely to have touched.
                LineAddr::new(rng.next_u64() >> 8)
            } else {
                out[rng.below(out.len())]
            }
        } else {
            LineAddr::new(rng.below(pool) as u64)
        };
        out.push(line);
    }
    out
}

#[test]
fn every_size_logs_what_its_own_pass_logs() {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let (mut eviction_refs, mut evictions) = (0, 0);
    for round in 0..ROUNDS {
        let geoms = sizes(&mut rng, round);
        let lines = stream(&mut rng, round, geoms.last().expect("a size"));
        let mut caches: Vec<Cache> = geoms.iter().map(|&g| Cache::new(g)).collect();
        let mut refs = 0;
        let runs = lines.iter().map(|&line| (line, 1, line));
        let logs = MissLog::record_sizes(&geoms, runs, |line, missed| {
            let own: Vec<bool> = caches
                .iter_mut()
                .map(|c| c.access_line(line).is_miss())
                .collect();
            let expected = own.iter().take_while(|&&m| m).count();
            assert!(
                own[expected..].iter().all(|&m| !m),
                "seed {SEED:#x} round {round} ref {refs}: misses do not nest: {own:?}"
            );
            assert_eq!(missed, expected, "seed {SEED:#x} round {round} ref {refs}");
            refs += 1;
        });
        assert_eq!(logs.len(), geoms.len());
        for ((geom, log), cache) in geoms.iter().zip(&logs).zip(&caches) {
            let own = MissLog::record(*geom, lines.iter().copied());
            assert_eq!(*log, own, "seed {SEED:#x} round {round}: {geom}");
            assert_eq!(log.geometry(), geom);
            assert_eq!(log.l1_misses(), cache.stats().misses);
        }
        // Anchor: each kind of stream reaches the case it is meant for.
        if round.is_multiple_of(2) {
            let mut distinct = lines.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(distinct.len() * 4 > lines.len() * 3, "round {round}");
        } else {
            eviction_refs += lines.len();
            evictions += caches.last().expect("a size").stats().evictions as usize;
        }
    }
    assert!(
        evictions * 2 > eviction_refs,
        "{evictions} of {eviction_refs}"
    );
}

#[test]
fn banded_shadow_classifies_every_size_like_its_own_classifier() {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 1);
    for round in 0..ROUNDS {
        let geoms = sizes(&mut rng, round);
        let lines = stream(&mut rng, round, geoms.last().expect("a size"));
        let capacities: Vec<usize> = geoms.iter().map(|g| g.num_lines() as usize).collect();
        let mut shadow = BandedShadow::new(&geoms);
        let mut caches: Vec<Cache> = geoms.iter().map(|&g| Cache::new(g)).collect();
        let mut classifiers: Vec<MissClassifier> =
            geoms.iter().map(|&g| MissClassifier::new(g)).collect();
        let mut profile = StackDistanceProfile::new();
        let runs = lines.iter().map(|&line| (line, 1, line));
        MissLog::record_sizes(&geoms, runs, |line, missed| {
            shadow.observe(line, missed);
            for (cache, classifier) in caches.iter_mut().zip(&mut classifiers) {
                classifier.observe(line, cache.access_line(line).is_miss());
            }
            profile.observe(line);
        });
        assert_eq!(shadow.accesses(), lines.len() as u64);
        for (i, (geom, classifier)) in geoms.iter().zip(&classifiers).enumerate() {
            assert_eq!(
                shadow.breakdown(i),
                classifier.breakdown(),
                "seed {SEED:#x} round {round}: {geom}"
            );
            assert_eq!(
                shadow.fa_misses(i),
                profile.misses_for_capacity(capacities[i]),
                "seed {SEED:#x} round {round}: {} lines",
                capacities[i]
            );
        }
    }
}
