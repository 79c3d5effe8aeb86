//! The single-pass multi-geometry engines must be exactly equal to the
//! demoted per-cell simulator — miss count for miss count, across the
//! full geometry grid, under both LRU and FIFO.
//!
//! Three layers of pinning:
//! * the full [`jouppi_experiments::single_pass`] sweep on real
//!   benchmark traces against its per-cell oracle;
//! * the fig_3_1 three-C breakdowns computed by stack depths against the
//!   classifying simulator;
//! * the raw engines on adversarial synthetic streams (cyclic thrash,
//!   Belady's-anomaly stream, conflict-heavy strides) against
//!   [`jouppi_cache::Cache`] oracles cell by cell.

use jouppi_cache::{Cache, CacheGeometry, FifoSweep, LruSweep, ReplacementPolicy};
use jouppi_experiments::common::ExperimentConfig;
use jouppi_experiments::{fig_3_1, single_pass};
use jouppi_trace::LineAddr;

fn smoke_cfg() -> ExperimentConfig {
    ExperimentConfig::with_scale(12_000)
}

#[test]
fn geometry_sweep_single_pass_equals_per_cell() {
    let cfg = smoke_cfg();
    assert_eq!(single_pass::run(&cfg), single_pass::run_per_cell(&cfg));
}

#[test]
fn fig_3_1_single_pass_equals_classifier() {
    let cfg = smoke_cfg();
    assert_eq!(fig_3_1::run(&cfg), fig_3_1::run_single_pass(&cfg));
}

/// Adversarial line streams: cyclic LRU thrash just past each capacity
/// class, the textbook Belady-anomaly stream, a conflict-heavy stride
/// that floods one set, and a phase-shifting pseudo-random mix.
fn adversarial_streams() -> Vec<Vec<LineAddr>> {
    let belady = vec![1u64, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5];
    let cyclic: Vec<u64> = (0..2_000).map(|i| i % 65).collect();
    let strided: Vec<u64> = (0..2_000).map(|i| (i % 9) * 64).collect();
    let mixed: Vec<u64> = (0..4_000)
        .map(|i: u64| (i * 31 + i / 7) % 211)
        .chain((0..500).flat_map(|i| [i % 40, (i * 17) % 160]))
        .collect();
    [belady, cyclic, strided, mixed]
        .into_iter()
        .map(|s| s.into_iter().map(LineAddr::new).collect())
        .collect()
}

#[test]
fn engines_match_cache_oracle_on_adversarial_streams() {
    let cells: Vec<(u64, u64)> = single_pass::grid()
        .iter()
        .map(|g| (g.num_sets(), g.associativity()))
        .collect();
    // A second LRU sweep bounded at 64 ways per set count resolves
    // depths well past the grid's associativities; both must equal the
    // oracle at every grid cell.
    let deep: Vec<(u64, u64)> = cells.iter().map(|&(s, _)| (s, 64)).collect();
    for stream in adversarial_streams() {
        let mut lru_deep = LruSweep::bounded(&deep).expect("valid");
        let mut lru_bounded = LruSweep::bounded(&cells).expect("valid");
        let mut fifo = FifoSweep::new(&cells).expect("valid");
        for &line in &stream {
            lru_deep.observe(line);
            lru_bounded.observe(line);
            fifo.observe(line);
        }
        for geom in single_pass::grid() {
            for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
                let mut cache = Cache::with_policy(geom, policy);
                let mut misses = 0u64;
                for &line in &stream {
                    if cache.access_line(line).is_miss() {
                        misses += 1;
                    }
                }
                let engines = match policy {
                    ReplacementPolicy::Lru => vec![
                        lru_deep.misses_for_geometry(&geom),
                        lru_bounded.misses_for_geometry(&geom),
                    ],
                    _ => vec![fifo.misses_for_geometry(&geom)],
                };
                for engine in engines {
                    assert_eq!(
                        engine,
                        Some(misses),
                        "{policy:?} at {}B {}-way on a {}-ref stream",
                        geom.size(),
                        geom.associativity(),
                        stream.len()
                    );
                }
            }
        }
    }
}

#[test]
fn engines_match_oracle_beyond_the_grid() {
    // Geometries the named sweep does not include (tiny, very wide,
    // fully associative) — the engines are general, not grid-shaped.
    let extra = [
        CacheGeometry::new(256, 16, 1).expect("valid"),
        CacheGeometry::new(512, 16, 16).expect("valid"),
        CacheGeometry::fully_associative(1024, 16).expect("valid"),
    ];
    let stream: Vec<LineAddr> = (0..3_000u64)
        .map(|i| LineAddr::new((i * 13 + i / 5) % 151))
        .collect();
    let cells: Vec<(u64, u64)> = extra
        .iter()
        .map(|g| (g.num_sets(), g.associativity()))
        .collect();
    let mut lru = LruSweep::bounded(&cells).expect("valid");
    let mut fifo = FifoSweep::new(&cells).expect("valid");
    for &line in &stream {
        lru.observe(line);
        fifo.observe(line);
    }
    for geom in extra {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
            let mut cache = Cache::with_policy(geom, policy);
            let mut misses = 0u64;
            for &line in &stream {
                if cache.access_line(line).is_miss() {
                    misses += 1;
                }
            }
            let engine = match policy {
                ReplacementPolicy::Lru => lru.misses_for_geometry(&geom),
                _ => fifo.misses_for_geometry(&geom),
            };
            assert_eq!(engine, Some(misses), "{policy:?} {geom:?}");
        }
    }
}
