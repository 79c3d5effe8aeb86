//! Calibration regression tests: the synthetic traces must stay within
//! bands of the paper's Table 2-2 miss rates and preserve the qualitative
//! orderings every downstream experiment depends on.

use jouppi_cache::{CacheGeometry, ClassifiedCache};
use jouppi_trace::TraceSource;
use jouppi_workloads::{Benchmark, Scale};

fn baseline() -> CacheGeometry {
    CacheGeometry::direct_mapped(4096, 16).unwrap()
}

/// Measures (I-miss, D-miss, I-conflict-fraction, D-conflict-fraction).
fn measure(b: Benchmark, instructions: u64) -> (f64, f64, f64, f64) {
    let src = b.source(Scale::new(instructions), 42);
    let mut icache = ClassifiedCache::new(baseline());
    let mut dcache = ClassifiedCache::new(baseline());
    for r in src.refs() {
        if r.kind.is_instr() {
            icache.access(r.addr);
        } else {
            dcache.access(r.addr);
        }
    }
    (
        icache.stats().miss_rate(),
        dcache.stats().miss_rate(),
        icache.breakdown().conflict_fraction(),
        dcache.breakdown().conflict_fraction(),
    )
}

const SCALE: u64 = 150_000;

#[test]
fn miss_rates_stay_within_bands_of_table_2_2() {
    for b in Benchmark::ALL {
        let paper = b.paper_row();
        let (i_miss, d_miss, _, _) = measure(b, SCALE);
        // Instruction side: within ±50% relative for the non-numeric
        // codes; numeric codes just need to stay near zero.
        if paper.baseline_instr_miss_rate > 0.005 {
            let lo = paper.baseline_instr_miss_rate * 0.5;
            let hi = paper.baseline_instr_miss_rate * 1.6;
            assert!(
                (lo..hi).contains(&i_miss),
                "{b}: I-miss {i_miss:.4} outside [{lo:.4},{hi:.4})"
            );
        } else {
            assert!(i_miss < 0.01, "{b}: I-miss {i_miss:.4} should be ~0");
        }
        // Data side: within ±50% relative.
        let lo = paper.baseline_data_miss_rate * 0.5;
        let hi = paper.baseline_data_miss_rate * 1.6;
        assert!(
            (lo..hi).contains(&d_miss),
            "{b}: D-miss {d_miss:.4} outside [{lo:.4},{hi:.4})"
        );
    }
}

#[test]
fn met_has_by_far_the_highest_data_conflict_fraction() {
    let mut fractions: Vec<(Benchmark, f64)> = Benchmark::ALL
        .into_iter()
        .map(|b| (b, measure(b, SCALE).3))
        .collect();
    fractions.sort_by(|a, b| b.1.total_cmp(&a.1));
    assert_eq!(fractions[0].0, Benchmark::Met, "{fractions:?}");
    assert!(
        fractions[0].1 > fractions[1].1 + 0.1,
        "met should lead clearly: {fractions:?}"
    );
}

#[test]
fn numeric_codes_have_low_conflict_and_high_capacity_misses() {
    let (_, _, _, liver_conf) = measure(Benchmark::Liver, SCALE);
    assert!(liver_conf < 0.3, "liver conflict fraction {liver_conf}");
}

#[test]
fn scaling_up_preserves_the_trace_prefix() {
    // A longer run of the same benchmark/seed must extend — not change —
    // the shorter trace; experiments at different scales stay comparable.
    let short: Vec<_> = Benchmark::Grr.source(Scale::new(2_000), 9).refs().collect();
    let long: Vec<_> = Benchmark::Grr
        .source(Scale::new(4_000), 9)
        .refs()
        .take(short.len())
        .collect();
    assert_eq!(short, long);
}

#[test]
fn miss_rates_are_stable_across_seeds() {
    // Different seeds produce different traces but statistically similar
    // miss rates (the generators are stationary).
    for b in [Benchmark::Met, Benchmark::Liver] {
        let r1 = {
            let src = b.source(Scale::new(SCALE), 1);
            let mut c = ClassifiedCache::new(baseline());
            for r in src.refs().filter(|r| r.kind.is_data()) {
                c.access(r.addr);
            }
            c.stats().miss_rate()
        };
        let r2 = {
            let src = b.source(Scale::new(SCALE), 2);
            let mut c = ClassifiedCache::new(baseline());
            for r in src.refs().filter(|r| r.kind.is_data()) {
                c.access(r.addr);
            }
            c.stats().miss_rate()
        };
        let rel = (r1 - r2).abs() / r1.max(r2);
        assert!(
            rel < 0.25,
            "{b}: seed variance too high ({r1:.4} vs {r2:.4})"
        );
    }
}

#[test]
fn data_working_sets_exceed_the_l1_but_fit_the_l2() {
    // Sanity on footprints: every benchmark must stress a 4KB L1 (data
    // misses exist) while fitting the 1MB L2 after warmup (so the paper's
    // "little L2 activity" claim can hold at scale).
    for b in Benchmark::ALL {
        let src = b.source(Scale::new(100_000), 3);
        let distinct: std::collections::BTreeSet<u64> = src
            .refs()
            .filter(|r| r.kind.is_data())
            .map(|r| r.addr.get() / 128)
            .collect();
        let footprint_bytes = distinct.len() as u64 * 128;
        assert!(footprint_bytes > 4096, "{b}: working set too small");
        assert!(
            footprint_bytes < (1 << 20),
            "{b}: {footprint_bytes}B exceeds the 1MB L2"
        );
    }
}
