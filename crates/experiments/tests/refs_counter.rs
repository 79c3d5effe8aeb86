//! `refs_simulated` counts work delivered, whichever engine answers.
//!
//! The served `jouppi_refs_simulated_total` counter and the
//! `jouppi_refs_per_second` gauge read `common::refs_simulated`. A
//! filter-then-fan-out sweep makes one L1 pass per side, yet it must
//! count what the per-cell oracle replays — one classification pass plus
//! one replay per configuration, each the side's length — so the counter
//! stays comparable across engines and the gauge shows the speed-up.
//!
//! The counter is process-wide, so this binary holds a single test.

use jouppi_experiments::common::{record_traces, refs_simulated, ExperimentConfig, Side};
use jouppi_experiments::conflict_sweep::{self, Mechanism};
use jouppi_experiments::victim_geometry::{self, cache_size_points, GeometryAxis, VC_ENTRIES};
use jouppi_experiments::{stream_geometry, stream_sweep};

fn counted(run: impl FnOnce()) -> u64 {
    let before = refs_simulated();
    run();
    refs_simulated() - before
}

#[test]
fn fan_out_counts_what_the_per_cell_oracle_replays() {
    let cfg = ExperimentConfig::with_scale(8_000);
    let traces = record_traces(&cfg);
    let refs: u64 = traces.iter().map(|(_, t)| t.len() as u64).sum();
    let data: u64 = traces
        .iter()
        .map(|(_, t)| Side::Data.view(t).len() as u64)
        .sum();
    for mechanism in [Mechanism::MissCache, Mechanism::VictimCache] {
        let fast = counted(|| {
            conflict_sweep::run(&cfg, mechanism, 4);
        });
        let oracle = counted(|| {
            conflict_sweep::run_per_cell(&cfg, mechanism, 4);
        });
        assert_eq!(fast, (1 + 4) * refs, "{mechanism:?}");
        assert_eq!(fast, oracle, "{mechanism:?}");
    }
    for ways in [1, 4] {
        let fast = counted(|| {
            stream_sweep::run(&cfg, ways, 8);
        });
        let oracle = counted(|| {
            stream_sweep::run_per_cell(&cfg, ways, 8);
        });
        assert_eq!(fast, (1 + 9) * refs, "{ways}-way");
        assert_eq!(fast, oracle, "{ways}-way");
    }
    // Figures 3-6 and 4-6 log every size in one pass, yet count one
    // classification pass plus one replay per configuration at each size,
    // as the one-pass-per-size schedule did.
    let points = cache_size_points();
    let sizes = points.len() as u64;
    let fig_3_6 = counted(|| {
        victim_geometry::run(&cfg, GeometryAxis::CacheSize, &points);
    });
    assert_eq!(fig_3_6, sizes * (1 + VC_ENTRIES.len() as u64) * data);
    let fig_4_6 = counted(|| {
        stream_geometry::run(&cfg, GeometryAxis::CacheSize, &points);
    });
    assert_eq!(fig_4_6, sizes * (1 + 2) * refs);
}
