//! Filter-then-fan-out must be bit-identical to per-reference simulation.
//!
//! The augmented sweeps run the L1 once per (benchmark, side, geometry),
//! or once per (benchmark, side) for every size on the cache-size axis.
//! They log its misses and answer every configuration from that log: by
//! a stack pass for LRU victim caches and for miss caches, by a replay
//! for everything else. These tests pin both levels to the per-reference
//! oracle, `run_side`:
//!
//! * every `AugmentedStats` field, for every configuration class the
//!   miss handler serves, on 16B lines (pre-derived), 32B and 64B lines
//!   (derived from byte addresses) and a 2-way L1;
//! * the result structs of all eight paper sweeps built on the log —
//!   Figures 3-3, 3-5, 4-3 and 4-5 against their `run_per_cell`, and
//!   Figures 3-6, 3-7, 4-6 and 4-7 against a per-cell recomputation here,
//!   with Figures 3-6 and 4-6 also on cache sizes out of order.

use jouppi_cache::{CacheGeometry, ReplacementPolicy};
use jouppi_core::{AugmentedConfig, StreamBufferConfig};
use jouppi_experiments::common::{
    average, baseline_l1, classify_side, fan_out, log_side, pct_of_conflicts_removed,
    pct_of_misses_removed, per_benchmark, record_traces, run_side, ExperimentConfig, Side,
};
use jouppi_experiments::stream_geometry::{self, StreamGeometrySweep};
use jouppi_experiments::victim_geometry::{
    self, cache_size_points, line_size_points, GeometryAxis, VictimGeometrySweep, VC_ENTRIES,
};
use jouppi_experiments::{conflict_sweep, fig_3_1, stream_sweep};

fn smoke_cfg() -> ExperimentConfig {
    ExperimentConfig::with_scale(12_000)
}

/// Every configuration class, on one L1 geometry.
fn config_classes(geom: CacheGeometry) -> Vec<AugmentedConfig> {
    let base = AugmentedConfig::new(geom);
    let sb = StreamBufferConfig::new(4);
    let mut cfgs = vec![
        base,
        base.victim_cache(4).victim_policy(ReplacementPolicy::Fifo),
        base.victim_cache(4)
            .victim_policy(ReplacementPolicy::Random),
        base.stream_buffer(sb),
        base.multi_way_stream_buffer(4, sb.max_run(3)),
        base.strided_stream_buffer(4, sb, 8),
        base.multi_way_stream_buffer(4, sb.latency(20)),
        base.victim_cache(4).multi_way_stream_buffer(4, sb),
        base.miss_cache(2).stream_buffer(sb.latency(5)),
    ];
    // LRU victim caches and miss caches: answered by the stack passes.
    cfgs.extend((1..=16).map(|n| base.victim_cache(n)));
    cfgs.extend((1..=8).map(|n| base.miss_cache(n)));
    cfgs
}

fn assert_log_matches_run_side(geom: CacheGeometry) {
    let cfgs = config_classes(geom);
    for (b, trace) in record_traces(&smoke_cfg()).iter() {
        for side in Side::BOTH {
            let log = log_side(trace, side, geom);
            for (cfg, stats) in cfgs.iter().zip(fan_out(&log, &cfgs)) {
                let oracle = run_side(trace, side, *cfg);
                assert_eq!(stats, oracle, "{b} {side:?} {cfg:?}: fan-out");
                assert_eq!(log.replay(cfg), oracle, "{b} {side:?} {cfg:?}: replay");
            }
        }
    }
}

#[test]
fn every_config_class_matches_on_pre_derived_16b_lines() {
    assert_log_matches_run_side(baseline_l1());
}

#[test]
fn every_config_class_matches_on_32b_and_64b_lines() {
    for line in [32, 64] {
        assert_log_matches_run_side(CacheGeometry::direct_mapped(4096, line).unwrap());
    }
}

#[test]
fn every_config_class_matches_on_a_two_way_l1() {
    assert_log_matches_run_side(CacheGeometry::new(4096, 16, 2).unwrap());
}

#[test]
fn miss_cache_sweep_equals_per_cell() {
    let cfg = smoke_cfg();
    let m = conflict_sweep::Mechanism::MissCache;
    assert_eq!(
        conflict_sweep::run(&cfg, m, 15),
        conflict_sweep::run_per_cell(&cfg, m, 15)
    );
}

#[test]
fn victim_cache_sweep_equals_per_cell() {
    let cfg = smoke_cfg();
    let m = conflict_sweep::Mechanism::VictimCache;
    assert_eq!(
        conflict_sweep::run(&cfg, m, 15),
        conflict_sweep::run_per_cell(&cfg, m, 15)
    );
}

#[test]
fn stream_sweeps_equal_per_cell() {
    let cfg = smoke_cfg();
    for ways in [1, 4] {
        assert_eq!(
            stream_sweep::run(&cfg, ways, 16),
            stream_sweep::run_per_cell(&cfg, ways, 16),
            "{ways}-way"
        );
    }
}

fn axis_geometry(axis: GeometryAxis, point: u64) -> CacheGeometry {
    match axis {
        GeometryAxis::CacheSize => CacheGeometry::direct_mapped(point, 16),
        GeometryAxis::LineSize => CacheGeometry::direct_mapped(4096, point),
    }
    .unwrap()
}

fn axis_points(axis: GeometryAxis) -> Vec<u64> {
    match axis {
        GeometryAxis::CacheSize => cache_size_points(),
        GeometryAxis::LineSize => line_size_points(),
    }
}

/// Cache sizes out of order and repeated: the one-pass engine walks them
/// sorted and deduplicated, and must still answer each point in place.
const UNSORTED_SIZES: [u64; 5] = [16 << 10, 1024, 128 << 10, 4096, 1024];

/// Figures 3-6/3-7, one classification and one replay per cell.
fn victim_geometry_per_cell(
    cfg: &ExperimentConfig,
    axis: GeometryAxis,
    points: &[u64],
) -> VictimGeometrySweep {
    let mut removed = vec![vec![Vec::new(); points.len()]; VC_ENTRIES.len()];
    let mut conflict_pct = vec![Vec::new(); points.len()];
    per_benchmark(cfg, |_, trace| {
        for (p, &point) in points.iter().enumerate() {
            let geom = axis_geometry(axis, point);
            let (misses, breakdown) = classify_side(trace, Side::Data, geom);
            conflict_pct[p].push(if misses == 0 {
                0.0
            } else {
                100.0 * breakdown.conflict as f64 / misses as f64
            });
            for (e, &entries) in VC_ENTRIES.iter().enumerate() {
                let cell = AugmentedConfig::new(geom).victim_cache(entries);
                let stats = run_side(trace, Side::Data, cell);
                removed[e][p].push(pct_of_conflicts_removed(
                    stats.removed_misses(),
                    breakdown.conflict,
                ));
            }
        }
    });
    let avg = |v: &Vec<Vec<f64>>| v.iter().map(|x| average(x)).collect::<Vec<_>>();
    VictimGeometrySweep {
        axis,
        points: points.to_vec(),
        removed: removed.iter().map(avg).collect(),
        conflict_pct: avg(&conflict_pct),
    }
}

/// Figures 4-6/4-7, one classification and one replay per cell.
fn stream_geometry_per_cell(
    cfg: &ExperimentConfig,
    axis: GeometryAxis,
    points: &[u64],
) -> StreamGeometrySweep {
    let series = [
        (1, Side::Instruction),
        (1, Side::Data),
        (4, Side::Instruction),
        (4, Side::Data),
    ];
    let mut acc = vec![vec![Vec::new(); points.len()]; series.len()];
    per_benchmark(cfg, |_, trace| {
        for (p, &point) in points.iter().enumerate() {
            let geom = axis_geometry(axis, point);
            for (s, &(ways, side)) in series.iter().enumerate() {
                let (misses, _) = classify_side(trace, side, geom);
                let cell = AugmentedConfig::new(geom)
                    .multi_way_stream_buffer(ways, StreamBufferConfig::new(4));
                let stats = run_side(trace, side, cell);
                acc[s][p].push(pct_of_misses_removed(stats.removed_misses(), misses));
            }
        }
    });
    let avg = |s: usize| acc[s].iter().map(|x| average(x)).collect::<Vec<_>>();
    StreamGeometrySweep {
        axis,
        points: points.to_vec(),
        single_instr: avg(0),
        single_data: avg(1),
        multi_instr: avg(2),
        multi_data: avg(3),
    }
}

#[test]
fn victim_geometry_sweeps_equal_per_cell_recomputation() {
    let cfg = smoke_cfg();
    for axis in [GeometryAxis::CacheSize, GeometryAxis::LineSize] {
        let points = axis_points(axis);
        assert_eq!(
            victim_geometry::run(&cfg, axis, &points),
            victim_geometry_per_cell(&cfg, axis, &points),
            "{axis:?}"
        );
    }
    let axis = GeometryAxis::CacheSize;
    assert_eq!(
        victim_geometry::run(&cfg, axis, &UNSORTED_SIZES),
        victim_geometry_per_cell(&cfg, axis, &UNSORTED_SIZES),
        "unsorted sizes"
    );
}

#[test]
fn stream_geometry_sweeps_equal_per_cell_recomputation() {
    let cfg = smoke_cfg();
    for axis in [GeometryAxis::CacheSize, GeometryAxis::LineSize] {
        let points = axis_points(axis);
        assert_eq!(
            stream_geometry::run(&cfg, axis, &points),
            stream_geometry_per_cell(&cfg, axis, &points),
            "{axis:?}"
        );
    }
    let axis = GeometryAxis::CacheSize;
    assert_eq!(
        stream_geometry::run(&cfg, axis, &UNSORTED_SIZES),
        stream_geometry_per_cell(&cfg, axis, &UNSORTED_SIZES),
        "unsorted sizes"
    );
}

#[test]
fn fig_3_1_is_stable_across_repeat_runs() {
    // fig_3_1 is classification-only; repeated runs share the memoized
    // trace set and must agree exactly.
    let cfg = smoke_cfg();
    assert_eq!(fig_3_1::run(&cfg), fig_3_1::run(&cfg));
}
