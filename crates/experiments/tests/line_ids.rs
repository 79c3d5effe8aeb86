//! Line ids memoized with a trace answer exactly what lines do.
//!
//! The geometry grid, Figure 3-1, the three-C logs and the working-set
//! curves feed their engines the ids each [`jouppi_trace::SideView`]
//! interns once at set-up. Callers that hold only lines (the CLI, the
//! daemon, `jouppi-stat`) feed the same engines lines, which they intern
//! as they arrive. On every benchmark's real trace, both sides, every
//! engine must count the same either way.

use jouppi_cache::{
    BandedShadow, CacheGeometry, DirectMappedSweep, FifoSweep, LruSweep, MissClassifier,
};
use jouppi_experiments::common::{baseline_l1, record_traces, ExperimentConfig, Side};
use jouppi_experiments::{ext_working_set, single_pass};
use jouppi_trace::SideView;

fn configs() -> [ExperimentConfig; 2] {
    [
        ExperimentConfig::with_scale(20_000),
        ExperimentConfig {
            seed: 7,
            ..ExperimentConfig::with_scale(12_000)
        },
    ]
}

/// `(id, line)` per reference of a side, in trace order.
fn refs(view: &SideView) -> impl Iterator<Item = (u32, jouppi_trace::LineAddr)> + '_ {
    let lines = view.lines_for(16).expect("16B lines are pre-derived");
    view.ids().iter().copied().zip(lines.iter().copied())
}

#[test]
fn grid_engines_count_the_same_fed_ids_or_lines() {
    let cells: Vec<(u64, u64)> = single_pass::grid()
        .iter()
        .map(|g| (g.num_sets(), g.associativity()))
        .collect();
    let set_counts: Vec<u64> = cells.iter().map(|&(s, _)| s).collect();
    for cfg in configs() {
        for (b, trace) in record_traces(&cfg).iter() {
            for side in Side::BOTH {
                let view = side.view(trace);
                let mut by_id = (
                    LruSweep::bounded(&cells).expect("grid cells are valid"),
                    FifoSweep::new(&cells).expect("grid cells are valid"),
                    LruSweep::for_set_counts(&set_counts).expect("powers of two"),
                );
                let mut by_line = by_id.clone();
                for (id, line) in refs(view) {
                    by_id.0.observe_id(id, line);
                    by_id.1.observe_id(id, line);
                    by_id.2.observe_id(id, line);
                    by_line.0.observe(line);
                    by_line.1.observe(line);
                    by_line.2.observe(line);
                }
                for &(sets, assoc) in &cells {
                    let at = format!("{cfg:?} {b} {side:?} {sets}x{assoc}");
                    let lru = by_line.2.misses(sets, assoc);
                    assert_eq!(by_id.0.misses(sets, assoc), lru, "{at}");
                    assert_eq!(by_line.0.misses(sets, assoc), lru, "{at}");
                    assert_eq!(by_id.2.misses(sets, assoc), lru, "{at}");
                    assert_eq!(
                        by_id.1.misses(sets, assoc),
                        by_line.1.misses(sets, assoc),
                        "{at}"
                    );
                }
                assert_eq!(by_id.0.distinct_lines(), view.lines_by_id().len());
            }
        }
    }
}

#[test]
fn classifiers_count_the_same_fed_ids_or_lines() {
    let baseline = baseline_l1();
    let sizes = ext_working_set::SIZES
        .map(|size| CacheGeometry::direct_mapped(size, 16).expect("valid size"));
    for cfg in configs() {
        for (b, trace) in record_traces(&cfg).iter() {
            for side in Side::BOTH {
                let view = side.view(trace);
                let mut l1 = DirectMappedSweep::new(&[baseline]);
                let mut l1s = DirectMappedSweep::new(&sizes);
                let mut classifiers =
                    (MissClassifier::new(baseline), MissClassifier::new(baseline));
                let mut shadows = (BandedShadow::new(&sizes), BandedShadow::new(&sizes));
                for (id, line) in refs(view) {
                    let missed = l1.access_line(line, |_, _| {}) > 0;
                    assert_eq!(
                        classifiers.0.observe_id(id, missed),
                        classifiers.1.observe(line, missed),
                        "{cfg:?} {b} {side:?}"
                    );
                    let missed = l1s.access_line(line, |_, _| {});
                    shadows.0.observe_id(id, missed);
                    shadows.1.observe(line, missed);
                }
                let at = format!("{cfg:?} {b} {side:?}");
                assert_eq!(classifiers.0.breakdown(), classifiers.1.breakdown(), "{at}");
                assert_eq!(classifiers.0.distinct_lines(), view.lines_by_id().len());
                for size in 0..sizes.len() {
                    assert_eq!(shadows.0.breakdown(size), shadows.1.breakdown(size), "{at}");
                    assert_eq!(shadows.0.fa_misses(size), shadows.1.fa_misses(size), "{at}");
                }
            }
        }
    }
}
