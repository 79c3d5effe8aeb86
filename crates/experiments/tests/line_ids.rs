//! Runs and line ids memoized with a trace answer exactly what lines do.
//!
//! The geometry grid, Figure 3-1, the three-C logs and the working-set
//! curves read each [`jouppi_trace::SideView`]'s runs: one entry per
//! stretch of consecutive references to one 16B line, with the line's id,
//! interned once at set-up. Callers that hold only lines (the CLI, the
//! daemon, `jouppi-stat`) feed the same engines every reference's line,
//! which they intern as it arrives. On every benchmark's real trace, both
//! sides, every engine must count the same either way, and the runs must
//! be exactly the side's references.

use jouppi_cache::{
    BandedShadow, CacheGeometry, DirectMappedSweep, FifoSweep, LruSweep, MissClassifier,
};
use jouppi_experiments::common::{baseline_l1, record_traces, ExperimentConfig, Side};
use jouppi_experiments::{ext_working_set, single_pass};
use jouppi_trace::{LineAddr, LineInterner, SideView};

fn configs() -> [ExperimentConfig; 2] {
    [
        ExperimentConfig::with_scale(20_000),
        ExperimentConfig {
            seed: 7,
            ..ExperimentConfig::with_scale(12_000)
        },
    ]
}

/// Every reference's 16B line, in trace order.
fn lines(view: &SideView) -> &[LineAddr] {
    view.lines_for(16).expect("16B lines are pre-derived")
}

#[test]
fn runs_are_the_references_of_every_benchmark_side() {
    for cfg in configs() {
        for (b, trace) in record_traces(&cfg).iter() {
            for side in Side::BOTH {
                let at = format!("{cfg:?} {b} {side:?}");
                let view = side.view(trace);
                let lines = lines(view);
                let lens: u64 = view.runs().map(|run| u64::from(run.len)).sum();
                assert_eq!(lens, view.len() as u64, "{at}");
                let mut run_lines = LineInterner::new();
                let (mut at_ref, mut previous) = (0, None);
                for (i, run) in view.runs().enumerate() {
                    let len = usize::from(run.len);
                    assert!(len > 0, "{at} run {i} is empty");
                    if let Some((line, len)) = previous {
                        assert!(
                            line != run.line || len == SideView::MAX_RUN_LEN,
                            "{at} run {i} repeats an unfilled run's line"
                        );
                    }
                    for (r, &line) in lines[at_ref..at_ref + len].iter().enumerate() {
                        assert_eq!(line, run.line, "{at} run {i} ref {}", at_ref + r);
                    }
                    assert_eq!(run_lines.intern(run.line), run.id, "{at} run {i}");
                    (at_ref, previous) = (at_ref + len, Some((run.line, run.len)));
                }
                assert_eq!(at_ref, lines.len(), "{at}");
                let mut every_line = LineInterner::new();
                for &line in lines {
                    every_line.intern(line);
                }
                assert_eq!(view.lines_by_id(), every_line.into_lines(), "{at}");
                assert_eq!(view.lines_by_id(), run_lines.into_lines(), "{at}");
            }
        }
    }
}

#[test]
fn grid_engines_count_the_same_fed_ids_or_lines() {
    let cells: Vec<(u64, u64)> = single_pass::grid()
        .iter()
        .map(|g| (g.num_sets(), g.associativity()))
        .collect();
    for cfg in configs() {
        // The per-cell `Cache` replays, one per (cell, policy).
        let oracle = single_pass::run_per_cell(&cfg);
        for (b, trace) in record_traces(&cfg).iter() {
            let row = oracle.row(*b).expect("every benchmark has a row");
            for side in Side::BOTH {
                let view = side.view(trace);
                let expected = match side {
                    Side::Instruction => &row.instr,
                    Side::Data => &row.data,
                };
                let mut by_run = (
                    LruSweep::bounded(&cells).expect("grid cells are valid"),
                    FifoSweep::new(&cells).expect("grid cells are valid"),
                );
                let mut by_line = by_run.clone();
                for run in view.runs() {
                    by_run.0.observe_id(run.id, run.line);
                    by_run.1.observe_id(run.id, run.line);
                }
                for &line in lines(view) {
                    by_line.0.observe(line);
                    by_line.1.observe(line);
                }
                for (&(sets, assoc), cell) in cells.iter().zip(expected) {
                    let at = format!("{cfg:?} {b} {side:?} {sets}x{assoc}");
                    let (lru, fifo) = (Some(cell.lru_misses), Some(cell.fifo_misses));
                    assert_eq!(by_run.0.misses(sets, assoc), lru, "{at}");
                    assert_eq!(by_line.0.misses(sets, assoc), lru, "{at}");
                    assert_eq!(by_run.1.misses(sets, assoc), fifo, "{at}");
                    assert_eq!(by_line.1.misses(sets, assoc), fifo, "{at}");
                }
                assert_eq!(by_run.0.distinct_lines(), view.lines_by_id().len());
                assert_eq!(by_line.0.total_refs(), view.len() as u64);
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
                let at = format!("{cfg:?} {b} {side:?}");
                let view = side.view(trace);
                let mut refs = lines(view).iter().copied();
                let mut l1 = (
                    DirectMappedSweep::new(&[baseline]),
                    DirectMappedSweep::new(&[baseline]),
                );
                let mut l1s = (
                    DirectMappedSweep::new(&sizes),
                    DirectMappedSweep::new(&sizes),
                );
                let mut classifiers =
                    (MissClassifier::new(baseline), MissClassifier::new(baseline));
                let mut shadows = (BandedShadow::new(&sizes), BandedShadow::new(&sizes));
                for run in view.runs() {
                    let missed = l1.0.access_line(run.line, |_, _| {}) > 0;
                    let class = classifiers.0.observe_id(run.id, missed);
                    shadows
                        .0
                        .observe_id(run.id, l1s.0.access_line(run.line, |_, _| {}));
                    // The run's first reference is classified as the run
                    // is; every repeat after it hits.
                    for (r, line) in refs.by_ref().take(usize::from(run.len)).enumerate() {
                        let missed = l1.1.access_line(line, |_, _| {}) > 0;
                        let expected = if r == 0 { class } else { None };
                        assert_eq!(classifiers.1.observe(line, missed), expected, "{at}");
                        shadows.1.observe(line, l1s.1.access_line(line, |_, _| {}));
                    }
                }
                assert_eq!(classifiers.0.breakdown(), classifiers.1.breakdown(), "{at}");
                assert_eq!(classifiers.0.distinct_lines(), view.lines_by_id().len());
                for size in 0..sizes.len() {
                    assert_eq!(shadows.0.breakdown(size), shadows.1.breakdown(size), "{at}");
                    assert_eq!(shadows.0.fa_misses(size), shadows.1.fa_misses(size), "{at}");
                }
                assert_eq!(shadows.0.accesses(), view.runs().len() as u64, "{at}");
                assert_eq!(shadows.1.accesses(), view.len() as u64, "{at}");
            }
        }
    }
}
