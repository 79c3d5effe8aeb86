//! Figure 3-1: percentage of direct-mapped cache misses due to conflicts.

use jouppi_cache::{CacheGeometry, DirectMappedSweep, MissBreakdown, MissClassifier};
use jouppi_report::{percent, Table};
use jouppi_trace::{SideView, BASE_LINE_SIZE};
use jouppi_workloads::Benchmark;

use crate::common::{
    average, baseline_l1, note_refs_simulated, record_traces, ExperimentConfig, Side,
};
use crate::sweep;

/// Per-benchmark conflict-miss fractions for 4KB I and D caches.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig31 {
    /// `(benchmark, instruction breakdown, data breakdown)`.
    pub rows: Vec<(Benchmark, MissBreakdown, MissBreakdown)>,
}

/// Classifies every benchmark's baseline misses.
///
/// The 12 (benchmark × side) cells fan over the sweep engine (small
/// traces run sequentially — see [`sweep::map_jobs_sized`]); rows are
/// assembled in benchmark order regardless of completion order. Each
/// cell equals [`crate::common::classify_side`], the per-cell oracle.
pub fn run(cfg: &ExperimentConfig) -> Fig31 {
    let geom = baseline_l1();
    let traces = record_traces(cfg);
    let jobs = traces.len() * 2;
    let total: u64 = traces.iter().map(|(_, t)| t.len() as u64).sum();
    let cells = sweep::map_jobs_sized(jobs, total / jobs as u64, |job| {
        let (_, trace) = &traces[job / 2];
        classify_by_id(Side::BOTH[job % 2].view(trace), geom)
    });
    let rows = traces
        .iter()
        .enumerate()
        .map(|(i, (b, _))| (*b, cells[2 * i], cells[2 * i + 1]))
        .collect();
    Fig31 { rows }
}

/// One side's three-C breakdown at a direct-mapped geometry of the base
/// line size: the L1 runs on the tag array ([`DirectMappedSweep`] with
/// one size), and the classifier indexes its shadow by the side's
/// memoized line ids, so no reference is hashed. Both read one entry per
/// run of repeats, which hit and change nothing.
fn classify_by_id(view: &SideView, geom: CacheGeometry) -> MissBreakdown {
    assert_eq!(
        geom.line_size(),
        BASE_LINE_SIZE,
        "line ids are memoized at the base line size"
    );
    let mut l1 = DirectMappedSweep::new(&[geom]);
    let mut classifier = MissClassifier::new(geom);
    for run in view.runs() {
        classifier.observe_id(run.id, l1.access_line(run.line, |_, _| {}) > 0);
    }
    note_refs_simulated(view.len() as u64);
    classifier.breakdown()
}

/// [`run`] by the single-pass engine: one bounded
/// [`jouppi_cache::LruSweep`] per (benchmark, side) replaces the
/// classified simulator, reading the same three-C breakdown off two
/// stack depths — compulsory ⇔ first touch; a miss ⇔ cold or within-set
/// depth > ways; capacity ⇔ a non-cold miss whose *global* depth exceeds
/// the cache's line count (i.e. the classifier's fully-associative
/// shadow would also have missed); conflict otherwise. Both tests are
/// threshold tests, so the sweep resolves the global depth only up to
/// the line count and the within-set depth only up to the ways. Exactly
/// equal to [`run`] (pinned by the `single_pass_engine_matches_classifier`
/// test and the cross-crate equivalence suite); it stays as the
/// stack-depth oracle for the tag-array path.
pub fn run_single_pass(cfg: &ExperimentConfig) -> Fig31 {
    let geom = baseline_l1();
    let traces = record_traces(cfg);
    let jobs = traces.len() * 2;
    let total: u64 = traces.iter().map(|(_, t)| t.len() as u64).sum();
    let cells = sweep::map_jobs_sized(jobs, total / jobs as u64, |job| {
        let (_, trace) = &traces[job / 2];
        let side = Side::BOTH[job % 2];
        classify_side_single_pass(trace, side, geom)
    });
    let rows = traces
        .iter()
        .enumerate()
        .map(|(i, (b, _))| (*b, cells[2 * i], cells[2 * i + 1]))
        .collect();
    Fig31 { rows }
}

/// Three-C breakdown of one side via stack depths (see
/// [`run_single_pass`]).
fn classify_side_single_pass(
    trace: &jouppi_trace::RecordedTrace,
    side: Side,
    geom: jouppi_cache::CacheGeometry,
) -> MissBreakdown {
    let num_lines = geom.num_lines();
    let mut sweep_engine =
        jouppi_cache::LruSweep::bounded(&[(1, num_lines), (geom.num_sets(), geom.associativity())])
            .expect("baseline set counts are powers of two");
    let mut breakdown = MissBreakdown::new();
    let mut observe = |line| {
        let (cold, depths) = sweep_engine.observe_depths(line);
        let global_depth = u64::from(depths[0]);
        let set_depth = u64::from(depths[1]);
        if cold {
            breakdown.compulsory += 1;
        } else if set_depth > geom.associativity() {
            if global_depth > num_lines {
                breakdown.capacity += 1;
            } else {
                breakdown.conflict += 1;
            }
        }
    };
    let view = side.view(trace);
    for line in view.lines(geom.line_size()) {
        observe(line);
    }
    sweep::note_single_pass_refs(view.len() as u64);
    breakdown
}

impl Fig31 {
    /// Average fraction of instruction misses due to conflicts (the paper
    /// reports 29%).
    pub fn avg_instr_conflict_fraction(&self) -> f64 {
        average(
            &self
                .rows
                .iter()
                .map(|(_, i, _)| i.conflict_fraction())
                .collect::<Vec<_>>(),
        )
    }

    /// Average fraction of data misses due to conflicts (the paper
    /// reports 39%).
    pub fn avg_data_conflict_fraction(&self) -> f64 {
        average(
            &self
                .rows
                .iter()
                .map(|(_, _, d)| d.conflict_fraction())
                .collect::<Vec<_>>(),
        )
    }

    /// The benchmark with the highest data conflict fraction (the paper:
    /// `met`, "by far the highest").
    pub fn highest_data_conflict(&self) -> Benchmark {
        self.rows
            .iter()
            .max_by(|a, b| a.2.conflict_fraction().total_cmp(&b.2.conflict_fraction()))
            .expect("six benchmarks")
            .0
    }

    /// Renders the per-benchmark conflict percentages.
    pub fn render(&self) -> String {
        let mut t = Table::new(["program", "I-conflict %", "D-conflict %"]);
        for (b, i, d) in &self.rows {
            t.row([
                b.name().to_owned(),
                percent(i.conflict_fraction()),
                percent(d.conflict_fraction()),
            ]);
        }
        t.row([
            "average".to_owned(),
            percent(self.avg_instr_conflict_fraction()),
            percent(self.avg_data_conflict_fraction()),
        ]);
        format!(
            "Figure 3-1: conflict misses, 4KB I and D caches, 16B lines (paper avg: 29% I, 39% D)\n{t}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_fractions_match_paper_shape() {
        let cfg = ExperimentConfig::with_scale(80_000);
        let f = run(&cfg);
        // Paper: on average 39% of data misses and 29% of instruction
        // misses are conflicts; allow generous bands.
        let d = f.avg_data_conflict_fraction();
        let i = f.avg_instr_conflict_fraction();
        assert!((0.2..0.65).contains(&d), "data conflict avg {d}");
        assert!((0.1..0.5).contains(&i), "instr conflict avg {i}");
        // met has by far the highest data conflict ratio.
        assert_eq!(f.highest_data_conflict(), Benchmark::Met);
        assert!(f.render().contains("average"));
    }

    #[test]
    fn single_pass_engine_matches_classifier() {
        // Exact equality, not approximation: the Mattson-engine rework
        // and the id-indexed classifier on the tag array must reproduce
        // the classifying simulator's breakdowns bit for bit.
        let cfg = ExperimentConfig::with_scale(30_000);
        let f = run(&cfg);
        assert_eq!(f, run_single_pass(&cfg));
        let traces = record_traces(&cfg);
        for ((b, i, d), (_, trace)) in f.rows.iter().zip(traces.iter()) {
            let oracle = |side| crate::common::classify_side(trace, side, baseline_l1()).1;
            assert_eq!(*i, oracle(Side::Instruction), "{b} instruction side");
            assert_eq!(*d, oracle(Side::Data), "{b} data side");
        }
    }

    #[test]
    fn breakdowns_partition() {
        let cfg = ExperimentConfig::with_scale(30_000);
        let f = run(&cfg);
        for (b, i, d) in &f.rows {
            assert!(i.total() > 0 || d.total() > 0, "{b} had no misses at all");
            assert_eq!(
                i.total(),
                i.compulsory + i.capacity + i.conflict,
                "partition broken"
            );
            let _ = d;
        }
    }
}
