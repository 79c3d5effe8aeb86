//! Shared machinery for Figures 3-3 and 3-5: sweep the number of entries
//! in a fully-associative backing cache (miss cache or victim cache) and
//! measure what percentage of conflict misses it removes.

use jouppi_core::AugmentedConfig;
use jouppi_report::{Chart, Series, Table};
use jouppi_workloads::Benchmark;

use crate::common::{
    average, baseline_l1, classify_side, fan_out, log_and_classify_side, pct_of_conflicts_removed,
    record_traces, refs_per_side, run_side, ExperimentConfig, Side,
};
use crate::sweep;

/// Which §3 mechanism a sweep exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mechanism {
    /// The miss cache of §3.1 (loads the requested line).
    MissCache,
    /// The victim cache of §3.2 (loads the replacement victim).
    VictimCache,
}

impl Mechanism {
    fn label(self) -> &'static str {
        match self {
            Mechanism::MissCache => "miss cache",
            Mechanism::VictimCache => "victim cache",
        }
    }

    fn config(self, entries: usize) -> AugmentedConfig {
        let base = AugmentedConfig::new(baseline_l1());
        match self {
            Mechanism::MissCache => base.miss_cache(entries),
            Mechanism::VictimCache => base.victim_cache(entries),
        }
    }
}

/// One benchmark's sweep: percent of conflict misses removed per entry
/// count, for both cache sides.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSweep {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// `instr[n-1]` = % of I-cache conflict misses removed with `n`
    /// entries.
    pub instr: Vec<f64>,
    /// Same for the data cache.
    pub data: Vec<f64>,
}

/// A full conflict-removal sweep (Figure 3-3 or 3-5).
#[derive(Clone, Debug, PartialEq)]
pub struct ConflictSweep {
    /// The mechanism swept.
    pub mechanism: Mechanism,
    /// Entry counts measured (`1..=max`).
    pub entries: Vec<usize>,
    /// Per-benchmark curves.
    pub benchmarks: Vec<BenchSweep>,
}

/// Runs the sweep for entry counts `1..=max_entries`, filter-then-fan-out.
///
/// The unit of scheduled work is one (benchmark × side) cell: one L1
/// pass records that side's miss log and classifies its misses (the
/// conflict-miss denominator), then every entry count is answered from
/// the log by one stack pass ([`fan_out`]). Results are bit-identical to
/// [`run_per_cell`] (pinned by the `miss_log_equivalence` test).
pub fn run(cfg: &ExperimentConfig, mechanism: Mechanism, max_entries: usize) -> ConflictSweep {
    let geom = baseline_l1();
    let traces = record_traces(cfg);
    let cfgs: Vec<_> = (1..=max_entries).map(|n| mechanism.config(n)).collect();
    // A cell costs its L1 pass; the stack pass over its misses is small.
    let rows = sweep::map_jobs_sized(traces.len() * 2, refs_per_side(&traces), |cell| {
        let (_, trace) = &traces[cell / 2];
        let (log, breakdown) = log_and_classify_side(trace, Side::BOTH[cell % 2], geom);
        fan_out(&log, &cfgs)
            .iter()
            .map(|stats| pct_of_conflicts_removed(stats.removed_misses(), breakdown.conflict))
            .collect::<Vec<_>>()
    });
    assemble(mechanism, max_entries, &traces, |cell| rows[cell].clone())
}

/// Runs the sweep with one scheduled cell per (benchmark × side ×
/// entry-count) simulation — the per-reference oracle [`run`] is
/// checked against.
pub fn run_per_cell(
    cfg: &ExperimentConfig,
    mechanism: Mechanism,
    max_entries: usize,
) -> ConflictSweep {
    let geom = baseline_l1();
    let traces = record_traces(cfg);
    let sides = traces.len() * 2;
    let conflicts = sweep::map_jobs(sides, |cell| {
        let (_, trace) = &traces[cell / 2];
        let (_, breakdown) = classify_side(trace, Side::BOTH[cell % 2], geom);
        breakdown.conflict
    });
    let removed = sweep::map_jobs(sides * max_entries, |job| {
        let cell = job / max_entries;
        let entries = 1 + job % max_entries;
        let (_, trace) = &traces[cell / 2];
        let stats = run_side(trace, Side::BOTH[cell % 2], mechanism.config(entries));
        pct_of_conflicts_removed(stats.removed_misses(), conflicts[cell])
    });
    assemble(mechanism, max_entries, &traces, |cell| {
        removed[cell * max_entries..(cell + 1) * max_entries].to_vec()
    })
}

fn assemble(
    mechanism: Mechanism,
    max_entries: usize,
    traces: &[(Benchmark, jouppi_trace::RecordedTrace)],
    curve: impl Fn(usize) -> Vec<f64>,
) -> ConflictSweep {
    let benchmarks = traces
        .iter()
        .enumerate()
        .map(|(i, (b, _))| BenchSweep {
            benchmark: *b,
            instr: curve(2 * i),
            data: curve(2 * i + 1),
        })
        .collect();
    ConflictSweep {
        mechanism,
        entries: (1..=max_entries).collect(),
        benchmarks,
    }
}

impl ConflictSweep {
    /// Average (equal-weight across benchmarks) percent of conflict misses
    /// removed with `entries` entries, instruction side.
    pub fn avg_instr(&self, entries: usize) -> f64 {
        self.avg(entries, true)
    }

    /// Average percent of conflict misses removed, data side.
    pub fn avg_data(&self, entries: usize) -> f64 {
        self.avg(entries, false)
    }

    fn avg(&self, entries: usize, instr: bool) -> f64 {
        let idx = match self.entries.iter().position(|&e| e == entries) {
            Some(i) => i,
            None => return 0.0,
        };
        average(
            &self
                .benchmarks
                .iter()
                .map(|b| if instr { b.instr[idx] } else { b.data[idx] })
                .collect::<Vec<_>>(),
        )
    }

    /// The averaged curves as chart series (I and D).
    pub fn chart(&self) -> Chart {
        let to_points = |instr: bool| {
            self.entries
                .iter()
                .map(|&n| {
                    (
                        n as f64,
                        if instr {
                            self.avg_instr(n)
                        } else {
                            self.avg_data(n)
                        },
                    )
                })
                .collect()
        };
        Chart::new(
            format!(
                "conflict misses removed by {} (avg of 6 benchmarks)",
                self.mechanism.label()
            ),
            60,
            16,
        )
        .y_range(0.0, 100.0)
        .series(Series::new("L1 I-cache", 'I', to_points(true)))
        .series(Series::new("L1 D-cache", 'D', to_points(false)))
    }

    /// Renders the per-benchmark table plus the averaged chart.
    pub fn render(&self) -> String {
        let fig = match self.mechanism {
            Mechanism::MissCache => "Figure 3-3",
            Mechanism::VictimCache => "Figure 3-5",
        };
        let mut header: Vec<String> = vec!["program/side".into()];
        header.extend(self.entries.iter().map(|n| format!("{n}")));
        let mut t = Table::new(header);
        for b in &self.benchmarks {
            let mut row_i: Vec<String> = vec![format!("{} I", b.benchmark.name())];
            row_i.extend(b.instr.iter().map(|v| format!("{v:.0}")));
            t.row(row_i);
            let mut row_d: Vec<String> = vec![format!("{} D", b.benchmark.name())];
            row_d.extend(b.data.iter().map(|v| format!("{v:.0}")));
            t.row(row_d);
        }
        format!(
            "{fig}: % conflict misses removed by {} vs entries\n{}\n{}",
            self.mechanism.label(),
            t.render(),
            self.chart().render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig::with_scale(60_000)
    }

    #[test]
    fn victim_cache_dominates_miss_cache() {
        let cfg = small_cfg();
        let mc = run(&cfg, Mechanism::MissCache, 4);
        let vc = run(&cfg, Mechanism::VictimCache, 4);
        // §3.2: "Victim caching is always an improvement over miss
        // caching" — check the averaged curves at every size.
        for &n in &[1usize, 2, 4] {
            assert!(
                vc.avg_data(n) + 1e-9 >= mc.avg_data(n),
                "entries={n}: VC {} < MC {}",
                vc.avg_data(n),
                mc.avg_data(n)
            );
        }
        // One-entry victim caches are useful; one-entry miss caches are
        // nearly useless (only stale-data rescue, typically ~0).
        assert!(vc.avg_data(1) > mc.avg_data(1) + 5.0);
    }

    #[test]
    fn miss_cache_matches_paper_magnitudes() {
        let cfg = small_cfg();
        let mc = run(&cfg, Mechanism::MissCache, 4);
        // Paper: 2 entries remove ~25% of data conflict misses, 4 entries
        // ~36%. Allow wide bands for the synthetic workloads.
        let two = mc.avg_data(2);
        let four = mc.avg_data(4);
        assert!((10.0..55.0).contains(&two), "2-entry avg {two}");
        assert!(four >= two, "more entries can't hurt");
        // Data side benefits much more than the instruction side.
        assert!(mc.avg_data(2) > mc.avg_instr(2));
    }

    #[test]
    fn curves_are_monotone_in_entries() {
        let cfg = ExperimentConfig::with_scale(40_000);
        let vc = run(&cfg, Mechanism::VictimCache, 5);
        for b in &vc.benchmarks {
            for w in b.data.windows(2) {
                assert!(w[1] + 1.0 >= w[0], "{}: {:?}", b.benchmark, b.data);
            }
        }
    }

    #[test]
    fn render_contains_chart_and_rows() {
        let cfg = ExperimentConfig::with_scale(20_000);
        let vc = run(&cfg, Mechanism::VictimCache, 2);
        let text = vc.render();
        assert!(text.contains("Figure 3-5"));
        assert!(text.contains("ccom I"));
        assert!(text.contains("L1 D-cache"));
    }
}
