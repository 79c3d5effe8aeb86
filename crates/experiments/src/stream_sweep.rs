//! Figures 4-3 and 4-5: stream-buffer miss removal as a function of the
//! allowed stream-run length.

use jouppi_core::{AugmentedConfig, StreamBufferConfig};
use jouppi_report::{Chart, Series, Table};
use jouppi_workloads::Benchmark;

use crate::common::{
    average, baseline_l1, classify_side, fan_out, log_side, pct_of_misses_removed, record_traces,
    refs_per_side, run_side, ExperimentConfig, Side,
};
use crate::sweep;

/// One benchmark's cumulative miss-removal curves.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchStream {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// `instr[l]` = % of I-cache misses removed with run length `l`.
    pub instr: Vec<f64>,
    /// Same for the data cache.
    pub data: Vec<f64>,
}

/// A stream-buffer run-length sweep (Figure 4-3 single, 4-5 four-way).
#[derive(Clone, Debug, PartialEq)]
pub struct StreamSweep {
    /// Number of parallel stream-buffer ways (1 or 4).
    pub ways: usize,
    /// Run lengths measured: `0..=max`.
    pub run_lengths: Vec<usize>,
    /// Per-benchmark curves.
    pub benchmarks: Vec<BenchStream>,
}

fn config(ways: usize, run: usize) -> AugmentedConfig {
    let sb = StreamBufferConfig::new(4).max_run(run);
    let base = AugmentedConfig::new(baseline_l1());
    if ways == 1 {
        base.stream_buffer(sb)
    } else {
        base.multi_way_stream_buffer(ways, sb)
    }
}

/// Runs the sweep for run lengths `0..=max_run` with `ways` parallel
/// buffers, filter-then-fan-out.
///
/// The unit of scheduled work is one (benchmark × side) cell: one L1
/// pass records that side's miss log, whose length is the total-miss
/// denominator, then [`fan_out`] answers every run length from the log:
/// a single buffer from one scan of its sequential chains, a multi-way
/// buffer by one replay per run length. Results are bit-identical to
/// [`run_per_cell`] (pinned by the `miss_log_equivalence` test).
pub fn run(cfg: &ExperimentConfig, ways: usize, max_run: usize) -> StreamSweep {
    let geom = baseline_l1();
    let traces = record_traces(cfg);
    let cfgs: Vec<_> = (0..=max_run).map(|run| config(ways, run)).collect();
    // A cell costs its L1 pass plus its fan-out: a single buffer's chain
    // scan is a small fraction of that pass, and a multi-way buffer's
    // replays, one per run length, add up to about one more pass at the
    // paper's miss rates.
    let passes = if ways == 1 { 1 } else { 2 };
    let rows = sweep::map_jobs_sized(traces.len() * 2, passes * refs_per_side(&traces), |cell| {
        let (_, trace) = &traces[cell / 2];
        let log = log_side(trace, Side::BOTH[cell % 2], geom);
        fan_out(&log, &cfgs)
            .iter()
            .map(|stats| pct_of_misses_removed(stats.removed_misses(), log.l1_misses()))
            .collect::<Vec<_>>()
    });
    assemble(ways, max_run, &traces, |cell| rows[cell].clone())
}

/// Runs the sweep with one scheduled cell per (benchmark × side ×
/// run-length) simulation — the per-reference oracle [`run`] is checked
/// against.
pub fn run_per_cell(cfg: &ExperimentConfig, ways: usize, max_run: usize) -> StreamSweep {
    let geom = baseline_l1();
    let traces = record_traces(cfg);
    let sides = traces.len() * 2;
    let runs = max_run + 1;
    let misses = sweep::map_jobs(sides, |cell| {
        let (_, trace) = &traces[cell / 2];
        classify_side(trace, Side::BOTH[cell % 2], geom).0
    });
    let removed = sweep::map_jobs(sides * runs, |job| {
        let cell = job / runs;
        let (_, trace) = &traces[cell / 2];
        let stats = run_side(trace, Side::BOTH[cell % 2], config(ways, job % runs));
        pct_of_misses_removed(stats.removed_misses(), misses[cell])
    });
    assemble(ways, max_run, &traces, |cell| {
        removed[cell * runs..(cell + 1) * runs].to_vec()
    })
}

fn assemble(
    ways: usize,
    max_run: usize,
    traces: &[(Benchmark, jouppi_trace::RecordedTrace)],
    curve: impl Fn(usize) -> Vec<f64>,
) -> StreamSweep {
    let benchmarks = traces
        .iter()
        .enumerate()
        .map(|(i, (b, _))| BenchStream {
            benchmark: *b,
            instr: curve(2 * i),
            data: curve(2 * i + 1),
        })
        .collect();
    StreamSweep {
        ways,
        run_lengths: (0..=max_run).collect(),
        benchmarks,
    }
}

impl StreamSweep {
    /// Average % of instruction misses removed at a run length.
    pub fn avg_instr(&self, run: usize) -> f64 {
        self.avg(run, true)
    }

    /// Average % of data misses removed at a run length.
    pub fn avg_data(&self, run: usize) -> f64 {
        self.avg(run, false)
    }

    fn avg(&self, run: usize, instr: bool) -> f64 {
        match self.run_lengths.iter().position(|&l| l == run) {
            Some(idx) => average(
                &self
                    .benchmarks
                    .iter()
                    .map(|b| if instr { b.instr[idx] } else { b.data[idx] })
                    .collect::<Vec<_>>(),
            ),
            None => 0.0,
        }
    }

    /// Curve for one benchmark and side (for shape assertions).
    pub fn benchmark_curve(&self, benchmark: Benchmark, side: Side) -> Option<&[f64]> {
        self.benchmarks
            .iter()
            .find(|b| b.benchmark == benchmark)
            .map(|b| match side {
                Side::Instruction => b.instr.as_slice(),
                Side::Data => b.data.as_slice(),
            })
    }

    /// Renders the averaged chart plus per-benchmark end points.
    pub fn render(&self) -> String {
        let fig = if self.ways == 1 {
            "Figure 4-3: sequential stream buffer performance"
        } else {
            "Figure 4-5: four-way stream buffer performance"
        };
        let max = *self.run_lengths.last().expect("nonempty sweep");
        let mut t = Table::new(["program", "I-miss removed %", "D-miss removed %"]);
        for b in &self.benchmarks {
            t.row([
                b.benchmark.name().to_owned(),
                format!("{:.0}", b.instr[max]),
                format!("{:.0}", b.data[max]),
            ]);
        }
        t.row([
            "average".to_owned(),
            format!("{:.0}", self.avg_instr(max)),
            format!("{:.0}", self.avg_data(max)),
        ]);
        let to_points = |instr: bool| {
            self.run_lengths
                .iter()
                .map(|&l| {
                    (
                        l as f64,
                        if instr {
                            self.avg_instr(l)
                        } else {
                            self.avg_data(l)
                        },
                    )
                })
                .collect()
        };
        let chart = Chart::new(format!("{fig} (cumulative, avg of 6 benchmarks)"), 60, 16)
            .y_range(0.0, 100.0)
            .series(Series::new("L1 I-cache", 'I', to_points(true)))
            .series(Series::new("L1 D-cache", 'D', to_points(false)));
        format!(
            "{fig}\nat max run length {max}:\n{}\n{}",
            t.render(),
            chart.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_buffer_favors_instruction_streams() {
        let cfg = ExperimentConfig::with_scale(60_000);
        let s = run(&cfg, 1, 8);
        // Paper: single buffer removes 72% of I-misses but only 25% of
        // D-misses; the ordering is the load-bearing claim.
        let i = s.avg_instr(8);
        let d = s.avg_data(8);
        assert!(i > d, "I {i} should exceed D {d}");
        assert!(i > 30.0, "I removal too weak: {i}");
    }

    #[test]
    fn four_way_roughly_doubles_data_removal() {
        let cfg = ExperimentConfig::with_scale(60_000);
        let single = run(&cfg, 1, 8);
        let multi = run(&cfg, 4, 8);
        let s = single.avg_data(8);
        let m = multi.avg_data(8);
        assert!(
            m > s * 1.3,
            "4-way data removal {m} should far exceed single {s}"
        );
        // Instruction side barely changes (paper: "virtually unchanged").
        let si = single.avg_instr(8);
        let mi = multi.avg_instr(8);
        assert!(
            (si - mi).abs() < 12.0,
            "I-side shifted too much: {si} vs {mi}"
        );
    }

    #[test]
    fn liver_gains_most_from_multi_way() {
        let cfg = ExperimentConfig::with_scale(60_000);
        let single = run(&cfg, 1, 8);
        let multi = run(&cfg, 4, 8);
        let s = single
            .benchmark_curve(Benchmark::Liver, Side::Data)
            .unwrap()[8];
        let m = multi.benchmark_curve(Benchmark::Liver, Side::Data).unwrap()[8];
        // Paper: liver goes from 7% to 60% removal.
        assert!(m > s + 20.0, "liver: 4-way {m} vs single {s}");
    }

    #[test]
    fn curves_are_cumulative_and_start_at_zero() {
        let cfg = ExperimentConfig::with_scale(30_000);
        let s = run(&cfg, 1, 4);
        for b in &s.benchmarks {
            assert_eq!(
                b.instr[0], 0.0,
                "{}: run 0 must remove nothing",
                b.benchmark
            );
            assert_eq!(b.data[0], 0.0);
            for w in b.instr.windows(2) {
                assert!(w[1] + 1.0 >= w[0], "non-monotone: {:?}", b.instr);
            }
        }
        assert!(s.render().contains("Figure 4-3"));
        assert_eq!(s.avg_instr(999), 0.0);
    }
}
