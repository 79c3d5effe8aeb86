//! Figures 4-6 and 4-7: stream-buffer effectiveness as the cache's size
//! or line size varies.
//!
//! Each point's [`MissLog`] answers both stream buffers: the single
//! buffer from one scan of the log's sequential chains
//! ([`MissLog::stream_run_sweep`]), the four-way buffer by a replay. On
//! the cache-size axis one L1 pass per (benchmark, side) logs every size
//! at once (see [`MissLog::record_sizes`]); the sweep holds one side's
//! logs at a time. The line-size axis has no such inclusion, so each of
//! its points takes an L1 pass of its own.

use jouppi_core::{AugmentedConfig, MissLog, StreamBufferConfig};
use jouppi_report::{Chart, Series, Table};

use crate::common::{
    average, fan_out, log_side, log_sizes, pct_of_misses_removed, per_benchmark, ExperimentConfig,
    Side,
};
use crate::victim_geometry::{axis_chart_coord, geometry, size_ladder, GeometryAxis};

/// A stream-buffer geometry sweep: four curves (single/4-way × I/D),
/// averaged over the six benchmarks.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamGeometrySweep {
    /// Which axis varies.
    pub axis: GeometryAxis,
    /// Axis values in bytes.
    pub points: Vec<u64>,
    /// Single buffer, instruction side: avg % misses removed per point.
    pub single_instr: Vec<f64>,
    /// Single buffer, data side.
    pub single_data: Vec<f64>,
    /// Four-way buffer, instruction side.
    pub multi_instr: Vec<f64>,
    /// Four-way buffer, data side.
    pub multi_data: Vec<f64>,
}

/// Runs the sweep over the given axis points, in any order. Stream
/// buffers are 4 entries deep with unlimited run length (the paper's
/// deployed configuration). Each (benchmark, side) takes one L1 pass on
/// the cache-size axis and one per point on the line-size axis; the
/// four-way buffer replays every point's miss log, and the single buffer
/// reads it from the log's chain scan.
pub fn run(cfg: &ExperimentConfig, axis: GeometryAxis, points: &[u64]) -> StreamGeometrySweep {
    // [series][point][bench], series = 2 × (4-way?) + (data side?).
    let mut acc = vec![vec![Vec::new(); points.len()]; 4];
    let sb = StreamBufferConfig::new(4);
    per_benchmark(cfg, |_, trace| {
        for (s, side) in Side::BOTH.into_iter().enumerate() {
            let mut cell = |p: usize, log: &MissLog| {
                let base = AugmentedConfig::new(*log.geometry());
                let cfgs = [base.stream_buffer(sb), base.multi_way_stream_buffer(4, sb)];
                for (w, stats) in fan_out(log, &cfgs).iter().enumerate() {
                    acc[2 * w + s][p].push(pct_of_misses_removed(
                        stats.removed_misses(),
                        log.l1_misses(),
                    ));
                }
            };
            match axis {
                GeometryAxis::CacheSize => {
                    let (sizes, geoms) = size_ladder(points);
                    let logs = log_sizes(trace, side, &geoms);
                    for (p, point) in points.iter().enumerate() {
                        let i = sizes.binary_search(point).expect("every point is a size");
                        cell(p, &logs[i]);
                    }
                }
                GeometryAxis::LineSize => {
                    for (p, &point) in points.iter().enumerate() {
                        cell(p, &log_side(trace, side, geometry(axis, point)));
                    }
                }
            }
        }
    });
    let mut series: Vec<Vec<f64>> = acc
        .into_iter()
        .map(|per_point| per_point.iter().map(|v| average(v)).collect())
        .collect();
    let multi_data = series.pop().expect("4 series");
    let multi_instr = series.pop().expect("4 series");
    let single_data = series.pop().expect("4 series");
    let single_instr = series.pop().expect("4 series");
    StreamGeometrySweep {
        axis,
        points: points.to_vec(),
        single_instr,
        single_data,
        multi_instr,
        multi_data,
    }
}

impl StreamGeometrySweep {
    /// Renders table plus chart.
    pub fn render(&self) -> String {
        let (fig, axis_name) = match self.axis {
            GeometryAxis::CacheSize => ("Figure 4-6", "cache size (KB)"),
            GeometryAxis::LineSize => ("Figure 4-7", "line size (B)"),
        };
        let mut t = Table::new([axis_name, "1-way I", "1-way D", "4-way I", "4-way D"]);
        for (p, &point) in self.points.iter().enumerate() {
            let label = match self.axis {
                GeometryAxis::CacheSize => format!("{}", point / 1024),
                GeometryAxis::LineSize => format!("{point}"),
            };
            t.row([
                label,
                format!("{:.0}", self.single_instr[p]),
                format!("{:.0}", self.single_data[p]),
                format!("{:.0}", self.multi_instr[p]),
                format!("{:.0}", self.multi_data[p]),
            ]);
        }
        let pts = |v: &[f64]| {
            self.points
                .iter()
                .enumerate()
                .map(|(p, &x)| (axis_chart_coord(self.axis, x), v[p]))
                .collect::<Vec<_>>()
        };
        let chart = Chart::new(
            format!("{fig}: % misses removed vs {axis_name} (log2 x-axis)"),
            60,
            16,
        )
        .y_range(0.0, 100.0)
        .series(Series::new("single, I-cache", 'i', pts(&self.single_instr)))
        .series(Series::new("single, D-cache", 'd', pts(&self.single_data)))
        .series(Series::new("4-way, I-cache", 'I', pts(&self.multi_instr)))
        .series(Series::new("4-way, D-cache", 'D', pts(&self.multi_data)));
        format!("{fig}\n{}\n{}", t.render(), chart.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_removal_is_stable_across_cache_sizes() {
        let cfg = ExperimentConfig::with_scale(50_000);
        let s = run(&cfg, GeometryAxis::CacheSize, &[1024, 16 << 10]);
        // Paper: "The instruction stream buffers have remarkably constant
        // performance over a wide range of cache sizes."
        let spread = (s.single_instr[0] - s.single_instr[1]).abs();
        assert!(spread < 30.0, "I-side spread too large: {spread}");
        assert!(s.render().contains("Figure 4-6"));
    }

    #[test]
    fn data_removal_falls_with_line_size() {
        let cfg = ExperimentConfig::with_scale(50_000);
        let s = run(&cfg, GeometryAxis::LineSize, &[8, 128]);
        // Paper: single data buffer falls ~6.8x from 8B to 128B lines;
        // 4-way falls ~4.5x. Assert a clear decline.
        assert!(
            s.single_data[0] > s.single_data[1] * 1.5,
            "single D: {} → {}",
            s.single_data[0],
            s.single_data[1]
        );
        assert!(
            s.multi_data[0] > s.multi_data[1],
            "4-way D: {} → {}",
            s.multi_data[0],
            s.multi_data[1]
        );
        assert!(s.render().contains("Figure 4-7"));
    }

    #[test]
    fn four_way_dominates_single_on_data() {
        let cfg = ExperimentConfig::with_scale(40_000);
        let s = run(&cfg, GeometryAxis::CacheSize, &[4096]);
        assert!(s.multi_data[0] + 1e-9 >= s.single_data[0]);
    }
}
