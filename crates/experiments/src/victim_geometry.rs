//! Figures 3-6 and 3-7: victim-cache effectiveness as the data cache's
//! size or line size varies.
//!
//! Every point takes its L1 misses from a [`MissLog`] and answers all
//! four victim-cache sizes from it by one stack pass. On the cache-size
//! axis one L1 pass per benchmark logs every size at once, and a
//! [`jouppi_cache::BandedShadow`] riding it classifies every size's
//! misses (see [`MissLog::record_sizes`]). The line-size axis has no such
//! inclusion, so each of its points takes a classified pass of its own.

use jouppi_cache::{CacheGeometry, MissBreakdown};
use jouppi_core::{AugmentedConfig, MissLog};
use jouppi_report::{Chart, Series, Table};

use crate::common::{
    average, fan_out, log_and_classify_side, log_and_classify_sizes, pct_of_conflicts_removed,
    per_benchmark, ExperimentConfig, Side,
};

/// Which geometry dimension a sweep varies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeometryAxis {
    /// Vary total data-cache size (Figure 3-6), 16B lines.
    CacheSize,
    /// Vary line size at 4KB (Figure 3-7).
    LineSize,
}

/// Victim-cache entry counts the paper plots.
pub const VC_ENTRIES: [usize; 4] = [1, 2, 4, 15];

/// A victim-cache geometry sweep (data side, averaged over benchmarks).
#[derive(Clone, Debug, PartialEq)]
pub struct VictimGeometrySweep {
    /// Which axis varies.
    pub axis: GeometryAxis,
    /// Axis values in bytes (cache sizes or line sizes).
    pub points: Vec<u64>,
    /// `removed[e][p]` = average % of conflict misses removed with
    /// `VC_ENTRIES[e]` entries at axis point `p`.
    pub removed: Vec<Vec<f64>>,
    /// Average % of all misses that are conflict misses at each point
    /// (the reference line in the paper's figures).
    pub conflict_pct: Vec<f64>,
}

/// The direct-mapped L1 at one axis point.
pub(crate) fn geometry(axis: GeometryAxis, point: u64) -> CacheGeometry {
    let (size, line) = match axis {
        GeometryAxis::CacheSize => (point, 16),
        GeometryAxis::LineSize => (4096, point),
    };
    CacheGeometry::direct_mapped(size, line).expect("sweep geometry is valid")
}

/// The distinct cache sizes among `points`, ascending, as one size-axis
/// pass walks them, and their geometries. Each point's log is at index
/// `sizes.binary_search(&point)`.
pub(crate) fn size_ladder(points: &[u64]) -> (Vec<u64>, Vec<CacheGeometry>) {
    let mut sizes = points.to_vec();
    sizes.sort_unstable();
    sizes.dedup();
    let geoms = sizes
        .iter()
        .map(|&size| geometry(GeometryAxis::CacheSize, size))
        .collect();
    (sizes, geoms)
}

/// Chart x-coordinate for an axis point: log2 of KB for cache sizes
/// (0 = 1KB), log2 of bytes for line sizes.
pub(crate) fn axis_chart_coord(axis: GeometryAxis, point: u64) -> f64 {
    match axis {
        GeometryAxis::CacheSize => (point as f64 / 1024.0).log2(),
        GeometryAxis::LineSize => (point as f64).log2(),
    }
}

/// Runs the sweep over the given axis points, in any order: one
/// classified L1 pass per benchmark on the cache-size axis, one per
/// (benchmark, point) on the line-size axis, with every victim-cache size
/// answered from each point's miss log by one stack pass.
pub fn run(cfg: &ExperimentConfig, axis: GeometryAxis, points: &[u64]) -> VictimGeometrySweep {
    // Accumulate per-benchmark percentages, then average.
    let mut removed_acc = vec![vec![Vec::new(); points.len()]; VC_ENTRIES.len()];
    let mut conflict_acc = vec![Vec::new(); points.len()];
    per_benchmark(cfg, |_, trace| {
        let mut cell = |p: usize, log: &MissLog, breakdown: MissBreakdown| {
            let misses = log.l1_misses();
            conflict_acc[p].push(if misses == 0 {
                0.0
            } else {
                100.0 * breakdown.conflict as f64 / misses as f64
            });
            let base = AugmentedConfig::new(*log.geometry());
            let cfgs = VC_ENTRIES.map(|entries| base.victim_cache(entries));
            for (e, stats) in fan_out(log, &cfgs).iter().enumerate() {
                removed_acc[e][p].push(pct_of_conflicts_removed(
                    stats.removed_misses(),
                    breakdown.conflict,
                ));
            }
        };
        match axis {
            GeometryAxis::CacheSize => {
                if points.is_empty() {
                    return;
                }
                let (sizes, geoms) = size_ladder(points);
                let (logs, shadow) = log_and_classify_sizes(trace, Side::Data, &geoms);
                for (p, point) in points.iter().enumerate() {
                    let i = sizes.binary_search(point).expect("every point is a size");
                    cell(p, &logs[i], shadow.breakdown(i));
                }
            }
            GeometryAxis::LineSize => {
                for (p, &point) in points.iter().enumerate() {
                    let (log, breakdown) =
                        log_and_classify_side(trace, Side::Data, geometry(axis, point));
                    cell(p, &log, breakdown);
                }
            }
        }
    });
    VictimGeometrySweep {
        axis,
        points: points.to_vec(),
        removed: removed_acc
            .into_iter()
            .map(|per_point| per_point.iter().map(|v| average(v)).collect())
            .collect(),
        conflict_pct: conflict_acc.iter().map(|v| average(v)).collect(),
    }
}

/// The paper's Figure 3-6 axis: 1KB through 128KB.
pub fn cache_size_points() -> Vec<u64> {
    (0..8).map(|i| 1024u64 << i).collect()
}

/// The paper's Figure 3-7 axis: 8B through 256B lines.
pub fn line_size_points() -> Vec<u64> {
    (3..=8).map(|i| 1u64 << i).collect()
}

impl VictimGeometrySweep {
    /// Average % removed for a given entry count and axis point.
    pub fn removed_at(&self, entries: usize, point: u64) -> f64 {
        let e = VC_ENTRIES.iter().position(|&x| x == entries);
        let p = self.points.iter().position(|&x| x == point);
        match (e, p) {
            (Some(e), Some(p)) => self.removed[e][p],
            _ => 0.0,
        }
    }

    /// Renders table plus chart.
    pub fn render(&self) -> String {
        let (fig, axis_name) = match self.axis {
            GeometryAxis::CacheSize => ("Figure 3-6", "cache size (KB)"),
            GeometryAxis::LineSize => ("Figure 3-7", "line size (B)"),
        };
        let mut header: Vec<String> = vec![axis_name.into()];
        header.extend(VC_ENTRIES.iter().map(|e| format!("{e}-entry VC")));
        header.push("% conflict misses".into());
        let mut t = Table::new(header);
        for (p, &point) in self.points.iter().enumerate() {
            let label = match self.axis {
                GeometryAxis::CacheSize => format!("{}", point / 1024),
                GeometryAxis::LineSize => format!("{point}"),
            };
            let mut row = vec![label];
            row.extend((0..VC_ENTRIES.len()).map(|e| format!("{:.0}", self.removed[e][p])));
            row.push(format!("{:.0}", self.conflict_pct[p]));
            t.row(row);
        }
        let mut chart = Chart::new(
            format!("{fig}: % data conflict misses removed vs {axis_name}"),
            60,
            16,
        )
        .y_range(0.0, 100.0);
        let markers = ['1', '2', '4', 'F'];
        for (e, &entries) in VC_ENTRIES.iter().enumerate() {
            let pts = self
                .points
                .iter()
                .enumerate()
                .map(|(p, &x)| (axis_chart_coord(self.axis, x), self.removed[e][p]))
                .collect();
            chart = chart.series(Series::new(
                format!("{entries}-entry victim cache"),
                markers[e],
                pts,
            ));
        }
        format!("{fig}\n{}\n{}", t.render(), chart.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_caches_benefit_most_from_victim_caching() {
        let cfg = ExperimentConfig::with_scale(50_000);
        let sweep = run(&cfg, GeometryAxis::CacheSize, &[1024, 4096, 32 << 10]);
        // Paper: "In general smaller direct-mapped caches benefit the most
        // from the addition of a victim cache."
        let small = sweep.removed_at(4, 1024);
        let large = sweep.removed_at(4, 32 << 10);
        assert!(
            small >= large - 10.0,
            "4-entry VC: 1KB {small} should (roughly) exceed 32KB {large}"
        );
        assert!(sweep.render().contains("Figure 3-6"));
    }

    #[test]
    fn bigger_victim_caches_remove_more() {
        let cfg = ExperimentConfig::with_scale(40_000);
        let sweep = run(&cfg, GeometryAxis::CacheSize, &[4096]);
        let one = sweep.removed_at(1, 4096);
        let four = sweep.removed_at(4, 4096);
        let fifteen = sweep.removed_at(15, 4096);
        assert!(one <= four + 1e-9 && four <= fifteen + 1e-9);
        assert!(fifteen > 0.0);
    }

    #[test]
    fn line_size_sweep_reports_conflict_growth() {
        let cfg = ExperimentConfig::with_scale(40_000);
        let sweep = run(&cfg, GeometryAxis::LineSize, &[16, 128]);
        // Paper: "as the line size increases, the number of conflict
        // misses also increases."
        assert!(
            sweep.conflict_pct[1] > sweep.conflict_pct[0] * 0.7,
            "conflict % at 128B ({}) vs 16B ({})",
            sweep.conflict_pct[1],
            sweep.conflict_pct[0]
        );
        assert!(sweep.render().contains("Figure 3-7"));
    }

    #[test]
    fn axis_point_helpers() {
        assert_eq!(
            cache_size_points(),
            vec![1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072]
        );
        assert_eq!(line_size_points(), vec![8, 16, 32, 64, 128, 256]);
        let cfg = ExperimentConfig::with_scale(10_000);
        let sweep = run(&cfg, GeometryAxis::CacheSize, &[4096]);
        assert_eq!(sweep.removed_at(3, 4096), 0.0); // unknown entry count
        assert_eq!(sweep.removed_at(4, 9999), 0.0); // unknown point
    }
}
