//! The multi-geometry sweep: exact miss counts for a full size ×
//! associativity × replacement-policy grid, one pass per (benchmark,
//! side).
//!
//! This is the sweep the single-pass engines exist for. [`run`] answers
//! all [`grid`] cells under both LRU and FIFO from **two** trace
//! traversals per (benchmark, side) — one [`LruSweep`] over all 40
//! cells (whose cost is independent of the number of cells) and one
//! [`FifoSweep`] over the 32 multi-way cells (whose cost scales with
//! misses, not cells). A one-way set has no replacement choice, so
//! FIFO and LRU miss alike there, and the eight direct-mapped cells
//! take their FIFO counts from the LRU sweep. [`grid_engines`] builds
//! the pair and [`grid_cells`] reads it, for this sweep and for
//! `jouppi-sim --geometry-sweep` alike. Both engines index their
//! per-line state by the side's memoized line ids, and read one entry
//! per run of repeats ([`SideView::runs`]). [`run_per_cell`] is the
//! demoted per-cell simulator, kept as the cross-check oracle: one
//! [`Cache`] replay per (cell × policy), FIFO at one way included,
//! exactly equal by the `single_pass_equivalence` test suite.

use jouppi_cache::{Cache, CacheGeometry, FifoSweep, LruSweep, ReplacementPolicy};
use jouppi_report::{rate, Table};
use jouppi_trace::{LineAddr, SideView};
use jouppi_workloads::Benchmark;

use crate::common::{record_traces, ExperimentConfig, Side};
use crate::sweep;

/// Line size of every grid cell (the paper's 16B baseline).
pub const LINE_SIZE: u64 = 16;

/// Cache sizes swept (bytes).
pub const SIZES: [u64; 8] = [
    1 << 10,
    2 << 10,
    4 << 10,
    8 << 10,
    16 << 10,
    32 << 10,
    64 << 10,
    128 << 10,
];

/// Associativities swept.
pub const ASSOCS: [u64; 5] = [1, 2, 4, 8, 16];

/// The swept geometry grid: every (size, associativity) combination
/// (all are valid — the smallest size holds 64 lines, more than the
/// widest associativity).
pub fn grid() -> Vec<CacheGeometry> {
    let mut cells = Vec::with_capacity(SIZES.len() * ASSOCS.len());
    for &size in &SIZES {
        for &assoc in &ASSOCS {
            cells.push(CacheGeometry::new(size, LINE_SIZE, assoc).expect("grid cell is valid"));
        }
    }
    cells
}

/// One geometry cell's exact miss counts under both policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GeometryCell {
    /// Cache size in bytes.
    pub size: u64,
    /// Associativity (ways).
    pub associativity: u64,
    /// Exact LRU misses.
    pub lru_misses: u64,
    /// Exact FIFO misses.
    pub fifo_misses: u64,
}

/// One benchmark's grids for both cache sides.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeometryRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Instruction references replayed.
    pub instr_refs: u64,
    /// Data references replayed.
    pub data_refs: u64,
    /// Instruction-side cells, in [`grid`] order.
    pub instr: Vec<GeometryCell>,
    /// Data-side cells, in [`grid`] order.
    pub data: Vec<GeometryCell>,
}

/// A full multi-geometry sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeometrySweep {
    /// One row per benchmark.
    pub rows: Vec<GeometryRow>,
}

/// Number of (geometry × policy) cells each (benchmark, side) pass
/// answers.
pub fn cells_per_side() -> u64 {
    (SIZES.len() * ASSOCS.len() * 2) as u64
}

/// The grid's engines, unfed: an [`LruSweep`] over every [`grid`] cell,
/// and a [`FifoSweep`] over the multi-way cells only. Feed both the same
/// stream, then read them with [`grid_cells`].
pub fn grid_engines() -> (LruSweep, FifoSweep) {
    let keys: Vec<(u64, u64)> = grid()
        .iter()
        .map(|g| (g.num_sets(), g.associativity()))
        .collect();
    let multi_way: Vec<(u64, u64)> = keys.iter().copied().filter(|&(_, a)| a > 1).collect();
    // Bounded backend: no grid cell queries deeper than its own
    // associativity, so each level's MRU arrays cap at the largest
    // way-count sharing that set count.
    let lru = LruSweep::bounded(&keys).expect("grid cells are valid");
    let fifo = FifoSweep::new(&multi_way).expect("grid cells are valid");
    (lru, fifo)
}

/// Every [`grid`] cell's counts, in [`grid`] order, from engines that
/// [`grid_engines`] built and one stream fed. A direct-mapped cell's
/// FIFO count is its LRU count: a one-way set evicts its only line
/// under either policy.
pub fn grid_cells(lru: &LruSweep, fifo: &FifoSweep) -> Vec<GeometryCell> {
    grid()
        .iter()
        .map(|g| {
            let lru_misses = lru.misses_for_geometry(g).expect("tracked");
            let fifo_misses = if g.associativity() == 1 {
                lru_misses
            } else {
                fifo.misses_for_geometry(g).expect("tracked")
            };
            GeometryCell {
                size: g.size(),
                associativity: g.associativity(),
                lru_misses,
                fifo_misses,
            }
        })
        .collect()
}

fn side_cells_single_pass(view: &SideView) -> Vec<GeometryCell> {
    let (mut lru, mut fifo) = grid_engines();
    // A run's repeats hit in every cell and change nothing: read one
    // entry per run.
    for run in view.runs() {
        lru.observe_id(run.id, run.line);
        fifo.observe_id(run.id, run.line);
    }
    sweep::note_single_pass_refs(2 * view.len() as u64);
    grid_cells(&lru, &fifo)
}

fn side_cells_per_cell(view: &SideView) -> Vec<GeometryCell> {
    let lines = base_lines(view);
    let cells = grid();
    crate::common::note_refs_simulated(2 * (cells.len() * lines.len()) as u64);
    cells
        .iter()
        .map(|g| {
            let count = |policy| {
                let mut cache = Cache::with_policy(*g, policy);
                let mut misses = 0u64;
                for &line in lines {
                    if cache.access_line(line).is_miss() {
                        misses += 1;
                    }
                }
                misses
            };
            GeometryCell {
                size: g.size(),
                associativity: g.associativity(),
                lru_misses: count(ReplacementPolicy::Lru),
                fifo_misses: count(ReplacementPolicy::Fifo),
            }
        })
        .collect()
}

fn base_lines(view: &SideView) -> &[LineAddr] {
    view.lines_for(LINE_SIZE)
        .expect("16B lines are pre-derived for the baseline line size")
}

fn run_with(
    cfg: &ExperimentConfig,
    side_cells: impl Fn(&SideView) -> Vec<GeometryCell> + Sync,
    refs_factor: u64,
) -> GeometrySweep {
    let traces = record_traces(cfg);
    let jobs = traces.len() * 2;
    let total: u64 = traces.iter().map(|(_, t)| t.len() as u64).sum();
    let per_side = sweep::map_jobs_sized(jobs, total / jobs as u64 * refs_factor, |job| {
        let (_, trace) = &traces[job / 2];
        side_cells(Side::BOTH[job % 2].view(trace))
    });
    let rows = traces
        .iter()
        .enumerate()
        .map(|(i, (b, trace))| GeometryRow {
            benchmark: *b,
            instr_refs: Side::Instruction.view(trace).len() as u64,
            data_refs: Side::Data.view(trace).len() as u64,
            instr: per_side[2 * i].clone(),
            data: per_side[2 * i + 1].clone(),
        })
        .collect();
    GeometrySweep { rows }
}

/// Runs the sweep on the single-pass engines (two traversals per side).
pub fn run(cfg: &ExperimentConfig) -> GeometrySweep {
    run_with(cfg, side_cells_single_pass, 2)
}

/// Runs the sweep on the demoted per-cell simulator (one [`Cache`]
/// replay per cell × policy) — the cross-check oracle.
pub fn run_per_cell(cfg: &ExperimentConfig) -> GeometrySweep {
    run_with(cfg, side_cells_per_cell, cells_per_side())
}

impl GeometrySweep {
    /// One benchmark's row.
    pub fn row(&self, b: Benchmark) -> Option<&GeometryRow> {
        self.rows.iter().find(|r| r.benchmark == b)
    }

    /// Average data-side miss rate over benchmarks for one cell.
    pub fn avg_data_miss_rate(&self, size: u64, associativity: u64, fifo: bool) -> f64 {
        let rates: Vec<f64> = self
            .rows
            .iter()
            .filter_map(|r| {
                let cell = r
                    .data
                    .iter()
                    .find(|c| c.size == size && c.associativity == associativity)?;
                let misses = if fifo {
                    cell.fifo_misses
                } else {
                    cell.lru_misses
                };
                Some(if r.data_refs == 0 {
                    0.0
                } else {
                    misses as f64 / r.data_refs as f64
                })
            })
            .collect();
        crate::common::average(&rates)
    }

    /// Renders the averaged data-side miss-rate grid (LRU, with FIFO at
    /// the widest cell as a policy footnote).
    pub fn render(&self) -> String {
        let mut header: Vec<String> = vec!["size \\ ways".into()];
        header.extend(ASSOCS.iter().map(|a| format!("{a}")));
        let mut t = Table::new(header);
        for &size in &SIZES {
            let mut row: Vec<String> = vec![format!("{}KB", size >> 10)];
            row.extend(
                ASSOCS
                    .iter()
                    .map(|&a| rate(self.avg_data_miss_rate(size, a, false))),
            );
            t.row(row);
        }
        format!(
            "Multi-geometry sweep: avg D-cache LRU miss rate, {} cells per side \
             answered in one pass per policy\n{}\n\
             FIFO at 4KB 2-way: {} (LRU: {})\n",
            SIZES.len() * ASSOCS.len(),
            t.render(),
            rate(self.avg_data_miss_rate(4096, 2, true)),
            rate(self.avg_data_miss_rate(4096, 2, false)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_cells_and_rows_are_complete() {
        let cfg = ExperimentConfig::with_scale(8_000);
        let s = run(&cfg);
        assert_eq!(s.rows.len(), 6);
        for r in &s.rows {
            assert_eq!(r.instr.len(), SIZES.len() * ASSOCS.len());
            assert_eq!(r.data.len(), SIZES.len() * ASSOCS.len());
            assert!(r.instr_refs > 0 && r.data_refs > 0);
            for c in r.instr.iter().chain(&r.data) {
                assert!(c.lru_misses <= r.instr_refs.max(r.data_refs));
            }
        }
        assert!(s.row(Benchmark::Ccom).is_some());
        assert!(s.render().contains("4KB"));
    }

    #[test]
    fn lru_miss_counts_obey_mattson_inclusion_per_set_count() {
        // The theorem the engine rests on: at a FIXED set count, LRU
        // misses are non-increasing in associativity (more ways per set
        // never evict earlier). Cells sharing a set count lie on the
        // grid's (size × 2, ways × 2) diagonals.
        let cfg = ExperimentConfig::with_scale(8_000);
        let s = run(&cfg);
        for r in &s.rows {
            for cells in [&r.instr, &r.data] {
                for a in cells.iter() {
                    for b in cells.iter() {
                        let same_sets = a.size / a.associativity == b.size / b.associativity;
                        if same_sets && a.associativity < b.associativity {
                            assert!(
                                b.lru_misses <= a.lru_misses,
                                "{}: inclusion violated between {a:?} and {b:?}",
                                r.benchmark
                            );
                        }
                    }
                }
            }
        }
    }
}
