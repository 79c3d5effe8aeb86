//! Analysis: working-set curves from one pass per benchmark.
//!
//! One pass per benchmark yields both curves for *every* cache size. A
//! [`DirectMappedSweep`] runs the direct-mapped caches of every size
//! together, and a [`BandedShadow`] riding it (Mattson's stack inclusion,
//! with a marker at each size) gives the fully-associative LRU misses and
//! counts the direct-mapped ones. The gap between the two curves *is* the
//! conflict-miss rate of Figure 3-1, now resolved across the whole size
//! axis — the analytical backbone under §3's discussion of where
//! conflicts live. (The gap can be negative at tiny sizes: FA-LRU
//! thrashes on cyclic working sets that a direct-mapped cache partially
//! pins — the render clamps the conflict column at zero, as the per-miss
//! classifier of Figure 3-1 effectively does.)

use jouppi_cache::{BandedShadow, CacheGeometry, DirectMappedSweep};
use jouppi_report::{rate, Table};
use jouppi_workloads::Benchmark;

use crate::common::{per_benchmark, ExperimentConfig, Side};
use crate::sweep;

/// Cache sizes examined (bytes), 16B lines.
pub const SIZES: [u64; 6] = [1024, 4096, 16 << 10, 32 << 10, 64 << 10, 128 << 10];

/// One benchmark's miss-rate curves.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkingSetRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// `(size, FA-LRU miss rate, direct-mapped miss rate)` per size.
    pub curve: Vec<(u64, f64, f64)>,
}

/// Results of the working-set analysis (data side).
#[derive(Clone, Debug, PartialEq)]
pub struct ExtWorkingSet {
    /// One row per benchmark.
    pub rows: Vec<WorkingSetRow>,
}

/// Runs the analysis: one pass per benchmark over its data side's runs,
/// in which a [`BandedShadow`] indexed by the side's memoized line ids
/// classifies the misses of every direct-mapped size and counts every
/// size's fully-associative LRU misses.
pub fn run(cfg: &ExperimentConfig) -> ExtWorkingSet {
    let geoms = SIZES.map(|size| CacheGeometry::direct_mapped(size, 16).expect("valid size"));
    let rows = per_benchmark(cfg, |b, trace| {
        let view = Side::Data.view(trace);
        let mut l1s = DirectMappedSweep::new(&geoms);
        let mut shadow = BandedShadow::new(&geoms);
        // A run's repeats hit at every size and change no count the
        // curves read: one entry per run.
        for run in view.runs() {
            shadow.observe_id(run.id, l1s.access_line(run.line, |_, _| {}));
        }
        sweep::note_single_pass_refs(view.len() as u64);
        let rate = |misses: u64| {
            if view.is_empty() {
                0.0
            } else {
                misses as f64 / view.len() as f64
            }
        };
        let curve = SIZES
            .iter()
            .enumerate()
            .map(|(i, &size)| {
                let dm_misses = shadow.breakdown(i).total();
                (size, rate(shadow.fa_misses(i)), rate(dm_misses))
            })
            .collect();
        WorkingSetRow {
            benchmark: b,
            curve,
        }
    })
    .into_iter()
    .map(|(_, r)| r)
    .collect();
    ExtWorkingSet { rows }
}

impl ExtWorkingSet {
    /// Looks up one benchmark's curve.
    pub fn row(&self, b: Benchmark) -> Option<&WorkingSetRow> {
        self.rows.iter().find(|r| r.benchmark == b)
    }

    /// Renders per-benchmark FA vs DM miss rates.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Analysis: working-set curves (data side; FA = fully-associative LRU \
             via stack distances, DM = direct-mapped simulation;\n\
             the FA→DM gap is the conflict-miss rate)\n\n",
        );
        for r in &self.rows {
            let mut t = Table::new(["cache size", "FA-LRU miss", "DM miss", "conflict part"]);
            for &(size, fa, dm) in &r.curve {
                t.row([
                    format!("{}KB", size / 1024),
                    rate(fa),
                    rate(dm),
                    rate((dm - fa).max(0.0)),
                ]);
            }
            out.push_str(&format!("{}\n{}\n", r.benchmark.name(), t.render()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use jouppi_cache::{LruSweep, StackDistanceProfile};

    use super::*;

    /// The two-engine computation the banded shadow replaced: a
    /// [`StackDistanceProfile`] for the fully-associative curve and one
    /// set-refined [`LruSweep`] over every direct-mapped set count.
    fn run_oracle(cfg: &ExperimentConfig) -> ExtWorkingSet {
        let set_counts: Vec<u64> = SIZES.iter().map(|&s| s / 16).collect();
        let rows = per_benchmark(cfg, |b, trace| {
            let lines = Side::Data
                .view(trace)
                .lines_for(16)
                .expect("16B lines are pre-derived for the baseline line size");
            let mut profile = StackDistanceProfile::with_capacity(lines.len());
            // Every query is direct-mapped, so a depth bound of 1 suffices:
            // each set tracks only its most recent line.
            let dm_cells: Vec<(u64, u64)> = set_counts.iter().map(|&c| (c, 1)).collect();
            let mut dm_sweep = LruSweep::bounded(&dm_cells).expect("sizes are powers of two");
            for &line in lines {
                profile.observe(line);
                dm_sweep.observe(line);
            }
            let curve = SIZES
                .iter()
                .map(|&size| {
                    (
                        size,
                        profile.miss_rate_for_capacity((size / 16) as usize),
                        dm_sweep
                            .miss_rate(size / 16, 1)
                            .expect("every size's set count is tracked"),
                    )
                })
                .collect();
            WorkingSetRow {
                benchmark: b,
                curve,
            }
        })
        .into_iter()
        .map(|(_, r)| r)
        .collect();
        ExtWorkingSet { rows }
    }

    #[test]
    fn one_pass_curves_equal_the_stack_distance_and_lru_sweep_oracle() {
        for (scale, seed) in [(30_000, 42), (60_000, 7)] {
            let cfg = ExperimentConfig {
                seed,
                ..ExperimentConfig::with_scale(scale)
            };
            assert_eq!(run(&cfg), run_oracle(&cfg), "scale {scale} seed {seed}");
        }
    }

    #[test]
    fn fa_curve_matches_the_three_c_shadow_cache() {
        // The exact cross-check: the stack-distance profile's FA-LRU miss
        // count at capacity C must equal compulsory + capacity misses from
        // the classifier (whose shadow IS an FA-LRU cache of capacity C).
        // Note FA-LRU may legitimately miss *more* than direct-mapped on
        // cyclic streams (LRU thrash) — that is why Figure 3-1's conflict
        // counts are per-miss, not a curve subtraction.
        let cfg = ExperimentConfig::with_scale(40_000);
        let e = run(&cfg);
        assert_eq!(e.rows.len(), 6);
        // (Comparing against the *classifier's* compulsory+capacity would
        // undercount: the classifier only classifies real-cache misses,
        // and in the thrash regime the shadow can miss where the
        // direct-mapped cache hits.)
        crate::common::per_benchmark(&cfg, |b, trace| {
            for &size in &[1024u64, 4096] {
                let geom = jouppi_cache::CacheGeometry::fully_associative(size, 16).unwrap();
                let mut fa = jouppi_cache::Cache::new(geom);
                let mut profile = StackDistanceProfile::new();
                let mut fa_misses = 0u64;
                for r in trace.as_slice() {
                    if Side::Data.matches(r) {
                        if fa.access(r.addr).is_miss() {
                            fa_misses += 1;
                        }
                        profile.observe(r.addr.line(16));
                    }
                }
                assert_eq!(
                    profile.misses_for_capacity((size / 16) as usize),
                    fa_misses,
                    "{b} @ {size}B: profile disagrees with simulated FA-LRU"
                );
            }
        });
        // FA curves are non-increasing in size (Mattson's inclusion).
        for r in &e.rows {
            for w in r.curve.windows(2) {
                assert!(w[1].1 <= w[0].1 + 1e-12, "{:?}", r.curve);
            }
        }
    }

    #[test]
    fn met_has_largest_conflict_gap_at_4kb() {
        let cfg = ExperimentConfig::with_scale(80_000);
        let e = run(&cfg);
        let gap = |b: Benchmark| {
            let r = e.row(b).unwrap();
            let &(_, fa, dm) = r.curve.iter().find(|(s, _, _)| *s == 4096).unwrap();
            (dm - fa) / dm.max(1e-12)
        };
        // met's conflict *share* at 4KB exceeds every other benchmark's —
        // the same ordering as Figure 3-1.
        let met = gap(Benchmark::Met);
        for b in Benchmark::ALL {
            if b != Benchmark::Met {
                assert!(met >= gap(b) - 0.05, "{b}: {} vs met {}", gap(b), met);
            }
        }
        assert!(e.render().contains("FA-LRU"));
    }
}
