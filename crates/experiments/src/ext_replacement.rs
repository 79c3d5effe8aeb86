//! Ablation: victim-cache replacement policy.
//!
//! The paper's victim caches "replace the least recently used item"; at
//! 1-15 entries, exact LRU is cheap. This ablation checks how much LRU
//! actually buys over FIFO and random replacement — quantifying a design
//! choice DESIGN.md calls out.

use jouppi_cache::{CacheGeometry, FifoSweep, LruSweep, ReplacementPolicy};
use jouppi_core::AugmentedConfig;
use jouppi_report::{rate, Table};
use jouppi_workloads::Benchmark;

use crate::common::{
    average, baseline_l1, classify_side, pct_of_conflicts_removed, per_benchmark, run_side,
    ExperimentConfig, Side,
};
use crate::sweep;

/// Policies compared.
pub const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random,
];

/// One benchmark's % of data conflict misses removed per policy, with a
/// 4-entry victim cache.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplacementRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// LRU replacement (the paper's design).
    pub lru: f64,
    /// FIFO replacement.
    pub fifo: f64,
    /// Random replacement.
    pub random: f64,
}

/// One benchmark's data miss rates for a 4KB 2-way L1 under each
/// one-pass policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct L1PolicyRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// 2-way LRU L1 miss rate.
    pub lru: f64,
    /// 2-way FIFO L1 miss rate.
    pub fifo: f64,
}

/// Results of the replacement-policy ablation.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtReplacement {
    /// One row per benchmark (victim-cache policy ablation).
    pub rows: Vec<ReplacementRow>,
    /// One row per benchmark: LRU-vs-FIFO miss rates of a 4KB 2-way L1
    /// itself, answered by the single-pass engines ([`LruSweep`] /
    /// [`FifoSweep`], one trace traversal each) — the DEW extension of
    /// the policy question from the victim cache to the L1.
    pub l1_two_way: Vec<L1PolicyRow>,
}

/// The 4KB 2-way geometry of the [`ExtReplacement::l1_two_way`] section.
fn l1_two_way_geometry() -> CacheGeometry {
    CacheGeometry::new(4096, 16, 2).expect("valid")
}

/// Runs the ablation (data side, 4-entry victim caches, plus the
/// one-pass L1 policy section).
pub fn run(cfg: &ExperimentConfig) -> ExtReplacement {
    let geom = baseline_l1();
    let sa2 = l1_two_way_geometry();
    let mut l1_two_way = Vec::new();
    let rows = per_benchmark(cfg, |b, trace| {
        let (_, breakdown) = classify_side(trace, Side::Data, geom);
        let removed = |policy: ReplacementPolicy| {
            let aug = AugmentedConfig::new(geom)
                .victim_cache(4)
                .victim_policy(policy);
            let stats = run_side(trace, Side::Data, aug);
            pct_of_conflicts_removed(stats.removed_misses(), breakdown.conflict)
        };
        let lines = Side::Data
            .view(trace)
            .lines_for(16)
            .expect("16B lines are pre-derived for the baseline line size");
        let mut lru_sweep =
            LruSweep::bounded(&[(sa2.num_sets(), sa2.associativity())]).expect("valid cell");
        let mut fifo_sweep =
            FifoSweep::new(&[(sa2.num_sets(), sa2.associativity())]).expect("valid cell");
        for &line in lines {
            lru_sweep.observe(line);
            fifo_sweep.observe(line);
        }
        sweep::note_single_pass_refs(2 * lines.len() as u64);
        l1_two_way.push(L1PolicyRow {
            benchmark: b,
            lru: lru_sweep.miss_rate_for_geometry(&sa2).expect("tracked"),
            fifo: if lines.is_empty() {
                0.0
            } else {
                fifo_sweep.misses_for_geometry(&sa2).expect("tracked") as f64 / lines.len() as f64
            },
        });
        ReplacementRow {
            benchmark: b,
            lru: removed(ReplacementPolicy::Lru),
            fifo: removed(ReplacementPolicy::Fifo),
            random: removed(ReplacementPolicy::Random),
        }
    })
    .into_iter()
    .map(|(_, r)| r)
    .collect();
    ExtReplacement { rows, l1_two_way }
}

impl ExtReplacement {
    /// Averages `(lru, fifo, random)`.
    pub fn averages(&self) -> (f64, f64, f64) {
        (
            average(&self.rows.iter().map(|r| r.lru).collect::<Vec<_>>()),
            average(&self.rows.iter().map(|r| r.fifo).collect::<Vec<_>>()),
            average(&self.rows.iter().map(|r| r.random).collect::<Vec<_>>()),
        )
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = Table::new(["program", "LRU", "FIFO", "random"]);
        for r in &self.rows {
            t.row([
                r.benchmark.name().to_owned(),
                format!("{:.0}%", r.lru),
                format!("{:.0}%", r.fifo),
                format!("{:.0}%", r.random),
            ]);
        }
        let (lru, fifo, random) = self.averages();
        t.row([
            "average".to_owned(),
            format!("{lru:.0}%"),
            format!("{fifo:.0}%"),
            format!("{random:.0}%"),
        ]);
        let mut l1 = Table::new(["program", "2-way LRU", "2-way FIFO"]);
        for r in &self.l1_two_way {
            l1.row([r.benchmark.name().to_owned(), rate(r.lru), rate(r.fifo)]);
        }
        format!(
            "Ablation: 4-entry data victim cache replacement policy \
             (% of conflict misses removed)\n{t}\n\
             L1 policy (4KB 2-way D-cache miss rates, one-pass engines)\n{l1}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_is_at_least_competitive() {
        let cfg = ExperimentConfig::with_scale(60_000);
        let e = run(&cfg);
        let (lru, fifo, random) = e.averages();
        // LRU should match or beat the alternatives on average (small
        // slack: FIFO ≈ LRU when hits are rare between insertions).
        assert!(lru + 3.0 >= fifo, "LRU {lru} vs FIFO {fifo}");
        assert!(lru + 3.0 >= random, "LRU {lru} vs random {random}");
        assert!(lru > 20.0, "LRU ineffective: {lru}");
        assert!(e.render().contains("FIFO"));
    }

    #[test]
    fn l1_policy_section_matches_per_cell_oracle() {
        // The one-pass L1 rates must equal a per-cell Cache simulation
        // (LRU and FIFO) exactly.
        let cfg = ExperimentConfig::with_scale(20_000);
        let e = run(&cfg);
        let oracle = per_benchmark(&cfg, |_, trace| {
            let lines = Side::Data.view(trace).lines_for(16).unwrap();
            let mut per_policy = [0.0f64; 2];
            for (slot, policy) in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo]
                .into_iter()
                .enumerate()
            {
                let mut cache = jouppi_cache::Cache::with_policy(l1_two_way_geometry(), policy);
                let mut misses = 0u64;
                for &line in lines {
                    if cache.access_line(line).is_miss() {
                        misses += 1;
                    }
                }
                per_policy[slot] = misses as f64 / lines.len() as f64;
            }
            per_policy
        });
        assert_eq!(e.l1_two_way.len(), 6);
        for (row, (b, [lru, fifo])) in e.l1_two_way.iter().zip(oracle) {
            assert_eq!(row.lru, lru, "{b} LRU");
            assert_eq!(row.fifo, fifo, "{b} FIFO");
        }
        assert!(e.render().contains("2-way FIFO"));
    }

    #[test]
    fn all_policies_remove_some_conflicts() {
        let cfg = ExperimentConfig::with_scale(40_000);
        let e = run(&cfg);
        for r in &e.rows {
            if r.lru > 10.0 {
                assert!(r.fifo > 0.0, "{:?}", r);
                assert!(r.random > 0.0, "{:?}", r);
            }
        }
    }
}
