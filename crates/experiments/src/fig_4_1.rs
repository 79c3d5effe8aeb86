//! Figure 4-1: limited time for prefetch — how soon prefetched
//! instruction lines are needed during `ccom`.

use jouppi_core::prefetch::{PrefetchSimulator, PrefetchTechnique};
use jouppi_report::{Chart, Series, Table};
use jouppi_trace::RecordedTrace;
use jouppi_workloads::Benchmark;

use crate::common::{baseline_l1, ExperimentConfig};
use crate::sweep;

/// Maximum lead time plotted (instruction issues), as in the paper.
pub const MAX_LEAD: u64 = 26;

/// Lead-time distributions for the three classical prefetch techniques on
/// `ccom`'s instruction stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig41 {
    /// `(technique, cdf)` where `cdf[t]` is the fraction of useful
    /// prefetches demanded within `t` instruction issues of being issued.
    pub curves: Vec<(PrefetchTechnique, Vec<f64>)>,
}

/// Runs `ccom`'s instruction stream through each prefetch technique.
///
/// The trace is recorded once; the three techniques replay its
/// instruction fetches as independent sweep-engine cells.
pub fn run(cfg: &ExperimentConfig) -> Fig41 {
    let trace = RecordedTrace::record(&Benchmark::Ccom.source(cfg.scale, cfg.seed));
    let techniques = [
        PrefetchTechnique::OnMiss,
        PrefetchTechnique::Tagged,
        PrefetchTechnique::Always,
    ];
    let curves = sweep::map_jobs(techniques.len(), |t| {
        let tech = techniques[t];
        let mut sim = PrefetchSimulator::new(baseline_l1(), tech);
        let fetches = trace.as_slice().iter().filter(|r| r.kind.is_instr());
        for (i, r) in fetches.enumerate() {
            sim.access(r.addr, i as u64 + 1);
        }
        (tech, sim.lead_time_cdf(MAX_LEAD))
    });
    Fig41 { curves }
}

impl Fig41 {
    /// Fraction of useful prefetches needed within `t` issues for a
    /// technique (0.0 if the technique is missing or `t` out of range).
    pub fn within(&self, tech: PrefetchTechnique, t: u64) -> f64 {
        self.curves
            .iter()
            .find(|(x, _)| *x == tech)
            .and_then(|(_, cdf)| cdf.get(usize::try_from(t).ok()?))
            .copied()
            .unwrap_or(0.0)
    }

    /// Renders the cumulative distributions.
    pub fn render(&self) -> String {
        let mut t = Table::new(["technique", "≤1 instr", "≤2", "≤4", "≤8", "≤16", "≤24"]);
        for (tech, _) in &self.curves {
            t.row([
                tech.to_string(),
                format!("{:.0}%", 100.0 * self.within(*tech, 1)),
                format!("{:.0}%", 100.0 * self.within(*tech, 2)),
                format!("{:.0}%", 100.0 * self.within(*tech, 4)),
                format!("{:.0}%", 100.0 * self.within(*tech, 8)),
                format!("{:.0}%", 100.0 * self.within(*tech, 16)),
                format!("{:.0}%", 100.0 * self.within(*tech, 24)),
            ]);
        }
        let mut chart = Chart::new(
            "Figure 4-1: % of useful prefetches needed within N instruction issues (ccom, I-stream)",
            60,
            16,
        )
        .y_range(0.0, 100.0);
        for (tech, cdf) in &self.curves {
            let marker = match tech {
                PrefetchTechnique::OnMiss => 'm',
                PrefetchTechnique::Tagged => 't',
                PrefetchTechnique::Always => 'a',
            };
            let pts = cdf
                .iter()
                .enumerate()
                .map(|(i, &f)| (i as f64, 100.0 * f))
                .collect();
            chart = chart.series(Series::new(tech.to_string(), marker, pts));
        }
        format!("Figure 4-1\n{}\n{}", t.render(), chart.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetched_lines_are_needed_within_a_few_instructions() {
        let cfg = ExperimentConfig::with_scale(60_000);
        let f = run(&cfg);
        assert_eq!(f.curves.len(), 3);
        // The paper's point: with 4-instruction lines, sequential code
        // demands a prefetched line within ~4 issues — far less than the
        // 24-cycle L2 latency. Most useful prefetches arrive "too late".
        let tagged_soon = f.within(PrefetchTechnique::Tagged, 6);
        assert!(
            tagged_soon > 0.5,
            "tagged prefetch: {tagged_soon} needed within 6 issues"
        );
        // CDFs are monotone.
        for (_, cdf) in &f.curves {
            for w in cdf.windows(2) {
                assert!(w[1] + 1e-12 >= w[0]);
            }
        }
        assert!(f.render().contains("tagged"));
    }

    #[test]
    fn missing_technique_yields_zero() {
        let f = Fig41 { curves: vec![] };
        assert_eq!(f.within(PrefetchTechnique::Tagged, 4), 0.0);
    }
}
