//! Extension: non-unit-stride reference streams (§5 future work).
//!
//! "The numeric programs used in this study used unit stride access
//! patterns. Numeric programs with non-unit stride and mixed stride
//! access patterns also need to be simulated." This experiment builds
//! those workloads — column-major matrices walked along the *row*
//! dimension, at several strides — and measures three data-side
//! organizations:
//!
//! * the paper's sequential 4-way stream buffer (which §4.1 predicts is
//!   "of little benefit"),
//! * the same buffer with a stride detector ([`jouppi_core::stride`]),
//! * no buffer at all.

use jouppi_core::{AugmentedConfig, StreamBufferConfig};
use jouppi_report::Table;
use jouppi_trace::{MemRef, RecordedTrace, SmallRng};
use jouppi_workloads::data::{GatherScatter, InterleavedSweep, StridedSweep};

use crate::common::{baseline_l1, pct_of_misses_removed, run_side, ExperimentConfig, Side};

/// Strides (in bytes) swept; 8 is the unit-stride control, the rest are
/// the row-walks of column-major matrices with line-multiple leading
/// dimensions (a 16B-line machine sees constant line strides of 16, 50,
/// and 100).
pub const STRIDES: [u64; 4] = [8, 256, 800, 1600];

/// One stride's results.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StrideRow {
    /// Element stride in bytes.
    pub stride_bytes: u64,
    /// % of misses removed by the sequential 4-way buffer.
    pub sequential_removed: f64,
    /// % of misses removed by the stride-detecting 4-way buffer.
    pub strided_removed: f64,
}

/// Results of the non-unit-stride extension experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtStride {
    /// One row per stride.
    pub rows: Vec<StrideRow>,
    /// The boundary case: data-dependent gathers, which neither buffer
    /// can predict. `(sequential removed %, strided removed %)`.
    pub gather: (f64, f64),
}

/// Builds a data-only trace: two interleaved constant-stride streams over
/// a large region, with `stride_bytes` between consecutive elements.
fn stride_trace(cfg: &ExperimentConfig, stride_bytes: u64) -> RecordedTrace {
    let refs = cfg.scale.instructions / 2;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    // Region sized so the sweep wraps a few times regardless of stride.
    let region = (stride_bytes * 4096).max(1 << 20);
    let mut mix = InterleavedSweep::new(vec![0x1000_0000, 0x4000_0000], stride_bytes, region);
    let mut scalars = StridedSweep::new(0x7000_0000, 8, 512);
    let mut out = Vec::with_capacity(refs as usize);
    for i in 0..refs {
        // 3 stream refs, then 1 hot scalar ref — a plausible vector loop.
        let addr = if i % 4 == 3 {
            scalars.next_addr(&mut rng)
        } else {
            mix.next_addr(&mut rng)
        };
        out.push(MemRef::load(addr));
    }
    RecordedTrace::from_refs(format!("stride-{stride_bytes}"), out)
}

/// Builds a gather workload: sequential index loads driving random
/// target loads over a 2MB table.
fn gather_trace(cfg: &ExperimentConfig) -> RecordedTrace {
    let refs = cfg.scale.instructions / 2;
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xabcd);
    let mut g = GatherScatter::new(0x1000_0000, 0x4000_0000, (2 << 20) / 8, 8);
    let out = (0..refs)
        .map(|_| MemRef::load(g.next_addr(&mut rng)))
        .collect();
    RecordedTrace::from_refs("gather", out)
}

fn removal(trace: &RecordedTrace, cfg_aug: AugmentedConfig) -> f64 {
    let geom = baseline_l1();
    let misses = run_side(trace, Side::Data, AugmentedConfig::new(geom)).l1_misses();
    let stats = run_side(trace, Side::Data, cfg_aug);
    pct_of_misses_removed(stats.removed_misses(), misses)
}

/// Runs the stride sweep.
pub fn run(cfg: &ExperimentConfig) -> ExtStride {
    let geom = baseline_l1();
    let rows = STRIDES
        .iter()
        .map(|&stride_bytes| {
            let trace = stride_trace(cfg, stride_bytes);
            let misses = {
                let stats = run_side(&trace, Side::Data, AugmentedConfig::new(geom));
                stats.l1_misses()
            };
            let sequential = run_side(
                &trace,
                Side::Data,
                AugmentedConfig::new(geom).multi_way_stream_buffer(4, StreamBufferConfig::new(4)),
            );
            let strided = run_side(
                &trace,
                Side::Data,
                AugmentedConfig::new(geom).strided_stream_buffer(
                    4,
                    StreamBufferConfig::new(4),
                    256,
                ),
            );
            StrideRow {
                stride_bytes,
                sequential_removed: pct_of_misses_removed(sequential.removed_misses(), misses),
                strided_removed: pct_of_misses_removed(strided.removed_misses(), misses),
            }
        })
        .collect();
    let gtrace = gather_trace(cfg);
    let gather = (
        removal(
            &gtrace,
            AugmentedConfig::new(geom).multi_way_stream_buffer(4, StreamBufferConfig::new(4)),
        ),
        removal(
            &gtrace,
            AugmentedConfig::new(geom).strided_stream_buffer(4, StreamBufferConfig::new(4), 256),
        ),
    );
    ExtStride { rows, gather }
}

impl ExtStride {
    /// Looks up one stride's row.
    pub fn row(&self, stride_bytes: u64) -> Option<&StrideRow> {
        self.rows.iter().find(|r| r.stride_bytes == stride_bytes)
    }

    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "stride (bytes)",
            "stride (lines)",
            "sequential SB removes",
            "strided SB removes",
        ]);
        for r in &self.rows {
            t.row([
                r.stride_bytes.to_string(),
                format!("{:.1}", r.stride_bytes as f64 / 16.0),
                format!("{:.0}%", r.sequential_removed),
                format!("{:.0}%", r.strided_removed),
            ]);
        }
        format!(
            "Extension (§5 future work): non-unit-stride streams, 4KB D-cache\n\
             (the paper predicts sequential buffers only help unit/near-unit stride)\n{t}\n\
             boundary case — data-dependent gather: sequential SB removes {:.0}%, \
             strided SB removes {:.0}% (unpredictable by construction)\n",
            self.gather.0, self.gather.1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_buffers_fail_beyond_near_unit_stride() {
        let cfg = ExperimentConfig::with_scale(40_000);
        let e = run(&cfg);
        // Unit stride: both organizations remove most misses.
        let unit = e.row(8).unwrap();
        assert!(unit.sequential_removed > 60.0, "{unit:?}");
        // Large strides: sequential buffers are of little benefit (§4.1)…
        let large = e.row(800).unwrap();
        assert!(large.sequential_removed < 25.0, "{large:?}");
        // …but the stride-detecting extension still works.
        assert!(large.strided_removed > 60.0, "{large:?}");
        // Data-dependent gathers defeat both — the honest boundary.
        assert!(e.gather.0 < 10.0 && e.gather.1 < 10.0, "{:?}", e.gather);
        assert!(e.render().contains("strided SB"));
    }

    #[test]
    fn strided_buffer_never_does_worse() {
        let cfg = ExperimentConfig::with_scale(30_000);
        let e = run(&cfg);
        for r in &e.rows {
            assert!(
                r.strided_removed + 8.0 >= r.sequential_removed,
                "stride {}: strided {} vs sequential {}",
                r.stride_bytes,
                r.strided_removed,
                r.sequential_removed
            );
        }
    }
}
