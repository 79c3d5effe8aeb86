//! Benchmark harness for the Jouppi (ISCA 1990) reproduction.
//!
//! Two binaries:
//!
//! * `sweep-bench` (`src/bin/sweep_bench.rs`) times whole experiment
//!   sweeps through the sweep engines — `per_cell` (one task per
//!   configuration cell) against `miss_log` (one L1 pass per (benchmark,
//!   side), every configuration answered from its miss log) or
//!   `single_pass` — at one and two worker threads, and writes the
//!   measurements to `BENCH_sweep.json`. Its `--smoke` flag instead
//!   cross-checks that the engines produce identical results.
//! * `loadgen` (`src/bin/loadgen.rs`) boots the `jouppi-serve` daemon on
//!   a loopback port, hammers it from concurrent keep-alive connections,
//!   and writes latency/throughput percentiles to `BENCH_serve.json`.
//!
//! Everything is dependency-free: `std::time::Instant` for timing and
//! [`jouppi_serve::json`] (the shared hand-rolled JSON writer) for
//! output. This library hosts the measurement records and their JSON
//! rendering so both can be unit-tested.

#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

use jouppi_experiments::common::ExperimentConfig;
use jouppi_serve::json::Json;

/// Trace scale used by the sweep benchmark: large enough that trace
/// replay dominates thread-pool overhead, small enough to finish in
/// seconds.
pub fn bench_config() -> ExperimentConfig {
    ExperimentConfig::with_scale(60_000)
}

/// One timed sweep run.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Which sweep was timed (e.g. `"fig_3_1"`).
    pub sweep: &'static str,
    /// Which sweep engine ran: `"per_cell"` (one task per configuration
    /// cell), `"miss_log"` (one L1 pass per (benchmark, side), every
    /// configuration answered from its miss log), `"classify"` or
    /// `"single_pass"`.
    pub mode: &'static str,
    /// Worker threads the sweep engine actually used.
    pub threads: usize,
    /// Configuration cells covered by the run (size × associativity ×
    /// policy points answered, per benchmark side).
    pub cells: u64,
    /// Total references of work delivered: cells covered × trace
    /// references. For per-cell schedules this equals references
    /// replayed; one-pass engines deliver the same work from fewer
    /// traversals, which is exactly what the throughput ratio measures.
    pub refs: u64,
    /// Wall-clock time in milliseconds.
    pub wall_ms: f64,
}

impl Measurement {
    /// References simulated per second of wall-clock time.
    pub fn refs_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.refs as f64 * 1000.0 / self.wall_ms
        }
    }

    /// This measurement as a JSON object.
    pub fn json(&self) -> Json {
        Json::obj([
            ("sweep", Json::str(self.sweep)),
            ("mode", Json::str(self.mode)),
            ("threads", Json::Int(self.threads as i64)),
            ("cells", Json::Int(self.cells as i64)),
            ("refs", Json::Int(self.refs as i64)),
            ("wall_ms", Json::Float(round3(self.wall_ms))),
            ("refs_per_sec", Json::Float(self.refs_per_sec().round())),
        ])
    }
}

/// Rounds to three decimal places (milliseconds with microsecond grain).
pub fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Renders the full sweep-benchmark report as pretty-printed JSON.
pub fn render_json(cores: usize, cfg: &ExperimentConfig, runs: &[Measurement]) -> String {
    Json::obj([
        ("benchmark", Json::str("sweep-bench")),
        ("cores", Json::Int(cores as i64)),
        (
            "scale_instructions",
            Json::Int(cfg.scale.instructions as i64),
        ),
        ("seed", Json::Int(cfg.seed as i64)),
        (
            "results",
            Json::Arr(runs.iter().map(Measurement::json).collect()),
        ),
    ])
    .encode_pretty()
}

/// Latency percentiles (milliseconds) over one endpoint's requests.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencySummary {
    /// Endpoint label (e.g. `"healthz"`).
    pub endpoint: &'static str,
    /// Requests measured.
    pub requests: usize,
    /// Median latency.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarizes a set of latency samples (milliseconds). Returns
    /// `None` for an empty set.
    pub fn from_samples(endpoint: &'static str, samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pct = |p: f64| {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "p is a percentile in [0, 1], so the rank is at most len; the clamp \
                          bounds it anyway"
            )]
            let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
            sorted[idx]
        };
        Some(LatencySummary {
            endpoint,
            requests: sorted.len(),
            p50_ms: round3(pct(0.50)),
            p90_ms: round3(pct(0.90)),
            p99_ms: round3(pct(0.99)),
            max_ms: round3(sorted[sorted.len() - 1]),
        })
    }

    /// This summary as a JSON object.
    pub fn json(&self) -> Json {
        Json::obj([
            ("endpoint", Json::str(self.endpoint)),
            ("requests", Json::Int(self.requests as i64)),
            ("p50_ms", Json::Float(self.p50_ms)),
            ("p90_ms", Json::Float(self.p90_ms)),
            ("p99_ms", Json::Float(self.p99_ms)),
            ("max_ms", Json::Float(self.max_ms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Measurement {
        Measurement {
            sweep: "fig_3_1",
            mode: "classify",
            threads: 4,
            cells: 1,
            refs: 2_000,
            wall_ms: 500.0,
        }
    }

    #[test]
    fn refs_per_sec_scales_from_millis() {
        assert_eq!(sample().refs_per_sec(), 4_000.0);
        let zero = Measurement {
            wall_ms: 0.0,
            ..sample()
        };
        assert_eq!(zero.refs_per_sec(), 0.0);
    }

    #[test]
    fn json_report_is_parsable_and_complete() {
        let cfg = bench_config();
        let text = render_json(2, &cfg, &[sample(), sample()]);
        let doc = Json::parse(&text).expect("report must be valid JSON");
        assert_eq!(doc.get("cores").unwrap(), &Json::Int(2));
        assert_eq!(doc.get("scale_instructions").unwrap(), &Json::Int(60_000));
        let results = doc.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("sweep").unwrap(), &Json::str("fig_3_1"));
        assert_eq!(results[0].get("cells").unwrap(), &Json::Int(1));
        assert_eq!(
            results[0].get("refs_per_sec").unwrap(),
            &Json::Float(4_000.0)
        );
    }

    #[test]
    fn latency_summary_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = LatencySummary::from_samples("healthz", &samples).unwrap();
        assert_eq!(s.requests, 100);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p90_ms, 90.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert!(LatencySummary::from_samples("x", &[]).is_none());
        let doc = s.json();
        assert_eq!(doc.get("endpoint").unwrap(), &Json::str("healthz"));
        assert_eq!(doc.get("p99_ms").unwrap(), &Json::Float(99.0));
    }

    #[test]
    fn round3_truncates_microseconds() {
        assert_eq!(round3(1.23456), 1.235);
        assert_eq!(round3(0.0004), 0.0);
    }
}
