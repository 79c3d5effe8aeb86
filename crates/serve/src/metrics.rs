//! A tiny Prometheus-text-format metrics registry.
//!
//! Tracks per-endpoint request counts (by status) and latency
//! histograms, plus the gauges/counters the job queue and the
//! experiments crate feed in at render time. Everything is `std`
//! atomics and one mutex; rendering is deterministic (sorted label
//! sets) so tests can assert on exact lines.

// jouppi-lint: allow-file(relaxed-ordering) — every atomic here is a
// monotone fetch_add counter or an independent single-word gauge; totals
// are exact under any ordering and /metrics renders point-in-time
// operational samples, not simulation results.
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Histogram bucket upper bounds, in seconds.
pub const LATENCY_BUCKETS: [f64; 8] = [0.001, 0.005, 0.02, 0.1, 0.25, 1.0, 2.5, 10.0];

/// The endpoint labels requests are classified under.
pub const ENDPOINTS: [&str; 6] = ["healthz", "jobs", "metrics", "other", "simulate", "sweep"];

/// A fixed-bucket latency histogram (`counts[8]` is the +Inf bucket).
#[derive(Default)]
struct Histogram {
    counts: [AtomicU64; 9],
    sum_micros: AtomicU64,
}

impl Histogram {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a latency in whole microseconds; `as` saturates, and u64 microseconds \
                  span 584,000 years"
    )]
    fn observe(&self, seconds: f64) {
        let idx = LATENCY_BUCKETS
            .iter()
            .position(|&b| seconds <= b)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_micros
            .fetch_add((seconds * 1e6) as u64, Ordering::Relaxed);
    }

    fn render(&self, endpoint: &str, out: &mut String) {
        let mut cumulative = 0u64;
        for (i, le) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "jouppi_request_seconds_bucket{{endpoint=\"{endpoint}\",le=\"{le}\"}} {cumulative}\n"
            ));
        }
        cumulative += self.counts[8].load(Ordering::Relaxed);
        out.push_str(&format!(
            "jouppi_request_seconds_bucket{{endpoint=\"{endpoint}\",le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!(
            "jouppi_request_seconds_sum{{endpoint=\"{endpoint}\"}} {}\n",
            self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
        ));
        out.push_str(&format!(
            "jouppi_request_seconds_count{{endpoint=\"{endpoint}\"}} {cumulative}\n"
        ));
    }

    fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// Gauges and counters sampled from the rest of the process at render
/// time (the registry itself only owns request-level metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sampled {
    /// Jobs waiting in the queue.
    pub queue_depth: usize,
    /// Jobs currently executing on queue workers.
    pub jobs_inflight: usize,
    /// Jobs finished (successfully or not) since startup.
    pub jobs_completed: u64,
    /// Open HTTP connections.
    pub connections: usize,
    /// Memory references simulated process-wide
    /// (`jouppi_experiments::common::refs_simulated`).
    pub refs_simulated: u64,
    /// Sweep-engine cells executed process-wide.
    pub sweep_cells: u64,
    /// References answered by the single-pass multi-geometry engine
    /// (`jouppi_experiments::sweep::single_pass_refs`).
    pub single_pass_refs: u64,
    /// Replay throughput (refs/s) of the last completed named sweep.
    pub refs_per_second: u64,
    /// Result-cache memo hits (`jouppi_result_cache_hits_total`).
    pub result_cache_hits: u64,
    /// Result-cache misses that computed (`jouppi_result_cache_misses_total`).
    pub result_cache_misses: u64,
    /// Memoized results displaced by capacity
    /// (`jouppi_result_cache_evictions_total`).
    pub result_cache_evictions: u64,
    /// Requests that rode another request's in-flight computation
    /// (`jouppi_result_cache_coalesced_total`).
    pub result_cache_coalesced: u64,
    /// Encoded bytes of all memoized result documents
    /// (`jouppi_result_cache_bytes_resident`).
    pub result_cache_bytes: u64,
}

/// The registry: per-endpoint request counters and latency histograms.
pub struct Registry {
    requests: Mutex<BTreeMap<(&'static str, u16), u64>>, // jouppi-lint: allow(unbounded-growth) — keyed by (endpoint, status): both drawn from small finite sets, so the map tops out at a few dozen entries
    latency: BTreeMap<&'static str, Histogram>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry covering [`ENDPOINTS`].
    pub fn new() -> Self {
        Registry {
            requests: Mutex::new(BTreeMap::new()),
            latency: ENDPOINTS
                .iter()
                .map(|&e| (e, Histogram::default()))
                .collect(),
        }
    }

    /// Records one finished request.
    ///
    /// `endpoint` must be one of [`ENDPOINTS`]; anything else is folded
    /// into `"other"`.
    pub fn observe(&self, endpoint: &'static str, status: u16, seconds: f64) {
        let endpoint = if self.latency.contains_key(endpoint) {
            endpoint
        } else {
            "other"
        };
        *self
            .requests
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry((endpoint, status))
            .or_insert(0) += 1;
        self.latency[endpoint].observe(seconds);
    }

    /// Total requests observed for one endpoint (any status).
    pub fn requests_for(&self, endpoint: &str) -> u64 {
        self.latency.get(endpoint).map_or(0, Histogram::count)
    }

    /// Renders everything in Prometheus text exposition format.
    pub fn render(&self, sampled: &Sampled) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# HELP jouppi_http_requests_total Completed HTTP requests.\n");
        out.push_str("# TYPE jouppi_http_requests_total counter\n");
        for ((endpoint, status), count) in self
            .requests
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            out.push_str(&format!(
                "jouppi_http_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {count}\n"
            ));
        }
        out.push_str("# HELP jouppi_request_seconds Request service time.\n");
        out.push_str("# TYPE jouppi_request_seconds histogram\n");
        for (endpoint, histogram) in &self.latency {
            if histogram.count() > 0 {
                histogram.render(endpoint, &mut out);
            }
        }
        let gauges: [(&str, &str, u64); 13] = [
            (
                "jouppi_jobs_queue_depth",
                "Jobs waiting in the bounded queue.",
                sampled.queue_depth as u64,
            ),
            (
                "jouppi_jobs_inflight",
                "Jobs currently executing.",
                sampled.jobs_inflight as u64,
            ),
            (
                "jouppi_jobs_completed_total",
                "Jobs finished since startup.",
                sampled.jobs_completed,
            ),
            (
                "jouppi_http_connections",
                "Open HTTP connections.",
                sampled.connections as u64,
            ),
            (
                "jouppi_refs_simulated_total",
                "Memory references replayed through cache models.",
                sampled.refs_simulated,
            ),
            (
                "jouppi_sweep_cells_total",
                "Sweep-engine cells executed.",
                sampled.sweep_cells,
            ),
            (
                "jouppi_single_pass_refs_total",
                "References answered by the single-pass multi-geometry engine.",
                sampled.single_pass_refs,
            ),
            (
                "jouppi_refs_per_second",
                "Replay throughput of the last completed sweep.",
                sampled.refs_per_second,
            ),
            (
                "jouppi_result_cache_hits_total",
                "Requests answered from the content-addressed result cache.",
                sampled.result_cache_hits,
            ),
            (
                "jouppi_result_cache_misses_total",
                "Requests that computed because no memoized result existed.",
                sampled.result_cache_misses,
            ),
            (
                "jouppi_result_cache_evictions_total",
                "Memoized results displaced by the cache capacity bound.",
                sampled.result_cache_evictions,
            ),
            (
                "jouppi_result_cache_coalesced_total",
                "Requests merged onto another request's in-flight computation.",
                sampled.result_cache_coalesced,
            ),
            (
                "jouppi_result_cache_bytes_resident",
                "Encoded bytes of all memoized result documents.",
                sampled.result_cache_bytes,
            ),
        ];
        for (name, help, value) in gauges {
            let kind = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_show_up_in_render() {
        let r = Registry::new();
        r.observe("healthz", 200, 0.0004);
        r.observe("healthz", 200, 0.003);
        r.observe("sweep", 503, 0.2);
        r.observe("bogus", 200, 0.1); // folded into "other"
        let text = r.render(&Sampled {
            queue_depth: 2,
            jobs_inflight: 1,
            jobs_completed: 7,
            connections: 3,
            refs_simulated: 1_000,
            sweep_cells: 12,
            single_pass_refs: 555,
            refs_per_second: 1_234,
            result_cache_hits: 40,
            result_cache_misses: 9,
            result_cache_evictions: 2,
            result_cache_coalesced: 6,
            result_cache_bytes: 4_096,
        });
        assert!(text.contains("jouppi_http_requests_total{endpoint=\"healthz\",status=\"200\"} 2"));
        assert!(text.contains("jouppi_http_requests_total{endpoint=\"sweep\",status=\"503\"} 1"));
        assert!(text.contains("jouppi_http_requests_total{endpoint=\"other\",status=\"200\"} 1"));
        assert!(text.contains("jouppi_request_seconds_bucket{endpoint=\"healthz\",le=\"0.001\"} 1"));
        assert!(text.contains("jouppi_request_seconds_bucket{endpoint=\"healthz\",le=\"+Inf\"} 2"));
        assert!(text.contains("jouppi_request_seconds_count{endpoint=\"healthz\"} 2"));
        assert!(text.contains("jouppi_jobs_queue_depth 2"));
        assert!(text.contains("jouppi_jobs_completed_total 7"));
        assert!(text.contains("jouppi_refs_simulated_total 1000"));
        assert!(text.contains("# TYPE jouppi_single_pass_refs_total counter"));
        assert!(text.contains("jouppi_single_pass_refs_total 555"));
        assert!(text.contains("# TYPE jouppi_refs_per_second gauge"));
        assert!(text.contains("jouppi_refs_per_second 1234"));
        assert!(text.contains("# TYPE jouppi_result_cache_hits_total counter"));
        assert!(text.contains("jouppi_result_cache_hits_total 40"));
        assert!(text.contains("jouppi_result_cache_misses_total 9"));
        assert!(text.contains("jouppi_result_cache_evictions_total 2"));
        assert!(text.contains("jouppi_result_cache_coalesced_total 6"));
        assert!(text.contains("# TYPE jouppi_result_cache_bytes_resident gauge"));
        assert!(text.contains("jouppi_result_cache_bytes_resident 4096"));
        assert_eq!(r.requests_for("healthz"), 2);
        assert_eq!(r.requests_for("nope"), 0);
    }

    #[test]
    fn bucket_edges_are_inclusive() {
        let h = Histogram::default();
        h.observe(0.001);
        h.observe(100.0);
        assert_eq!(h.counts[0].load(Ordering::Relaxed), 1);
        assert_eq!(h.counts[8].load(Ordering::Relaxed), 1);
        assert_eq!(h.count(), 2);
    }
}
