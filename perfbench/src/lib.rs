//! `jouppi-bench`: the committed end-to-end and per-layer benchmark of the
//! Jouppi (ISCA 1990) reproduction.
//!
//! The benchmark measures the program from outside: it calls the library
//! crates' public entry points (sweeps) and drives an in-process
//! `jouppi-serve` daemon over loopback (serving), and changes none of them.
//! Four workloads ([`WORKLOADS`]) each report the end-to-end metrics named
//! in `BENCHMARK.json`; a traced run (`--trace 1`) replays each workload's
//! work through the layers' public functions under spans ([`spans`]) and
//! reports the per-layer metrics. See `README.md` beside this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod serving;
pub mod spans;
pub mod sweeps;

use jouppi_serve::json::Json;

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["sweep_augmented", "sweep_l1", "serve_simulate", "serve_hot"];

/// Scale of the correctness gate every workload runs before timing.
pub const GATE_SCALE: u64 = 8_000;

/// Samples a tail percentile must leave beyond it before it is reported,
/// so that a tail rests on more than a handful of requests.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles [`tail_percentile`] considers, highest first, in tenths
/// of a percent (so ranks are exact integer arithmetic).
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// How one run was asked to behave.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunOptions {
    /// Input seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
    /// Smoke mode: tiny inputs, one set-up, short phases.
    pub quick: bool,
}

/// One metric as printed: value and unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit string as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, sweep calls, correctness checks).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// The metrics of this run (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Everything else worth printing: sample counts, quartiles, tails,
    /// result digests, the full per-layer breakdown.
    pub detail: Vec<(String, Json)>,
    /// The traced run's spans as JSON lines (empty when untraced).
    pub spans_jsonl: String,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Adds a detail field.
    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_owned(), value));
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line the benchmark prints last.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Float(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .encode()
    }
}

/// Median of `values` (mean of the middle two for even counts); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads this crate reports match the ones a Python reader computes.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// A tail latency: which percentile, its value, and how many samples lie
/// beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 99.0).
    pub percentile: f64,
    /// Its value, nearest-rank.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest percentile of `samples` with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, nearest-rank; `None` when even
/// the median leaves fewer (under 20 samples).
pub fn tail_percentile(samples: &[f64]) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&tenths| {
        // Nearest rank: the smallest rank covering the percentile.
        let rank = (n * tenths).div_ceil(1000).max(1);
        let beyond = n - rank;
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail {
            percentile: tenths as f64 / 10.0,
            value: sorted[rank - 1],
            beyond,
        })
    })
}

/// Median, quartiles and count of a sample set, as a detail object.
pub fn summary_json(values: &[f64]) -> Json {
    let (q1, q3) = quartiles(values).unwrap_or((f64::NAN, f64::NAN));
    Json::obj([
        ("n", Json::Int(values.len() as i64)),
        ("median", Json::Float(median(values))),
        ("q1", Json::Float(q1)),
        ("q3", Json::Float(q3)),
    ])
}

/// A latency distribution as a detail object: median, tail percentile,
/// sample count and samples beyond the tail.
pub fn latency_json(samples_ms: &[f64]) -> Json {
    let tail = tail_percentile(samples_ms);
    Json::obj([
        ("samples", Json::Int(samples_ms.len() as i64)),
        ("p50_ms", Json::Float(median(samples_ms))),
        (
            "tail_percentile",
            tail.map_or(Json::Null, |t| Json::Float(t.percentile)),
        ),
        ("tail_ms", tail.map_or(Json::Null, |t| Json::Float(t.value))),
        (
            "beyond_tail",
            tail.map_or(Json::Null, |t| Json::Int(t.beyond as i64)),
        ),
    ])
}

/// Processor time of this process's live threads, per thread, read from
/// `/proc/self/task/*/schedstat` (nanoseconds on the CPU; on a virtual
/// machine with steal-time accounting, time the host gave to other guests
/// is not counted).
///
/// The clock counts live threads only, so a measured interval keeps its
/// work on threads that outlive it: the sweep pool runs on the calling
/// thread and the serving client holds one keep-alive connection (one
/// daemon thread) for a whole phase.
#[derive(Clone, Debug, Default)]
struct CpuSnapshot(Vec<(u32, u64)>);

impl CpuSnapshot {
    /// Reads every live thread's processor time; empty where `/proc` is
    /// unavailable.
    fn take() -> CpuSnapshot {
        // The kernel brings a running thread's count up to date only at
        // a tick or a switch; yielding makes the calling thread's current.
        std::thread::yield_now();
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return CpuSnapshot::default();
        };
        let mut threads: Vec<(u32, u64)> = dir
            .filter_map(|entry| {
                let tid: u32 = entry.ok()?.file_name().to_str()?.parse().ok()?;
                // A thread may exit between the listing and this read.
                let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"));
                let ns = stat.ok()?.split_whitespace().next()?.parse().ok()?;
                Some((tid, ns))
            })
            .collect();
        threads.sort_unstable();
        CpuSnapshot(threads)
    }

    /// Processor seconds the process spent since `earlier`: each thread's
    /// growth, counting threads started since in full. A thread that
    /// exited in between contributes nothing.
    fn seconds_since(&self, earlier: &CpuSnapshot) -> f64 {
        let ns: u64 = self
            .0
            .iter()
            .map(|&(tid, now)| {
                let before = earlier
                    .0
                    .binary_search_by_key(&tid, |&(t, _)| t)
                    .map_or(0, |i| earlier.0[i].1);
                now.saturating_sub(before)
            })
            .sum();
        ns as f64 / 1e9
    }
}

/// Addresses one reference slice simulates.
const SLICE_REFS: u64 = 1_000_000;

/// Processor seconds one reference slice takes on a quiet host (the
/// 2-vCPU Xeon VM the bounds in `BENCHMARK.json` come from). It sets only
/// the scale of normalized times.
const SLICE_NOMINAL_S: f64 = 2.2e-3;

/// Runs one slice of the reference computation — frozen benchmark code,
/// not the program's: a direct-mapped cache of 8192 lines simulated over
/// a fixed address stream, mostly sequential with random jumps — and
/// returns the processor seconds it took.
fn reference_slice() -> f64 {
    let start = CpuSnapshot::take();
    let mut tags = [u64::MAX; 8192];
    let (mut x, mut addr, mut misses) = (0x9E37_79B9_7F4A_7C15_u64, 0u64, 0u64);
    for _ in 0..SLICE_REFS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        addr = if x >> 60 == 0 { x >> 34 } else { addr + 8 };
        let line = addr >> 4;
        let set = line as usize % tags.len();
        if tags[set] != line {
            tags[set] = line;
            misses += 1;
        }
    }
    std::hint::black_box(misses);
    CpuSnapshot::take().seconds_since(&start)
}

/// What a piece of work cost.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cost {
    /// Processor seconds the process spent on it.
    pub cpu_s: f64,
    /// The same, normalized: scaled by `SLICE_NOMINAL_S` over the time
    /// the reference slices around it took.
    pub norm_s: f64,
}

/// Runs `f` between two slices of a fixed reference computation; returns
/// its value and its cost.
///
/// The benchmark times work by processor time, not the wall clock: on a
/// shared host the wall clock also counts time the scheduler or the
/// hypervisor gave to others. Processor time still counts how fast the
/// processor ran, which drifts by the minute on a shared host: another
/// tenant on the sibling hyperthread, or a lower clock, slows every
/// instruction. The reference slices run on the same processor just
/// before and after `f`; scaling by their mean cancels much of that
/// drift (about half of the worst slowdowns measured). The reference is
/// the benchmark's own code, so a change to the program moves only the
/// work it times.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let before = reference_slice();
    let start = CpuSnapshot::take();
    let out = f();
    let cpu_s = CpuSnapshot::take().seconds_since(&start);
    let slice_s = (before + reference_slice()) / 2.0;
    let norm_s = cpu_s * SLICE_NOMINAL_S / slice_s;
    (out, Cost { cpu_s, norm_s })
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// 64-bit FNV-1a, the digest behind `results_digest`: the same simulated
/// statistics give the same digest on any commit.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of one value's `Debug` rendering.
pub fn digest_debug(value: &impl std::fmt::Debug) -> String {
    let mut d = Digest::default();
    d.update(format!("{value:?}").as_bytes());
    d.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the data on tiny samples.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn processor_clock_counts_this_threads_work() {
        let spin = || {
            let start = std::time::Instant::now();
            let mut x = 0u64;
            while start.elapsed().as_millis() < 50 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        };
        let before = CpuSnapshot::take();
        spin();
        let spent = CpuSnapshot::take().seconds_since(&before);
        assert!(spent > 0.01 && spent < 5.0, "{spent}");
        let ((), cost) = timed(spin);
        assert!(cost.cpu_s > 0.01 && cost.cpu_s < 5.0, "{cost:?}");
        assert!(cost.norm_s.is_finite() && cost.norm_s > 0.0, "{cost:?}");
        // A thread unknown to the earlier snapshot counts in full; one
        // missing from the later snapshot counts nothing.
        let (a, b) = (CpuSnapshot(vec![(1, 5)]), CpuSnapshot(vec![(2, 7)]));
        assert_eq!(b.seconds_since(&a), 7e-9);
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut o = Outcome::default();
        o.check(true);
        o.metric("setup_s", 0.5, "s");
        let doc = Json::parse(&o.result_line()).expect("valid JSON");
        let Json::Obj(pairs) = &doc else {
            panic!("object expected")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("unit"), Some(&Json::str("s")));
    }
}
