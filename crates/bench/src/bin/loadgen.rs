//! Load generator for the `jouppi-serve` daemon.
//!
//! Boots an in-process server on an ephemeral loopback port, hammers it
//! from several concurrent keep-alive connections with a realistic
//! endpoint mix (`/healthz`, `POST /v1/simulate`, `/metrics`), runs a
//! Zipf-skewed duplicate-request phase against the result cache (same
//! mix with the cache bypassed, then enabled, to measure the served-RPS
//! delta), then deliberately overflows the sweep queue to measure
//! backpressure, and finally drains the daemon gracefully. Writes
//! `BENCH_serve.json`.
//!
//! Usage: `loadgen [REQUESTS] [CONNECTIONS] [OUT_PATH]`
//!        `loadgen --cache-smoke`
//!
//! * `REQUESTS` — total steady-state requests across all connections
//!   (default 600).
//! * `CONNECTIONS` — concurrent keep-alive client connections
//!   (default 4).
//! * `OUT_PATH` — where to write the JSON report (default
//!   `BENCH_serve.json` in the current directory).
//! * `--cache-smoke` — instead of benchmarking, assert the result
//!   cache's observable behavior (miss → hit; bypass stays bypass) and
//!   exit; nonzero on failure. CI's cache gate.

#![warn(clippy::cast_possible_truncation)]
#![allow(
    clippy::disallowed_types,
    reason = "a load generator measures wall-clock latency; it produces no simulation results"
)]

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

use jouppi_bench::{round3, LatencySummary};
use jouppi_serve::json::Json;
use jouppi_serve::server::ServerConfig;
use jouppi_serve::{Client, Server};
use jouppi_trace::SmallRng;
use jouppi_workloads::data::{DataPattern, TableLookup};

/// Instructions per simulate request: small enough that a request is
/// a few milliseconds, large enough to exercise the full replay path.
const SIMULATE_SCALE: u64 = 20_000;

/// Scale for the queue-overflow sweep jobs: big enough that jobs
/// outlive the burst of submissions that must overflow the queue.
const SWEEP_SCALE: u64 = 30_000;

/// Workloads rotated through the simulate mix.
const WORKLOADS: [&str; 3] = ["ccom", "met", "liver"];

/// Zipf exponent for the duplicate-request phase: skewed enough that a
/// handful of hot configurations dominate, like a dashboard refreshing
/// the same sweeps (acceptance floor is skew >= 0.9).
const ZIPF_SKEW: f64 = 1.1;

/// Distinct simulate configurations the Zipf phase draws from.
const ZIPF_DISTINCT: usize = 48;

/// Scale for Zipf-phase simulations: big enough (~milliseconds each)
/// that recomputation, not HTTP framing, dominates a cache-off pass.
const ZIPF_SCALE: u64 = 200_000;

/// Minimum Zipf-phase requests, so hit rates are measured on a stream
/// long enough to converge past the compulsory-miss prefix.
const ZIPF_MIN_REQUESTS: usize = 480;

/// One timed request: endpoint label, latency, status.
struct Sample {
    endpoint: &'static str,
    ms: f64,
    status: u16,
}

fn timed(
    client: &mut Client,
    endpoint: &'static str,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> Sample {
    let start = Instant::now();
    let status = client
        .request(method, path, body)
        .map(|r| r.status)
        .unwrap_or(0);
    Sample {
        endpoint,
        ms: start.elapsed().as_secs_f64() * 1000.0,
        status,
    }
}

/// One connection's worth of the steady-state mix: mostly simulate,
/// with healthz and metrics sprinkled in the way a probe/scraper would.
fn drive_connection(addr: SocketAddr, requests: usize, worker: usize) -> Vec<Sample> {
    let mut client = Client::connect(addr).expect("loadgen connect");
    let mut samples = Vec::with_capacity(requests);
    for i in 0..requests {
        let sample = match i % 10 {
            0 => timed(&mut client, "healthz", "GET", "/healthz", None),
            5 => timed(&mut client, "metrics", "GET", "/metrics", None),
            _ => {
                let body = Json::obj([
                    (
                        "workload",
                        Json::str(WORKLOADS[(worker + i) % WORKLOADS.len()]),
                    ),
                    ("scale", Json::Int(SIMULATE_SCALE as i64)),
                    ("seed", Json::Int((42 + worker) as i64)),
                    ("victim", Json::Int(4)),
                ]);
                // The steady-state mix bypasses the result cache so its
                // latency numbers keep measuring raw service cost; the
                // Zipf phase below measures the cache on purpose.
                timed(
                    &mut client,
                    "simulate",
                    "POST",
                    "/v1/simulate?cache=bypass",
                    Some(&body),
                )
            }
        };
        samples.push(sample);
    }
    samples
}

/// Fires async sweep submissions faster than the workers can drain them
/// and counts how many are accepted (202) versus shed (503).
fn overflow_burst(addr: SocketAddr, submissions: usize) -> (u64, u64, bool) {
    let mut client = Client::connect(addr).expect("overflow connect");
    let body = Json::obj([
        ("sweep", Json::str("fig_3_1")),
        ("scale", Json::Int(SWEEP_SCALE as i64)),
    ]);
    let (mut accepted, mut shed, mut retry_after) = (0u64, 0u64, false);
    // Bypass the result cache: identical submissions must each take a
    // real queue slot, or the queue can never overflow.
    for _ in 0..submissions {
        let resp = client
            .request("POST", "/v1/sweep?cache=bypass", Some(&body))
            .expect("overflow request");
        match resp.status {
            202 => accepted += 1,
            503 => {
                shed += 1;
                retry_after |= resp.header("retry-after").is_some();
            }
            other => panic!("unexpected overflow status {other}"),
        }
    }
    (accepted, shed, retry_after)
}

/// The simulate body for one Zipf rank: each rank is a distinct
/// (workload, seed) configuration, so distinct ranks never share a
/// cache entry.
fn zipf_body(rank: u64) -> Json {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the remainder is below WORKLOADS.len()"
    )]
    let workload = WORKLOADS[(rank % WORKLOADS.len() as u64) as usize];
    Json::obj([
        ("workload", Json::str(workload)),
        ("scale", Json::Int(ZIPF_SCALE as i64)),
        ("seed", Json::Int(1_000 + rank as i64)),
        ("victim", Json::Int(4)),
    ])
}

/// One connection's deterministic Zipf-skewed rank stream. Both passes
/// (cache bypassed and cache enabled) replay exactly this sequence.
fn zipf_ranks(requests: usize, worker: usize) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(0x5eed_2100 + worker as u64);
    let mut table = TableLookup::new(0, ZIPF_DISTINCT, 1, ZIPF_SKEW);
    (0..requests)
        .map(|_| table.next_addr(&mut rng).get())
        .collect()
}

/// Replays the Zipf mix once, returning the wall time and the response
/// body observed for each rank (asserted identical on every repeat).
fn zipf_pass(
    addr: SocketAddr,
    connections: usize,
    per_conn: usize,
    bypass: bool,
) -> (f64, BTreeMap<u64, String>) {
    let path = if bypass {
        "/v1/simulate?cache=bypass"
    } else {
        "/v1/simulate"
    };
    let start = Instant::now();
    let maps: Vec<BTreeMap<u64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|worker| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("zipf connect");
                    let mut seen: BTreeMap<u64, String> = BTreeMap::new();
                    for rank in zipf_ranks(per_conn, worker) {
                        let resp = client
                            .request("POST", path, Some(&zipf_body(rank)))
                            .expect("zipf request");
                        assert_eq!(resp.status, 200, "zipf simulate failed: {}", resp.text());
                        let text = resp.text();
                        match seen.get(&rank) {
                            None => {
                                seen.insert(rank, text);
                            }
                            Some(previous) => assert_eq!(
                                *previous, text,
                                "rank {rank} responses diverged within a pass"
                            ),
                        }
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let mut merged: BTreeMap<u64, String> = BTreeMap::new();
    for map in maps {
        for (rank, text) in map {
            match merged.get(&rank) {
                None => {
                    merged.insert(rank, text);
                }
                Some(previous) => assert_eq!(
                    *previous, text,
                    "rank {rank} responses diverged across connections"
                ),
            }
        }
    }
    (wall_ms, merged)
}

/// Scrapes the three result-cache counters in one round trip.
fn scrape_cache_counters(addr: SocketAddr) -> (u64, u64, u64) {
    let text = Client::connect(addr)
        .and_then(|mut c| c.request("GET", "/metrics", None))
        .map(|r| r.text())
        .unwrap_or_default();
    (
        scrape_counter(&text, "jouppi_result_cache_hits_total"),
        scrape_counter(&text, "jouppi_result_cache_misses_total"),
        scrape_counter(&text, "jouppi_result_cache_coalesced_total"),
    )
}

/// The Zipf duplicate-request phase: replay the same skewed mix with
/// the cache bypassed, then enabled, and report the served-RPS delta
/// with the hit/coalesce counters that account for it.
fn run_zipf_phase(addr: SocketAddr, requests: usize, connections: usize) -> Json {
    let total = requests.max(ZIPF_MIN_REQUESTS);
    let per_conn = total.div_ceil(connections);
    eprintln!(
        "zipf phase: {} requests over {connections} connection(s), \
         skew {ZIPF_SKEW}, {ZIPF_DISTINCT} distinct configs",
        per_conn * connections
    );

    // Pass 1 — cache bypassed: every request pays full recomputation.
    let (off_ms, off_bodies) = zipf_pass(addr, connections, per_conn, true);

    // Pass 2 — cache enabled: same streams, duplicates hit or coalesce.
    let (hits0, misses0, coalesced0) = scrape_cache_counters(addr);
    let (on_ms, on_bodies) = zipf_pass(addr, connections, per_conn, false);
    let (hits1, misses1, coalesced1) = scrape_cache_counters(addr);

    // Cached responses must be byte-identical to uncached ones.
    assert_eq!(
        off_bodies, on_bodies,
        "cache-on responses differ from cache-off responses"
    );

    let (hits, misses, coalesced) = (hits1 - hits0, misses1 - misses0, coalesced1 - coalesced0);
    let n = (per_conn * connections) as f64;
    let rps_off = if off_ms > 0.0 {
        n * 1000.0 / off_ms
    } else {
        0.0
    };
    let rps_on = if on_ms > 0.0 { n * 1000.0 / on_ms } else { 0.0 };
    let speedup = if rps_off > 0.0 { rps_on / rps_off } else { 0.0 };
    eprintln!(
        "zipf phase: {rps_off:.0} -> {rps_on:.0} req/s ({speedup:.1}x); \
         {hits} hit(s), {misses} miss(es), {coalesced} coalesced"
    );

    Json::obj([
        ("skew", Json::Float(ZIPF_SKEW)),
        ("distinct", Json::Int(ZIPF_DISTINCT as i64)),
        ("requests", Json::Int((per_conn * connections) as i64)),
        ("hits", Json::Int(hits as i64)),
        ("misses", Json::Int(misses as i64)),
        ("coalesced", Json::Int(coalesced as i64)),
        (
            "hit_rate",
            Json::Float(round3((hits + coalesced) as f64 / n)),
        ),
        ("coalesce_rate", Json::Float(round3(coalesced as f64 / n))),
        ("rps_cache_off", Json::Float(rps_off.round())),
        ("rps_cache_on", Json::Float(rps_on.round())),
        ("speedup", Json::Float(round3(speedup))),
        ("responses_identical", Json::Bool(true)),
    ])
}

/// CI's cache gate: a repeat request must report a hit, and a bypassed
/// repeat must not. Panics (nonzero exit) on any violation.
fn cache_smoke() {
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    })
    .expect("cache-smoke server");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("cache-smoke connect");
    let body = Json::obj([
        ("workload", Json::str("met")),
        ("scale", Json::Int(SIMULATE_SCALE as i64)),
        ("victim", Json::Int(4)),
    ]);
    let note = |resp: &jouppi_serve::ClientResponse| {
        resp.header("x-jouppi-cache").unwrap_or("<none>").to_owned()
    };

    let first = client
        .request("POST", "/v1/simulate", Some(&body))
        .expect("first request");
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(note(&first), "miss", "first request must compute");

    let second = client
        .request("POST", "/v1/simulate", Some(&body))
        .expect("repeat request");
    assert_eq!(second.status, 200, "{}", second.text());
    assert_eq!(note(&second), "hit", "repeat request must hit the cache");
    assert_eq!(
        first.text(),
        second.text(),
        "cached response must be byte-identical"
    );

    let bypassed = client
        .request("POST", "/v1/simulate?cache=bypass", Some(&body))
        .expect("bypass request");
    assert_eq!(bypassed.status, 200, "{}", bypassed.text());
    assert_eq!(note(&bypassed), "bypass", "bypass must not read the cache");
    assert_eq!(
        first.text(),
        bypassed.text(),
        "bypassed response must be byte-identical"
    );

    let (hits, misses, _) = scrape_cache_counters(addr);
    assert_eq!(hits, 1, "exactly the repeat request hits");
    assert_eq!(misses, 1, "exactly the first request misses");
    handle.shutdown();
    eprintln!("cache smoke: miss -> hit -> bypass all behaved; responses byte-identical");
}

/// Pulls one counter out of the Prometheus exposition text.
#[expect(
    clippy::cast_possible_truncation,
    reason = "Prometheus prints integer counters as floats; `as` saturates"
)]
fn scrape_counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse::<f64>().ok())
        })
        .map(|v| v as u64)
        .unwrap_or(0)
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("--cache-smoke") {
        cache_smoke();
        return;
    }
    let requests: usize = args
        .next()
        .map(|r| r.parse().expect("REQUESTS must be an integer"))
        .unwrap_or(600);
    let connections: usize = args
        .next()
        .map(|r| r.parse().expect("CONNECTIONS must be an integer"))
        .unwrap_or(4)
        .max(1);
    let out = args.next().unwrap_or_else(|| "BENCH_serve.json".to_owned());

    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 2,
        ..ServerConfig::default()
    };
    let handle = Server::start(cfg.clone()).expect("loadgen server");
    let addr = handle.addr();
    eprintln!(
        "loadgen: {requests} requests over {connections} connection(s) against http://{addr}"
    );

    // Steady-state phase.
    let per_conn = requests.div_ceil(connections);
    let start = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|w| scope.spawn(move || drive_connection(addr, per_conn, w)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;

    // Zipf duplicate-request phase: cache off vs cache on.
    let zipf = run_zipf_phase(addr, requests, connections);

    // Backpressure phase: overfill the 2-deep queue.
    let submissions = 4 * (cfg.workers + cfg.queue_depth);
    let (accepted, shed, retry_after) = overflow_burst(addr, submissions);

    let metrics_text = Client::connect(addr)
        .and_then(|mut c| c.request("GET", "/metrics", None))
        .map(|r| r.text())
        .unwrap_or_default();
    let refs_simulated = scrape_counter(&metrics_text, "jouppi_refs_simulated_total");

    let stats = handle.shutdown();

    // Aggregate.
    let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
    for s in &samples {
        *statuses.entry(s.status).or_insert(0) += 1;
    }
    let mut latency = Vec::new();
    for endpoint in ["healthz", "simulate", "metrics"] {
        let subset: Vec<f64> = samples
            .iter()
            .filter(|s| s.endpoint == endpoint)
            .map(|s| s.ms)
            .collect();
        if let Some(summary) = LatencySummary::from_samples(endpoint, &subset) {
            eprintln!(
                "{:>9}: {:>5} reqs, p50 {:>7.3} ms, p99 {:>7.3} ms, max {:>7.3} ms",
                summary.endpoint, summary.requests, summary.p50_ms, summary.p99_ms, summary.max_ms
            );
            latency.push(summary);
        }
    }
    let total = samples.len();
    let rps = if wall_ms > 0.0 {
        total as f64 * 1000.0 / wall_ms
    } else {
        0.0
    };
    eprintln!(
        "throughput: {rps:.0} req/s; overflow: {accepted} accepted, {shed} shed (503); \
         {} job(s) drained at shutdown",
        stats.jobs_completed
    );

    let report = Json::obj([
        ("benchmark", Json::str("loadgen")),
        ("connections", Json::Int(connections as i64)),
        ("requests", Json::Int(total as i64)),
        ("wall_ms", Json::Float(round3(wall_ms))),
        ("requests_per_sec", Json::Float(rps.round())),
        (
            "latency",
            Json::Arr(latency.iter().map(LatencySummary::json).collect()),
        ),
        (
            "statuses",
            Json::Obj(
                statuses
                    .iter()
                    .map(|(code, n)| (code.to_string(), Json::Int(*n as i64)))
                    .collect(),
            ),
        ),
        (
            "overflow",
            Json::obj([
                ("submitted", Json::Int(submissions as i64)),
                ("accepted_202", Json::Int(accepted as i64)),
                ("rejected_503", Json::Int(shed as i64)),
                ("retry_after_seen", Json::Bool(retry_after)),
            ]),
        ),
        ("zipf", zipf),
        ("jobs_drained", Json::Int(stats.jobs_completed as i64)),
        ("refs_simulated", Json::Int(refs_simulated as i64)),
    ])
    .encode_pretty();
    std::fs::write(&out, &report).expect("failed to write the loadgen report");
    eprintln!("wrote {out}");
}
