//! The serving workloads: an in-process `jouppi-serve` daemon with the
//! default configuration, driven over loopback by this process.
//!
//! * `serve_simulate` — design-space-exploration users: every request a
//!   distinct `POST /v1/simulate`, so trace recording dominates and the
//!   result cache only misses, inserts and evicts.
//! * `serve_hot` — dashboards that re-request: 99% Zipf-distributed
//!   repeats of 48 named sweeps (result-cache hits) and 1% distinct
//!   simulations (inserts).
//!
//! Load comes from one client on the calling thread over one keep-alive
//! connection, each request sent as soon as the previous answer arrives.
//! A phase is cut into half-second windows, each timed between
//! reference slices ([`crate::timed`]); the headline is the median over
//! windows of the normalized processor time the process (daemon and
//! client) spent per request. Wall-clock latencies and rates go to the
//! details line.

use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use jouppi_cache::CacheGeometry;
use jouppi_core::{AugmentedCache, AugmentedConfig, StreamBufferConfig};
use jouppi_serve::http::{HttpConn, Limits, Response};
use jouppi_serve::json::Json;
use jouppi_serve::result_cache::{content_key, Lookup, TryLookup};
use jouppi_serve::{sim, sweeps, CacheConfig, Client, ResultCache, Server, ServerConfig};
use jouppi_trace::{RecordedTrace, SmallRng};
use jouppi_workloads::{Benchmark, Scale};

use crate::spans::{breakdown, Tracer};
use crate::GATE_SCALE;
use crate::{latency_json, median, peak_rss_mb, summary_json, timed, Cost, Digest};
use crate::{Outcome, RunOptions};

/// Every n-th request body is kept: checked against the in-process
/// function and, in the traced run, replayed through the serve layers.
const SAMPLE_EVERY: usize = 50;

/// Zipf exponent of the hot keys.
const ZIPF_SKEW: f64 = 1.1;

/// Seeds per named sweep in the hot key set (6 sweeps × 8 = 48 keys).
const HOT_SEEDS: u64 = 8;

/// Every this many-th `serve_hot` request is a distinct simulation (1%).
/// Evenly spaced, so every run's 1-in-[`SAMPLE_EVERY`] sample of them
/// starts with its first.
const COLD_EVERY: usize = 100;

/// Simulate requests that warm a fresh `serve_simulate` daemon.
const WARM_REQUESTS: usize = 64;

/// Length of one measurement window, seconds.
const WINDOW_S: f64 = 0.5;

/// Sizes of one serving workload.
#[derive(Clone, Copy, Debug)]
struct Sizes {
    sim_scale: u64,
    hot_sweep_scale: u64,
    hot_sim_scale: u64,
}

fn sizes(opts: &RunOptions) -> Sizes {
    if opts.quick {
        Sizes {
            sim_scale: 5_000,
            hot_sweep_scale: 4_000,
            hot_sim_scale: 2_000,
        }
    } else {
        Sizes {
            sim_scale: 50_000,
            hot_sweep_scale: 20_000,
            hot_sim_scale: 10_000,
        }
    }
}

/// One distinct `/v1/simulate` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SimSpec {
    bench: Benchmark,
    scale: u64,
    seed: u64,
    /// 0 = victim cache 4, 1 = stream buffers 4×4, 2 = miss cache 2.
    aid: usize,
}

impl SimSpec {
    /// The `index`-th request of a run: benchmarks and aids rotate, and
    /// every index gets its own trace seed, so no two requests share a
    /// result-cache entry.
    fn nth(run_seed: u64, index: usize, scale: u64) -> SimSpec {
        SimSpec {
            bench: Benchmark::ALL[index % Benchmark::ALL.len()],
            scale,
            seed: (run_seed.wrapping_mul(1 << 26) ^ index as u64) & (u64::MAX >> 2),
            aid: (index / Benchmark::ALL.len()) % 3,
        }
    }

    fn body(&self) -> Json {
        let mut pairs = vec![
            ("workload", Json::str(self.bench.name())),
            ("scale", Json::Int(self.scale as i64)),
            ("seed", Json::Int(self.seed as i64)),
        ];
        pairs.push(match self.aid {
            0 => ("victim", Json::Int(4)),
            1 => (
                "stream",
                Json::obj([("ways", Json::Int(4)), ("depth", Json::Int(4))]),
            ),
            _ => ("miss_cache", Json::Int(2)),
        });
        Json::obj(pairs)
    }

    /// The organization `sim::simulate` builds from [`SimSpec::body`].
    fn config(&self) -> AugmentedConfig {
        let base = AugmentedConfig::new(
            CacheGeometry::direct_mapped(4096, 16).expect("default geometry is valid"),
        );
        match self.aid {
            0 => base.victim_cache(4),
            1 => base.multi_way_stream_buffer(4, StreamBufferConfig::new(4)),
            _ => base.miss_cache(2),
        }
    }
}

/// One hot key: a named sweep at one seed.
fn hot_body(rank: usize, run_seed: u64, scale: u64) -> (String, u64, Json) {
    let name = sweeps::NAMED_SWEEPS[rank % sweeps::NAMED_SWEEPS.len()];
    let seed = run_seed.wrapping_add((rank / sweeps::NAMED_SWEEPS.len()) as u64) & (u64::MAX >> 2);
    let body = Json::obj([
        ("sweep", Json::str(name)),
        ("seed", Json::Int(seed as i64)),
        ("scale", Json::Int(scale as i64)),
        ("wait", Json::Bool(true)),
    ]);
    (name.to_owned(), seed, body)
}

fn hot_keys() -> usize {
    sweeps::NAMED_SWEEPS.len() * HOT_SEEDS as usize
}

/// Cumulative Zipf(`skew`) weights over `n` ranks.
fn zipf_cdf(n: usize, skew: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cum: Vec<f64> = (1..=n)
        .map(|k| {
            acc += (k as f64).powf(-skew);
            acc
        })
        .collect();
    for c in &mut cum {
        *c /= acc;
    }
    cum
}

/// A request the client sends.
struct Req {
    path: &'static str,
    body: Json,
    /// The response body must equal these bytes.
    expect: Option<Arc<Vec<u8>>>,
    /// Keep the request and its response for the sampled checks.
    keep: bool,
    /// The simulation behind a `/v1/simulate` body.
    sim: Option<SimSpec>,
}

impl Req {
    fn simulate(spec: SimSpec, keep: bool) -> Req {
        Req {
            path: "/v1/simulate",
            body: spec.body(),
            expect: None,
            keep,
            sim: Some(spec),
        }
    }
}

/// A request kept for the sampled checks and the replay.
struct Kept {
    path: &'static str,
    /// The request body, encoded (compact beside a `Json` tree).
    body: String,
    /// The response body; empty when `expect` already pinned it.
    served: Vec<u8>,
    expect: Option<Arc<Vec<u8>>>,
    sim: Option<SimSpec>,
}

/// One measurement window of a phase.
#[derive(Clone, Copy, Debug)]
struct Window {
    requests: usize,
    wall_s: f64,
    cost: Cost,
}

/// What a phase measured. Latencies are kept as `f32`, so the load
/// generator's own memory stays small beside the daemon's.
#[derive(Default)]
struct Driven {
    /// Wall-clock latency per request, ms.
    latencies_ms: Vec<f32>,
    windows: Vec<Window>,
    /// Requests that failed (transport error, non-200, wrong body).
    failures: usize,
    kept: Vec<Kept>,
}

impl Driven {
    /// Sends `req` over `conn` and records the outcome.
    fn send(&mut self, conn: &mut Conn, tracer: &Tracer, req: Req) {
        let sent = Instant::now();
        let (response, _) = tracer.span("client.request", 0, || conn.send(&req));
        self.latencies_ms
            .push((sent.elapsed().as_secs_f64() * 1e3) as f32);
        let ok = match &response {
            Some((200, body)) => req.expect.as_ref().is_none_or(|e| body == e.as_slice()),
            _ => false,
        };
        self.failures += usize::from(!ok);
        if let (true, Some((_, served))) = (req.keep, response) {
            // A body with a known expectation was checked above; keep
            // only the expectation.
            let served = if req.expect.is_some() {
                Vec::new()
            } else {
                served
            };
            self.kept.push(Kept {
                path: req.path,
                body: req.body.encode(),
                served,
                expect: req.expect,
                sim: req.sim,
            });
        }
    }

    fn latencies(&self) -> Vec<f64> {
        self.latencies_ms.iter().map(|&v| f64::from(v)).collect()
    }

    fn requests(&self) -> usize {
        self.latencies_ms.len()
    }

    /// Normalized processor milliseconds per request, one value per
    /// window.
    fn ms_per_request(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| w.cost.norm_s * 1e3 / w.requests as f64)
            .collect()
    }

    /// Processor milliseconds per request, one value per window.
    fn cpu_ms_per_request(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| w.cost.cpu_s * 1e3 / w.requests as f64)
            .collect()
    }

    /// Completed requests per wall-clock second, one value per window.
    fn rates(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| w.requests as f64 / w.wall_s)
            .collect()
    }
}

/// A keep-alive connection to the daemon that reconnects after it
/// breaks.
struct Conn {
    addr: SocketAddr,
    client: Option<Client>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            client: Client::connect(addr).ok(),
        }
    }

    fn request(&mut self, method: &str, path: &str, body: Option<&Json>) -> Option<(u16, Vec<u8>)> {
        if self.client.is_none() {
            self.client = Client::connect(self.addr).ok();
        }
        match self.client.as_mut()?.request(method, path, body) {
            Ok(r) => Some((r.status, r.body)),
            Err(_) => {
                self.client = None;
                None
            }
        }
    }

    /// Sends one request.
    fn send(&mut self, req: &Req) -> Option<(u16, Vec<u8>)> {
        self.request("POST", req.path, Some(&req.body))
    }
}

/// Drives the daemon from the calling thread over `conn` for `secs`
/// seconds, each request sent when the previous answer arrives. `gen(k)`
/// makes the `k`-th request. When `traced`, each request is sent under a
/// span — the cost the tracing overhead measures.
fn drive(conn: &mut Conn, secs: f64, gen: &dyn Fn(usize) -> Req, traced: bool) -> Driven {
    let tracer = if traced {
        Tracer::new("client")
    } else {
        Tracer::disabled("client")
    };
    let mut out = Driven::default();
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed().as_secs_f64() < secs {
        let first = k;
        let (wall_s, cost) = timed(|| {
            let window = Instant::now();
            let end = (start.elapsed().as_secs_f64() + WINDOW_S).min(secs);
            while k == first || start.elapsed().as_secs_f64() < end {
                out.send(conn, &tracer, gen(k));
                k += 1;
            }
            window.elapsed().as_secs_f64()
        });
        out.windows.push(Window {
            requests: k - first,
            wall_s,
            cost,
        });
    }
    out
}

/// Where each phase's request indices start (every index is a distinct
/// simulation; phases never share one). Indices stay below 2^26.
const TRACED_BASE: usize = 1 << 22;
const GATE_BASE: usize = 12 << 20;
const COLD_BASE: usize = 16 << 20;
const WARM_BASE: usize = 32 << 20;

/// A started daemon plus what its set-up produced.
struct Daemon {
    handle: jouppi_serve::ServerHandle,
    /// The one connection every request of the run goes over, so one
    /// daemon thread serves the whole run.
    conn: Conn,
    /// `serve_hot`: the warmed response body of every hot key, by rank.
    hot: Vec<Arc<Vec<u8>>>,
}

/// Which serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeWorkload {
    /// Distinct simulations.
    Simulate,
    /// Hot sweeps plus cold simulations.
    Hot,
}

impl ServeWorkload {
    /// Workload name.
    pub fn name(self) -> &'static str {
        match self {
            ServeWorkload::Simulate => "serve_simulate",
            ServeWorkload::Hot => "serve_hot",
        }
    }

    /// Set-up: start the daemon and warm it, one request at a time — 64
    /// distinct simulations, the same on every run (`serve_simulate`), or
    /// the run's 48 hot keys (`serve_hot`). Returns the daemon and the
    /// normalized processor seconds the set-up took.
    fn start(self, opts: &RunOptions) -> (Daemon, f64) {
        let (daemon, cost) = timed(|| self.warm(opts));
        (daemon, cost.norm_s)
    }

    fn warm(self, opts: &RunOptions) -> Daemon {
        let handle = Server::start(ServerConfig::default()).expect("start the daemon on loopback");
        let mut conn = Conn::open(handle.addr());
        let z = sizes(opts);
        let mut hot = Vec::new();
        let n = match self {
            ServeWorkload::Simulate => WARM_REQUESTS,
            ServeWorkload::Hot => hot_keys(),
        };
        for k in 0..n {
            let req = match self {
                // The same bodies on every run: the first large allocations
                // set how much memory the allocator keeps, and warm-up
                // bodies drawn from the run's seed made peak RSS bimodal
                // by seed (5.9 or 6.9 MB).
                ServeWorkload::Simulate => {
                    Req::simulate(SimSpec::nth(0, WARM_BASE + k, z.sim_scale), false)
                }
                ServeWorkload::Hot => Req {
                    path: "/v1/sweep",
                    body: hot_body(k, opts.seed, z.hot_sweep_scale).2,
                    expect: None,
                    keep: false,
                    sim: None,
                },
            };
            let Some((200, body)) = conn.send(&req) else {
                panic!("{}: warm-up request {k} failed", self.name());
            };
            if self == ServeWorkload::Hot {
                hot.push(Arc::new(body));
            }
        }
        Daemon { handle, conn, hot }
    }

    /// Set-up alone, for a set-up sample taken in a fresh process.
    pub fn setup(self, opts: &RunOptions) -> f64 {
        let (daemon, secs) = self.start(opts);
        daemon.handle.shutdown();
        secs
    }

    /// The correctness gate at [`GATE_SCALE`]: served bodies must be
    /// byte-identical to the in-process functions.
    fn gate(self, conn: &mut Conn, seed: u64, out: &mut Outcome) {
        let mut expect_eq = |path: &'static str, body: Json, expect: Option<Json>| {
            let req = Req {
                path,
                body,
                expect: None,
                keep: false,
                sim: None,
            };
            let ok = match (conn.send(&req), expect) {
                (Some((200, served)), Some(doc)) => {
                    served == format!("{}\n", doc.encode()).as_bytes()
                }
                _ => false,
            };
            if !ok {
                eprintln!(
                    "{}: gate mismatch on {path} {}",
                    self.name(),
                    req.body.encode()
                );
            }
            out.check(ok);
        };
        match self {
            ServeWorkload::Simulate => {
                for i in 0..6 {
                    let body = SimSpec::nth(seed, GATE_BASE + i * 7, GATE_SCALE).body();
                    let expect = sim::simulate(&body).ok();
                    expect_eq("/v1/simulate", body, expect);
                }
            }
            ServeWorkload::Hot => {
                for rank in 0..sweeps::NAMED_SWEEPS.len() {
                    let (name, s, body) = hot_body(rank, seed, GATE_SCALE);
                    let expect = sweeps::sweep_config(GATE_SCALE, s)
                        .ok()
                        .and_then(|cfg| sweeps::run_named(&name, &cfg));
                    expect_eq("/v1/sweep", body, expect);
                }
            }
        }
    }

    /// Runs the workload after its set-up samples were taken.
    pub fn run(self, opts: &RunOptions, setup_samples: &mut Vec<f64>) -> Outcome {
        let mut out = Outcome::default();
        let (mut daemon, setup_s) = self.start(opts);
        setup_samples.push(setup_s);
        let conn = &mut daemon.conn;
        self.gate(conn, opts.seed, &mut out);
        let z = sizes(opts);
        out.detail("setup_samples_s", summary_json(setup_samples));

        // A traced run gives half its time to the untraced phase and half
        // to the same phase with a span per request.
        let secs = if opts.traced {
            opts.seconds / 2.0
        } else {
            opts.seconds
        };
        let main = self.phase(conn, opts, &z, &daemon.hot, secs, false);
        // Read before the in-process checks below allocate beside the
        // daemon.
        let rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
        let latencies = main.latencies();
        out.attempted += main.requests() as u64;
        out.failed += main.failures as u64;
        let per_window = main.ms_per_request();
        let request_ms = median(&per_window);
        out.detail("request_ms", summary_json(&per_window));
        out.detail("request_cpu_ms", summary_json(&main.cpu_ms_per_request()));
        out.detail("latency", latency_json(&latencies));
        out.detail("rps_windows", summary_json(&main.rates()));
        out.detail("failed_requests", Json::Int(main.failures as i64));

        // Sampled checks: kept simulations against sim::simulate (kept
        // sweeps were checked against their key's warmed body on arrival).
        let mut digest = Digest::default();
        for hot in &daemon.hot {
            digest.update(hot);
        }
        for k in &main.kept {
            if let Some(spec) = k.sim {
                let expect = sim::simulate(&spec.body()).map(|d| format!("{}\n", d.encode()));
                out.check(
                    expect
                        .ok()
                        .is_some_and(|e| e.as_bytes() == k.served.as_slice()),
                );
                if self == ServeWorkload::Simulate {
                    digest.update(&k.served);
                }
            }
        }
        out.detail("results_digest", Json::str(digest.hex()));
        out.detail("sampled_requests", Json::Int(main.kept.len() as i64));

        if !opts.traced {
            scrape_cache(conn, &mut out);
            out.metric("setup_s", median(setup_samples), "s");
            out.metric("cpu_ms", request_ms, "ms");
            out.metric("rss_mb", rss_mb, "MB");
            daemon.handle.shutdown();
            return out;
        }

        let traced = self.phase(conn, opts, &z, &daemon.hot, secs, true);
        let overhead = median(&traced.ms_per_request()) / request_ms;
        scrape_cache(conn, &mut out);
        daemon.handle.shutdown();
        let p50 = median(&latencies);
        self.replay_layers(opts, &z, &main, p50, overhead, &mut out);
        out
    }

    /// The traced run's replay: every kept request through the serve
    /// layers, against a bench-owned result cache warmed like the
    /// daemon's, then the per-layer metrics.
    fn replay_layers(
        self,
        opts: &RunOptions,
        z: &Sizes,
        main: &Driven,
        p50_ms: f64,
        overhead: f64,
        out: &mut Outcome,
    ) {
        let tracer = Tracer::new(self.name());
        let cache = ResultCache::new(CacheConfig::default());
        if self == ServeWorkload::Hot {
            for rank in 0..hot_keys() {
                let (name, seed, _) = hot_body(rank, opts.seed, z.hot_sweep_scale);
                if let TryLookup::Miss(leader) =
                    cache.try_begin(sweep_key(&name, seed, z.hot_sweep_scale), false)
                {
                    let cfg = sweeps::sweep_config(z.hot_sweep_scale, seed).expect("valid scale");
                    let (doc, _) = tracer.span("serve.sweep", 0, || sweeps::run_named(&name, &cfg));
                    leader.complete(&Arc::new(doc.expect("a named sweep")));
                }
            }
        }
        let from = tracer.len();
        for k in &main.kept {
            let served = replay(k, &cache, &tracer);
            let expect = k.expect.as_deref().unwrap_or(&k.served);
            out.check(served.as_deref() == Some(expect.as_slice()));
        }
        let layers = breakdown(&tracer, from);
        let names = tracer.by_name(0);
        let p50_us = |name: &str| {
            names
                .get(name)
                .map_or(f64::NAN, |t| median(&t.durations_ns) / 1e3)
        };
        // The layers every request crosses; `serve.sim` too when most
        // requests simulate (serve_simulate).
        let mut on_path: f64 = [
            "serve.http_parse",
            "serve.json_parse",
            "serve.cache_key",
            "serve.cache_lookup",
            "serve.encode",
            "serve.write",
        ]
        .iter()
        .map(|n| p50_us(n))
        .sum();
        if names.get("serve.sim").map_or(0, |t| t.count) * 2 >= main.kept.len() as u64 {
            on_path += p50_us("serve.sim");
        }
        let latencies = main.latencies();
        let mean_ns = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64 * 1e6;
        let per_request_ns =
            layers.layer_ns.values().sum::<u64>() as f64 / main.kept.len().max(1) as f64;
        let decomposed = per_request_ns / mean_ns;
        let serve = [
            ("serve.http_parse_us", p50_us("serve.http_parse")),
            ("serve.json_parse_us", p50_us("serve.json_parse")),
            ("serve.cache_key_us", p50_us("serve.cache_key")),
            ("serve.cache_lookup_us", p50_us("serve.cache_lookup")),
            ("serve.sim_ms", p50_us("serve.sim") / 1e3),
            ("serve.sweep_ms", p50_us("serve.sweep") / 1e3),
            ("serve.encode_us", p50_us("serve.encode")),
            ("serve.write_us", p50_us("serve.write")),
            ("serve.socket_us", p50_ms * 1e3 - on_path),
        ];
        out.detail(
            "serve_layers",
            Json::Obj(
                serve
                    .into_iter()
                    .map(|(k, v)| (k.to_owned(), Json::Float(v)))
                    .collect(),
            ),
        );
        out.detail("layers", layers.json.clone());
        out.detail("trace_overhead", Json::Float(overhead));
        out.metrics = layers.metrics(decomposed, overhead);
        out.spans_jsonl = tracer.to_jsonl();
    }

    /// The measured phase: back-to-back distinct simulations
    /// (`serve_simulate`) or the hot mix (`serve_hot`). Untraced, every
    /// 50th request is kept.
    fn phase(
        self,
        conn: &mut Conn,
        opts: &RunOptions,
        z: &Sizes,
        hot: &[Arc<Vec<u8>>],
        secs: f64,
        traced: bool,
    ) -> Driven {
        let pass = usize::from(traced);
        let keep = |k: usize| !traced && k.is_multiple_of(SAMPLE_EVERY);
        match self {
            ServeWorkload::Simulate => {
                let gen = |k: usize| {
                    let spec = SimSpec::nth(opts.seed, pass * TRACED_BASE + k, z.sim_scale);
                    Req::simulate(spec, keep(k))
                };
                drive(conn, secs, &gen, traced)
            }
            ServeWorkload::Hot => {
                let cdf = zipf_cdf(hot.len(), ZIPF_SKEW);
                let gen = |k: usize| {
                    if k % COLD_EVERY == COLD_EVERY - 1 {
                        let cold = k / COLD_EVERY;
                        let spec = SimSpec::nth(
                            opts.seed,
                            COLD_BASE + pass * TRACED_BASE + cold,
                            z.hot_sim_scale,
                        );
                        return Req::simulate(spec, keep(cold));
                    }
                    let mut rng =
                        SmallRng::seed_from_u64(opts.seed ^ ((pass as u64) << 47) ^ k as u64);
                    let u = rng.next_f64();
                    let rank = cdf.partition_point(|&c| c < u).min(hot.len() - 1);
                    Req {
                        path: "/v1/sweep",
                        body: hot_body(rank, opts.seed, z.hot_sweep_scale).2,
                        expect: Some(Arc::clone(&hot[rank])),
                        keep: keep(k),
                        sim: None,
                    }
                };
                drive(conn, secs, &gen, traced)
            }
        }
    }
}

/// The router's content key of a named sweep on its default engine.
fn sweep_key(name: &str, seed: u64, scale: u64) -> jouppi_serve::result_cache::Key {
    content_key(
        "sweep",
        &Json::obj([
            ("sweep", Json::str(name)),
            ("engine", Json::str(sweeps::engines_for(name)[0])),
            ("scale", Json::Int(scale as i64)),
            ("seed", Json::Int(seed as i64)),
        ]),
    )
}

/// The bytes a `Client` sends for `payload` on `path`.
fn raw_request(path: &str, payload: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    )
    .into_bytes()
}

/// Replays one kept request through the serve layers under spans and
/// returns the response body it produces.
fn replay(k: &Kept, cache: &Arc<ResultCache>, tracer: &Tracer) -> Option<Vec<u8>> {
    let raw = raw_request(k.path, &k.body);
    let (req, _) = tracer.span("serve.http_parse", 0, || {
        HttpConn::new(Cursor::new(raw), Limits::default()).read_request(None)
    });
    let req = req.ok()??;
    let (body, _) = tracer.span("serve.json_parse", 0, || {
        std::str::from_utf8(&req.body).ok().map(Json::parse)
    });
    let body = body?.ok()?;
    let doc = if k.path == "/v1/simulate" {
        let (key, _) = tracer.span("serve.cache_key", 0, || content_key("simulate", &body));
        let (lookup, _) = tracer.span("serve.cache_lookup", 0, || cache.begin(key, false));
        match lookup {
            Lookup::Hit(doc) | Lookup::Coalesced(doc) => doc,
            Lookup::Miss(leader) => {
                let (result, id) = tracer.span("serve.sim", 0, || sim::simulate(&body));
                if let Some(spec) = k.sim {
                    replay_simulation(spec, id, tracer);
                }
                let doc = Arc::new(result.ok()?);
                leader.complete(&doc);
                doc
            }
            Lookup::Disabled | Lookup::Bypass => return None,
        }
    } else {
        let name = body.get("sweep").and_then(Json::as_str)?.to_owned();
        let seed = u64::try_from(body.get("seed").and_then(Json::as_i64)?).ok()?;
        let scale = u64::try_from(body.get("scale").and_then(Json::as_i64)?).ok()?;
        let (key, _) = tracer.span("serve.cache_key", 0, || sweep_key(&name, seed, scale));
        let (lookup, _) = tracer.span("serve.cache_lookup", 0, || cache.try_begin(key, false));
        match lookup {
            TryLookup::Hit(doc) => doc,
            TryLookup::Miss(leader) => {
                let cfg = sweeps::sweep_config(scale, seed).ok()?;
                let (doc, _) = tracer.span("serve.sweep", 0, || sweeps::run_named(&name, &cfg));
                let doc = Arc::new(doc?);
                leader.complete(&doc);
                doc
            }
            TryLookup::Disabled | TryLookup::Bypass | TryLookup::InFlight(_) => return None,
        }
    };
    let (resp, _) = tracer.span("serve.encode", 0, || Response::json(200, &doc));
    let (written, _) = tracer.span("serve.write", 0, || {
        let mut wire = Vec::new();
        resp.write_to(&mut wire, true).map(|()| wire)
    });
    written.ok()?;
    Some(resp.body)
}

/// The two stages `sim::simulate` spends its time in, re-run on their
/// own and charged to the `serve.sim` span `parent`: recording the
/// request's trace, and replaying its data side through the augmented
/// cache.
fn replay_simulation(spec: SimSpec, parent: usize, tracer: &Tracer) {
    let trace = tracer.replay(parent, "trace.record", 0, || {
        RecordedTrace::record(&spec.bench.source(Scale::new(spec.scale), spec.seed))
    });
    tracer.set_refs(tracer.len() - 1, trace.len() as u64);
    let data: Vec<_> = trace
        .as_slice()
        .iter()
        .filter(|r| r.kind.is_data())
        .map(|r| r.addr)
        .collect();
    tracer.replay(parent, "core.augmented", data.len() as u64, || {
        let mut cache = AugmentedCache::new(spec.config());
        for &addr in &data {
            cache.access(addr);
        }
        std::hint::black_box(*cache.stats())
    });
}

/// Adds the result-cache counters scraped from `/metrics`.
fn scrape_cache(conn: &mut Conn, out: &mut Outcome) {
    let text = conn
        .request("GET", "/metrics", None)
        .map(|(_, body)| String::from_utf8_lossy(&body).into_owned())
        .unwrap_or_default();
    let counter = |name: &str| {
        text.lines()
            .find_map(|l| {
                l.strip_prefix(name)
                    .and_then(|v| v.trim().parse::<f64>().ok())
            })
            .unwrap_or(0.0)
    };
    let hits = counter("jouppi_result_cache_hits_total");
    let lookups = hits
        + counter("jouppi_result_cache_misses_total")
        + counter("jouppi_result_cache_coalesced_total");
    out.detail(
        "cache",
        Json::obj([
            (
                "serve.cache.hit_ratio",
                Json::Float(hits / lookups.max(1.0)),
            ),
            (
                "serve.cache.evictions",
                Json::Float(counter("jouppi_result_cache_evictions_total")),
            ),
        ]),
    );
}
