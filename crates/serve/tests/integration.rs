//! End-to-end tests: boot the daemon on an ephemeral port and drive it
//! over real sockets — health, sweeps (sync and polled), bit-for-bit
//! agreement with the in-process sweep, backpressure, malformed input,
//! metrics, and draining shutdown.

#![allow(
    clippy::disallowed_types,
    reason = "job polling is bounded by a wall-clock deadline"
)]

use std::time::Duration;

use jouppi_experiments::common::ExperimentConfig;
use jouppi_serve::http::Limits;
use jouppi_serve::server::ServerConfig;
use jouppi_serve::{sweeps, Client, Json, Server, ServerHandle};
use jouppi_workloads::Scale;

fn start(config: ServerConfig) -> ServerHandle {
    Server::start(config).expect("bind ephemeral port")
}

fn client(handle: &ServerHandle) -> Client {
    Client::connect(handle.addr()).expect("connect to server")
}

fn json(text: &str) -> Json {
    Json::parse(text).expect("test fixture is valid JSON")
}

#[test]
fn healthz_answers() {
    let handle = start(ServerConfig::default());
    let mut c = client(&handle);
    let resp = c.request("GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), "ok\n");
    // Keep-alive: same connection answers again.
    let resp = c.request("GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200);
    handle.shutdown();
}

#[test]
fn sweep_matches_in_process_run_bit_for_bit() {
    let handle = start(ServerConfig::default());
    let mut c = client(&handle);

    // What the very same sweep produces when run in-process.
    let cfg = ExperimentConfig {
        scale: Scale::new(20_000),
        seed: 42,
    };
    let mut expected = sweeps::run_named("fig_3_1", &cfg).unwrap().encode();
    expected.push('\n');

    // Synchronous path: "wait": true returns the result document. The
    // first request for this tuple computes (and memoizes) it.
    let resp = c
        .request(
            "POST",
            "/v1/sweep",
            Some(&json(r#"{"sweep":"fig_3_1","scale":20000,"wait":true}"#)),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("x-jouppi-cache"), Some("miss"));
    assert_eq!(
        resp.text(),
        expected,
        "served sweep differs from in-process"
    );

    // Async path: the same tuple is now memoized, so the 202 ticket is
    // already done — no second sweep executes. Polling still works.
    let resp = c
        .request(
            "POST",
            "/v1/sweep",
            Some(&json(r#"{"sweep":"fig_3_1","scale":20000}"#)),
        )
        .unwrap();
    assert_eq!(resp.status, 202, "{}", resp.text());
    assert_eq!(resp.header("x-jouppi-cache"), Some("hit"));
    let ticket = resp.json().unwrap();
    assert_eq!(ticket.get("status").unwrap(), &Json::str("done"));
    let id = ticket.get("job").unwrap().as_i64().unwrap();
    let poll = ticket.get("poll").unwrap().as_str().unwrap().to_owned();
    assert_eq!(poll, format!("/v1/jobs/{id}"));

    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let result = loop {
        let resp = c.request("GET", &poll, None).unwrap();
        assert_eq!(resp.status, 200);
        let doc = resp.json().unwrap();
        match doc.get("status").unwrap().as_str().unwrap() {
            "done" => break doc.get("result").unwrap().clone(),
            "failed" => panic!("job failed: {}", resp.text()),
            _ => {
                assert!(std::time::Instant::now() < deadline, "job never finished");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    };
    let mut via_poll = result.encode();
    via_poll.push('\n');
    assert_eq!(via_poll, expected, "polled sweep differs from in-process");

    // Metrics reflect the traffic.
    let resp = c.request("GET", "/metrics", None).unwrap();
    assert_eq!(resp.status, 200);
    let text = resp.text();
    assert!(
        text.contains("jouppi_http_requests_total{endpoint=\"sweep\",status=\"200\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("jouppi_http_requests_total{endpoint=\"sweep\",status=\"202\"} 1"),
        "{text}"
    );
    // Only the first request executed a sweep; the async duplicate was
    // served from the result cache without touching a worker.
    assert!(text.contains("jouppi_jobs_completed_total 1"), "{text}");
    assert!(
        text.contains("jouppi_result_cache_misses_total 1"),
        "{text}"
    );
    assert!(text.contains("jouppi_result_cache_hits_total 1"), "{text}");
    let refs_line = text
        .lines()
        .find(|l| l.starts_with("jouppi_refs_simulated_total"))
        .expect("refs counter exported");
    let refs: u64 = refs_line.split(' ').nth(1).unwrap().parse().unwrap();
    assert!(refs > 0, "no references counted: {refs_line}");
    let rps_line = text
        .lines()
        .find(|l| l.starts_with("jouppi_refs_per_second"))
        .expect("throughput gauge exported");
    let rps: u64 = rps_line.split(' ').nth(1).unwrap().parse().unwrap();
    assert!(rps > 0, "completed sweeps must set throughput: {rps_line}");
    assert!(
        text.contains("jouppi_request_seconds_bucket{endpoint=\"sweep\",le=\"+Inf\"} 2"),
        "{text}"
    );

    handle.shutdown();
}

#[test]
fn engine_field_selects_the_single_pass_engine() {
    let handle = start(ServerConfig::default());
    let mut c = client(&handle);

    let cfg = ExperimentConfig {
        scale: Scale::new(20_000),
        seed: 42,
    };
    let mut expected = sweeps::run_named_engine("fig_3_1", &cfg, "single_pass")
        .unwrap()
        .encode();
    expected.push('\n');

    let resp = c
        .request(
            "POST",
            "/v1/sweep",
            Some(&json(
                r#"{"sweep":"fig_3_1","engine":"single_pass","scale":20000,"wait":true}"#,
            )),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(
        resp.text(),
        expected,
        "served engine differs from in-process"
    );
    let doc = resp.json().unwrap();
    assert_eq!(doc.get("engine").unwrap(), &Json::str("single_pass"));

    // The one-pass engine's work shows up on /metrics.
    let text = c.request("GET", "/metrics", None).unwrap().text();
    let line = text
        .lines()
        .find(|l| l.starts_with("jouppi_single_pass_refs_total"))
        .expect("single-pass counter exported");
    let refs: u64 = line.split(' ').nth(1).unwrap().parse().unwrap();
    assert!(refs > 0, "single-pass engine counted nothing: {line}");

    handle.shutdown();
}

#[test]
fn simulate_runs_synchronously() {
    let handle = start(ServerConfig::default());
    let mut c = client(&handle);
    let resp = c
        .request(
            "POST",
            "/v1/simulate",
            Some(&json(
                r#"{"workload":"met","scale":20000,"victim":4,"classify":true}"#,
            )),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let doc = resp.json().unwrap();
    assert!(doc.get("victim_hits").unwrap().as_i64().unwrap() > 0);
    assert!(doc.get("classification").is_some());
    handle.shutdown();
}

#[test]
fn queue_overflow_returns_503_with_retry_after() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let mut c = client(&handle);
    let body = json(r#"{"sweep":"fig_3_1","scale":100000}"#);
    let mut accepted = 0;
    let mut rejected = 0;
    // The bypass knob keeps these identical sweeps from coalescing, so
    // each one really tries to take a queue slot.
    for _ in 0..8 {
        let resp = c
            .request("POST", "/v1/sweep?cache=bypass", Some(&body))
            .unwrap();
        if resp.status != 503 {
            assert_eq!(resp.header("x-jouppi-cache"), Some("bypass"));
        }
        match resp.status {
            202 => accepted += 1,
            503 => {
                rejected += 1;
                assert_eq!(resp.header("retry-after"), Some("1"), "{:?}", resp.headers);
            }
            other => panic!("unexpected status {other}: {}", resp.text()),
        }
    }
    assert!(accepted >= 1, "no sweep was ever accepted");
    assert!(rejected >= 1, "queue never overflowed");
    // Backpressure shows on /metrics too.
    let text = c.request("GET", "/metrics", None).unwrap().text();
    assert!(
        text.contains("jouppi_http_requests_total{endpoint=\"sweep\",status=\"503\"}"),
        "{text}"
    );
    let stats = handle.shutdown();
    assert_eq!(stats.jobs_completed, accepted, "accepted jobs must drain");
}

#[test]
fn malformed_requests_get_4xx_not_a_crash() {
    let handle = start(ServerConfig {
        limits: Limits {
            max_body_bytes: 1024,
            ..Limits::default()
        },
        ..ServerConfig::default()
    });

    let mut c = client(&handle);
    let cases: Vec<(&str, &str, Option<Json>, u16)> = vec![
        ("POST", "/v1/sweep", Some(Json::str("not an object")), 400),
        (
            "POST",
            "/v1/sweep",
            Some(json(r#"{"sweep":"fig_9_9"}"#)),
            400,
        ),
        (
            "POST",
            "/v1/sweep",
            Some(json(r#"{"sweep":"fig_3_1","scale":0}"#)),
            400,
        ),
        (
            // "miss_log" exists, but not for this sweep.
            "POST",
            "/v1/sweep",
            Some(json(r#"{"sweep":"fig_3_1","engine":"miss_log"}"#)),
            400,
        ),
        (
            "POST",
            "/v1/simulate",
            Some(json(r#"{"workload":"doom"}"#)),
            400,
        ),
        ("GET", "/v1/simulate", None, 405),
        ("POST", "/healthz", None, 405),
        ("GET", "/v1/jobs/not-a-number", None, 400),
        ("GET", "/v1/jobs/999999", None, 404),
        ("GET", "/nope", None, 404),
    ];
    for (method, path, body, want) in cases {
        let resp = c.request(method, path, body.as_ref()).unwrap();
        assert_eq!(resp.status, want, "{method} {path}: {}", resp.text());
    }

    // Unparsable JSON body (valid HTTP framing).
    let resp = c
        .send_raw(b"POST /v1/sweep HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json")
        .unwrap();
    assert_eq!(resp.status, 400);

    // Oversized body: rejected, connection closed.
    let mut big = client(&handle);
    let resp = big
        .send_raw(b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 9999\r\n\r\n")
        .unwrap();
    assert_eq!(resp.status, 413);

    // Garbage framing: 400, connection closed.
    let mut garbage = client(&handle);
    let resp = garbage.send_raw(b"TOTAL GARBAGE\r\n\r\n").unwrap();
    assert_eq!(resp.status, 400);

    // The server is still healthy after all of that.
    let resp = c.request("GET", "/healthz", None).unwrap();
    assert_eq!(resp.status, 200);
    handle.shutdown();
}

#[test]
fn shutdown_drains_accepted_jobs() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    let mut c = client(&handle);
    // Distinct seeds: three different content keys, so all three really
    // enter the queue instead of coalescing onto one job.
    for seed in 1..=3 {
        let resp = c
            .request(
                "POST",
                "/v1/sweep",
                Some(&json(&format!(
                    r#"{{"sweep":"fig_3_1","scale":50000,"seed":{seed}}}"#
                ))),
            )
            .unwrap();
        assert_eq!(resp.status, 202);
    }
    let stats = handle.shutdown();
    assert_eq!(stats.jobs_completed, 3, "shutdown must drain accepted jobs");
}

#[test]
fn thundering_herd_costs_exactly_one_simulation() {
    const HERD: usize = 8;
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let body = r#"{"workload":"met","scale":200000,"victim":4}"#;

    // N identical concurrent POSTs released by a barrier: the leader
    // simulates once, everyone else hits or coalesces.
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(HERD));
    let stampede: Vec<_> = (0..HERD)
        .map(|_| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                barrier.wait();
                let resp = c
                    .request("POST", "/v1/simulate", Some(&json(body)))
                    .unwrap();
                assert_eq!(resp.status, 200, "{}", resp.text());
                let note = resp
                    .header("x-jouppi-cache")
                    .expect("cache header present")
                    .to_owned();
                (note, resp.text())
            })
        })
        .collect();
    let responses: Vec<(String, String)> = stampede
        .into_iter()
        .map(|t| t.join().expect("herd thread"))
        .collect();

    // All responses are bit-identical...
    let reference = responses[0].1.clone();
    for (_, text) in &responses {
        assert_eq!(*text, reference, "cached response differs");
    }
    // ...exactly one was computed, and the rest rode it.
    let misses = responses.iter().filter(|(n, _)| n == "miss").count();
    let served = responses
        .iter()
        .filter(|(n, _)| n == "hit" || n == "coalesced")
        .count();
    assert_eq!(
        misses, 1,
        "herd must elect exactly one leader: {responses:?}"
    );
    assert_eq!(served, HERD - 1, "everyone else must hit or coalesce");

    // A bypassing request recomputes from scratch and must produce the
    // same bytes — cached responses are byte-identical to uncached ones.
    let mut c = client(&handle);
    let resp = c
        .request("POST", "/v1/simulate?cache=bypass", Some(&json(body)))
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-jouppi-cache"), Some("bypass"));
    assert_eq!(resp.text(), reference, "bypass and cached bytes differ");

    // /metrics agrees: one miss, N-1 hits+coalesced, bytes resident.
    let text = c.request("GET", "/metrics", None).unwrap().text();
    let counter = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {name} in:\n{text}"))
    };
    assert_eq!(counter("jouppi_result_cache_misses_total"), 1);
    assert_eq!(
        counter("jouppi_result_cache_hits_total") + counter("jouppi_result_cache_coalesced_total"),
        (HERD - 1) as u64
    );
    assert!(counter("jouppi_result_cache_bytes_resident") > 0);

    handle.shutdown();
}

#[test]
fn sync_hits_serve_the_memoized_bytes() {
    let handle = start(ServerConfig::default());
    let mut c = client(&handle);
    let mut served = 0;
    for (path, body) in [
        (
            "/v1/sweep",
            r#"{"sweep":"fig_3_1","scale":20000,"wait":true}"#,
        ),
        (
            "/v1/simulate",
            r#"{"workload":"met","scale":20000,"victim":4,"classify":true}"#,
        ),
    ] {
        let miss = c.request("POST", path, Some(&json(body))).unwrap();
        assert_eq!(miss.status, 200, "{}", miss.text());
        assert_eq!(miss.header("x-jouppi-cache"), Some("miss"), "{path}");
        // The repeat is answered from the bytes stored at insert.
        let hit = c.request("POST", path, Some(&json(body))).unwrap();
        assert_eq!(hit.status, 200, "{}", hit.text());
        assert_eq!(hit.header("x-jouppi-cache"), Some("hit"), "{path}");
        assert_eq!(hit.header("content-type"), Some("application/json"));
        assert_eq!(hit.body, miss.body, "{path}: hit bytes differ from miss");
        served += miss.body.len();
    }

    let text = c.request("GET", "/metrics", None).unwrap().text();
    for (line, want) in [
        ("jouppi_result_cache_misses_total", 2),
        ("jouppi_result_cache_hits_total", 2),
        ("jouppi_result_cache_bytes_resident", served),
    ] {
        assert!(
            text.contains(&format!("{line} {want}\n")),
            "{line}:\n{text}"
        );
    }
    handle.shutdown();
}
