//! The request router: maps `(method, path)` to handlers.
//!
//! Every handler returns a [`Response`]; nothing here panics on bad
//! input — malformed bodies, unknown sweeps, and bogus job ids all
//! become 4xx documents. The returned endpoint label feeds the metrics
//! registry.

use std::sync::Arc;

use jouppi_experiments::common::refs_simulated;
use jouppi_experiments::sweep::{cells_executed, single_pass_refs};

use crate::http::{Request, Response};
use crate::json::Json;
use crate::metrics::Sampled;
use crate::queue::{Job, JobState, QueueFull};
use crate::result_cache::{content_key, Lookup, TryLookup};
use crate::server::Ctx;
use crate::sim;
use crate::sweeps::{self, DEFAULT_SWEEP_SCALE, NAMED_SWEEPS};

/// Response header reporting what the result cache did for a request.
const CACHE_HEADER: &str = "x-jouppi-cache";

/// Whether the request carries the per-request bypass knob
/// (`?cache=bypass` in the query string).
fn wants_bypass(req: &Request) -> bool {
    req.query()
        .is_some_and(|q| q.split('&').any(|kv| kv == "cache=bypass"))
}

/// Tags `resp` with the cache-observability header, when there is one
/// (cache mode `off` serves unheadered responses).
fn with_cache_note(resp: Response, note: Option<&'static str>) -> Response {
    match note {
        Some(note) => resp.header(CACHE_HEADER, note),
        None => resp,
    }
}

/// Routes one request, returning the metrics endpoint label and the
/// response to send.
pub(crate) fn route(ctx: &Ctx, req: &Request) -> (&'static str, Response) {
    match req.path() {
        "/healthz" => ("healthz", expect_get(req, healthz(ctx))),
        "/metrics" => ("metrics", expect_get(req, metrics(ctx))),
        "/v1/simulate" => ("simulate", expect_post(req, |r| simulate(ctx, r))),
        "/v1/sweep" => ("sweep", expect_post(req, |r| sweep(ctx, r))),
        path => match path.strip_prefix("/v1/jobs/") {
            Some(id) => ("jobs", expect_get(req, job_status(ctx, id))),
            None => ("other", Response::error(404, "no such endpoint")),
        },
    }
}

fn expect_get(req: &Request, resp: Response) -> Response {
    if req.method == "GET" {
        resp
    } else {
        Response::error(405, "use GET").header("Allow", "GET")
    }
}

fn expect_post(req: &Request, handler: impl FnOnce(&Request) -> Response) -> Response {
    if req.method == "POST" {
        handler(req)
    } else {
        Response::error(405, "use POST").header("Allow", "POST")
    }
}

fn healthz(ctx: &Ctx) -> Response {
    if ctx.is_shutting_down() {
        Response::text(503, "draining\n")
    } else {
        Response::text(200, "ok\n")
    }
}

fn metrics(ctx: &Ctx) -> Response {
    let queue = ctx.queue.stats();
    let cache = ctx.result_cache.counters();
    let sampled = Sampled {
        queue_depth: queue.depth,
        jobs_inflight: queue.running,
        jobs_completed: queue.completed,
        connections: ctx.open_connections(),
        refs_simulated: refs_simulated(),
        sweep_cells: cells_executed(),
        single_pass_refs: single_pass_refs(),
        refs_per_second: sweeps::last_sweep_refs_per_second(),
        result_cache_hits: cache.hits,
        result_cache_misses: cache.misses,
        result_cache_evictions: cache.evictions,
        result_cache_coalesced: cache.coalesced,
        result_cache_bytes: cache.bytes_resident,
    };
    let mut resp = Response::text(200, ctx.metrics.render(&sampled));
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp
}

fn parse_body(req: &Request) -> Result<Json, Response> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| Response::error(400, "body is not UTF-8"))?;
    Json::parse(text).map_err(|e| Response::error(400, format!("invalid JSON: {e}")))
}

fn simulate(ctx: &Ctx, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let key = content_key("simulate", &body);
    let bypass = wants_bypass(req);
    // A memo hit sends the body encoded when it was stored.
    if let Some(bytes) = ctx.result_cache.cached_body(key, bypass) {
        return Response::json_encoded(200, &bytes).header(CACHE_HEADER, "hit");
    }
    // Simulations are bounded (`MAX_SIMULATE_SCALE`) and sub-second, so
    // the synchronous path can afford the *blocking* singleflight: a
    // thundering herd of identical POSTs parks here and costs exactly
    // one simulation.
    match ctx.result_cache.begin(key, bypass) {
        Lookup::Disabled => match sim::simulate(&body) {
            Ok(result) => Response::json(200, &result),
            Err(msg) => Response::error(400, msg),
        },
        Lookup::Bypass => match sim::simulate(&body) {
            Ok(result) => Response::json(200, &result).header(CACHE_HEADER, "bypass"),
            Err(msg) => Response::error(400, msg),
        },
        Lookup::Hit(doc) => Response::json(200, &doc).header(CACHE_HEADER, "hit"),
        Lookup::Coalesced(doc) => Response::json(200, &doc).header(CACHE_HEADER, "coalesced"),
        Lookup::Miss(leader) => match sim::simulate(&body) {
            Ok(result) => {
                let doc = Arc::new(result);
                leader.complete(&doc);
                Response::json(200, &doc).header(CACHE_HEADER, "miss")
            }
            Err(msg) => {
                // Errors are never cached: waiters re-elect and fail on
                // their own (each gets its own 400).
                leader.abandon();
                Response::error(400, msg)
            }
        },
    }
}

fn sweep(ctx: &Ctx, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let Some(name) = body.get("sweep").and_then(Json::as_str) else {
        return Response::error(
            400,
            format!(
                "'sweep' is required; known sweeps: {}",
                NAMED_SWEEPS.join(", ")
            ),
        );
    };
    if !NAMED_SWEEPS.contains(&name) {
        return Response::error(
            400,
            format!(
                "unknown sweep '{name}'; known sweeps: {}",
                NAMED_SWEEPS.join(", ")
            ),
        );
    }
    let engines = sweeps::engines_for(name);
    let engine = match body.get("engine").and_then(Json::as_str) {
        None => engines[0],
        Some(requested) => match engines.iter().find(|&&e| e == requested) {
            Some(&engine) => engine,
            None => {
                return Response::error(
                    400,
                    format!(
                        "unknown engine '{requested}' for sweep '{name}'; \
                         valid engines: {}",
                        engines.join(", ")
                    ),
                );
            }
        },
    };
    let scale = match sim::get_u64(&body, "scale", DEFAULT_SWEEP_SCALE) {
        Ok(scale) => scale,
        Err(msg) => return Response::error(400, msg),
    };
    let seed = match sim::get_u64(&body, "seed", 42) {
        Ok(seed) => seed,
        Err(msg) => return Response::error(400, msg),
    };
    let cfg = match sweeps::sweep_config(scale, seed) {
        Ok(cfg) => cfg,
        Err(msg) => return Response::error(400, msg),
    };
    let wait = body.get("wait").and_then(Json::as_bool).unwrap_or(false);

    // Sweeps are keyed on the *semantic* tuple, not the raw body, so
    // requests that differ only in defaulted fields or the `wait` knob
    // share one cache entry.
    let key = content_key(
        "sweep",
        &Json::obj([
            ("sweep", Json::str(name)),
            ("engine", Json::str(engine)),
            ("scale", Json::Int(scale as i64)),
            ("seed", Json::Int(seed as i64)),
        ]),
    );
    let bypass = wants_bypass(req);
    if wait {
        if let Some(bytes) = ctx.result_cache.cached_body(key, bypass) {
            return Response::json_encoded(200, &bytes).header(CACHE_HEADER, "hit");
        }
    }
    // The queued path must never park a connection thread behind an
    // in-flight leader, so it uses the non-blocking lookup: duplicates
    // coalesce onto the leader's job id instead of waiting on a slot.
    let (leader, cache_note) = match ctx.result_cache.try_begin(key, bypass) {
        TryLookup::Disabled => (None, None),
        TryLookup::Bypass => (None, Some("bypass")),
        TryLookup::Hit(doc) => {
            if wait {
                return Response::json(200, &doc).header(CACHE_HEADER, "hit");
            }
            // A hit on the async path still mints a pollable ticket,
            // but consumes no queue slot and wakes no worker.
            return match ctx.queue.insert_completed(name, (*doc).clone()) {
                Ok(id) => ticket(id, name, "done").header(CACHE_HEADER, "hit"),
                Err(QueueFull) => Response::error(503, "job queue is full; retry later")
                    .header("Retry-After", "1"),
            };
        }
        TryLookup::InFlight(Some(id)) => {
            if wait {
                return match ctx.queue.wait(id, ctx.cfg.job_wait_timeout) {
                    Some((_, JobState::Done(result))) => {
                        Response::json(200, &result).header(CACHE_HEADER, "coalesced")
                    }
                    Some((_, JobState::Failed(msg))) => Response::error(500, msg),
                    _ => ticket(id, name, "running").header(CACHE_HEADER, "coalesced"),
                };
            }
            let status = ctx
                .queue
                .status(id)
                .map_or("queued", |(_, state)| state.label());
            return ticket(id, name, status).header(CACHE_HEADER, "coalesced");
        }
        // A leader exists but has not published its job id yet (the
        // window between election and submit). Rather than wait, run
        // our own uncached copy — correct, merely not deduplicated.
        TryLookup::InFlight(None) => (None, Some("miss")),
        TryLookup::Miss(leader) => (Some(leader), Some("miss")),
    };

    let job_name = name.to_owned();
    let led = leader.is_some();
    let job: Job = {
        let job_name = job_name.clone();
        match leader {
            // The leader guard rides inside the job closure: success
            // memoizes the document, failure (or a worker panic, via
            // the guard's Drop) abandons so waiters re-elect.
            Some(leader) => Box::new(move || match sweeps::run_named(&job_name, &cfg) {
                Some(result) => {
                    leader.complete(&Arc::new(result.clone()));
                    Ok(result)
                }
                None => {
                    leader.abandon();
                    Err("sweep vanished".to_owned())
                }
            }),
            None => Box::new(move || {
                sweeps::run_named(&job_name, &cfg).ok_or_else(|| "sweep vanished".to_owned())
            }),
        }
    };
    let id = match ctx.queue.submit(job_name.clone(), job) {
        Ok(id) => id,
        // Dropping the rejected job drops the leader guard inside it,
        // which abandons the flight — no key is left stranded.
        Err(QueueFull) => {
            return Response::error(503, "job queue is full; retry later")
                .header("Retry-After", "1");
        }
    };
    if led {
        ctx.result_cache.publish_ticket(key, id);
    }
    if wait {
        match ctx.queue.wait(id, ctx.cfg.job_wait_timeout) {
            Some((_, JobState::Done(result))) => {
                return with_cache_note(Response::json(200, &result), cache_note);
            }
            Some((_, JobState::Failed(msg))) => return Response::error(500, msg),
            _ => {} // still running: fall through to the 202 ticket
        }
    }
    with_cache_note(ticket(id, &job_name, "queued"), cache_note)
}

/// The 202 ticket document for an accepted (or cached) sweep job.
fn ticket(id: u64, sweep: &str, status: &str) -> Response {
    Response::json(
        202,
        &Json::obj([
            ("job", Json::Int(id as i64)),
            ("sweep", Json::str(sweep)),
            ("status", Json::str(status)),
            ("poll", Json::str(format!("/v1/jobs/{id}"))),
        ]),
    )
}

fn job_status(ctx: &Ctx, id_text: &str) -> Response {
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(400, "job id must be an integer");
    };
    let Some((name, state)) = ctx.queue.status(id) else {
        return Response::error(404, format!("no such job {id}"));
    };
    let mut doc = vec![
        ("job".to_owned(), Json::Int(id as i64)),
        ("sweep".to_owned(), Json::str(name)),
        ("status".to_owned(), Json::str(state.label())),
    ];
    match state {
        JobState::Done(result) => doc.push(("result".to_owned(), result)),
        JobState::Failed(msg) => doc.push(("error".to_owned(), Json::str(msg))),
        JobState::Queued | JobState::Running => {}
    }
    Response::json(200, &Json::Obj(doc))
}
