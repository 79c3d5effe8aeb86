//! `jouppi-serve` — the simulator as a network service.
//!
//! A dependency-free (std-only) HTTP/1.1 daemon that puts a front door
//! on the Jouppi reproduction so design-space exploration clients don't
//! have to link the workspace:
//!
//! | Endpoint | What it does |
//! |---|---|
//! | `POST /v1/simulate` | one cache config + workload → miss/removal stats (synchronous) |
//! | `POST /v1/sweep` | run a named paper sweep (`fig_3_1`, `victim_cache_4`, ...) on the job queue |
//! | `GET /v1/jobs/<id>` | poll an async sweep job |
//! | `GET /healthz` | liveness (503 while draining) |
//! | `GET /metrics` | Prometheus text format: request counts, latency histograms, queue depth, refs simulated |
//!
//! Robustness is first-class: the job queue is bounded (overflow →
//! `503` + `Retry-After`), requests have head/body size limits and
//! idle/whole-request timeouts, malformed input yields 4xx documents
//! without ever panicking a worker, and shutdown drains both in-flight
//! requests and every accepted sweep job.
//!
//! Because every simulation is a pure function of its parameters,
//! `/v1/simulate` and `/v1/sweep` results are memoized in a bounded
//! content-addressed [`ResultCache`] with singleflight coalescing —
//! identical concurrent requests cost one computation, and responses
//! carry an `x-jouppi-cache: hit|miss|coalesced|bypass` header.
//!
//! # Examples
//!
//! ```no_run
//! use jouppi_serve::{Client, Server, ServerConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! let handle = Server::start(ServerConfig::default())?;
//! let mut client = Client::connect(handle.addr())?;
//! let health = client.request("GET", "/healthz", None)?;
//! assert_eq!(health.status, 200);
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::cast_possible_truncation)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unreachable,
    clippy::unimplemented
)]
#![allow(
    clippy::disallowed_types,
    reason = "the daemon measures request latency and deadlines on the wall clock; cached result documents never carry timing"
)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod result_cache;
mod routes;
pub mod server;
pub mod sim;
pub mod sweeps;

pub use client::{Client, ClientResponse};
pub use json::Json;
pub use result_cache::{CacheConfig, CacheMode, ResultCache};
pub use server::{Server, ServerConfig, ServerHandle, ShutdownStats};
