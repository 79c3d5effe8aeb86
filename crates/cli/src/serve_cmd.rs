//! The `jouppi serve` subcommand: flag parsing and daemon driving.
//!
//! Parsing lives here (unit-testable); the `jouppi` binary is a thin
//! shell. The daemon itself is [`jouppi_serve::Server`].

use std::time::Duration;

use jouppi_serve::http::Limits;
use jouppi_serve::result_cache::CacheMode;
use jouppi_serve::server::ServerConfig;
use jouppi_serve::Server;

use crate::UsageError;

/// The usage text for `jouppi serve --help`.
pub const SERVE_USAGE: &str = "\
usage: jouppi serve [OPTIONS]
  --host ADDR            bind address (default 127.0.0.1)
  --port N               TCP port, 0 = ephemeral (default 7090)
  --workers N            sweep job workers (default 2)
  --queue-depth N        max queued sweep jobs before 503 (default 16)
  --max-body BYTES       request body size limit (default 1048576)
  --idle-timeout-ms N    keep-alive idle timeout (default 10000)
  --request-timeout-ms N whole-request receive timeout (default 30000)
  --cache-mode MODE      result cache: on, off, or bypass (default on)
  --cache-capacity N     max memoized result documents (default 256)
  --max-runtime-secs N   serve for N seconds then drain and exit (0 = forever)
  --help                 show this message

endpoints: POST /v1/simulate, POST /v1/sweep, GET /v1/jobs/<id>,
           GET /healthz, GET /metrics (Prometheus text format)";

/// Parsed `jouppi serve` options.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// The daemon configuration.
    pub config: ServerConfig,
    /// Seconds to serve before draining; 0 = until killed.
    pub max_runtime_secs: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            config: ServerConfig {
                addr: "127.0.0.1:7090".to_owned(),
                ..ServerConfig::default()
            },
            max_runtime_secs: 0,
        }
    }
}

fn err(msg: impl Into<String>) -> UsageError {
    UsageError(msg.into())
}

/// Parses `jouppi serve` arguments (everything after the subcommand).
///
/// # Errors
///
/// Returns [`UsageError`] describing the first invalid argument.
pub fn parse_serve_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<ServeOptions, UsageError> {
    let mut opts = ServeOptions::default();
    let mut host = "127.0.0.1".to_owned();
    let mut port: u16 = 7090;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| err(format!("{name} needs a value")))
        };
        let parse_u64 = |name: &str, raw: String| {
            raw.parse::<u64>()
                .map_err(|_| err(format!("{name} wants an integer, got '{raw}'")))
        };
        let parse_usize = |name: &str, raw: String| {
            raw.parse::<usize>()
                .map_err(|_| err(format!("{name} wants an integer, got '{raw}'")))
        };
        match arg.as_str() {
            "--host" => host = value("--host")?,
            "--port" => {
                port = value("--port")?
                    .parse()
                    .map_err(|_| err("--port wants 0..=65535"))?;
            }
            "--workers" => {
                opts.config.workers = parse_usize("--workers", value("--workers")?)?.max(1);
            }
            "--queue-depth" => {
                opts.config.queue_depth =
                    parse_usize("--queue-depth", value("--queue-depth")?)?.max(1);
            }
            "--max-body" => {
                opts.config.limits = Limits {
                    max_body_bytes: parse_usize("--max-body", value("--max-body")?)?,
                    ..opts.config.limits
                };
            }
            "--idle-timeout-ms" => {
                opts.config.idle_timeout = Duration::from_millis(parse_u64(
                    "--idle-timeout-ms",
                    value("--idle-timeout-ms")?,
                )?);
            }
            "--request-timeout-ms" => {
                opts.config.request_timeout = Duration::from_millis(parse_u64(
                    "--request-timeout-ms",
                    value("--request-timeout-ms")?,
                )?);
            }
            "--cache-mode" => {
                let raw = value("--cache-mode")?;
                opts.config.cache.mode = CacheMode::parse(&raw)
                    .ok_or_else(|| err(format!("--cache-mode wants on|off|bypass, got '{raw}'")))?;
            }
            "--cache-capacity" => {
                opts.config.cache.capacity =
                    parse_usize("--cache-capacity", value("--cache-capacity")?)?.max(1);
            }
            "--max-runtime-secs" => {
                opts.max_runtime_secs =
                    parse_u64("--max-runtime-secs", value("--max-runtime-secs")?)?;
            }
            "--help" | "-h" => return Err(err(SERVE_USAGE)),
            other => return Err(err(format!("unknown argument '{other}'\n{SERVE_USAGE}"))),
        }
    }
    opts.config.addr = format!("{host}:{port}");
    Ok(opts)
}

/// Boots the daemon and serves until the runtime limit (if any) expires,
/// then drains gracefully.
///
/// # Errors
///
/// Propagates bind failures.
pub fn run_serve(opts: &ServeOptions) -> Result<String, Box<dyn std::error::Error>> {
    let handle = Server::start(opts.config.clone())?;
    #[expect(
        clippy::print_stderr,
        reason = "the listening banner must appear before the blocking serve loop; \
                  there is no caller to return it to until shutdown"
    )]
    {
        eprintln!(
            "jouppi serve: listening on http://{} ({} workers, queue depth {})",
            handle.addr(),
            opts.config.workers,
            opts.config.queue_depth
        );
    }
    if opts.max_runtime_secs == 0 {
        // Serve until the process is killed.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(opts.max_runtime_secs));
    let stats = handle.shutdown();
    Ok(format!(
        "drained after {}s: {} job(s) completed",
        opts.max_runtime_secs, stats.jobs_completed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeOptions, UsageError> {
        parse_serve_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_bind_loopback_7090() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.config.addr, "127.0.0.1:7090");
        assert_eq!(o.config.workers, 2);
        assert_eq!(o.config.queue_depth, 16);
        assert_eq!(o.config.cache.mode, CacheMode::On);
        assert_eq!(o.config.cache.capacity, 256);
        assert_eq!(o.max_runtime_secs, 0);
    }

    #[test]
    fn full_flag_set_parses() {
        let o = parse(&[
            "--host",
            "0.0.0.0",
            "--port",
            "8080",
            "--workers",
            "4",
            "--queue-depth",
            "32",
            "--max-body",
            "4096",
            "--idle-timeout-ms",
            "500",
            "--request-timeout-ms",
            "2000",
            "--cache-mode",
            "bypass",
            "--cache-capacity",
            "64",
            "--max-runtime-secs",
            "3",
        ])
        .unwrap();
        assert_eq!(o.config.addr, "0.0.0.0:8080");
        assert_eq!(o.config.workers, 4);
        assert_eq!(o.config.queue_depth, 32);
        assert_eq!(o.config.limits.max_body_bytes, 4096);
        assert_eq!(o.config.idle_timeout, Duration::from_millis(500));
        assert_eq!(o.config.request_timeout, Duration::from_secs(2));
        assert_eq!(o.config.cache.mode, CacheMode::Bypass);
        assert_eq!(o.config.cache.capacity, 64);
        assert_eq!(o.max_runtime_secs, 3);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&["--port", "huge"]).is_err());
        assert!(parse(&["--workers"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--cache-mode", "sometimes"]).is_err());
        assert!(parse(&["--cache-capacity", "many"]).is_err());
        let e = parse(&["--help"]).unwrap_err();
        assert!(e.to_string().contains("usage: jouppi serve"));
    }

    #[test]
    fn zero_workers_and_depth_are_clamped() {
        let o = parse(&[
            "--workers",
            "0",
            "--queue-depth",
            "0",
            "--cache-capacity",
            "0",
        ])
        .unwrap();
        assert_eq!(o.config.workers, 1);
        assert_eq!(o.config.queue_depth, 1);
        assert_eq!(o.config.cache.capacity, 1);
    }

    #[test]
    fn timed_run_serves_and_drains() {
        let opts = ServeOptions {
            config: ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                ..ServerConfig::default()
            },
            max_runtime_secs: 1,
        };
        let out = run_serve(&opts).unwrap();
        assert!(out.contains("drained after 1s"), "{out}");
    }
}
