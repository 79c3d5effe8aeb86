//! The daemon: accept loop, connection threads, and graceful shutdown.
//!
//! Lifecycle:
//!
//! 1. [`Server::start`] binds the listener, spawns the job-queue workers
//!    and the accept thread, and returns a [`ServerHandle`].
//! 2. Each connection gets its own thread running a keep-alive loop:
//!    read request → route → write response. Socket reads use a short
//!    tick timeout so the loop can notice shutdown and enforce the idle
//!    and whole-request deadlines.
//! 3. [`ServerHandle::shutdown`] flips the shutdown flag, wakes the
//!    accept loop, joins connection threads (in-flight requests finish;
//!    their responses are sent with `Connection: close`), then drains
//!    the job queue — every accepted sweep completes before the workers
//!    exit.

#![expect(
    clippy::disallowed_types,
    reason = "connection threads enforce idle and whole-request deadlines and time requests on the wall clock; no result document carries timing"
)]

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{HttpConn, HttpError, Limits, Response};
use crate::metrics::Registry;
use crate::queue::JobQueue;
use crate::result_cache::{CacheConfig, ResultCache};
use crate::routes::route;

/// Socket-level read timeout: the granularity at which idle connection
/// loops notice shutdown and expired deadlines.
const TICK: Duration = Duration::from_millis(100);

/// Everything configurable about the daemon.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7090` (port 0 = ephemeral).
    pub addr: String,
    /// Job-queue worker threads executing sweeps.
    pub workers: usize,
    /// Maximum sweeps waiting in the queue before submits get 503.
    pub queue_depth: usize,
    /// HTTP parser limits (head/body size).
    pub limits: Limits,
    /// How long a keep-alive connection may sit idle.
    pub idle_timeout: Duration,
    /// Maximum wall-clock time to receive one complete request.
    pub request_timeout: Duration,
    /// How long a `"wait": true` sweep request blocks before falling
    /// back to a 202 ticket.
    pub job_wait_timeout: Duration,
    /// Content-addressed result cache (mode + capacity).
    pub cache: CacheConfig,
}

impl Default for ServerConfig {
    /// Loopback on an ephemeral port, 2 workers, depth-16 queue,
    /// 10s idle / 30s request / 120s wait timeouts.
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_depth: 16,
            limits: Limits::default(),
            idle_timeout: Duration::from_secs(10),
            request_timeout: Duration::from_secs(30),
            job_wait_timeout: Duration::from_secs(120),
            cache: CacheConfig::default(),
        }
    }
}

/// Shared server state (config, queue, metrics, shutdown flag).
pub struct Ctx {
    /// The configuration the server was started with.
    pub cfg: ServerConfig,
    /// The bounded sweep queue.
    pub queue: Arc<JobQueue>,
    /// Request metrics.
    pub metrics: Registry,
    /// Content-addressed result cache (an `Arc` so leader guards can
    /// ride into queued job closures).
    pub result_cache: Arc<ResultCache>,
    shutdown: AtomicBool,
    connections: AtomicUsize,
}

impl Ctx {
    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Currently open HTTP connections.
    pub fn open_connections(&self) -> usize {
        self.connections.load(Ordering::SeqCst)
    }
}

/// Counters reported by [`ServerHandle::shutdown`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShutdownStats {
    /// Jobs that finished (drained) before the workers exited.
    pub jobs_completed: u64,
}

/// The daemon entry point.
pub struct Server;

impl Server {
    /// Binds, spawns workers and the accept loop, and returns a handle.
    ///
    /// # Errors
    ///
    /// Propagates bind and thread-spawn failures.
    pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let queue = JobQueue::new(cfg.queue_depth);
        let workers = queue.spawn_workers(cfg.workers)?;
        let result_cache = ResultCache::new(cfg.cache);
        let ctx = Arc::new(Ctx {
            cfg,
            queue,
            metrics: Registry::new(),
            result_cache,
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let ctx = Arc::clone(&ctx);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("jouppi-accept".to_owned())
                .spawn(move || accept_loop(&listener, &ctx, &conns))?
        };
        Ok(ServerHandle {
            addr,
            ctx,
            accept,
            conns,
            workers,
        })
    }
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<Ctx>, conns: &Arc<Mutex<Vec<JoinHandle<()>>>>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if ctx.is_shutting_down() => break,
            Err(_) => continue,
        };
        if ctx.is_shutting_down() {
            break; // The wake-up connection from shutdown(), or later.
        }
        let handle = {
            let ctx = Arc::clone(ctx);
            std::thread::Builder::new()
                .name("jouppi-conn".to_owned())
                .spawn(move || handle_conn(stream, &ctx))
        };
        let mut conns = conns.lock().unwrap_or_else(|e| e.into_inner());
        // Reap finished connection threads so the vec stays small.
        conns.retain(|h| !h.is_finished());
        if let Ok(handle) = handle {
            conns.push(handle);
        }
    }
}

fn handle_conn(stream: TcpStream, ctx: &Arc<Ctx>) {
    handle_conn_with_tick(stream, ctx, TICK);
}

/// The connection loop behind [`handle_conn`]; the tick is a parameter
/// so tests can exercise the refusal path with a timeout the OS rejects.
fn handle_conn_with_tick(stream: TcpStream, ctx: &Arc<Ctx>, tick: Duration) {
    // The tick timeout is load-bearing: without it `read_request` blocks
    // indefinitely, so the idle and whole-request deadlines never fire
    // and shutdown cannot interrupt the read. A socket that cannot arm
    // it is closed, not served unprotected.
    if stream.set_read_timeout(Some(tick)).is_err() {
        return;
    }
    ctx.connections.fetch_add(1, Ordering::SeqCst);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "latency hint only; serving without TCP_NODELAY is still correct"
    )]
    let _ = stream.set_nodelay(true);
    let mut conn = HttpConn::new(stream, ctx.cfg.limits);
    let mut idle_since = Instant::now();
    let mut request_deadline: Option<Instant> = None;
    loop {
        if ctx.is_shutting_down() && !conn.has_partial() {
            break;
        }
        match conn.read_request(request_deadline) {
            Ok(Some(request)) => {
                request_deadline = None;
                let started = Instant::now();
                let (endpoint, response) = route(ctx, &request);
                let keep_alive = request.keep_alive() && !ctx.is_shutting_down();
                let status = response.status;
                let sent = response.write_to(conn.inner_mut(), keep_alive).is_ok();
                ctx.metrics
                    .observe(endpoint, status, started.elapsed().as_secs_f64());
                if !sent || !keep_alive {
                    break;
                }
                idle_since = Instant::now();
            }
            Ok(None) => break,
            Err(HttpError::Timeout) => {
                if conn.has_partial() {
                    let deadline = *request_deadline
                        .get_or_insert_with(|| Instant::now() + ctx.cfg.request_timeout);
                    if Instant::now() >= deadline {
                        fail(&mut conn, ctx, "other", 408, "request timed out");
                        break;
                    }
                } else {
                    request_deadline = None;
                    if idle_since.elapsed() >= ctx.cfg.idle_timeout {
                        break;
                    }
                }
            }
            Err(error) => {
                let (status, msg) = match &error {
                    HttpError::HeadTooLarge => (431, "request head too large".to_owned()),
                    HttpError::BodyTooLarge => (413, "request body too large".to_owned()),
                    HttpError::Bad(msg) => (400, msg.clone()),
                    HttpError::Truncated => (400, "incomplete request".to_owned()),
                    HttpError::Timeout | HttpError::Io(_) => (408, error.to_string()),
                };
                fail(&mut conn, ctx, "other", status, &msg);
                break;
            }
        }
    }
    ctx.connections.fetch_sub(1, Ordering::SeqCst);
}

/// Best-effort error response on a connection that is about to close.
fn fail(
    conn: &mut HttpConn<TcpStream>,
    ctx: &Arc<Ctx>,
    endpoint: &'static str,
    status: u16,
    msg: &str,
) {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort farewell on a connection already being torn down"
    )]
    let _ = Response::error(status, msg).write_to(conn.inner_mut(), false);
    ctx.metrics.observe(endpoint, status, 0.0);
}

/// A running server; dropping it without calling [`ServerHandle::shutdown`]
/// detaches the threads (they exit with the process).
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    accept: JoinHandle<()>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared server context (tests sample queue/metrics state).
    pub fn ctx(&self) -> &Ctx {
        &self.ctx
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests,
    /// drain every accepted sweep job, then join all threads.
    pub fn shutdown(self) -> ShutdownStats {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the connect only nudges accept() awake; a failure means the listener is already gone"
        )]
        let _ = TcpStream::connect(self.addr);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "Err means the thread panicked; shutdown must still drain the rest"
        )]
        let _ = self.accept.join();
        let handles = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in handles {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "Err means the thread panicked; shutdown must still drain the rest"
            )]
            let _ = handle.join();
        }
        self.ctx.queue.shutdown();
        for worker in self.workers {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "Err means the thread panicked; shutdown must still drain the rest"
            )]
            let _ = worker.join();
        }
        ShutdownStats {
            jobs_completed: self.ctx.queue.stats().completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// The accept loop reaps finished connection threads: once a run of
    /// closed connections has finished, one more connection leaves only
    /// its own handle behind.
    #[test]
    fn finished_connection_threads_are_reaped() {
        let handle = Server::start(ServerConfig::default()).expect("start");
        let connect = || {
            let mut stream = TcpStream::connect(handle.addr()).expect("connect");
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                .expect("send");
            let mut reply = Vec::new();
            stream.read_to_end(&mut reply).expect("read until close");
            assert!(reply.starts_with(b"HTTP/1.1 200"));
        };
        for _ in 0..8 {
            connect();
        }
        let mut tracked = usize::MAX;
        for _ in 0..50 {
            std::thread::sleep(Duration::from_millis(20));
            connect();
            tracked = handle.conns.lock().unwrap_or_else(|e| e.into_inner()).len();
            if tracked == 1 {
                break;
            }
        }
        assert_eq!(tracked, 1, "finished connection handles were kept");
        handle.shutdown();
    }

    /// Pins the fix for the swallowed `set_read_timeout` result: a
    /// socket that cannot arm the tick timeout must be closed, never
    /// served with unbounded blocking reads.
    #[test]
    fn unarmable_tick_timeout_refuses_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("local addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let ctx = Arc::new(Ctx {
            cfg: ServerConfig::default(),
            queue: JobQueue::new(1),
            metrics: Registry::new(),
            result_cache: ResultCache::new(CacheConfig::default()),
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        });
        // `set_read_timeout` documents that a zero duration is an
        // `InvalidInput` error on every platform, so a zero tick drives
        // the refusal path deterministically.
        handle_conn_with_tick(stream, &ctx, Duration::ZERO);
        // The connection was refused before being counted as open...
        assert_eq!(ctx.open_connections(), 0);
        // ...and the socket was closed rather than read without a
        // timeout: the client sees immediate EOF, not a hung server.
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("client read timeout");
        let mut buf = [0u8; 1];
        assert_eq!(client.read(&mut buf).expect("clean close"), 0);
    }
}
