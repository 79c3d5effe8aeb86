//! A hand-rolled HTTP/1.1 request parser and response writer.
//!
//! Scope: exactly what `jouppi serve` needs — `GET`/`POST`, headers,
//! `Content-Length` bodies, keep-alive, and pipelining — implemented
//! defensively over any `Read`:
//!
//! * **Split reads** — a request may arrive one byte at a time; the
//!   parser buffers until the head *and* body are complete and only then
//!   consumes them, so a timeout mid-request can simply retry.
//! * **Pipelining** — bytes beyond the current request stay buffered for
//!   the next [`HttpConn::read_request`] call.
//! * **Limits** — oversized heads and bodies are rejected with typed
//!   errors (mapped to 431/413 by the server), never unbounded buffering.
//! * **No panics** — malformed input is a [`HttpError`], full stop.

#![expect(
    clippy::disallowed_types,
    reason = "the request reader enforces the caller's wall-clock deadline; parsing never depends on it"
)]

use std::io::{self, Read, Write};
use std::time::Instant;

use crate::json::Json;

/// Parser limits; defaults are generous for a loopback control service.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum bytes in the request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes in a request body.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    /// 16 KiB heads, 1 MiB bodies.
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Maximum number of header lines accepted per request.
const MAX_HEADERS: usize = 100;

/// A parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, ...).
    pub method: String,
    /// The raw request target (path plus optional query).
    pub target: String,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given name (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The target's path component (before any `?`).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The target's query string (after the first `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// Whether the client asked to keep the connection open
    /// (HTTP/1.1 default yes, overridden by `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The socket read timed out; the caller may retry (partial data is
    /// preserved) or give up.
    Timeout,
    /// The peer closed the connection mid-request.
    Truncated,
    /// Request line + headers exceeded [`Limits::max_head_bytes`].
    HeadTooLarge,
    /// Declared body length exceeded [`Limits::max_body_bytes`].
    BodyTooLarge,
    /// The request is malformed; the message says how.
    Bad(String),
    /// Any other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Timeout => write!(f, "read timed out"),
            HttpError::Truncated => write!(f, "connection closed mid-request"),
            HttpError::HeadTooLarge => write!(f, "request head too large"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::Bad(msg) => write!(f, "bad request: {msg}"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One side of a connection: buffers bytes from `inner` and yields
/// complete requests.
pub struct HttpConn<R> {
    inner: R,
    limits: Limits,
    buf: Vec<u8>,
}

impl<R: Read> HttpConn<R> {
    /// Wraps a byte stream with the given limits.
    pub fn new(inner: R, limits: Limits) -> Self {
        HttpConn {
            inner,
            limits,
            buf: Vec::new(),
        }
    }

    /// Whether a partially-received request is sitting in the buffer.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Reads the next complete request.
    ///
    /// Returns `Ok(None)` on a clean close at a request boundary. On
    /// [`HttpError::Timeout`] the buffered partial request is preserved,
    /// so the caller can call again to resume.
    ///
    /// `deadline`, when given, bounds the *total* time spent receiving
    /// one request: once it passes, the call returns
    /// [`HttpError::Timeout`] even if bytes are still trickling in
    /// (slow-loris protection — the socket-level read timeout alone
    /// cannot catch a peer that sends one byte per tick).
    ///
    /// # Errors
    ///
    /// All the [`HttpError`] variants; see each for the trigger.
    pub fn read_request(
        &mut self,
        deadline: Option<Instant>,
    ) -> Result<Option<Request>, HttpError> {
        loop {
            let head_end = find_head_end(&self.buf);
            // Until the terminator arrives the buffer is all head. Checking
            // the complete head too keeps the verdict independent of how
            // the reads were chunked.
            if head_end.unwrap_or(self.buf.len()) > self.limits.max_head_bytes {
                return Err(HttpError::HeadTooLarge);
            }
            if let Some(head_end) = head_end {
                let (request, body_len) = parse_head(&self.buf[..head_end])?;
                if body_len > self.limits.max_body_bytes {
                    return Err(HttpError::BodyTooLarge);
                }
                let total = head_end + body_len;
                if self.buf.len() >= total {
                    let mut request = request;
                    request.body = self.buf[head_end..total].to_vec();
                    self.buf.drain(..total);
                    return Ok(Some(request));
                }
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(HttpError::Timeout);
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(HttpError::Truncated)
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(HttpError::Timeout);
                }
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
    }

    /// The wrapped stream (for writing responses back).
    pub fn inner_mut(&mut self) -> &mut R {
        &mut self.inner
    }
}

/// Index just past the `\r\n\r\n` head terminator, if present.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Parses the head (everything before the blank line) into a body-less
/// [`Request`] plus the declared body length.
fn parse_head(head: &[u8]) -> Result<(Request, usize), HttpError> {
    let text = std::str::from_utf8(head).map_err(|_| bad("head is not UTF-8"))?;
    let mut lines = text.trim_end_matches("\r\n\r\n").split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(bad("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::HeadTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("header without ':'"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(bad("malformed header name"));
        }
        headers.push((name.to_owned(), value.trim().to_owned()));
    }
    let request = Request {
        method: method.to_owned(),
        target: target.to_owned(),
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(bad("transfer-encoding is not supported"));
    }
    let mut lengths = request
        .headers
        .iter()
        .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"));
    let body_len = match (lengths.next(), lengths.next()) {
        (None, _) => 0,
        // RFC 9112 §6.3: differing lengths must be rejected; a repeat
        // gains nothing, so any repeat is.
        (Some(_), Some(_)) => return Err(bad("repeated content-length")),
        (Some((_, raw)), None) => content_length(raw)?,
    };
    Ok((request, body_len))
}

/// Parses a `Content-Length` value: ASCII digits only
/// (`usize::from_str` alone would also accept a leading `+`).
fn content_length(raw: &str) -> Result<usize, HttpError> {
    match raw.parse() {
        Ok(n) if raw.bytes().all(|b| b.is_ascii_digit()) => Ok(n),
        _ => Err(bad("invalid content-length")),
    }
}

fn bad(msg: &str) -> HttpError {
    HttpError::Bad(msg.to_owned())
}

/// An HTTP response under construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 404, ...).
    pub status: u16,
    /// Extra headers beyond `Content-Length`/`Content-Type`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` to send.
    pub content_type: &'static str,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// A JSON response encoding `value` compactly (plus a newline).
    pub fn json(status: u16, value: &Json) -> Self {
        let mut body = value.encode();
        body.push('\n');
        Response {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
            content_type: "application/json",
        }
    }

    /// A JSON response whose body is already encoded: `body` must be
    /// the body [`Response::json`] produced for the document.
    pub fn json_encoded(status: u16, body: &[u8]) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.to_vec(),
            content_type: "application/json",
        }
    }

    /// A JSON error response: `{"error": msg}`.
    pub fn error(status: u16, msg: impl Into<String>) -> Self {
        Response::json(status, &Json::obj([("error", Json::Str(msg.into()))]))
    }

    /// Adds a header.
    #[must_use]
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serializes the response to `w` in one `write_all`: on a
    /// `TCP_NODELAY` socket a separate head write would leave as a
    /// packet of its own.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut wire = Vec::with_capacity(256 + self.body.len());
        write!(
            wire,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in &self.headers {
            write!(wire, "{name}: {value}\r\n")?;
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_writer_frames_body() {
        let mut out = Vec::new();
        Response::text(200, "hi")
            .header("X-Test", "1")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("X-Test: 1\r\n"));
        assert!(text.ends_with("\r\n\r\nhi"));
    }

    #[test]
    fn json_response_sets_content_type() {
        let mut out = Vec::new();
        Response::json(202, &Json::obj([("job", Json::Int(1))]))
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"job\":1}\n"));
    }

    /// A sink that records each `write` call it receives.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_leaves_in_one_write() {
        let resp = Response::json(200, &Json::obj([("hits", Json::Int(7))]))
            .header("x-jouppi-cache", "hit");
        for keep_alive in [true, false] {
            let mut whole = Vec::new();
            resp.write_to(&mut whole, keep_alive).unwrap();
            let mut log = WriteLog::default();
            resp.write_to(&mut log, keep_alive).unwrap();
            assert_eq!(log.0.len(), 1, "keep_alive={keep_alive}");
            assert_eq!(log.0[0], whole, "one call carries head and body");
            assert!(log.0[0].ends_with(b"\r\n\r\n{\"hits\":7}\n"));
        }
    }

    #[test]
    fn request_accessors() {
        let r = Request {
            method: "GET".into(),
            target: "/v1/jobs/3?wait=1".into(),
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: Vec::new(),
        };
        assert_eq!(r.path(), "/v1/jobs/3");
        assert_eq!(r.query(), Some("wait=1"));
        assert_eq!(r.header("content-type"), Some("application/json"));
        assert!(r.keep_alive());
    }
}
