//! Table-driven tests for the hand-rolled HTTP request parser:
//! split reads, pipelining, size limits, bad framing, truncation, and
//! timeout/resume behavior — everything a hostile or flaky client can
//! throw at a `TcpStream`, reproduced over a scripted in-memory reader.

#![allow(
    clippy::disallowed_types,
    reason = "the parser's read deadlines are wall-clock `Instant`s"
)]

use std::collections::VecDeque;
use std::io::{self, Read};
use std::time::Instant;

use jouppi_serve::http::{HttpConn, HttpError, Limits, Request};

/// One scripted event a mock connection produces.
#[derive(Clone, Debug)]
enum Step {
    /// Bytes arriving on the socket.
    Data(Vec<u8>),
    /// A socket read timeout (`WouldBlock`).
    Timeout,
}

/// A `Read` that replays a script, then reports EOF.
struct Script(VecDeque<Step>);

impl Script {
    fn new(steps: impl IntoIterator<Item = Step>) -> Self {
        Script(steps.into_iter().collect())
    }

    /// The whole request in one read.
    fn whole(bytes: &str) -> Self {
        Script::new([Step::Data(bytes.as_bytes().to_vec())])
    }

    /// The request delivered one byte per read.
    fn byte_by_byte(bytes: &str) -> Self {
        Script::new(bytes.bytes().map(|b| Step::Data(vec![b])))
    }
}

impl Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.0.pop_front() {
            None => Ok(0),
            Some(Step::Timeout) => Err(io::Error::new(io::ErrorKind::WouldBlock, "tick")),
            Some(Step::Data(mut bytes)) => {
                let n = bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&bytes[..n]);
                if n < bytes.len() {
                    bytes.drain(..n);
                    self.0.push_front(Step::Data(bytes));
                }
                Ok(n)
            }
        }
    }
}

fn conn(script: Script) -> HttpConn<Script> {
    HttpConn::new(script, Limits::default())
}

const SIMPLE_GET: &str = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
const POST_BODY: &str =
    "POST /v1/simulate HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 14\r\n\r\n{\"workload\":1}";

fn expect_request(conn: &mut HttpConn<Script>) -> Request {
    conn.read_request(None)
        .expect("request should parse")
        .expect("request should be present")
}

#[test]
fn parses_simple_get() {
    let mut c = conn(Script::whole(SIMPLE_GET));
    let r = expect_request(&mut c);
    assert_eq!(r.method, "GET");
    assert_eq!(r.path(), "/healthz");
    assert_eq!(r.header("host"), Some("x"));
    assert!(r.body.is_empty());
    assert!(r.keep_alive());
    // Clean EOF afterwards.
    assert!(c.read_request(None).unwrap().is_none());
}

#[test]
fn parses_split_reads_one_byte_at_a_time() {
    let mut c = conn(Script::byte_by_byte(POST_BODY));
    let r = expect_request(&mut c);
    assert_eq!(r.method, "POST");
    assert_eq!(r.body, b"{\"workload\":1}");
}

#[test]
fn parses_pipelined_requests_from_one_chunk() {
    let pipelined = format!("{POST_BODY}{SIMPLE_GET}");
    let mut c = conn(Script::whole(&pipelined));
    let first = expect_request(&mut c);
    assert_eq!(first.method, "POST");
    assert_eq!(first.body.len(), 14);
    let second = expect_request(&mut c);
    assert_eq!(second.method, "GET");
    assert_eq!(second.target, "/healthz");
    assert!(c.read_request(None).unwrap().is_none());
}

#[test]
fn timeout_preserves_partial_request_for_resume() {
    let (head, tail) = POST_BODY.split_at(30);
    let mut c = conn(Script::new([
        Step::Data(head.as_bytes().to_vec()),
        Step::Timeout,
        Step::Data(tail.as_bytes().to_vec()),
    ]));
    assert!(matches!(c.read_request(None), Err(HttpError::Timeout)));
    assert!(c.has_partial());
    let r = expect_request(&mut c);
    assert_eq!(r.body, b"{\"workload\":1}");
    assert!(!c.has_partial());
}

#[test]
fn expired_deadline_yields_timeout() {
    let mut c = conn(Script::whole(SIMPLE_GET));
    let past = Instant::now() - std::time::Duration::from_secs(1);
    assert!(matches!(
        c.read_request(Some(past)),
        Err(HttpError::Timeout)
    ));
}

#[test]
fn connection_close_header_is_honored() {
    let mut c = conn(Script::whole("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
    assert!(!expect_request(&mut c).keep_alive());
}

/// The rejection table: raw bytes in, expected error out.
#[test]
fn rejects_malformed_and_oversized_requests() {
    enum Want {
        Bad,
        HeadTooLarge,
        BodyTooLarge,
        Truncated,
    }
    use Want::*;
    let giant_header = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(64 * 1024));
    let cases: Vec<(&str, String, Want)> = vec![
        ("missing version", "GET /\r\n\r\n".into(), Bad),
        ("blank request", "\r\n\r\n".into(), Bad),
        ("http/2 version", "GET / HTTP/2\r\n\r\n".into(), Bad),
        (
            "header without colon",
            "GET / HTTP/1.1\r\nnocolon\r\n\r\n".into(),
            Bad,
        ),
        (
            "space in header name",
            "GET / HTTP/1.1\r\nbad name: 1\r\n\r\n".into(),
            Bad,
        ),
        (
            "non-numeric content-length",
            "POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n".into(),
            Bad,
        ),
        (
            "negative content-length",
            "POST / HTTP/1.1\r\nContent-Length: -4\r\n\r\n".into(),
            Bad,
        ),
        (
            "chunked transfer-encoding",
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".into(),
            Bad,
        ),
        ("oversized head", giant_header, HeadTooLarge),
        (
            "oversized declared body",
            "POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n".into(),
            BodyTooLarge,
        ),
        (
            "truncated body",
            "POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort".into(),
            Truncated,
        ),
        (
            "truncated head",
            "GET / HTTP/1.1\r\nHost: x".into(),
            Truncated,
        ),
    ];
    for (name, raw, want) in cases {
        let got = conn(Script::whole(&raw)).read_request(None);
        match (want, got) {
            (Bad, Err(HttpError::Bad(_)))
            | (HeadTooLarge, Err(HttpError::HeadTooLarge))
            | (BodyTooLarge, Err(HttpError::BodyTooLarge))
            | (Truncated, Err(HttpError::Truncated)) => {}
            (_, got) => panic!("case '{name}': unexpected outcome {got:?}"),
        }
    }
}

#[test]
fn body_limit_is_configurable() {
    let raw = "POST / HTTP/1.1\r\nContent-Length: 32\r\n\r\n0123456789abcdef0123456789abcdef";
    let tight = Limits {
        max_body_bytes: 16,
        ..Limits::default()
    };
    let mut c = HttpConn::new(Script::whole(raw), tight);
    assert!(matches!(c.read_request(None), Err(HttpError::BodyTooLarge)));
    let mut c = HttpConn::new(Script::whole(raw), Limits::default());
    assert_eq!(expect_request(&mut c).body.len(), 32);
}

#[test]
fn too_many_headers_is_rejected() {
    let mut raw = String::from("GET / HTTP/1.1\r\n");
    for i in 0..150 {
        raw.push_str(&format!("X-H{i}: v\r\n"));
    }
    raw.push_str("\r\n");
    assert!(matches!(
        conn(Script::whole(&raw)).read_request(None),
        Err(HttpError::HeadTooLarge)
    ));
}
