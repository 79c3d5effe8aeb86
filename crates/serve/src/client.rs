//! A minimal blocking HTTP/1.1 client for loopback use.
//!
//! Shared by the integration tests and the `jouppi-bench` benchmark
//! (`perfbench/`) so both talk to the daemon the way a real client
//! would — over a `TcpStream`, one connection, many keep-alive requests.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::find_head_end;
use crate::json::Json;

/// A parsed response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header value with the given name (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The body parsed as JSON.
    ///
    /// # Errors
    ///
    /// The parse error for a non-JSON body.
    pub fn json(&self) -> Result<Json, crate::json::JsonError> {
        Json::parse(self.text().trim_end())
    }
}

/// One keep-alive connection to the daemon.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to `addr` with a 30s read timeout.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads the full response.
    ///
    /// # Errors
    ///
    /// Any I/O failure, or `InvalidData` for an unparsable response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> io::Result<ClientResponse> {
        let payload = body.map(Json::encode).unwrap_or_default();
        // One write per request: with `TCP_NODELAY` set, a separate
        // payload write would leave as a second segment.
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        );
        self.stream.write_all(request.as_bytes())?;
        self.stream.flush()?;
        self.read_response()
    }

    /// Sends raw bytes (for protocol-abuse tests) and reads a response.
    ///
    /// # Errors
    ///
    /// Any I/O failure, or `InvalidData` for an unparsable response.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<ClientResponse> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
        loop {
            if let Some(head_end) = find_head_end(&self.buf) {
                let head = std::str::from_utf8(&self.buf[..head_end])
                    .map_err(|_| bad("response head is not UTF-8"))?
                    .to_owned();
                let mut lines = head.trim_end_matches("\r\n\r\n").split("\r\n");
                let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
                let status: u16 = status_line
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("malformed status line"))?;
                let headers: Vec<(String, String)> = lines
                    .filter_map(|l| l.split_once(':'))
                    .map(|(k, v)| (k.to_owned(), v.trim().to_owned()))
                    .collect();
                let length: usize = headers
                    .iter()
                    .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                    .and_then(|(_, v)| v.parse().ok())
                    .unwrap_or(0);
                while self.buf.len() < head_end + length {
                    self.fill()?;
                }
                let body = self.buf[head_end..head_end + length].to_vec();
                self.buf.drain(..head_end + length);
                return Ok(ClientResponse {
                    status,
                    headers,
                    body,
                });
            }
            self.fill()?;
        }
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}
