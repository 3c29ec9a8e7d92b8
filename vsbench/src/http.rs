//! A minimal HTTP/1.1 keep-alive client: one request at a time on one
//! connection (a closed loop), every request tagged with an id the server
//! must echo.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

#[derive(Debug)]
pub struct Response {
    pub body: String,
}

/// Why a request did not yield a 2xx answer. Each counts as one failed
/// operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// The server shed the request (`503`).
    Shed,
    /// Any other non-2xx status.
    Status(u16, String),
    /// A malformed or truncated answer, or a transport error.
    Protocol(String),
    /// The answer carried another request's id.
    IdMismatch { sent: String, got: String },
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Shed => f.write_str("503 shed"),
            Failure::Status(s, body) => write!(f, "status {s}: {body}"),
            Failure::Protocol(e) => write!(f, "protocol error: {e}"),
            Failure::IdMismatch { sent, got } => write!(f, "request id {sent} answered as {got}"),
        }
    }
}

/// Status, lower-cased headers and body of one answer.
type RawResponse = (u16, Vec<(String, String)>, String);

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    tag: String,
    seq: u64,
}

impl Conn {
    /// Connects to `addr`; `tag` prefixes every request id.
    ///
    /// # Errors
    ///
    /// The connect error.
    pub fn open(addr: &str, tag: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(16 * 1024),
            tag: tag.to_owned(),
            seq: 0,
        })
    }

    /// Sends one request and reads its answer.
    ///
    /// # Errors
    ///
    /// A [`Failure`] for anything but a 2xx answer to this request.
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, Failure> {
        self.seq += 1;
        let id = format!("{}-{}", self.tag, self.seq);
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nX-Request-Id: {id}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        self.stream
            .write_all(&req)
            .map_err(|e| Failure::Protocol(e.to_string()))?;
        let (status, headers, body) = self.read_response()?;
        let got = header(&headers, "x-request-id").unwrap_or_default();
        if got != id {
            return Err(Failure::IdMismatch { sent: id, got });
        }
        match status {
            200..=299 => Ok(Response { body }),
            503 => Err(Failure::Shed),
            s => Err(Failure::Status(s, body)),
        }
    }

    fn read_response(&mut self) -> Result<RawResponse, Failure> {
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Failure::Protocol(format!("bad status line {status_line:?}")))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
            .collect();
        let len: usize = header(&headers, "content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| Failure::Protocol("answer without content-length".into()))?;
        let total = head_end + 4 + len;
        while self.buf.len() < total {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[head_end + 4..total]).into_owned();
        self.buf.drain(..total);
        Ok((status, headers, body))
    }

    fn fill(&mut self) -> Result<(), Failure> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self
            .stream
            .read(&mut chunk)
            .map_err(|e| Failure::Protocol(e.to_string()))?;
        if n == 0 {
            return Err(Failure::Protocol("connection closed mid-answer".into()));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn header(headers: &[(String, String)], name: &str) -> Option<String> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.clone())
}

/// One `GET` on a fresh connection (for set-up probes and scrapes outside
/// the measured loop).
///
/// # Errors
///
/// Connect errors and [`Failure`]s, as text.
pub fn get_once(addr: &str, path: &str) -> Result<String, String> {
    let mut c = Conn::open(addr, "probe").map_err(|e| e.to_string())?;
    c.call("GET", path, b"")
        .map(|r| r.body)
        .map_err(|e| e.to_string())
}
