//! Minimal HTTP/1.1 client for the load generator: one request per
//! fresh connection, or request/response exchanges over a kept-alive
//! one. Each exchange reports when it connected, sent, saw its first
//! response byte and finished, so the trace can split a request into
//! connect, time to first byte, and read.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
}

/// When each phase of one exchange happened.
#[derive(Debug, Clone, Copy)]
pub struct Timings {
    /// Connect start (equal to `sent` on a reused connection).
    pub connect_start: Instant,
    /// Request bytes handed to the socket.
    pub sent: Instant,
    /// First response byte read.
    pub first_byte: Instant,
    /// Response fully read.
    pub done: Instant,
}

/// Render a request. The whole request goes out in one write, so no
/// client-side segmenting interacts with the server's.
pub fn encode(
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: leapme-benchmark\r\n");
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    if method == "POST" {
        head.push_str(&format!("content-length: {}\r\n", body.len()));
    }
    if keep_alive {
        head.push_str("connection: keep-alive\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// One request over a fresh connection.
pub fn fresh(
    addr: SocketAddr,
    request: &[u8],
    timeout: Duration,
) -> io::Result<(Response, Timings)> {
    let connect_start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let (response, mut timings) = exchange(&mut stream, request)?;
    timings.connect_start = connect_start;
    Ok((response, timings))
}

/// Open a connection for keep-alive exchanges.
pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Send `request` on `stream` and read one response.
pub fn exchange(stream: &mut TcpStream, request: &[u8]) -> io::Result<(Response, Timings)> {
    let sent = Instant::now();
    stream.write_all(request)?;
    let (response, first_byte) = read_response(stream)?;
    let done = Instant::now();
    Ok((
        response,
        Timings {
            connect_start: sent,
            sent,
            first_byte,
            done,
        },
    ))
}

/// `GET path` over a fresh connection.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<Response> {
    fresh(addr, &encode("GET", path, &[], &[], false), timeout).map(|(r, _)| r)
}

/// Read one response: head up to the blank line, then exactly
/// `content-length` body bytes. Returns it with the instant the first
/// byte arrived.
pub fn read_response(stream: &mut TcpStream) -> io::Result<(Response, Instant)> {
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    let mut first_byte = None;
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response head",
            ));
        }
        first_byte.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let mut content_length = 0usize;
    let mut keep_alive = false;
    for line in lines {
        let Some((k, v)) = line.split_once(':') else {
            continue;
        };
        let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
        if k == "content-length" {
            content_length = v
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        } else if k == "connection" {
            keep_alive = v.eq_ignore_ascii_case("keep-alive");
        }
    }
    let mut body = buf.split_off(head_end + 4);
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let first_byte = first_byte.unwrap_or_else(Instant::now);
    Ok((
        Response {
            status,
            body,
            keep_alive,
        },
        first_byte,
    ))
}
