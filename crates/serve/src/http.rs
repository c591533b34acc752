//! Minimal HTTP/1.1 request/response codec over `std::net`, built for
//! hostile clients.
//!
//! Strictness is the point: every limit is enforced while *reading*, so
//! a slow-loris client runs into the socket read timeout, an oversized
//! body is rejected at the `Content-Length` header (before a single
//! body byte is buffered), and a header section that never terminates
//! stops at [`HttpLimits::max_head_bytes`]. Connections default to
//! `Connection: close`; clients that send an explicit
//! `Connection: keep-alive` get a bounded number of requests per
//! connection (the per-request socket timeouts and drain semantics
//! apply to every exchange on the connection, so a slow-loris second
//! request dies to the same read timeout as a first).
//!
//! Framing follows RFC 9112 §6.3 strictly: a request is delimited by
//! its `Content-Length` alone. Differing `Content-Length` values and any
//! `Transfer-Encoding` are refused with a 400, because a proxy in front
//! could frame either one differently (request smuggling).

use std::io::{Read, Write};
use std::net::TcpStream;

/// Read-side limits enforced while parsing a request.
#[derive(Debug, Clone)]
pub struct HttpLimits {
    /// Cap on the request line + headers, in bytes.
    pub max_head_bytes: usize,
    /// Cap on the declared `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Maximum number of request headers accepted.
const MAX_HEADERS: usize = 64;

/// How reading a request can fail. Each variant maps to a specific
/// response (or, for [`HttpError::Closed`] and
/// [`HttpError::Disconnected`], to none at all). The connection loop
/// also tells the no-byte cases ([`HttpError::Closed`],
/// [`HttpError::IdleTimeout`]) apart from their mid-request twins: on a
/// kept-alive connection they end the conversation normally.
#[derive(Debug)]
pub enum HttpError {
    /// Structurally invalid request → `400` with a typed error body.
    BadRequest(String),
    /// Declared body exceeds the limit → `413`.
    PayloadTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The socket read timed out mid-request (slow-loris) → `408`.
    Timeout,
    /// The socket read timed out before any byte of a request arrived
    /// → `408` on a connection's first request; after a completed
    /// exchange, the normal end of an idle kept-alive conversation.
    IdleTimeout,
    /// The client closed the connection before sending any byte of a
    /// request: the normal end of a kept-alive conversation, or a
    /// connection that never carried one.
    Closed,
    /// The client vanished partway through a request; there is no one
    /// left to answer.
    Disconnected,
    /// A genuine transport failure.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::PayloadTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::Timeout => write!(f, "read timed out mid-request"),
            HttpError::IdleTimeout => write!(f, "read timed out before a request"),
            HttpError::Closed => write!(f, "client closed the connection before a request"),
            HttpError::Disconnected => write!(f, "client disconnected mid-request"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Request target path (query string included verbatim).
    pub path: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Classify a raw socket error: timeouts get their own variant because
/// they get their own status code (408), reset/broken-pipe means the
/// client is gone.
fn classify(e: std::io::Error) -> HttpError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => HttpError::Timeout,
        ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe => {
            HttpError::Disconnected
        }
        _ => HttpError::Io(e),
    }
}

/// Fault hook for `serve.read`: `io` fails the read outright, `torn`
/// pretends the client vanished mid-request.
#[cfg(feature = "faults")]
fn injected_read_fault() -> Option<HttpError> {
    use leapme_faults::{fires, sites, FaultKind};
    match fires(sites::SERVE_READ)? {
        FaultKind::Io => Some(HttpError::Io(std::io::Error::other(
            "injected fault: socket read",
        ))),
        FaultKind::Torn => Some(HttpError::Disconnected),
        _ => None,
    }
}

#[cfg(not(feature = "faults"))]
fn injected_read_fault() -> Option<HttpError> {
    None
}

/// Read and parse one request off `stream`, honoring `limits`. A
/// socket's read timeout must already be configured by the caller; a
/// timeout before the first byte surfaces as [`HttpError::IdleTimeout`],
/// one mid-head or mid-body as [`HttpError::Timeout`].
pub fn read_request<R: Read>(stream: &mut R, limits: &HttpLimits) -> Result<Request, HttpError> {
    if let Some(e) = injected_read_fault() {
        return Err(e);
    }

    // ---- head: read until the blank line, never past the cap ----
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_too_large = || {
        HttpError::BadRequest(format!(
            "request head exceeds {} bytes",
            limits.max_head_bytes
        ))
    };
    // Scan only the bytes new since the last read (plus the three a
    // terminator could straddle), so a client trickling its head one
    // byte per read costs linear, not quadratic, time.
    let mut scanned = 0;
    let head_end = loop {
        if let Some(p) = find_head_end(&buf[scanned..]) {
            break scanned + p;
        }
        scanned = buf.len().saturating_sub(3);
        // A terminator still to come starts at `len − 3` or later; past
        // this point the head cannot fit, however the reads split it.
        if buf.len() > limits.max_head_bytes + 3 {
            return Err(head_too_large());
        }
        let n = match stream.read(&mut chunk).map_err(classify) {
            Err(HttpError::Timeout) if buf.is_empty() => return Err(HttpError::IdleTimeout),
            r => r?,
        };
        if n == 0 {
            // EOF without a complete head: nothing-at-all is a close
            // between requests (or a probe); a partial head is a
            // mid-request disconnect. Neither can be answered.
            return Err(if buf.is_empty() {
                HttpError::Closed
            } else {
                HttpError::Disconnected
            });
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    if head_end > limits.max_head_bytes {
        return Err(head_too_large());
    }

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::BadRequest(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };

    // ---- framing: one content-length, no transfer coding ----
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::BadRequest(
            "transfer-encoding is not supported; frame the body with content-length".into(),
        ));
    }
    let mut declared: Option<usize> = None;
    for (_, v) in request
        .headers
        .iter()
        .filter(|(k, _)| k == "content-length")
    {
        let n = v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("unparseable content-length {v:?}")))?;
        if declared.is_some_and(|d| d != n) {
            return Err(HttpError::BadRequest(
                "conflicting content-length headers".into(),
            ));
        }
        declared = Some(n);
    }

    // ---- body: length-delimited, rejected before buffering ----
    let content_length = match declared {
        Some(n) => n,
        None if request.method == "POST" || request.method == "PUT" => {
            return Err(HttpError::BadRequest(
                "POST requires a content-length header".into(),
            ))
        }
        None => 0,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::PayloadTooLarge {
            declared: content_length,
            limit: limits.max_body_bytes,
        });
    }

    // Bytes past the head terminator already read belong to the body.
    let leftover_start = head_end + 4;
    let mut body: Vec<u8> = buf.get(leftover_start..).unwrap_or(&[]).to_vec();
    if body.len() > content_length {
        return Err(HttpError::BadRequest(
            "body longer than its declared content-length".into(),
        ));
    }
    while body.len() < content_length {
        if let Some(e) = injected_read_fault() {
            return Err(e);
        }
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want]).map_err(classify)?;
        if n == 0 {
            return Err(HttpError::Disconnected);
        }
        body.extend_from_slice(&chunk[..n]);
    }
    request.body = body;
    Ok(request)
}

/// Offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One response. `Connection: close` unless the connection loop grants
/// keep-alive for this exchange.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (JSON for every endpoint).
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Optional `Retry-After` seconds (set on load-shed 503s).
    pub retry_after: Option<u32>,
    /// Whether this response carries partial results after a deadline
    /// expiry; rendered as an `x-leapme-degraded: true` header.
    pub degraded: bool,
    /// Whether the server will keep the connection open for another
    /// request. Set by the connection loop (never by handlers): only
    /// when the client sent an explicit `Connection: keep-alive`, the
    /// per-connection request budget has room, and the server is not
    /// draining.
    pub keep_alive: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            body,
            content_type: "application/json",
            retry_after: None,
            degraded: false,
            keep_alive: false,
        }
    }

    /// A typed JSON error body: `{"error": code, "detail": detail}`.
    pub fn error(status: u16, code: &str, detail: &str) -> Self {
        let body = serde_json::to_string(&ErrorBody {
            error: code.to_string(),
            detail: detail.to_string(),
        })
        .unwrap_or_else(|_| format!("{{\"error\":{code:?}}}"));
        Response::json(status, body)
    }

    /// The load-shed response: `503` + `Retry-After`.
    pub fn shed(retry_after_secs: u32) -> Self {
        let mut r = Response::error(
            503,
            "overloaded",
            "admission queue is full; retry after the indicated delay",
        );
        r.retry_after = Some(retry_after_secs);
        r
    }

    /// Serialize head + body to the wire in one `write_all`. Two writes
    /// would leave the body behind Nagle's algorithm until the peer
    /// acknowledges the head — on a kept-alive connection that is the
    /// peer's delayed-ACK timer, about 40 ms per exchange.
    pub fn write_to<W: Write>(&self, out: &mut W) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let connection = if self.keep_alive { "keep-alive" } else { "close" };
        let mut wire = String::with_capacity(160 + self.body.len());
        let _ = write!(
            wire,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len()
        );
        if let Some(secs) = self.retry_after {
            let _ = write!(wire, "retry-after: {secs}\r\n");
        }
        if self.degraded {
            wire.push_str("x-leapme-degraded: true\r\n");
        }
        wire.push_str("\r\n");
        wire.push_str(&self.body);
        out.write_all(wire.as_bytes())?;
        out.flush()
    }
}

/// Typed error body shared by every non-2xx response.
#[derive(serde::Serialize)]
struct ErrorBody {
    error: String,
    detail: String,
}

/// Reason phrase for the handful of status codes the service emits.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Lingering close for responses written *before* the request was fully
/// read (shed 503s, 413s, parse 400s): closing a socket with unread
/// bytes in its receive buffer makes the kernel send RST, which can
/// destroy the in-flight response before the client reads it. Half-close
/// the write side, then drain and discard what the client already sent —
/// bounded in both bytes and time so a hostile peer cannot pin us here.
pub fn drain_then_close(stream: &mut TcpStream, max_bytes: usize, timeout: std::time::Duration) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(timeout));
    let mut buf = [0u8; 4096];
    let mut drained = 0usize;
    while drained < max_bytes {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Map a read-side failure to the response owed to the client, if any.
/// `Closed` and `Disconnected` yield `None` — there is no one to
/// answer — and the caller just drops the connection.
pub fn error_response(e: &HttpError) -> Option<Response> {
    match e {
        HttpError::BadRequest(m) => Some(Response::error(400, "bad-request", m)),
        HttpError::PayloadTooLarge { declared, limit } => Some(Response::error(
            413,
            "payload-too-large",
            &format!("declared body of {declared} bytes exceeds the {limit}-byte cap"),
        )),
        HttpError::Timeout | HttpError::IdleTimeout => Some(Response::error(
            408,
            "request-timeout",
            "socket read timed out before the request completed",
        )),
        HttpError::Closed | HttpError::Disconnected => None,
        HttpError::Io(e) => Some(Response::error(400, "bad-request", &e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    /// A client that hands out `bytes` at most `step` bytes per read,
    /// then ends with `end` (an error kind) or, when `None`, with EOF.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
        end: Option<ErrorKind>,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.bytes.is_empty() {
                return match self.end {
                    Some(kind) => Err(kind.into()),
                    None => Ok(0),
                };
            }
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn parse(bytes: &[u8], step: usize, end: Option<ErrorKind>) -> Result<Request, HttpError> {
        let mut client = Trickle { bytes, step, end };
        read_request(&mut client, &HttpLimits::default())
    }

    fn refusal(bytes: &[u8]) -> String {
        match parse(bytes, 4096, None) {
            Err(HttpError::BadRequest(m)) => m,
            other => panic!("expected a 400, got {other:?}"),
        }
    }

    #[test]
    fn a_request_split_across_reads_parses_like_the_unsplit_bytes() {
        let wire = b"POST /score?x=1 HTTP/1.1\r\nhost: test\r\nconnection: keep-alive\r\n\
                     content-length: 27\r\n\r\n{\"pairs\":[[\"a\",\"b\"]],\"k\":1}";
        let whole = parse(wire, wire.len(), None).unwrap();
        assert_eq!(
            (whole.method.as_str(), whole.path.as_str()),
            ("POST", "/score?x=1")
        );
        assert_eq!(whole.body.len(), 27);
        for step in [1, 2, 3, 5, 64] {
            let split = parse(wire, step, None).unwrap();
            assert_eq!(split.method, whole.method, "step {step}");
            assert_eq!(split.path, whole.path, "step {step}");
            assert_eq!(split.headers, whole.headers, "step {step}");
            assert_eq!(split.body, whole.body, "step {step}");
        }
    }

    #[test]
    fn a_head_over_the_cap_is_refused_however_it_is_split() {
        let limits = HttpLimits::default();
        let filler = "x".repeat(limits.max_head_bytes);
        let wire = format!("GET / HTTP/1.1\r\nx-pad: {filler}\r\n\r\n");
        for step in [1, 4096, wire.len()] {
            assert!(
                matches!(
                    parse(wire.as_bytes(), step, None),
                    Err(HttpError::BadRequest(_))
                ),
                "step {step}"
            );
        }
    }

    #[test]
    fn differing_content_lengths_are_refused() {
        let m = refusal(
            b"POST /score HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 6\r\n\r\nhello!",
        );
        assert!(m.contains("conflicting content-length"), "{m}");
        // Repeating the same value frames the body one way only.
        let same = b"POST /score HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(parse(same, 4096, None).unwrap().body, b"hello");
    }

    #[test]
    fn any_transfer_encoding_is_refused() {
        for wire in [
            &b"POST /score HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"[..],
            b"POST /score HTTP/1.1\r\ncontent-length: 5\r\nTransfer-Encoding: chunked\r\n\r\nhello",
            b"GET /healthz HTTP/1.1\r\ntransfer-encoding: identity\r\n\r\n",
        ] {
            let m = refusal(wire);
            assert!(m.contains("transfer-encoding"), "{m}");
        }
    }

    #[test]
    fn a_timeout_or_close_before_the_first_byte_is_told_apart() {
        let timed_out = Some(ErrorKind::WouldBlock);
        assert!(matches!(
            parse(b"", 1, timed_out),
            Err(HttpError::IdleTimeout)
        ));
        assert!(matches!(parse(b"", 1, None), Err(HttpError::Closed)));
        let head = b"POST /score HTTP/1.1\r\ncontent-le";
        assert!(matches!(parse(head, 4, timed_out), Err(HttpError::Timeout)));
        assert!(matches!(parse(head, 4, None), Err(HttpError::Disconnected)));
        let body = b"POST /score HTTP/1.1\r\ncontent-length: 9\r\n\r\n{\"pa";
        assert!(matches!(
            parse(body, 4, Some(ErrorKind::TimedOut)),
            Err(HttpError::Timeout)
        ));
        assert!(matches!(parse(body, 4, None), Err(HttpError::Disconnected)));
    }

    /// A writer that records every `write` call separately.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
        let (_, value) = headers.iter().find(|(k, _)| k == name)?;
        Some(value)
    }

    /// Split a serialized response into status, lowercased headers and
    /// body, checking `content-length` against the body.
    fn parse_response(wire: &[u8]) -> (u16, Vec<(String, String)>, String) {
        let text = std::str::from_utf8(wire).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").expect("head terminator");
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.strip_prefix("HTTP/1.1 "))
            .and_then(|l| l.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let headers: Vec<(String, String)> = lines
            .map(|l| {
                let (k, v) = l.split_once(':').expect("header line");
                (k.trim().to_ascii_lowercase(), v.trim().to_string())
            })
            .collect();
        let length = body.len().to_string();
        assert_eq!(header(&headers, "content-length"), Some(length.as_str()));
        (status, headers, body.to_string())
    }

    #[test]
    fn every_response_shape_goes_out_in_one_write() {
        let plain = Response::json(200, "{\"scores\":[0.5]}".to_string());
        let mut degraded = plain.clone();
        degraded.degraded = true;
        let shed = Response::shed(2);
        let mut kept = plain.clone();
        kept.keep_alive = true;

        for (response, extra) in [
            (&plain, None),
            (&degraded, Some(("x-leapme-degraded", "true"))),
            (&shed, Some(("retry-after", "2"))),
            (&kept, None),
        ] {
            let mut out = CountingWriter::default();
            response.write_to(&mut out).unwrap();
            assert_eq!(out.writes.len(), 1, "{response:?}: {:?}", out.writes);
            let (status, headers, body) = parse_response(&out.writes[0]);
            assert_eq!(status, response.status);
            assert_eq!(body, response.body);
            let connection = if response.keep_alive {
                "keep-alive"
            } else {
                "close"
            };
            assert_eq!(header(&headers, "connection"), Some(connection));
            if let Some((name, value)) = extra {
                assert_eq!(header(&headers, name), Some(value));
            }
        }
    }
}
