//! Hand-rolled HTTP/1.1 request parsing and response writing — exactly
//! the slice of the protocol the four endpoints need (no keep-alive, no
//! chunked encoding, `Connection: close` on every exchange), so the whole
//! wire layer stays dependency-free and auditable.
//!
//! The head is read in 2 KB chunks up to its `\r\n\r\n`. The body then
//! goes into one buffer of exactly `Content-Length` bytes, which the
//! socket fills in place after the body bytes that came with the head;
//! that buffer becomes the request's `String` without another copy. A
//! response leaves in one `write_all` of head and body.

use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// The request head may not exceed this (method line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

pub(crate) struct Request {
    pub method: String,
    pub path: String,
    pub body: String,
}

fn invalid(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_string())
}

/// Position just past the `\r\n\r\n` head terminator, if present.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Read and parse one request. Every malformed input is a typed
/// `InvalidData` error the handler answers with `400` — parsing never
/// panics, whatever the bytes.
pub(crate) fn read_request(stream: &mut TcpStream, max_body: usize) -> std::io::Result<Request> {
    glint_failpoint::trigger(crate::SITE_PARSE)?;
    read_request_impl(stream, max_body)
}

/// Consume a request that will be refused without scoring (shed path).
/// Closing with unread data would RST the connection and destroy the
/// `429` in flight, so the refusal drains first — a lingering close.
/// Does not arm [`crate::SITE_PARSE`]: a shed drain must not steal a
/// fault aimed at real parsing.
pub(crate) fn drain_request(stream: &mut TcpStream, max_body: usize) {
    let _ = read_request_impl(stream, max_body);
}

fn read_request_impl(stream: &mut TcpStream, max_body: usize) -> std::io::Result<Request> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 2048];
    let head_len = loop {
        if let Some(end) = head_end(&buf) {
            break end;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(invalid("request head exceeds the 16 KiB limit"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(invalid(
                "connection closed before the request head completed",
            ));
        }
        buf.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
    };
    let head = std::str::from_utf8(buf.get(..head_len).unwrap_or(&[]))
        .map_err(|_| invalid("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let mut request_line = lines.next().unwrap_or("").split_whitespace();
    let method = request_line.next().unwrap_or("").to_string();
    let target = request_line.next().unwrap_or("");
    if method.is_empty() || target.is_empty() {
        return Err(invalid("malformed request line"));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| invalid("unparseable Content-Length"))?;
        }
    }
    if content_length > max_body {
        return Err(invalid("request body exceeds the server limit"));
    }
    // One buffer of exactly `Content-Length` bytes: the body bytes that
    // arrived with the head, then the socket fills the rest in place.
    let early = buf.get(head_len..).unwrap_or_default();
    let early = early.get(..content_length).unwrap_or(early);
    let mut body_bytes = Vec::with_capacity(content_length);
    body_bytes.extend_from_slice(early);
    body_bytes.resize(content_length, 0);
    let rest = body_bytes.get_mut(early.len()..).unwrap_or_default();
    stream.read_exact(rest).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => invalid("connection closed mid-body"),
        _ => e,
    })?;
    let body = String::from_utf8(body_bytes).map_err(|_| invalid("request body is not UTF-8"))?;
    Ok(Request { method, path, body })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Write a complete JSON response (`Connection: close` — one exchange
/// per connection keeps the worker loop trivially stateless). Head and
/// body leave in one `write_all`, so no segment waits on another.
pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let mut out = String::with_capacity(128 + body.len());
    // `fmt::Write` into a `String` cannot fail
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.push_str("Connection: close\r\n\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

pub(crate) fn write_json(
    stream: &mut TcpStream,
    status: u16,
    body: &serde_json::Value,
) -> std::io::Result<()> {
    let text = serde_json::to_string(body).unwrap_or_else(|_| "{}".to_string());
    write_response(stream, status, &text, &[])
}
