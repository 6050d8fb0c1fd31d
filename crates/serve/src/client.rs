//! Minimal blocking HTTP client for the serving endpoints.
//!
//! Used by the overload tests, the fault matrix, the `micro_serve`
//! bench, and the `--serve` mode of the real-time monitor example. The
//! write and read halves are exposed separately so an overload test can
//! open many connections, write every request, and only then collect the
//! responses — the pattern that actually saturates the admission queue.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use serde_json::Value;

fn invalid(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_string())
}

/// Open a connection, send one request, and read the response.
pub fn request(
    addr: &SocketAddr,
    method: &str,
    path: &str,
    body: Option<&Value>,
) -> std::io::Result<(u16, Value)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write_request(&mut stream, method, path, body)?;
    read_response(&mut stream)
}

/// `POST` a JSON body; returns `(status, parsed body)`.
pub fn post(addr: &SocketAddr, path: &str, body: &Value) -> std::io::Result<(u16, Value)> {
    request(addr, "POST", path, Some(body))
}

/// `GET` a path; returns `(status, parsed body)`.
pub fn get(addr: &SocketAddr, path: &str) -> std::io::Result<(u16, Value)> {
    request(addr, "GET", path, None)
}

/// Write one HTTP/1.1 request onto an already-open stream.
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&Value>,
) -> std::io::Result<()> {
    let payload = match body {
        Some(value) => serde_json::to_string(value).map_err(|e| invalid(&e.to_string()))?,
        None => String::new(),
    };
    // head and payload leave in one write
    let mut request = String::with_capacity(160 + payload.len());
    let _ = write!(
        request,
        "{method} {path} HTTP/1.1\r\nHost: glint\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    );
    request.push_str(&payload);
    stream.write_all(request.as_bytes())?;
    stream.flush()
}

/// Read a complete response (the server always closes after one
/// exchange) and parse it into `(status, body)`.
pub fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, Value)> {
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_response(&raw)
}

fn parse_response(raw: &str) -> std::io::Result<(u16, Value)> {
    let Some((head, body)) = raw.split_once("\r\n\r\n") else {
        return Err(invalid("response has no head/body separator"));
    };
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("unparseable status line"))?;
    let value = if body.trim().is_empty() {
        Value::Null
    } else {
        serde_json::parse(body).unwrap_or(Value::Null)
    };
    Ok((status, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_response_extracts_status_and_body() {
        let raw = "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\r\n{\"a\":1}";
        let (status, body) = parse_response(raw).expect("parses");
        assert_eq!(status, 429);
        assert_eq!(body.as_map().and_then(|m| m[0].1.as_u64()), Some(1));
    }

    #[test]
    fn parse_response_rejects_garbage() {
        assert!(parse_response("not http").is_err());
        assert!(parse_response("HTTP/1.1 abc\r\n\r\n{}").is_err());
    }
}
