//! A deliberately small HTTP/1.1 subset over blocking [`TcpStream`]s
//! (requests parse from any [`Read`], which the property suites use):
//! enough for a JSON job API (request line, headers, `Content-Length`
//! bodies, `Connection: close` responses). No chunked encoding, no
//! keep-alive, no TLS — the service fronts a trusted lab network, and
//! the robustness budget is spent on job supervision instead.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on the header block (guards against a stuck client).
const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Upper bound on a request body.
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The path component, query string stripped.
    pub path: String,
    /// The raw body (empty without `Content-Length`).
    pub body: String,
}

/// Reads one request from the stream. `Err` strings describe malformed
/// or oversized input; the caller answers 400 and closes. Reads at most
/// one byte past [`MAX_HEADER_BYTES`] before the body, so a client that
/// never ends its header block costs bounded memory.
pub fn read_request(stream: impl Read) -> Result<Request, String> {
    let mut reader = BufReader::new(stream.take(MAX_HEADER_BYTES as u64 + 1));
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read request line: {e}"))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("request line missing target")?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    let mut header_bytes = line.len();
    loop {
        let mut h = String::new();
        let n = reader
            .read_line(&mut h)
            .map_err(|e| format!("read header: {e}"))?;
        header_bytes += n;
        if header_bytes > MAX_HEADER_BYTES {
            return Err("header block too large".into());
        }
        if n == 0 {
            return Err("header block ended before its blank line".into());
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| "bad Content-Length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err("body too large".into());
    }
    // Bytes already buffered came from within the header allowance;
    // the stream may yield at most the body beyond them.
    reader.get_mut().set_limit(content_length as u64);
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    Ok(Request { method, path, body })
}

/// Writes a JSON response and flushes. `retry_after` adds the
/// backpressure header (seconds).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    retry_after: Option<u64>,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    if let Some(secs) = retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &str) -> Result<Request, String> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn);
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = round_trip(
            "POST /jobs?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n",
        )
        .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, "{\"a\": 1}\n");
    }

    #[test]
    fn parses_get_without_body() {
        let req = round_trip("GET /healthz HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_truncated_body() {
        let err = round_trip("POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort").unwrap_err();
        assert!(err.contains("read body"), "{err}");
    }

    #[test]
    fn response_carries_retry_after() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut text = String::new();
            s.read_to_string(&mut text).unwrap();
            text
        });
        let (mut conn, _) = listener.accept().unwrap();
        write_response(&mut conn, 429, "{}", Some(2)).unwrap();
        drop(conn);
        let text = reader.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}

/// Property suites over arbitrary and byte-corrupted request bytes: the
/// framing must answer every input with a request or an error, never a
/// panic or a hang.
#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::prelude::*;
    use std::sync::mpsc;
    use std::time::Duration;

    const VALID: &str =
        "POST /jobs?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 17\r\n\r\n{\"kernel\":\"fir\"}\n";

    /// Parses `bytes` on a helper thread: a panic or a parse still
    /// running after five seconds fails the property.
    fn parse(bytes: Vec<u8>) -> Result<Request, String> {
        let (tx, rx) = mpsc::channel();
        let shown = String::from_utf8_lossy(&bytes[..bytes.len().min(80)]).into_owned();
        std::thread::spawn(move || {
            let _ = tx.send(read_request(bytes.as_slice()));
        });
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("read_request hung on {shown:?}"),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("read_request panicked on {shown:?}")
            }
        }
    }

    /// `VALID` with `edits` applied as (position, byte) overwrites, then
    /// cut to `keep` bytes.
    fn corrupt(edits: &[(usize, u8)], keep: usize) -> Vec<u8> {
        let mut bytes = VALID.as_bytes().to_vec();
        for &(at, b) in edits {
            let n = bytes.len();
            bytes[at % n] = b;
        }
        bytes.truncate(keep);
        bytes
    }

    #[test]
    fn the_uncorrupted_request_parses() {
        let req = parse(VALID.as_bytes().to_vec()).expect("valid request");
        assert_eq!(req.body, "{\"kernel\":\"fir\"}\n");
    }

    #[test]
    fn a_header_block_cut_short_is_an_error() {
        // A stream that ends before the blank line is not a complete,
        // bodiless request.
        let err = parse(b"POST /jobs HTTP/1.1\r\nContent-Le".to_vec()).unwrap_err();
        assert!(err.contains("blank line"), "{err}");
    }

    #[test]
    fn an_endless_header_line_is_refused_within_bounds() {
        // A request line with no newline is cut off at the header
        // allowance, not buffered whole.
        let mut bytes = b"GET /".to_vec();
        bytes.resize(4 * MAX_HEADER_BYTES, b'a');
        let err = parse(bytes).unwrap_err();
        assert!(err.contains("too large"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            if let Ok(req) = parse(bytes) {
                prop_assert!(!req.method.is_empty());
                prop_assert!(req.body.len() <= MAX_BODY_BYTES);
            }
        }

        #[test]
        fn corrupted_requests_never_panic(
            edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
            keep in 0usize..96,
        ) {
            let _ = parse(corrupt(&edits, keep));
        }

        #[test]
        fn truncated_requests_are_errors(keep in 0usize..73) {
            // Every strict prefix of VALID (73 bytes) lacks part of the
            // header block or of the promised body.
            prop_assert!(parse(corrupt(&[], keep)).is_err());
        }
    }
}
