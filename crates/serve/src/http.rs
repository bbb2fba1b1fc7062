//! Minimal HTTP/1.1 framing — just enough for a JSON request/response
//! protocol with `Connection: close` semantics, so the server needs no
//! external HTTP dependency. Requests are read from any [`Read`] (the server
//! passes its `TcpStream`); responses are written to a `TcpStream`.
//!
//! Supported: request line + headers, `Content-Length` bodies (capped),
//! status-line responses with a JSON body. Not supported (typed 400 instead
//! of undefined behavior): chunked transfer encoding, multiline headers,
//! HTTP/2.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Maximum bytes of request line + headers before the request is rejected —
/// a slow-loris / junk-stream guard independent of the body cap.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request: method, path, and raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ... uppercased as received.
    pub method: String,
    /// Request path without query string.
    pub path: String,
    /// Raw body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Why a request could not be framed.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request line/headers or unsupported framing.
    BadRequest(String),
    /// Declared `Content-Length` exceeds the configured cap.
    PayloadTooLarge {
        /// Bytes the client declared.
        declared: usize,
        /// Server's limit.
        limit: usize,
    },
    /// The socket timed out mid-request (read timeout is the deadline).
    Timeout,
    /// The peer disconnected or another I/O error occurred.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::PayloadTooLarge { declared, limit } => {
                write!(f, "payload of {declared} bytes exceeds limit {limit}")
            }
            HttpError::Timeout => write!(f, "timed out reading request"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
            _ => HttpError::Io(e),
        }
    }
}

/// Read one request from the stream. `max_body` caps the accepted
/// `Content-Length`; the request line and headers together may take at most
/// 16 KiB, and no head line is buffered past that budget.
///
/// # Errors
/// [`HttpError`] as documented on the variants.
pub fn read_request<R: Read + ?Sized>(
    stream: &mut R,
    max_body: usize,
) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut head_bytes = 0usize;

    let request_line = read_line(&mut reader, &mut head_bytes)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version}"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    loop {
        let line = read_line(&mut reader, &mut head_bytes)?;
        if line.is_empty() {
            break; // end of headers
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value
                .parse::<usize>()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length {value:?}")))?;
        } else if name == "transfer-encoding" {
            return Err(HttpError::BadRequest(
                "chunked transfer encoding is not supported".into(),
            ));
        }
    }

    if content_length > max_body {
        return Err(HttpError::PayloadTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            HttpError::BadRequest("body shorter than content-length".into())
        } else {
            HttpError::from(e)
        }
    })?;
    Ok(Request { method, path, body })
}

/// Read one CRLF- (or LF-) terminated header line, enforcing the head cap.
/// The read stops one byte past the remaining budget, so an endless line
/// costs at most the cap in memory.
fn read_line(reader: &mut impl BufRead, head_bytes: &mut usize) -> Result<String, HttpError> {
    let mut line = String::new();
    let budget = (MAX_HEAD_BYTES - *head_bytes) as u64 + 1;
    let n = reader
        .by_ref()
        .take(budget)
        .read_line(&mut line)
        .map_err(|e| match e.kind() {
            io::ErrorKind::InvalidData => HttpError::BadRequest("request head is not UTF-8".into()),
            _ => HttpError::from(e),
        })?;
    if n == 0 {
        return Err(HttpError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-request",
        )));
    }
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(HttpError::BadRequest("request head too large".into()));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Standard reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// Write a complete JSON response and flush. One response per connection
/// (`Connection: close`).
///
/// # Errors
/// I/O errors from the socket (the peer may already be gone; callers treat
/// this as best-effort).
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        status,
        reason(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::TcpListener;
    use std::thread;

    /// Run `client` against a one-shot server that parses a request and
    /// returns the parse result.
    fn parse_via_socket(raw: &[u8], max_body: usize) -> (Result<Request, HttpError>, Vec<u8>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
            let mut out = Vec::new();
            s.read_to_end(&mut out).unwrap();
            out
        });
        let (mut stream, _) = listener.accept().unwrap();
        let parsed = read_request(&mut stream, max_body);
        write_response(&mut stream, 200, "{}").unwrap();
        drop(stream);
        (parsed, client.join().unwrap())
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /forecast HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let (parsed, reply) = parse_via_socket(raw, 1024);
        let req = parsed.unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/forecast");
        assert_eq!(req.body, b"body");
        let reply = String::from_utf8(reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.ends_with("\r\n\r\n{}"), "{reply}");
    }

    #[test]
    fn strips_query_string_and_lowercases_headers() {
        let raw = b"GET /stats?verbose=1 HTTP/1.1\r\nCONTENT-LENGTH: 0\r\n\r\n";
        let (parsed, _) = parse_via_socket(raw, 1024);
        let req = parsed.unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_request_line() {
        let (parsed, _) = parse_via_socket(b"this is not http\r\n\r\n", 1024);
        assert!(matches!(parsed, Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn rejects_oversized_body_by_declared_length() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        let (parsed, _) = parse_via_socket(raw, 1024);
        assert!(matches!(
            parsed,
            Err(HttpError::PayloadTooLarge {
                declared: 999_999,
                limit: 1024
            })
        ));
    }

    #[test]
    fn rejects_truncated_body() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        let (parsed, _) = parse_via_socket(raw, 1024);
        assert!(matches!(parsed, Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn rejects_a_head_that_is_not_utf8() {
        // A typed 400 for the client, not an I/O error that reads as a
        // vanished peer and closes without a reply.
        let (parsed, reply) = parse_via_socket(b"GET /\xff HTTP/1.1\r\n\r\n", 1024);
        assert!(
            matches!(parsed, Err(HttpError::BadRequest(_))),
            "{parsed:?}"
        );
        assert!(!reply.is_empty());
        let parsed = read_request(&mut &b"GET / HTTP/1.1\r\nx: \xc3\r\n\r\n"[..], 16);
        assert!(
            matches!(parsed, Err(HttpError::BadRequest(_))),
            "{parsed:?}"
        );
    }

    #[test]
    fn rejects_chunked_encoding() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        let (parsed, _) = parse_via_socket(raw, 1024);
        assert!(matches!(parsed, Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn endless_head_lines_stop_at_the_head_cap() {
        // An endless request line, and an endless header after a valid
        // request line: both end in a typed error after ~16 KiB, not in a
        // buffer that grows until the deadline.
        let parsed = read_request(&mut io::repeat(b'a'), 1024);
        assert!(matches!(parsed, Err(HttpError::BadRequest(_))));
        let mut stream = (&b"GET / HTTP/1.1\r\nx-pad: "[..]).chain(io::repeat(b'b'));
        let parsed = read_request(&mut stream, 1024);
        assert!(matches!(parsed, Err(HttpError::BadRequest(_))));
        // A head of exactly the cap is still accepted.
        let line = format!(
            "GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n",
            "c".repeat(MAX_HEAD_BYTES - 27)
        );
        assert_eq!(line.len(), MAX_HEAD_BYTES);
        assert!(read_request(&mut line.as_bytes(), 1024).is_ok());
        let line = format!(
            "GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n",
            "c".repeat(MAX_HEAD_BYTES - 26)
        );
        assert!(matches!(
            read_request(&mut line.as_bytes(), 1024),
            Err(HttpError::BadRequest(_))
        ));
    }

    /// Hands out its bytes in reads of the given sizes, cycling.
    struct Chunked<'a> {
        data: &'a [u8],
        sizes: &'a [usize],
        reads: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.reads % self.sizes.len()];
            self.reads += 1;
            let n = size.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// A comparable summary of a parse outcome.
    fn outcome(parsed: Result<Request, HttpError>) -> Result<Request, String> {
        parsed.map_err(|e| match e {
            HttpError::BadRequest(_) => "bad-request".to_string(),
            HttpError::Io(e) => format!("io {:?}", e.kind()),
            other => other.to_string(),
        })
    }

    fn parse_split(raw: &[u8], sizes: &[usize], max_body: usize) -> Result<Request, String> {
        let mut reader = Chunked {
            data: raw,
            sizes,
            reads: 0,
        };
        outcome(read_request(&mut reader, max_body))
    }

    /// Bytes the framing turns on, so random heads reach every branch.
    const ALPHABET: &[u8] =
        b"GETPOS /?x HTTP/1.\r\n:content-length:transfer-encoding 0123456789\xff";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        #[test]
        fn arbitrary_bytes_frame_the_same_in_any_split(
            picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..96),
            raw in proptest::collection::vec(0u8..255, 0..64),
            sizes in proptest::collection::vec(1usize..9, 1..6),
        ) {
            let framed: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
            for bytes in [framed, raw] {
                let whole = outcome(read_request(&mut bytes.as_slice(), 16));
                prop_assert_eq!(parse_split(&bytes, &sizes, 16), whole);
            }
        }

        #[test]
        fn valid_requests_survive_any_split(
            post in 0usize..2,
            path_len in 1usize..20,
            headers in proptest::collection::vec((1usize..12, 0usize..30), 0..6),
            body_len in 0usize..300,
            sizes in proptest::collection::vec(1usize..40, 1..6),
        ) {
            let method = ["GET", "POST"][post];
            let path = format!("/{}", "p".repeat(path_len - 1));
            let body: Vec<u8> = (0..body_len).map(|i| (i * 31 % 251) as u8).collect();
            let mut raw = format!("{method} {path}?q=1 HTTP/1.1\r\n").into_bytes();
            for (name_len, value_len) in &headers {
                raw.extend_from_slice(
                    format!("x-{}: {}\r\n", "n".repeat(*name_len), "v".repeat(*value_len)).as_bytes(),
                );
            }
            raw.extend_from_slice(format!("Content-Length: {body_len}\r\n\r\n").as_bytes());
            raw.extend_from_slice(&body);
            let expected = Request {
                method: method.to_string(),
                path,
                body,
            };
            prop_assert_eq!(outcome(read_request(&mut raw.as_slice(), 1024)), Ok(expected.clone()));
            prop_assert_eq!(parse_split(&raw, &sizes, 1024), Ok(expected));
        }
    }
}
