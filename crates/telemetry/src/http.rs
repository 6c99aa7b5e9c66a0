//! Minimal HTTP/1.1 for the telemetry hub and the sweep daemon: the one
//! request parser, accept loop, response and SSE framing, and blocking
//! client they share.
//!
//! Deliberately tiny: methods and paths as sent, plus `Content-Length`
//! bodies. The server side is hardened against malformed and hostile
//! input — a public-ish port must never panic on a bad byte stream, and
//! a stalled or flooding client must not starve the others — with fixed
//! limits: [`READ_TIMEOUT`] for the whole request, [`MAX_LINE`] and
//! [`MAX_HEADERS`] for its head, [`MAX_BODY`] for its body, and
//! [`MAX_CONNS`] connections at once.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::expo::esc_json;

/// Upper bound on request bodies. Matrix DSL strings are tens of bytes;
/// a megabyte means a confused or hostile client.
pub const MAX_BODY: usize = 1 << 20;

/// Upper bound on the request line and each header line, bytes.
pub const MAX_LINE: usize = 8 << 10;

/// Upper bound on header lines per request.
pub const MAX_HEADERS: usize = 64;

/// Time a client has to send its whole request, head and body.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Connections handled at once; the next one is answered `503` and
/// closed. Long-lived SSE subscribers count against it.
pub const MAX_CONNS: usize = 64;

/// How long [`request`] waits for a reply.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// The response head opening a `text/event-stream`.
const SSE_HEAD: &str = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n";

/// One parsed request: method, path, and (possibly empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request path (`/sweep`, `/jobs/3/events`, ...).
    pub path: String,
    /// Decoded UTF-8 body (empty when no `Content-Length`).
    pub body: String,
}

/// Reads one line of at most [`MAX_LINE`] bytes.
fn read_line<R: BufRead>(r: &mut R, what: &str) -> Result<String, String> {
    let mut line = String::new();
    let n = r
        .take(MAX_LINE as u64 + 1)
        .read_line(&mut line)
        .map_err(|e| format!("reading {what}: {e}"))?;
    if n > MAX_LINE {
        return Err(format!("{what} longer than {MAX_LINE} bytes"));
    }
    Ok(line)
}

/// Reads and validates one request from `r`.
///
/// # Errors
///
/// A description of the first malformed element — request line, header,
/// oversized head or body, non-UTF-8 body, truncated stream. Servers map
/// every one to a 400 response.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, String> {
    let line = read_line(r, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/") {
        return Err(format!("malformed request line {:?}", line.trim_end()));
    }
    if !path.starts_with('/') {
        return Err(format!("malformed request path {path:?}"));
    }
    let mut content_len = 0usize;
    let mut headers = 0;
    loop {
        let header = read_line(r, "header")?;
        if header.is_empty() {
            return Err("connection closed inside headers".into());
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(format!("more than {MAX_HEADERS} headers"));
        }
        let Some((k, v)) = header.split_once(':') else {
            return Err(format!("malformed header {header:?}"));
        };
        if k.trim().eq_ignore_ascii_case("content-length") {
            content_len = v
                .trim()
                .parse()
                .map_err(|_| format!("bad content-length {:?}", v.trim()))?;
        }
    }
    if content_len > MAX_BODY {
        return Err(format!(
            "request body too large ({content_len} bytes, max {MAX_BODY})"
        ));
    }
    let mut body = vec![0u8; content_len];
    r.read_exact(&mut body)
        .map_err(|e| format!("reading body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "request body is not UTF-8".to_string())?;
    Ok(Request { method, path, body })
}

/// Reads a socket under one overall deadline, so a client trickling
/// bytes cannot hold its connection past [`READ_TIMEOUT`].
struct Deadline<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut s = self.stream;
        s.read(buf).map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock => io::ErrorKind::TimedOut.into(),
            _ => e,
        })
    }
}

/// One of the [`MAX_CONNS`] connection slots, released on drop.
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Spawns the accept loop on a thread named `{name}-http`. Each
/// connection's request is read on a `{name}-conn` thread of its own and
/// handed to `handle` — or the reason it is malformed, which the handler
/// answers (usually `respond_error(.., "400 Bad Request", ..)`). The loop
/// ends once `stopped()` holds at an accept; callers wake it with a
/// throwaway connection.
///
/// # Errors
///
/// Failure to spawn the accept thread.
pub fn serve<S, H>(
    listener: TcpListener,
    name: &str,
    stopped: S,
    handle: H,
) -> io::Result<JoinHandle<()>>
where
    S: Fn() -> bool + Send + 'static,
    H: Fn(&mut TcpStream, Result<Request, String>) + Send + Sync + 'static,
{
    let handle = Arc::new(handle);
    let live = Arc::new(AtomicUsize::new(0));
    let conn_name = format!("{name}-conn");
    std::thread::Builder::new()
        .name(format!("{name}-http"))
        .spawn(move || {
            for conn in listener.incoming() {
                if stopped() {
                    return;
                }
                let Ok(mut stream) = conn else { continue };
                let slot = Slot(Arc::clone(&live));
                if live.fetch_add(1, Ordering::SeqCst) >= MAX_CONNS {
                    respond_error(
                        &mut stream,
                        "503 Service Unavailable",
                        "too many connections",
                    );
                    continue;
                }
                let handle = Arc::clone(&handle);
                let _ = std::thread::Builder::new()
                    .name(conn_name.clone())
                    .spawn(move || {
                        let _slot = slot;
                        let until = Instant::now() + READ_TIMEOUT;
                        let req = read_request(&mut BufReader::new(Deadline {
                            stream: &stream,
                            until,
                        }));
                        let _ = stream.set_read_timeout(None);
                        handle(&mut stream, req);
                    });
            }
        })
}

/// Writes one complete HTTP/1.1 response (connection: close). Write
/// errors are swallowed — the client is gone either way.
pub fn respond<W: Write>(stream: &mut W, status: &str, ctype: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Writes a JSON response body.
pub fn respond_json<W: Write>(stream: &mut W, status: &str, json: &str) {
    respond(stream, status, "application/json", json);
}

/// Writes a JSON error object, `{"error":"..."}`.
pub fn respond_error<W: Write>(stream: &mut W, status: &str, msg: &str) {
    respond_json(
        stream,
        status,
        &format!("{{\"error\":\"{}\"}}", esc_json(msg)),
    );
}

/// Formats one SSE frame (`event: kind` + one `data:` line).
pub fn sse_frame(kind: &str, data: &str) -> String {
    format!("event: {kind}\ndata: {data}\n\n")
}

/// Serves an SSE stream: the event-stream head and the pre-formatted
/// `first` frame(s), then every frame received on `frames` until all its
/// senders are dropped (the server ended the stream) or a write fails
/// (the client left).
pub fn stream_events<W: Write>(stream: &mut W, first: &str, frames: &Receiver<String>) {
    let mut send = |s: &str| stream.write_all(s.as_bytes()).and_then(|()| stream.flush());
    if send(SSE_HEAD).and_then(|()| send(first)).is_err() {
        return;
    }
    while let Ok(frame) = frames.recv() {
        if send(&frame).is_err() {
            return;
        }
    }
}

/// One blocking round trip on a fresh connection. Returns
/// `(status code, body)`.
///
/// # Errors
///
/// Connection or read failures, or an unparsable response head.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("sending request: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("reading response: {e}"))?;
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("unparsable response head: {:?}", raw.lines().next()))?;
    let body = raw.find("\r\n\r\n").map_or("", |i| &raw[i + 4..]);
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, String> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_get_and_post_with_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("GET", "/healthz")
        );
        assert_eq!(req.body, "");
        let req = parse(b"POST /sweep HTTP/1.1\r\ncontent-length: 14\r\n\r\napps=fft extra");
        assert_eq!(
            req.unwrap().body,
            "apps=fft extra",
            "header names are case-blind"
        );
    }

    #[test]
    fn malformed_and_oversized_requests_are_errors_not_panics() {
        let long = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(MAX_LINE));
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X: y\r\n".repeat(MAX_HEADERS + 1)
        );
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let cases: [(&[u8], &str); 12] = [
            (b"ello\r\n\r\n", "malformed request line"),
            (b"", "malformed request line"),
            (b"GET /x\r\n\r\n", "malformed request line"),
            (b"GET x HTTP/1.1\r\n\r\n", "malformed request path"),
            (
                b"GET / HTTP/1.1\r\nbogus header\r\n\r\n",
                "malformed header",
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
                "bad content-length",
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
                "reading body",
            ),
            (b"GET / HTTP/1.1\r\nHost: x\r\n", "closed inside headers"),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe",
                "not UTF-8",
            ),
            (long.as_bytes(), "longer than"),
            (many.as_bytes(), "more than 64 headers"),
            (huge.as_bytes(), "too large"),
        ];
        for (raw, want) in cases {
            let err = parse(raw).unwrap_err();
            assert!(
                err.contains(want),
                "{:?}: {err}",
                String::from_utf8_lossy(raw)
            );
        }
        let at_cap = format!("GET / HTTP/1.1\r\n{}\r\n", "X: y\r\n".repeat(MAX_HEADERS));
        assert!(parse(at_cap.as_bytes()).is_ok());
    }

    /// Seeded random-bytes fuzz of the parser: random token soup,
    /// truncations and byte flips of valid requests, and lines around
    /// [`MAX_LINE`]. Every input must parse or fail, never panic.
    #[test]
    fn random_bytes_never_panic_the_parser() {
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move |bound: usize| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let valid: [&[u8]; 4] = [
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            b"POST /sweep HTTP/1.1\r\nContent-Length: 8\r\n\r\napps=fft",
            b"GET /jobs/3/events HTTP/1.0\r\nAccept: */*\r\nX: y\r\n\r\n",
            b"POST /shutdown HTTP/1.1\r\ncontent-length:0\r\n\r\n",
        ];
        let soup: &[u8] =
            b"GET|POST| |/|HTTP/1.1|\r\n|\n|:|Content-Length|18446744073709551616|7|\xff\xfe|\0|x";
        let tokens: Vec<&[u8]> = soup.split(|&c| c == b'|').collect();
        let mut parsed = 0;
        for i in 0..10_000 {
            let base = valid[next(valid.len())];
            let input: Vec<u8> = match i % 5 {
                0 => (0..next(200)).map(|_| next(256) as u8).collect(),
                1 => (0..next(40))
                    .flat_map(|_| tokens[next(tokens.len())].iter().copied())
                    .collect(),
                2 => base[..next(base.len() + 1)].to_vec(),
                3 => {
                    let mut v = base.to_vec();
                    for _ in 0..1 + next(3) {
                        let at = next(v.len());
                        v[at] = next(256) as u8;
                    }
                    v
                }
                _ => {
                    let head = if next(2) == 0 {
                        "GET /"
                    } else {
                        "GET / HTTP/1.1\r\nX: "
                    };
                    let len = MAX_LINE - 16 + next(32);
                    format!("{head}{}\r\n\r\n", "a".repeat(len)).into_bytes()
                }
            };
            let got = std::panic::catch_unwind(|| parse(&input));
            let Ok(got) = got else {
                panic!("parser panicked on {:?}", String::from_utf8_lossy(&input));
            };
            if let Ok(req) = got {
                assert!(req.path.starts_with('/') && !req.method.is_empty());
                assert!(req.body.len() <= MAX_BODY);
                parsed += 1;
            }
        }
        assert!(
            parsed > 100,
            "too few inputs parsed ({parsed}) to exercise success paths"
        );
    }

    #[test]
    fn responses_and_event_streams_are_framed() {
        let mut out = Vec::new();
        respond_error(&mut out, "400 Bad Request", "bad \"dsl\"");
        let body = "{\"error\":\"bad \\\"dsl\\\"\"}";
        let head = format!("HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n", body.len());
        assert_eq!(String::from_utf8(out).unwrap(), head + body);

        assert_eq!(sse_frame("cell", "{}"), "event: cell\ndata: {}\n\n");
        let (tx, rx) = std::sync::mpsc::channel();
        tx.send(sse_frame("end", "{}")).unwrap();
        drop(tx);
        let mut out = Vec::new();
        stream_events(&mut out, &sse_frame("job", "{}"), &rx);
        let want = format!("{SSE_HEAD}event: job\ndata: {{}}\n\nevent: end\ndata: {{}}\n\n");
        assert_eq!(String::from_utf8(out).unwrap(), want);
    }

    /// Reads what the server sends before it closes (a reset counts as
    /// closed).
    fn drain(mut s: TcpStream) -> String {
        s.set_read_timeout(Some(READ_TIMEOUT * 3)).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    #[test]
    fn stalled_oversized_and_excess_clients_cannot_starve_healthz() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let stopped = move || flag.load(Ordering::SeqCst);
        let server = serve(listener, "http-test", stopped, |s, req| match req {
            Ok(_) => respond(s, "200 OK", "text/plain", "ok\n"),
            Err(e) => respond_error(s, "400 Bad Request", &e),
        })
        .unwrap();
        let healthz = || request(&addr.to_string(), "GET", "/healthz", "");
        let connect = || TcpStream::connect(addr).unwrap();
        let t0 = Instant::now();

        // A client stalled mid-request holds only its own slot.
        let mut stalled = connect();
        stalled.write_all(b"GET /healthz HTTP/1.1\r\nHo").unwrap();
        assert_eq!(healthz().unwrap(), (200, "ok\n".into()));

        // An oversized header line is refused without waiting for more.
        let mut big = connect();
        let line = format!("GET / HTTP/1.1\r\nX: {}", "a".repeat(MAX_LINE));
        big.write_all(line.as_bytes()).unwrap();
        let resp = drain(big);
        assert!(
            resp.starts_with("HTTP/1.1 400") && resp.contains("longer than"),
            "{resp}"
        );

        // Fill every slot (the stalled client holds one), then overflow:
        // refused with a 503 or a reset, never queued. The accept loop
        // takes connections in order, so the fillers hold their slots
        // before the next connection is counted.
        let fillers: Vec<TcpStream> = (1..MAX_CONNS).map(|_| connect()).collect();
        let over = drain(connect());
        assert!(
            over.is_empty() || over.starts_with("HTTP/1.1 503"),
            "{over}"
        );
        let full = healthz();
        assert!(
            full.as_ref().map_or(true, |(code, _)| *code == 503),
            "{full:?}"
        );

        // The read timeout answers every stalled client with an error and
        // frees its slot.
        let resp = drain(stalled);
        assert!(
            resp.starts_with("HTTP/1.1 400") && resp.contains("timed out"),
            "{resp}"
        );
        fillers.into_iter().for_each(|f| drop(drain(f)));
        assert!(t0.elapsed() < READ_TIMEOUT * 3);
        assert_eq!(healthz().unwrap(), (200, "ok\n".into()));
        stop.store(true, Ordering::SeqCst);
        drop(connect());
        server.join().unwrap();
    }
}
