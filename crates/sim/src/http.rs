//! Minimal hand-rolled HTTP/1.1 server for the live metrics plane and
//! the streaming-ingest endpoint.
//!
//! Zero dependencies: a std [`TcpListener`] on a background thread,
//! non-blocking accept with a sleep poll, one worker thread per
//! connection (`Connection: close`) under a hard concurrency cap. It
//! serves pre-rendered text pulled from a [`Plane`] — request handling
//! never touches live simulation state, so a slow scraper cannot perturb
//! a run.
//!
//! Routes: `/metrics` (Prometheus text), `/health` (503 while the
//! supervisor reports the plane degraded), `/engine`, `/progress`
//! (JSON), `/` (plain-text index), `POST /ingest` (streaming
//! flow-arrival records, see [`crate::ingest`]), and `/ws` (RFC 6455
//! metrics push channel, see [`crate::ws`]).
//!
//! Hardening (the accept loop trusts no client):
//!
//! - request heads are read under a deadline ([`ServerCfg::head_deadline`])
//!   and size cap — a slowloris client gets 408, an oversized head 431;
//! - ingest bodies are capped ([`ServerCfg::max_body_bytes`] → 413) and
//!   read under the same deadline;
//! - concurrent connections are capped ([`ServerCfg::max_conns`] → 503);
//! - admission control sheds load with 429 + `Retry-After` rather than
//!   queuing without bound;
//! - every stream gets a write timeout, so a stalled reader cannot wedge
//!   a worker forever.
//!
//! The request parser ([`parse_request`]) is deliberately strict and
//! bounded — it is fuzzed in `tests/fuzz_robustness.rs` with the same
//! never-panic contract as the snapshot and JSON decoders.

use crate::ingest::{self, IngestQueue};
use crate::metrics::Plane;
use crate::ws;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum bytes of request head (request line + headers) we will read.
pub const MAX_HEAD_BYTES: usize = 8192;
/// Maximum number of header lines accepted.
pub const MAX_HEADERS: usize = 64;
/// Cap on buffered (unparsed) client bytes on a WS connection; clients
/// only ever send control frames, so this stays tiny.
const MAX_WS_CLIENT_BUF: usize = 4096;
/// `SO_SNDBUF` requested for WS connections. Left to autotuning, the
/// kernel happily queues multiple megabytes toward a client that never
/// reads, hiding the stall from the 250 ms write timeout; pinning the
/// send buffer bounds per-client kernel memory and makes slow-consumer
/// detection prompt. (The kernel doubles the requested value.)
const WS_SNDBUF_BYTES: usize = 128 * 1024;

const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json";

/// Server hardening knobs plus the optional ingest queue.
#[derive(Clone)]
pub struct ServerCfg {
    /// Maximum concurrently served connections; excess get 503.
    pub max_conns: usize,
    /// Deadline for reading a complete request head (and body); a client
    /// trickling bytes slower than this gets 408.
    pub head_deadline: Duration,
    /// Per-write timeout; a stalled reader is disconnected.
    pub write_timeout: Duration,
    /// Maximum `POST /ingest` body size; larger gets 413.
    pub max_body_bytes: usize,
    /// Admission queue behind `POST /ingest`; `None` answers 503 there.
    pub ingest: Option<IngestQueue>,
}

impl Default for ServerCfg {
    fn default() -> ServerCfg {
        ServerCfg {
            max_conns: 32,
            head_deadline: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_body_bytes: 256 * 1024,
            ingest: None,
        }
    }
}

/// A parsed HTTP/1.x request head.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method (e.g. `GET`).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// The first value of header `name` (already lower-cased), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse an HTTP/1.x request head from raw bytes (everything up to and
/// excluding the blank line). Total: malformed input yields `Err`, never
/// a panic. Bounds: [`MAX_HEAD_BYTES`], [`MAX_HEADERS`].
pub fn parse_request(head: &[u8]) -> Result<Request, String> {
    if head.len() > MAX_HEAD_BYTES {
        return Err(format!("request head over {MAX_HEAD_BYTES} bytes"));
    }
    let text = std::str::from_utf8(head).map_err(|_| "request head is not UTF-8".to_string())?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("");
    let target = parts.next().ok_or("request line missing target")?;
    let version = parts.next().ok_or("request line missing version")?;
    if parts.next().is_some() {
        return Err("request line has too many fields".to_string());
    }
    if method.is_empty() || !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(format!("invalid method {method:?}"));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version {version:?}"));
    }
    if !target.starts_with('/') {
        return Err(format!("target {target:?} is not origin-form"));
    }
    let path = target
        .split(['?', '#'])
        .next()
        .unwrap_or(target)
        .to_string();
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(format!("more than {MAX_HEADERS} headers"));
        }
        let (name, value) = line.split_once(':').ok_or("header line without ':'")?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!("invalid header name {name:?}"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method: method.to_string(),
        path,
        headers,
    })
}

/// A running metrics HTTP server. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the accept loop.
pub struct Server {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:9100`; port 0 picks a free port) and
    /// serve `plane` on a background thread with default hardening.
    pub fn serve(addr: &str, plane: Plane) -> std::io::Result<Server> {
        Server::serve_with(addr, plane, ServerCfg::default())
    }

    /// [`serve`](Self::serve) with explicit hardening knobs and the
    /// optional ingest queue.
    pub fn serve_with(addr: &str, plane: Plane, cfg: ServerCfg) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("xpass-http".to_string())
            .spawn(move || accept_loop(listener, plane, stop2, Arc::new(cfg)))
            .expect("spawn http thread");
        Ok(Server {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the server thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Decrements the live-connection count when a worker exits, panics
/// included.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(listener: TcpListener, plane: Plane, stop: Arc<AtomicBool>, cfg: Arc<ServerCfg>) {
    let active = Arc::new(AtomicUsize::new(0));
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if active.load(Ordering::SeqCst) >= cfg.max_conns {
                    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
                    let _ = stream.write_all(&response(503, TEXT, "server busy\n"));
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                let guard = ConnGuard(active.clone());
                let (plane, stop, cfg) = (plane.clone(), stop.clone(), cfg.clone());
                let spawned = std::thread::Builder::new()
                    .name("xpass-http-conn".to_string())
                    .spawn(move || {
                        let _guard = guard;
                        let _ = handle_conn(stream, &plane, &cfg, &stop);
                    });
                // Guard moved into the closure; a failed spawn dropped it.
                let _ = spawned;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

enum HeadRead {
    /// Head bytes (blank line excluded) plus any body bytes already read.
    Complete(Vec<u8>, Vec<u8>),
    TooBig,
    TimedOut,
    Closed,
}

/// Read the request head under `deadline`, returning any body bytes that
/// arrived with it.
fn read_head(stream: &mut TcpStream, deadline: Duration) -> std::io::Result<HeadRead> {
    let start = Instant::now();
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(i) = find_blank_line(&buf) {
            let rest = buf.split_off(i + 4);
            buf.truncate(i);
            return Ok(HeadRead::Complete(buf, rest));
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Ok(HeadRead::TooBig);
        }
        if start.elapsed() >= deadline {
            return Ok(HeadRead::TimedOut);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(HeadRead::Closed),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn handle_conn(
    mut stream: TcpStream,
    plane: &Plane,
    cfg: &ServerCfg,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(cfg.write_timeout))?;
    let (head, leftover) = match read_head(&mut stream, cfg.head_deadline)? {
        HeadRead::Complete(h, rest) => (h, rest),
        HeadRead::TooBig => {
            return stream.write_all(&response(431, TEXT, "request head too large\n"))
        }
        HeadRead::TimedOut => {
            return stream.write_all(&response(408, TEXT, "timed out reading request\n"))
        }
        HeadRead::Closed => return Ok(()),
    };
    let req = match parse_request(&head) {
        Ok(req) => req,
        Err(e) => return stream.write_all(&response(400, TEXT, &format!("bad request: {e}\n"))),
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/ingest") => ingest_post(stream, &req, leftover, cfg),
        ("GET", "/ws") => ws_session(stream, &req, plane, stop),
        ("GET", _) | ("HEAD", _) => {
            let (status, ctype, body) = route(&req.path, plane);
            let mut r = response(status, ctype, &body);
            if req.method == "HEAD" {
                let head_end = find_blank_line(&r).map(|i| i + 4).unwrap_or(r.len());
                r.truncate(head_end);
            }
            stream.write_all(&r)
        }
        _ => stream.write_all(&response(405, TEXT, "method not allowed\n")),
    }
}

fn route(path: &str, plane: &Plane) -> (u16, &'static str, String) {
    match path {
        "/metrics" => (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            plane.render_metrics(),
        ),
        "/health" => match plane.degraded() {
            None => (200, JSON, plane.render_health()),
            Some(why) => {
                // Splice the reason into the `{"jobs":{...}}` wrapper.
                let jobs = plane.render_health();
                let body = format!(
                    "{{\"degraded\":{},{}",
                    crate::json::Json::str(&why),
                    &jobs[1..]
                );
                (503, JSON, body)
            }
        },
        "/engine" => (200, JSON, plane.render_engine()),
        "/progress" => (200, JSON, plane.render_progress()),
        "/" => (
            200,
            TEXT,
            "xpass-repro live metrics plane\n\
             /metrics   Prometheus text exposition\n\
             /health    per-job health reports (JSON; 503 while degraded)\n\
             /engine    per-job engine reports (JSON)\n\
             /progress  per-job run progress (JSON)\n\
             /ingest    POST xpass-ingest/v1 flow arrivals\n\
             /ws        WebSocket metrics push channel\n"
                .to_string(),
        ),
        _ => (404, TEXT, "not found\n".to_string()),
    }
}

/// `POST /ingest`: read the (capped) body under the deadline, decode the
/// batch, and offer it to the admission queue.
fn ingest_post(
    mut stream: TcpStream,
    req: &Request,
    leftover: Vec<u8>,
    cfg: &ServerCfg,
) -> std::io::Result<()> {
    let len = match req.header("content-length") {
        None => return stream.write_all(&response(411, TEXT, "Content-Length required\n")),
        Some(v) => match v.parse::<usize>() {
            Ok(l) => l,
            Err(_) => return stream.write_all(&response(400, TEXT, "invalid Content-Length\n")),
        },
    };
    if len > cfg.max_body_bytes {
        return stream.write_all(&response(
            413,
            TEXT,
            &format!("body of {len} bytes over the {} cap\n", cfg.max_body_bytes),
        ));
    }
    let Some(queue) = &cfg.ingest else {
        return stream.write_all(&response(
            503,
            TEXT,
            "ingestion is not enabled (start serve with --ingest)\n",
        ));
    };
    let mut body = leftover;
    body.truncate(len);
    let start = Instant::now();
    let mut chunk = [0u8; 1024];
    while body.len() < len {
        if start.elapsed() >= cfg.head_deadline {
            return stream.write_all(&response(408, TEXT, "timed out reading body\n"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return stream.write_all(&response(400, TEXT, "body shorter than Content-Length\n"))
            }
            Ok(n) => {
                let take = n.min(len - body.len());
                body.extend_from_slice(&chunk[..take]);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    let Ok(text) = std::str::from_utf8(&body) else {
        return stream.write_all(&response(400, TEXT, "body is not UTF-8\n"));
    };
    let batch = match ingest::parse_arrivals(text) {
        Ok(b) => b,
        Err(e) => {
            return stream.write_all(&response(400, TEXT, &format!("bad ingest body: {e}\n")))
        }
    };
    let resp = match queue.offer(&batch) {
        ingest::Offer::Accepted(n) => response(200, JSON, &format!("{{\"accepted\":{n}}}\n")),
        ingest::Offer::RateLimited(retry) => response_with(
            429,
            JSON,
            &format!("{{\"error\":\"rate limited\",\"retry_after_secs\":{retry}}}\n"),
            &[("Retry-After", &retry.to_string())],
        ),
        ingest::Offer::QueueFull(retry) => response_with(
            429,
            JSON,
            &format!("{{\"error\":\"queue full\",\"retry_after_secs\":{retry}}}\n"),
            &[("Retry-After", &retry.to_string())],
        ),
    };
    stream.write_all(&resp)
}

/// Pin the socket's `SO_SNDBUF` (best effort; Linux only — elsewhere the
/// kernel default stands and slow-consumer detection rides on the ring
/// lag path). `std` exposes no send-buffer control, so this goes through
/// the `setsockopt(2)` symbol in the libc `std` already links — same
/// idiom as [`crate::signal`].
#[cfg(target_os = "linux")]
fn bound_send_buffer(stream: &TcpStream, bytes: usize) {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    let v = bytes.min(i32::MAX as usize) as i32;
    // Failure is harmless: the kernel keeps its (larger) default.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_SNDBUF,
            &v,
            std::mem::size_of::<i32>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn bound_send_buffer(_stream: &TcpStream, _bytes: usize) {}

/// `GET /ws`: complete the RFC 6455 handshake, then stream feed lines as
/// text frames until the client closes, the server stops, or the client
/// proves too slow (ring lag or a stalled write) and is disconnected.
fn ws_session(
    mut stream: TcpStream,
    req: &Request,
    plane: &Plane,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let upgrade_ok = req
        .header("upgrade")
        .map(|v| v.to_ascii_lowercase().contains("websocket"))
        .unwrap_or(false);
    let Some(key) = req.header("sec-websocket-key") else {
        return stream.write_all(&response(400, TEXT, "missing Sec-WebSocket-Key\n"));
    };
    if !upgrade_ok {
        return stream.write_all(&response(400, TEXT, "missing Upgrade: websocket\n"));
    }
    let Some(feed) = plane.feed() else {
        return stream.write_all(&response(503, TEXT, "no live feed attached\n"));
    };
    let accept = ws::accept_key(key);
    // Subscribe before answering: a line pushed once the client has read
    // the 101 must reach it.
    let mut cursor = feed.tail();
    stream.write_all(
        format!(
            "HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\n\
             Connection: Upgrade\r\nSec-WebSocket-Accept: {accept}\r\n\r\n"
        )
        .as_bytes(),
    )?;
    stream.set_read_timeout(Some(Duration::from_millis(20)))?;
    // Tighter than the general write timeout: a consumer that cannot
    // drain the push stream should be cut quickly, not wedge a worker
    // for seconds while the feed laps it.
    stream.set_write_timeout(Some(Duration::from_millis(250)))?;
    bound_send_buffer(&stream, WS_SNDBUF_BYTES);
    let mut inbuf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        if stop.load(Ordering::SeqCst) {
            let _ = stream.write_all(&ws::encode_close(1001, "server shutting down"));
            return Ok(());
        }
        // A subscriber is a reader: keep publishers rendering (health
        // changes reach the feed only through a rendered publish).
        plane.note_reader();
        // Drain client frames (control frames honored, text ignored).
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => {
                inbuf.extend_from_slice(&chunk[..n]);
                if inbuf.len() > MAX_WS_CLIENT_BUF {
                    let _ = stream.write_all(&ws::encode_close(1009, "client buffer overflow"));
                    return Ok(());
                }
                loop {
                    match ws::parse_frame(&inbuf) {
                        Ok(None) => break,
                        Ok(Some(f)) => {
                            inbuf.drain(..f.consumed);
                            if !f.masked {
                                let _ = stream.write_all(&ws::encode_close(
                                    1002,
                                    "client frames must be masked",
                                ));
                                return Ok(());
                            }
                            match f.opcode {
                                ws::opcode::CLOSE => {
                                    let _ = stream.write_all(&ws::encode_close(1000, ""));
                                    return Ok(());
                                }
                                ws::opcode::PING => {
                                    stream.write_all(&ws::encode_frame(
                                        ws::opcode::PONG,
                                        &f.payload,
                                    ))?;
                                }
                                _ => {}
                            }
                        }
                        Err(e) => {
                            let _ = stream.write_all(&ws::encode_close(1002, &e));
                            return Ok(());
                        }
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return Ok(()),
        }
        // Push everything new on the feed.
        match feed.poll(cursor) {
            ws::Poll::Lagged { missed } => {
                eprintln!("xpass-http: ws: disconnecting slow consumer ({missed} lines behind)");
                let _ = stream.write_all(&ws::encode_close(1008, "slow consumer"));
                return Ok(());
            }
            ws::Poll::Items(items, next) => {
                cursor = next;
                for line in items {
                    if let Err(e) =
                        stream.write_all(&ws::encode_frame(ws::opcode::TEXT, line.as_bytes()))
                    {
                        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                            eprintln!(
                                "xpass-http: ws: disconnecting slow consumer (stalled write)"
                            );
                            let _ = stream.write_all(&ws::encode_close(1008, "slow consumer"));
                            return Ok(());
                        }
                        return Err(e);
                    }
                }
            }
        }
    }
}

fn response(status: u16, ctype: &str, body: &str) -> Vec<u8> {
    response_with(status, ctype, body, &[])
}

fn response_with(status: u16, ctype: &str, body: &str, extra: &[(&str, &str)]) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let mut head = format!("HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\n");
    for (k, v) in extra {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!(
        "Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    ));
    head.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{Arrival, IngestQueue};

    #[test]
    fn parses_a_plain_get() {
        let req = parse_request(b"GET /metrics?x=1 HTTP/1.1\r\nHost: a\r\nUser-Agent: t\r\n")
            .expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.headers[0], ("host".to_string(), "a".to_string()));
        assert_eq!(req.header("host"), Some("a"));
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(parse_request(b"").is_err());
        assert!(parse_request(b"GET").is_err());
        assert!(parse_request(b"GET /\r\n").is_err());
        assert!(parse_request(b"get / HTTP/1.1\r\n").is_err());
        assert!(parse_request(b"GET metrics HTTP/1.1\r\n").is_err());
        assert!(parse_request(b"GET / HTTP/2\r\n").is_err());
        assert!(parse_request(b"GET / HTTP/1.1 extra\r\n").is_err());
        assert!(parse_request(b"GET / HTTP/1.1\r\nno-colon-here\r\n").is_err());
        assert!(parse_request(b"GET / HTTP/1.1\r\n\xffbad: utf8\r\n").is_err());
        let big = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert!(parse_request(&big).is_err());
        let many = format!("GET / HTTP/1.1\r\n{}", "h: v\r\n".repeat(MAX_HEADERS + 1));
        assert!(parse_request(many.as_bytes()).is_err());
    }

    fn roundtrip(server: &Server, raw: &str) -> String {
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    fn quick_cfg() -> ServerCfg {
        ServerCfg {
            head_deadline: Duration::from_millis(300),
            ..ServerCfg::default()
        }
    }

    #[test]
    fn slowloris_times_out_with_408() {
        let mut srv = Server::serve_with("127.0.0.1:0", Plane::new(), quick_cfg()).unwrap();
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        s.write_all(b"GET / HT").unwrap(); // never finish the head
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 408"), "got: {out}");
        srv.shutdown();
    }

    #[test]
    fn oversized_head_gets_431() {
        let mut srv = Server::serve_with("127.0.0.1:0", Plane::new(), quick_cfg()).unwrap();
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        let out = roundtrip(&srv, &raw);
        assert!(out.starts_with("HTTP/1.1 431"), "got: {out}");
        srv.shutdown();
    }

    #[test]
    fn oversized_body_gets_413_and_no_queue_gets_503() {
        let mut cfg = quick_cfg();
        cfg.max_body_bytes = 64;
        let mut srv = Server::serve_with("127.0.0.1:0", Plane::new(), cfg).unwrap();
        let out = roundtrip(
            &srv,
            "POST /ingest HTTP/1.1\r\nContent-Length: 100000\r\n\r\n",
        );
        assert!(out.starts_with("HTTP/1.1 413"), "got: {out}");
        let out = roundtrip(&srv, "POST /ingest HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}");
        assert!(out.starts_with("HTTP/1.1 503"), "got: {out}");
        srv.shutdown();
    }

    #[test]
    fn ingest_post_accepts_then_sheds_with_429() {
        let queue = IngestQueue::new(1 << 16, 4.0); // 4 arrivals/sec budget
        let mut cfg = quick_cfg();
        cfg.ingest = Some(queue.clone());
        let mut srv = Server::serve_with("127.0.0.1:0", Plane::new(), cfg).unwrap();
        let body = r#"{"src":0,"dst":1,"size_bytes":1000}"#;
        let raw = format!(
            "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let out = roundtrip(&srv, &raw);
        assert!(out.starts_with("HTTP/1.1 200"), "got: {out}");
        assert!(out.contains("{\"accepted\":1}"));
        // Flood past the token budget: some request must shed with 429 +
        // Retry-After.
        let mut shed = false;
        for _ in 0..20 {
            let out = roundtrip(&srv, &raw);
            if out.starts_with("HTTP/1.1 429") {
                assert!(out.contains("Retry-After:"), "got: {out}");
                shed = true;
                break;
            }
        }
        assert!(shed, "flood never rate-limited");
        let drained = queue.drain();
        assert!(!drained.is_empty());
        assert!(drained.iter().all(|a| *a
            == Arrival {
                src: 0,
                dst: 1,
                size_bytes: 1000
            }));
        srv.shutdown();
    }

    #[test]
    fn health_degrades_to_503() {
        let plane = Plane::new();
        let mut srv = Server::serve_with("127.0.0.1:0", plane.clone(), quick_cfg()).unwrap();
        let out = roundtrip(&srv, "GET /health HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200"), "got: {out}");
        plane.set_degraded(Some("crash-looping".to_string()));
        let out = roundtrip(&srv, "GET /health HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 503"), "got: {out}");
        assert!(out.contains("\"degraded\":\"crash-looping\""), "got: {out}");
        plane.set_degraded(None);
        let out = roundtrip(&srv, "GET /health HTTP/1.1\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200"), "got: {out}");
        srv.shutdown();
    }

    #[test]
    fn ws_handshake_pushes_feed_lines() {
        let plane = Plane::new();
        let feed = crate::ws::Broadcast::new(64);
        plane.set_feed(feed.clone());
        let mut srv = Server::serve_with("127.0.0.1:0", plane, quick_cfg()).unwrap();
        let mut s = TcpStream::connect(srv.local_addr()).unwrap();
        s.write_all(
            b"GET /ws HTTP/1.1\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n\
              Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n",
        )
        .unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        // Read the 101 handshake.
        loop {
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed before handshake");
            buf.extend_from_slice(&chunk[..n]);
            if let Some(i) = find_blank_line(&buf) {
                let head = String::from_utf8_lossy(&buf[..i]).to_string();
                assert!(head.starts_with("HTTP/1.1 101"), "got: {head}");
                assert!(head.contains("s3pPLMBiTxaQ9kYGzzhZRbK+xOo="), "got: {head}");
                buf.drain(..i + 4);
                break;
            }
        }
        feed.push("{\"hello\":1}".to_string());
        // Read one pushed text frame.
        let frame = loop {
            match crate::ws::parse_frame(&buf).unwrap() {
                Some(f) => break f,
                None => {
                    let n = s.read(&mut chunk).unwrap();
                    assert!(n > 0, "server closed before push");
                    buf.extend_from_slice(&chunk[..n]);
                }
            }
        };
        assert_eq!(frame.opcode, crate::ws::opcode::TEXT);
        assert_eq!(frame.payload, b"{\"hello\":1}");
        // Close politely (masked, as clients must).
        let close = [0x88, 0x80, 0, 0, 0, 0];
        let _ = s.write_all(&close);
        srv.shutdown();
    }
}
