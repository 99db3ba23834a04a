//! A minimal, dependency-free serving layer for the scenario engine.
//!
//! The ROADMAP's "millions of users" direction needs a long-running
//! daemon, but the container has no registry access, so there is no
//! hyper/tokio. This module hand-rolls the small slice of HTTP/1.1 the
//! `ja serve` daemon actually needs on top of [`std::net::TcpListener`]
//! and the same scoped-thread discipline as [`crate::exec`]:
//!
//! * [`HttpRequest`]/[`HttpResponse`] — a strict parser and a
//!   deterministic writer for one-request-per-connection HTTP/1.1
//!   (`Connection: close`, `Content-Length` framing, no chunked
//!   transfer coding). The full wire contract is specified in
//!   `docs/PROTOCOL.md`.
//! * [`serve`] — the accept/dispatch loop: a bounded admission queue
//!   (`mpsc::sync_channel`) feeding a fixed pool of worker threads.
//!   The queue bound plus the worker count *is* the admission policy:
//!   when the queue is full new connections are answered immediately
//!   with `503 Service Unavailable` instead of piling up latency.
//!   Setting the shared shutdown flag drains in-flight and queued
//!   requests, refuses new ones, and returns a [`ServeSummary`].
//! * [`ResultCache`] — a content-addressed response cache with an LRU
//!   byte budget. Because reports are byte-deterministic (see
//!   `docs/ARCHITECTURE.md`), a repeated request keyed by
//!   `json::content_hash` can be answered with the identical bytes
//!   without re-evaluating anything.
//!
//! The module is protocol-complete but policy-free: it knows nothing
//! about report kinds or scenario grids. The `ja` CLI injects a handler
//! closure that parses request documents and dispatches onto
//! [`crate::exec::BatchRunner`] / [`crate::fit::fit_batch`].

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use ja_hysteresis::json::{JsonValue, SCHEMA_VERSION, SCHEMA_VERSION_KEY};

/// Maximum accepted length of the request line (method + path + version).
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Maximum accepted length of a single header line.
const MAX_HEADER_LINE: usize = 8 * 1024;
/// Maximum accepted number of headers.
const MAX_HEADERS: usize = 64;
/// How often the waker thread checks the shutdown flag.  The accept loop
/// itself blocks in `accept()` — no connection ever waits on a poll
/// interval — so this only bounds how quickly a SIGINT is noticed.
const SHUTDOWN_POLL: Duration = Duration::from_millis(5);

/// Tuning knobs for [`serve`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker threads, i.e. the maximum number of in-flight requests.
    /// Clamped to at least 1.
    pub workers: usize,
    /// Accepted connections that may wait beyond the in-flight ones.
    /// `0` means rendezvous admission: a connection is only accepted
    /// when a worker is already free.
    pub queue_depth: usize,
    /// Largest request body accepted before answering `413`.
    pub max_body_bytes: usize,
    /// Per-connection socket read/write timeout, so a stalled client
    /// cannot pin a worker forever.
    pub io_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 16,
            max_body_bytes: 4 * 1024 * 1024,
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// What happened over one [`serve`] run, returned after the drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Requests answered by a worker (including error responses).
    pub served: u64,
    /// Connections refused with `503` because the queue was full.
    pub rejected: u64,
}

/// One parsed HTTP/1.1 request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method, e.g. `GET` or `POST`, uppercased as received.
    pub method: String,
    /// Request target, e.g. `/v1/eval`.
    pub path: String,
    /// Header name/value pairs in received order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (exactly `Content-Length` bytes, empty if absent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Looks up a header by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }
}

/// A deferred response body: called once with the connection's writer
/// after the headers have gone out. Used for NDJSON streams whose length
/// is unknown up front (see [`HttpResponse::ndjson_stream`]).
pub type StreamBody = Arc<dyn Fn(&mut dyn Write) -> io::Result<()> + Send + Sync>;

/// One HTTP/1.1 response, always written with `Connection: close`.
///
/// Buffered responses ([`HttpResponse::json`]) are framed with
/// `Content-Length`; streamed responses ([`HttpResponse::ndjson_stream`])
/// have no length header and end when the connection closes — valid
/// HTTP/1.1 framing precisely because every response closes the
/// connection.
#[derive(Clone)]
pub struct HttpResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: Arc<String>,
    stream: Option<StreamBody>,
}

impl std::fmt::Debug for HttpResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpResponse")
            .field("status", &self.status)
            .field("headers", &self.headers)
            .field("body", &self.body)
            .field("stream", &self.stream.as_ref().map(|_| "<producer>"))
            .finish()
    }
}

impl HttpResponse {
    /// A `Content-Type: application/json` response with the given body.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: Arc::new(body.into()),
            stream: None,
        }
    }

    /// A JSON response whose body is shared with (for example) the
    /// result cache, avoiding a copy of a large report.
    pub fn json_shared(status: u16, body: Arc<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body,
            stream: None,
        }
    }

    /// A `200` response whose `application/x-ndjson` body is produced by
    /// `producer` writing directly to the connection, one record at a
    /// time, after the headers have gone out.
    ///
    /// There is no `Content-Length`: the stream ends when the connection
    /// closes (`Connection: close` makes EOF-delimited bodies legal
    /// HTTP/1.1). A producer error after the headers cannot be reported
    /// as a status code any more; the connection is simply closed, and a
    /// client detects the truncation by the missing final manifest line
    /// (see `docs/PROTOCOL.md`).
    pub fn ndjson_stream(
        producer: impl Fn(&mut dyn Write) -> io::Result<()> + Send + Sync + 'static,
    ) -> Self {
        Self {
            status: 200,
            headers: Vec::new(),
            body: Arc::new(String::new()),
            stream: Some(Arc::new(producer)),
        }
    }

    /// Adds an extra response header (for opt-in markers such as
    /// `X-Ja-Cache`).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The status code this response will be written with.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The response body (empty for streamed responses, whose bytes are
    /// produced while writing).
    pub fn body(&self) -> &str {
        &self.body
    }

    /// Whether this response streams its body instead of buffering it.
    pub fn is_streamed(&self) -> bool {
        self.stream.is_some()
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the response. Header order is fixed (status line,
    /// `Content-Type`, extra headers, `Content-Length` for buffered
    /// bodies, `Connection: close`) so responses are byte-deterministic;
    /// a streamed body is then produced record by record.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        let content_type = if self.stream.is_some() {
            "application/x-ndjson"
        } else {
            "application/json"
        };
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {content_type}\r\n",
            self.status,
            Self::reason(self.status)
        )?;
        for (name, value) in &self.headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        match &self.stream {
            Some(producer) => {
                write!(out, "Connection: close\r\n\r\n")?;
                producer(out)?;
            }
            None => {
                write!(
                    out,
                    "Content-Length: {}\r\nConnection: close\r\n\r\n",
                    self.body.len()
                )?;
                out.write_all(self.body.as_bytes())?;
            }
        }
        out.flush()
    }
}

/// Builds the versioned `kind:"error"` JSON document used by every
/// non-200 response (see `docs/PROTOCOL.md`).
pub fn error_body(status: u16, message: &str) -> String {
    JsonValue::object()
        .with(SCHEMA_VERSION_KEY, SCHEMA_VERSION)
        .with("kind", "error")
        .with("status", i64::from(status))
        .with("error", message)
        .to_pretty_string()
}

/// An error JSON response: [`error_body`] wrapped in [`HttpResponse`].
pub fn error_response(status: u16, message: &str) -> HttpResponse {
    HttpResponse::json(status, error_body(status, message))
}

/// A request-parsing failure and the status it maps to.
#[derive(Debug)]
struct HttpError {
    status: u16,
    message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }

    fn into_response(self) -> HttpResponse {
        error_response(self.status, &self.message)
    }
}

fn read_line_limited(
    reader: &mut impl BufRead,
    limit: usize,
    what: &str,
) -> Result<String, HttpError> {
    let mut line = String::new();
    let mut taken = reader.take(limit as u64 + 1);
    match taken.read_line(&mut line) {
        Ok(0) => Err(HttpError::new(400, format!("unexpected end of {what}"))),
        Ok(_) if line.len() > limit => Err(HttpError::new(400, format!("{what} too long"))),
        Ok(_) => {
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            Ok(line)
        }
        Err(err) => Err(HttpError::new(400, format!("failed reading {what}: {err}"))),
    }
}

/// Parses one HTTP/1.1 request from `reader`. Strict by design: no
/// chunked transfer coding, no continuation lines, bounded line and
/// header counts, and the body must be exactly `Content-Length` bytes.
fn read_request(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
) -> Result<HttpRequest, HttpError> {
    let request_line = read_line_limited(reader, MAX_REQUEST_LINE, "request line")?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(HttpError::new(
                400,
                format!("malformed request line: {request_line:?}"),
            ))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::new(
            400,
            format!("unsupported protocol version: {version:?}"),
        ));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line_limited(reader, MAX_HEADER_LINE, "header")?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::new(400, "too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, format!("malformed header: {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::new(
            400,
            "chunked transfer encoding is not supported; send Content-Length",
        ));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, value)) => value
            .parse::<usize>()
            .map_err(|_| HttpError::new(400, format!("invalid Content-Length: {value:?}")))?,
        None => 0,
    };
    if content_length > max_body_bytes {
        return Err(HttpError::new(
            413,
            format!(
                "request body of {content_length} bytes exceeds the {max_body_bytes}-byte limit"
            ),
        ));
    }

    let mut body = vec![0_u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|err| HttpError::new(400, format!("failed reading request body: {err}")))?;

    Ok(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

/// Runs the accept/dispatch loop until `shutdown` is set.
///
/// `handler` is called once per successfully parsed request, from one of
/// `options.workers` worker threads, and its response is written back
/// verbatim; parse failures are answered with `kind:"error"` documents
/// without reaching the handler. A panic is contained to its connection:
/// a handler that panics is answered with a `500` `kind:"error"`
/// document, and a streamed body whose producer panics after the headers
/// went out has its connection closed (the missing manifest marks the
/// truncation); either way the worker goes on serving. When the admission
/// queue is full, new connections get an immediate `503`. Once `shutdown`
/// is observed the listener stops accepting, queued and in-flight requests
/// drain to completion, and the call returns.
pub fn serve<H>(
    listener: TcpListener,
    options: &ServerOptions,
    shutdown: &AtomicBool,
    handler: H,
) -> io::Result<ServeSummary>
where
    H: Fn(&HttpRequest) -> HttpResponse + Sync,
{
    let workers = options.workers.max(1);
    let (sender, receiver) = mpsc::sync_channel::<TcpStream>(options.queue_depth);
    let receiver = Mutex::new(receiver);
    let served = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let handler = &handler;
    let mut accept_error = None;

    // Where the waker thread connects to unblock `accept()` once the
    // shutdown flag flips (a wildcard bind is poked via loopback).
    let mut wake_addr = listener.local_addr()?;
    if wake_addr.ip().is_unspecified() {
        wake_addr.set_ip(match wake_addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let accept_done = AtomicBool::new(false);

    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = receiver.lock().expect("serve receiver poisoned").recv();
                match next {
                    Ok(stream) => {
                        handle_connection(stream, options.max_body_bytes, handler);
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    // The accept loop dropped the sender: drained, done.
                    Err(_) => break,
                }
            });
        }

        // The accept loop blocks in `accept()` for zero admission
        // latency; this waker pokes it with a throwaway connection when
        // the flag flips (set by a signal handler or a /v1/shutdown
        // worker — neither can unblock the listener itself), and keeps
        // poking until the loop confirms it broke out.
        scope.spawn(|| {
            while !accept_done.load(Ordering::Acquire) {
                if shutdown.load(Ordering::Acquire) {
                    let _ = TcpStream::connect(wake_addr);
                }
                thread::sleep(SHUTDOWN_POLL);
            }
        });

        loop {
            if shutdown.load(Ordering::Acquire) {
                break;
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    if shutdown.load(Ordering::Acquire) {
                        // The waker's poke (or an unlucky client racing
                        // the drain): refused by dropping.
                        break;
                    }
                    let _ = stream.set_read_timeout(Some(options.io_timeout));
                    let _ = stream.set_write_timeout(Some(options.io_timeout));
                    match sender.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                            refuse_connection(stream);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => {
                    accept_error = Some(err);
                    break;
                }
            }
        }
        accept_done.store(true, Ordering::Release);
        // Closing the channel is the drain signal: workers finish the
        // queued connections, then observe the disconnect and exit.
        drop(sender);
    });

    match accept_error {
        Some(err) => Err(err),
        None => Ok(ServeSummary {
            served: served.load(Ordering::Relaxed),
            rejected: rejected.load(Ordering::Relaxed),
        }),
    }
}

fn handle_connection<H>(stream: TcpStream, max_body_bytes: usize, handler: &H)
where
    H: Fn(&HttpRequest) -> HttpResponse,
{
    let mut reader = BufReader::new(&stream);
    let response = match read_request(&mut reader, max_body_bytes) {
        // Nothing has been written yet, so a panicking handler can still
        // be answered with a proper error document.
        Ok(request) => {
            panic::catch_unwind(AssertUnwindSafe(|| handler(&request))).unwrap_or_else(|_| {
                error_response(500, "internal error: the request handler panicked")
            })
        }
        Err(err) => err.into_response(),
    };
    // A streamed body runs its producer while writing, after the `200`
    // headers: if it panics, closing the socket below is all that is left.
    let _ = panic::catch_unwind(AssertUnwindSafe(|| response.write_to(&mut &stream)));
    let _ = stream.shutdown(Shutdown::Both);
}

fn refuse_connection(stream: TcpStream) {
    let response = error_response(503, "server busy: the request queue is full, retry later");
    let _ = response.write_to(&mut &stream);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Point-in-time counters of a [`ResultCache`], reported by
/// `GET /v1/health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cached responses currently resident.
    pub entries: usize,
    /// Bytes of cached response bodies currently resident.
    pub bytes: usize,
    /// The configured byte budget (`0` = caching disabled).
    pub budget_bytes: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (including all lookups when disabled).
    pub misses: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
}

#[derive(Debug)]
struct CacheEntry {
    body: Arc<String>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<u128, CacheEntry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A content-addressed response cache with an LRU byte budget.
///
/// Keys are [`ja_hysteresis::json::content_hash`] digests of the
/// normalized request document, so two requests that differ only in JSON
/// key order (or in fields that cannot affect the response bytes) share
/// one entry. Values are the exact response bodies; byte-determinism of
/// the report writer is what makes serving them back correct.
///
/// Eviction scans linearly for the least-recently-used entry: the cache
/// holds few, large entries (whole reports), so an O(entries) scan on
/// insert is cheaper than maintaining an ordered index.
#[derive(Debug)]
pub struct ResultCache {
    budget_bytes: usize,
    inner: Mutex<CacheInner>,
}

impl ResultCache {
    /// Creates a cache bounded by `budget_bytes` of response bodies.
    /// A budget of `0` disables caching: every lookup misses and
    /// nothing is stored.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// Locks the cache state. A panic while the lock was held may have
    /// left the map and its byte count half-updated, so a poisoned cache
    /// drops every entry (keeping its counters) and carries on empty.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            let mut inner = poisoned.into_inner();
            inner.map.clear();
            inner.bytes = 0;
            self.inner.clear_poison();
            inner
        })
    }

    /// Looks up a response body, refreshing its recency on a hit.
    pub fn get(&self, key: u128) -> Option<Arc<String>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                let body = Arc::clone(&entry.body);
                inner.hits += 1;
                Some(body)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores a response body, evicting least-recently-used entries
    /// until it fits. Bodies larger than the whole budget are not
    /// cached. Returns the (possibly shared) body for the response.
    pub fn insert(&self, key: u128, body: String) -> Arc<String> {
        let body = Arc::new(body);
        if body.len() > self.budget_bytes {
            return body;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(previous) = inner.map.remove(&key) {
            inner.bytes -= previous.body.len();
        }
        while inner.bytes + body.len() > self.budget_bytes {
            let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| *key)
            else {
                break;
            };
            let evicted = inner.map.remove(&oldest).expect("oldest key just seen");
            inner.bytes -= evicted.body.len();
            inner.evictions += 1;
        }
        inner.bytes += body.len();
        inner.map.insert(
            key,
            CacheEntry {
                body: Arc::clone(&body),
                last_used: tick,
            },
        );
        body
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.map.len(),
            bytes: inner.bytes,
            budget_bytes: self.budget_bytes,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;
    use std::net::SocketAddr;
    use std::sync::mpsc::channel;
    use std::sync::Condvar;

    fn parse_response(raw: &str) -> (u16, Vec<(String, String)>, String) {
        let (head, body) = raw
            .split_once("\r\n\r\n")
            .expect("response has a header/body separator");
        let mut lines = head.lines();
        let status_line = lines.next().expect("status line");
        let status = status_line
            .split(' ')
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let headers = lines
            .map(|line| {
                let (name, value) = line.split_once(':').expect("header colon");
                (name.trim().to_ascii_lowercase(), value.trim().to_string())
            })
            .collect();
        (status, headers, body.to_string())
    }

    fn send_raw(addr: SocketAddr, request: &str) -> (u16, Vec<(String, String)>, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("write request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        parse_response(&raw)
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<(String, String)>, String) {
        send_raw(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    struct RunningServer {
        addr: SocketAddr,
        shutdown: Arc<AtomicBool>,
        join: thread::JoinHandle<io::Result<ServeSummary>>,
    }

    fn start_server<H>(options: ServerOptions, handler: H) -> RunningServer
    where
        H: Fn(&HttpRequest) -> HttpResponse + Sync + Send + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("local addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let join = thread::spawn(move || serve(listener, &options, &flag, handler));
        RunningServer {
            addr,
            shutdown,
            join,
        }
    }

    impl RunningServer {
        fn stop(self) -> ServeSummary {
            self.shutdown.store(true, Ordering::Release);
            self.join
                .join()
                .expect("server thread")
                .expect("serve result")
        }
    }

    #[test]
    fn serves_a_request_and_reports_the_summary() {
        let server = start_server(ServerOptions::default(), |request| {
            assert_eq!(request.method, "POST");
            assert_eq!(request.path, "/v1/eval");
            assert_eq!(request.header("host"), Some("test"));
            assert_eq!(request.header("HOST"), Some("test"));
            HttpResponse::json(200, String::from_utf8(request.body.clone()).unwrap())
                .with_header("X-Ja-Cache", "miss")
        });
        let (status, headers, body) = post(server.addr, "/v1/eval", "{\"kind\":\"ping\"}");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"kind\":\"ping\"}");
        let header = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(header("x-ja-cache"), Some("miss"));
        assert_eq!(header("content-length"), Some("15"));
        assert_eq!(header("connection"), Some("close"));
        assert_eq!(header("content-type"), Some("application/json"));
        let summary = server.stop();
        assert_eq!(
            summary,
            ServeSummary {
                served: 1,
                rejected: 0
            }
        );
    }

    #[test]
    fn streamed_responses_are_ndjson_without_content_length() {
        let server = start_server(ServerOptions::default(), |_| {
            HttpResponse::ndjson_stream(|out| {
                writeln!(out, "{{\"index\":0}}")?;
                writeln!(out, "{{\"kind\":\"batch_manifest\"}}")
            })
        });
        let (status, headers, body) = post(server.addr, "/v1/eval", "{}");
        assert_eq!(status, 200);
        let header = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(header("content-type"), Some("application/x-ndjson"));
        assert_eq!(header("connection"), Some("close"));
        assert_eq!(
            header("content-length"),
            None,
            "streamed bodies are EOF-delimited"
        );
        assert_eq!(body, "{\"index\":0}\n{\"kind\":\"batch_manifest\"}\n");
        server.stop();
    }

    #[test]
    fn malformed_requests_get_error_documents_without_reaching_the_handler() {
        let server = start_server(ServerOptions::default(), |_| {
            panic!("handler must not run for malformed requests")
        });
        let cases: &[(&str, u16, &str)] = &[
            ("BROKEN\r\n\r\n", 400, "malformed request line"),
            (
                "GET /v1/health HTTP/9.9\r\n\r\n",
                400,
                "unsupported protocol version",
            ),
            (
                "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
                400,
                "invalid Content-Length",
            ),
            (
                "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                400,
                "chunked transfer encoding",
            ),
            (
                "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
                400,
                "failed reading request body",
            ),
        ];
        for (raw, want_status, want_fragment) in cases {
            let (status, _, body) = send_raw(server.addr, raw);
            assert_eq!(status, *want_status, "request {raw:?}");
            assert!(
                body.contains(want_fragment),
                "body {body:?} should mention {want_fragment:?}"
            );
            assert!(body.contains("\"kind\": \"error\""));
        }
        server.stop();
    }

    #[test]
    fn oversized_bodies_are_rejected_with_413() {
        let options = ServerOptions {
            max_body_bytes: 16,
            ..ServerOptions::default()
        };
        let server = start_server(options, |_| panic!("handler must not run"));
        let (status, _, body) = post(server.addr, "/v1/eval", &"x".repeat(64));
        assert_eq!(status, 413);
        assert!(body.contains("exceeds the 16-byte limit"));
        server.stop();
    }

    /// A handler gate: requests block inside the handler until released.
    struct Gate {
        entered: Mutex<usize>,
        open: Mutex<bool>,
        signal: Condvar,
    }

    impl Gate {
        fn new() -> Self {
            Self {
                entered: Mutex::new(0),
                open: Mutex::new(false),
                signal: Condvar::new(),
            }
        }

        fn enter_and_wait(&self) {
            *self.entered.lock().unwrap() += 1;
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.signal.wait(open).unwrap();
            }
        }

        fn wait_for_entries(&self, count: usize) {
            while *self.entered.lock().unwrap() < count {
                thread::sleep(Duration::from_millis(1));
            }
        }

        fn release(&self) {
            *self.open.lock().unwrap() = true;
            self.signal.notify_all();
        }
    }

    #[test]
    fn full_queue_rejects_with_503_and_drain_completes_queued_work() {
        let gate = Arc::new(Gate::new());
        let handler_gate = Arc::clone(&gate);
        let options = ServerOptions {
            workers: 1,
            queue_depth: 1,
            ..ServerOptions::default()
        };
        let server = start_server(options, move |_| {
            handler_gate.enter_and_wait();
            HttpResponse::json(200, "{\"ok\":true}")
        });

        // First request occupies the only worker (observed via the gate);
        // the second fills the single queue slot; the third must bounce.
        let addr = server.addr;
        let spawn_client = || {
            let (tx, rx) = channel();
            let handle = thread::spawn(move || {
                let result = post(addr, "/v1/eval", "{}");
                let _ = tx.send(());
                result
            });
            (handle, rx)
        };
        let (first, _) = spawn_client();
        gate.wait_for_entries(1);
        let (second, second_done) = spawn_client();
        // The accept loop enqueues connections in arrival order, so once
        // the first is in the handler the second lands in the queue slot.
        // Give the accept loop a moment to pull it off the listener.
        thread::sleep(Duration::from_millis(50));
        let (status, _, body) = post(addr, "/v1/eval", "{}");
        assert_eq!(status, 503, "third request must be refused: {body}");
        assert!(body.contains("queue is full"));
        assert!(
            second_done.try_recv().is_err(),
            "second request must still be queued when the third bounces"
        );

        // Shut down while one request is in flight and one is queued:
        // the drain must complete both successfully.
        server.shutdown.store(true, Ordering::Release);
        thread::sleep(Duration::from_millis(20));
        gate.release();
        let (status, _, _) = first.join().expect("first client");
        assert_eq!(status, 200);
        let (status, _, _) = second.join().expect("second client");
        assert_eq!(status, 200);
        let summary = server
            .join
            .join()
            .expect("server thread")
            .expect("serve result");
        assert_eq!(
            summary,
            ServeSummary {
                served: 2,
                rejected: 1
            }
        );
    }

    #[test]
    fn a_panicking_handler_is_isolated_to_its_connection() {
        let options = ServerOptions {
            workers: 1,
            ..ServerOptions::default()
        };
        let server = start_server(options, |request| match request.path.as_str() {
            "/v1/panic" => panic!("handler failure injected by the test"),
            "/v1/stream-panic" => HttpResponse::ndjson_stream(|out| {
                writeln!(out, "{{\"index\":0}}")?;
                panic!("producer failure injected by the test")
            }),
            _ => HttpResponse::json(200, "{\"ok\":true}"),
        });

        let (status, _, body) = post(server.addr, "/v1/panic", "{}");
        assert_eq!(status, 500);
        assert!(body.contains("\"kind\": \"error\""));
        assert!(body.contains("\"status\": 500"));
        // The stream had started, so it is cut short: no manifest line.
        let (status, _, body) = post(server.addr, "/v1/stream-panic", "{}");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"index\":0}\n");
        // The single worker survived both panics.
        let (status, _, body) = post(server.addr, "/v1/eval", "{}");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        assert_eq!(
            server.stop(),
            ServeSummary {
                served: 3,
                rejected: 0
            }
        );
    }

    #[test]
    fn a_poisoned_cache_drops_its_entries_and_keeps_working() {
        let cache = ResultCache::new(64);
        cache.insert(1, "aaaa".to_string());
        assert!(cache.get(1).is_some());
        thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _guard = cache.inner.lock().unwrap();
                panic!("panic while holding the cache lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert_eq!(cache.get(1), None);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes), (0, 0));
        assert_eq!((stats.hits, stats.misses), (1, 1));
        cache.insert(2, "bbbb".to_string());
        assert_eq!(cache.get(2).as_deref().map(String::as_str), Some("bbbb"));
        assert_eq!(cache.stats().bytes, 4);
    }

    #[test]
    fn cache_serves_hits_and_evicts_least_recently_used() {
        let cache = ResultCache::new(10);
        assert_eq!(cache.get(1), None);
        cache.insert(1, "aaaa".to_string());
        cache.insert(2, "bbbb".to_string());
        assert_eq!(cache.get(1).as_deref().map(String::as_str), Some("aaaa"));
        // Inserting 4 more bytes exceeds the 10-byte budget; key 2 is now
        // the least recently used (key 1 was just refreshed) and goes.
        cache.insert(3, "cccc".to_string());
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.get(1).as_deref().map(String::as_str), Some("aaaa"));
        assert_eq!(cache.get(3).as_deref().map(String::as_str), Some("cccc"));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.bytes, 8);
        assert_eq!(stats.budget_bytes, 10);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn cache_replaces_entries_and_skips_oversized_bodies() {
        let cache = ResultCache::new(10);
        cache.insert(1, "aaaa".to_string());
        cache.insert(1, "bb".to_string());
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 2);
        assert_eq!(stats.evictions, 0);
        // Larger than the whole budget: returned for the response but
        // never stored.
        let body = cache.insert(9, "x".repeat(11));
        assert_eq!(body.len(), 11);
        assert_eq!(cache.get(9), None);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn zero_budget_disables_the_cache() {
        let cache = ResultCache::new(0);
        cache.insert(1, "body".to_string());
        assert_eq!(cache.get(1), None);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn error_body_is_a_versioned_error_document() {
        let body = error_body(503, "busy");
        assert!(body.contains("\"schema_version\": 1"));
        assert!(body.contains("\"kind\": \"error\""));
        assert!(body.contains("\"status\": 503"));
        assert!(body.contains("\"error\": \"busy\""));
    }

    /// The body limit of the generated requests: small enough that an
    /// accepted `Content-Length` costs nothing, large enough that some
    /// bodies fit.
    const TEST_BODY_LIMIT: usize = 64;

    /// Request pieces: request lines good and bad, headers (huge and
    /// negative lengths, `Transfer-Encoding`, non-UTF-8 bytes, an
    /// overlong line, one past the header cap), every line ending, and
    /// body bytes.
    const HTTP_TOKENS: [&[u8]; 30] = [
        b"GET /v1/health HTTP/1.1",
        b"POST /v1/eval HTTP/1.0",
        b"GET  HTTP/1.1",
        b"GET / HTTP/2",
        b"GET /v1/health HTTP/1.1 extra",
        b"G\xffT / HTTP/1.1",
        b"Content-Length: 0",
        b"Content-Length: 5",
        b"Content-Length: 64",
        b"Content-Length: 65",
        b"Content-Length: 18446744073709551616",
        b"Content-Length: -1",
        b"Content-Length: +5",
        b"Content-Length: 5, 5",
        b"Transfer-Encoding: chunked",
        b"transfer-encoding: identity",
        b"Host: localhost",
        b"X-Bytes: \xfe\xff",
        b"no colon here",
        b": empty name",
        b"\r\n",
        b"\n",
        b"\r",
        b" ",
        b"\xc3",
        b"{\"kind\": \"health\"}",
        b"hello",
        b"",
        b"H",
        b"L",
    ];

    /// A request of up to 12 tokens.  Token `H` stands for 65 headers (one
    /// past the cap) and `L` for a 9 KiB header line (past the line limit).
    fn http_request() -> impl Strategy<Value = Vec<u8>> {
        collection::vec(0usize..HTTP_TOKENS.len(), 0..12).prop_map(|tokens| {
            let mut bytes = Vec::new();
            for token in tokens {
                match HTTP_TOKENS[token] {
                    b"H" => bytes.extend(b"X-A: b\r\n".repeat(MAX_HEADERS + 1)),
                    b"L" => bytes.extend(vec![b'a'; MAX_HEADER_LINE + 1024]),
                    token => bytes.extend_from_slice(token),
                }
            }
            bytes
        })
    }

    /// Parses `bytes` without panicking: a request, or a 400 or 413.
    fn assert_read_request_is_total(bytes: &[u8]) {
        let mut reader = bytes;
        match read_request(&mut reader, TEST_BODY_LIMIT) {
            Ok(request) => assert!(request.body.len() <= TEST_BODY_LIMIT),
            Err(err) => assert!(
                matches!(err.status, 400 | 413),
                "{:?}: {} {}",
                String::from_utf8_lossy(bytes),
                err.status,
                err.message
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn read_request_never_panics_on_arbitrary_bytes(
            bytes in collection::vec(0usize..256, 0..128),
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            assert_read_request_is_total(&bytes);
        }

        #[test]
        fn read_request_never_panics_on_request_soup(bytes in http_request()) {
            assert_read_request_is_total(&bytes);
        }
    }
}
