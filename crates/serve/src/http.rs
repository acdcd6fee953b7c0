//! The hand-rolled HTTP/1.1 front end.
//!
//! Minimal by design (the workspace has no external dependencies):
//! `Content-Length` bodies only, `Connection: close` on every
//! response, one thread per connection. The routes are a thin wire
//! adapter over [`Server`] — all behaviour
//! (validation, backpressure, caching) lives in [`crate::service`].
//!
//! Tenancy is taken from the `X-Tenant` request header; absent, the
//! submission is booked under `"public"`.

use crate::service::{FetchError, Server, SubmitError};
use metaleak_bench::json::{Json, JsonObj};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Upper bound on request head (request line + headers) bytes.
const MAX_HEAD: usize = 16 * 1024;

/// Upper bound on request body bytes.
const MAX_BODY: usize = 1024 * 1024;

/// A running HTTP front end bound to a local address.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer").field("addr", &self.addr).finish()
    }
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections against `server`.
    pub fn bind(addr: &str, server: Arc<Server>) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread =
            std::thread::Builder::new().name("serve-accept".to_owned()).spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    let server = Arc::clone(&server);
                    let _ = std::thread::Builder::new()
                        .name("serve-conn".to_owned())
                        .spawn(move || handle_connection(stream, &server));
                }
            })?;
        Ok(HttpServer { addr, stop, accept_thread: Some(accept_thread) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept thread. In-flight
    /// connection threads finish their single request.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One parsed request.
struct Request {
    method: String,
    path: String,
    tenant: String,
    body: String,
}

fn handle_connection(stream: TcpStream, server: &Server) {
    let mut stream = stream;
    let response = match read_request(&stream) {
        Ok(req) => route(server, &req),
        Err(status) => {
            (status, JsonObj::new().field("error", "malformed request").build().render())
        }
    };
    let (status, body) = response;
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Reads and parses one request; `Err` carries the HTTP status to
/// answer with.
fn read_request(stream: &TcpStream) -> Result<Request, u16> {
    let mut reader = BufReader::new(stream);
    // The bound applies within a line too: a head with no line end is
    // answered after `MAX_HEAD + 1` bytes instead of buffered forever.
    let mut limited = reader.by_ref().take(MAX_HEAD as u64 + 1);
    let mut head = Vec::new();
    loop {
        let start = head.len();
        let n = limited.read_until(b'\n', &mut head).map_err(|_| 400u16)?;
        if n == 0 {
            return Err(400);
        }
        if head.len() > MAX_HEAD {
            return Err(413);
        }
        if matches!(&head[start..], b"\r\n" | b"\n") {
            break;
        }
    }
    let head = String::from_utf8(head).map_err(|_| 400u16)?;
    let mut lines = head.lines();
    let request_line = lines.next().ok_or(400u16)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(400u16)?.to_owned();
    let path = parts.next().ok_or(400u16)?.to_owned();
    let mut tenant = "public".to_owned();
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("x-tenant") && !value.is_empty() {
            tenant = value.to_owned();
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| 400u16)?;
        }
    }
    if content_length > MAX_BODY {
        return Err(413);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|_| 400u16)?;
    let body = String::from_utf8(body).map_err(|_| 400u16)?;
    Ok(Request { method, path, tenant, body })
}

fn error_body(message: &str) -> String {
    JsonObj::new().field("error", message).build().render()
}

/// Dispatches one request to the service layer.
fn route(server: &Server, req: &Request) -> (u16, String) {
    crate::metrics::Metrics::bump(&server.metrics().http_requests);
    let segments: Vec<&str> =
        req.path.split('?').next().unwrap_or("").split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => match server.submit(&req.tenant, &req.body) {
            Ok(id) => {
                let job = server.job_json(id).unwrap_or(Json::Null);
                (202, job.render())
            }
            Err(SubmitError::Invalid(msg)) => (400, error_body(&msg)),
            Err(SubmitError::QueueFull) => (
                429,
                JsonObj::new()
                    .field("error", "admission queue full")
                    .field("reason", "queue-full")
                    .build()
                    .render(),
            ),
            Err(SubmitError::TenantQuota) => (
                429,
                JsonObj::new()
                    .field("error", "tenant in-flight quota exhausted")
                    .field("reason", "tenant-quota")
                    .build()
                    .render(),
            ),
        },
        ("GET", ["jobs", id]) => match id.parse::<u64>().ok().and_then(|id| server.job_json(id)) {
            Some(job) => (200, job.render()),
            None => (404, error_body("no such job")),
        },
        ("GET", ["jobs", id, "report"]) => match id.parse::<u64>() {
            Ok(id) => match server.report(id) {
                Ok(body) => (200, body),
                Err(e) => fetch_error(e),
            },
            Err(_) => (404, error_body("no such job")),
        },
        ("GET", ["jobs", id, "artifact", kind]) => match id.parse::<u64>() {
            Ok(id) => match server.artifact(id, kind) {
                Ok(bytes) => (200, String::from_utf8_lossy(&bytes).into_owned()),
                Err(e) => fetch_error(e),
            },
            Err(_) => (404, error_body("no such job")),
        },
        ("GET", ["metrics"]) => (200, server.metrics().to_json().render()),
        ("GET", ["healthz"]) => (200, JsonObj::new().field("ok", true).build().render()),
        ("POST", _) | ("GET", _) => (404, error_body("no such route")),
        _ => (405, error_body("method not allowed")),
    }
}

fn fetch_error(e: FetchError) -> (u16, String) {
    match e {
        FetchError::NotFound => (404, error_body("no such job or artifact")),
        FetchError::NotFinished => (409, error_body("job not finished")),
        FetchError::Failed(msg) => (500, error_body(&msg)),
    }
}
