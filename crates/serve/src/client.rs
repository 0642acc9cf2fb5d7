//! Blocking job-API client with bounded, jittered retries.
//!
//! The client's backoff schedule is a [`RetryPolicy`] (deterministic
//! SplitMix64 jitter). Transient failures —
//! connect errors, I/O errors, 429 (queue full) and 503 (draining or
//! over the connection cap) — are retried up to the policy's budget; a
//! server-advertised `Retry-After` overrides the nominal delay (capped
//! by the policy's ceiling so tests and impatient callers stay fast).
//! Hard rejections (400, 404) are never retried.

use crate::api::SubmitRequest;
use crate::http::{read_response, HttpError};
use crate::retry::RetryPolicy;
use crisp_obs::json::{parse, Value};
use crisp_store::fnv1a128;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Client configuration.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Daemon address, `host:port`.
    pub addr: String,
    /// Backoff budget for transient failures.
    pub retry: RetryPolicy,
    /// Per-request connect/read/write timeout.
    pub timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            addr: "127.0.0.1:7199".to_string(),
            retry: RetryPolicy {
                max_retries: 5,
                base: Duration::from_millis(200),
                cap: Duration::from_secs(5),
            },
            timeout: Duration::from_secs(10),
        }
    }
}

/// Why a client call failed for good.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The server answered with a non-retryable error status.
    Rejected {
        /// HTTP status code.
        status: u16,
        /// The structured error body's `error` and `detail` fields (or
        /// the raw body).
        message: String,
    },
    /// The retry budget ran out on transient failures.
    Exhausted {
        /// Attempts made (first try + retries).
        attempts: u32,
        /// The last transient failure, one line.
        last: String,
    },
    /// The server spoke something that is not our protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Rejected { status, message } => {
                write!(f, "server rejected request ({status}): {message}")
            }
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A blocking client for one daemon endpoint.
#[derive(Clone, Debug)]
pub struct Client {
    cfg: ClientConfig,
}

impl Client {
    /// Creates a client for `cfg.addr`.
    pub fn new(cfg: ClientConfig) -> Client {
        Client { cfg }
    }

    /// The configured daemon address.
    pub fn addr(&self) -> &str {
        &self.cfg.addr
    }

    /// Submits a sweep; returns the acknowledgement body (`id`, `state`,
    /// `cells`, `warm_cells`, `coalesced`).
    ///
    /// # Errors
    ///
    /// [`ClientError`] once the retry budget is exhausted or the server
    /// rejects the submission outright.
    pub fn submit(&self, request: &SubmitRequest) -> Result<Value, ClientError> {
        let (status, body) = self.request_with_retry("POST", "/jobs", Some(&request.encode()))?;
        match status {
            200 | 202 => Ok(body),
            _ => Err(rejected(status, &body)),
        }
    }

    /// Fetches a job's status document.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on exhaustion or a 4xx answer.
    pub fn status(&self, id_hex: &str) -> Result<Value, ClientError> {
        let (status, body) = self.request_with_retry("GET", &format!("/jobs/{id_hex}"), None)?;
        match status {
            200 => Ok(body),
            _ => Err(rejected(status, &body)),
        }
    }

    /// Fetches a job's result: `Some(result)` once finished, `None`
    /// while still queued or running (HTTP 202).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on exhaustion or a 4xx answer.
    pub fn result(&self, id_hex: &str) -> Result<Option<Value>, ClientError> {
        let (status, body) =
            self.request_with_retry("GET", &format!("/jobs/{id_hex}/result"), None)?;
        match status {
            200 => Ok(Some(body)),
            202 => Ok(None),
            _ => Err(rejected(status, &body)),
        }
    }

    /// Fetches the daemon's `/stats` document.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on exhaustion or an error answer.
    pub fn stats(&self) -> Result<Value, ClientError> {
        let (status, body) = self.request_with_retry("GET", "/stats", None)?;
        match status {
            200 => Ok(body),
            _ => Err(rejected(status, &body)),
        }
    }

    /// Follows a job's live event stream (`GET /jobs/<id>/events?from=N`)
    /// over one connection, invoking `on_event` for every NDJSON event
    /// line. Server keepalive chunks are filtered out and not counted.
    ///
    /// Returns `(delivered, ended)`: how many event lines were delivered
    /// (resume a dropped stream with `from + delivered`), and whether the
    /// stream terminated cleanly (the job finished) rather than the
    /// connection dropping mid-stream. A dropped connection is *not* an
    /// error — the caller decides whether to reconnect.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] on a 4xx answer (unknown job),
    /// [`ClientError::Exhausted`] when the connection could not even be
    /// established (transient — back off and retry), and
    /// [`ClientError::Protocol`] when the server's framing is not ours.
    pub fn follow(
        &self,
        id_hex: &str,
        from: usize,
        on_event: &mut dyn FnMut(&Value),
    ) -> Result<(usize, bool), ClientError> {
        let transient = |last: String| ClientError::Exhausted { attempts: 1, last };
        let mut stream = connect(&self.cfg.addr, self.cfg.timeout).map_err(transient)?;
        stream
            .set_read_timeout(Some(self.cfg.timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.cfg.timeout)))
            .map_err(|e| transient(format!("set timeouts: {e}")))?;
        let raw = format!(
            "GET /jobs/{id_hex}/events?from={from} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
            self.cfg.addr
        );
        use std::io::Read;
        stream
            .write_all(raw.as_bytes())
            .map_err(|e| transient(format!("send: {e}")))?;

        // Read the response head; whatever follows it seeds the chunk
        // decoder.
        let mut buf: Vec<u8> = Vec::with_capacity(1024);
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if buf.len() > 64 * 1024 {
                return Err(ClientError::Protocol("response head never ended".into()));
            }
            let mut chunk = [0u8; 4096];
            let n = stream
                .read(&mut chunk)
                .map_err(|e| transient(format!("recv head: {e}")))?;
            if n == 0 {
                return Err(transient("connection closed before head".into()));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad status line in `{head}`")))?;
        let mut rest: Vec<u8> = buf[head_end + 4..].to_vec();
        if status != 200 {
            let mut tail = Vec::new();
            let _ = stream.read_to_end(&mut tail);
            rest.extend_from_slice(&tail);
            let text = String::from_utf8_lossy(&rest);
            let body = parse(&text).unwrap_or(Value::Obj(vec![]));
            return Err(rejected(status, &body));
        }
        if !head
            .to_ascii_lowercase()
            .contains("transfer-encoding: chunked")
        {
            return Err(ClientError::Protocol(
                "events response is not chunked".into(),
            ));
        }

        // Incremental chunked-transfer decoding: chunk payloads are
        // concatenated into `line_buf`, and every complete NDJSON line
        // is delivered as it lands.
        let mut delivered = 0usize;
        let mut line_buf: Vec<u8> = Vec::new();
        let mut deliver = |line_buf: &mut Vec<u8>, delivered: &mut usize| {
            while let Some(nl) = line_buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = line_buf.drain(..=nl).collect();
                let text = String::from_utf8_lossy(&line[..nl]);
                if text.trim().is_empty() {
                    continue;
                }
                let Ok(event) = parse(&text) else {
                    continue; // tolerate torn/foreign lines
                };
                if event.get("event").and_then(Value::as_str) == Some("keepalive") {
                    continue; // injected by the server, not a file line
                }
                *delivered += 1;
                on_event(&event);
            }
        };
        loop {
            // A chunk head (`<hex size>\r\n`) must be in `rest`.
            let Some(pos) = rest.windows(2).position(|w| w == b"\r\n") else {
                if rest.len() > 1024 * 1024 {
                    return Err(ClientError::Protocol("unterminated chunk size".into()));
                }
                let mut chunk = [0u8; 4096];
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return Ok((delivered, false)), // dropped
                    Ok(n) => rest.extend_from_slice(&chunk[..n]),
                }
                continue;
            };
            let size_text = String::from_utf8_lossy(&rest[..pos]).into_owned();
            let size_hex = size_text.split(';').next().unwrap_or("").trim();
            let Ok(size) = usize::from_str_radix(size_hex, 16) else {
                return Err(ClientError::Protocol(format!(
                    "bad chunk size `{size_text}`"
                )));
            };
            if size == 0 {
                deliver(&mut line_buf, &mut delivered);
                return Ok((delivered, true)); // clean terminator: job done
            }
            if size > 1024 * 1024 {
                return Err(ClientError::Protocol(format!("chunk of {size} bytes")));
            }
            let frame_end = pos + 2 + size + 2; // size line + payload + CRLF
            if rest.len() < frame_end {
                let mut chunk = [0u8; 4096];
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return Ok((delivered, false)), // dropped
                    Ok(n) => rest.extend_from_slice(&chunk[..n]),
                }
                continue;
            }
            line_buf.extend_from_slice(&rest[pos + 2..pos + 2 + size]);
            rest.drain(..frame_end);
            deliver(&mut line_buf, &mut delivered);
        }
    }

    /// One round trip with bounded retries on transient failures.
    /// Returns the first non-transient `(status, parsed body)`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] when every attempt failed transiently,
    /// [`ClientError::Protocol`] on an unparseable response.
    pub fn request_with_retry(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, Value), ClientError> {
        // Seed the jitter from the request identity so concurrent
        // clients desynchronise but a replayed run does not.
        let seed = fnv1a128(format!("{method} {path}").as_bytes()) as u64;
        let attempts = self.cfg.retry.max_attempts();
        let mut last = String::new();
        for attempt in 1..=attempts {
            match self.once(method, path, body) {
                Ok((status, retry_after, raw)) => {
                    if status == 429 || status == 503 {
                        last = format!("HTTP {status}: {}", error_line(&raw));
                        if attempt < attempts {
                            // Honor Retry-After, but never beyond the
                            // policy's ceiling.
                            let delay = retry_after
                                .map(|s| Duration::from_secs(s).min(self.cfg.retry.cap))
                                .unwrap_or_else(|| self.cfg.retry.delay(attempt, seed));
                            std::thread::sleep(delay);
                        }
                        continue;
                    }
                    let text = String::from_utf8_lossy(&raw);
                    let parsed = parse(&text)
                        .map_err(|e| ClientError::Protocol(format!("bad response body: {e}")))?;
                    return Ok((status, parsed));
                }
                Err(e) => {
                    last = e;
                    if attempt < attempts {
                        std::thread::sleep(self.cfg.retry.delay(attempt, seed));
                    }
                }
            }
        }
        Err(ClientError::Exhausted { attempts, last })
    }

    /// A single request attempt: connect, write, read to EOF.
    fn once(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, Option<u64>, Vec<u8>), String> {
        let mut stream = connect(&self.cfg.addr, self.cfg.timeout)?;
        stream
            .set_read_timeout(Some(self.cfg.timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.cfg.timeout)))
            .map_err(|e| format!("set timeouts: {e}"))?;
        let body = body.unwrap_or("");
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            self.cfg.addr,
            body.len()
        );
        stream
            .write_all(raw.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        read_response(&mut stream).map_err(|e: HttpError| format!("recv: {}", e.message()))
    }
}

/// `TcpStream::connect_timeout` needs a resolved `SocketAddr`.
fn connect(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    use std::net::ToSocketAddrs;
    let resolved = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr}: no addresses"))?;
    TcpStream::connect_timeout(&resolved, timeout).map_err(|e| format!("connect {addr}: {e}"))
}

fn rejected(status: u16, body: &Value) -> ClientError {
    let field = |key| body.get(key).and_then(Value::as_str);
    let message = match (field("error"), field("detail")) {
        (Some(error), Some(detail)) => format!("{error}: {detail}"),
        (Some(error), None) => error.to_string(),
        _ => body.encode(),
    };
    ClientError::Rejected { status, message }
}

fn error_line(raw: &[u8]) -> String {
    let text = String::from_utf8_lossy(raw);
    parse(&text)
        .ok()
        .and_then(|v| v.get("error").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_else(|| text.chars().take(120).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::write_response;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// A scripted server: answers each connection with the next canned
    /// `(status, retry_after)` response.
    fn scripted_server(script: Vec<(u16, Option<u64>)>) -> (String, Arc<AtomicU32>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let served = Arc::new(AtomicU32::new(0));
        let count = Arc::clone(&served);
        std::thread::spawn(move || {
            for (status, retry_after) in script {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                let mut sink = [0u8; 4096];
                // Drain the request (client half-closes are fine).
                let _ = stream.read(&mut sink);
                let headers: Vec<String> = retry_after
                    .map(|s| vec![format!("Retry-After: {s}")])
                    .unwrap_or_default();
                let body = if status < 400 {
                    "{\"ok\":true}".to_string()
                } else {
                    crate::api::error_body("busy", "scripted")
                };
                let _ = write_response(&mut stream, status, "Scripted", &headers, &body);
                count.fetch_add(1, Ordering::SeqCst);
            }
        });
        (addr, served)
    }

    fn fast_client(addr: String) -> Client {
        Client::new(ClientConfig {
            addr,
            retry: RetryPolicy {
                max_retries: 3,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(5),
            },
            timeout: Duration::from_secs(2),
        })
    }

    #[test]
    fn retries_through_429_until_success() {
        let (addr, served) = scripted_server(vec![(429, Some(0)), (503, None), (200, None)]);
        let client = fast_client(addr);
        let (status, body) = client.request_with_retry("GET", "/stats", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(served.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn hard_rejections_are_not_retried() {
        let (addr, served) = scripted_server(vec![(400, None), (200, None)]);
        let client = fast_client(addr);
        let err = client.status("zzzz").unwrap_err();
        assert!(
            matches!(err, ClientError::Rejected { status: 400, .. }),
            "{err}"
        );
        assert_eq!(served.load(Ordering::SeqCst), 1, "400 must not be retried");
    }

    #[test]
    fn exhaustion_reports_the_last_transient_failure() {
        // Bind-then-drop gives a port with nothing listening.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let client = fast_client(addr);
        let err = client
            .request_with_retry("GET", "/healthz", None)
            .unwrap_err();
        match err {
            ClientError::Exhausted { attempts, last } => {
                assert_eq!(attempts, 4);
                assert!(last.contains("connect"), "{last}");
            }
            other => panic!("expected exhaustion, got {other}"),
        }
    }

    #[test]
    fn pending_results_map_to_none() {
        let (addr, _) = scripted_server(vec![(202, None)]);
        let client = fast_client(addr);
        // 202 carries a JSON state body in the real protocol; the
        // scripted body is `{"ok":true}` which parses fine.
        assert_eq!(client.result("00").unwrap(), None);
    }
}
