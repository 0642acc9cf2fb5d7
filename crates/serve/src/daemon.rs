//! The sweep daemon: accept loop, bounded admission queue, serial job
//! executor, graceful drain, crash recovery.
//!
//! ## Lifecycle state machine
//!
//! ```text
//!            POST /jobs            executor picks it up
//!  (client) ───────────► QUEUED ────────────────────► RUNNING
//!                          ▲                            │
//!        restart: recover()│          result.json       ├─► DONE / FAILED
//!        re-queues every   │          (atomic write)    │
//!        admitted job with │                            │ SIGTERM: cells
//!        no result.json ───┘◄───────────────────────────┘ abort, job stays
//!                                                         admitted → re-queued
//!                                                         on next start
//! ```
//!
//! Robustness invariants:
//!
//! - a job is *admitted* exactly when its `request.json` is durably on
//!   disk — the 202 response is sent only after that write, so an
//!   acknowledged job can never be lost by a crash;
//! - the queue is bounded: overflow is refused with 429 + `Retry-After`
//!   *before* any disk write, so backpressure costs nothing;
//! - job ids are content-addressed (FNV-1a over the canonical cell
//!   set), so duplicate submissions — including a client retrying an
//!   acknowledged submit after a crash — coalesce instead of running
//!   twice;
//! - admission is one critical section (coalesce check, depth check,
//!   sequence number, persist, enqueue), so concurrent identical
//!   submissions coalesce onto one job and concurrent distinct ones
//!   never pass the bound or share a sequence number;
//! - each job's sweep journals to its own `run.jsonl` and publishes
//!   cells to the shared store, so after SIGKILL the resumed sweep
//!   recomputes only what was in flight and re-serves the rest from
//!   the store: each unique cell is simulated at most once.

use crate::api::{error_body, JobState, SubmitRequest};
use crate::http::{
    read_request, write_chunk, write_chunk_end, write_chunked_head, write_response, HttpLimits,
    Request,
};
use crate::metrics::{Counter, Histogram, LabeledCounter, Metrics, Scalar};
use crate::registry::{JobRecord, Registry};
use crisp_harness::{load_manifest, spanlog};
use crisp_obs::json::Value;
use crisp_obs::SpanRec;
use crisp_sim::CancelToken;
use crisp_store::{fnv1a128, key_hex, LockOptions, Store};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Seek, SeekFrom};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default bound on jobs admitted but not yet finished.
pub const DEFAULT_QUEUE_CAP: usize = 16;

/// A validated, canonicalized submission — what the planner returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPlan {
    /// The submission with defaults filled in (what gets persisted).
    pub request: SubmitRequest,
    /// Sweep spec string (the manifest header's identity).
    pub spec: String,
    /// Store key of every cell in the job, in catalog order.
    pub cells: Vec<u128>,
}

/// Turns a submission into a plan, or a one-line 400 reason.
pub type PlanFn<'a> = dyn Fn(&SubmitRequest) -> Result<JobPlan, String> + Send + Sync + 'a;

/// Everything an executor needs to run (or resume) one job's sweep.
#[derive(Clone, Debug)]
pub struct ExecCtx {
    /// The job's manifest path inside its registry directory.
    pub manifest: PathBuf,
    /// Whether a previous attempt left a manifest to resume from.
    pub resume: bool,
    /// The shared result store directory.
    pub store: PathBuf,
    /// Drain token: executors must wire this into the supervisor so
    /// SIGTERM reaches in-flight cells.
    pub stop: CancelToken,
    /// Trace id for the job's cross-process span log (the job id, hex).
    pub trace: String,
    /// The per-job `spans.jsonl` every layer appends to (see
    /// `crisp_harness::spanlog`).
    pub spans: PathBuf,
    /// Span id of the daemon's `execute` span — the parent under which
    /// the executor's layers (supervisor, stages) hang their spans.
    pub span_parent: u64,
}

/// What one job's sweep produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecResult {
    /// Rendered report tables (byte-identical across resumes).
    pub rendered: String,
    /// Cells that completed.
    pub completed: usize,
    /// Cells that failed.
    pub failed: usize,
    /// The sweep was drained before finishing — the job must stay
    /// incomplete and be re-queued on the next start.
    pub interrupted: bool,
    /// Cells served from the store.
    pub store_hits: usize,
    /// Cells simulated and published.
    pub store_computed: usize,
    /// Per-prefetcher effectiveness totals the job's cells observed
    /// (mechanism name → issued/useful/late). Feeds the labeled
    /// `crisp_prefetch_*_total` families; empty when the executor has
    /// nothing to report.
    pub prefetch: Vec<PrefetchTotals>,
}

/// Per-prefetcher issued/useful/late totals from one job.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrefetchTotals {
    /// Mechanism name (`spp`, `ghbw`, `crisp`, …) — the label value.
    pub name: String,
    /// Prefetches issued into the hierarchy.
    pub issued: u64,
    /// Issued prefetches a demand access later hit.
    pub useful: u64,
    /// Useful but still in flight when demand arrived.
    pub late: u64,
}

/// Runs one job's sweep, or returns a one-line executor failure.
pub type ExecFn<'a> = dyn Fn(&JobRecord, &ExecCtx) -> Result<ExecResult, String> + Send + Sync + 'a;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks a free port (the actual endpoint is
    /// written to `<data>/endpoint`).
    pub addr: String,
    /// Data directory: job registry, endpoint file, exclusivity lock.
    pub data_dir: PathBuf,
    /// Result store directory (defaults to `<data>/store` when `None`).
    pub store_dir: Option<PathBuf>,
    /// Maximum admitted-but-unfinished jobs before 429.
    pub queue_cap: usize,
    /// Maximum concurrent connections before 503.
    pub max_connections: usize,
    /// Request head/body size limits.
    pub limits: HttpLimits,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// Value advertised in `Retry-After` on 429/503.
    pub retry_after: Duration,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: PathBuf::from("crisp-serve-data"),
            store_dir: None,
            queue_cap: DEFAULT_QUEUE_CAP,
            max_connections: 32,
            limits: HttpLimits::default(),
            io_timeout: Duration::from_secs(5),
            retry_after: Duration::from_secs(2),
        }
    }
}

/// Job-id derivation: content-addressed over the canonical cell set, so
/// two submissions describing the same work collide on purpose.
pub fn job_id(spec: &str, cells: &[u128]) -> u128 {
    let mut material = format!("crisp-serve-job-v1\nspec={spec}\ncells=");
    for key in cells {
        material.push_str(&key_hex(*key));
        material.push(',');
    }
    fnv1a128(material.as_bytes())
}

/// Shared mutable daemon state.
struct State {
    registry: Registry,
    /// Admission's one critical section: the coalesce check, the depth
    /// check, the sequence number, the persist and the enqueue of a
    /// submission all run under this lock, which holds the next admission
    /// sequence number (seeded from the registry at start).
    admission: Mutex<u64>,
    queue: Mutex<VecDeque<u128>>,
    running: Mutex<Option<u128>>,
    admitted_total: AtomicUsize,
    rejected_busy: AtomicUsize,
    connections: AtomicUsize,
    worker_parked: AtomicBool,
    started: Instant,
    store_dir: PathBuf,
    /// Cells served warm from the store / simulated fresh, accumulated
    /// across finished jobs — `/stats` and `/metrics` agree on these.
    store_hits_total: AtomicUsize,
    store_misses_total: AtomicUsize,
    /// Admission wall-clock per queued job, so the executor can emit
    /// the `queue` span and close the root `job` span.
    submitted_ns: Mutex<HashMap<u128, u64>>,
    metrics: DaemonMetrics,
}

/// The `/metrics` families read from the `/stats` document at scrape
/// time, so the two endpoints cannot disagree: (`/stats` key, family
/// name, exposition type, help). A row whose key is absent from the
/// document (store keys when the store cannot be read) renders no
/// family; booleans render as 0/1.
#[rustfmt::skip]
const STATS_FAMILIES: [(&str, &str, &str, &str); 14] = [
    ("queue_depth", "crisp_queue_depth", "gauge", "Jobs admitted but not yet finished."),
    ("queue_cap", "crisp_queue_cap", "gauge", "Admission bound before 429."),
    ("jobs_admitted", "crisp_jobs_admitted", "gauge", "Jobs with a durable request.json."),
    ("jobs_finished", "crisp_jobs_finished", "gauge", "Jobs with a final result.json."),
    ("admitted_total", "crisp_jobs_admitted_total", "counter", "Jobs admitted since daemon start (recovered jobs included)."),
    ("rejected_busy", "crisp_jobs_rejected_total", "counter", "Submissions refused with 429 (queue full)."),
    ("connections", "crisp_connections", "gauge", "Connections currently being served."),
    ("draining", "crisp_draining", "gauge", "1 while a graceful drain is in progress."),
    ("uptime_seconds", "crisp_uptime_seconds", "gauge", "Seconds since daemon start."),
    ("store_entries", "crisp_store_entries", "gauge", "Cells in the result store."),
    ("store_bytes", "crisp_store_bytes", "gauge", "Bytes in the result store."),
    ("store_quarantined", "crisp_store_quarantined", "gauge", "Store entries quarantined as corrupt."),
    ("store_hits_total", "crisp_store_hits_total", "counter", "Cells served warm from the store across finished jobs."),
    ("store_misses_total", "crisp_store_misses_total", "counter", "Cells simulated fresh (store misses) across finished jobs."),
];

/// The Prometheus families with no `/stats` counterpart, observed
/// inline: request and job latency, and the per-prefetcher totals.
/// Everything else `GET /metrics` shows is read from the `/stats`
/// document through [`STATS_FAMILIES`].
struct DaemonMetrics {
    registry: Metrics,
    http_requests_total: Counter,
    http_request_seconds: Histogram,
    job_seconds: Histogram,
    prefetch_issued_total: LabeledCounter,
    prefetch_useful_total: LabeledCounter,
    prefetch_late_total: LabeledCounter,
}

impl DaemonMetrics {
    fn new() -> DaemonMetrics {
        let m = Metrics::new();
        DaemonMetrics {
            http_requests_total: m.counter(
                "crisp_http_requests_total",
                "HTTP requests accepted by the daemon (including event streams).",
            ),
            http_request_seconds: m.histogram(
                "crisp_http_request_seconds",
                "Latency of buffered (non-streaming) HTTP requests.",
                &Histogram::LATENCY_BOUNDS,
            ),
            job_seconds: m.histogram(
                "crisp_job_seconds",
                "Wall-clock duration of one job execution (a sweep run or resume).",
                &[0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0],
            ),
            prefetch_issued_total: m.labeled_counter(
                "crisp_prefetch_issued_total",
                "Prefetches issued across finished jobs, by mechanism.",
                "prefetcher",
            ),
            prefetch_useful_total: m.labeled_counter(
                "crisp_prefetch_useful_total",
                "Issued prefetches later hit by demand, by mechanism.",
                "prefetcher",
            ),
            prefetch_late_total: m.labeled_counter(
                "crisp_prefetch_late_total",
                "Useful prefetches still in flight at demand time, by mechanism.",
                "prefetcher",
            ),
            registry: m,
        }
    }

    /// The body of `GET /metrics`: the registry's families, then one
    /// family per [`STATS_FAMILIES`] row present in `stats`.
    fn render(&self, stats: &Value) -> String {
        let scalars: Vec<Scalar<'_>> = STATS_FAMILIES
            .iter()
            .filter_map(|&(key, name, kind, help)| {
                let value = match stats.get(key)? {
                    Value::Num(n) => *n,
                    Value::Bool(b) => f64::from(u8::from(*b)),
                    _ => return None,
                };
                Some((name, kind, help, value))
            })
            .collect();
        self.registry.render(&scalars)
    }
}

impl State {
    fn queue_depth(&self) -> usize {
        self.queue.lock().expect("queue lock").len()
            + usize::from(self.running.lock().expect("running lock").is_some())
    }

    fn job_state(&self, id: u128) -> Option<JobState> {
        if self.registry.has_result(id) {
            let failed = self
                .registry
                .load_result(id)
                .and_then(|r| r.get("failed").and_then(Value::as_u64))
                .unwrap_or(0);
            return Some(if failed > 0 {
                JobState::Failed
            } else {
                JobState::Done
            });
        }
        if *self.running.lock().expect("running lock") == Some(id) {
            return Some(JobState::Running);
        }
        if self.registry.is_admitted(id) {
            // Queued in memory, or admitted pre-crash and awaiting
            // recovery — either way: it will run.
            return Some(JobState::Queued);
        }
        None
    }
}

/// Runs the daemon until `shutdown` is cancelled (graceful drain) —
/// normally wired to [`crate::signal::watch`].
///
/// # Errors
///
/// Startup failures only (bind, lock, registry). Per-connection and
/// per-job failures are handled in-protocol.
pub fn run_daemon(
    cfg: &DaemonConfig,
    plan: &PlanFn<'_>,
    exec: &ExecFn<'_>,
    shutdown: &CancelToken,
) -> Result<(), String> {
    std::fs::create_dir_all(&cfg.data_dir)
        .map_err(|e| format!("create {}: {e}", cfg.data_dir.display()))?;
    // One daemon per data directory: the registry and queue assume a
    // single writer. Dead holders (SIGKILL) are stolen immediately.
    let lock_path = cfg.data_dir.join("daemon.lock");
    let _lock = crisp_store::acquire(
        &lock_path,
        &LockOptions {
            stale_after: Duration::from_secs(600),
            poll: Duration::from_millis(20),
            wait_timeout: Some(Duration::from_secs(2)),
        },
    )
    .map_err(|e| format!("another daemon owns {}: {e}", cfg.data_dir.display()))?;

    let registry = Registry::open(&cfg.data_dir)?;
    let store_dir = cfg
        .store_dir
        .clone()
        .unwrap_or_else(|| cfg.data_dir.join("store"));
    Store::open(&store_dir).map_err(|e| format!("open store: {e}"))?;

    // Crash recovery: every admitted job without a result re-queues in
    // admission order before the listener opens, so a client polling a
    // pre-crash job id immediately sees it queued.
    let recovered = registry.recover();
    let mut queue = VecDeque::new();
    for rec in &recovered {
        eprintln!(
            "[crisp-serve] recovered incomplete job {} (seq {})",
            key_hex(rec.id),
            rec.seq
        );
        queue.push_back(rec.id);
    }

    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let endpoint = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    std::fs::write(cfg.data_dir.join("endpoint"), &endpoint)
        .map_err(|e| format!("write endpoint file: {e}"))?;
    eprintln!(
        "[crisp-serve] listening on {endpoint} (data {})",
        cfg.data_dir.display()
    );

    let state = State {
        admission: Mutex::new(registry.next_seq()),
        registry,
        queue: Mutex::new(queue),
        running: Mutex::new(None),
        admitted_total: AtomicUsize::new(recovered.len()),
        rejected_busy: AtomicUsize::new(0),
        connections: AtomicUsize::new(0),
        worker_parked: AtomicBool::new(false),
        started: Instant::now(),
        store_dir,
        store_hits_total: AtomicUsize::new(0),
        store_misses_total: AtomicUsize::new(0),
        submitted_ns: Mutex::new(HashMap::new()),
        metrics: DaemonMetrics::new(),
    };

    std::thread::scope(|scope| {
        scope.spawn(|| worker_loop(&state, exec, shutdown));
        loop {
            let draining = shutdown.is_cancelled();
            if draining && state.worker_parked.load(Ordering::SeqCst) {
                // Drain complete: admission stopped, the executor has
                // parked (in-flight work finished or aborted, unrecorded).
                return;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if state.connections.load(Ordering::SeqCst) >= cfg.max_connections {
                        refuse_connection(stream, cfg);
                        continue;
                    }
                    state.connections.fetch_add(1, Ordering::SeqCst);
                    let state = &state;
                    scope.spawn(move || {
                        handle_connection(stream, cfg, state, plan, shutdown);
                        state.connections.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    eprintln!("[crisp-serve] accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    });
    eprintln!("[crisp-serve] drained cleanly");
    Ok(())
}

/// Serial job executor: pops admitted jobs in order and runs their
/// sweeps. One job at a time keeps the sweep's worker threads (`--jobs`)
/// the only parallelism knob and makes per-job manifests race-free.
fn worker_loop(state: &State, exec: &ExecFn<'_>, shutdown: &CancelToken) {
    loop {
        // Mark the job running under the queue lock, so the admission
        // depth (queued + running) never misses it between the two.
        let next = {
            let mut queue = state.queue.lock().expect("queue lock");
            let next = queue.pop_front();
            if next.is_some() {
                *state.running.lock().expect("running lock") = next;
            }
            next
        };
        let Some(id) = next else {
            if shutdown.is_cancelled() {
                state.worker_parked.store(true, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        let Some(record) = state.registry.load(id) else {
            eprintln!("[crisp-serve] job {} vanished from registry", key_hex(id));
            *state.running.lock().expect("running lock") = None;
            continue;
        };
        let manifest = state.registry.manifest_path(id);
        // Span bookkeeping: the root `job` span covers submit→result,
        // `queue` covers submit→dequeue, `execute` covers this run of
        // the executor. The execute span id is salted with the dequeue
        // time so a resumed job gets a distinct second execute span.
        let trace = key_hex(id);
        let spans = state.registry.spans_path(id);
        let submitted = state.submitted_ns.lock().expect("spans lock").remove(&id);
        let dequeued_ns = spanlog::unix_ns();
        let root_span = spanlog::span_id(&trace, "job");
        if let Some(start_ns) = submitted {
            let _ = spanlog::append_span(
                &spans,
                &trace,
                &SpanRec {
                    span: spanlog::span_id(&trace, "queue"),
                    parent: root_span,
                    name: "queue".to_string(),
                    proc: "daemon".to_string(),
                    start_ns,
                    end_ns: dequeued_ns,
                },
            );
        }
        let exec_span = spanlog::span_id(&trace, &format!("execute@{dequeued_ns}"));
        let ctx = ExecCtx {
            resume: manifest.is_file(),
            manifest,
            store: state.store_dir.clone(),
            stop: shutdown.clone(),
            trace: trace.clone(),
            spans: spans.clone(),
            span_parent: exec_span,
        };
        let exec_started = Instant::now();
        let result = exec(&record, &ctx);
        *state.running.lock().expect("running lock") = None;
        state
            .metrics
            .job_seconds
            .observe(exec_started.elapsed().as_secs_f64());
        let finished_ns = spanlog::unix_ns();
        let _ = spanlog::append_span(
            &spans,
            &trace,
            &SpanRec {
                span: exec_span,
                parent: root_span,
                name: "execute".to_string(),
                proc: "daemon".to_string(),
                start_ns: dequeued_ns,
                end_ns: finished_ns,
            },
        );
        let job_done = !matches!(&result, Ok(res) if res.interrupted);
        if job_done {
            let _ = spanlog::append_span(
                &spans,
                &trace,
                &SpanRec {
                    span: root_span,
                    parent: 0,
                    name: "job".to_string(),
                    proc: "daemon".to_string(),
                    start_ns: submitted.unwrap_or(dequeued_ns),
                    end_ns: finished_ns,
                },
            );
        }
        match result {
            Ok(res) if res.interrupted => {
                // Drained mid-job: leave it admitted-without-result so
                // the next start recovers and resumes it.
                eprintln!(
                    "[crisp-serve] job {} interrupted by drain; will resume on restart",
                    key_hex(id)
                );
            }
            Ok(res) => {
                for p in &res.prefetch {
                    state
                        .metrics
                        .prefetch_issued_total
                        .with(&p.name)
                        .add(p.issued);
                    state
                        .metrics
                        .prefetch_useful_total
                        .with(&p.name)
                        .add(p.useful);
                    state.metrics.prefetch_late_total.with(&p.name).add(p.late);
                }
                state
                    .store_hits_total
                    .fetch_add(res.store_hits, Ordering::SeqCst);
                state
                    .store_misses_total
                    .fetch_add(res.store_computed, Ordering::SeqCst);
                let state_name = if res.failed > 0 {
                    JobState::Failed
                } else {
                    JobState::Done
                };
                let doc = Value::Obj(vec![
                    ("id".to_string(), Value::Str(key_hex(id))),
                    ("state".to_string(), Value::Str(state_name.name().into())),
                    ("completed".to_string(), Value::Num(res.completed as f64)),
                    ("failed".to_string(), Value::Num(res.failed as f64)),
                    ("store_hits".to_string(), Value::Num(res.store_hits as f64)),
                    (
                        "store_computed".to_string(),
                        Value::Num(res.store_computed as f64),
                    ),
                    ("rendered".to_string(), Value::Str(res.rendered)),
                ]);
                if let Err(e) = state.registry.write_result(id, &doc) {
                    eprintln!(
                        "[crisp-serve] job {}: result write failed: {e}",
                        key_hex(id)
                    );
                }
            }
            Err(e) => {
                // Executor-level failure (supervisor error): record it
                // as a failed result so clients stop polling.
                let doc = Value::Obj(vec![
                    ("id".to_string(), Value::Str(key_hex(id))),
                    (
                        "state".to_string(),
                        Value::Str(JobState::Failed.name().into()),
                    ),
                    ("completed".to_string(), Value::Num(0.0)),
                    ("failed".to_string(), Value::Num(record.cells.len() as f64)),
                    ("error".to_string(), Value::Str(e.clone())),
                    ("rendered".to_string(), Value::Str(String::new())),
                ]);
                eprintln!("[crisp-serve] job {} failed: {e}", key_hex(id));
                if let Err(we) = state.registry.write_result(id, &doc) {
                    eprintln!(
                        "[crisp-serve] job {}: result write failed: {we}",
                        key_hex(id)
                    );
                }
            }
        }
    }
}

/// Over the connection cap: refuse without reading the request (the
/// cheapest possible rejection; the client's backoff handles it).
fn refuse_connection(mut stream: TcpStream, cfg: &DaemonConfig) {
    let _ = stream.set_write_timeout(Some(cfg.io_timeout));
    let _ = write_response(
        &mut stream,
        503,
        "Service Unavailable",
        &[format!("Retry-After: {}", cfg.retry_after.as_secs().max(1))],
        &error_body("too many connections", "retry after backoff"),
    );
}

fn handle_connection(
    mut stream: TcpStream,
    cfg: &DaemonConfig,
    state: &State,
    plan: &PlanFn<'_>,
    shutdown: &CancelToken,
) {
    let _ = stream.set_read_timeout(Some(cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(cfg.io_timeout));
    let request = match read_request(&mut stream, &cfg.limits) {
        Ok(req) => req,
        Err(e) => {
            let _ = write_response(
                &mut stream,
                e.status(),
                reason(e.status()),
                &[],
                &error_body("bad request", &e.message()),
            );
            return;
        }
    };
    state.metrics.http_requests_total.inc();
    // The events stream is chunked and long-lived; it cannot go through
    // the buffered (status, headers, body) route below — and its
    // lifetime is the job's, so it is counted but not latency-observed.
    if request.method == "GET" {
        if let Some((id, from)) = parse_events_path(&request.path) {
            stream_events(&mut stream, state, id, from, shutdown);
            return;
        }
    }
    let served = Instant::now();
    let (status, headers, body) = route(&request, cfg, state, plan, shutdown);
    let _ = write_response(&mut stream, status, reason(status), &headers, &body);
    state
        .metrics
        .http_request_seconds
        .observe(served.elapsed().as_secs_f64());
}

/// Matches `GET /jobs/<32-hex>/events[?from=N]` → `(id, line offset)`.
fn parse_events_path(path: &str) -> Option<(u128, usize)> {
    let rest = path.strip_prefix("/jobs/")?;
    let (rest, query) = match rest.split_once('?') {
        Some((r, q)) => (r, Some(q)),
        None => (rest, None),
    };
    let id_hex = rest.strip_suffix("/events")?;
    let id = u128::from_str_radix(id_hex, 16).ok()?;
    let from = query
        .and_then(|q| q.split('&').find_map(|kv| kv.strip_prefix("from=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    Some((id, from))
}

/// `GET /jobs/<id>/events?from=N`: chunked NDJSON of the job's live
/// event file, starting at line `N` (the reconnect cursor). While the
/// job is unfinished the stream idles on keepalive chunks
/// (`{"event":"keepalive"}` — not part of the file, so clients must not
/// count them toward `from`); it terminates once the job has a result
/// and every event line has been sent.
fn stream_events(
    stream: &mut TcpStream,
    state: &State,
    id: u128,
    from: usize,
    shutdown: &CancelToken,
) {
    if state.job_state(id).is_none() {
        let _ = write_response(
            stream,
            404,
            reason(404),
            &[],
            &error_body("unknown job", &key_hex(id)),
        );
        return;
    }
    if write_chunked_head(stream, 200, reason(200), "application/x-ndjson").is_err() {
        return;
    }
    let path = state.registry.events_path(id);
    let mut offset: u64 = 0; // bytes of complete lines consumed
    let mut skipped = 0usize; // lines dropped to honor ?from
    let mut last_sent = Instant::now();
    loop {
        let mut sent_any = false;
        if let Ok(mut file) = std::fs::File::open(&path) {
            let mut buf = Vec::new();
            if file.seek(SeekFrom::Start(offset)).is_ok()
                && file.read_to_end(&mut buf).is_ok()
                && !buf.is_empty()
            {
                // Consume only complete lines: a torn tail (the writer
                // mid-append) stays for the next poll.
                if let Some(last_nl) = buf.iter().rposition(|&b| b == b'\n') {
                    let complete = &buf[..=last_nl];
                    offset += complete.len() as u64;
                    for line in complete.split(|&b| b == b'\n') {
                        if line.is_empty() {
                            continue;
                        }
                        if skipped < from {
                            skipped += 1;
                            continue;
                        }
                        let mut chunk = line.to_vec();
                        chunk.push(b'\n');
                        if write_chunk(stream, &chunk).is_err() {
                            return; // client gone
                        }
                        sent_any = true;
                    }
                }
            }
        }
        if sent_any {
            last_sent = Instant::now();
            continue;
        }
        // Quiescent: finished jobs end the stream, live ones keepalive.
        if state.registry.has_result(id) || shutdown.is_cancelled() {
            break;
        }
        if last_sent.elapsed() >= Duration::from_secs(2) {
            if write_chunk(stream, b"{\"event\":\"keepalive\"}\n").is_err() {
                return;
            }
            last_sent = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let _ = write_chunk_end(stream);
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Dispatches one request to `(status, extra headers, body)`.
fn route(
    req: &Request,
    cfg: &DaemonConfig,
    state: &State,
    plan: &PlanFn<'_>,
    shutdown: &CancelToken,
) -> (u16, Vec<String>, String) {
    let draining = shutdown.is_cancelled();
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (
            200,
            vec![],
            Value::Obj(vec![("ok".to_string(), Value::Bool(true))]).encode(),
        ),
        ("GET", "/readyz") => {
            let full = state.queue_depth() >= cfg.queue_cap;
            if draining || full {
                let why = if draining { "draining" } else { "queue full" };
                (
                    503,
                    vec![retry_after_header(cfg)],
                    error_body("not ready", why),
                )
            } else {
                (
                    200,
                    vec![],
                    Value::Obj(vec![("ready".to_string(), Value::Bool(true))]).encode(),
                )
            }
        }
        ("GET", "/stats") => (200, vec![], stats_doc(cfg, state, draining).encode()),
        ("GET", "/metrics") => (
            200,
            vec!["Content-Type: text/plain; version=0.0.4".to_string()],
            state.metrics.render(&stats_doc(cfg, state, draining)),
        ),
        ("POST", "/jobs") => submit(req, cfg, state, plan, draining),
        ("GET", path) => job_routes(path, state),
        _ => (405, vec![], error_body("method not allowed", &req.method)),
    }
}

fn retry_after_header(cfg: &DaemonConfig) -> String {
    format!("Retry-After: {}", cfg.retry_after.as_secs().max(1))
}

/// The `/stats` document, also the source of `/metrics`' scalar
/// families.
fn stats_doc(cfg: &DaemonConfig, state: &State, draining: bool) -> Value {
    let (admitted, finished) = state.registry.counts();
    let uptime = state.started.elapsed();
    let mut pairs = vec![
        (
            "queue_depth".to_string(),
            Value::Num(state.queue_depth() as f64),
        ),
        ("queue_cap".to_string(), Value::Num(cfg.queue_cap as f64)),
        ("jobs_admitted".to_string(), Value::Num(admitted as f64)),
        ("jobs_finished".to_string(), Value::Num(finished as f64)),
        (
            "admitted_total".to_string(),
            Value::Num(state.admitted_total.load(Ordering::SeqCst) as f64),
        ),
        (
            "rejected_busy".to_string(),
            Value::Num(state.rejected_busy.load(Ordering::SeqCst) as f64),
        ),
        (
            "connections".to_string(),
            Value::Num(state.connections.load(Ordering::SeqCst) as f64),
        ),
        ("draining".to_string(), Value::Bool(draining)),
        (
            "uptime_ms".to_string(),
            Value::Num(uptime.as_millis() as f64),
        ),
        (
            "uptime_seconds".to_string(),
            Value::Num(uptime.as_secs_f64()),
        ),
        (
            "store_hits_total".to_string(),
            Value::Num(state.store_hits_total.load(Ordering::SeqCst) as f64),
        ),
        (
            "store_misses_total".to_string(),
            Value::Num(state.store_misses_total.load(Ordering::SeqCst) as f64),
        ),
    ];
    if let Ok(store) = Store::open(&state.store_dir) {
        if let Ok(s) = store.stats() {
            pairs.push(("store_entries".to_string(), Value::Num(s.entries as f64)));
            pairs.push(("store_bytes".to_string(), Value::Num(s.bytes as f64)));
            pairs.push(("store_hits".to_string(), Value::Num(s.hits as f64)));
            pairs.push((
                "store_quarantined".to_string(),
                Value::Num(s.quarantined as f64),
            ));
        }
    }
    Value::Obj(pairs)
}

/// `POST /jobs`: validate → coalesce → admit (bounded) → 202. Coalesce
/// and admit run as one critical section under `State::admission`, so
/// concurrent submissions see each other: identical ones coalesce onto
/// one job, and distinct ones never push the queue past its cap.
fn submit(
    req: &Request,
    cfg: &DaemonConfig,
    state: &State,
    plan: &PlanFn<'_>,
    draining: bool,
) -> (u16, Vec<String>, String) {
    if draining {
        return (
            503,
            vec![retry_after_header(cfg)],
            error_body(
                "draining",
                "daemon is shutting down; resubmit after restart",
            ),
        );
    }
    let submission = match SubmitRequest::parse(&req.body, cfg.limits.max_body_bytes) {
        Ok(s) => s,
        Err(e) => return (400, vec![], error_body("invalid submission", &e)),
    };
    let planned = match plan(&submission) {
        Ok(p) => p,
        Err(e) => return (400, vec![], error_body("invalid submission", &e)),
    };
    if planned.cells.is_empty() {
        return (
            400,
            vec![],
            error_body("invalid submission", "plan contains no cells"),
        );
    }
    let id = job_id(&planned.spec, &planned.cells);

    let mut next_seq = state.admission.lock().expect("admission lock");
    // Idempotent coalescing: an already-known id maps onto the existing
    // job in whatever state it is, with no second execution.
    if let Some(existing) = state.job_state(id) {
        drop(next_seq);
        let status = match existing {
            JobState::Done | JobState::Failed => 200,
            _ => 202,
        };
        return (
            status,
            vec![],
            submit_body(id, existing, &planned, state, true),
        );
    }

    // Admission control: bounded queue, refuse before any disk write.
    let depth = state.queue_depth();
    if depth >= cfg.queue_cap {
        state.rejected_busy.fetch_add(1, Ordering::SeqCst);
        return (
            429,
            vec![retry_after_header(cfg)],
            error_body(
                "queue full",
                &format!("{depth} jobs pending (cap {}); retry later", cfg.queue_cap),
            ),
        );
    }
    let record = JobRecord {
        id,
        seq: *next_seq,
        request: planned.request.clone(),
        spec: planned.spec.clone(),
        cells: planned.cells.clone(),
    };
    // Durability before acknowledgement: persist, then enqueue, then 202.
    if let Err(e) = state.registry.persist(&record) {
        return (500, vec![], error_body("admission failed", &e));
    }
    *next_seq += 1;
    state
        .submitted_ns
        .lock()
        .expect("submitted lock")
        .insert(id, spanlog::unix_ns());
    state.queue.lock().expect("queue lock").push_back(id);
    state.admitted_total.fetch_add(1, Ordering::SeqCst);
    drop(next_seq);
    (
        202,
        vec![],
        submit_body(id, JobState::Queued, &planned, state, false),
    )
}

fn submit_body(
    id: u128,
    job_state: JobState,
    planned: &JobPlan,
    state: &State,
    coalesced: bool,
) -> String {
    // Warm-cell count: a cheap existence probe per cell (lookup-grade
    // verification happens when the sweep actually serves them).
    let warm = Store::open(&state.store_dir)
        .map(|store| planned.cells.iter().filter(|&&k| store.contains(k)).count())
        .unwrap_or(0);
    Value::Obj(vec![
        ("id".to_string(), Value::Str(key_hex(id))),
        ("state".to_string(), Value::Str(job_state.name().into())),
        ("cells".to_string(), Value::Num(planned.cells.len() as f64)),
        ("warm_cells".to_string(), Value::Num(warm as f64)),
        ("coalesced".to_string(), Value::Bool(coalesced)),
    ])
    .encode()
}

/// `GET /jobs/<id>` and `GET /jobs/<id>/result`.
fn job_routes(path: &str, state: &State) -> (u16, Vec<String>, String) {
    let Some(rest) = path.strip_prefix("/jobs/") else {
        return (404, vec![], error_body("not found", path));
    };
    let (id_hex, want_result) = match rest.strip_suffix("/result") {
        Some(prefix) => (prefix, true),
        None => (rest, false),
    };
    let Ok(id) = u128::from_str_radix(id_hex, 16) else {
        return (400, vec![], error_body("bad job id", id_hex));
    };
    let Some(job_state) = state.job_state(id) else {
        return (404, vec![], error_body("unknown job", id_hex));
    };
    if want_result {
        return match job_state {
            JobState::Done | JobState::Failed => {
                let doc = state
                    .registry
                    .load_result(id)
                    .unwrap_or_else(|| Value::Obj(vec![]));
                (200, vec![], doc.encode())
            }
            _ => (
                202,
                vec![],
                Value::Obj(vec![
                    ("id".to_string(), Value::Str(key_hex(id))),
                    ("state".to_string(), Value::Str(job_state.name().into())),
                ])
                .encode(),
            ),
        };
    }
    // Status: include manifest-derived progress while running.
    let mut pairs = vec![
        ("id".to_string(), Value::Str(key_hex(id))),
        ("state".to_string(), Value::Str(job_state.name().into())),
    ];
    if let Some(record) = state.registry.load(id) {
        pairs.push(("cells".to_string(), Value::Num(record.cells.len() as f64)));
    }
    if job_state == JobState::Running {
        if let Ok(m) = load_manifest(&state.registry.manifest_path(id)) {
            pairs.push((
                "cells_completed".to_string(),
                Value::Num(m.completed.len() as f64),
            ));
        }
    }
    (200, vec![], Value::Obj(pairs).encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicU32;

    /// A toy planner: each target is one cell keyed by its name.
    fn toy_plan(req: &SubmitRequest) -> Result<JobPlan, String> {
        if req.scale != "tiny" {
            return Err(format!("unknown scale `{}`", req.scale));
        }
        if req.targets.iter().any(|t| t == "bogus") {
            return Err("unknown target `bogus`".to_string());
        }
        let mut targets = req.targets.clone();
        targets.sort();
        targets.dedup();
        Ok(JobPlan {
            spec: format!("toy targets=[{}]", targets.join(",")),
            cells: targets.iter().map(|t| fnv1a128(t.as_bytes())).collect(),
            request: SubmitRequest {
                targets,
                workloads: None,
                scale: req.scale.clone(),
                prefetcher: None,
            },
        })
    }

    struct Daemon {
        addr: String,
        shutdown: CancelToken,
        handle: Option<std::thread::JoinHandle<Result<(), String>>>,
    }

    impl Daemon {
        fn spawn(dir: &std::path::Path, queue_cap: usize, exec_delay: Duration) -> Daemon {
            Daemon::spawn_with_drain_lag(dir, queue_cap, exec_delay, Duration::ZERO)
        }

        /// Spawns a daemon with a caller-supplied executor closure, for
        /// tests that need job side effects (event files, spans).
        fn spawn_custom<F>(dir: &std::path::Path, queue_cap: usize, exec: F) -> Daemon
        where
            F: Fn(&JobRecord, &ExecCtx) -> Result<ExecResult, String> + Send + Sync + 'static,
        {
            let endpoint_file = dir.join("endpoint");
            std::fs::remove_file(&endpoint_file).ok();
            let shutdown = CancelToken::new();
            let cfg = DaemonConfig {
                data_dir: dir.to_path_buf(),
                queue_cap,
                ..DaemonConfig::default()
            };
            let token = shutdown.clone();
            let handle = std::thread::spawn(move || run_daemon(&cfg, &toy_plan, &exec, &token));
            Daemon {
                addr: wait_endpoint(&endpoint_file),
                shutdown,
                handle: Some(handle),
            }
        }

        /// `drain_lag` models the time in-flight work takes to abort: how
        /// long the toy executor keeps running after noticing the stop
        /// token. Tests that probe draining behaviour need a non-zero
        /// window.
        fn spawn_with_drain_lag(
            dir: &std::path::Path,
            queue_cap: usize,
            exec_delay: Duration,
            drain_lag: Duration,
        ) -> Daemon {
            // A restart over the same data dir would otherwise race
            // against the stale endpoint file of the previous daemon.
            let endpoint_file = dir.join("endpoint");
            std::fs::remove_file(&endpoint_file).ok();
            let shutdown = CancelToken::new();
            let cfg = DaemonConfig {
                data_dir: dir.to_path_buf(),
                queue_cap,
                ..DaemonConfig::default()
            };
            let token = shutdown.clone();
            let handle = std::thread::spawn(move || {
                let exec_calls = AtomicU32::new(0);
                run_daemon(
                    &cfg,
                    &toy_plan,
                    &move |record: &JobRecord, ctx: &ExecCtx| {
                        exec_calls.fetch_add(1, Ordering::SeqCst);
                        let until = Instant::now() + exec_delay;
                        while Instant::now() < until {
                            if ctx.stop.is_cancelled() {
                                std::thread::sleep(drain_lag);
                                return Ok(ExecResult {
                                    interrupted: true,
                                    ..ExecResult::default()
                                });
                            }
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Ok(ExecResult {
                            rendered: format!("table for {}", key_hex(record.id)),
                            completed: record.cells.len(),
                            ..ExecResult::default()
                        })
                    },
                    &token,
                )
            });
            Daemon {
                addr: wait_endpoint(&endpoint_file),
                shutdown,
                handle: Some(handle),
            }
        }

        fn request(&self, raw: &str) -> (u16, String) {
            let mut stream = TcpStream::connect(&self.addr).expect("connect");
            stream.write_all(raw.as_bytes()).unwrap();
            let mut response = Vec::new();
            stream.read_to_end(&mut response).unwrap();
            let (status, _retry, body) = crate::http::read_response(&mut &response[..]).unwrap();
            (status, String::from_utf8_lossy(&body).into_owned())
        }

        fn post_jobs(&self, body: &str) -> (u16, String) {
            self.request(&format!(
                "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ))
        }

        fn get(&self, path: &str) -> (u16, String) {
            self.request(&format!("GET {path} HTTP/1.1\r\n\r\n"))
        }

        fn drain(mut self) {
            self.shutdown.cancel();
            let result = self.handle.take().unwrap().join().expect("daemon thread");
            assert_eq!(result, Ok(()), "drain must exit cleanly");
        }
    }

    impl Drop for Daemon {
        fn drop(&mut self) {
            self.shutdown.cancel();
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
        }
    }

    fn wait_endpoint(endpoint_file: &std::path::Path) -> String {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(s) = std::fs::read_to_string(endpoint_file) {
                if !s.is_empty() {
                    return s;
                }
            }
            assert!(
                Instant::now() < deadline,
                "daemon never published its endpoint"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crisp-serve-daemon-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn wait_for_state(d: &Daemon, id: &str, want: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (status, body) = d.get(&format!("/jobs/{id}"));
            assert_eq!(status, 200, "{body}");
            if body.contains(&format!("\"state\":\"{want}\"")) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "job {id} never reached {want}: {body}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn extract_id(body: &str) -> String {
        let v = crisp_obs::json::parse(body).unwrap();
        v.get("id").unwrap().as_str().unwrap().to_string()
    }

    #[test]
    fn submit_poll_result_happy_path() {
        let dir = temp_dir("happy");
        let d = Daemon::spawn(&dir, 4, Duration::ZERO);
        let (status, body) = d.get("/healthz");
        assert_eq!((status, body.contains("true")), (200, true), "{body}");
        assert_eq!(d.get("/readyz").0, 200);

        let (status, body) = d.post_jobs("{\"targets\":[\"fig1\"],\"scale\":\"tiny\"}");
        assert_eq!(status, 202, "{body}");
        assert!(body.contains("\"cells\":1"), "{body}");
        let id = extract_id(&body);
        wait_for_state(&d, &id, "done");

        let (status, body) = d.get(&format!("/jobs/{id}/result"));
        assert_eq!(status, 200);
        assert!(body.contains("table for"), "{body}");

        let (status, body) = d.get("/stats");
        assert_eq!(status, 200);
        assert!(body.contains("\"jobs_finished\":1"), "{body}");
        d.drain();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_and_unknown_requests_get_4xx() {
        let dir = temp_dir("errors");
        let d = Daemon::spawn(&dir, 4, Duration::ZERO);
        assert_eq!(d.post_jobs("not json").0, 400);
        assert_eq!(d.post_jobs("{\"targets\":[],\"scale\":\"tiny\"}").0, 400);
        assert_eq!(
            d.post_jobs("{\"targets\":[\"bogus\"],\"scale\":\"tiny\"}")
                .0,
            400
        );
        assert_eq!(
            d.post_jobs("{\"targets\":[\"fig1\"],\"scale\":\"galactic\"}")
                .0,
            400
        );
        assert_eq!(d.get("/jobs/zzzz").0, 400);
        assert_eq!(d.get(&format!("/jobs/{}", key_hex(7))).0, 404);
        assert_eq!(d.get("/nope").0, 404);
        assert_eq!(d.request("DELETE /jobs HTTP/1.1\r\n\r\n").0, 405);
        assert_eq!(d.request("garbage\r\n\r\n").0, 400);
        d.drain();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_submissions_coalesce_onto_one_job() {
        let dir = temp_dir("idempotent");
        let d = Daemon::spawn(&dir, 4, Duration::from_millis(100));
        let (s1, b1) = d.post_jobs("{\"targets\":[\"fig1\",\"fig2\"],\"scale\":\"tiny\"}");
        assert_eq!(s1, 202, "{b1}");
        // Same work, different order: same id, no second execution.
        let (s2, b2) = d.post_jobs("{\"targets\":[\"fig2\",\"fig1\"],\"scale\":\"tiny\"}");
        assert!(s2 == 200 || s2 == 202, "{s2} {b2}");
        assert_eq!(extract_id(&b1), extract_id(&b2));
        assert!(b2.contains("\"coalesced\":true"), "{b2}");
        let id = extract_id(&b1);
        wait_for_state(&d, &id, "done");
        // Resubmitting a finished job returns 200 immediately.
        let (s3, b3) = d.post_jobs("{\"targets\":[\"fig1\",\"fig2\"],\"scale\":\"tiny\"}");
        assert_eq!(s3, 200, "{b3}");
        let (_, stats) = d.get("/stats");
        assert!(stats.contains("\"admitted_total\":1"), "{stats}");
        d.drain();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// POSTs every body at once: each client connects, then all send
    /// together. Returns `(status, body)` in submission order.
    fn post_concurrently(d: &Daemon, bodies: &[String]) -> Vec<(u16, String)> {
        let barrier = std::sync::Barrier::new(bodies.len());
        std::thread::scope(|scope| {
            let clients: Vec<_> = bodies
                .iter()
                .map(|body| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut stream = TcpStream::connect(&d.addr).expect("connect");
                        barrier.wait();
                        write!(
                            stream,
                            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                            body.len()
                        )
                        .unwrap();
                        let mut raw = Vec::new();
                        stream.read_to_end(&mut raw).unwrap();
                        let (status, _, resp) = crate::http::read_response(&mut &raw[..]).unwrap();
                        (status, String::from_utf8_lossy(&resp).into_owned())
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().unwrap()).collect()
        })
    }

    #[test]
    fn concurrent_distinct_submissions_admit_exactly_the_cap_in_sequence() {
        let dir = temp_dir("admission-distinct");
        // The first job runs for the whole burst, so nothing frees a slot.
        let d = Daemon::spawn(&dir, 2, Duration::from_secs(30));
        let bodies: Vec<String> = (0..8)
            .map(|i| format!("{{\"targets\":[\"t{i}\"],\"scale\":\"tiny\"}}"))
            .collect();
        let responses = post_concurrently(&d, &bodies);
        let admitted: Vec<&String> = responses
            .iter()
            .filter(|(status, _)| *status == 202)
            .map(|(_, body)| body)
            .collect();
        let refused = responses
            .iter()
            .filter(|(status, _)| *status == 429)
            .count();
        assert_eq!((admitted.len(), refused), (2, 6), "{responses:?}");
        let registry = Registry::open(&dir).unwrap();
        let mut seqs: Vec<u64> = admitted
            .iter()
            .map(|body| {
                let id = u128::from_str_radix(&extract_id(body), 16).unwrap();
                registry.load(id).expect("admitted job persisted").seq
            })
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, [0, 1], "admission sequence numbers");
        let (_, stats) = d.get("/stats");
        assert!(stats.contains("\"rejected_busy\":6"), "{stats}");
        d.drain();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_identical_submissions_coalesce_onto_one_execution() {
        let dir = temp_dir("admission-identical");
        let d = Daemon::spawn_custom(&dir, 2, |record: &JobRecord, ctx: &ExecCtx| {
            std::thread::sleep(Duration::from_millis(100));
            Ok(ExecResult {
                rendered: format!("table for {}", ctx.trace),
                completed: record.cells.len(),
                ..ExecResult::default()
            })
        });
        let body = "{\"targets\":[\"fig1\"],\"scale\":\"tiny\"}".to_string();
        let responses = post_concurrently(&d, &vec![body; 8]);
        for (status, body) in &responses {
            assert!(*status == 200 || *status == 202, "{responses:?}");
            assert_eq!(extract_id(body), extract_id(&responses[0].1));
        }
        let fresh = responses
            .iter()
            .filter(|(_, body)| body.contains("\"coalesced\":false"))
            .count();
        assert_eq!(fresh, 1, "one admission, the rest coalesced: {responses:?}");
        let id = extract_id(&responses[0].1);
        wait_for_state(&d, &id, "done");
        let (_, stats) = d.get("/stats");
        assert!(stats.contains("\"admitted_total\":1"), "{stats}");
        d.drain();
        let registry = Registry::open(&dir).unwrap();
        let text =
            std::fs::read_to_string(registry.spans_path(u128::from_str_radix(&id, 16).unwrap()))
                .expect("spans.jsonl written");
        let executions = crisp_harness::load_spans(&text)
            .iter()
            .filter(|s| s.name == "execute")
            .count();
        assert_eq!(executions, 1, "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_queue_returns_429_with_retry_after_and_loses_nothing() {
        let dir = temp_dir("backpressure");
        let d = Daemon::spawn(&dir, 2, Duration::from_millis(120));
        let (s1, b1) = d.post_jobs("{\"targets\":[\"a\"],\"scale\":\"tiny\"}");
        let (s2, b2) = d.post_jobs("{\"targets\":[\"b\"],\"scale\":\"tiny\"}");
        assert_eq!((s1, s2), (202, 202), "{b1} {b2}");
        // Queue (cap 2) holds a running + a queued job: the third unique
        // submission must be refused with backpressure.
        let mut stream = TcpStream::connect(&d.addr).unwrap();
        let body = "{\"targets\":[\"c\"],\"scale\":\"tiny\"}";
        write!(
            stream,
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let (status, retry_after, resp) = crate::http::read_response(&mut &raw[..]).unwrap();
        assert_eq!(status, 429, "{}", String::from_utf8_lossy(&resp));
        assert!(retry_after.unwrap_or(0) >= 1, "429 must carry Retry-After");
        assert_eq!(d.get("/readyz").0, 503, "full queue is not ready");

        // The refused job was never admitted; the two admitted jobs both
        // finish (nothing lost, nothing duplicated).
        let (ida, idb) = (extract_id(&b1), extract_id(&b2));
        wait_for_state(&d, &ida, "done");
        wait_for_state(&d, &idb, "done");
        let (_, stats) = d.get("/stats");
        assert!(stats.contains("\"rejected_busy\":1"), "{stats}");
        assert!(stats.contains("\"jobs_finished\":2"), "{stats}");
        d.drain();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_interrupts_the_running_job_and_restart_recovers_it() {
        let dir = temp_dir("drain-recover");
        let d = Daemon::spawn_with_drain_lag(
            &dir,
            4,
            Duration::from_millis(400),
            Duration::from_millis(300),
        );
        let (status, body) = d.post_jobs("{\"targets\":[\"slow\"],\"scale\":\"tiny\"}");
        assert_eq!(status, 202, "{body}");
        let id = extract_id(&body);
        wait_for_state(&d, &id, "running");
        // Drain while the job is mid-execution: POSTs are refused, the
        // executor aborts cooperatively, and the daemon exits 0.
        d.shutdown.cancel();
        std::thread::sleep(Duration::from_millis(10));
        let (status, _) = d.post_jobs("{\"targets\":[\"other\"],\"scale\":\"tiny\"}");
        assert_eq!(status, 503, "draining daemon must refuse admissions");
        d.drain();

        // Restart over the same data dir: the interrupted job recovers,
        // resumes, and finishes under the same id.
        let d2 = Daemon::spawn(&dir, 4, Duration::ZERO);
        wait_for_state(&d2, &id, "done");
        d2.drain();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Extracts one sample value from exposition text by metric name.
    fn metric_value(text: &str, name: &str) -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("no sample for {name} in:\n{text}"))
            .parse()
            .unwrap()
    }

    #[test]
    fn metrics_agree_with_stats_and_render_valid_exposition() {
        let dir = temp_dir("metrics");
        let d = Daemon::spawn_custom(&dir, 4, |record: &JobRecord, _ctx: &ExecCtx| {
            Ok(ExecResult {
                rendered: "t".into(),
                completed: record.cells.len(),
                store_hits: 2,
                store_computed: 3,
                prefetch: vec![
                    PrefetchTotals {
                        name: "spp".into(),
                        issued: 100,
                        useful: 40,
                        late: 5,
                    },
                    PrefetchTotals {
                        name: "ghbw".into(),
                        issued: 10,
                        useful: 1,
                        late: 0,
                    },
                ],
                ..ExecResult::default()
            })
        });
        let (status, body) = d.post_jobs("{\"targets\":[\"fig1\"],\"scale\":\"tiny\"}");
        assert_eq!(status, 202, "{body}");
        let id = extract_id(&body);
        wait_for_state(&d, &id, "done");

        let (status, text) = d.get("/metrics");
        assert_eq!(status, 200);
        for line in text.lines() {
            crate::metrics::check_exposition_line(line).unwrap_or_else(|e| panic!("{e}"));
        }
        let (_, stats) = d.get("/stats");
        let stats = crisp_obs::json::parse(&stats).unwrap();
        let stat = |k: &str| stats.get(k).and_then(Value::as_f64).unwrap();
        // The exported families and /stats must tell the same story.
        assert_eq!(metric_value(&text, "crisp_queue_cap"), stat("queue_cap"));
        assert_eq!(
            metric_value(&text, "crisp_jobs_admitted_total"),
            stat("admitted_total")
        );
        assert_eq!(
            metric_value(&text, "crisp_jobs_finished"),
            stat("jobs_finished")
        );
        assert_eq!(
            metric_value(&text, "crisp_store_hits_total"),
            stat("store_hits_total")
        );
        assert_eq!(
            metric_value(&text, "crisp_store_misses_total"),
            stat("store_misses_total")
        );
        assert_eq!(metric_value(&text, "crisp_store_hits_total"), 2.0);
        assert_eq!(metric_value(&text, "crisp_store_misses_total"), 3.0);
        assert!(
            stats.get("uptime_seconds").is_some(),
            "/stats uptime_seconds"
        );
        // Per-prefetcher families carry the executor's totals.
        assert!(
            text.contains("crisp_prefetch_issued_total{prefetcher=\"spp\"} 100"),
            "{text}"
        );
        assert!(
            text.contains("crisp_prefetch_useful_total{prefetcher=\"spp\"} 40"),
            "{text}"
        );
        assert!(
            text.contains("crisp_prefetch_late_total{prefetcher=\"spp\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("crisp_prefetch_issued_total{prefetcher=\"ghbw\"} 10"),
            "{text}"
        );
        assert!(metric_value(&text, "crisp_http_requests_total") >= 1.0);
        assert!(metric_value(&text, "crisp_job_seconds_count") >= 1.0);
        assert!(metric_value(&text, "crisp_uptime_seconds") >= 0.0);
        // A family shows exactly when its /stats key does.
        for &(key, name, _, _) in &STATS_FAMILIES {
            let shown = text.contains(&format!("\n{name} "));
            assert_eq!(shown, stats.get(key).is_some(), "{name}:\n{text}");
        }
        d.drain();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_stats_row_agrees_with_its_metrics_family() {
        let dir = temp_dir("metrics-rows");
        let d = Daemon::spawn_custom(&dir, 4, |record: &JobRecord, _ctx: &ExecCtx| {
            Ok(ExecResult {
                rendered: "t".into(),
                completed: record.cells.len(),
                store_hits: 7,
                store_computed: 8,
                ..ExecResult::default()
            })
        });
        let (status, body) = d.post_jobs("{\"targets\":[\"fig1\"],\"scale\":\"tiny\"}");
        assert_eq!(status, 202, "{body}");
        wait_for_state(&d, &extract_id(&body), "done");

        let parse = |body: String| crisp_obs::json::parse(&body).unwrap();
        let before = parse(d.get("/stats").1);
        let (_, text) = d.get("/metrics");
        let after = parse(d.get("/stats").1);
        let stat = |doc: &Value, key: &str| match doc.get(key) {
            Some(Value::Num(n)) => *n,
            Some(Value::Bool(b)) => f64::from(u8::from(*b)),
            other => panic!("/stats `{key}` is {other:?}"),
        };
        for &(key, name, kind, _) in &STATS_FAMILIES {
            assert!(
                text.contains(&format!("\n# TYPE {name} {kind}\n")),
                "{name} is not a {kind}:\n{text}"
            );
            let (got, want) = (metric_value(&text, name), stat(&after, key));
            match key {
                // Read once per request: the scrape falls between the
                // two /stats reads, and counts its own connection.
                "uptime_seconds" => assert!((stat(&before, key)..=want).contains(&got), "{name}"),
                "connections" => assert!(got >= 1.0, "{name}"),
                _ => assert_eq!((got, stat(&before, key)), (want, want), "{name}"),
            }
        }
        // The families CI greps, with distinct values, so a renamed or
        // crossed row fails here.
        for (name, want) in [
            ("crisp_jobs_admitted_total", 1.0),
            ("crisp_jobs_finished", 1.0),
            ("crisp_store_hits_total", 7.0),
            ("crisp_store_misses_total", 8.0),
        ] {
            assert_eq!(metric_value(&text, name), want, "{name}");
        }
        d.drain();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spans_cover_submit_to_result_across_layers() {
        let dir = temp_dir("spans");
        let d = Daemon::spawn_custom(&dir, 4, |record: &JobRecord, ctx: &ExecCtx| {
            // Stand-in for the supervisor layer: hang a cell span off
            // the daemon's execute span.
            let start = spanlog::unix_ns();
            let rec = SpanRec {
                span: spanlog::span_id(&ctx.trace, "cell toy#1"),
                parent: ctx.span_parent,
                name: "cell toy#1".to_string(),
                proc: "supervisor".to_string(),
                start_ns: start,
                end_ns: start + 1000,
            };
            spanlog::append_span(&ctx.spans, &ctx.trace, &rec).map_err(|e| e.to_string())?;
            Ok(ExecResult {
                rendered: "t".into(),
                completed: record.cells.len(),
                ..ExecResult::default()
            })
        });
        let (status, body) = d.post_jobs("{\"targets\":[\"fig1\"],\"scale\":\"tiny\"}");
        assert_eq!(status, 202, "{body}");
        let id = extract_id(&body);
        wait_for_state(&d, &id, "done");
        d.drain();

        let registry = Registry::open(&dir).unwrap();
        let text =
            std::fs::read_to_string(registry.spans_path(u128::from_str_radix(&id, 16).unwrap()))
                .expect("spans.jsonl written");
        let spans = crisp_harness::load_spans(&text);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        for want in ["job", "queue", "execute", "cell toy#1"] {
            assert!(names.contains(&want), "missing span `{want}`: {names:?}");
        }
        let root = spans.iter().find(|s| s.name == "job").unwrap();
        assert_eq!(root.parent, 0);
        let queue = spans.iter().find(|s| s.name == "queue").unwrap();
        let exec = spans.iter().find(|s| s.name == "execute").unwrap();
        let cell = spans.iter().find(|s| s.name == "cell toy#1").unwrap();
        assert_eq!(queue.parent, root.span);
        assert_eq!(exec.parent, root.span);
        assert_eq!(cell.parent, exec.span);
        // The root covers submit → result.
        assert!(root.start_ns <= queue.start_ns && root.end_ns >= exec.end_ns);
        let rendered = crisp_obs::render_spans(&spans);
        assert!(rendered.contains("job"), "{rendered}");
        assert!(rendered.contains("cell toy#1"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_stream_edge_cases_from_cursor_and_reconnect() {
        use crate::client::{Client, ClientConfig};
        let dir = temp_dir("events-edge");
        let d = Daemon::spawn_custom(&dir, 4, |record: &JobRecord, ctx: &ExecCtx| {
            let events = ctx.manifest.with_file_name("events.jsonl");
            let lines: String = (0..3)
                .map(|i| format!("{{\"event\":\"cell-done\",\"seq\":{i}}}\n"))
                .collect();
            std::fs::write(events, lines).map_err(|e| e.to_string())?;
            Ok(ExecResult {
                rendered: "t".into(),
                completed: record.cells.len(),
                ..ExecResult::default()
            })
        });
        let (status, body) = d.post_jobs("{\"targets\":[\"fig1\"],\"scale\":\"tiny\"}");
        assert_eq!(status, 202, "{body}");
        let id = extract_id(&body);
        wait_for_state(&d, &id, "done");
        let client = Client::new(ClientConfig {
            addr: d.addr.clone(),
            timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        });

        // A cursor beyond the end of a finished job's stream delivers
        // nothing and still terminates cleanly.
        let (delivered, ended) = client.follow(&id, 999, &mut |_| {}).unwrap();
        assert_eq!((delivered, ended), (0, true), "?from beyond end");

        // A mid-stream disconnect (client drops after the response
        // head) loses nothing: reconnecting with the line cursor
        // resumes exactly after the last consumed line.
        {
            let mut stream = TcpStream::connect(&d.addr).unwrap();
            write!(stream, "GET /jobs/{id}/events HTTP/1.1\r\n\r\n").unwrap();
            let mut partial = [0u8; 64];
            let _ = stream.read(&mut partial); // head + maybe a torn line
            drop(stream); // disconnect mid-stream
        }
        let mut seqs = Vec::new();
        let (delivered, ended) = client
            .follow(&id, 1, &mut |e| {
                seqs.push(e.get("seq").and_then(Value::as_u64).unwrap());
            })
            .unwrap();
        assert_eq!((delivered, ended), (2, true));
        assert_eq!(seqs, vec![1, 2], "no duplicates, no gaps after resume");
        d.drain();

        // An empty (created but never written) event file yields an
        // empty, cleanly-terminated stream.
        let dir2 = temp_dir("events-empty");
        let d2 = Daemon::spawn_custom(&dir2, 4, |record: &JobRecord, ctx: &ExecCtx| {
            std::fs::write(ctx.manifest.with_file_name("events.jsonl"), b"")
                .map_err(|e| e.to_string())?;
            Ok(ExecResult {
                rendered: "t".into(),
                completed: record.cells.len(),
                ..ExecResult::default()
            })
        });
        let (status, body) = d2.post_jobs("{\"targets\":[\"fig1\"],\"scale\":\"tiny\"}");
        assert_eq!(status, 202, "{body}");
        let id2 = extract_id(&body);
        wait_for_state(&d2, &id2, "done");
        let client2 = Client::new(ClientConfig {
            addr: d2.addr.clone(),
            timeout: Duration::from_secs(5),
            ..ClientConfig::default()
        });
        let (delivered, ended) = client2.follow(&id2, 0, &mut |_| {}).unwrap();
        assert_eq!((delivered, ended), (0, true), "empty event file");
        d2.drain();
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn two_daemons_cannot_share_a_data_dir() {
        let dir = temp_dir("exclusive");
        let d = Daemon::spawn(&dir, 4, Duration::ZERO);
        let cfg = DaemonConfig {
            data_dir: dir.clone(),
            ..DaemonConfig::default()
        };
        let err = run_daemon(
            &cfg,
            &toy_plan,
            &|_: &JobRecord, _: &ExecCtx| Ok(ExecResult::default()),
            &CancelToken::new(),
        )
        .unwrap_err();
        assert!(err.contains("another daemon"), "{err}");
        d.drain();
        std::fs::remove_dir_all(&dir).ok();
    }
}
