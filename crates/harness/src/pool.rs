//! Multi-process worker pool: cell execution with real fault isolation.
//!
//! The supervisor's in-process runner keeps one wedged or pathological
//! cell inside the daemon's own address space. This module moves cell
//! execution into supervised *worker processes* — one `crisp-worker`
//! per pool slot, spoken to over stdin/stdout with length-prefixed JSON
//! frames — and enforces the robustness contract end to end:
//!
//! - **crash containment** — a worker SIGKILL/SIGSEGV/OOM or a corrupt
//!   frame marks only that cell attempt failed (classified
//!   [`FailureClass::WorkerCrash`], retryable), never the supervisor;
//!   the slot respawns a fresh worker;
//! - **lease-period liveness** — a worker that sends no frame for
//!   [`PoolOptions::lease`] is declared crashed and its cell goes back
//!   to the retry loop, whose next dispatch counts a steal; each
//!   heartbeat renews the store's on-disk advisory lock (via
//!   [`RunContext::lease`]), which keeps a cell computed once across
//!   processes;
//! - **poison-cell quarantine** — a cell that kills
//!   [`PoolOptions::poison_threshold`] consecutive workers is refused
//!   further dispatch and fails as [`FailureClass::Poisoned`] with a
//!   forensic record (argv, last heartbeat, exit status, stderr tail)
//!   instead of burning retries forever;
//! - **version-skew refusal** — workers handshake with their binary
//!   semver and `RESULT_SCHEMA`; a mismatch is refused at startup so a
//!   half-upgraded host can never publish wrong-keyed results.
//!
//! ## Frame protocol (v1)
//!
//! Every frame is a 4-byte big-endian length followed by that many
//! bytes of JSON (one object), capped at [`MAX_FRAME`] bytes:
//!
//! ```text
//! worker -> pool   {"type":"hello","version":SEMVER,"schema":N,"pid":P}
//! pool -> worker   {"type":"accept"} | {"type":"refuse","reason":R}
//! pool -> worker   {"type":"run","id":ID,"spec":SPEC,"attempt":A, ...extras}
//! worker -> pool   {"type":"heartbeat","cycles":C,"instrs":I}   (repeated)
//! worker -> pool   {"type":"ok","payload":[f64...]}
//! worker -> pool   {"type":"fail","class":NAME,"error":MSG,"detail":{...}?}
//! pool -> worker   {"type":"shutdown"}
//! ```

use crate::class::FailureClass;
use crate::supervisor::{RunContext, RunError};
use crisp_obs::json::{parse, Value};
use crisp_sim::AbortReason;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Frame size cap: a cell payload is a few dozen floats, so anything
/// near this bound is protocol corruption, not data.
pub const MAX_FRAME: usize = 4 << 20;

/// Writes one length-prefixed JSON frame.
///
/// # Errors
///
/// Any I/O failure on the underlying writer, or a frame over
/// [`MAX_FRAME`] bytes (reported as `InvalidData`).
pub fn write_frame(w: &mut impl Write, v: &Value) -> std::io::Result<()> {
    let body = v.encode();
    if body.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds cap", body.len()),
        ));
    }
    let len = body.len() as u32;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Reads one length-prefixed JSON frame. `Ok(None)` is a clean EOF at a
/// frame boundary; EOF mid-frame, an oversized length, or unparsable
/// JSON are `InvalidData` errors (protocol corruption).
///
/// # Errors
///
/// Any I/O failure on the underlying reader, or `InvalidData` on a
/// corrupt frame.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Value>> {
    let mut head = [0u8; 4];
    let mut filled = 0;
    while filled < head.len() {
        match r.read(&mut head[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "EOF inside frame header",
                ));
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(head) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let text = std::str::from_utf8(&body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("frame: {e}")))?;
    parse(text)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("frame: {e}")))
}

/// Shared pool gauges, exported into the daemon's `/stats` and `/readyz`.
#[derive(Debug, Default)]
pub struct PoolStatus {
    /// All workers handshook; the pool accepts dispatches.
    pub ready: AtomicBool,
    /// Live worker processes.
    pub workers_alive: AtomicUsize,
    /// Workers currently executing a cell.
    pub workers_busy: AtomicUsize,
    /// Dispatches of a cell whose previous worker died mid-cell.
    pub steals: AtomicUsize,
    /// Cells quarantined as poisonous.
    pub poisoned: AtomicUsize,
    /// Workers that died mid-cell (SIGKILL/SIGSEGV/OOM/protocol), each
    /// replaced by a fresh spawn (`/stats` `worker_crashes`).
    pub crashes: AtomicUsize,
    pids: Mutex<Vec<u32>>,
}

impl PoolStatus {
    /// PIDs of the live workers (chaos tests pick SIGKILL victims here).
    pub fn pids(&self) -> Vec<u32> {
        self.pids.lock().expect("pids lock").clone()
    }

    fn add_pid(&self, pid: u32) {
        self.pids.lock().expect("pids lock").push(pid);
    }

    fn remove_pid(&self, pid: u32) {
        self.pids.lock().expect("pids lock").retain(|p| *p != pid);
    }
}

/// Pool configuration.
#[derive(Clone, Debug)]
pub struct PoolOptions {
    /// Path to the worker binary (`crisp-worker`).
    pub worker_bin: PathBuf,
    /// Worker process count (clamped to at least 1).
    pub workers: usize,
    /// The binary semver workers must report in their hello frame.
    pub expect_version: String,
    /// The `RESULT_SCHEMA` workers must report.
    pub expect_schema: u64,
    /// Consecutive worker deaths after which a cell is quarantined as
    /// poisonous. Aligns with the retry budget: with the default
    /// [`crate::retry::RetryPolicy`] (3 retries, 4 attempts), a
    /// threshold of 3 quarantines on the final attempt.
    pub poison_threshold: u32,
    /// Lease period: a worker that emits no frame for this long is
    /// declared wedged and killed, and the cell's next dispatch counts
    /// a steal.
    pub lease: Duration,
    /// Heartbeat cadence workers are asked to publish at.
    pub heartbeat: Duration,
    /// Handshake deadline per worker.
    pub handshake_timeout: Duration,
    /// Stderr lines retained per worker for crash forensics.
    pub stderr_tail: usize,
}

impl Default for PoolOptions {
    fn default() -> PoolOptions {
        PoolOptions {
            worker_bin: PathBuf::from("crisp-worker"),
            workers: 1,
            expect_version: env!("CARGO_PKG_VERSION").to_string(),
            expect_schema: u64::from(crate::store::RESULT_SCHEMA),
            poison_threshold: 3,
            lease: Duration::from_secs(5),
            heartbeat: Duration::from_millis(100),
            handshake_timeout: Duration::from_secs(10),
            stderr_tail: 16,
        }
    }
}

/// One worker process and its plumbing.
struct Worker {
    child: Child,
    stdin: std::process::ChildStdin,
    frames: mpsc::Receiver<std::io::Result<Value>>,
    stderr_tail: Arc<Mutex<VecDeque<String>>>,
    pid: u32,
}

impl Worker {
    /// Last stderr lines, newest last.
    fn tail(&self) -> Vec<String> {
        self.stderr_tail
            .lock()
            .expect("stderr tail lock")
            .iter()
            .cloned()
            .collect()
    }
}

/// Per-cell crash bookkeeping for poison quarantine and steal counting:
/// an entry lives from a mid-cell worker death until the cell's next
/// `ok` or `fail` frame. Entries are keyed by the (id, spec) pair: an id
/// names no scale or prefetcher, and one pool serves every job, so a cell
/// quarantined in one sweep must not refuse its namesake in another.
#[derive(Clone, Debug, Default)]
struct CrashRecord {
    consecutive: u32,
    last_exit: String,
    last_stderr: Vec<String>,
    last_heartbeat: (u64, u64),
}

/// The multi-process executor. Construct once with [`WorkerPool::spawn`]
/// (it handshakes every worker), then use it as the body of a supervisor
/// [`crate::supervisor::JobRunner`] via [`WorkerPool::run_cell`]. The
/// pool is `Sync`: each dispatch checks a worker out of the free list,
/// so concurrent supervisor threads drive distinct workers.
pub struct WorkerPool {
    opts: PoolOptions,
    free: Mutex<Vec<Worker>>,
    available: Condvar,
    crashes: Mutex<BTreeMap<(String, String), CrashRecord>>,
    status: Arc<PoolStatus>,
    shutting_down: AtomicBool,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.opts.workers)
            .field("worker_bin", &self.opts.worker_bin)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns and handshakes every worker. Fails if any worker cannot be
    /// started or reports a mismatched version/schema (the whole pool is
    /// refused — a half-upgraded host must not run at all).
    ///
    /// # Errors
    ///
    /// A one-line message naming the worker and the failure.
    pub fn spawn(opts: PoolOptions) -> Result<WorkerPool, String> {
        let status = Arc::new(PoolStatus::default());
        let mut workers = Vec::new();
        for i in 0..opts.workers.max(1) {
            let w = spawn_worker(&opts, &status).map_err(|e| format!("worker {i}: {e}"))?;
            workers.push(w);
        }
        status.workers_alive.store(workers.len(), Ordering::SeqCst);
        status.ready.store(true, Ordering::SeqCst);
        Ok(WorkerPool {
            free: Mutex::new(workers),
            available: Condvar::new(),
            crashes: Mutex::new(BTreeMap::new()),
            status,
            shutting_down: AtomicBool::new(false),
            opts,
        })
    }

    /// The pool's live gauges (shared with the daemon's `/stats`).
    pub fn status(&self) -> Arc<PoolStatus> {
        Arc::clone(&self.status)
    }

    /// Runs one cell attempt on a pooled worker. This is the body of a
    /// supervisor job runner: failures come back pre-classified
    /// ([`RunError::Classified`]) through the retry taxonomy. `extra`
    /// must be a JSON object; its fields are merged into the run frame
    /// (scale, chaos flags — whatever the worker binary understands).
    ///
    /// # Errors
    ///
    /// Worker crashes map to [`FailureClass::WorkerCrash`] (retryable),
    /// quarantined cells to [`FailureClass::Poisoned`] (fatal), abort
    /// requests to `Cancelled`/`Timeout`, and worker-reported failures
    /// to their self-declared class.
    pub fn run_cell(
        &self,
        job_id: &str,
        job_spec: &str,
        ctx: &RunContext,
        extra: &Value,
    ) -> Result<Vec<f64>, RunError> {
        // Poison gate: a cell that has killed `poison_threshold`
        // consecutive workers is refused before it can take another.
        let cell = (job_id.to_string(), job_spec.to_string());
        if let Some(rec) = self.crashes.lock().expect("crash map lock").get(&cell) {
            if rec.consecutive >= self.opts.poison_threshold {
                self.status.poisoned.fetch_add(1, Ordering::SeqCst);
                return Err(poison_error(job_id, rec, &self.opts));
            }
        }

        let mut worker = self.checkout(ctx)?;
        self.status.workers_busy.fetch_add(1, Ordering::SeqCst);
        // A crash record means the cell's last worker died mid-cell:
        // this dispatch takes the cell over from it.
        if self
            .crashes
            .lock()
            .expect("crash map lock")
            .contains_key(&cell)
        {
            self.status.steals.fetch_add(1, Ordering::SeqCst);
        }

        let outcome = self.drive(&mut worker, job_id, job_spec, ctx, extra);

        // Bookkeeping: return the worker (or bury it and respawn a
        // replacement).
        self.status.workers_busy.fetch_sub(1, Ordering::SeqCst);

        match outcome {
            DriveOutcome::Ok(payload) => {
                self.crashes.lock().expect("crash map lock").remove(&cell);
                self.checkin(worker);
                Ok(payload)
            }
            DriveOutcome::Fail {
                class,
                error,
                detail,
            } => {
                self.crashes.lock().expect("crash map lock").remove(&cell);
                self.checkin(worker);
                Err(RunError::Classified {
                    class,
                    error,
                    detail,
                })
            }
            DriveOutcome::Aborted(reason) => {
                // The attempt was cancelled from outside mid-cell; the
                // worker is mid-simulation with no way to stop, so it is
                // killed and replaced. Not the cell's fault: no crash
                // count.
                self.bury(worker, "aborted");
                let (class, error) = match reason {
                    AbortReason::Cancelled => {
                        (FailureClass::Cancelled, "attempt cancelled".to_string())
                    }
                    AbortReason::DeadlineExceeded => (
                        FailureClass::Timeout,
                        "attempt deadline expired (worker killed)".to_string(),
                    ),
                };
                Err(RunError::Classified {
                    class,
                    error,
                    detail: None,
                })
            }
            DriveOutcome::Crashed { reason } => {
                self.status.crashes.fetch_add(1, Ordering::SeqCst);
                let tail = worker.tail();
                let exit = self.bury(worker, &reason);
                let record = {
                    let mut crashes = self.crashes.lock().expect("crash map lock");
                    let rec = crashes.entry(cell).or_default();
                    rec.consecutive += 1;
                    rec.last_exit = exit.clone();
                    rec.last_stderr = tail;
                    rec.last_heartbeat = ctx.progress.read();
                    rec.clone()
                };
                let detail = crash_detail(&record, &reason, &self.opts);
                Err(RunError::Classified {
                    class: FailureClass::WorkerCrash,
                    error: format!(
                        "worker died mid-cell ({reason}; {exit}; {} consecutive)",
                        record.consecutive
                    ),
                    detail: Some(detail),
                })
            }
        }
    }

    /// Takes a worker from the free list, waiting while all are busy.
    fn checkout(&self, ctx: &RunContext) -> Result<Worker, RunError> {
        let mut free = self.free.lock().expect("free list lock");
        loop {
            if let Some(w) = free.pop() {
                return Ok(w);
            }
            if self.status.workers_alive.load(Ordering::SeqCst) == 0 {
                return Err(RunError::Classified {
                    class: FailureClass::Runtime,
                    error: "worker pool has no live workers".to_string(),
                    detail: None,
                });
            }
            if let Some(reason) = ctx.cancel.should_abort() {
                let class = match reason {
                    AbortReason::Cancelled => FailureClass::Cancelled,
                    AbortReason::DeadlineExceeded => FailureClass::Timeout,
                };
                return Err(RunError::Classified {
                    class,
                    error: "aborted while waiting for a pool worker".to_string(),
                    detail: None,
                });
            }
            let (guard, _) = self
                .available
                .wait_timeout(free, Duration::from_millis(25))
                .expect("free list lock");
            free = guard;
        }
    }

    /// Returns a healthy worker to the free list.
    fn checkin(&self, worker: Worker) {
        self.free.lock().expect("free list lock").push(worker);
        self.available.notify_one();
    }

    /// Kills and reaps a dead-or-condemned worker, returns its exit
    /// status description, and (unless shutting down) spawns a
    /// replacement into the free list.
    fn bury(&self, mut worker: Worker, why: &str) -> String {
        let _ = worker.child.kill();
        let exit = match worker.child.wait() {
            Ok(status) => describe_exit(&status),
            Err(e) => format!("unreaped ({e})"),
        };
        self.status.remove_pid(worker.pid);
        self.status.workers_alive.fetch_sub(1, Ordering::SeqCst);
        if self.shutting_down.load(Ordering::SeqCst) {
            return exit;
        }
        match spawn_worker(&self.opts, &self.status) {
            Ok(fresh) => {
                self.status.workers_alive.fetch_add(1, Ordering::SeqCst);
                self.checkin(fresh);
            }
            Err(e) => {
                eprintln!("[pool] respawn after {why} failed: {e}");
            }
        }
        exit
    }

    /// Sends the run frame and pumps worker frames to completion.
    fn drive(
        &self,
        worker: &mut Worker,
        job_id: &str,
        job_spec: &str,
        ctx: &RunContext,
        extra: &Value,
    ) -> DriveOutcome {
        let mut pairs = vec![
            ("type".to_string(), Value::Str("run".to_string())),
            ("id".to_string(), Value::Str(job_id.to_string())),
            ("spec".to_string(), Value::Str(job_spec.to_string())),
            ("attempt".to_string(), Value::Num(f64::from(ctx.attempt))),
            (
                "heartbeat_ms".to_string(),
                Value::Num(self.opts.heartbeat.as_millis() as f64),
            ),
        ];
        if let Value::Obj(extra_pairs) = extra {
            pairs.extend(extra_pairs.clone());
        }
        if write_frame(&mut worker.stdin, &Value::Obj(pairs)).is_err() {
            return DriveOutcome::Crashed {
                reason: "run frame write failed".to_string(),
            };
        }
        let mut last_frame = Instant::now();
        loop {
            if let Some(reason) = ctx.cancel.should_abort() {
                return DriveOutcome::Aborted(reason);
            }
            match worker.frames.recv_timeout(Duration::from_millis(25)) {
                Ok(Ok(frame)) => {
                    last_frame = Instant::now();
                    match frame.get("type").and_then(Value::as_str) {
                        Some("heartbeat") => {
                            let cycles = frame.get("cycles").and_then(Value::as_u64).unwrap_or(0);
                            let instrs = frame.get("instrs").and_then(Value::as_u64).unwrap_or(0);
                            ctx.progress.publish(cycles, instrs);
                            ctx.lease.renew();
                        }
                        Some("ok") => {
                            let payload = frame
                                .get("payload")
                                .and_then(Value::as_arr)
                                .map(|a| a.iter().filter_map(Value::as_f64).collect::<Vec<f64>>());
                            match payload {
                                Some(p) => return DriveOutcome::Ok(p),
                                None => {
                                    return DriveOutcome::Crashed {
                                        reason: "ok frame without payload".to_string(),
                                    };
                                }
                            }
                        }
                        Some("fail") => {
                            let class = frame
                                .get("class")
                                .and_then(Value::as_str)
                                .and_then(FailureClass::from_name)
                                .unwrap_or(FailureClass::Runtime);
                            let error = frame
                                .get("error")
                                .and_then(Value::as_str)
                                .unwrap_or("worker-reported failure")
                                .to_string();
                            return DriveOutcome::Fail {
                                class,
                                error,
                                detail: frame.get("detail").cloned(),
                            };
                        }
                        other => {
                            return DriveOutcome::Crashed {
                                reason: format!("unexpected frame type {other:?}"),
                            };
                        }
                    }
                }
                Ok(Err(e)) => {
                    // Reader thread hit EOF mid-frame or corrupt bytes.
                    return DriveOutcome::Crashed {
                        reason: format!("frame protocol error: {e}"),
                    };
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if last_frame.elapsed() > self.opts.lease {
                        return DriveOutcome::Crashed {
                            reason: format!(
                                "lease expired: no frame for {} ms",
                                last_frame.elapsed().as_millis()
                            ),
                        };
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return DriveOutcome::Crashed {
                        reason: "worker exited mid-cell".to_string(),
                    };
                }
            }
        }
    }

    /// Shuts the pool down: asks every idle worker to exit, kills the
    /// rest. Safe to call more than once.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.status.ready.store(false, Ordering::SeqCst);
        let mut free = self.free.lock().expect("free list lock");
        for mut w in free.drain(..) {
            let _ = write_frame(
                &mut w.stdin,
                &Value::Obj(vec![(
                    "type".to_string(),
                    Value::Str("shutdown".to_string()),
                )]),
            );
            // Give it a beat to exit cleanly, then make sure.
            let deadline = Instant::now() + Duration::from_millis(500);
            loop {
                match w.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    _ => {
                        let _ = w.child.kill();
                        let _ = w.child.wait();
                        break;
                    }
                }
            }
            self.status.remove_pid(w.pid);
            self.status.workers_alive.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What one dispatch produced, before pool bookkeeping.
enum DriveOutcome {
    Ok(Vec<f64>),
    Fail {
        class: FailureClass,
        error: String,
        detail: Option<Value>,
    },
    Aborted(AbortReason),
    Crashed {
        reason: String,
    },
}

fn describe_exit(status: &std::process::ExitStatus) -> String {
    match status.code() {
        Some(code) => format!("exit code {code}"),
        None => format!("killed by signal ({status})"),
    }
}

/// The quarantine error for a poisoned cell, with full forensics.
fn poison_error(job_id: &str, rec: &CrashRecord, opts: &PoolOptions) -> RunError {
    RunError::Classified {
        class: FailureClass::Poisoned,
        error: format!(
            "cell {job_id} quarantined: killed {} consecutive worker(s) (last: {})",
            rec.consecutive, rec.last_exit
        ),
        detail: Some(crash_detail(rec, "poison quarantine", opts)),
    }
}

/// Forensic record for a worker crash / poison quarantine: what the
/// DEGRADED manifest line carries.
fn crash_detail(rec: &CrashRecord, reason: &str, opts: &PoolOptions) -> Value {
    Value::Obj(vec![
        ("kind".to_string(), Value::Str("worker-crash".to_string())),
        ("reason".to_string(), Value::Str(reason.to_string())),
        (
            "consecutive_crashes".to_string(),
            Value::Num(f64::from(rec.consecutive)),
        ),
        (
            "argv".to_string(),
            Value::Str(opts.worker_bin.display().to_string()),
        ),
        ("exit".to_string(), Value::Str(rec.last_exit.clone())),
        (
            "stderr_tail".to_string(),
            Value::Arr(
                rec.last_stderr
                    .iter()
                    .map(|l| Value::Str(l.clone()))
                    .collect(),
            ),
        ),
        (
            "last_heartbeat_cycles".to_string(),
            Value::Num(rec.last_heartbeat.0 as f64),
        ),
        (
            "last_heartbeat_instrs".to_string(),
            Value::Num(rec.last_heartbeat.1 as f64),
        ),
    ])
}

/// Spawns one worker process and runs the version handshake.
fn spawn_worker(opts: &PoolOptions, status: &Arc<PoolStatus>) -> Result<Worker, String> {
    let mut child = Command::new(&opts.worker_bin)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", opts.worker_bin.display()))?;
    let pid = child.id();
    let stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let stderr = child.stderr.take().expect("piped stderr");

    // Reader thread: frames land in a channel so the pool can recv with
    // a timeout (lease enforcement) and observe EOF as a disconnect.
    let (tx, frames) = mpsc::channel();
    std::thread::spawn(move || loop {
        match read_frame(&mut stdout) {
            Ok(Some(frame)) => {
                if tx.send(Ok(frame)).is_err() {
                    return;
                }
            }
            Ok(None) => return, // clean EOF: channel disconnects
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    });

    // Stderr tail collector for crash forensics.
    let tail: Arc<Mutex<VecDeque<String>>> = Arc::new(Mutex::new(VecDeque::new()));
    let tail_writer = Arc::clone(&tail);
    let keep = opts.stderr_tail.max(1);
    std::thread::spawn(move || {
        use std::io::BufRead;
        let reader = std::io::BufReader::new(stderr);
        for line in reader.lines() {
            let Ok(line) = line else { return };
            let mut t = tail_writer.lock().expect("stderr tail lock");
            if t.len() >= keep {
                t.pop_front();
            }
            t.push_back(line);
        }
    });

    let mut worker = Worker {
        child,
        stdin,
        frames,
        stderr_tail: tail,
        pid,
    };

    // Handshake: hello within the deadline, matching version + schema.
    let hello = match worker.frames.recv_timeout(opts.handshake_timeout) {
        Ok(Ok(frame)) => frame,
        Ok(Err(e)) => {
            let _ = worker.child.kill();
            let _ = worker.child.wait();
            return Err(format!("handshake frame error: {e}"));
        }
        Err(_) => {
            let _ = worker.child.kill();
            let _ = worker.child.wait();
            return Err(format!(
                "no hello within {} ms",
                opts.handshake_timeout.as_millis()
            ));
        }
    };
    let version = hello.get("version").and_then(Value::as_str).unwrap_or("?");
    let schema = hello.get("schema").and_then(Value::as_u64).unwrap_or(0);
    let is_hello = hello.get("type").and_then(Value::as_str) == Some("hello");
    if !is_hello || version != opts.expect_version || schema != opts.expect_schema {
        let reason = format!(
            "version skew: worker reports {version}/schema {schema}, \
             pool expects {}/schema {} — refusing",
            opts.expect_version, opts.expect_schema
        );
        let _ = write_frame(
            &mut worker.stdin,
            &Value::Obj(vec![
                ("type".to_string(), Value::Str("refuse".to_string())),
                ("reason".to_string(), Value::Str(reason.clone())),
            ]),
        );
        let _ = worker.child.wait();
        return Err(reason);
    }
    write_frame(
        &mut worker.stdin,
        &Value::Obj(vec![("type".to_string(), Value::Str("accept".to_string()))]),
    )
    .map_err(|e| format!("accept frame: {e}"))?;
    status.add_pid(pid);
    Ok(worker)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let v = Value::Obj(vec![
            ("type".to_string(), Value::Str("ok".to_string())),
            (
                "payload".to_string(),
                Value::Arr(vec![Value::Num(1.5), Value::Num(-2.0)]),
            ),
        ]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        write_frame(&mut buf, &v).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(v.clone()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(v));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn torn_and_oversized_frames_are_protocol_errors() {
        // EOF inside the header.
        let mut r: &[u8] = &[0, 0];
        assert!(read_frame(&mut r).is_err());
        // EOF inside the body.
        let mut r: &[u8] = &[0, 0, 0, 9, b'{', b'}'];
        assert!(read_frame(&mut r).is_err());
        // A length over the cap.
        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        let mut r: &[u8] = &huge;
        assert!(read_frame(&mut r).is_err());
        // Unparsable JSON.
        let mut buf = vec![0, 0, 0, 3];
        buf.extend_from_slice(b"nop");
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    /// A pool of one stand-in worker that handshakes and then never sends
    /// another frame, so the frame timer declares every dispatch crashed.
    /// Returns the pool and the directory holding the stand-in.
    fn wedged_pool(name: &str, opts: PoolOptions) -> (WorkerPool, PathBuf) {
        use std::os::unix::fs::PermissionsExt;

        let dir = std::env::temp_dir().join(format!("crisp-pool-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let hello = Value::Obj(vec![
            ("type".to_string(), Value::Str("hello".to_string())),
            (
                "version".to_string(),
                Value::Str(opts.expect_version.clone()),
            ),
            ("schema".to_string(), Value::Num(opts.expect_schema as f64)),
        ]);
        let mut frame = Vec::new();
        write_frame(&mut frame, &hello).unwrap();
        let octal: String = frame.iter().map(|b| format!("\\{b:03o}")).collect();
        let script = dir.join("wedged-worker");
        std::fs::write(
            &script,
            format!("#!/bin/sh\nprintf '{octal}'\nexec sleep 60\n"),
        )
        .unwrap();
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();

        let pool = WorkerPool::spawn(PoolOptions {
            worker_bin: script,
            lease: Duration::from_millis(200),
            ..opts
        })
        .unwrap();
        (pool, dir)
    }

    /// Dispatches one cell attempt with a fresh context.
    fn dispatch(pool: &WorkerPool, id: &str, spec: &str) -> Result<Vec<f64>, RunError> {
        use crate::supervisor::LeaseGuard;
        use crisp_sim::{CancelToken, ProgressBeacon};

        let ctx = RunContext {
            attempt: 1,
            cancel: CancelToken::new(),
            progress: ProgressBeacon::new(),
            lease: LeaseGuard::default(),
        };
        pool.run_cell(id, spec, &ctx, &Value::Obj(Vec::new()))
    }

    fn count(n: &AtomicUsize) -> usize {
        n.load(Ordering::SeqCst)
    }

    #[test]
    fn a_wedged_worker_is_declared_crashed_and_its_cell_stolen() {
        let (pool, dir) = wedged_pool("wedged", PoolOptions::default());
        let status = pool.status();
        let first = status.pids();
        let crash = |cell: &str| match dispatch(&pool, cell, "spec") {
            Err(RunError::Classified {
                class: FailureClass::WorkerCrash,
                detail: Some(detail),
                ..
            }) => detail,
            other => panic!("{cell}: expected a worker crash, got {other:?}"),
        };

        let detail = crash("fig1/mcf");
        let reason = detail.get("reason").and_then(Value::as_str).unwrap();
        assert!(reason.starts_with("lease expired"), "{reason}");
        assert_eq!((count(&status.crashes), count(&status.steals)), (1, 0));
        assert_eq!(count(&status.workers_alive), 1, "the slot respawns");
        assert_ne!(status.pids(), first, "with a fresh worker");

        // The crashed cell's next dispatch takes it over; another
        // cell's first dispatch is no steal.
        crash("fig1/mcf");
        assert_eq!((count(&status.crashes), count(&status.steals)), (2, 1));
        crash("fig1/lbm");
        assert_eq!((count(&status.crashes), count(&status.steals)), (3, 1));
        pool.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Cell ids carry no scale or prefetcher: a cell quarantined under one
    /// spec must not refuse, or count a steal for, its id under another.
    #[test]
    fn a_quarantined_cell_leaves_its_id_under_another_spec_dispatchable() {
        let opts = PoolOptions {
            poison_threshold: 2,
            ..PoolOptions::default()
        };
        let (pool, dir) = wedged_pool("poison", opts);
        let status = pool.status();
        let class = |spec: &str| match dispatch(&pool, "fig7/mcf", spec) {
            Err(RunError::Classified { class, .. }) => class,
            other => panic!("{spec}: expected a classified failure, got {other:?}"),
        };
        let fast = "fig7/mcf scale=Fast cells-v2";
        let tiny = "fig7/mcf scale=Tiny cells-v2";

        assert_eq!(class(fast), FailureClass::WorkerCrash);
        assert_eq!(class(fast), FailureClass::WorkerCrash);
        assert_eq!(class(fast), FailureClass::Poisoned, "quarantined");
        assert_eq!((count(&status.poisoned), count(&status.steals)), (1, 1));

        // The namesake runs (and crashes the stand-in) as a first dispatch.
        assert_eq!(class(tiny), FailureClass::WorkerCrash);
        assert_eq!((count(&status.poisoned), count(&status.steals)), (1, 1));
        assert_eq!(count(&status.crashes), 3);
        pool.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spawn_refuses_a_missing_worker_binary() {
        let opts = PoolOptions {
            worker_bin: PathBuf::from("/nonexistent/crisp-worker"),
            ..PoolOptions::default()
        };
        let err = WorkerPool::spawn(opts).unwrap_err();
        assert!(err.contains("spawn"), "{err}");
    }

    #[test]
    fn spawn_refuses_a_silent_worker() {
        // `cat` never sends a hello frame: the handshake must time out
        // and the pool must refuse to come up.
        let opts = PoolOptions {
            worker_bin: PathBuf::from("/bin/cat"),
            handshake_timeout: Duration::from_millis(100),
            ..PoolOptions::default()
        };
        let err = WorkerPool::spawn(opts).unwrap_err();
        assert!(err.contains("no hello"), "{err}");
    }
}
