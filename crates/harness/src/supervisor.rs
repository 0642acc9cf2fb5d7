//! The experiment supervisor: worker threads that run every (workload,
//! config) cell of a sweep as an isolated job.
//!
//! Per job, the supervisor provides:
//!
//! - **panic isolation** — each job runs under
//!   [`std::panic::catch_unwind`], so one poisoned cell cannot take down
//!   the sweep;
//! - **a wall-clock deadline** — each job gets a fresh [`CancelToken`]
//!   with the configured deadline; the simulator polls it cooperatively
//!   and aborts into [`crisp_sim::SimError::DeadlineExceeded`];
//! - **journaling** — every outcome is appended (fsync'd) to the JSONL
//!   manifest, so a crashed sweep resumes from where it stopped;
//! - **salvage** — a job that fails, whatever its [`FailureClass`], runs
//!   no second time in the sweep: it stays in the report as
//!   [`JobOutcome::Failed`], the sweep still completes and renders
//!   degraded figures instead of dying, and `--resume` re-runs it.

use crate::class::FailureClass;
use crate::journal::{
    load_manifest, AppendStatus, AttemptOutcome, AttemptRecord, Journal, JournalError,
    ProgressRecord, SweepHeader,
};
use crate::store::{cell_key, cell_key_material};
use crisp_core::CrispError;
use crisp_obs::json::Value;
use crisp_sim::{CancelToken, ProgressBeacon};
use crisp_store::{fnv1a128, CellLock, Lookup, Store};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// One schedulable cell of a sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Stable id, e.g. `fig7/mcf` — the journal key.
    pub id: String,
    /// Full spec string (figure, workload, scale, cell-format version);
    /// hashed into the job fingerprint so a resume detects spec drift.
    pub spec: String,
}

impl JobSpec {
    /// Creates a job spec.
    pub fn new(id: impl Into<String>, spec: impl Into<String>) -> JobSpec {
        JobSpec {
            id: id.into(),
            spec: spec.into(),
        }
    }

    /// FNV-1a 128-bit fingerprint of the spec string — what the journal
    /// records and resume compares.
    pub fn fingerprint(&self) -> u128 {
        fnv1a128(self.spec.as_bytes())
    }
}

/// Per-job context handed to the job runner.
#[derive(Clone, Debug)]
pub struct RunContext {
    /// Cancellation token carrying this job's wall-clock deadline;
    /// thread it into every `SimConfig` the job builds.
    pub cancel: CancelToken,
    /// Progress beacon the job publishes (cycles, instructions retired)
    /// to; thread it into every `SimConfig` so the supervisor's heartbeat
    /// monitor can journal how far the cell has gotten. Failures cite the
    /// last published values in their structured detail.
    pub progress: ProgressBeacon,
}

/// A live event listener: the supervisor calls it once per lifecycle
/// event (cell started / heartbeat / degraded / done) with a
/// one-object JSON payload. Sinks must be cheap and non-blocking; the
/// daemon's sink appends NDJSON lines that `GET /jobs/ID/events` streams.
#[derive(Clone)]
pub struct EventSink(Arc<dyn Fn(&Value) + Send + Sync>);

impl EventSink {
    /// Wraps a listener closure.
    pub fn new(f: impl Fn(&Value) + Send + Sync + 'static) -> EventSink {
        EventSink(Arc::new(f))
    }

    /// Delivers one event.
    pub fn emit(&self, event: &Value) {
        (self.0)(event);
    }
}

impl fmt::Debug for EventSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("EventSink(..)")
    }
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Emits one lifecycle event to the configured sink (no-op without one).
fn emit_event(sink: &Option<EventSink>, event: &str, job: &str, extra: Vec<(String, Value)>) {
    let Some(sink) = sink else { return };
    let mut pairs = vec![
        ("event".to_string(), Value::Str(event.to_string())),
        ("job".to_string(), Value::Str(job.to_string())),
        ("unix_ms".to_string(), Value::Num(unix_ms() as f64)),
    ];
    pairs.extend(extra);
    sink.emit(&Value::Obj(pairs));
}

/// The function the supervisor runs per job. Returns the cell's
/// payload vector; errors are classified via [`FailureClass::classify`].
pub type JobRunner<'a> = dyn Fn(&JobSpec, &RunContext) -> Result<Vec<f64>, CrispError> + Sync + 'a;

/// Supervisor configuration.
#[derive(Clone, Debug)]
pub struct SupervisorOptions {
    /// Worker threads (clamped to at least 1 and at most the job count).
    pub workers: usize,
    /// Per-job wall-clock deadline (`None` = no deadline). It is part
    /// of neither the sweep spec nor a cell's spec, so a cell that timed
    /// out can be resumed under a longer one.
    pub deadline: Option<Duration>,
    /// JSONL manifest path (`None` = no journaling, no resume).
    pub manifest: Option<PathBuf>,
    /// Resume from the manifest instead of truncating it. Requires
    /// `manifest` and an existing file.
    pub resume: bool,
    /// Sweep-level spec recorded in (and, on resume, checked against) the
    /// manifest header.
    pub sweep_spec: String,
    /// Test hook: tear the n-th appended record and drop all later writes,
    /// simulating a SIGKILL mid-manifest.
    pub crash_after_records: Option<usize>,
    /// Emit per-job progress lines on stderr.
    pub progress: bool,
    /// Heartbeat cadence: every interval, a monitor thread samples each
    /// running job's [`ProgressBeacon`] and appends a `progress` record to
    /// the manifest (and, with `progress`, a stderr line). `None` disables
    /// the monitor.
    pub heartbeat: Option<Duration>,
    /// Root directory of the content-addressed result store (created on
    /// first use): completed cells are published to it and verified hits
    /// skip simulation entirely (`None` = no store). Store and lock
    /// failures never fail a sweep — they degrade to stderr warnings and
    /// uncached computation.
    pub store: Option<PathBuf>,
    /// Sweep-wide stop token for graceful drain (SIGTERM/SIGINT): when
    /// cancelled, workers stop taking jobs, every in-flight job's
    /// cancel token trips (they share this token's flag via
    /// [`CancelToken::linked`]), interrupted cells are left *unrecorded*
    /// so `--resume` re-runs them, and the worker threads exit promptly.
    /// `None` disables external stop.
    pub stop: Option<CancelToken>,
    /// Test hook: the first `n` outcome-record appends fail like a
    /// transient ENOSPC (see [`Journal::fail_appends`]).
    pub fail_journal_appends: usize,
    /// Live event sink: cell started / heartbeat / degraded / done
    /// lifecycle events as one-object JSON payloads (`None` = no
    /// event stream).
    pub events: Option<EventSink>,
    /// Cross-process span log scope: every job appends a `cell <id>#1`
    /// span (and a `store-publish` child when a computed payload is
    /// published) under the scope's parent
    /// (`None` = no tracing).
    pub spans: Option<crate::spanlog::SpanScope>,
}

impl Default for SupervisorOptions {
    fn default() -> SupervisorOptions {
        SupervisorOptions {
            workers: 1,
            deadline: None,
            manifest: None,
            resume: false,
            sweep_spec: String::new(),
            crash_after_records: None,
            progress: false,
            heartbeat: None,
            store: None,
            stop: None,
            fail_journal_appends: 0,
            events: None,
            spans: None,
        }
    }
}

/// Final state of one job after the sweep.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// The job produced a payload.
    Completed {
        /// The cell's result vector.
        payload: Vec<f64>,
        /// The attempt number: 1 for a job run in this sweep; a restored
        /// job keeps the one its manifest recorded (manifests written
        /// when failed jobs retried within a sweep may hold more).
        attempts: u32,
        /// Whether the payload was restored from the manifest rather than
        /// recomputed.
        resumed: bool,
        /// Whether the payload was served from the result store instead of
        /// simulated.
        cached: bool,
    },
    /// The job failed; `--resume` re-runs it.
    Failed {
        /// The failure class.
        class: FailureClass,
        /// The error message.
        error: String,
        /// The attempt number, always 1.
        attempts: u32,
        /// Structured failure payload (see
        /// [`crate::journal::AttemptOutcome::Fail`]) for DEGRADED tables.
        detail: Option<Value>,
    },
}

/// What a sweep produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepReport {
    /// Final outcome per job id. Jobs in flight when the (injected) crash
    /// fired have no entry.
    pub outcomes: BTreeMap<String, JobOutcome>,
    /// Whether the injected crash point fired (the sweep is incomplete and
    /// must be resumed).
    pub crashed: bool,
    /// Jobs restored from the manifest without re-running.
    pub resumed: usize,
    /// Malformed manifest lines skipped during resume (torn tail).
    pub skipped_manifest_lines: usize,
    /// Cells served from the result store (verified entries).
    pub store_hits: usize,
    /// Cells simulated and published to the result store.
    pub store_computed: usize,
    /// Corrupt store entries quarantined (then re-simulated) this sweep.
    pub store_quarantined: usize,
    /// Whether a stop token drained the sweep before every job reached a
    /// final outcome (the sweep is incomplete and composes with
    /// `--resume`, like a crash but with a clean manifest).
    pub interrupted: bool,
    /// Journal appends that failed with an I/O error and were rolled
    /// back (the affected records are lost from the manifest but the
    /// sweep continued — durability degraded, results intact).
    pub journal_write_failures: usize,
}

impl SweepReport {
    /// Jobs that completed (fresh or resumed).
    pub fn completed(&self) -> usize {
        self.outcomes
            .values()
            .filter(|o| matches!(o, JobOutcome::Completed { .. }))
            .count()
    }

    /// Jobs that failed.
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.completed()
    }

    /// Whether any job failed (the sweep result is usable but partial —
    /// exit code 6 territory).
    pub fn degraded(&self) -> bool {
        self.failed() > 0
    }

    /// A job's payload, if it completed.
    pub fn payload(&self, id: &str) -> Option<&[f64]> {
        match self.outcomes.get(id) {
            Some(JobOutcome::Completed { payload, .. }) => Some(payload),
            _ => None,
        }
    }

    /// Permanent failures grouped by class, each with its job ids.
    pub fn taxonomy(&self) -> Vec<(FailureClass, Vec<&str>)> {
        let mut by_class: BTreeMap<FailureClass, Vec<&str>> = BTreeMap::new();
        for (id, o) in &self.outcomes {
            if let JobOutcome::Failed { class, .. } = o {
                by_class.entry(*class).or_default().push(id);
            }
        }
        by_class.into_iter().collect()
    }
}

/// Failure of the supervisor itself (not of a job — job failures live in
/// the [`SweepReport`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HarnessError {
    /// The journal could not be created, opened, read or written.
    Journal(JournalError),
    /// Two jobs share an id — the journal key would be ambiguous.
    DuplicateJob(String),
    /// `--resume` pointed at a manifest written by a different sweep.
    ManifestHeaderMismatch {
        /// The running sweep's spec.
        expected: String,
        /// The manifest header's spec.
        found: String,
    },
    /// `resume` was requested without a manifest path.
    ResumeWithoutManifest,
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Journal(e) => write!(f, "{e}"),
            HarnessError::DuplicateJob(id) => write!(f, "duplicate job id: {id}"),
            HarnessError::ManifestHeaderMismatch { expected, found } => write!(
                f,
                "manifest belongs to a different sweep (manifest: `{found}`, current: `{expected}`); \
                 start a fresh manifest instead of resuming"
            ),
            HarnessError::ResumeWithoutManifest => {
                write!(f, "resume requested but no manifest path given")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<JournalError> for HarnessError {
    fn from(e: JournalError) -> HarnessError {
        HarnessError::Journal(e)
    }
}

/// The attempt number every job record, event and outcome carries. A job
/// runs once per sweep, so it is always 1; the field stays so that
/// manifests, event streams and span names keep their format.
const ATTEMPT: u32 = 1;

/// A failed job: its class, error message and structured detail.
type Failure = (FailureClass, String, Option<Value>);

/// Structured detail for a failed job: a deadlock report carries
/// machine-readable fields into the manifest so a DEGRADED table can cite
/// the failure, not just name it.
fn failure_detail(e: &CrispError) -> Option<Value> {
    match e {
        CrispError::Simulation(crisp_sim::SimError::Deadlock(r)) => {
            let mut pairs = vec![
                ("kind".to_string(), Value::Str("deadlock".into())),
                ("cycle".to_string(), Value::Num(r.cycle as f64)),
                ("stalled_for".to_string(), Value::Num(r.stalled_for as f64)),
                ("retired".to_string(), Value::Num(r.retired as f64)),
                ("total".to_string(), Value::Num(r.total as f64)),
                (
                    "rob".to_string(),
                    Value::Str(format!("{}/{}", r.rob.0, r.rob.1)),
                ),
                (
                    "rs".to_string(),
                    Value::Str(format!("{}/{}", r.rs.0, r.rs.1)),
                ),
            ];
            if let Some((pc, state)) = &r.rob_head {
                pairs.push(("rob_head_pc".to_string(), Value::Num(f64::from(*pc))));
                pairs.push(("rob_head_state".to_string(), Value::Str(state.to_string())));
            }
            if !r.recent_events.is_empty() {
                // The recorder tail, newest first and bounded so the
                // manifest line stays readable — the full history is in the
                // error string's flight-recorder section.
                pairs.push((
                    "recent_events".to_string(),
                    Value::Arr(
                        r.recent_events
                            .iter()
                            .rev()
                            .take(8)
                            .map(|e| {
                                Value::Str(format!(
                                    "c{} s{} pc{:#x} {}",
                                    e.cycle,
                                    e.seq,
                                    e.pc,
                                    e.kind.label()
                                ))
                            })
                            .collect(),
                    ),
                ));
            }
            Some(Value::Obj(pairs))
        }
        _ => None,
    }
}

/// Folds the job's last-published progress into a failure's structured
/// detail, so a DEGRADED table can say how far the cell got before it
/// died. No-op when the job never published.
fn with_progress(detail: Option<Value>, beacon: &ProgressBeacon) -> Option<Value> {
    let (cycles, instrs) = beacon.read();
    if cycles == 0 && instrs == 0 {
        return detail;
    }
    let mut pairs = match detail {
        Some(Value::Obj(pairs)) => pairs,
        Some(other) => vec![("detail".to_string(), other)],
        None => vec![("kind".to_string(), Value::Str("progress".into()))],
    };
    pairs.push(("progress_cycles".to_string(), Value::Num(cycles as f64)));
    pairs.push(("progress_instrs".to_string(), Value::Num(instrs as f64)));
    Some(Value::Obj(pairs))
}

/// Structured detail for a caught panic: the payload survives into the
/// manifest verbatim, not just its first line.
fn panic_detail(message: &str) -> Value {
    Value::Obj(vec![
        ("kind".to_string(), Value::Str("panic".into())),
        ("message".to_string(), Value::Str(message.to_string())),
    ])
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or("")
}

/// Runs every job to a final outcome (or until the injected crash point
/// fires) and returns the report.
///
/// # Errors
///
/// Only supervisor-level failures ([`HarnessError`]) — a failing *job*
/// never fails the sweep; it becomes a [`JobOutcome::Failed`] entry.
pub fn run_sweep(
    jobs: &[JobSpec],
    opts: &SupervisorOptions,
    runner: &JobRunner<'_>,
) -> Result<SweepReport, HarnessError> {
    let mut seen = BTreeSet::new();
    for job in jobs {
        if !seen.insert(job.id.as_str()) {
            return Err(HarnessError::DuplicateJob(job.id.clone()));
        }
    }
    if opts.resume && opts.manifest.is_none() {
        return Err(HarnessError::ResumeWithoutManifest);
    }

    let mut outcomes: BTreeMap<String, JobOutcome> = BTreeMap::new();
    let mut resumed = 0usize;
    let mut skipped_manifest_lines = 0usize;

    // Resume: restore completed jobs from the manifest (spec hash must
    // match — a changed cell spec invalidates the stored payload).
    if opts.resume {
        let path = opts.manifest.as_ref().expect("checked above");
        let summary = load_manifest(path)?;
        skipped_manifest_lines = summary.skipped_lines;
        if let Some(header) = &summary.header {
            if !opts.sweep_spec.is_empty() && header.spec != opts.sweep_spec {
                return Err(HarnessError::ManifestHeaderMismatch {
                    expected: opts.sweep_spec.clone(),
                    found: header.spec.clone(),
                });
            }
        }
        for job in jobs {
            if let Some((hash, payload, attempts)) = summary.completed.get(&job.id) {
                if *hash == job.fingerprint() {
                    outcomes.insert(
                        job.id.clone(),
                        JobOutcome::Completed {
                            payload: payload.clone(),
                            attempts: *attempts,
                            resumed: true,
                            cached: false,
                        },
                    );
                    resumed += 1;
                    if opts.progress {
                        eprintln!("[supervisor] {}: restored from manifest", job.id);
                    }
                } else if opts.progress {
                    eprintln!(
                        "[supervisor] {}: manifest entry has a different spec, re-running",
                        job.id
                    );
                }
            }
        }
    }

    let journal = match &opts.manifest {
        Some(path) => {
            let mut j = if opts.resume {
                Journal::open_append(path)?
            } else {
                Journal::create(
                    path,
                    &SweepHeader {
                        spec: opts.sweep_spec.clone(),
                        jobs: jobs.len(),
                    },
                )?
            };
            if let Some(n) = opts.crash_after_records {
                j.crash_after_records(n);
            }
            if opts.fail_journal_appends > 0 {
                j.fail_appends(opts.fail_journal_appends);
            }
            Some(Mutex::new(j))
        }
        None => None,
    };

    // Every job not restored from the manifest runs once, in job order.
    let pending: Vec<usize> = jobs
        .iter()
        .enumerate()
        .filter(|(_, job)| !outcomes.contains_key(&job.id))
        .map(|(idx, _)| idx)
        .collect();
    let cursor = AtomicUsize::new(0);
    let remaining = AtomicUsize::new(pending.len());
    let crashed = AtomicBool::new(false);
    let outcomes = Mutex::new(outcomes);
    let store_counters = StoreCounters::default();
    // Live jobs' beacons, keyed by job id; workers register on entry
    // and deregister on exit, the heartbeat monitor samples in between.
    let registry: Mutex<BTreeMap<String, (ProgressBeacon, Instant)>> = Mutex::new(BTreeMap::new());

    let workers = opts.workers.clamp(1, pending.len().max(1));

    std::thread::scope(|scope| {
        if opts.heartbeat.is_some() {
            scope.spawn(|| {
                monitor_loop(opts, &registry, &remaining, &crashed, &journal);
            });
        }
        for _ in 0..workers {
            scope.spawn(|| {
                worker_loop(
                    jobs,
                    opts,
                    runner,
                    &pending,
                    &cursor,
                    &remaining,
                    &crashed,
                    &journal,
                    &outcomes,
                    &registry,
                    &store_counters,
                );
            });
        }
    });

    let outcomes = outcomes.into_inner().expect("workers exited cleanly");
    let journal_write_failures = journal
        .as_ref()
        .map_or(0, |j| j.lock().expect("journal lock").write_failures());
    let stop_cancelled = opts.stop.as_ref().is_some_and(CancelToken::is_cancelled);
    Ok(SweepReport {
        interrupted: stop_cancelled && outcomes.len() < jobs.len(),
        outcomes,
        crashed: crashed.load(Ordering::SeqCst),
        resumed,
        skipped_manifest_lines,
        store_hits: store_counters.hits.load(Ordering::SeqCst),
        store_computed: store_counters.computed.load(Ordering::SeqCst),
        store_quarantined: store_counters.quarantined.load(Ordering::SeqCst),
        journal_write_failures,
    })
}

/// Sweep-wide result-store accounting, shared across workers.
#[derive(Default)]
struct StoreCounters {
    hits: AtomicUsize,
    computed: AtomicUsize,
    quarantined: AtomicUsize,
}

/// How often a worker retries a cell lock that another process holds.
const LOCK_POLL: Duration = Duration::from_millis(20);

/// What the store fast path decided for one cell.
enum StoreProbe {
    /// A verified entry exists; serve its payload.
    Hit(Vec<f64>),
    /// No usable entry. If a lock is carried, this worker holds the
    /// cell's lock and must publish (then release) after computing; a
    /// `None` lock means locking failed and the cell computes
    /// uncoordinated — safe, at worst duplicating identical work.
    Compute(Option<CellLock>),
    /// The sweep's stop token tripped while another process held the
    /// cell's lock: the cell stays unrecorded, like any drained cell.
    Drained,
}

/// Probes the store for a cell, coordinating with concurrent sweeps: a
/// miss takes the cell's lock and re-probes under it, so a cell being
/// simulated by another process is awaited, then served from its
/// published entry instead of duplicated. The wait ends early when
/// `stop` trips. All store errors degrade to stderr warnings and
/// uncached computation.
fn probe_store(
    store: &Store,
    key: u128,
    job_id: &str,
    counters: &StoreCounters,
    stop: Option<&CancelToken>,
) -> StoreProbe {
    let quarantined = |error: &crisp_store::StoreError| {
        counters.quarantined.fetch_add(1, Ordering::SeqCst);
        eprintln!(
            "[supervisor] {job_id}: corrupt store entry quarantined ({error}), re-simulating"
        );
    };
    match store.lookup(key) {
        Ok(Lookup::Hit(entry)) => return StoreProbe::Hit(entry.payload),
        Ok(Lookup::Miss) => {}
        Ok(Lookup::Quarantined { error, .. }) => quarantined(&error),
        Err(e) => {
            eprintln!("[supervisor] {job_id}: store lookup failed ({e}), computing uncached");
            return StoreProbe::Compute(None);
        }
    }
    let lock = loop {
        match store.try_lock(key) {
            Ok(Some(lock)) => break lock,
            Ok(None) if stop.is_some_and(CancelToken::is_cancelled) => return StoreProbe::Drained,
            Ok(None) => std::thread::sleep(LOCK_POLL),
            Err(e) => {
                eprintln!("[supervisor] {job_id}: store lock failed ({e}), computing uncached");
                return StoreProbe::Compute(None);
            }
        }
    };
    // Re-probe under the lock: the previous holder may have published the
    // cell while this worker waited.
    match store.lookup(key) {
        Ok(Lookup::Hit(entry)) => StoreProbe::Hit(entry.payload),
        Ok(Lookup::Miss) => StoreProbe::Compute(Some(lock)),
        Ok(Lookup::Quarantined { error, .. }) => {
            quarantined(&error);
            StoreProbe::Compute(Some(lock))
        }
        Err(e) => {
            eprintln!("[supervisor] {job_id}: store re-probe failed ({e})");
            StoreProbe::Compute(Some(lock))
        }
    }
}

/// Samples every running job's progress beacon at the heartbeat cadence
/// and journals a `progress` record per job. Exits with the worker threads.
fn monitor_loop(
    opts: &SupervisorOptions,
    registry: &Mutex<BTreeMap<String, (ProgressBeacon, Instant)>>,
    remaining: &AtomicUsize,
    crashed: &AtomicBool,
    journal: &Option<Mutex<Journal>>,
) {
    let Some(every) = opts.heartbeat else { return };
    let mut next = Instant::now() + every;
    while remaining.load(Ordering::SeqCst) > 0
        && !crashed.load(Ordering::SeqCst)
        && !opts.stop.as_ref().is_some_and(CancelToken::is_cancelled)
    {
        // Short naps keep shutdown prompt even for long cadences.
        std::thread::sleep(every.min(Duration::from_millis(2)));
        if Instant::now() < next {
            continue;
        }
        next = Instant::now() + every;
        let beats: Vec<ProgressRecord> = {
            let reg = registry.lock().expect("registry lock");
            reg.iter()
                .map(|(job, (beacon, started))| {
                    let (cycles, instrs) = beacon.read();
                    ProgressRecord {
                        job: job.clone(),
                        cycles,
                        instrs,
                        wall_ms: u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX),
                    }
                })
                .collect()
        };
        for beat in beats {
            if opts.progress {
                eprintln!(
                    "[supervisor] {}: heartbeat cycle {} instr {} ({} ms)",
                    beat.job, beat.cycles, beat.instrs, beat.wall_ms
                );
            }
            emit_event(
                &opts.events,
                "heartbeat",
                &beat.job,
                vec![
                    ("cycles".to_string(), Value::Num(beat.cycles as f64)),
                    ("instrs".to_string(), Value::Num(beat.instrs as f64)),
                    ("wall_ms".to_string(), Value::Num(beat.wall_ms as f64)),
                ],
            );
            if let Some(j) = journal {
                if let Err(e) = j.lock().expect("journal lock").append_progress(&beat) {
                    eprintln!("[supervisor] heartbeat write failed: {e}");
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    jobs: &[JobSpec],
    opts: &SupervisorOptions,
    runner: &JobRunner<'_>,
    pending: &[usize],
    cursor: &AtomicUsize,
    remaining: &AtomicUsize,
    crashed: &AtomicBool,
    journal: &Option<Mutex<Journal>>,
    outcomes: &Mutex<BTreeMap<String, JobOutcome>>,
    registry: &Mutex<BTreeMap<String, (ProgressBeacon, Instant)>>,
    store_counters: &StoreCounters,
) {
    // A store that cannot be opened disables caching for this worker but
    // never fails the sweep.
    let store: Option<Store> = opts.store.as_ref().and_then(|dir| match Store::open(dir) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("[supervisor] result store disabled: {e}");
            None
        }
    });
    loop {
        // Graceful drain: once the stop token trips, stop taking jobs; the
        // ones not taken stay un-final so a resume picks them up.
        if crashed.load(Ordering::SeqCst)
            || opts.stop.as_ref().is_some_and(CancelToken::is_cancelled)
        {
            return;
        }
        let Some(&idx) = pending.get(cursor.fetch_add(1, Ordering::SeqCst)) else {
            return;
        };
        let job = &jobs[idx];
        // One span per job: probe → (run → publish), emitted at every exit
        // below. Deterministic naming lets the stage observer derive this
        // span's id independently and parent on it.
        let tag = crate::spanlog::cell_tag(&job.id);
        let started_ns = crate::spanlog::unix_ns();
        let emit_cell = |end_ns: u64| -> u64 {
            opts.spans.as_ref().map_or(0, |scope| {
                scope.emit(&format!("cell {tag}"), "supervisor", started_ns, end_ns)
            })
        };

        // Store fast path: serve a verified entry without simulating, or
        // take the cell's lock so concurrent sweeps compute it once. The
        // lock is held until the computed payload is published.
        let key = cell_key(&job.id, &job.spec);
        let (result, cached, cell_lock) = match store
            .as_ref()
            .map(|st| probe_store(st, key, &job.id, store_counters, opts.stop.as_ref()))
        {
            Some(StoreProbe::Hit(payload)) => (Ok(payload), true, None),
            Some(StoreProbe::Compute(lock)) => (run_job(job, opts, runner, registry), false, lock),
            Some(StoreProbe::Drained) => return,
            None => (run_job(job, opts, runner, registry), false, None),
        };

        // Journal the outcome before acting on it. A hit is journaled like
        // a computed success, with the store key as provenance, so
        // `--resume` composes with caching and post-mortems can audit
        // where every payload came from.
        let record = AttemptRecord {
            job: job.id.clone(),
            hash: job.fingerprint(),
            attempt: ATTEMPT,
            outcome: match &result {
                Ok(payload) => AttemptOutcome::Ok {
                    payload: payload.clone(),
                    cached: cached.then_some(key),
                },
                Err((class, error, detail)) => AttemptOutcome::Fail {
                    class: *class,
                    error: error.clone(),
                    detail: detail.clone(),
                },
            },
        };
        if let Some(j) = journal {
            match j.lock().expect("journal lock").append(&record) {
                Ok(AppendStatus::Written) => {}
                Ok(AppendStatus::Crashed) => {
                    // The simulated SIGKILL: drop the in-memory outcome too
                    // (a dead process records nothing) and stop the workers.
                    crashed.store(true, Ordering::SeqCst);
                    return;
                }
                Err(e) => {
                    // Real I/O failure: keep computing, lose durability.
                    eprintln!("[supervisor] journal write failed: {e}");
                }
            }
        }

        let attempt = ("attempt".to_string(), Value::Num(f64::from(ATTEMPT)));
        let outcome = match result {
            Ok(payload) => {
                // Publish while still holding the cell's lock, then
                // release it: waiting processes re-probe and hit.
                let mut publish_window = None;
                if let (Some(st), false) = (&store, cached) {
                    let publish_started_ns = crate::spanlog::unix_ns();
                    match st.publish(key, &cell_key_material(&job.id, &job.spec), &payload) {
                        Ok(()) => {
                            store_counters.computed.fetch_add(1, Ordering::SeqCst);
                            publish_window = Some((publish_started_ns, crate::spanlog::unix_ns()));
                        }
                        Err(e) => {
                            eprintln!("[supervisor] {}: store publish failed: {e}", job.id);
                        }
                    }
                }
                drop(cell_lock);
                let cell_span = emit_cell(crate::spanlog::unix_ns());
                if let (Some(scope), Some((start_ns, end_ns))) = (&opts.spans, publish_window) {
                    crate::spanlog::SpanScope {
                        parent: cell_span,
                        ..scope.clone()
                    }
                    .emit(
                        &format!("store-publish {tag}"),
                        "supervisor",
                        start_ns,
                        end_ns,
                    );
                }
                if cached {
                    store_counters.hits.fetch_add(1, Ordering::SeqCst);
                }
                if opts.progress {
                    if cached {
                        eprintln!("[supervisor] {}: cache hit ({key:032x})", job.id);
                    } else {
                        eprintln!("[supervisor] {}: ok", job.id);
                    }
                }
                emit_event(
                    &opts.events,
                    "cell-done",
                    &job.id,
                    vec![attempt, ("cached".to_string(), Value::Bool(cached))],
                );
                JobOutcome::Completed {
                    payload,
                    attempts: ATTEMPT,
                    resumed: false,
                    cached,
                }
            }
            Err((class, error, detail)) => {
                drop(cell_lock);
                emit_cell(crate::spanlog::unix_ns());
                if class == FailureClass::Cancelled
                    && opts.stop.as_ref().is_some_and(CancelToken::is_cancelled)
                {
                    // Drained, not broken: record no final outcome (the
                    // journaled fail line never outranks a later ok), so
                    // a resume re-runs the cell.
                    return;
                }
                if opts.progress {
                    eprintln!(
                        "[supervisor] {}: FAILED ({class}): {}",
                        job.id,
                        first_line(&error)
                    );
                }
                emit_event(
                    &opts.events,
                    "cell-degraded",
                    &job.id,
                    vec![
                        attempt,
                        ("class".to_string(), Value::Str(class.name().to_string())),
                        (
                            "error".to_string(),
                            Value::Str(first_line(&error).to_string()),
                        ),
                    ],
                );
                JobOutcome::Failed {
                    class,
                    error,
                    attempts: ATTEMPT,
                    detail,
                }
            }
        };
        outcomes
            .lock()
            .expect("outcomes lock")
            .insert(job.id.clone(), outcome);
        remaining.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one job under panic isolation with a fresh cancel token, its
/// progress beacon registered for the heartbeat monitor.
fn run_job(
    job: &JobSpec,
    opts: &SupervisorOptions,
    runner: &JobRunner<'_>,
    registry: &Mutex<BTreeMap<String, (ProgressBeacon, Instant)>>,
) -> Result<Vec<f64>, Failure> {
    // Each job's token carries its own deadline but shares the sweep-wide
    // stop flag, so SIGTERM reaches in-flight simulations at their next
    // cooperative poll point.
    let cancel = match (&opts.stop, opts.deadline) {
        (Some(stop), d) => stop.linked(d),
        (None, Some(d)) => CancelToken::with_deadline(d),
        (None, None) => CancelToken::new(),
    };
    let ctx = RunContext {
        cancel,
        progress: ProgressBeacon::new(),
    };
    emit_event(
        &opts.events,
        "cell-started",
        &job.id,
        vec![("attempt".to_string(), Value::Num(f64::from(ATTEMPT)))],
    );
    registry
        .lock()
        .expect("registry lock")
        .insert(job.id.clone(), (ctx.progress.clone(), Instant::now()));
    let result = catch_unwind(AssertUnwindSafe(|| runner(job, &ctx)));
    registry.lock().expect("registry lock").remove(&job.id);
    match result {
        Ok(Ok(payload)) => Ok(payload),
        Ok(Err(e)) => Err((
            FailureClass::classify(&e),
            e.to_string(),
            with_progress(failure_detail(&e), &ctx.progress),
        )),
        Err(panic) => {
            let msg = panic_message(panic);
            let detail = with_progress(Some(panic_detail(&msg)), &ctx.progress);
            Err((FailureClass::Panic, msg, detail))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_core::ConfigError;
    use std::sync::atomic::AtomicU32;

    fn jobs(ids: &[&str]) -> Vec<JobSpec> {
        ids.iter()
            .map(|id| JobSpec::new(*id, format!("{id} test-spec")))
            .collect()
    }

    fn sample_deadlock() -> crisp_sim::DeadlockReport {
        crisp_sim::DeadlockReport {
            cycle: 5_000_000,
            stalled_for: 2_000_000,
            retired: 1234,
            total: 9999,
            rob_head: Some((42, crisp_sim::HeadState::WaitingToIssue)),
            rob: (224, 224),
            rs: (96, 96),
            loads: (10, 64),
            stores: (0, 128),
            oldest_unissued: Some((1234, 42)),
            recent_events: vec![
                crisp_sim::TraceEvent {
                    cycle: 4_999_998,
                    seq: 1233,
                    pc: 0xa0,
                    kind: crisp_sim::EventKind::Issue,
                    fill: None,
                },
                crisp_sim::TraceEvent {
                    cycle: 4_999_999,
                    seq: 1234,
                    pc: 0xa8,
                    kind: crisp_sim::EventKind::Dispatch,
                    fill: None,
                },
            ],
        }
    }

    #[test]
    fn all_jobs_complete_across_workers() {
        let js = jobs(&["a", "b", "c", "d", "e", "f"]);
        let opts = SupervisorOptions {
            workers: 4,
            ..SupervisorOptions::default()
        };
        let report = run_sweep(&js, &opts, &|job, _ctx| Ok(vec![job.id.len() as f64])).unwrap();
        assert_eq!(report.completed(), 6);
        assert!(!report.degraded());
        assert!(!report.crashed);
        assert_eq!(report.payload("c"), Some(&[1.0][..]));
    }

    #[test]
    fn panics_are_isolated_and_retried() {
        // A panicking job fails alone: its neighbours complete on the other
        // workers. It is retried by `--resume`, not within the sweep.
        let dir = std::env::temp_dir().join("crisp-harness-supervisor-panic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let js = jobs(&["flaky", "solid-1", "solid-2", "solid-3"]);
        let opts = SupervisorOptions {
            workers: 3,
            manifest: Some(path.clone()),
            sweep_spec: "panic-sweep".into(),
            ..SupervisorOptions::default()
        };
        let calls = AtomicU32::new(0);
        let first = run_sweep(&js, &opts, &|job, _ctx| {
            if job.id == "flaky" {
                calls.fetch_add(1, Ordering::SeqCst);
                panic!("injected panic");
            }
            Ok(vec![1.0])
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "no retry within a sweep");
        assert!(!first.crashed);
        assert_eq!(first.completed(), 3);
        assert_eq!(first.taxonomy(), vec![(FailureClass::Panic, vec!["flaky"])]);

        let resume = SupervisorOptions {
            resume: true,
            ..opts
        };
        let second = run_sweep(&js, &resume, &|job, _ctx| {
            if job.id == "flaky" {
                calls.fetch_add(1, Ordering::SeqCst);
            }
            Ok(vec![1.0])
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2, "resume re-runs it once");
        assert_eq!(second.completed(), 4);
        assert_eq!(
            second.outcomes.get("flaky"),
            Some(&JobOutcome::Completed {
                payload: vec![1.0],
                attempts: 1,
                resumed: false,
                cached: false
            })
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fatal_classes_fail_fast_without_retry() {
        // Every class is fatal within a sweep: the failing job runs once,
        // whatever its class, and its healthy neighbour still completes.
        type Fail = fn() -> Result<Vec<f64>, CrispError>;
        let cases: [(FailureClass, Fail); 4] = [
            (FailureClass::Config, || {
                Err(CrispError::Config(ConfigError::new(
                    "rob",
                    "must be nonzero",
                )))
            }),
            (FailureClass::Deadlock, || {
                Err(CrispError::Simulation(crisp_sim::SimError::Deadlock(
                    Box::new(sample_deadlock()),
                )))
            }),
            (FailureClass::Timeout, || {
                Err(CrispError::Simulation(
                    crisp_sim::SimError::DeadlineExceeded {
                        cycle: 7,
                        retired: 0,
                        total: 10,
                    },
                ))
            }),
            (FailureClass::Panic, || panic!("hopeless")),
        ];
        let js = jobs(&["failing", "healthy"]);
        for (class, fail) in cases {
            let calls = AtomicU32::new(0);
            let report = run_sweep(&js, &SupervisorOptions::default(), &|job, _ctx| {
                if job.id == "healthy" {
                    return Ok(vec![42.0]);
                }
                calls.fetch_add(1, Ordering::SeqCst);
                fail()
            })
            .unwrap();
            assert_eq!(calls.load(Ordering::SeqCst), 1, "{class}: no retry");
            assert!(report.degraded(), "{class}");
            assert_eq!(report.payload("healthy"), Some(&[42.0][..]), "{class}");
            match report.outcomes.get("failing") {
                Some(JobOutcome::Failed {
                    class: found,
                    attempts: 1,
                    ..
                }) if *found == class => {}
                other => panic!("{class}: unexpected outcome: {other:?}"),
            }
            assert_eq!(report.taxonomy(), vec![(class, vec!["failing"])]);
        }
    }

    #[test]
    fn exhausted_retries_salvage_a_failed_outcome() {
        // The in-sweep retry budget is zero: the first failure exhausts it,
        // and the job stays in the report as a Failed outcome with detail.
        let js = jobs(&["always-panics", "fine"]);
        let report = run_sweep(&js, &SupervisorOptions::default(), &|job, _ctx| {
            if job.id == "always-panics" {
                panic!("hopeless");
            }
            Ok(vec![42.0])
        })
        .unwrap();
        assert_eq!(report.completed(), 1);
        assert_eq!(report.failed(), 1);
        match report.outcomes.get("always-panics") {
            Some(JobOutcome::Failed {
                class: FailureClass::Panic,
                attempts: 1,
                error,
                detail,
            }) => {
                assert!(error.contains("hopeless"));
                let d = detail.as_ref().expect("panic carries detail");
                assert_eq!(d.get("kind").unwrap().as_str(), Some("panic"));
                assert_eq!(d.get("message").unwrap().as_str(), Some("hopeless"));
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert_eq!(
            report.taxonomy(),
            vec![(FailureClass::Panic, vec!["always-panics"])]
        );
    }

    #[test]
    fn deadline_token_reaches_the_runner_and_timeouts_classify() {
        let js = jobs(&["slow"]);
        let opts = SupervisorOptions {
            deadline: Some(Duration::from_millis(1)),
            ..SupervisorOptions::default()
        };
        let report = run_sweep(&js, &opts, &|_job, ctx| {
            // Cooperative loop, like the engine's poll point.
            loop {
                if let Some(reason) = ctx.cancel.should_abort() {
                    assert_eq!(reason, crisp_sim::AbortReason::DeadlineExceeded);
                    return Err(CrispError::Simulation(
                        crisp_sim::SimError::DeadlineExceeded {
                            cycle: 7,
                            retired: 0,
                            total: 10,
                        },
                    ));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        })
        .unwrap();
        match report.outcomes.get("slow") {
            Some(JobOutcome::Failed {
                class: FailureClass::Timeout,
                ..
            }) => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn duplicate_ids_and_bare_resume_are_rejected() {
        let dup = jobs(&["x", "x"]);
        assert_eq!(
            run_sweep(&dup, &SupervisorOptions::default(), &|_, _| Ok(vec![])),
            Err(HarnessError::DuplicateJob("x".into()))
        );
        let opts = SupervisorOptions {
            resume: true,
            ..SupervisorOptions::default()
        };
        assert_eq!(
            run_sweep(&jobs(&["x"]), &opts, &|_, _| Ok(vec![])),
            Err(HarnessError::ResumeWithoutManifest)
        );
    }

    #[test]
    fn crash_point_stops_the_sweep_and_resume_finishes_it() {
        let dir = std::env::temp_dir().join("crisp-harness-supervisor-crash");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let js = jobs(&["a", "b", "c"]);
        let runner = |job: &JobSpec, _ctx: &RunContext| Ok(vec![job.id.len() as f64, 0.25]);

        // First run: the journal tears after 1 record; the sweep reports
        // the crash and records nothing past it.
        let opts = SupervisorOptions {
            manifest: Some(path.clone()),
            sweep_spec: "crash-sweep".into(),
            crash_after_records: Some(1),
            ..SupervisorOptions::default()
        };
        let report = run_sweep(&js, &opts, &runner).unwrap();
        assert!(report.crashed);
        assert!(report.outcomes.len() < 3);

        // Resume: completes the remainder, restores the survivor, and the
        // merged outcome set equals the uninterrupted run's.
        let opts = SupervisorOptions {
            manifest: Some(path.clone()),
            sweep_spec: "crash-sweep".into(),
            resume: true,
            ..SupervisorOptions::default()
        };
        let resumed = run_sweep(&js, &opts, &runner).unwrap();
        assert!(!resumed.crashed);
        assert_eq!(resumed.completed(), 3);
        assert_eq!(resumed.resumed, 1);
        assert_eq!(resumed.skipped_manifest_lines, 1, "torn tail tolerated");
        for job in &js {
            assert_eq!(
                resumed.payload(&job.id),
                Some(&[job.id.len() as f64, 0.25][..])
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_skips_completed_jobs_and_reruns_failed_ones() {
        let dir = std::env::temp_dir().join("crisp-harness-supervisor-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let js = jobs(&["done", "broken"]);

        let opts = SupervisorOptions {
            manifest: Some(path.clone()),
            sweep_spec: "resume-sweep".into(),
            ..SupervisorOptions::default()
        };
        let first = run_sweep(&js, &opts, &|job, _ctx| {
            if job.id == "broken" {
                panic!("transient");
            }
            Ok(vec![3.5])
        })
        .unwrap();
        assert_eq!(first.completed(), 1);
        assert_eq!(first.failed(), 1);

        // Resume with a healthy runner: `done` must NOT re-run; `broken`
        // re-runs and succeeds.
        let opts = SupervisorOptions {
            manifest: Some(path.clone()),
            sweep_spec: "resume-sweep".into(),
            resume: true,
            ..SupervisorOptions::default()
        };
        let second = run_sweep(&js, &opts, &|job, _ctx| {
            assert_ne!(job.id, "done", "completed job re-ran on resume");
            Ok(vec![9.0])
        })
        .unwrap();
        assert_eq!(second.completed(), 2);
        assert_eq!(second.resumed, 1);
        assert_eq!(
            second.outcomes.get("done"),
            Some(&JobOutcome::Completed {
                payload: vec![3.5],
                attempts: 1,
                resumed: true,
                cached: false
            })
        );
        assert_eq!(second.payload("broken"), Some(&[9.0][..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadlock_reports_map_to_structured_detail() {
        let report = sample_deadlock();
        let e = CrispError::Simulation(crisp_sim::SimError::Deadlock(Box::new(report)));
        let d = failure_detail(&e).expect("deadlocks carry detail");
        assert_eq!(d.get("kind").unwrap().as_str(), Some("deadlock"));
        assert_eq!(d.get("cycle").unwrap().as_u64(), Some(5_000_000));
        assert_eq!(d.get("rob").unwrap().as_str(), Some("224/224"));
        assert_eq!(
            d.get("rob_head_state").unwrap().as_str(),
            Some("waiting to issue")
        );
        let events = d.get("recent_events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].as_str(),
            Some("c4999999 s1234 pc0xa8 Ds"),
            "newest event first"
        );
        // The detail survives a journal round-trip intact.
        let rec = AttemptRecord {
            job: "fig7/lbm".into(),
            hash: 1,
            attempt: 2,
            outcome: AttemptOutcome::Fail {
                class: FailureClass::Deadlock,
                error: e.to_string(),
                detail: Some(d.clone()),
            },
        };
        let decoded = AttemptRecord::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);

        assert_eq!(failure_detail(&CrispError::Annotation("x".into())), None);
    }

    #[test]
    fn heartbeats_journal_running_jobs_progress() {
        let dir = std::env::temp_dir().join("crisp-harness-supervisor-heartbeat");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let js = jobs(&["beating"]);
        let opts = SupervisorOptions {
            manifest: Some(path.clone()),
            sweep_spec: "hb".into(),
            heartbeat: Some(Duration::from_millis(5)),
            ..SupervisorOptions::default()
        };
        let report = run_sweep(&js, &opts, &|_job, ctx| {
            // Stand-in for the engine's poll path: publish monotonically
            // while "simulating" long enough for several heartbeats.
            for i in 1..=40u64 {
                ctx.progress.publish(i * 100, i * 10);
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(vec![1.0])
        })
        .unwrap();
        assert_eq!(report.completed(), 1);

        let m = crate::journal::load_manifest(&path).unwrap();
        assert_eq!(m.skipped_lines, 0, "progress lines parse cleanly");
        let beat = m.progress.get("beating").expect("at least one heartbeat");
        assert!(
            beat.cycles >= 100 && beat.cycles <= 4000,
            "beat samples a published value: {beat:?}"
        );
        assert_eq!(
            beat.instrs,
            beat.cycles / 10,
            "cycles/instrs sampled as a pair"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failures_cite_last_published_progress() {
        let js = jobs(&["slow"]);
        let report = run_sweep(&js, &SupervisorOptions::default(), &|_job, ctx| {
            ctx.progress.publish(4096, 512);
            Err(CrispError::Simulation(
                crisp_sim::SimError::DeadlineExceeded {
                    cycle: 4096,
                    retired: 512,
                    total: 1000,
                },
            ))
        })
        .unwrap();
        match report.outcomes.get("slow") {
            Some(JobOutcome::Failed {
                class: FailureClass::Timeout,
                detail: Some(d),
                ..
            }) => {
                assert_eq!(d.get("progress_cycles").unwrap().as_u64(), Some(4096));
                assert_eq!(d.get("progress_instrs").unwrap().as_u64(), Some(512));
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn resume_rejects_a_foreign_manifest() {
        let dir = std::env::temp_dir().join("crisp-harness-supervisor-foreign");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let js = jobs(&["a"]);
        let opts = SupervisorOptions {
            manifest: Some(path.clone()),
            sweep_spec: "sweep-v1".into(),
            ..SupervisorOptions::default()
        };
        run_sweep(&js, &opts, &|_, _| Ok(vec![])).unwrap();

        let opts = SupervisorOptions {
            manifest: Some(path.clone()),
            sweep_spec: "sweep-v2".into(),
            resume: true,
            ..SupervisorOptions::default()
        };
        assert_eq!(
            run_sweep(&js, &opts, &|_, _| Ok(vec![])),
            Err(HarnessError::ManifestHeaderMismatch {
                expected: "sweep-v2".into(),
                found: "sweep-v1".into(),
            })
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_warm_store_serves_cells_without_rerunning() {
        let dir = std::env::temp_dir().join("crisp-harness-supervisor-store-warm");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let store_dir = dir.join("store");
        let js = jobs(&["a", "bb"]);
        let calls = AtomicU32::new(0);
        let runner = |job: &JobSpec, _ctx: &RunContext| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(vec![job.id.len() as f64, 0.5])
        };
        let mk_opts = |manifest: &str| SupervisorOptions {
            store: Some(store_dir.clone()),
            manifest: Some(dir.join(manifest)),
            sweep_spec: "store-sweep".into(),
            ..SupervisorOptions::default()
        };

        let cold = run_sweep(&js, &mk_opts("cold.jsonl"), &runner).unwrap();
        assert_eq!(cold.completed(), 2);
        assert_eq!((cold.store_hits, cold.store_computed), (0, 2));
        assert_eq!(calls.load(Ordering::SeqCst), 2);

        let warm = run_sweep(&js, &mk_opts("warm.jsonl"), &runner).unwrap();
        assert_eq!(warm.completed(), 2);
        assert_eq!((warm.store_hits, warm.store_computed), (2, 0));
        assert_eq!(calls.load(Ordering::SeqCst), 2, "no cell re-simulated");
        for job in &js {
            assert_eq!(warm.payload(&job.id), cold.payload(&job.id));
            match warm.outcomes.get(&job.id) {
                Some(JobOutcome::Completed { cached: true, .. }) => {}
                other => panic!("expected a cached outcome, got {other:?}"),
            }
        }
        // Hits carry provenance in the manifest, and resume accepts them.
        let manifest = std::fs::read_to_string(dir.join("warm.jsonl")).unwrap();
        assert!(manifest.contains("\"cached\""), "{manifest}");
        let m = load_manifest(&dir.join("warm.jsonl")).unwrap();
        assert_eq!(m.completed.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_store_entries_are_quarantined_and_recomputed() {
        let dir = std::env::temp_dir().join("crisp-harness-supervisor-store-corrupt");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let store_dir = dir.join("store");
        let js = jobs(&["cell"]);
        let opts = SupervisorOptions {
            store: Some(store_dir.clone()),
            ..SupervisorOptions::default()
        };
        let runner = |_job: &JobSpec, _ctx: &RunContext| Ok(vec![2.5, -0.75, 1.0 / 3.0]);
        let cold = run_sweep(&js, &opts, &runner).unwrap();
        assert_eq!(cold.store_computed, 1);

        // Flip one payload bit in the published entry.
        let store = crisp_store::Store::open(&store_dir).unwrap();
        let path = store.entry_path(crate::store::cell_key(&js[0].id, &js[0].spec));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 20;
        bytes[mid] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();

        // The corrupt entry is never served: it is quarantined and the
        // cell re-simulated to an identical payload.
        let repaired = run_sweep(&js, &opts, &runner).unwrap();
        assert_eq!(repaired.store_quarantined, 1);
        assert_eq!((repaired.store_hits, repaired.store_computed), (0, 1));
        assert_eq!(repaired.payload("cell"), cold.payload("cell"));
        let corpses = std::fs::read_dir(store.quarantine_dir()).unwrap().count();
        assert_eq!(corpses, 1, "the corrupt bytes are preserved");

        // And the repair is durable: the next sweep hits.
        let warm = run_sweep(&js, &opts, &runner).unwrap();
        assert_eq!((warm.store_hits, warm.store_quarantined), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stop_token_drains_the_pool_and_resume_finishes() {
        let dir = std::env::temp_dir().join("crisp-harness-supervisor-drain");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let js = jobs(&["slow", "trigger"]);
        let stop = CancelToken::new();

        let opts = SupervisorOptions {
            workers: 2,
            manifest: Some(path.clone()),
            sweep_spec: "drain-sweep".into(),
            stop: Some(stop.clone()),
            ..SupervisorOptions::default()
        };
        let stop_for_runner = stop.clone();
        let report = run_sweep(&js, &opts, &move |job, ctx| {
            if job.id == "trigger" {
                // Stand-in for SIGTERM arriving mid-sweep.
                stop_for_runner.cancel();
                return Ok(vec![7.0]);
            }
            // Cooperative poll loop, like the engine's cancel path.
            loop {
                if ctx.cancel.should_abort().is_some() {
                    return Err(CrispError::Simulation(crisp_sim::SimError::Cancelled {
                        cycle: 3,
                        retired: 1,
                        total: 10,
                    }));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        })
        .unwrap();
        assert!(report.interrupted, "drained before `slow` finished");
        assert!(!report.crashed);
        assert!(
            !report.outcomes.contains_key("slow"),
            "an interrupted cell gets no final outcome"
        );
        assert_eq!(report.payload("trigger"), Some(&[7.0][..]));

        // Resume without a stop request: the survivor restores, the
        // interrupted cell re-runs.
        let opts = SupervisorOptions {
            manifest: Some(path.clone()),
            sweep_spec: "drain-sweep".into(),
            resume: true,
            ..SupervisorOptions::default()
        };
        let resumed = run_sweep(&js, &opts, &|_job, _ctx| Ok(vec![3.0])).unwrap();
        assert!(!resumed.interrupted);
        assert_eq!(resumed.completed(), 2);
        assert_eq!(resumed.resumed, 1);
        assert_eq!(
            resumed.skipped_manifest_lines, 0,
            "a drain leaves a clean manifest, unlike a crash"
        );
        assert_eq!(resumed.payload("slow"), Some(&[3.0][..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_sweep_waiting_on_a_held_cell_lock_drains_on_stop() {
        let dir = std::env::temp_dir().join("crisp-harness-supervisor-lock-drain");
        std::fs::remove_dir_all(&dir).ok();
        let store = crisp_store::Store::open(&dir).unwrap();
        let js = jobs(&["held"]);
        // Stands in for another sweep process computing the same cell.
        let _held = store
            .try_lock(crate::store::cell_key(&js[0].id, &js[0].spec))
            .unwrap()
            .expect("the cell's lock is free");

        let stop = CancelToken::new();
        let opts = SupervisorOptions {
            store: Some(dir.clone()),
            stop: Some(stop.clone()),
            ..SupervisorOptions::default()
        };
        // Not a scope: a sweep that never stops waiting must fail the
        // test at the timeout below, not hang it.
        let (tx, rx) = std::sync::mpsc::channel();
        let sweep = std::thread::spawn(move || {
            let _ = tx.send(run_sweep(&js, &opts, &|_job, _ctx| Ok(vec![1.0])));
        });
        // Far longer than the worker takes to reach its wait on `_held`.
        std::thread::sleep(Duration::from_millis(100));
        stop.cancel();
        let report = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("the waiting sweep drains once stop trips")
            .unwrap();
        sweep.join().expect("sweep thread");
        assert!(report.interrupted);
        assert!(!report.outcomes.contains_key("held"), "left unrecorded");
        assert_eq!((report.store_hits, report.store_computed), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_append_failures_degrade_durability_not_the_sweep() {
        let dir = std::env::temp_dir().join("crisp-harness-supervisor-enospc");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let js = jobs(&["a", "b", "c"]);
        let opts = SupervisorOptions {
            manifest: Some(path.clone()),
            sweep_spec: "enospc-sweep".into(),
            fail_journal_appends: 2,
            ..SupervisorOptions::default()
        };
        let report = run_sweep(&js, &opts, &|job, _ctx| Ok(vec![job.id.len() as f64])).unwrap();
        assert_eq!(report.completed(), 3, "I/O failures never fail a job");
        assert!(!report.crashed);
        assert_eq!(report.journal_write_failures, 2);

        let m = load_manifest(&path).unwrap();
        assert_eq!(m.skipped_lines, 0, "failed appends roll back cleanly");
        assert_eq!(m.completed.len(), 1, "only the surviving record landed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_spec_hash_invalidates_a_restored_payload() {
        let dir = std::env::temp_dir().join("crisp-harness-supervisor-hash");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let old = vec![JobSpec::new("a", "a spec-v1")];
        let opts = SupervisorOptions {
            manifest: Some(path.clone()),
            ..SupervisorOptions::default()
        };
        run_sweep(&old, &opts, &|_, _| Ok(vec![1.0])).unwrap();

        let new = vec![JobSpec::new("a", "a spec-v2")];
        let opts = SupervisorOptions {
            manifest: Some(path.clone()),
            resume: true,
            ..SupervisorOptions::default()
        };
        let report = run_sweep(&new, &opts, &|_, _| Ok(vec![2.0])).unwrap();
        assert_eq!(report.resumed, 0, "stale payload must not be restored");
        assert_eq!(report.payload("a"), Some(&[2.0][..]));
        std::fs::remove_dir_all(&dir).ok();
    }
}
