//! `crisp-worker` — the pool's cell-execution process.
//!
//! Spawned by a [`crisp_harness::WorkerPool`] (one per pool slot), never
//! run by hand. Speaks the length-prefixed JSON frame protocol on
//! stdin/stdout (stdout carries *only* frames; all human-facing output
//! goes to stderr, where the pool's forensic tail collector keeps it):
//!
//! 1. sends `hello` with its binary semver and `RESULT_SCHEMA`, and
//!    waits for `accept` — a `refuse` (version skew) exits 3;
//! 2. for each `run` frame, rebuilds the cell from `id`/`spec`/`scale`
//!    and simulates it on a compute thread while the main thread emits
//!    `heartbeat` frames (cycles, instructions) at the requested
//!    cadence — these renew the cell's lease pool-side;
//! 3. answers `ok` (payload) or `fail` (class, error, structured
//!    detail, classified with the harness taxonomy);
//! 4. a `shutdown` frame or stdin EOF exits 0.
//!
//! Chaos hooks (driven by the pool's `extra` fields): `abort:true`
//! calls [`std::process::abort`] mid-cell — the poison-quarantine
//! path — and `cell_delay_ms` widens the mid-cell window SIGKILL chaos
//! tests aim at. `CRISP_WORKER_FAKE_VERSION` overrides the reported
//! semver so tests can exercise version-skew refusal.
//!
//! Exit codes: `0` clean shutdown, `3` refused handshake, `5` protocol
//! failure.

use crisp_bench::cells::{self, CellOptions};
use crisp_bench::ExperimentScale;
use crisp_core::StageMemo;
use crisp_harness::supervisor::LeaseGuard;
use crisp_harness::{
    failure_detail, read_frame, write_frame, FailureClass, JobSpec, RunContext, RESULT_SCHEMA,
};
use crisp_obs::json::Value;
use crisp_sim::{CancelToken, ProgressBeacon};
use std::io::{Stdin, Stdout};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const EXIT_REFUSED: u8 = 3;
const EXIT_PROTOCOL: u8 = 5;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn send(out: &mut Stdout, frame: &Value) -> Result<(), ExitCode> {
    write_frame(out, frame).map_err(|e| {
        eprintln!("crisp-worker: frame write failed: {e}");
        ExitCode::from(EXIT_PROTOCOL)
    })
}

fn handle_run(frame: &Value, out: &mut Stdout) -> Result<(), ExitCode> {
    let id = frame.get("id").and_then(Value::as_str).unwrap_or("");
    let spec = frame.get("spec").and_then(Value::as_str).unwrap_or("");
    let attempt = frame
        .get("attempt")
        .and_then(Value::as_u64)
        .and_then(|a| u32::try_from(a).ok())
        .unwrap_or(1);
    let heartbeat = Duration::from_millis(
        frame
            .get("heartbeat_ms")
            .and_then(Value::as_u64)
            .unwrap_or(100)
            .max(1),
    );
    let cell_delay = frame
        .get("cell_delay_ms")
        .and_then(Value::as_u64)
        .map(Duration::from_millis);
    let stall = frame.get("stall") == Some(&Value::Bool(true));
    // The poison-chaos hook: die the ugliest possible way, mid-cell.
    if frame.get("abort") == Some(&Value::Bool(true)) {
        eprintln!("crisp-worker: injected abort for {id}");
        std::process::abort();
    }
    let scale_name = frame.get("scale").and_then(Value::as_str).unwrap_or("?");
    let Ok(scale) = scale_name.parse::<ExperimentScale>() else {
        return send(
            out,
            &obj(vec![
                ("type", Value::Str("fail".to_string())),
                ("class", Value::Str(FailureClass::Config.name().to_string())),
                ("error", Value::Str(format!("unknown scale `{scale_name}`"))),
            ]),
        );
    };
    // The sweep's `--prefetcher` override rides the dispatch frame.
    let prefetcher = match frame.get("prefetcher").and_then(Value::as_str) {
        Some(spec) => match spec.parse::<crisp_sim::PrefetcherSpec>() {
            Ok(p) => Some(p),
            Err(e) => {
                return send(
                    out,
                    &obj(vec![
                        ("type", Value::Str("fail".to_string())),
                        ("class", Value::Str(FailureClass::Config.name().to_string())),
                        ("error", Value::Str(format!("bad prefetcher spec: {e}"))),
                    ]),
                );
            }
        },
        None => None,
    };

    // Span plumbing: the supervisor hands down the trace, the span log
    // path, and its cell span's id; this process hangs its `simulate`
    // span (tagged with our pid) underneath it.
    let span_scope = frame
        .get("trace")
        .and_then(Value::as_str)
        .zip(frame.get("span_path").and_then(Value::as_str))
        .map(|(trace, path)| crisp_harness::SpanScope {
            path: path.into(),
            trace: trace.to_string(),
            parent: frame
                .get("span_parent")
                .and_then(Value::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or(0),
        });

    let job = JobSpec::new(id, spec);
    let ctx = RunContext {
        attempt,
        cancel: CancelToken::new(),
        progress: ProgressBeacon::new(),
        lease: LeaseGuard::default(),
    };
    let progress = ctx.progress.clone();
    let done = Arc::new(AtomicBool::new(false));
    let done_flag = Arc::clone(&done);
    // Stage spans hang under this process's `simulate` span.
    let stage_scope = span_scope.as_ref().map(|s| crisp_harness::SpanScope {
        parent: crisp_harness::span_id(&s.trace, &format!("simulate {id}#{attempt}")),
        ..s.clone()
    });
    let simulate_started_ns = crisp_harness::unix_ns();
    // Compute on a side thread; the main thread owns stdout and streams
    // heartbeats, so the pool's lease clock keeps advancing even while
    // the simulator is head-down in a long cell.
    let compute = std::thread::spawn(move || {
        // A panicking cell must still flip the done flag, or the
        // heartbeat loop below would pump a dead attempt forever.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(delay) = cell_delay {
                std::thread::sleep(delay);
            }
            // Telemetry sinks stay daemon-side concerns; the pool's unit
            // of recovery is the whole cell, over a memo of its own.
            let memo = StageMemo::new();
            let stages = memo.cell(Some(ctx.cancel.clone()));
            let proc_name = format!("worker:{}", std::process::id());
            let stages = match &stage_scope {
                Some(scope) => {
                    stages.observed(scope.stage_observer(&job.id, ctx.attempt, &proc_name))
                }
                None => stages,
            };
            let opts = CellOptions {
                scale,
                obs: None,
                prefetcher,
            };
            cells::run_cell_in(&stages, &job, &ctx, stall, &opts)
        }));
        done_flag.store(true, Ordering::SeqCst);
        result
    });
    while !done.load(Ordering::SeqCst) {
        std::thread::sleep(heartbeat);
        let (cycles, instrs) = progress.read();
        send(
            out,
            &obj(vec![
                ("type", Value::Str("heartbeat".to_string())),
                ("cycles", Value::Num(cycles as f64)),
                ("instrs", Value::Num(instrs as f64)),
            ]),
        )?;
    }
    // The outer join only fails if the thread died *outside* the
    // catch_unwind (impossible today); fold it into the same panic arm.
    let joined = compute.join().unwrap_or_else(Err);
    if let Some(scope) = &span_scope {
        scope.emit(
            &format!("simulate {id}#{attempt}"),
            &format!("worker:{}", std::process::id()),
            simulate_started_ns,
            crisp_harness::unix_ns(),
        );
    }
    let response = match joined {
        Ok(Ok(payload)) => obj(vec![
            ("type", Value::Str("ok".to_string())),
            (
                "payload",
                Value::Arr(payload.into_iter().map(Value::Num).collect()),
            ),
        ]),
        Ok(Err(e)) => {
            let mut pairs = vec![
                ("type", Value::Str("fail".to_string())),
                (
                    "class",
                    Value::Str(FailureClass::classify(&e).name().to_string()),
                ),
                ("error", Value::Str(e.to_string())),
            ];
            if let Some(detail) = failure_detail(&e) {
                pairs.push(("detail", detail));
            }
            obj(pairs)
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            obj(vec![
                ("type", Value::Str("fail".to_string())),
                ("class", Value::Str(FailureClass::Panic.name().to_string())),
                ("error", Value::Str(msg)),
            ])
        }
    };
    send(out, &response)
}

fn serve(stdin: &mut Stdin, out: &mut Stdout) -> ExitCode {
    // Handshake: introduce ourselves, then wait for the verdict.
    let version = std::env::var("CRISP_WORKER_FAKE_VERSION")
        .unwrap_or_else(|_| env!("CARGO_PKG_VERSION").to_string());
    let hello = obj(vec![
        ("type", Value::Str("hello".to_string())),
        ("version", Value::Str(version)),
        ("schema", Value::Num(f64::from(RESULT_SCHEMA))),
        ("pid", Value::Num(f64::from(std::process::id()))),
    ]);
    if let Err(code) = send(out, &hello) {
        return code;
    }
    match read_frame(stdin) {
        Ok(Some(f)) if f.get("type").and_then(Value::as_str) == Some("accept") => {}
        Ok(Some(f)) if f.get("type").and_then(Value::as_str) == Some("refuse") => {
            let reason = f
                .get("reason")
                .and_then(Value::as_str)
                .unwrap_or("no reason given");
            eprintln!("crisp-worker: refused by pool: {reason}");
            return ExitCode::from(EXIT_REFUSED);
        }
        other => {
            eprintln!("crisp-worker: handshake failed: {other:?}");
            return ExitCode::from(EXIT_PROTOCOL);
        }
    }
    loop {
        let frame = match read_frame(stdin) {
            Ok(Some(f)) => f,
            // EOF: the pool is gone; exit quietly.
            Ok(None) => return ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("crisp-worker: frame read failed: {e}");
                return ExitCode::from(EXIT_PROTOCOL);
            }
        };
        match frame.get("type").and_then(Value::as_str) {
            Some("run") => {
                if let Err(code) = handle_run(&frame, out) {
                    return code;
                }
            }
            Some("shutdown") => return ExitCode::SUCCESS,
            other => {
                eprintln!("crisp-worker: unexpected frame type {other:?}");
                return ExitCode::from(EXIT_PROTOCOL);
            }
        }
    }
}

fn main() -> ExitCode {
    let mut stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    serve(&mut stdin, &mut stdout)
}
