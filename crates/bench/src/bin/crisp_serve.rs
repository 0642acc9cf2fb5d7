//! `crisp-serve` — the fault-tolerant sweep daemon.
//!
//! Wraps the supervised sweep ([`crisp_bench::sweep`]) behind the
//! HTTP/1.1 job API in [`crisp_serve`]: admission-controlled submission
//! (bounded queue, 429 + `Retry-After`), idempotent job ids
//! (content-addressed over the cell set), graceful drain on
//! SIGTERM/SIGINT (in-flight cells abort via the supervisor's stop
//! token and stay unrecorded, then exit 0), and crash recovery (on
//! restart, every admitted job without a result re-queues and resumes
//! from its own manifest, recomputing each unrecorded cell from its
//! start, so pre-crash job ids poll through to byte-identical tables).
//!
//! ```text
//! Usage: crisp-serve [OPTIONS]
//!
//! Options:
//!   --data DIR           Data directory: job registry, endpoint file,
//!                        daemon lock (default crisp-serve-data)
//!   --addr HOST:PORT     Bind address; port 0 picks a free port and the
//!                        chosen endpoint lands in <data>/endpoint
//!                        (default 127.0.0.1:0)
//!   --store DIR          Shared result store (default <data>/store)
//!   --queue N            Admission cap: queued + running jobs (default 16)
//!   --max-conns N        Concurrent connection cap (default 32)
//!   --jobs N             Sweep worker threads per job, sharing one
//!                        stage memo (default 1)
//!   --deadline SECS      Per-attempt cell deadline
//!   --heartbeat MS       Supervisor heartbeat cadence (default 250)
//!   --retry-after-ms MS  Backpressure hint in 429/503 responses
//!                        (default 2000; rounded up to whole seconds)
//!   --cell-delay-ms MS   Test hook: idle window at the start of every
//!                        computed cell (widens chaos-test windows)
//!   --quiet              Suppress per-job progress lines
//! ```
//!
//! Exit codes: `0` clean drain after SIGTERM/SIGINT, `2` usage error,
//! `5` startup failure (bind, lock, registry).

use crisp_bench::sweep::{build_jobs, run_supervised_sweep, sweep_spec, SweepConfig};
use crisp_bench::{all_targets, ExperimentScale};
use crisp_harness::{cell_key, EventSink};
use crisp_obs::json::Value;
use crisp_serve::{
    run_daemon, signal, DaemonConfig, ExecCtx, ExecResult, JobPlan, JobRecord, PrefetchTotals,
    SubmitRequest,
};
use crisp_sim::CancelToken;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Duration;

const EXIT_USAGE: u8 = 2;
const EXIT_STARTUP: u8 = 5;

/// Daemon-side sweep knobs that are not part of a submission.
struct ServeOptions {
    workers: usize,
    deadline: Option<Duration>,
    heartbeat: Duration,
    cell_delay: Option<Duration>,
    progress: bool,
}

struct UsageError(String);

fn usage() {
    eprintln!(
        "usage: crisp-serve [--data DIR] [--addr HOST:PORT] [--store DIR] [--queue N]\n\
         \x20                  [--max-conns N] [--jobs N] [--deadline SECS]\n\
         \x20                  [--heartbeat MS] [--retry-after-ms MS]\n\
         \x20                  [--cell-delay-ms MS] [--quiet]"
    );
}

fn parse_args(args: &[String]) -> Result<(DaemonConfig, ServeOptions), UsageError> {
    let mut cfg = DaemonConfig::default();
    let mut opts = ServeOptions {
        workers: 1,
        deadline: None,
        heartbeat: Duration::from_millis(250),
        cell_delay: None,
        progress: true,
    };
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| UsageError(format!("{flag} requires a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--data" => cfg.data_dir = PathBuf::from(value("--data", &mut it)?),
            "--addr" => cfg.addr = value("--addr", &mut it)?,
            "--store" => cfg.store_dir = Some(PathBuf::from(value("--store", &mut it)?)),
            "--queue" => {
                let v = value("--queue", &mut it)?;
                cfg.queue_cap = v.parse::<usize>().ok().filter(|n| *n > 0).ok_or_else(|| {
                    UsageError(format!("--queue expects a positive integer, got `{v}`"))
                })?;
            }
            "--max-conns" => {
                let v = value("--max-conns", &mut it)?;
                cfg.max_connections =
                    v.parse::<usize>().ok().filter(|n| *n > 0).ok_or_else(|| {
                        UsageError(format!("--max-conns expects a positive integer, got `{v}`"))
                    })?;
            }
            "--jobs" => {
                let v = value("--jobs", &mut it)?;
                opts.workers = v.parse::<usize>().ok().filter(|n| *n > 0).ok_or_else(|| {
                    UsageError(format!("--jobs expects a positive integer, got `{v}`"))
                })?;
            }
            "--deadline" => {
                let v = value("--deadline", &mut it)?;
                let deadline = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .and_then(|s| Duration::try_from_secs_f64(s).ok())
                    .ok_or_else(|| {
                        UsageError(format!("--deadline expects positive seconds, got `{v}`"))
                    })?;
                opts.deadline = Some(deadline);
            }
            "--heartbeat" => {
                let v = value("--heartbeat", &mut it)?;
                let ms = v.parse::<u64>().ok().filter(|n| *n > 0).ok_or_else(|| {
                    UsageError(format!(
                        "--heartbeat expects positive milliseconds, got `{v}`"
                    ))
                })?;
                opts.heartbeat = Duration::from_millis(ms);
            }
            "--retry-after-ms" => {
                let v = value("--retry-after-ms", &mut it)?;
                let ms = v.parse::<u64>().ok().filter(|n| *n > 0).ok_or_else(|| {
                    UsageError(format!(
                        "--retry-after-ms expects positive milliseconds, got `{v}`"
                    ))
                })?;
                cfg.retry_after = Duration::from_millis(ms);
            }
            "--cell-delay-ms" => {
                let v = value("--cell-delay-ms", &mut it)?;
                let ms = v.parse::<u64>().ok().filter(|n| *n > 0).ok_or_else(|| {
                    UsageError(format!(
                        "--cell-delay-ms expects positive milliseconds, got `{v}`"
                    ))
                })?;
                opts.cell_delay = Some(Duration::from_millis(ms));
            }
            "--quiet" => opts.progress = false,
            other => return Err(UsageError(format!("unknown flag: {other}"))),
        }
    }
    Ok((cfg, opts))
}

/// Rebuilds the sweep config a job's submission describes. Both the
/// planner and the executor go through this, so the cells the 202
/// acknowledged are exactly the cells the sweep runs — across restarts.
fn sweep_config(request: &SubmitRequest) -> Result<SweepConfig, String> {
    let scale: ExperimentScale = request.scale.parse()?;
    let known = all_targets();
    for t in &request.targets {
        if !known.contains(t) {
            return Err(format!(
                "unknown target `{t}` (expected one of: {})",
                known.join(", ")
            ));
        }
    }
    // Canonical order regardless of submission order, so reordered
    // target lists and workload filters coalesce onto the same job.
    let targets: Vec<String> = known
        .into_iter()
        .filter(|t| request.targets.contains(t))
        .collect();
    let workloads = request.workloads.clone().map(|mut w| {
        w.sort();
        w.dedup();
        w
    });
    // Validate the optional prefetcher override up front (against the
    // builtin registry), so a bad spec is a 400 — not a failed sweep.
    let prefetcher = match &request.prefetcher {
        Some(spec) => {
            let parsed: crisp_sim::PrefetcherSpec =
                spec.parse().map_err(|e| format!("bad `prefetcher`: {e}"))?;
            crisp_sim::PrefetcherRegistry::builtin()
                .build(&parsed)
                .map_err(|e| format!("bad `prefetcher`: {e}"))?;
            Some(parsed)
        }
        None => None,
    };
    Ok(SweepConfig {
        scale,
        targets,
        workloads,
        prefetcher,
        ..SweepConfig::default()
    })
}

fn plan(request: &SubmitRequest) -> Result<JobPlan, String> {
    let cfg = sweep_config(request)?;
    let jobs = build_jobs(&cfg);
    Ok(JobPlan {
        request: SubmitRequest {
            targets: cfg.targets.clone(),
            workloads: cfg.workloads.clone(),
            scale: request.scale.clone(),
            // Canonical spec string, so spelling variants of the same
            // zoo coalesce onto the same job id.
            prefetcher: cfg.prefetcher.map(|p| p.to_string()),
        },
        spec: sweep_spec(&cfg),
        cells: jobs.iter().map(|j| cell_key(&j.id, &j.spec)).collect(),
    })
}

fn exec(opts: &ServeOptions, record: &JobRecord, ctx: &ExecCtx) -> Result<ExecResult, String> {
    let mut cfg = sweep_config(&record.request)?;
    cfg.workers = opts.workers;
    cfg.deadline = opts.deadline;
    cfg.manifest = Some(ctx.manifest.clone());
    cfg.resume = ctx.resume;
    cfg.store = Some(ctx.store.clone());
    cfg.stop = Some(ctx.stop.clone());
    cfg.heartbeat = Some(opts.heartbeat);
    cfg.cell_delay = opts.cell_delay;
    cfg.progress = opts.progress;
    // Supervisor and stage spans hang under the daemon's execute span.
    cfg.spans = Some(crisp_harness::SpanScope {
        path: ctx.spans.clone(),
        trace: ctx.trace.clone(),
        parent: ctx.span_parent,
    });
    // Live events land next to the job's manifest as append-only NDJSON
    // — exactly what GET /jobs/<id>/events tails. No fsync: the stream
    // is advisory telemetry, the manifest stays the durability record.
    let events_path = ctx.manifest.with_file_name("events.jsonl");
    cfg.events = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&events_path)
        .ok()
        .map(|file| {
            let file = Mutex::new(file);
            EventSink::new(move |event: &Value| {
                if let Ok(mut f) = file.lock() {
                    let _ = writeln!(f, "{}", event.encode());
                }
            })
        });
    let out = run_supervised_sweep(&cfg).map_err(|e| e.to_string())?;
    let report = &out.report;
    if report.crashed {
        // The injected-crash hook is not reachable here; a crashed
        // report means the manifest is unusable — fail the job.
        return Err("sweep crashed mid-manifest".to_string());
    }
    Ok(ExecResult {
        rendered: out.rendered,
        completed: report.completed(),
        failed: report.failed(),
        interrupted: report.interrupted,
        store_hits: report.store_hits,
        store_computed: report.store_computed,
        prefetch: prefetch_totals(report),
    })
}

/// Folds the job's `prefzoo` cell payloads into per-mechanism
/// issued/useful/late totals for the daemon's labeled Prometheus
/// families. Jobs without the prefzoo target report nothing.
fn prefetch_totals(report: &crisp_harness::SweepReport) -> Vec<PrefetchTotals> {
    let mechs = crisp_bench::cells::ZOO_MECHS;
    let mut totals: Vec<PrefetchTotals> = mechs
        .iter()
        .map(|m| PrefetchTotals {
            name: (*m).to_string(),
            ..PrefetchTotals::default()
        })
        .collect();
    let mut seen = false;
    for id in report.outcomes.keys() {
        if !id.starts_with("prefzoo/") {
            continue;
        }
        let Some(payload) = report.payload(id) else {
            continue;
        };
        // Eight fields per mechanism block; issued/useful/late sit at
        // offsets 5..=7 (see `cells::cell_prefzoo`).
        if payload.len() != mechs.len() * 8 {
            continue;
        }
        seen = true;
        for (i, t) in totals.iter_mut().enumerate() {
            t.issued += payload[i * 8 + 5] as u64;
            t.useful += payload[i * 8 + 6] as u64;
            t.late += payload[i * 8 + 7] as u64;
        }
    }
    if !seen {
        return Vec::new();
    }
    totals
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(UsageError(msg)) => {
            eprintln!("crisp-serve: {msg}");
            usage();
            return ExitCode::from(EXIT_USAGE);
        }
    };

    // SIGTERM/SIGINT → cancel the shutdown token → the daemon stops
    // admitting, drains in-flight cells through the supervisor's stop
    // path, fsyncs manifests, and run_daemon returns Ok.
    signal::install();
    let shutdown = CancelToken::new();
    signal::watch(shutdown.clone());

    let outcome = run_daemon(
        &cfg,
        &plan,
        &move |record: &JobRecord, ctx: &ExecCtx| exec(&opts, record, ctx),
        &shutdown,
    );
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("crisp-serve: {e}");
            ExitCode::from(EXIT_STARTUP)
        }
    }
}
