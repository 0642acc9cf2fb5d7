//! `pool-bench` — seeds the multi-process scaling trajectory
//! (`BENCH_8.json`).
//!
//! Runs the fast `fig1` sweep twice through the worker pool — once on a
//! single `crisp-worker` process, once on N — and records both
//! wall-clocks, so later PRs can track the pool's dispatch overhead and
//! parallel speedup across the repo's history.
//!
//! ```text
//! usage: pool-bench [--out PATH] [--workers N]
//! exit codes: 0 ok, 1 benchmark invariant broken, 2 usage error
//! ```
//!
//! The two runs must render byte-identical tables: parallel dispatch
//! order must never leak into results. Any divergence is a correctness
//! failure of the pool, not a benchmark artifact, so it fails the run.

use crisp_bench::sweep::{run_supervised_sweep, SweepConfig, SweepOutput};
use crisp_bench::ExperimentScale;
use crisp_harness::{PoolOptions, WorkerPool};
use crisp_obs::json::Value;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

fn usage() -> std::process::ExitCode {
    eprintln!("usage: pool-bench [--out PATH] [--workers N]");
    std::process::ExitCode::from(2)
}

const TARGET: &str = "fig1";

/// One pooled sweep on `workers` processes; returns its wall-clock.
fn one_run(workers: usize) -> Result<(f64, SweepOutput), String> {
    let worker_bin = std::env::current_exe()
        .map_err(|e| format!("cannot locate own binary: {e}"))?
        .with_file_name("crisp-worker");
    let pool = Arc::new(WorkerPool::spawn(PoolOptions {
        worker_bin,
        workers,
        ..PoolOptions::default()
    })?);
    let cfg = SweepConfig {
        scale: ExperimentScale::Fast,
        targets: vec![TARGET.to_string()],
        workers,
        pool: Some(Arc::clone(&pool)),
        ..SweepConfig::default()
    };
    let started = Instant::now();
    let out = run_supervised_sweep(&cfg).map_err(|e| e.to_string())?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    pool.shutdown();
    if out.report.crashed || out.degraded() {
        return Err(format!(
            "{workers}-worker sweep did not complete clean: {:?}",
            out.report.taxonomy()
        ));
    }
    Ok((wall_ms, out))
}

fn main() -> std::process::ExitCode {
    let mut out = PathBuf::from("BENCH_8.json");
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(2)
        .max(2);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(v) => out = PathBuf::from(v),
                None => return usage(),
            },
            "--workers" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v >= 2 => workers = v,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }

    // Page in the binaries and simulator tables once, off the clock, so
    // the 1-worker run does not absorb every first-touch cost.
    let warmup = SweepConfig {
        scale: ExperimentScale::Tiny,
        targets: vec![TARGET.to_string()],
        ..SweepConfig::default()
    };
    if let Err(e) = run_supervised_sweep(&warmup) {
        eprintln!("pool-bench: warm-up sweep failed: {e}");
        return std::process::ExitCode::from(1);
    }

    let (serial_ms, serial) = match one_run(1) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pool-bench: 1-worker run failed: {e}");
            return std::process::ExitCode::from(1);
        }
    };
    let (pooled_ms, pooled) = match one_run(workers) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pool-bench: {workers}-worker run failed: {e}");
            return std::process::ExitCode::from(1);
        }
    };

    let identical = !serial.rendered.is_empty() && serial.rendered == pooled.rendered;
    let cells = serial.report.outcomes.len();
    let doc = Value::Obj(vec![
        ("bench".into(), Value::Str("pool-scaling-wall-clock".into())),
        ("target".into(), Value::Str(TARGET.into())),
        ("scale".into(), Value::Str("fast".into())),
        ("cells".into(), Value::Num(cells as f64)),
        ("workers".into(), Value::Num(workers as f64)),
        ("serial_wall_ms".into(), Value::Num(serial_ms)),
        ("pooled_wall_ms".into(), Value::Num(pooled_ms)),
        (
            "speedup".into(),
            Value::Num(if pooled_ms > 0.0 {
                serial_ms / pooled_ms
            } else {
                0.0
            }),
        ),
        ("identical_render".into(), Value::Bool(identical)),
    ]);
    if let Err(e) = std::fs::write(&out, format!("{}\n", doc.encode())) {
        eprintln!("pool-bench: writing {} failed: {e}", out.display());
        return std::process::ExitCode::from(1);
    }
    eprintln!(
        "[pool-bench] {cells} cell(s): 1 worker {serial_ms:.0} ms, {workers} workers {pooled_ms:.0} ms -> {}",
        out.display()
    );

    if !identical {
        eprintln!("pool-bench: pooled render differs from the 1-worker render");
        return std::process::ExitCode::from(1);
    }
    std::process::ExitCode::SUCCESS
}
