//! The supervised experiment runner: `crisp bench` with crash isolation,
//! deadlines and resumable manifests.
//!
//! ```text
//! Usage: crisp-bench [OPTIONS] [TARGETS...]
//!
//! Targets: table1 fig1 fig4 fig7 fig8 fig9 fig10 fig11 fig12 ablations
//!          prefzoo all (default: all)
//!
//! Options:
//!   --fast               Fast scale (smaller sim windows)
//!   --tiny               Tiny scale (smoke runs only)
//!   --prefetcher SPEC    Override the data-prefetcher zoo for every cell:
//!                        NAME[:k=v,...] units joined with `+`, e.g.
//!                        `spp:depth=4+stream` or `none` (default:
//!                        bop+stream, the Table 1 baseline)
//!   --jobs N             Worker threads (default 1)
//!   --deadline SECS      Per-cell wall-clock deadline (fractional ok)
//!   --manifest PATH      Journal every cell's outcome to a JSONL run
//!                        manifest
//!   --resume PATH        Resume a sweep from its manifest: re-run the
//!                        cells that failed or never finished (implies
//!                        --manifest PATH; flags must match, --deadline
//!                        may differ)
//!   --workloads A,B,C    Only run these workloads
//!   --telemetry DIR      Write one interval-telemetry JSONL stream (plus a
//!                        top-K stall-attribution table) per simulated
//!                        sub-run into DIR (cells that drive sims directly)
//!   --pipe-trace DIR     Write one Kanata/Konata pipeline trace per
//!                        simulated sub-run into DIR
//!   --heartbeat MS       Journal each running cell's progress (cycles,
//!                        instructions, wall-clock) every MS milliseconds;
//!                        failures cite the last heartbeat
//!   --store DIR          Content-addressed result store: completed cells
//!                        are published to DIR and verified entries skip
//!                        simulation on later sweeps (corrupt entries are
//!                        quarantined and re-simulated; concurrent sweeps
//!                        coordinate via per-cell locks)
//!   --inject-panic SUB   Chaos: panic in jobs whose id contains SUB
//!                        (repeatable)
//!   --inject-stall SUB   Chaos: freeze the scheduler in jobs whose id
//!                        contains SUB so the watchdog fires (repeatable)
//!   --cell-delay-ms MS   Test hook: idle this long (cancellably) at the
//!                        start of every computed cell, widening the
//!                        mid-cell window chaos tests need to hit
//!   --quiet              Suppress per-job progress lines
//! ```
//!
//! SIGTERM/SIGINT drain the sweep gracefully: queued cells stay
//! unrecorded, in-flight cells abort cooperatively, the manifest is
//! fsynced, and the run exits 6 with a `--resume` hint — resuming
//! recomputes every unrecorded cell from its start and completes the
//! sweep with byte-identical reports.
//!
//! A cell runs once per sweep: a failure of any class is final for that
//! run, and `--resume` re-runs the failed cells.
//!
//! Exit codes: 0 = every cell completed; 2 = usage error; 5 = supervisor
//! failure (bad manifest, injected crash fired); 6 = completed **degraded**
//! (some cells failed; reports carry `[DEGRADED]` annotations and a
//! failure taxonomy — partial results were salvaged — and `--resume`
//! re-runs the failed cells) or **interrupted** by SIGTERM/SIGINT (resume
//! with `--resume`).

use crisp_bench::sweep::{build_jobs, run_supervised_sweep, sweep_spec, SweepConfig};
use crisp_bench::{all_targets, ExperimentScale};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const EXIT_USAGE: u8 = 2;
const EXIT_SUPERVISOR: u8 = 5;
const EXIT_DEGRADED: u8 = 6;

const KNOWN_TARGETS: [&str; 12] = [
    "table1",
    "fig1",
    "fig4",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablations",
    "prefzoo",
    "all",
];

fn usage() {
    eprintln!(
        "usage: crisp-bench [--fast|--tiny] [--jobs N] [--deadline SECS]\n\
         \x20                  [--manifest PATH] [--resume PATH] [--workloads A,B,C]\n\
         \x20                  [--prefetcher SPEC]\n\
         \x20                  [--telemetry DIR] [--pipe-trace DIR] [--heartbeat MS]\n\
         \x20                  [--store DIR] [--inject-panic SUB] [--inject-stall SUB]\n\
         \x20                  [--cell-delay-ms MS] [--quiet] [{}]",
        KNOWN_TARGETS.join("|")
    );
}

struct UsageError(String);

fn parse_args(args: &[String]) -> Result<SweepConfig, UsageError> {
    let mut cfg = SweepConfig {
        scale: ExperimentScale::Full,
        targets: Vec::new(),
        ..SweepConfig::default()
    };
    cfg.progress = true;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
                 flag: &str|
     -> Result<String, UsageError> {
        it.next()
            .cloned()
            .ok_or_else(|| UsageError(format!("{flag} requires a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fast" => cfg.scale = ExperimentScale::Fast,
            "--tiny" => cfg.scale = ExperimentScale::Tiny,
            "--quiet" => cfg.progress = false,
            "--jobs" => {
                let v = value(&mut it, "--jobs")?;
                cfg.workers = v.parse::<usize>().ok().filter(|n| *n > 0).ok_or_else(|| {
                    UsageError(format!("--jobs expects a positive integer, got `{v}`"))
                })?;
            }
            "--deadline" => {
                let v = value(&mut it, "--deadline")?;
                let deadline = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .and_then(|s| Duration::try_from_secs_f64(s).ok())
                    .ok_or_else(|| {
                        UsageError(format!("--deadline expects positive seconds, got `{v}`"))
                    })?;
                cfg.deadline = Some(deadline);
            }
            "--manifest" => cfg.manifest = Some(PathBuf::from(value(&mut it, "--manifest")?)),
            "--resume" => {
                cfg.manifest = Some(PathBuf::from(value(&mut it, "--resume")?));
                cfg.resume = true;
            }
            "--prefetcher" => {
                let v = value(&mut it, "--prefetcher")?;
                let spec = v
                    .parse::<crisp_sim::PrefetcherSpec>()
                    .map_err(|e| UsageError(format!("--prefetcher: {e}")))?;
                // Resolve against the built-in registry now, so unknown
                // units or bad options fail as usage errors instead of
                // failing every cell mid-sweep.
                crisp_sim::PrefetcherRegistry::builtin()
                    .build(&spec)
                    .map_err(|e| UsageError(format!("--prefetcher: {e}")))?;
                cfg.prefetcher = Some(spec);
            }
            "--workloads" => {
                let v = value(&mut it, "--workloads")?;
                cfg.workloads = Some(
                    v.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            "--telemetry" => cfg.telemetry = Some(PathBuf::from(value(&mut it, "--telemetry")?)),
            "--pipe-trace" => cfg.pipe_trace = Some(PathBuf::from(value(&mut it, "--pipe-trace")?)),
            "--heartbeat" => {
                let v = value(&mut it, "--heartbeat")?;
                let ms = v.parse::<u64>().ok().filter(|n| *n > 0).ok_or_else(|| {
                    UsageError(format!(
                        "--heartbeat expects positive milliseconds, got `{v}`"
                    ))
                })?;
                cfg.heartbeat = Some(Duration::from_millis(ms));
            }
            "--store" => cfg.store = Some(PathBuf::from(value(&mut it, "--store")?)),
            "--inject-panic" => cfg.chaos.panic.push(value(&mut it, "--inject-panic")?),
            "--inject-stall" => cfg.chaos.stall.push(value(&mut it, "--inject-stall")?),
            "--cell-delay-ms" => {
                let v = value(&mut it, "--cell-delay-ms")?;
                let ms = v.parse::<u64>().ok().filter(|n| *n > 0).ok_or_else(|| {
                    UsageError(format!(
                        "--cell-delay-ms expects positive milliseconds, got `{v}`"
                    ))
                })?;
                cfg.cell_delay = Some(Duration::from_millis(ms));
            }
            other if other.starts_with('-') => {
                return Err(UsageError(format!("unknown flag: {other}")));
            }
            target => {
                if !KNOWN_TARGETS.contains(&target) {
                    return Err(UsageError(format!("unknown target: {target}")));
                }
                targets.push(target.to_string());
            }
        }
    }
    cfg.targets = if targets.is_empty() || targets.iter().any(|t| t == "all") {
        all_targets()
    } else {
        // Keep canonical render order regardless of argument order.
        all_targets()
            .into_iter()
            .filter(|t| targets.contains(t))
            .collect()
    };
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(UsageError(msg)) => {
            eprintln!("crisp-bench: {msg}");
            usage();
            return ExitCode::from(EXIT_USAGE);
        }
    };

    // Graceful shutdown: SIGTERM/SIGINT cancel the stop token; in-flight
    // cells abort cooperatively and the manifest stays resumable.
    crisp_serve::signal::install();
    let stop = crisp_sim::CancelToken::new();
    crisp_serve::signal::watch(stop.clone());
    cfg.stop = Some(stop);

    if cfg.progress {
        eprintln!("[crisp-bench] sweep: {}", sweep_spec(&cfg));
    }
    let out = match run_supervised_sweep(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("crisp-bench: {e}");
            return ExitCode::from(EXIT_SUPERVISOR);
        }
    };

    if out.report.crashed {
        eprintln!(
            "crisp-bench: sweep crashed mid-manifest; resume with --resume {}",
            cfg.manifest
                .as_ref()
                .map_or_else(|| "<manifest>".to_string(), |p| p.display().to_string())
        );
        return ExitCode::from(EXIT_SUPERVISOR);
    }

    if out.report.interrupted {
        eprintln!(
            "crisp-bench: interrupted by signal after {} of {} jobs; resume with --resume {}",
            out.report.completed(),
            build_jobs(&cfg).len(),
            cfg.manifest
                .as_ref()
                .map_or_else(|| "<manifest>".to_string(), |p| p.display().to_string())
        );
        return ExitCode::from(EXIT_DEGRADED);
    }

    print!("{}", out.rendered);

    let report = &out.report;
    eprintln!(
        "[crisp-bench] {} of {} jobs completed ({} restored from manifest)",
        report.completed(),
        report.outcomes.len(),
        report.resumed
    );
    eprintln!(
        "[crisp-bench] stages: {} simulations run, {} computed, {} shared",
        out.stages.simulations,
        out.stages.sweep_computed(),
        out.stages.sweep_shared()
    );
    if cfg.store.is_some() {
        eprintln!(
            "[crisp-bench] store: {} hit(s), {} computed, {} quarantined",
            report.store_hits, report.store_computed, report.store_quarantined
        );
    }
    if out.degraded() {
        eprintln!(
            "[crisp-bench] DEGRADED: {} job(s) failed (--resume re-runs them):",
            report.failed()
        );
        for (class, ids) in report.taxonomy() {
            eprintln!("[crisp-bench]   {class}: {}", ids.join(", "));
        }
        return ExitCode::from(EXIT_DEGRADED);
    }
    ExitCode::SUCCESS
}
