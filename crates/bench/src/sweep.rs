//! The supervised sweep: figures × workloads on the crisp-harness
//! worker threads, with chaos injection for testing the robustness paths.

use crate::cells::{self, CellOptions, ObsPolicy, CELL_FORMAT, FIGURES};
use crate::experiments::{table1, ExperimentScale};
use crate::render::render_figure;
use crisp_core::{CrispError, StageCounts, StageMemo};
use crisp_harness::{
    run_sweep, EventSink, HarnessError, JobSpec, RunContext, SupervisorOptions, SweepReport,
};
use crisp_sim::{CancelToken, PrefetcherSpec};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fault injection applied by the sweep runner (CI smoke + tests).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Chaos {
    /// Job-id substrings whose cells panic (`--inject-panic`), exercising
    /// panic isolation and degraded salvage.
    pub panic: Vec<String>,
    /// Job-id substrings whose cells freeze the scheduler so the watchdog
    /// fires (`--inject-stall`), exercising deadlock reports and degraded
    /// salvage.
    pub stall: Vec<String>,
}

/// Everything one `crisp-bench` invocation needs.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Simulation scale.
    pub scale: ExperimentScale,
    /// Report targets, in render order (figure names and/or `table1`).
    pub targets: Vec<String>,
    /// Optional workload filter applied to every figure.
    pub workloads: Option<Vec<String>>,
    /// `--prefetcher NAME[:k=v,…][+…]`: override the data-prefetcher
    /// selection for every cell's simulations. Part of the sweep spec and
    /// of each cell's fingerprint, so manifests and the result store keep
    /// per-zoo results separate.
    pub prefetcher: Option<PrefetcherSpec>,
    /// Worker threads.
    pub workers: usize,
    /// Per-cell wall-clock deadline. Not part of the sweep spec, so a
    /// sweep whose cells timed out can be resumed under a longer one.
    pub deadline: Option<Duration>,
    /// JSONL manifest path.
    pub manifest: Option<PathBuf>,
    /// Resume from the manifest instead of starting fresh.
    pub resume: bool,
    /// Fault injection.
    pub chaos: Chaos,
    /// Emit per-job progress lines on stderr.
    pub progress: bool,
    /// Test hook: simulate a SIGKILL after this many journal records.
    pub crash_after_records: Option<usize>,
    /// `--telemetry DIR`: cells that drive simulations directly write one
    /// interval-telemetry JSONL stream (plus a top-K stall-attribution
    /// table) per sub-run into this directory.
    pub telemetry: Option<PathBuf>,
    /// `--pipe-trace DIR`: those cells also write one Kanata pipeline
    /// trace per sub-run into this directory.
    pub pipe_trace: Option<PathBuf>,
    /// `--heartbeat MS`: the supervisor journals each running cell's
    /// progress (cycles, instructions, wall-clock) at this cadence.
    pub heartbeat: Option<Duration>,
    /// `--store DIR`: content-addressed result store; verified entries
    /// skip simulation, computed cells are published for later sweeps.
    pub store: Option<PathBuf>,
    /// Sweep-wide stop token for graceful shutdown (SIGTERM/SIGINT):
    /// when cancelled, in-flight cells abort cooperatively, queued cells
    /// stay unrecorded, and `--resume` completes the sweep later.
    pub stop: Option<CancelToken>,
    /// Test hook (`--cell-delay-ms`): every computed cell first idles
    /// this long while polling its cancel token, widening the mid-cell
    /// window that chaos tests (SIGKILL, drain) need to hit reliably.
    pub cell_delay: Option<Duration>,
    /// Live event sink threaded into the supervisor (cell started /
    /// heartbeat / degraded / done), feeding `GET /jobs/ID/events`.
    pub events: Option<EventSink>,
    /// Span scope threaded into the supervisor (one `cell` span per
    /// cell) and the stage memo (one span per stage request under
    /// it), feeding `crisp obs spans`.
    pub spans: Option<crisp_harness::SpanScope>,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            scale: ExperimentScale::Full,
            targets: all_targets(),
            workloads: None,
            prefetcher: None,
            workers: 1,
            deadline: None,
            manifest: None,
            resume: false,
            chaos: Chaos::default(),
            progress: false,
            crash_after_records: None,
            telemetry: None,
            pipe_trace: None,
            heartbeat: None,
            store: None,
            stop: None,
            cell_delay: None,
            events: None,
            spans: None,
        }
    }
}

/// Every target, in canonical render order (`table1` first).
pub fn all_targets() -> Vec<String> {
    std::iter::once("table1")
        .chain(FIGURES)
        .map(str::to_string)
        .collect()
}

/// The sweep-level spec recorded in the manifest header. Anything that
/// changes cell payloads (scale, cell format) or the job set (targets,
/// workload filter) is part of it, so `--resume` under different flags is
/// rejected instead of silently mixing sweeps.
pub fn sweep_spec(cfg: &SweepConfig) -> String {
    format!(
        "crisp-bench scale={:?} targets=[{}] workloads=[{}] prefetcher={} {CELL_FORMAT}",
        cfg.scale,
        cfg.targets.join(","),
        cfg.workloads
            .as_ref()
            .map_or_else(|| "all".to_string(), |w| w.join(",")),
        cfg.prefetcher
            .as_ref()
            .map_or_else(|| "default".to_string(), |p| p.to_string()),
    )
}

/// What a supervised sweep produced.
#[derive(Clone, Debug)]
pub struct SweepOutput {
    /// The supervisor's report (outcomes, crash flag, resume stats).
    pub report: SweepReport,
    /// The rendered reports, in target order — empty if the sweep crashed.
    pub rendered: String,
    /// What the sweep's stage memo did: simulations run, and stage
    /// requests computed and shared.
    pub stages: StageCounts,
}

impl SweepOutput {
    /// Whether the sweep completed but with failed cells (exit code 6).
    pub fn degraded(&self) -> bool {
        !self.report.crashed && self.report.degraded()
    }
}

/// Builds the full job list for a sweep config.
pub fn build_jobs(cfg: &SweepConfig) -> Vec<JobSpec> {
    cfg.targets
        .iter()
        .filter(|t| t.as_str() != "table1")
        .flat_map(|t| {
            cells::catalog(
                t,
                cfg.scale,
                cfg.workloads.as_deref(),
                cfg.prefetcher.as_ref(),
            )
        })
        .collect()
}

/// Runs the sweep under the supervisor and renders every target.
///
/// # Errors
///
/// Supervisor-level failures only ([`HarnessError`]); failed cells are
/// salvaged into degraded reports, not errors.
pub fn run_supervised_sweep(cfg: &SweepConfig) -> Result<SweepOutput, HarnessError> {
    let jobs = build_jobs(cfg);
    let opts = SupervisorOptions {
        workers: cfg.workers,
        deadline: cfg.deadline,
        manifest: cfg.manifest.clone(),
        resume: cfg.resume,
        sweep_spec: sweep_spec(cfg),
        crash_after_records: cfg.crash_after_records,
        progress: cfg.progress,
        heartbeat: cfg.heartbeat,
        store: cfg.store.clone(),
        stop: cfg.stop.clone(),
        fail_journal_appends: 0,
        events: cfg.events.clone(),
        spans: cfg.spans.clone(),
    };
    let obs = (cfg.telemetry.is_some() || cfg.pipe_trace.is_some()).then(|| ObsPolicy {
        telemetry_dir: cfg.telemetry.clone(),
        pipe_trace_dir: cfg.pipe_trace.clone(),
        ..ObsPolicy::new()
    });
    let cell_opts = CellOptions {
        scale: cfg.scale,
        obs: obs.as_ref(),
        prefetcher: cfg.prefetcher,
    };
    // One memo per sweep, shared by the worker threads: each distinct
    // pipeline stage runs once however many cells ask for it.
    let memo = StageMemo::new();
    let runner = |job: &JobSpec, ctx: &RunContext| -> Result<Vec<f64>, CrispError> {
        let stall = cfg.chaos.stall.iter().any(|s| job.id.contains(s.as_str()));
        if let Some(delay) = cfg.cell_delay {
            // Idle cooperatively before simulating, so chaos tests get a
            // wide, interruptible mid-cell window.
            let until = Instant::now() + delay;
            while Instant::now() < until {
                if let Some(reason) = ctx.cancel.should_abort() {
                    return Err(CrispError::aborted(reason));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        if cfg.chaos.panic.iter().any(|s| job.id.contains(s.as_str())) {
            panic!("injected fault: chaos panic for {}", job.id);
        }
        // Stage spans hang under the supervisor's span for this cell.
        let scope = cfg.spans.as_ref().map(|s| crisp_harness::SpanScope {
            parent: crisp_harness::span_id(
                &s.trace,
                &format!("cell {}", crisp_harness::cell_tag(&job.id)),
            ),
            ..s.clone()
        });
        let stages = memo.cell(Some(ctx.cancel.clone()));
        let stages = match &scope {
            Some(scope) => stages.observed(scope.stage_observer(&job.id)),
            None => stages,
        };
        cells::run_cell_in(&stages, job, ctx, stall, &cell_opts)
    };
    let report = run_sweep(&jobs, &opts, &runner)?;

    let mut rendered = String::new();
    if !report.crashed && !report.interrupted {
        for target in &cfg.targets {
            let body = if target == "table1" {
                table1()
            } else {
                let cell_list = cells::catalog(
                    target,
                    cfg.scale,
                    cfg.workloads.as_deref(),
                    cfg.prefetcher.as_ref(),
                );
                render_figure(target, &cell_list, &report.outcomes)
            };
            // Each report ends with a blank line.
            rendered.push_str(&body);
            rendered.push_str("\n\n");
        }
    }
    Ok(SweepOutput {
        report,
        rendered,
        stages: memo.counts(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SweepConfig {
        SweepConfig {
            scale: ExperimentScale::Tiny,
            targets: vec!["fig11".to_string()],
            workloads: Some(vec!["mcf".to_string(), "lbm".to_string()]),
            workers: 2,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn sweep_spec_pins_scale_targets_and_filter() {
        let a = sweep_spec(&tiny_cfg());
        assert!(
            a.contains("Tiny") && a.contains("fig11") && a.contains("mcf,lbm"),
            "{a}"
        );
        let mut full = tiny_cfg();
        full.scale = ExperimentScale::Fast;
        assert_ne!(a, sweep_spec(&full));
    }

    #[test]
    fn prefetcher_override_keys_keep_the_spec_text() {
        let pf: PrefetcherSpec = "spp:depth=4+stride".parse().expect("valid spec");
        let cell = cells::cell_spec_pf("fig7", "mcf", ExperimentScale::Tiny, Some(&pf));
        assert_eq!(
            cell.spec,
            "fig7/mcf scale=Tiny pf=spp:depth=4+stride cells-v2"
        );
        let cfg = SweepConfig {
            targets: vec!["fig7".to_string()],
            workloads: Some(vec!["mcf".to_string()]),
            prefetcher: Some(pf),
            ..tiny_cfg()
        };
        assert_eq!(
            sweep_spec(&cfg),
            "crisp-bench scale=Tiny targets=[fig7] workloads=[mcf] \
             prefetcher=spp:depth=4+stride cells-v2"
        );
    }

    #[test]
    fn build_jobs_skips_table1_and_applies_the_filter() {
        let mut cfg = tiny_cfg();
        cfg.targets = vec![
            "table1".to_string(),
            "fig11".to_string(),
            "fig4".to_string(),
        ];
        let jobs = build_jobs(&cfg);
        assert_eq!(jobs.len(), 4, "2 figures x 2 workloads: {jobs:?}");
        assert!(jobs.iter().all(|j| !j.id.starts_with("table1")));
    }

    #[test]
    fn tiny_supervised_sweep_completes_and_renders() {
        let out = run_supervised_sweep(&tiny_cfg()).expect("no supervisor error");
        assert!(!out.report.crashed);
        assert!(!out.degraded(), "outcomes: {:?}", out.report.outcomes);
        assert_eq!(out.report.completed(), 2);
        assert!(out.rendered.contains("Figure 11"));
        assert!(!out.rendered.contains("DEGRADED"));
    }

    #[test]
    fn injected_stall_degrades_without_killing_the_sweep() {
        let mut cfg = tiny_cfg();
        // A healthy cell on the stalled workload runs first (one worker
        // fixes the order) and computes lbm's pipeline. The stall's chaos
        // fields are part of every simulation's stage key, so the stalled
        // cell must not be served those results.
        cfg.targets = vec!["fig4".to_string(), "fig11".to_string()];
        cfg.workers = 1;
        cfg.chaos.stall = vec!["fig11/lbm".to_string()];
        let out = run_supervised_sweep(&cfg).expect("no supervisor error");
        assert!(out.degraded());
        assert_eq!(out.report.completed(), 3, "fig4 on both, fig11 on mcf");
        let ctx = RunContext {
            cancel: CancelToken::new(),
            progress: crisp_sim::ProgressBeacon::new(),
        };
        let fig4_lbm = cells::cell_spec("fig4", "lbm", ExperimentScale::Tiny);
        let alone = cells::run_cell(&fig4_lbm, &ctx, cfg.scale, false, None, None)
            .expect("fig4/lbm runs alone");
        assert_eq!(out.report.payload("fig4/lbm"), Some(&alone[..]));
        assert!(
            out.rendered.contains("[DEGRADED (1/2 workloads)]"),
            "{}",
            out.rendered
        );
        assert!(out.rendered.contains("deadlock"), "{}", out.rendered);
    }
}
