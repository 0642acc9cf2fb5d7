//! `figures`: regenerate the paper's figure tables — the ROADMAP's
//! end-to-end unit — through `run_supervised_sweep`, restricted to three
//! kernels so one pass fits the run.

use crate::calib::Speed;
use crate::probe::{self, StageTimes};
use crate::report::{Digest, Outcome, CELL_FIGURES};
use crate::stats::{geomean, geomean_speedup_pct, median, p50};
use crate::{timed_passes, Opts};
use crisp_bench::cells::ZOO_MECHS;
use crisp_bench::sweep::{build_jobs, run_supervised_sweep, SweepConfig};
use crisp_bench::ExperimentScale;
use crisp_harness::json::Value;
use crisp_harness::{EventSink, JobOutcome, SpanScope, SweepReport};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// mcf and lbm are engine-bound (the simulator is ~90 % of their pipeline
/// pass); perlbench spends about half its pass in the slicer, so slicer
/// work shows too.
const KERNELS: [&str; 3] = ["mcf", "lbm", "perlbench"];
/// Sweep workers: one per core of the 2-core machine the bounds were set on.
const WORKERS: usize = 2;
/// Set-up repetitions; `setup_s` is their median. Each takes well under a
/// second, so five are needed for a steady median.
const SETUPS: usize = 5;
/// Calibration chunks timed before and after each pass.
const CHUNKS: usize = 30;

fn sweep_config() -> SweepConfig {
    SweepConfig {
        scale: ExperimentScale::Tiny,
        targets: CELL_FIGURES.iter().map(|s| s.to_string()).collect(),
        workloads: Some(KERNELS.iter().map(|s| s.to_string()).collect()),
        workers: WORKERS,
        progress: false,
        ..SweepConfig::default()
    }
}

struct Pass {
    report: SweepReport,
    rendered: String,
    cell_ms: Vec<f64>,
}

/// Per-cell latency from the supervisor's lifecycle events (the hook the
/// daemon streams to clients), kept in memory.
fn cell_timer() -> (EventSink, Arc<Mutex<Vec<f64>>>) {
    let started: Mutex<HashMap<String, Instant>> = Mutex::new(HashMap::new());
    let done = Arc::new(Mutex::new(Vec::new()));
    let sink_done = Arc::clone(&done);
    let sink = EventSink::new(move |ev: &Value| {
        let now = Instant::now();
        let (Some(kind), Some(job)) = (
            ev.get("event").and_then(Value::as_str),
            ev.get("job").and_then(Value::as_str),
        ) else {
            return;
        };
        let mut started = started.lock().expect("cell timer lock");
        match kind {
            "cell-started" => {
                started.insert(job.to_string(), now);
            }
            "cell-done" => {
                if let Some(t) = started.remove(job) {
                    let ms = now.duration_since(t).as_secs_f64() * 1e3;
                    sink_done.lock().expect("cell timer lock").push(ms);
                }
            }
            _ => {}
        }
    });
    (sink, done)
}

fn pass(spans: Option<SpanScope>) -> Result<Pass, String> {
    let (events, cell_ms) = cell_timer();
    let cfg = SweepConfig {
        spans,
        events: Some(events),
        ..sweep_config()
    };
    let out = run_supervised_sweep(&cfg).map_err(|e| e.to_string())?;
    let cell_ms = cell_ms.lock().expect("cell timer lock").clone();
    Ok(Pass {
        report: out.report,
        rendered: out.rendered,
        cell_ms,
    })
}

/// Set-up: plan the sweep, then run one warm-up cell so first-touch costs
/// (page faults, allocator growth, lazily built tables) are paid before
/// the timed region. Returns seconds.
fn setup() -> Result<f64, String> {
    let t = Instant::now();
    let jobs = build_jobs(&sweep_config());
    if jobs.len() != 26 {
        return Err(format!("planned {} cells, expected 26", jobs.len()));
    }
    let warm = SweepConfig {
        targets: vec!["fig11".into()],
        workloads: Some(vec![KERNELS[0].into()]),
        workers: 1,
        ..sweep_config()
    };
    let out = run_supervised_sweep(&warm).map_err(|e| e.to_string())?;
    if out.report.completed() != 1 {
        return Err("warm-up cell failed".into());
    }
    Ok(t.elapsed().as_secs_f64())
}

fn check_pass(out: &mut Outcome, p: &Pass, reference: &str) {
    let n = build_jobs(&sweep_config()).len() as u64;
    out.attempted += n;
    out.failed += n - p.report.completed() as u64;
    out.check(!p.report.crashed && !p.report.degraded(), || {
        format!("sweep degraded: {:?}", p.report.taxonomy())
    });
    out.check(p.rendered == reference, || {
        "rendered tables differ between passes".into()
    });
}

/// Digest of every cell payload, in id order.
fn payload_digest(report: &SweepReport) -> String {
    let mut d = Digest::default();
    for (id, o) in &report.outcomes {
        d.bytes(id.as_bytes());
        if let JobOutcome::Completed { payload, .. } = o {
            d.words(&payload.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        }
    }
    d.hex()
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if !opts.traced {
        let setups: Vec<f64> = (0..SETUPS).map(|_| setup()).collect::<Result<_, _>>()?;
        // Calibrate on both cores before and after every pass, while the
        // sweep is idle; the chunks stay out of the pass walls.
        let mut speed = Speed::default();
        speed.sample(WORKERS, CHUNKS);
        let passes = timed_passes(opts.seconds, 2, |_| {
            let t = Instant::now();
            let p = pass(None)?;
            let wall = t.elapsed().as_secs_f64();
            speed.sample(WORKERS, CHUNKS);
            Ok((wall, p))
        })?;
        let reference = passes[0].1 .1.rendered.clone();
        let mut cell_ms = Vec::new();
        for (_, (_, p)) in &passes {
            check_pass(&mut out, p, &reference);
            cell_ms.extend_from_slice(&p.cell_ms);
        }
        let walls: Vec<f64> = passes.iter().map(|(_, (w, _))| *w).collect();
        let (setup, wall) = (
            median(&setups).unwrap_or(0.0),
            median(&walls).unwrap_or(0.0),
        );
        let p50_ms = p50(&cell_ms).ok_or("too few latency samples for a median")?;
        println!(
            "cells timed: {} over {} pass(es); measured wall_s {wall:.3} setup_s {setup:.3} \
             job_p50_ms {p50_ms:.3}; calibration {} chunks, median {:.3} ms",
            cell_ms.len(),
            passes.len(),
            speed.len(),
            speed.ms()
        );
        out.set("setup_s", speed.scale(setup));
        out.set("wall_s", speed.scale(wall));
        out.set("job_p50_ms", speed.scale(p50_ms));
        let report = &passes[0].1 .1.report;
        let fig7: Vec<f64> = KERNELS
            .iter()
            .filter_map(|k| report.payload(&format!("fig7/{k}")).map(|p| p[0]))
            .collect();
        out.check(fig7.len() == KERNELS.len(), || "fig7 cells missing".into());
        out.set(
            "crisp_speedup_pct",
            geomean_speedup_pct(&fig7).unwrap_or(0.0),
        );
        // prefzoo's `base` row is the bop+stream OOO evaluation run.
        let base = 8 * ZOO_MECHS
            .iter()
            .position(|m| *m == "base")
            .expect("prefzoo has a base row");
        let ipcs: Vec<f64> = KERNELS
            .iter()
            .filter_map(|k| report.payload(&format!("prefzoo/{k}")).map(|p| p[base]))
            .collect();
        out.check(ipcs.len() == KERNELS.len(), || {
            "prefzoo cells missing".into()
        });
        out.set("ooo_ipc", geomean(&ipcs).unwrap_or(0.0));
        println!("digest cells {}", payload_digest(report));
        return Ok(out);
    }

    setup()?;
    let (wall_u, untraced) = timed_passes(0.0, 1, |_| pass(None))?.remove(0);
    check_pass(&mut out, &untraced, &untraced.rendered);
    let spans_path = opts.work.join("spans.jsonl");
    let scope = SpanScope {
        path: spans_path.clone(),
        trace: "figures".into(),
        parent: 0,
    };
    let (wall_t, traced) = timed_passes(0.0, 1, |_| pass(Some(scope.clone())))?.remove(0);
    check_pass(&mut out, &traced, &untraced.rendered);
    out.set("obs.trace_overhead_ratio", wall_t / wall_u - 1.0);

    let text = std::fs::read_to_string(&spans_path).map_err(|e| format!("spans: {e}"))?;
    let mut busy = 0.0;
    for f in CELL_FIGURES {
        out.set(&format!("cells.{f}_s"), 0.0);
    }
    for s in crisp_harness::load_spans(&text) {
        let Some((fig, _)) = s.name.strip_prefix("cell ").and_then(|n| n.split_once('/')) else {
            continue;
        };
        let secs = s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9;
        busy += secs;
        out.add(&format!("cells.{fig}_s"), secs);
    }
    out.set("cells.busy_s", busy);
    out.set("harness.idle_s", WORKERS as f64 * wall_t - busy);
    let retries: u32 = traced
        .report
        .outcomes
        .values()
        .map(|o| match o {
            JobOutcome::Completed { attempts, .. } | JobOutcome::Failed { attempts, .. } => {
                attempts - 1
            }
        })
        .sum();
    out.set("harness.retries", f64::from(retries));
    out.set("harness.journal_bytes", 0.0);

    // Stage probe: host times untraced, self-profile traced; both must
    // reproduce run_crisp_pipeline exactly. Each kernel's three calls run
    // back to back, so machine drift barely separates them.
    let mut st = StageTimes::default();
    let (mut plain, mut profiled) = (Vec::new(), Vec::new());
    let mut pipeline_s = 0.0;
    for k in KERNELS {
        let err = |e: crisp_core::CrispError| e.to_string();
        let a = probe::probe(k, &probe::tiny(), false, &mut st).map_err(err)?;
        let t = Instant::now();
        let r = crisp_core::run_crisp_pipeline(k, &probe::tiny()).map_err(err)?;
        pipeline_s += t.elapsed().as_secs_f64();
        let b = probe::probe(k, &probe::tiny(), true, &mut StageTimes::default()).map_err(err)?;
        out.problems.extend(probe::matches_pipeline(&a, &r));
        out.problems.extend(probe::matches_pipeline(&b, &r));
        plain.extend(a.sims);
        profiled.extend(b.sims);
    }
    probe::sim_layer_metrics(&mut out, &plain, &profiled);
    probe::stage_layer_metrics(&mut out, &st);
    let stages = st.build_s
        + st.emu_s
        + st.classify_s
        + st.depgraph_s
        + st.extract_s
        + st.filter_s
        + st.annotate_s
        + plain.iter().map(|r| r.host_s).sum::<f64>();
    out.set("core.pipeline_s", pipeline_s);
    out.set("core.glue_s", pipeline_s - stages);
    Ok(out)
}
