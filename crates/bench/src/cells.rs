//! Sweep cells: the unit of supervised execution.
//!
//! Every paper figure decomposes into independent (workload, config)
//! *cells*; each cell is one [`JobSpec`] (`<figure>/<workload>`) whose
//! runner returns a flat `Vec<f64>` payload. The payload layouts are
//! documented on the per-figure cell functions below and are versioned by
//! [`CELL_FORMAT`] — bump it when a layout changes, so `--resume` refuses
//! stale manifests via the spec fingerprint instead of rendering garbage.
//!
//! A cell body is a list of requests for pipeline stages
//! ([`crisp_core::stages`]). The cells of one sweep share one
//! [`StageMemo`], so a stage that several cells request runs once and
//! every payload stays bit-identical to the cell run alone.

use crate::experiments::{figure_workloads, ExperimentScale};
use crisp_core::{
    ClassifierConfig, ConfigError, CrispError, IbdaConfig, Input, PipelineConfig, SchedulerKind,
    SimConfig, SliceConfig, SliceMode, StageMemo, Stages,
};
use crisp_harness::{JobSpec, RunContext};
use crisp_obs::{render_kanata, telemetry_line, TraceFilter};
use crisp_sim::{PrefetcherSpec, SimResult};
use std::path::PathBuf;

/// Cell payload-format version, embedded in every job spec.
pub const CELL_FORMAT: &str = "cells-v2";

/// Figure targets that decompose into cells, in report order.
pub const FIGURES: [&str; 10] = [
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
];

/// Mechanism columns of the `prefzoo` matrix, in payload (and render)
/// order: a no-prefetch control, the Table 1 hardware baseline, the
/// registry competitors, then the two software/criticality mechanisms.
pub const ZOO_MECHS: [&str; 8] = [
    "nopf", "base", "stride", "ghbw", "sisb", "spp", "ibda", "crisp",
];

/// Registry specs behind the pure-hardware `prefzoo` rows.
const ZOO_SPECS: [(&str, &str); 6] = [
    ("nopf", "none"),
    ("base", "bop+stream"),
    ("stride", "stride"),
    ("ghbw", "ghbw"),
    ("sisb", "sisb"),
    ("spp", "spp"),
];

/// The workload subset the ablation studies use (DESIGN.md).
pub(crate) const ABLATION_SUBSET: [&str; 6] =
    ["pointer_chase", "mcf", "lbm", "xhpcg", "namd", "moses"];

/// Workloads a figure sweeps over, in render order.
pub fn cell_workloads(figure: &str) -> Vec<&'static str> {
    match figure {
        "fig1" => vec!["pointer_chase"],
        "ablations" => ABLATION_SUBSET.to_vec(),
        // The cross-mechanism matrix covers the full workload set,
        // including the figure-excluded irregular/frontend-bound apps —
        // those are exactly where the mechanisms separate.
        "prefzoo" => crisp_core::all_names().to_vec(),
        _ => figure_workloads(),
    }
}

/// Builds the job list for one figure, optionally filtered to a workload
/// subset (unknown filter names simply match nothing) and carrying the
/// sweep's `--prefetcher` override, which is part of each cell's spec
/// fingerprint: results computed under different zoos never collide in a
/// manifest or the content-addressed store.
pub fn catalog(
    figure: &str,
    scale: ExperimentScale,
    workloads: Option<&[String]>,
    prefetcher: Option<&PrefetcherSpec>,
) -> Vec<JobSpec> {
    cell_workloads(figure)
        .into_iter()
        .filter(|w| workloads.is_none_or(|f| f.iter().any(|x| x == w)))
        .map(|w| cell_spec_pf(figure, w, scale, prefetcher))
        .collect()
}

/// The [`JobSpec`] for one cell under the default prefetcher zoo.
pub fn cell_spec(figure: &str, workload: &str, scale: ExperimentScale) -> JobSpec {
    cell_spec_pf(figure, workload, scale, None)
}

/// The [`JobSpec`] for one cell, with an optional `--prefetcher` override
/// folded into the spec fingerprint.
pub fn cell_spec_pf(
    figure: &str,
    workload: &str,
    scale: ExperimentScale,
    prefetcher: Option<&PrefetcherSpec>,
) -> JobSpec {
    let id = format!("{figure}/{workload}");
    let pf = prefetcher.map_or_else(String::new, |p| format!(" pf={p}"));
    let spec = format!("{id} scale={scale:?}{pf} {CELL_FORMAT}");
    JobSpec::new(id, spec)
}

/// Splits `<figure>/<workload>` back into its parts.
pub fn split_id(id: &str) -> Option<(&str, &str)> {
    id.split_once('/')
}

/// Threads the cell's cancellation token and progress beacon (and,
/// under chaos injection, a scheduler freeze that forces a watchdog
/// deadlock) into a simulator config. Every `SimConfig` a cell builds must
/// pass through here, or the deadline and the supervisor's heartbeat
/// monitor would not reach that simulation.
fn arm(sim: &mut SimConfig, ctx: &RunContext, stall: bool) {
    sim.cancel = Some(ctx.cancel.clone());
    sim.progress = Some(ctx.progress.clone());
    if stall {
        sim.freeze_scheduler_after = Some(500);
        sim.watchdog_cycles = 20_000;
    }
}

/// Observability outputs for a cell, derived from `--telemetry` and
/// `--pipe-trace`. It applies to the cells that drive their simulations
/// directly (Figure 1): each sub-run gets one telemetry JSONL stream (plus
/// a top-K stall-attribution table) and one Kanata pipeline trace, keyed
/// by the cell id and sub-run label.
#[derive(Clone, Debug)]
pub struct ObsPolicy {
    /// Directory receiving `<cell>-<label>.jsonl` telemetry streams and
    /// `<cell>-<label>.stalls.txt` stall-attribution tables.
    pub telemetry_dir: Option<PathBuf>,
    /// Cycles between telemetry samples (rounded up to the engine's
    /// cancellation-poll cadence).
    pub telemetry_interval: u64,
    /// Directory receiving `<cell>-<label>.kanata` pipeline traces.
    pub pipe_trace_dir: Option<PathBuf>,
    /// Flight-recorder ring capacity for traced runs.
    pub tracer_capacity: usize,
}

impl ObsPolicy {
    /// A policy with no outputs and the default sampling cadence and
    /// recorder capacity.
    pub fn new() -> ObsPolicy {
        ObsPolicy {
            telemetry_dir: None,
            telemetry_interval: 4096,
            pipe_trace_dir: None,
            tracer_capacity: 1 << 16,
        }
    }
}

impl Default for ObsPolicy {
    fn default() -> ObsPolicy {
        ObsPolicy::new()
    }
}

/// Arms one simulation with the policy's observability collection:
/// interval telemetry and stall attribution under `--telemetry`, the
/// flight recorder under `--pipe-trace`.
fn arm_obs(sim: &mut SimConfig, obs: Option<&ObsPolicy>) {
    let Some(obs) = obs else { return };
    if obs.telemetry_dir.is_some() {
        sim.telemetry_interval = Some(obs.telemetry_interval);
        sim.stall_attribution = true;
    }
    if obs.pipe_trace_dir.is_some() {
        sim.tracer_capacity = Some(obs.tracer_capacity);
    }
}

/// Writes one sub-run's observability artifacts. Best-effort: a full disk
/// must not kill a healthy simulation, so I/O failures are swallowed.
fn write_obs(obs: Option<&ObsPolicy>, job: &JobSpec, label: &str, res: &SimResult) {
    let Some(obs) = obs else { return };
    let stem = format!("{}-{label}", job.id.replace('/', "-"));
    if let Some(dir) = &obs.telemetry_dir {
        let _ = std::fs::create_dir_all(dir);
        let mut text = String::new();
        for s in res.telemetry.samples() {
            text.push_str(&telemetry_line(&job.id, label, s));
            text.push('\n');
        }
        let _ = std::fs::write(dir.join(format!("{stem}.jsonl")), text);
        let _ = std::fs::write(
            dir.join(format!("{stem}.stalls.txt")),
            res.stall_table.render_top_k(16),
        );
    }
    if let Some(dir) = &obs.pipe_trace_dir {
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(
            dir.join(format!("{stem}.kanata")),
            render_kanata(&res.tracer.events(), &TraceFilter::default()),
        );
    }
}

/// What every cell of one sweep shares: its scale, its observability
/// policy, and its `--prefetcher` override.
#[derive(Clone, Copy, Debug)]
pub struct CellOptions<'a> {
    /// Simulation scale.
    pub scale: ExperimentScale,
    /// Telemetry/trace collection, for the cells that drive their
    /// simulations directly (Figure 1).
    pub obs: Option<&'a ObsPolicy>,
    /// The sweep's data-prefetcher override.
    pub prefetcher: Option<PrefetcherSpec>,
}

/// Runs one cell to its payload over a fresh [`StageMemo`].
///
/// `stall` is the chaos-injection hook (`--inject-stall`): it freezes the
/// scheduler early so the watchdog fires, exercising the deadlock-retry
/// path end to end. `obs` enables telemetry/trace collection for the
/// cells that drive their simulations directly (Figure 1). Every cell
/// resumes at the cell boundary via the manifest.
///
/// # Errors
///
/// Any pipeline error; a malformed job id is a [`CrispError::Config`]
/// (deterministic, so the supervisor fails it fast).
pub fn run_cell(
    job: &JobSpec,
    ctx: &RunContext,
    scale: ExperimentScale,
    stall: bool,
    obs: Option<&ObsPolicy>,
    prefetcher: Option<PrefetcherSpec>,
) -> Result<Vec<f64>, CrispError> {
    let memo = StageMemo::new();
    let opts = CellOptions {
        scale,
        obs,
        prefetcher,
    };
    let stages = memo.cell(Some(ctx.cancel.clone()));
    run_cell_in(&stages, job, ctx, stall, &opts)
}

/// Runs one cell to its payload as requests for pipeline stages, which
/// `stages` serves from its sweep's memo when another cell already
/// computed them (see [`run_cell`] for the arguments).
///
/// # Errors
///
/// As [`run_cell`].
pub fn run_cell_in(
    st: &Stages<'_>,
    job: &JobSpec,
    ctx: &RunContext,
    stall: bool,
    opts: &CellOptions<'_>,
) -> Result<Vec<f64>, CrispError> {
    let (figure, workload) = split_id(&job.id).ok_or_else(|| {
        CrispError::Config(ConfigError::new(
            "cell",
            format!("malformed job id `{}`", job.id),
        ))
    })?;
    let mut cfg = opts.scale.pipeline();
    arm(&mut cfg.sim, ctx, stall);
    if let Some(spec) = opts.prefetcher {
        // The `--prefetcher` axis: every simulation this cell runs —
        // pipeline baselines included — uses the overridden zoo. In
        // `prefzoo` only the `base` reference row tracks the override;
        // the mechanism rows keep their fixed specs.
        cfg.sim.memory.prefetcher = spec;
    }
    match figure {
        "fig1" => cell_fig1(st, job, workload, &cfg, opts),
        "fig4" => cell_fig4(st, workload, &cfg),
        "fig7" => cell_fig7(st, workload, &cfg),
        "fig8" => cell_fig8(st, workload, &cfg),
        "fig9" => cell_fig9(st, workload, &cfg),
        "fig10" => cell_fig10(st, workload, &cfg),
        "fig11" => cell_fig11(st, workload, &cfg),
        "fig12" => cell_fig12(st, workload, &cfg),
        "ablations" => cell_ablations(st, workload, &cfg),
        "prefzoo" => cell_prefzoo(st, workload, &cfg),
        other => Err(CrispError::Config(ConfigError::new(
            "cell",
            format!("unknown figure `{other}` in job id `{}`", job.id),
        ))),
    }
}

/// Figure 1 payload: `[ooo_ipc, crisp_ipc, speedup_pct, k,
/// ooo_upc[0..k], crisp_upc[0..k]]` (UPC timeline, k buckets).
///
/// The two evaluation simulations are driven directly (never memoized),
/// so under an [`ObsPolicy`] each writes its own telemetry and trace,
/// keyed by its sub-run label (`ooo` / `crisp`).
fn cell_fig1(
    st: &Stages<'_>,
    job: &JobSpec,
    name: &str,
    cfg: &PipelineConfig,
    opts: &CellOptions<'_>,
) -> Result<Vec<f64>, CrispError> {
    let obs = opts.obs;
    let eval = st.trace(name, Input::Ref, cfg.eval_instructions / 2)?;
    let (program, trace) = (&eval.program, &eval.trace);

    // Profile + annotate via the pipeline on the train input.
    let pres = st.pipeline(name, cfg)?;

    let mut sim_cfg = cfg.sim.clone();
    sim_cfg.record_upc_timeline = true;
    sim_cfg.collect_pc_stats = false;
    let mut ooo_cfg = sim_cfg
        .clone()
        .with_scheduler(SchedulerKind::OldestReadyFirst);
    arm_obs(&mut ooo_cfg, obs);
    let ooo = st.simulate(ooo_cfg, program, trace, None)?;
    write_obs(obs, job, "ooo", &ooo);
    let mut crisp_cfg = sim_cfg.with_scheduler(SchedulerKind::Crisp);
    arm_obs(&mut crisp_cfg, obs);
    let crisp = st.simulate(crisp_cfg, program, trace, Some(pres.map.as_slice()))?;
    write_obs(obs, job, "crisp", &crisp);

    let buckets = 60;
    let ooo_series = ooo.upc.bucketed(buckets);
    let crisp_series = crisp.upc.bucketed(buckets);
    let k = buckets.min(ooo_series.len()).min(crisp_series.len());
    let mut payload = vec![ooo.ipc(), crisp.ipc(), crisp.speedup_over(&ooo), k as f64];
    payload.extend_from_slice(&ooo_series[..k]);
    payload.extend_from_slice(&crisp_series[..k]);
    Ok(payload)
}

/// Figure 4 payload: `[mean_load_slice_len, n_load_slices]`.
fn cell_fig4(st: &Stages<'_>, name: &str, cfg: &PipelineConfig) -> Result<Vec<f64>, CrispError> {
    let r = st.pipeline(name, cfg)?;
    Ok(vec![r.mean_load_slice_len(), r.load_slices.len() as f64])
}

/// Figure 7 payload: `[crisp_pct, ibda_1k_pct, ibda_8k_pct, ibda_64k_pct,
/// ibda_inf_pct]` (IPC improvement over the OOO baseline).
fn cell_fig7(st: &Stages<'_>, name: &str, cfg: &PipelineConfig) -> Result<Vec<f64>, CrispError> {
    let r = st.pipeline(name, cfg)?;
    let base_ipc = r.baseline.ipc();
    let mut payload = vec![r.speedup_pct()];
    let ists = [
        IbdaConfig::ist_1k(),
        IbdaConfig::ist_8k(),
        IbdaConfig::ist_64k(),
        IbdaConfig::ist_infinite(),
    ];
    for ir in st.ibda(name, &ists, cfg)? {
        payload.push((ir.result.ipc() / base_ipc - 1.0) * 100.0);
    }
    Ok(payload)
}

/// Figure 8 payload: `[loads_pct, branches_pct, both_pct]`.
fn cell_fig8(st: &Stages<'_>, name: &str, cfg: &PipelineConfig) -> Result<Vec<f64>, CrispError> {
    let mut payload = Vec::with_capacity(3);
    for mode in [
        SliceMode::LoadsOnly,
        SliceMode::BranchesOnly,
        SliceMode::Both,
    ] {
        let c = PipelineConfig {
            mode,
            ..cfg.clone()
        };
        payload.push(st.pipeline(name, &c)?.speedup_pct());
    }
    Ok(payload)
}

/// Figure 9 payload: `[pct_64_180, pct_96_224, pct_144_336, pct_192_448]`
/// (speedup per RS/ROB window). Each window resizes the cell's own
/// machine, so it keeps the cell's arming and `--prefetcher` override, and
/// the Table 1 window (96, 224) is the cell's default pipeline.
fn cell_fig9(st: &Stages<'_>, name: &str, cfg: &PipelineConfig) -> Result<Vec<f64>, CrispError> {
    let windows = [(64usize, 180usize), (96, 224), (144, 336), (192, 448)];
    let mut payload = Vec::with_capacity(windows.len());
    for (rs, rob) in windows {
        let mut c = cfg.clone();
        c.sim.rs_entries = rs;
        c.sim.rob_entries = rob;
        payload.push(st.pipeline(name, &c)?.speedup_pct());
    }
    Ok(payload)
}

/// Figure 10 payload: `[pct_t5, pct_t1, pct_t02]` (miss-contribution
/// threshold sensitivity).
fn cell_fig10(st: &Stages<'_>, name: &str, cfg: &PipelineConfig) -> Result<Vec<f64>, CrispError> {
    let mut payload = Vec::with_capacity(3);
    for thr in [0.05, 0.01, 0.002] {
        let c = PipelineConfig {
            classifier: ClassifierConfig::default().with_miss_threshold(thr),
            ..cfg.clone()
        };
        payload.push(st.pipeline(name, &c)?.speedup_pct());
    }
    Ok(payload)
}

/// Figure 11 payload: `[critical_inst_count, static_ratio]`.
fn cell_fig11(st: &Stages<'_>, name: &str, cfg: &PipelineConfig) -> Result<Vec<f64>, CrispError> {
    let r = st.pipeline(name, cfg)?;
    Ok(vec![r.map.count() as f64, r.map.static_ratio()])
}

/// Figure 12 payload: `[static_ovh_pct, dynamic_ovh_pct, icache_mpki_base,
/// icache_mpki_crisp]`.
fn cell_fig12(st: &Stages<'_>, name: &str, cfg: &PipelineConfig) -> Result<Vec<f64>, CrispError> {
    let r = st.pipeline(name, cfg)?;
    Ok(vec![
        r.footprint.static_overhead_pct(),
        r.footprint.dynamic_overhead_pct(),
        r.baseline.icache_mpki(),
        r.crisp.icache_mpki(),
    ])
}

/// Ablations payload: `[rand_pct, crisp_pct, reg_only_pct, reg_mem_pct,
/// keep_all_pct, keep_05_pct, keep_09_pct, real_pct, perfect_pct]` —
/// studies A (scheduler policy), B (memory deps), C (keep fraction) and
/// D (perfect branch prediction) for one workload.
fn cell_ablations(
    st: &Stages<'_>,
    name: &str,
    cfg: &PipelineConfig,
) -> Result<Vec<f64>, CrispError> {
    let r = st.pipeline(name, cfg)?;

    // (a) Scheduler policy: same annotation, random-ready issue policy.
    let mut sim_cfg = cfg.sim.clone();
    sim_cfg.collect_pc_stats = false;
    let rand = st.eval(
        name,
        cfg.eval_instructions,
        &sim_cfg.with_scheduler(SchedulerKind::RandomReady),
        Some(r.map.as_slice()),
    )?;
    let rand_pct = (rand.ipc() / r.baseline.ipc() - 1.0) * 100.0;

    // (b) Dependencies through memory in the slicer (the IBDA gap).
    let reg_cfg = PipelineConfig {
        slice: SliceConfig {
            follow_memory_deps: false,
            ..cfg.slice
        },
        ..cfg.clone()
    };
    let reg = st.pipeline(name, &reg_cfg)?;

    // (c) Critical-path keep fraction (Section 3.5).
    let mut keep = Vec::with_capacity(3);
    for frac in [0.0, 0.5, 0.9] {
        let c = PipelineConfig {
            critical_path_fraction: frac,
            ..cfg.clone()
        };
        keep.push(st.pipeline(name, &c)?.speedup_pct());
    }

    // (d) Perfect branch prediction (the Section 5.3 discovery experiment).
    let perfect_cfg = PipelineConfig {
        sim: {
            let mut s = cfg.sim.clone();
            s.perfect_branch_prediction = true;
            s
        },
        ..cfg.clone()
    };
    let perfect = st.pipeline(name, &perfect_cfg)?;

    Ok(vec![
        rand_pct,
        r.speedup_pct(),
        reg.speedup_pct(),
        r.speedup_pct(),
        keep[0],
        keep[1],
        keep[2],
        r.speedup_pct(),
        perfect.speedup_pct(),
    ])
}

/// Prefetcher-zoo payload: [`ZOO_MECHS`]`.len()` blocks of
/// `[ipc, speedup_pct, accuracy, coverage, timeliness, issued, useful,
/// late]`, one per mechanism in [`ZOO_MECHS`] order (64 values).
///
/// Speedup is IPC over the Table 1 `bop+stream` OOO baseline; coverage is
/// the fraction of the `nopf` run's demand-load LLC misses the mechanism
/// eliminated; accuracy and timeliness come from the hierarchy's per-unit
/// issued/useful/late counters. The `ibda` and `crisp` rows run on top of
/// the default hardware prefetchers, so their accuracy/coverage/timeliness
/// describe that baseline zoo under criticality-driven scheduling.
fn cell_prefzoo(st: &Stages<'_>, name: &str, cfg: &PipelineConfig) -> Result<Vec<f64>, CrispError> {
    // CRISP (and the shared OOO baseline the speedups are against) via the
    // standard pipeline.
    let r = st.pipeline(name, cfg)?;

    // The pure-hardware rows evaluate on the pipeline's eval window, so
    // the `base` row is the pipeline baseline's own simulation.
    let mut sim_cfg = cfg.sim.clone();
    sim_cfg.collect_pc_stats = false;

    let mut hw = Vec::with_capacity(ZOO_SPECS.len());
    for (mech, spec) in ZOO_SPECS {
        let mut c = sim_cfg.clone();
        // `base` is whatever the sweep configured (default `bop+stream`),
        // so it reproduces `r.baseline` and anchors the speedup column.
        c.memory.prefetcher = if mech == "base" {
            cfg.sim.memory.prefetcher
        } else {
            spec.parse().expect("builtin zoo spec")
        };
        hw.push(st.eval(name, cfg.eval_instructions, &c, None)?);
    }
    let ibda = st
        .ibda(name, &[IbdaConfig::ist_8k()], cfg)?
        .pop()
        .expect("one IBDA config in, one result out")
        .result;

    let nopf = &hw[0];
    let base = &r.baseline;
    let rows: Vec<&SimResult> = hw.iter().map(|h| &**h).chain([&ibda, &r.crisp]).collect();
    let mut payload = Vec::with_capacity(rows.len() * 8);
    for res in rows {
        let t = res.mem.prefetch_totals();
        payload.extend_from_slice(&[
            res.ipc(),
            res.speedup_over(base),
            res.prefetch_accuracy(),
            res.prefetch_coverage_vs(nopf),
            res.prefetch_timeliness(),
            t.issued as f64,
            t.useful as f64,
            t.late as f64,
        ]);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_sim::{CancelToken, ProgressBeacon};

    fn test_ctx() -> RunContext {
        RunContext {
            cancel: CancelToken::new(),
            progress: ProgressBeacon::new(),
        }
    }

    #[test]
    fn catalog_covers_the_expected_grid() {
        assert_eq!(catalog("fig1", ExperimentScale::Fast, None, None).len(), 1);
        assert_eq!(catalog("fig7", ExperimentScale::Fast, None, None).len(), 15);
        assert_eq!(
            catalog("ablations", ExperimentScale::Fast, None, None).len(),
            6
        );
        let filtered = catalog(
            "fig7",
            ExperimentScale::Fast,
            Some(&["mcf".to_string(), "lbm".to_string(), "nope".to_string()]),
            None,
        );
        let ids: Vec<&str> = filtered.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids.len(), 2, "unknown filter names match nothing: {ids:?}");
        assert!(ids.contains(&"fig7/mcf") && ids.contains(&"fig7/lbm"));
    }

    #[test]
    fn specs_fingerprint_scale_and_format() {
        let fast = cell_spec("fig7", "mcf", ExperimentScale::Fast);
        let full = cell_spec("fig7", "mcf", ExperimentScale::Full);
        assert_eq!(fast.id, full.id);
        assert_ne!(fast.fingerprint(), full.fingerprint());
        assert!(fast.spec.contains(CELL_FORMAT));
        assert_eq!(split_id(&fast.id), Some(("fig7", "mcf")));
    }

    #[test]
    fn malformed_ids_are_config_errors() {
        let ctx = test_ctx();
        let bad = JobSpec::new("no-slash", "no-slash spec");
        match run_cell(&bad, &ctx, ExperimentScale::Tiny, false, None, None) {
            Err(CrispError::Config(_)) => {}
            other => panic!("unexpected: {other:?}"),
        }
        let unknown = JobSpec::new("fig99/mcf", "fig99/mcf spec");
        match run_cell(&unknown, &ctx, ExperimentScale::Tiny, false, None, None) {
            Err(CrispError::Config(_)) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn stalled_cell_reports_a_deadlock() {
        let ctx = test_ctx();
        let job = cell_spec("fig11", "mcf", ExperimentScale::Tiny);
        match run_cell(&job, &ctx, ExperimentScale::Tiny, true, None, None) {
            Err(CrispError::Simulation(crisp_sim::SimError::Deadlock(_))) => {}
            other => panic!("expected deadlock, got: {other:?}"),
        }
    }

    #[test]
    fn fig1_writes_telemetry_stalls_and_kanata_artifacts() {
        let dir = std::env::temp_dir().join("crisp-bench-cells-obs");
        std::fs::remove_dir_all(&dir).ok();
        let ctx = test_ctx();
        let job = cell_spec("fig1", "pointer_chase", ExperimentScale::Tiny);
        let obs = ObsPolicy {
            telemetry_dir: Some(dir.join("telemetry")),
            telemetry_interval: 512,
            pipe_trace_dir: Some(dir.join("traces")),
            tracer_capacity: 1 << 14,
        };
        run_cell(&job, &ctx, ExperimentScale::Tiny, false, Some(&obs), None).expect("cell run");

        for label in ["ooo", "crisp"] {
            let stem = format!("fig1-pointer_chase-{label}");
            let jsonl =
                std::fs::read_to_string(dir.join("telemetry").join(format!("{stem}.jsonl")))
                    .expect("telemetry stream exists");
            let samples = crisp_obs::parse_jsonl(&jsonl).expect("stream parses");
            assert!(!samples.is_empty(), "{label} sampled at least once");
            assert!(samples[0].interval_cycles >= 512);
            assert!(jsonl.contains("\"cell\":\"fig1/pointer_chase\""));

            let stalls =
                std::fs::read_to_string(dir.join("telemetry").join(format!("{stem}.stalls.txt")))
                    .expect("stall table exists");
            assert!(stalls.contains("pc"), "{stalls}");

            let kanata = std::fs::read_to_string(dir.join("traces").join(format!("{stem}.kanata")))
                .expect("pipeline trace exists");
            assert!(
                kanata.starts_with(crisp_obs::KANATA_HEADER),
                "Kanata header present"
            );
            assert!(kanata.contains("\nR\t"), "at least one retire command");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
