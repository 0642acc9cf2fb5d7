//! `simulate`: the prefetcher-zoo simulation set without the pipeline —
//! the engine, memory and branch-prediction crates do all the work.

use crate::calib::Speed;
use crate::probe::{self, SimRun, StageTimes};
use crate::report::{Digest, Outcome};
use crate::stats::{geomean, geomean_speedup_pct, median, p50};
use crate::{timed_passes, Opts, SplitMix};
use crisp_core::{CrispError, Input, SchedulerKind, SimConfig, Workload};
use crisp_emu::Emulator;
use crisp_isa::Trace;
use crisp_slicer::CriticalityMap;
use std::time::Instant;

/// pointer_chase is the paper's motivating microbenchmark; mcf and lbm
/// are the irregular and streaming memory-bound kernels; gcc is
/// branch- and frontend-heavy with the largest CRISP annotation.
const KERNELS: [&str; 4] = ["pointer_chase", "mcf", "lbm", "gcc"];
/// One OOO run per hardware prefetcher: `(role, registry spec)`. The
/// `ooo` role is the Table 1 `bop+stream` baseline.
const OOO_RUNS: [(&str, &str); 6] = [
    ("ooo", "bop+stream"),
    ("none", "none"),
    ("stride", "stride"),
    ("ghbw", "ghbw"),
    ("sisb", "sisb"),
    ("spp", "spp"),
];
/// Instructions in each kernel's ref-input evaluation trace.
const EVAL_INSTRUCTIONS: u64 = 200_000;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;

struct Kernel {
    name: &'static str,
    eval: Workload,
    trace: Trace,
    map: CriticalityMap,
}

/// Builds each kernel, traces its ref input, and derives its CRISP map
/// from a profile of the train input (so CRISP is measured on input it
/// was not tuned on).
fn setup(st: &mut StageTimes) -> Result<Vec<Kernel>, CrispError> {
    let mut out = Vec::new();
    for name in KERNELS {
        let (map, _, _, _) = probe::build_map(name, &probe::tiny(), false, st)?;
        let t = Instant::now();
        let eval = crisp_core::build(name, Input::Ref)?;
        st.build_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let trace = Emulator::new(&eval.program, eval.memory.clone()).run(EVAL_INSTRUCTIONS);
        st.emu_s += t.elapsed().as_secs_f64();
        st.emu_insts += trace.len() as u64;
        out.push(Kernel {
            name,
            eval,
            trace,
            map,
        });
    }
    Ok(out)
}

/// The simulations of one pass, `(kernel index, run index)`, where run
/// indices past the OOO runs are the CRISP run; the seed fixes the order.
fn order(seed: u64) -> Vec<(usize, usize)> {
    let mut v: Vec<(usize, usize)> = (0..KERNELS.len())
        .flat_map(|k| (0..=OOO_RUNS.len()).map(move |r| (k, r)))
        .collect();
    SplitMix::new(seed).shuffle(&mut v);
    v
}

fn pass(
    kernels: &[Kernel],
    order: &[(usize, usize)],
    traced: bool,
    speed: &mut Speed,
) -> Result<Vec<SimRun>, CrispError> {
    let mut runs = Vec::with_capacity(order.len());
    for &(k, r) in order {
        let kern = &kernels[k];
        let mut cfg = probe::arm(SimConfig::skylake(), traced);
        cfg.collect_pc_stats = false;
        let run = match OOO_RUNS.get(r) {
            Some((role, spec)) => {
                cfg.memory.prefetcher = spec.parse().expect("builtin prefetcher spec");
                let cfg = cfg.with_scheduler(SchedulerKind::OldestReadyFirst);
                probe::simulate(cfg, kern.name, role, &kern.eval, &kern.trace, None)?
            }
            None => probe::simulate(
                cfg.with_scheduler(SchedulerKind::Crisp),
                kern.name,
                "crisp",
                &kern.eval,
                &kern.trace,
                Some(kern.map.as_slice()),
            )?,
        };
        runs.push(run);
        speed.sample(1, 1);
    }
    // Canonical (kernel, run) order, whatever order they ran in.
    let mut idx: Vec<usize> = (0..runs.len()).collect();
    idx.sort_by_key(|&i| order[i]);
    Ok(idx.into_iter().map(|i| runs[i].clone()).collect())
}

fn check_pass(out: &mut Outcome, kernels: &[Kernel], runs: &[SimRun], reference: &[SimRun]) {
    out.attempted += runs.len() as u64;
    for (i, (r, want)) in runs.iter().zip(reference).enumerate() {
        let kern = &kernels[i / (OOO_RUNS.len() + 1)];
        let mut ok = true;
        if r.result.retired != kern.trace.len() as u64 {
            ok = false;
            out.problems.push(format!(
                "{}/{}: retired {} of {}",
                r.kernel,
                r.role,
                r.result.retired,
                kern.trace.len()
            ));
        }
        if r.result.mem.prefetch.iter().any(|e| e.useful > e.issued) {
            ok = false;
            out.problems
                .push(format!("{}/{}: useful > issued", r.kernel, r.role));
        }
        if probe::sim_words(&r.result) != probe::sim_words(&want.result) {
            ok = false;
            out.problems
                .push(format!("{}/{}: differs between passes", r.kernel, r.role));
        }
        out.failed += u64::from(!ok);
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let order = order(opts.seed);
    let err = |e: CrispError| e.to_string();
    let mut st = StageTimes::default();
    let mut setups = Vec::new();
    let mut kernels = Vec::new();
    for _ in 0..if opts.traced { 1 } else { SETUPS } {
        st = StageTimes::default();
        let t = Instant::now();
        kernels = setup(&mut st).map_err(err)?;
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut speed = Speed::default();
    let passes = timed_passes(if opts.traced { 0.0 } else { opts.seconds }, 2, |_| {
        pass(&kernels, &order, false, &mut speed).map_err(err)
    })?;
    let reference = passes[0].1.clone();
    for (_, runs) in &passes {
        check_pass(&mut out, &kernels, runs, &reference);
    }
    // A pass's fixed work is its try_run calls, without the calibration
    // chunks between them.
    let busy = |runs: &[SimRun]| runs.iter().map(|r| r.host_s).sum::<f64>();
    let walls: Vec<f64> = passes.iter().map(|(_, r)| busy(r)).collect();
    let all: Vec<SimRun> = passes.iter().flat_map(|(_, r)| r.iter().cloned()).collect();

    if opts.traced {
        let (_, traced) = timed_passes(0.0, 1, |_| {
            pass(&kernels, &order, true, &mut Speed::default()).map_err(err)
        })?
        .remove(0);
        check_pass(&mut out, &kernels, &traced, &reference);
        let wall_u = median(&walls).unwrap_or(0.0);
        out.set("obs.trace_overhead_ratio", busy(&traced) / wall_u - 1.0);
        probe::sim_layer_metrics(&mut out, &all, &traced);
        probe::stage_layer_metrics(&mut out, &st);
        return Ok(out);
    }

    let ms: Vec<f64> = all.iter().map(|r| r.host_s * 1e3).collect();
    let (setup, wall) = (
        median(&setups).unwrap_or(0.0),
        median(&walls).unwrap_or(0.0),
    );
    let p50_ms = p50(&ms).ok_or("too few latency samples for a median")?;
    println!(
        "simulations timed: {} over {} pass(es); measured wall_s {wall:.3} setup_s {setup:.3} \
         job_p50_ms {p50_ms:.3}; calibration {} chunks, median {:.3} ms",
        ms.len(),
        passes.len(),
        speed.len(),
        speed.ms()
    );
    out.set("setup_s", speed.scale(setup));
    out.set("wall_s", speed.scale(wall));
    out.set("job_p50_ms", speed.scale(p50_ms));
    let base = |k: &str| reference.iter().find(|r| r.kernel == k && r.role == "ooo");
    let ipcs: Vec<f64> = KERNELS
        .iter()
        .filter_map(|k| base(k))
        .map(|r| r.result.ipc())
        .collect();
    out.set("ooo_ipc", geomean(&ipcs).unwrap_or(0.0));
    let gains: Vec<f64> = reference
        .iter()
        .filter(|r| r.role == "crisp")
        .filter_map(|c| base(c.kernel).map(|b| c.result.speedup_over(&b.result)))
        .collect();
    out.set(
        "crisp_speedup_pct",
        geomean_speedup_pct(&gains).unwrap_or(0.0),
    );
    let mut d = Digest::default();
    for r in &reference {
        d.words(&r.result.snapshot_words());
    }
    println!("digest simulations {}", d.hex());
    Ok(out)
}
