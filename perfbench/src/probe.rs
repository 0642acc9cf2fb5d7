//! The stage probe: `run_crisp_pipeline`'s stages called one by one
//! through their public functions, each timed from outside, so the
//! traced runs can say where a pipeline pass spends its host time.

use crate::report::{Outcome, PHASES, PREFETCHERS, STALLS};
use crisp_core::{
    CrispError, IbdaConfig, Input, PipelineConfig, SchedulerKind, SimResult, SliceMode,
};
use crisp_emu::Emulator;
use crisp_ibda::Ibda;
use crisp_isa::{Pc, Trace};
use crisp_profile::{amat_map, classify_branches, classify_loads};
use crisp_sim::{SimConfig, Simulator};
use crisp_slicer::{
    critical_path_filter, extract_slices, Annotator, CriticalityMap, DepGraph, LatencyModel,
};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// The pipeline configuration of `ExperimentScale::Tiny` (the scale every
/// workload runs at).
pub fn tiny() -> PipelineConfig {
    PipelineConfig {
        train_instructions: 40_000,
        eval_instructions: 60_000,
        ..PipelineConfig::paper()
    }
}

/// One simulation the benchmark ran and timed.
#[derive(Clone, Debug)]
pub struct SimRun {
    /// Workload name.
    pub kernel: &'static str,
    /// `profile`, `ooo` (evaluation baseline) or `crisp`.
    pub role: &'static str,
    /// Host seconds inside `Simulator::try_run`.
    pub host_s: f64,
    /// The result.
    pub result: SimResult,
}

/// Host seconds per stage, summed over every probed kernel.
#[derive(Clone, Debug, Default)]
pub struct StageTimes {
    pub build_s: f64,
    pub emu_s: f64,
    pub emu_insts: u64,
    pub classify_s: f64,
    pub depgraph_s: f64,
    pub extract_s: f64,
    pub filter_s: f64,
    pub annotate_s: f64,
    pub ibda_train_s: f64,
    pub delinquent: usize,
    pub hard_branches: usize,
    pub slice_insts: usize,
    pub tagged: usize,
    pub ibda_tagged: usize,
}

/// What one kernel's probe produced.
#[derive(Clone, Debug)]
pub struct Probe {
    /// The annotation (compared against `run_crisp_pipeline`'s).
    pub map: CriticalityMap,
    /// Profile, OOO evaluation and CRISP evaluation runs, in that order.
    pub sims: Vec<SimRun>,
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Runs one simulation, timing only the `try_run` call.
pub fn simulate(
    cfg: SimConfig,
    kernel: &'static str,
    role: &'static str,
    w: &crisp_core::Workload,
    trace: &Trace,
    map: Option<&[bool]>,
) -> Result<SimRun, CrispError> {
    let sim = Simulator::try_new(cfg)?;
    let t = Instant::now();
    let result = sim.try_run(&w.program, trace, map)?;
    Ok(SimRun {
        kernel,
        role,
        host_s: t.elapsed().as_secs_f64(),
        result,
    })
}

/// Stages 1–8 on the train input: build, trace, profile, classify,
/// slice, filter and annotate — `run_crisp_pipeline`'s calls in its
/// order. Returns the map and the profile run.
pub fn build_map(
    name: &str,
    cfg: &PipelineConfig,
    traced: bool,
    st: &mut StageTimes,
) -> Result<(CriticalityMap, SimRun, crisp_core::Workload, Trace), CrispError> {
    let train = timed(&mut st.build_s, || crisp_core::build(name, Input::Train))?;
    let trace = timed(&mut st.emu_s, || {
        Emulator::new(&train.program, train.memory.clone()).run(cfg.train_instructions)
    });
    st.emu_insts += trace.len() as u64;
    let mut psim = arm(cfg.sim.clone(), traced);
    psim.scheduler = SchedulerKind::OldestReadyFirst;
    psim.collect_pc_stats = true;
    let profile = simulate(psim, train.name, "profile", &train, &trace, None)?;

    let (loads, branches) = timed(&mut st.classify_s, || {
        (
            classify_loads(&profile.result, &cfg.classifier),
            classify_branches(&profile.result, &cfg.classifier),
        )
    });
    st.delinquent += loads.len();
    st.hard_branches += branches.len();

    let graph = timed(&mut st.depgraph_s, || {
        DepGraph::build(&train.program, &trace)
    });
    let load_roots: Vec<Pc> = loads.iter().map(|d| d.pc).collect();
    let branch_roots: Vec<Pc> = branches.iter().map(|b| b.pc).collect();
    let (load_slices, branch_slices) = timed(&mut st.extract_s, || {
        let slices =
            |roots: &[Pc]| extract_slices(&train.program, &trace, &graph, roots, &cfg.slice);
        (slices(&load_roots), slices(&branch_roots))
    });

    let ordered: Vec<HashSet<Pc>> = timed(&mut st.filter_s, || {
        let model = LatencyModel::new(
            amat_map(&profile.result),
            f64::from(cfg.sim.memory.l1d_latency as u32),
        );
        let loads = (cfg.mode != SliceMode::BranchesOnly).then_some(&load_slices);
        let branches = (cfg.mode != SliceMode::LoadsOnly).then_some(&branch_slices);
        loads
            .into_iter()
            .chain(branches)
            .flatten()
            .map(|s| critical_path_filter(&train.program, s, &model, cfg.critical_path_fraction))
            .collect()
    });
    st.slice_insts += load_slices
        .iter()
        .chain(&branch_slices)
        .map(|s| s.pcs.len())
        .sum::<usize>();

    let map = timed(&mut st.annotate_s, || {
        let mut counts: HashMap<Pc, u64> = HashMap::new();
        for rec in &trace {
            *counts.entry(rec.pc).or_insert(0) += 1;
        }
        let map = cfg.annotator.annotate(&train.program, &ordered, &counts);
        let _ = Annotator::footprint(&train.program, &map, &counts);
        map
    });
    st.tagged += map.count();
    Ok((map, profile, train, trace))
}

/// The whole probe for one kernel: stages 1–8, the two evaluation runs
/// on the ref input (stage 9), and IBDA training for Figure 7's four IST
/// sizes (stage 10). `traced` turns on HostProf and stall attribution.
pub fn probe(
    name: &str,
    cfg: &PipelineConfig,
    traced: bool,
    st: &mut StageTimes,
) -> Result<Probe, CrispError> {
    let (map, profile, train, train_trace) = build_map(name, cfg, traced, st)?;
    let eval = timed(&mut st.build_s, || crisp_core::build(name, Input::Ref))?;
    let trace = timed(&mut st.emu_s, || {
        Emulator::new(&eval.program, eval.memory.clone()).run(cfg.eval_instructions)
    });
    st.emu_insts += trace.len() as u64;
    let mut esim = arm(cfg.sim.clone(), traced);
    esim.collect_pc_stats = false;
    let ooo = simulate(
        esim.clone().with_scheduler(SchedulerKind::OldestReadyFirst),
        eval.name,
        "ooo",
        &eval,
        &trace,
        None,
    )?;
    let crisp = simulate(
        esim.with_scheduler(SchedulerKind::Crisp),
        eval.name,
        "crisp",
        &eval,
        &trace,
        Some(map.as_slice()),
    )?;

    let missing: Vec<Pc> = profile
        .result
        .load_pc_stats
        .iter()
        .filter(|(_, s)| s.llc_misses > 0)
        .map(|(&pc, _)| pc)
        .collect();
    for ist in [
        IbdaConfig::ist_1k(),
        IbdaConfig::ist_8k(),
        IbdaConfig::ist_64k(),
        IbdaConfig::ist_infinite(),
    ] {
        let mut ibda = Ibda::new(ist, &missing);
        timed(&mut st.ibda_train_s, || {
            ibda.train(&train.program, &train_trace)
        });
        st.ibda_tagged += ibda
            .criticality_map(eval.program.len())
            .iter()
            .filter(|&&b| b)
            .count();
    }
    Ok(Probe {
        map,
        sims: vec![profile, ooo, crisp],
    })
}

/// Turns on the engine's self-profile and stall attribution for traced
/// runs.
pub fn arm(mut sim: SimConfig, traced: bool) -> SimConfig {
    sim.hostprof = traced;
    sim.stall_attribution = traced;
    sim
}

/// A result's simulated state as words, without the stall table (which
/// only traced runs fill): equal words mean an identical simulation.
pub fn sim_words(r: &SimResult) -> Vec<u64> {
    let mut r = r.clone();
    r.stall_table = Default::default();
    r.snapshot_words()
}

/// Compares a probe against `run_crisp_pipeline` on the same kernel;
/// returns the mismatches.
pub fn matches_pipeline(p: &Probe, r: &crisp_core::PipelineResult) -> Vec<String> {
    let mut bad = Vec::new();
    if p.map.as_slice() != r.map.as_slice() {
        bad.push(format!("{}: criticality map differs", r.name));
    }
    for (run, want) in p.sims.iter().zip([&r.profile, &r.baseline, &r.crisp]) {
        if sim_words(&run.result) != sim_words(want) {
            bad.push(format!("{}: {} SimResult differs", r.name, run.role));
        }
    }
    bad
}

/// Folds simulations into the `sim.*`, `mem.*` and `uarch.*` per-layer
/// metrics: host time and throughput from the `untraced` runs, the
/// self-profile and stall attribution from the `traced` runs of the same
/// simulations. Roles name the run: `ooo` is the `bop+stream` OOO
/// baseline, `crisp` the CRISP run, a prefetcher name an OOO run under
/// that prefetcher.
pub fn sim_layer_metrics(out: &mut Outcome, untraced: &[SimRun], traced: &[SimRun]) {
    let runs = untraced;
    let mut busy = 0.0;
    let (mut retired, mut cycles) = (0u64, 0u64);
    let mut kips: HashMap<&str, (u64, f64)> = HashMap::new();
    for r in runs {
        busy += r.host_s;
        retired += r.result.retired;
        cycles += r.result.cycles;
        for key in [r.kernel, r.role] {
            let e = kips.entry(key).or_default();
            e.0 += r.result.retired;
            e.1 += r.host_s;
        }
    }
    for name in PHASES.iter().map(|p| format!("sim.phase.{p}_ns")).chain(
        [
            "rs_slots_scanned",
            "age_compares",
            "lsq_probes",
            "mshr_probes",
        ]
        .iter()
        .map(|c| format!("sim.{c}")),
    ) {
        out.set(&name, 0.0);
    }
    for r in traced {
        let hp = &r.result.hostprof;
        for (i, p) in PHASES.iter().enumerate() {
            out.add(&format!("sim.phase.{p}_ns"), hp.phase_ns[i] as f64);
        }
        out.add("sim.rs_slots_scanned", hp.rs_slots_scanned as f64);
        out.add("sim.age_compares", hp.age_compares as f64);
        out.add("sim.lsq_probes", hp.lsq_probes as f64);
        out.add("sim.mshr_probes", hp.mshr_probes as f64);
    }
    out.set("sim.busy_s", busy);
    out.set("sim.retired", retired as f64);
    out.set("sim.cycles", cycles as f64);
    for k in ["pointer_chase", "mcf", "lbm", "gcc", "ooo", "crisp"] {
        let (n, s) = kips.get(k).copied().unwrap_or_default();
        out.set(
            &format!("sim.kips.{k}"),
            if s > 0.0 { n as f64 / s / 1e3 } else { 0.0 },
        );
    }

    // Lost cycles per 1k instructions, OOO minus CRISP.
    let per_k = |role: &str, class: usize| -> f64 {
        let (mut c, mut n) = (0u64, 0u64);
        for r in traced.iter().filter(|r| r.role == role) {
            n += r.result.retired;
            c += r
                .result
                .stall_table
                .top_k(usize::MAX)
                .iter()
                .map(|row| row.cycles[class])
                .sum::<u64>();
        }
        if n == 0 {
            0.0
        } else {
            c as f64 * 1e3 / n as f64
        }
    };
    for (i, s) in STALLS.iter().enumerate() {
        out.set(
            &format!("sim.stall_delta.{s}"),
            per_k("ooo", i) - per_k("crisp", i),
        );
    }

    let ooo: Vec<&SimRun> = runs.iter().filter(|r| r.role == "ooo").collect();
    let ooo_retired: u64 = ooo.iter().map(|r| r.result.retired).sum();
    let per_kinst = |x: u64| {
        if ooo_retired == 0 {
            0.0
        } else {
            x as f64 * 1e3 / ooo_retired as f64
        }
    };
    out.set(
        "mem.llc_load_mpki",
        per_kinst(ooo.iter().map(|r| r.result.mem.load_llc_misses).sum()),
    );
    out.set(
        "uarch.branch_mpki",
        per_kinst(ooo.iter().map(|r| r.result.cond_mispredicts).sum()),
    );
    for m in PREFETCHERS {
        let role = if m == "base" { "ooo" } else { m };
        let (mut issued, mut useful) = (0u64, 0u64);
        for r in runs.iter().filter(|r| r.role == role) {
            let t = r.result.mem.prefetch_totals();
            issued += t.issued;
            useful += t.useful;
        }
        out.set(&format!("mem.{m}.issued"), issued as f64);
        out.set(&format!("mem.{m}.useful"), useful as f64);
        let accuracy = if issued == 0 {
            0.0
        } else {
            useful as f64 / issued as f64
        };
        out.set(&format!("mem.{m}.accuracy"), accuracy);
    }
}

/// Folds the stage timings into the emu, workloads, profile, slicer and
/// ibda per-layer metrics.
pub fn stage_layer_metrics(out: &mut Outcome, st: &StageTimes) {
    out.set("workloads.build_s", st.build_s);
    out.set("emu.busy_s", st.emu_s);
    let emu_kips = if st.emu_s > 0.0 {
        st.emu_insts as f64 / st.emu_s / 1e3
    } else {
        0.0
    };
    out.set("emu.kips", emu_kips);
    out.set("profile.classify_s", st.classify_s);
    out.set("profile.delinquent_loads", st.delinquent as f64);
    out.set("profile.hard_branches", st.hard_branches as f64);
    out.set("slicer.depgraph_s", st.depgraph_s);
    out.set("slicer.extract_s", st.extract_s);
    out.set("slicer.filter_s", st.filter_s);
    out.set("slicer.annotate_s", st.annotate_s);
    out.set("slicer.slice_insts", st.slice_insts as f64);
    out.set("slicer.tagged", st.tagged as f64);
    let keep = if st.slice_insts == 0 {
        0.0
    } else {
        st.tagged as f64 / st.slice_insts as f64
    };
    out.set("slicer.keep_ratio", keep);
    out.set("ibda.train_s", st.ibda_train_s);
    out.set("ibda.tagged", st.ibda_tagged as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_probe_equals_run_crisp_pipeline() {
        let cfg = PipelineConfig {
            train_instructions: 20_000,
            eval_instructions: 20_000,
            ..tiny()
        };
        let mut st = StageTimes::default();
        let p = probe("mcf", &cfg, true, &mut st).expect("probe runs");
        let r = crisp_core::run_crisp_pipeline("mcf", &cfg).expect("pipeline runs");
        assert_eq!(matches_pipeline(&p, &r), Vec::<String>::new());
        assert!(p.sims.iter().all(|s| s.result.hostprof.enabled));
        assert!(st.tagged > 0 && st.slice_insts >= st.tagged);
        assert_eq!(st.emu_insts, 40_000);
    }
}
