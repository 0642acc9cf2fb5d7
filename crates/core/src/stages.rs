//! The pipeline as a graph of memoized stages (paper Figure 5).
//!
//! Every stage is a pure function of the inputs in its key, and its key
//! is the `Debug` rendering of exactly those inputs, with only the
//! per-attempt plumbing (`cancel`, `progress`) cleared from a
//! [`SimConfig`] — so a new config field joins every key by default.
//!
//! | stage     | key                                               | lives for |
//! |-----------|---------------------------------------------------|-----------|
//! | `trace`   | workload, input, instructions                     | the sweep |
//! | `graph`   | the train window                                  | one cell  |
//! | `index`   | the train window (root-instance index)            | one cell  |
//! | `profile` | train window, effective `SimConfig`               | the sweep |
//! | `roots`   | profile, classifier                               | the sweep |
//! | `slice`   | train window, `SliceConfig`, root PC              | the sweep |
//! | `filter`  | slice, the profile's latency model, keep fraction | the sweep |
//! | `map`     | filtered roots in order, slow ops, annotator      | the sweep |
//! | `ibda`    | profile, eval window, IST geometry                | the sweep |
//! | `eval`    | eval window, effective `SimConfig`, map bits      | the sweep |
//!
//! A [`StageMemo`] holds the results a sweep shares, its traces
//! included: its cells each get a [`Stages`] handle, which adds the
//! dependence graphs and root-instance indexes of that one cell.
//! Sweep-scoped stages are single-flight (see `crate::memo`).

use crate::error::CrispError;
use crate::memo::{Served, Table};
use crate::pipeline::{IbdaResult, PipelineConfig, PipelineResult, SliceMode};
use crisp_emu::Emulator;
use crisp_ibda::{Ibda, IbdaConfig};
use crisp_isa::{Pc, Program, Trace};
use crisp_profile::{
    amat_map, classify_branches, classify_loads, classify_slow_ops, ClassifierConfig,
    DelinquentLoad, HardBranch,
};
use crisp_sim::{CancelToken, SchedulerKind, SimConfig, SimResult, Simulator};
use crisp_slicer::{
    critical_path_filter, extract_slice, Annotator, CriticalityMap, DepGraph, FootprintReport,
    InstanceIndex, LatencyModel, Slice, SliceConfig,
};
use crisp_workloads::{all_names, build, Input, Workload};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many stage kinds there are.
const KINDS: usize = 10;

/// One stage of the pipeline graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    /// A workload built and emulated for a window of instructions.
    Trace,
    /// The train trace's dependence graph.
    Graph,
    /// The train trace's root-instance index.
    Index,
    /// The profiling simulation (train input, baseline scheduler).
    Profile,
    /// Delinquent loads and hard branches classified from a profile.
    Roots,
    /// One root's backward slice.
    Slice,
    /// One slice's critical path under a profile's latency model.
    Filter,
    /// The criticality map and footprint of a set of filtered slices.
    Map,
    /// An IBDA-learned criticality map.
    Ibda,
    /// An evaluation simulation (ref input).
    Eval,
}

impl StageKind {
    /// Every kind, in graph order.
    pub const ALL: [StageKind; KINDS] = [
        StageKind::Trace,
        StageKind::Graph,
        StageKind::Index,
        StageKind::Profile,
        StageKind::Roots,
        StageKind::Slice,
        StageKind::Filter,
        StageKind::Map,
        StageKind::Ibda,
        StageKind::Eval,
    ];

    /// The stage's name in counts and spans.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Trace => "trace",
            StageKind::Graph => "graph",
            StageKind::Index => "index",
            StageKind::Profile => "profile",
            StageKind::Roots => "roots",
            StageKind::Slice => "slice",
            StageKind::Filter => "filter",
            StageKind::Map => "map",
            StageKind::Ibda => "ibda",
            StageKind::Eval => "eval",
        }
    }

    /// Whether results live for the whole sweep rather than for one
    /// cell. Only the graph and the index are per cell: a cell builds
    /// them for the slices it computes and drops them when it ends.
    pub fn sweep_scoped(self) -> bool {
        !matches!(self, StageKind::Graph | StageKind::Index)
    }
}

/// What a memo did: simulations run, and per stage kind the requests
/// that computed their result and those served another's.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// Simulations run, memoized or not.
    pub simulations: u64,
    /// Computed requests, indexed by `StageKind as usize`.
    pub computed: [u64; KINDS],
    /// Shared requests, indexed by `StageKind as usize`.
    pub shared: [u64; KINDS],
}

impl StageCounts {
    /// Computed requests of the sweep-scoped stages. Single-flight makes
    /// this independent of how cells were scheduled.
    pub fn sweep_computed(&self) -> u64 {
        Self::sweep_sum(&self.computed)
    }

    /// Shared requests of the sweep-scoped stages.
    pub fn sweep_shared(&self) -> u64 {
        Self::sweep_sum(&self.shared)
    }

    fn sweep_sum(per_kind: &[u64; KINDS]) -> u64 {
        StageKind::ALL
            .iter()
            .filter(|k| k.sweep_scoped())
            .map(|&k| per_kind[k as usize])
            .sum()
    }
}

/// One finished stage request, as reported to a cell's observer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageEvent {
    /// The stage.
    pub kind: StageKind,
    /// The request's number within its cell, from 1.
    pub seq: u32,
    /// The computing request that made this one, if any.
    pub parent: Option<(StageKind, u32)>,
    /// Served from another request's result; the span is then any
    /// single-flight wait.
    pub shared: bool,
    /// Start, unix nanoseconds.
    pub start_ns: u64,
    /// End, unix nanoseconds.
    pub end_ns: u64,
}

/// A workload's program and its trace for one input. The initial
/// memory image is moved into the emulator and freed with it.
#[derive(Clone, Debug)]
pub struct Traced {
    /// The built workload's program.
    pub program: Program,
    /// Its first instructions, emulated.
    pub trace: Trace,
}

/// The classified roots of one profile.
#[derive(Clone, Debug)]
struct Roots {
    loads: Vec<DelinquentLoad>,
    branches: Vec<HardBranch>,
}

/// The `map` stage's result.
#[derive(Clone, Debug)]
struct Annotation {
    map: CriticalityMap,
    footprint: FootprintReport,
}

/// A window of one workload's execution: the `trace` stage's key.
#[derive(Clone, Copy, Debug)]
struct Window {
    workload: &'static str,
    input: Input,
    instructions: u64,
}

/// A pipeline's train (profiling) and ref (evaluation) windows.
fn windows(workload: &'static str, cfg: &PipelineConfig) -> (Window, Window) {
    let window = |input, instructions| Window {
        workload,
        input,
        instructions,
    };
    (
        window(Input::Train, cfg.train_instructions),
        window(Input::Ref, cfg.eval_instructions),
    )
}

/// A profile and its key. Its `Debug` rendering is the key, so the keys
/// of the stages downstream of a profile embed it.
struct Profiled {
    key: String,
    result: Arc<SimResult>,
    l1d_latency: u64,
    /// The profile's latency model, built once for all its filters.
    model: OnceCell<LatencyModel>,
}

impl Profiled {
    /// Section 3.5's latency model: fixed latencies, except loads, which
    /// take the AMAT this profile measured (an L1 hit if unmeasured).
    fn latency_model(&self) -> &LatencyModel {
        self.model.get_or_init(|| {
            LatencyModel::new(amat_map(&self.result), f64::from(self.l1d_latency as u32))
        })
    }
}

impl fmt::Debug for Profiled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.key)
    }
}

/// The `map` stage's inputs.
#[derive(Debug)]
struct MapInputs<'a> {
    train: Window,
    slice: &'a SliceConfig,
    profile: &'a Profiled,
    keep: f64,
    roots: &'a [Pc],
    slow_ops: bool,
    annotator: &'a Annotator,
}

/// The stage results one sweep shares between its cells, traces
/// included, and the sweep's counts. Nothing outlives the memo: each
/// sweep starts with an empty one.
#[derive(Default)]
pub struct StageMemo {
    traces: Table<Traced>,
    profile: Table<SimResult>,
    roots: Table<Roots>,
    slice: Table<Slice>,
    filter: Table<HashSet<Pc>>,
    map: Table<Annotation>,
    ibda: Table<Vec<bool>>,
    eval: Table<SimResult>,
    simulations: AtomicU64,
    computed: [AtomicU64; KINDS],
    shared: [AtomicU64; KINDS],
}

impl StageMemo {
    /// An empty memo.
    pub fn new() -> StageMemo {
        StageMemo::default()
    }

    /// One cell's handle on the memo. `cancel` is the cell's token:
    /// waits for a stage another cell is computing poll it.
    pub fn cell(&self, cancel: Option<CancelToken>) -> Stages<'_> {
        Stages {
            memo: self,
            cancel,
            observer: None,
            graphs: Table::default(),
            indexes: Table::default(),
            seq: Cell::new(0),
            open: RefCell::new(Vec::new()),
        }
    }

    /// The counts so far.
    pub fn counts(&self) -> StageCounts {
        let read = |a: &[AtomicU64; KINDS]| a.each_ref().map(|c| c.load(Ordering::Relaxed));
        StageCounts {
            simulations: self.simulations.load(Ordering::Relaxed),
            computed: read(&self.computed),
            shared: read(&self.shared),
        }
    }
}

/// Receives a cell's finished stage requests.
type Observer<'m> = Box<dyn Fn(&StageEvent) + 'm>;

/// One cell's view of the stages: the sweep's [`StageMemo`] plus the
/// cell's own dependence graphs and root-instance indexes, which it
/// drops when it ends.
pub struct Stages<'m> {
    memo: &'m StageMemo,
    cancel: Option<CancelToken>,
    observer: Option<Observer<'m>>,
    graphs: Table<DepGraph>,
    indexes: Table<InstanceIndex>,
    seq: Cell<u32>,
    open: RefCell<Vec<(StageKind, u32)>>,
}

/// A `SimConfig`'s key: its `Debug` rendering without the per-attempt
/// plumbing.
fn sim_key(sim: &SimConfig) -> String {
    let mut sim = sim.clone();
    sim.cancel = None;
    sim.progress = None;
    format!("{sim:?}")
}

/// A criticality map's key: its length and bits in hex.
fn bits_key(map: Option<&[bool]>) -> String {
    let Some(bits) = map else {
        return "none".to_string();
    };
    let mut key = format!("{}:", bits.len());
    for nibble in bits.chunks(4) {
        let v = nibble
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc | (u32::from(b) << i));
        key.push(char::from_digit(v, 16).expect("a nibble is one hex digit"));
    }
    key
}

/// Per-PC dynamic execution counts of a trace (annotation budget input).
fn exec_counts(trace: &Trace) -> HashMap<Pc, u64> {
    let mut counts = HashMap::new();
    for rec in trace {
        *counts.entry(rec.pc).or_insert(0) += 1;
    }
    counts
}

/// The registry's spelling of a workload name, without building it.
fn registered(name: &str) -> Result<&'static str, CrispError> {
    all_names()
        .iter()
        .copied()
        .find(|n| *n == name)
        .ok_or_else(|| CrispError::UnknownWorkload(name.to_string()))
}

/// The profiling run's machine: the baseline scheduler, collecting
/// per-PC statistics.
fn profile_sim(sim: &SimConfig) -> SimConfig {
    let mut sim = sim.clone();
    sim.scheduler = SchedulerKind::OldestReadyFirst;
    sim.collect_pc_stats = true;
    sim
}

/// The evaluation runs' machine under `scheduler`.
fn eval_sim(sim: &SimConfig, scheduler: SchedulerKind) -> SimConfig {
    let mut sim = sim.clone();
    sim.collect_pc_stats = false;
    sim.with_scheduler(scheduler)
}

impl<'m> Stages<'m> {
    /// Reports every finished stage request to `observer`.
    pub fn observed(mut self, observer: impl Fn(&StageEvent) + 'm) -> Stages<'m> {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Serves one request from `table`, counting it and reporting it to
    /// the observer.
    fn get<T>(
        &self,
        kind: StageKind,
        table: &Table<T>,
        key: String,
        compute: impl FnOnce() -> Result<T, CrispError>,
    ) -> Result<Arc<T>, CrispError> {
        let seq = self.seq.get() + 1;
        self.seq.set(seq);
        let parent = self.open.borrow().last().copied();
        let start_ns = self.observer.as_ref().map(|_| crisp_obs::unix_ns());
        let (value, served) = table.get(key, self.cancel.as_ref(), || {
            self.open.borrow_mut().push((kind, seq));
            let out = compute();
            self.open.borrow_mut().pop();
            out
        })?;
        let counts = match served {
            Served::Computed => &self.memo.computed,
            Served::Shared => &self.memo.shared,
        };
        counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        if let (Some(observer), Some(start_ns)) = (&self.observer, start_ns) {
            observer(&StageEvent {
                kind,
                seq,
                parent,
                shared: served == Served::Shared,
                start_ns,
                end_ns: crisp_obs::unix_ns(),
            });
        }
        Ok(value)
    }

    /// Runs one simulation, counted in the sweep's simulations and never
    /// memoized (the stages call it for what they compute).
    ///
    /// # Errors
    ///
    /// The simulator's.
    pub fn simulate(
        &self,
        sim: SimConfig,
        program: &Program,
        trace: &Trace,
        map: Option<&[bool]>,
    ) -> Result<SimResult, CrispError> {
        self.memo.simulations.fetch_add(1, Ordering::Relaxed);
        Ok(Simulator::try_new(sim)?.try_run(program, trace, map)?)
    }

    /// The `trace` stage: `name` built for `input` and emulated for
    /// `instructions`.
    ///
    /// # Errors
    ///
    /// [`CrispError::UnknownWorkload`] for unregistered names.
    pub fn trace(
        &self,
        name: &str,
        input: Input,
        instructions: u64,
    ) -> Result<Arc<Traced>, CrispError> {
        self.traced(Window {
            workload: registered(name)?,
            input,
            instructions,
        })
    }

    fn traced(&self, w: Window) -> Result<Arc<Traced>, CrispError> {
        let key = format!("{w:?}");
        self.get(StageKind::Trace, &self.memo.traces, key, || {
            let Workload {
                program, memory, ..
            } = build(w.workload, w.input)?;
            let trace = Emulator::new(&program, memory).run(w.instructions);
            Ok(Traced { program, trace })
        })
    }

    /// The `graph` stage over `t`, the trace of `train`. It takes the
    /// trace from its caller, so every trace request comes from a
    /// sweep-scoped computation and the counts do not depend on which
    /// cell builds a graph.
    fn graph(&self, train: Window, t: &Traced) -> Result<Arc<DepGraph>, CrispError> {
        self.get(StageKind::Graph, &self.graphs, format!("{train:?}"), || {
            Ok(DepGraph::build(&t.program, &t.trace))
        })
    }

    /// The `index` stage over `t`, the trace of `train`.
    fn index(&self, train: Window, t: &Traced) -> Result<Arc<InstanceIndex>, CrispError> {
        self.get(
            StageKind::Index,
            &self.indexes,
            format!("{train:?}"),
            || Ok(InstanceIndex::build(&t.program, &t.trace)),
        )
    }

    fn profile(&self, train: Window, sim: &SimConfig) -> Result<Profiled, CrispError> {
        let key = format!("{train:?} {}", sim_key(sim));
        let result = self.get(StageKind::Profile, &self.memo.profile, key.clone(), || {
            let t = self.traced(train)?;
            self.simulate(sim.clone(), &t.program, &t.trace, None)
        })?;
        Ok(Profiled {
            key,
            result,
            l1d_latency: sim.memory.l1d_latency,
            model: OnceCell::new(),
        })
    }

    fn roots(
        &self,
        profile: &Profiled,
        classifier: &ClassifierConfig,
    ) -> Result<Arc<Roots>, CrispError> {
        let key = format!("{:?}", (profile, classifier));
        self.get(StageKind::Roots, &self.memo.roots, key, || {
            Ok(Roots {
                loads: classify_loads(&profile.result, classifier),
                branches: classify_branches(&profile.result, classifier),
            })
        })
    }

    fn slice(
        &self,
        train: Window,
        config: &SliceConfig,
        root: Pc,
    ) -> Result<Arc<Slice>, CrispError> {
        let key = format!("{:?}", (train, config, root));
        self.get(StageKind::Slice, &self.memo.slice, key, || {
            let t = self.traced(train)?;
            let graph = self.graph(train, &t)?;
            let index = self.index(train, &t)?;
            Ok(extract_slice(&t.trace, &graph, &index, root, config))
        })
    }

    fn filtered(
        &self,
        train: Window,
        config: &SliceConfig,
        profile: &Profiled,
        keep: f64,
        root: Pc,
    ) -> Result<Arc<HashSet<Pc>>, CrispError> {
        let key = format!("{:?}", (train, config, root, profile, keep));
        self.get(StageKind::Filter, &self.memo.filter, key, || {
            let slice = self.slice(train, config, root)?;
            let t = self.traced(train)?;
            Ok(critical_path_filter(
                &t.program,
                &slice,
                profile.latency_model(),
                keep,
            ))
        })
    }

    fn map(&self, inputs: &MapInputs<'_>) -> Result<Arc<Annotation>, CrispError> {
        let key = format!("{inputs:?}");
        self.get(StageKind::Map, &self.memo.map, key, || {
            let t = self.traced(inputs.train)?;
            let program = &t.program;
            let filtered = |root: Pc| -> Result<HashSet<Pc>, CrispError> {
                let f = self.filtered(
                    inputs.train,
                    inputs.slice,
                    inputs.profile,
                    inputs.keep,
                    root,
                )?;
                Ok(HashSet::clone(&f))
            };
            // Slices arrive importance-ordered, as the classifier ranked
            // their roots.
            let mut ordered = inputs
                .roots
                .iter()
                .map(|&root| filtered(root))
                .collect::<Result<Vec<_>, _>>()?;
            if inputs.slow_ops {
                // Section 6.1 extension: divides and their input slices.
                for op in classify_slow_ops(program, &t.trace, 0.002) {
                    ordered.push(filtered(op.pc)?);
                }
            }
            let counts = exec_counts(&t.trace);
            let map = inputs.annotator.annotate(program, &ordered, &counts);
            let footprint = Annotator::footprint(program, &map, &counts);
            Ok(Annotation { map, footprint })
        })
    }

    fn ibda_map(
        &self,
        profile: &Profiled,
        train: Window,
        eval: Window,
        config: IbdaConfig,
    ) -> Result<Arc<Vec<bool>>, CrispError> {
        let key = format!("{:?}", (profile, eval, config));
        self.get(StageKind::Ibda, &self.memo.ibda, key, || {
            // The hardware observes its own cache misses: the profile
            // says which loads miss at all (instance-level behaviour is
            // frequency-approximated inside the DLT).
            let missing: Vec<Pc> = profile
                .result
                .load_pc_stats
                .iter()
                .filter(|(_, s)| s.llc_misses > 0)
                .map(|(&pc, _)| pc)
                .collect();
            let t = self.traced(train)?;
            let mut ibda = Ibda::new(config, &missing);
            ibda.train(&t.program, &t.trace);
            Ok(ibda.criticality_map(self.traced(eval)?.program.len()))
        })
    }

    /// The `eval` stage: `name`'s ref input for `instructions`, simulated
    /// on `sim` with the criticality `map`, if any.
    ///
    /// # Errors
    ///
    /// [`CrispError::UnknownWorkload`] for unregistered names,
    /// [`CrispError::Annotation`] for a map that does not cover the eval
    /// binary, or the simulator's error.
    pub fn eval(
        &self,
        name: &str,
        instructions: u64,
        sim: &SimConfig,
        map: Option<&[bool]>,
    ) -> Result<Arc<SimResult>, CrispError> {
        let eval = Window {
            workload: registered(name)?,
            input: Input::Ref,
            instructions,
        };
        self.eval_in(eval, sim, map)
    }

    fn eval_in(
        &self,
        eval: Window,
        sim: &SimConfig,
        map: Option<&[bool]>,
    ) -> Result<Arc<SimResult>, CrispError> {
        let key = format!("{eval:?} {} {}", sim_key(sim), bits_key(map));
        self.get(StageKind::Eval, &self.memo.eval, key, || {
            let t = self.traced(eval)?;
            let program = &t.program;
            // The annotation was built for this very binary, so a length
            // mismatch is a pipeline bug worth surfacing.
            if let Some(map) = map.filter(|m| m.len() != program.len()) {
                return Err(CrispError::Annotation(format!(
                    "criticality map covers {} instructions but the eval binary has {}",
                    map.len(),
                    program.len()
                )));
            }
            self.simulate(sim.clone(), program, &t.trace, map)
        })
    }

    /// The full CRISP pipeline (profile → classify → slice → filter →
    /// annotate → evaluate) for one workload, as stage requests.
    ///
    /// # Errors
    ///
    /// Returns [`CrispError::Config`] for an invalid `cfg` and
    /// [`CrispError::UnknownWorkload`] for unregistered names.
    pub fn pipeline(&self, name: &str, cfg: &PipelineConfig) -> Result<PipelineResult, CrispError> {
        cfg.validate()?;
        let name = registered(name)?;
        let (train, eval) = windows(name, cfg);
        let profile = self.profile(train, &profile_sim(&cfg.sim))?;
        let roots = self.roots(&profile, &cfg.classifier)?;
        let load_roots: Vec<Pc> = roots.loads.iter().map(|d| d.pc).collect();
        let load_slices = load_roots
            .iter()
            .map(|&root| Ok(Slice::clone(&*self.slice(train, &cfg.slice, root)?)))
            .collect::<Result<Vec<_>, CrispError>>()?;
        let mut ordered = Vec::new();
        if cfg.mode != SliceMode::BranchesOnly {
            ordered.extend_from_slice(&load_roots);
        }
        if cfg.mode != SliceMode::LoadsOnly {
            ordered.extend(roots.branches.iter().map(|b| b.pc));
        }
        let annotation = self.map(&MapInputs {
            train,
            slice: &cfg.slice,
            profile: &profile,
            keep: cfg.critical_path_fraction,
            roots: &ordered,
            slow_ops: cfg.include_slow_ops,
            annotator: &cfg.annotator,
        })?;
        let baseline = self.eval_in(
            eval,
            &eval_sim(&cfg.sim, SchedulerKind::OldestReadyFirst),
            None,
        )?;
        let crisp = self.eval_in(
            eval,
            &eval_sim(&cfg.sim, SchedulerKind::Crisp),
            Some(annotation.map.as_slice()),
        )?;
        Ok(PipelineResult {
            name,
            profile: SimResult::clone(&profile.result),
            baseline: SimResult::clone(&baseline),
            crisp: SimResult::clone(&crisp),
            delinquent: roots.loads.clone(),
            hard_branches: roots.branches.clone(),
            load_slices,
            map: annotation.map.clone(),
            footprint: annotation.footprint,
        })
    }

    /// IBDA trained on the train window for each IST configuration and
    /// evaluated on the ref input with the priority scheduler — the
    /// Figure 7 comparison baseline.
    ///
    /// # Errors
    ///
    /// Returns [`CrispError::Config`] for an invalid `cfg` and
    /// [`CrispError::UnknownWorkload`] for unregistered names.
    pub fn ibda(
        &self,
        name: &str,
        configs: &[IbdaConfig],
        cfg: &PipelineConfig,
    ) -> Result<Vec<IbdaResult>, CrispError> {
        cfg.validate()?;
        let name = registered(name)?;
        let (train, eval) = windows(name, cfg);
        let profile = self.profile(train, &profile_sim(&cfg.sim))?;
        let sim = eval_sim(&cfg.sim, SchedulerKind::Crisp);
        configs
            .iter()
            .map(|&config| {
                let map = self.ibda_map(&profile, train, eval, config)?;
                let result = self.eval_in(eval, &sim, Some(&map))?;
                Ok(IbdaResult {
                    name,
                    result: SimResult::clone(&result),
                    tagged: map.iter().filter(|&&b| b).count(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PipelineConfig {
        PipelineConfig {
            train_instructions: 20_000,
            eval_instructions: 20_000,
            ..PipelineConfig::paper()
        }
    }

    #[test]
    fn keys_clear_only_the_per_attempt_plumbing() {
        let mut armed = SimConfig::skylake();
        armed.cancel = Some(CancelToken::new());
        armed.progress = Some(crisp_sim::ProgressBeacon::new());
        assert_eq!(sim_key(&armed), sim_key(&SimConfig::skylake()));
        let mut stalled = SimConfig::skylake();
        stalled.freeze_scheduler_after = Some(500);
        assert_ne!(sim_key(&stalled), sim_key(&SimConfig::skylake()));
        let mut zoo = SimConfig::skylake();
        zoo.memory.prefetcher = "none".parse().expect("builtin spec");
        assert!(
            sim_key(&zoo).contains("PrefetcherSpec(none)"),
            "{}",
            sim_key(&zoo)
        );
    }

    #[test]
    fn map_keys_pack_bits() {
        assert_eq!(bits_key(None), "none");
        assert_eq!(bits_key(Some(&[true, false, false, true, true])), "5:91");
    }

    #[test]
    fn a_repeated_pipeline_is_served_without_simulating() {
        let memo = StageMemo::new();
        let first = memo.cell(None).pipeline("mcf", &tiny()).expect("runs");
        let after_first = memo.counts();
        assert_eq!(after_first.simulations, 3, "profile, baseline, crisp");
        let again = memo.cell(None).pipeline("mcf", &tiny()).expect("runs");
        let counts = memo.counts();
        assert_eq!(counts.simulations, 3);
        assert_eq!(counts.sweep_computed(), after_first.sweep_computed());
        assert!(counts.sweep_shared() > after_first.sweep_shared());
        assert_eq!(again.map, first.map);
        assert_eq!(again.crisp.snapshot_words(), first.crisp.snapshot_words());
        // The served cell built no trace: its stages were all shared.
        assert_eq!(
            counts.computed[StageKind::Trace as usize],
            after_first.computed[StageKind::Trace as usize]
        );
    }

    #[test]
    fn cells_of_one_memo_build_each_window_once() {
        let memo = StageMemo::new();
        memo.cell(None).pipeline("mcf", &tiny()).expect("runs");
        memo.cell(None)
            .ibda("mcf", &[IbdaConfig::ist_1k()], &tiny())
            .expect("runs");
        let counts = memo.counts();
        // The train and ref windows, built by the first cell alone.
        assert_eq!(counts.computed[StageKind::Trace as usize], 2);
        assert!(counts.shared[StageKind::Trace as usize] > 0);
    }

    #[test]
    fn observers_see_nested_and_shared_requests() {
        let memo = StageMemo::new();
        let events = RefCell::new(Vec::new());
        memo.cell(None)
            .observed(|e| events.borrow_mut().push(*e))
            .pipeline("pointer_chase", &tiny())
            .expect("runs");
        let events = events.into_inner();
        let profile = events
            .iter()
            .find(|e| e.kind == StageKind::Profile)
            .expect("profile requested");
        assert!(!profile.shared && profile.parent.is_none());
        let trace = events
            .iter()
            .find(|e| e.kind == StageKind::Trace)
            .expect("trace requested");
        assert_eq!(trace.parent, Some((StageKind::Profile, profile.seq)));
        assert!(events.iter().all(|e| e.start_ns <= e.end_ns));
        // The load slices are requested once for the result and again
        // through the map's filters.
        assert!(events
            .iter()
            .any(|e| e.kind == StageKind::Slice && e.shared));
    }
}
