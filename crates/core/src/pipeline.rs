use crate::error::CrispError;
use crate::stages::StageMemo;
use crisp_ibda::IbdaConfig;
use crisp_isa::ConfigError;
use crisp_profile::{ClassifierConfig, DelinquentLoad, HardBranch};
use crisp_sim::{SimConfig, SimResult};
use crisp_slicer::{Annotator, CriticalityMap, FootprintReport, Slice, SliceConfig};

/// Which slice families the pipeline tags (the Figure 8 ablation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SliceMode {
    /// Load slices only.
    LoadsOnly,
    /// Branch slices only.
    BranchesOnly,
    /// Both (the full CRISP configuration).
    #[default]
    Both,
}

/// Configuration of one pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Instructions emulated for the profiling (train) window.
    pub train_instructions: u64,
    /// Instructions emulated for the evaluation (ref) window.
    pub eval_instructions: u64,
    /// Classifier thresholds (Section 3.2; Figure 10 sweeps
    /// `miss_contribution_threshold`).
    pub classifier: ClassifierConfig,
    /// Slice-extraction parameters.
    pub slice: SliceConfig,
    /// Critical-path keep fraction (Section 3.5).
    pub critical_path_fraction: f64,
    /// Annotation budget.
    pub annotator: Annotator,
    /// Which slice families to tag.
    pub mode: SliceMode,
    /// Also tag high-latency arithmetic (divides) and their slices — the
    /// paper's Section 6.1 extension (off by default, as in the paper).
    pub include_slow_ops: bool,
    /// Machine configuration (Table 1 unless sweeping).
    pub sim: SimConfig,
}

impl PipelineConfig {
    /// The paper's evaluation setup at full (multi-million-instruction)
    /// window sizes.
    pub fn paper() -> PipelineConfig {
        PipelineConfig {
            train_instructions: 1_000_000,
            eval_instructions: 2_000_000,
            classifier: ClassifierConfig::default(),
            slice: SliceConfig::default(),
            critical_path_fraction: 0.5,
            annotator: Annotator::default(),
            mode: SliceMode::Both,
            include_slow_ops: false,
            sim: SimConfig::skylake(),
        }
    }

    /// A fast configuration for tests and examples (hundreds of thousands
    /// of instructions).
    pub fn quick() -> PipelineConfig {
        PipelineConfig {
            train_instructions: 150_000,
            eval_instructions: 250_000,
            ..PipelineConfig::paper()
        }
    }

    /// Validates the whole pipeline configuration: its own knobs plus the
    /// nested classifier, slicer and machine configs. Zero-instruction
    /// train/eval windows are *valid* (they produce empty traces and
    /// degenerate-but-well-defined results).
    ///
    /// # Errors
    ///
    /// Returns the first rejected field, with nested configs reported
    /// under `classifier`, `slice` and `sim`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.critical_path_fraction.is_finite()
            || !(0.0..=1.0).contains(&self.critical_path_fraction)
        {
            return Err(ConfigError::new(
                "critical_path_fraction",
                format!(
                    "keep fraction must be in [0, 1] (got {})",
                    self.critical_path_fraction
                ),
            ));
        }
        if !self.annotator.max_dynamic_ratio.is_finite()
            || !(0.0..=1.0).contains(&self.annotator.max_dynamic_ratio)
        {
            return Err(ConfigError::new(
                "annotator.max_dynamic_ratio",
                format!(
                    "critical-instruction budget must be in [0, 1] (got {})",
                    self.annotator.max_dynamic_ratio
                ),
            ));
        }
        self.classifier
            .validate()
            .map_err(|e| e.nested("classifier"))?;
        self.slice.validate().map_err(|e| e.nested("slice"))?;
        self.sim.validate().map_err(|e| e.nested("sim"))?;
        Ok(())
    }
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig::paper()
    }
}

/// Errors from the pipeline runner — an alias of the workspace-wide
/// [`CrispError`]; the historical name is kept for callers.
pub type PipelineError = CrispError;

/// Everything one pipeline run produces.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// Workload name.
    pub name: &'static str,
    /// Profiling (train-input) run on the baseline core.
    pub profile: SimResult,
    /// Evaluation (ref-input) run, baseline scheduler, untagged binary.
    pub baseline: SimResult,
    /// Evaluation run, CRISP scheduler, tagged binary.
    pub crisp: SimResult,
    /// The classified delinquent loads (sorted by miss contribution).
    pub delinquent: Vec<DelinquentLoad>,
    /// The classified hard branches.
    pub hard_branches: Vec<HardBranch>,
    /// Raw (unfiltered) load slices — Figure 4's input.
    pub load_slices: Vec<Slice>,
    /// The final annotation.
    pub map: CriticalityMap,
    /// Static/dynamic footprint impact — Figure 12's input.
    pub footprint: FootprintReport,
}

impl PipelineResult {
    /// CRISP's IPC speedup over the baseline, in percent.
    pub fn speedup_pct(&self) -> f64 {
        self.crisp.speedup_over(&self.baseline)
    }

    /// Mean unfiltered dynamic load-slice length (Figure 4).
    pub fn mean_load_slice_len(&self) -> f64 {
        let with_instances: Vec<&Slice> = self
            .load_slices
            .iter()
            .filter(|s| s.instances > 0)
            .collect();
        if with_instances.is_empty() {
            return 0.0;
        }
        with_instances
            .iter()
            .map(|s| s.mean_dynamic_len)
            .sum::<f64>()
            / with_instances.len() as f64
    }
}

/// Runs the full CRISP pipeline (profile → classify → slice → filter →
/// annotate → evaluate) for one workload, over a fresh [`StageMemo`].
///
/// # Errors
///
/// Returns [`PipelineError::UnknownWorkload`] for unregistered names.
pub fn run_crisp_pipeline(
    name: &str,
    cfg: &PipelineConfig,
) -> Result<PipelineResult, PipelineError> {
    StageMemo::new()
        .cell(cfg.sim.cancel.clone())
        .pipeline(name, cfg)
}

/// Result of an IBDA baseline run.
#[derive(Clone, Debug)]
pub struct IbdaResult {
    /// Workload name.
    pub name: &'static str,
    /// Evaluation run with the IBDA-learned criticality.
    pub result: SimResult,
    /// Number of instructions IBDA tagged.
    pub tagged: usize,
}

/// Trains IBDA on the train window (hardware-style online learning) and
/// evaluates on the ref input with the priority scheduler — the Figure 7
/// comparison baseline.
///
/// # Errors
///
/// Returns [`PipelineError::UnknownWorkload`] for unregistered names.
pub fn run_ibda(
    name: &str,
    ibda_config: IbdaConfig,
    cfg: &PipelineConfig,
) -> Result<IbdaResult, PipelineError> {
    run_ibda_many(name, &[ibda_config], cfg).map(|mut v| v.remove(0))
}

/// Like [`run_ibda`] for several IST configurations at once, sharing the
/// profiling run and the train/eval traces — the whole Figure 7 IBDA
/// column set in one pass, over a fresh [`StageMemo`].
///
/// # Errors
///
/// Returns [`PipelineError::UnknownWorkload`] for unregistered names.
pub fn run_ibda_many(
    name: &str,
    ibda_configs: &[IbdaConfig],
    cfg: &PipelineConfig,
) -> Result<Vec<IbdaResult>, PipelineError> {
    StageMemo::new()
        .cell(cfg.sim.cancel.clone())
        .ibda(name, ibda_configs, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PipelineConfig {
        PipelineConfig {
            train_instructions: 60_000,
            eval_instructions: 80_000,
            ..PipelineConfig::paper()
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert_eq!(
            run_crisp_pipeline("no_such_app", &tiny()).unwrap_err(),
            PipelineError::UnknownWorkload("no_such_app".into())
        );
        assert!(run_ibda("no_such_app", IbdaConfig::ist_1k(), &tiny()).is_err());
    }

    #[test]
    fn pipeline_config_validation_covers_nested_configs() {
        tiny().validate().expect("defaults are valid");

        let mut cfg = tiny();
        cfg.critical_path_fraction = 2.0;
        assert_eq!(cfg.validate().unwrap_err().field, "critical_path_fraction");

        let mut cfg = tiny();
        cfg.annotator.max_dynamic_ratio = -1.0;
        assert_eq!(
            cfg.validate().unwrap_err().field,
            "annotator.max_dynamic_ratio"
        );

        let mut cfg = tiny();
        cfg.classifier.llc_miss_ratio_threshold = 9.0;
        assert_eq!(cfg.validate().unwrap_err().field, "classifier");

        let mut cfg = tiny();
        cfg.slice.instances_per_root = 0;
        assert_eq!(cfg.validate().unwrap_err().field, "slice");

        let mut cfg = tiny();
        cfg.sim.rob_entries = 0;
        assert_eq!(cfg.validate().unwrap_err().field, "sim");
    }

    #[test]
    fn invalid_config_rejected_before_any_simulation() {
        let mut cfg = tiny();
        cfg.sim.rs_entries = cfg.sim.rob_entries + 1;
        let err = run_crisp_pipeline("pointer_chase", &cfg).unwrap_err();
        let PipelineError::Config(c) = err else {
            panic!("expected config error, got {err}");
        };
        assert_eq!(c.field, "sim");
        assert!(c.message.contains("RS cannot exceed ROB"));
    }

    #[test]
    fn zero_instruction_windows_complete_cleanly() {
        // The degenerate-but-valid edge: empty train and eval traces must
        // flow through classify/slice/annotate/evaluate without error.
        let cfg = PipelineConfig {
            train_instructions: 0,
            eval_instructions: 0,
            ..PipelineConfig::paper()
        };
        let r = run_crisp_pipeline("pointer_chase", &cfg).expect("empty windows are valid");
        assert_eq!(r.baseline.retired, 0);
        assert_eq!(r.crisp.retired, 0);
        assert_eq!(r.map.count(), 0);
        assert!(r.delinquent.is_empty());
    }

    #[test]
    fn pointer_chase_pipeline_finds_and_exploits_the_chase() {
        let r = run_crisp_pipeline("pointer_chase", &tiny()).expect("runs");
        assert!(
            !r.delinquent.is_empty(),
            "the node loads must classify as delinquent"
        );
        assert!(r.map.count() >= 1, "something must be tagged");
        assert!(
            r.footprint.dynamic_overhead_pct() >= 0.0 && r.footprint.static_overhead_pct() >= 0.0
        );
        assert!(
            r.speedup_pct() > 1.0,
            "CRISP should speed up pointer_chase: {:+.2}% (base {:.3}, crisp {:.3})",
            r.speedup_pct(),
            r.baseline.ipc(),
            r.crisp.ipc()
        );
        assert!(r.mean_load_slice_len() >= 1.0);
    }

    #[test]
    fn slice_mode_ablation_runs_all_modes() {
        for mode in [
            SliceMode::LoadsOnly,
            SliceMode::BranchesOnly,
            SliceMode::Both,
        ] {
            let cfg = PipelineConfig { mode, ..tiny() };
            let r = run_crisp_pipeline("memcached", &cfg).expect("runs");
            assert!(r.baseline.retired > 0 && r.crisp.retired > 0);
        }
    }

    #[test]
    fn ibda_runs_and_tags_something_on_mcf() {
        let r = run_ibda("mcf", IbdaConfig::ist_1k(), &tiny()).expect("runs");
        assert!(r.tagged > 0, "IBDA should tag the chase slice");
        assert!(r.result.retired > 0);
    }

    #[test]
    fn slow_op_extension_tags_divides_on_nab() {
        // nab's force block divides; the Section 6.1 extension should tag
        // at least as many instructions as the base configuration.
        let base = run_crisp_pipeline("nab", &tiny()).expect("runs");
        let cfg = PipelineConfig {
            include_slow_ops: true,
            ..tiny()
        };
        let ext = run_crisp_pipeline("nab", &cfg).expect("runs");
        assert!(ext.map.count() >= base.map.count());
        assert!(ext.baseline.retired > 0);
    }
}
