//! # crisp-core
//!
//! The end-to-end CRISP feedback-driven-optimization pipeline (paper
//! Figure 5) and the experiment runner behind every figure reproduction:
//!
//! 1. **Profile** — run the workload's *train* input on the baseline core,
//!    collecting per-PC load and branch statistics (the simulated
//!    PMU/PEBS pass);
//! 2. **Classify** — pick delinquent loads and hard branches
//!    (`crisp-profile`, Section 3.2);
//! 3. **Trace & slice** — extract backward load/branch slices with
//!    register *and memory* dependencies (`crisp-slicer`, Section 3.3/3.4);
//! 4. **Filter** — keep each slice's critical path (Section 3.5);
//! 5. **Annotate** — merge slices under the critical-ratio budget into a
//!    [`CriticalityMap`] (the post-link rewriting stand-in);
//! 6. **Evaluate** — run the *ref* input on the baseline scheduler and on
//!    the CRISP scheduler with the map, and report both.
//!
//! The [`run_ibda`] runner trains the hardware IBDA baseline on the same
//! train window and evaluates it the same way, for the Figure 7
//! comparison.
//!
//! ## Stages
//!
//! Each step is a stage of a graph: `trace`, `graph` and `index` (the
//! train trace's dependence graph and root-instance index), `profile`,
//! `roots`, one `slice` per root, one `filter` per slice, `map`, `ibda`
//! and `eval`. Every stage is keyed by the `Debug` rendering of exactly
//! the inputs it reads, so a [`StageMemo`] computes each distinct stage
//! once however many requests ask for it: a sweep gives its cells one
//! memo, which builds and emulates each window once, and each cell's
//! [`Stages`] handle adds that cell's dependence graphs and indexes.
//! [`run_crisp_pipeline`] and [`run_ibda_many`] run over a fresh memo.
//! See the [`stages`] module for the keys and scopes.
//!
//! ## Example
//!
//! ```no_run
//! use crisp_core::{PipelineConfig, run_crisp_pipeline};
//!
//! let cfg = PipelineConfig::quick();
//! let result = run_crisp_pipeline("pointer_chase", &cfg).expect("known workload");
//! println!(
//!     "baseline IPC {:.3} -> CRISP IPC {:.3} ({:+.1}%)",
//!     result.baseline.ipc(),
//!     result.crisp.ipc(),
//!     result.crisp.speedup_over(&result.baseline)
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod faults;
mod memo;
mod pipeline;
mod report;
pub mod stages;

pub use error::CrispError;
pub use pipeline::{
    run_crisp_pipeline, run_ibda, run_ibda_many, IbdaResult, PipelineConfig, PipelineError,
    PipelineResult, SliceMode,
};
pub use report::{Coverage, Table};
pub use stages::{StageCounts, StageEvent, StageKind, StageMemo, Stages, Traced};

// Re-export the pieces callers need to parameterise experiments.
pub use crisp_ibda::IbdaConfig;
pub use crisp_isa::ConfigError;
pub use crisp_profile::ClassifierConfig;
pub use crisp_sim::{DeadlockReport, SchedulerKind, SimConfig, SimError, SimResult};
pub use crisp_slicer::{CriticalityMap, FootprintReport, SliceConfig};
pub use crisp_workloads::{all_names, build, build_all, Input, UnknownWorkload, Workload};
