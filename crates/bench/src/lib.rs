//! # crisp-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (Section 5). Each figure decomposes into
//! (workload, config) *cells* ([`cells`]), each a set of requests for
//! pipeline stages that the cells of one sweep share through a
//! `crisp_core::StageMemo`. The `crisp-bench` binary is
//! the one way to regenerate them: it runs the sweep ([`sweep`]) under
//! the `crisp-harness` supervisor — worker threads, panic isolation,
//! per-job deadlines, and a resumable JSONL run manifest — salvaging
//! partial results into `DEGRADED` reports when cells fail. The same
//! sweep backs the `crisp-serve` daemon. The performance benchmark is
//! `perfbench/` at the repository root.
//!
//! Absolute numbers differ from the paper (this substrate is a from-
//! scratch simulator, not the authors' Scarab checkout and trace set);
//! the reproduction target is the *shape* of each result — who wins, by
//! roughly what factor, and where the crossovers fall. EXPERIMENTS.md
//! records paper-vs-measured for every experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod experiments;
pub mod render;
pub mod sweep;

pub use experiments::{table1, ExperimentScale};
pub use sweep::{all_targets, run_supervised_sweep, Chaos, SweepConfig, SweepOutput};
