//! # crisp-harness
//!
//! The supervised experiment harness behind `crisp-bench`: every
//! (workload, config) cell of a sweep becomes a *job* run once on worker
//! threads with panic isolation and a per-job wall-clock deadline
//! (enforced cooperatively inside the simulator via
//! [`crisp_sim::CancelToken`]). Outcomes are journaled to an append-only
//! JSONL run manifest — one fsync'd record per job — so a sweep killed
//! mid-flight resumes with `--resume <manifest>`, re-executing only the
//! jobs that failed or never finished and reproducing byte-identical
//! tables. A failed job is not retried within its sweep: the simulation
//! is deterministic, so it would fail the same way again.
//!
//! Module map:
//!
//! - [`supervisor`] — job specs, the worker threads, resume logic;
//! - [`journal`] — the JSONL manifest format and tolerant loader;
//! - [`class`] — the failure taxonomy;
//! - [`spanlog`] — the span log (`spans.jsonl`) every layer of a job
//!   appends to, rendered by `crisp obs spans`;
//! - [`store`] — the keying policy of the content-addressed result store
//!   (the `crisp-store` crate: verified cache hits skip simulation;
//!   corrupt entries quarantine and re-simulate).
//!
//! ## Example
//!
//! ```
//! use crisp_harness::{run_sweep, JobSpec, SupervisorOptions};
//!
//! let jobs = vec![JobSpec::new("demo/a", "demo/a v1"), JobSpec::new("demo/b", "demo/b v1")];
//! let report = run_sweep(&jobs, &SupervisorOptions::default(), &|job, _ctx| {
//!     Ok(vec![job.id.len() as f64])
//! })
//! .expect("no journal, no supervisor errors");
//! assert_eq!(report.completed(), 2);
//! assert!(!report.degraded());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod class;
pub mod journal;
pub mod spanlog;
pub mod store;
pub mod supervisor;

pub use class::FailureClass;
/// The JSON codec, re-exported from `crisp-obs` for callers that name
/// it through this crate.
pub use crisp_obs::json;
pub use journal::{
    fnv1a64, load_manifest, AttemptOutcome, AttemptRecord, JournalError, ManifestSummary,
    ProgressRecord, SweepHeader,
};
pub use spanlog::{append_span, cell_tag, load_spans, span_id, unix_ns, SpanScope};
pub use store::{cell_key, cell_key_material, RESULT_SCHEMA};
pub use supervisor::{
    run_sweep, EventSink, HarnessError, JobOutcome, JobRunner, JobSpec, RunContext,
    SupervisorOptions, SweepReport,
};
