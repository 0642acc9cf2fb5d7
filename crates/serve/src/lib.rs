//! # crisp-serve
//!
//! The long-running sweep service: a dependency-free HTTP/1.1 + JSON
//! job API over [`std::net::TcpListener`] that wraps the crisp-harness
//! supervisor, built for the "many clients, heavy traffic" shape of
//! ROADMAP item 3. Robustness is the headline:
//!
//! - **admission control** — a bounded job queue with explicit
//!   backpressure (HTTP 429 + `Retry-After`), per-connection I/O
//!   timeouts, a connection cap, and head/body size limits so slow or
//!   hostile clients cannot wedge the accept loop;
//! - **idempotent submission** — jobs are keyed by the 128-bit FNV-1a
//!   fingerprint of their canonical cell set, so duplicate or
//!   overlapping sweeps coalesce onto in-flight work and warm cells are
//!   served from `crisp-store` without re-simulation;
//! - **graceful drain** — SIGTERM stops admission, in-flight cells
//!   finish or abort cooperatively via [`crisp_sim::CancelToken`], the
//!   manifest is fsync'd, and the process exits 0;
//! - **crash recovery** — on restart the daemon scans its job registry,
//!   re-queues incomplete jobs, and resumes them through the
//!   supervisor's `--resume` path, so a client polling a pre-crash job
//!   id gets byte-identical tables.
//!
//! Module map: [`http`] (wire format), [`api`] (request/response
//! bodies), [`registry`] (on-disk job records), [`daemon`] (accept
//! loop, queue, executor), [`client`] (retrying HTTP client),
//! [`retry`] (the backoff schedule of the client and `crisp watch`),
//! [`signal`] (SIGTERM/SIGINT latch).
//!
//! The daemon is generic over *planning* (turning a submission into a
//! cell set) and *execution* (running the sweep): the `crisp-serve`
//! binary in `crates/bench` injects the real simulation cells, while
//! tests inject toy closures so the service machinery is exercised in
//! milliseconds.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod daemon;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod retry;
pub mod signal;

pub use api::{JobState, SubmitRequest};
pub use client::{Client, ClientConfig, ClientError};
pub use daemon::{
    run_daemon, DaemonConfig, ExecCtx, ExecFn, ExecResult, JobPlan, PlanFn, PrefetchTotals,
    DEFAULT_QUEUE_CAP,
};
pub use http::{
    read_request, write_chunk, write_chunk_end, write_chunked_head, write_response, HttpError,
    HttpLimits, Request,
};
pub use metrics::{check_exposition_line, Counter, Histogram, LabeledCounter, Metrics, Scalar};
pub use registry::{JobRecord, Registry};
pub use retry::RetryPolicy;
