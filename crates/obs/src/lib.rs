//! # crisp-obs
//!
//! The observability layer of the CRISP reproduction: a pipeline *flight
//! recorder* (fixed-capacity ring buffer of per-instruction lifecycle
//! events, rendered as a Kanata/Konata pipeline-viewer trace or as the
//! text lanes of `crisp pipeview`), periodic *interval telemetry* (IPC,
//! occupancies, MSHR pressure, MLP, MPKI, miss rates, critical-issue mix,
//! written and read back as JSONL), and a per-PC *stall-attribution*
//! table that charges every ROB-head stall cycle to the blocking
//! instruction's PC and stall class.
//!
//! The crate sits *below* `crisp-sim` in the dependency graph and depends
//! only on the value codec `crisp-words`: the engine records into these
//! types, and the harness/bench/CLI layers render or persist them. PCs are plain `u64`
//! here so the crate stays free-standing. Being the lowest layer that
//! reads JSON, it also holds the workspace's one JSON codec, [`json`].
//!
//! The recorded values (`Tracer`, `StallTable`, `TelemetryLog`) implement
//! the workspace-wide, encode-only `crisp_words::Snapshot` trait, so a
//! `SimResult`'s words, which digests and the engine oracle compare,
//! cover them too.
//!
//! ## Example
//!
//! ```
//! use crisp_obs::{EventKind, Tracer};
//! let mut t = Tracer::ring(16);
//! t.record(5, 0, 0x40, EventKind::Fetch, None);
//! assert_eq!(t.events().len(), 1);
//! assert!(Tracer::Off.events().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hostprof;
pub mod json;
mod kanata;
mod recorder;
mod spans;
mod stall;
mod summarize;
mod telemetry;

pub use hostprof::{HostProf, HostProfReport, HostProfState, Phase, PHASE_COUNT, PHASE_NAMES};
pub use kanata::{render_kanata, render_pipeview, TraceFilter, KANATA_HEADER};
pub use recorder::{EventKind, FillLevel, FlightRecorder, TraceEvent, Tracer};
pub use spans::{render_spans, unix_ns, SpanRec};
pub use stall::{StallClass, StallRow, StallTable, STALL_CLASSES};
pub use summarize::{parse_jsonl, render_sparkline, summarize, telemetry_line};
pub use telemetry::{TelemetryInputs, TelemetryLog, TelemetrySample, FIELD_NAMES, SAMPLE_FIELDS};
