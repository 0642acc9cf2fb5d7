//! # crisp-sim
//!
//! A trace-driven, cycle-level out-of-order core simulator — the Scarab
//! substitute for the CRISP reproduction. It models the structures the
//! paper's mechanism depends on at the granularity the paper's evaluation
//! needs:
//!
//! * a decoupled frontend with TAGE direction prediction, an 8K-entry BTB,
//!   a return-address stack, an indirect-target predictor and FDIP-style
//!   instruction prefetching through a fetch-target queue;
//! * rename/dispatch into a reorder buffer and a unified reservation
//!   station;
//! * the **age-matrix picker** (paper Section 4.2 / Figure 6) with the
//!   one-bit CRISP PRIO extension, plus an oldest-ready-first baseline and
//!   a random-pick ablation; its ready and PRIO vectors are live, set by
//!   producer→consumer wakeup lists as in the paper's hardware. Dispatch
//!   is in program order and nothing is squashed, so age is the distance
//!   from the ROB head: with the vectors keyed by ROB position, select is
//!   a ring scan from the ROB head instead of a matrix of age vectors;
//! * per-class functional units (4 ALU, 2 load, 1 store — Table 1),
//!   unpipelined dividers;
//! * exact memory disambiguation with store-to-load forwarding, load/store
//!   buffers, and the `crisp-mem` cache/DRAM hierarchy behind the load
//!   ports;
//! * retirement with ROB-head stall accounting (the paper's Section 5.2
//!   confirmation metric) and an optional per-cycle UPC timeline
//!   (Figure 1).
//!
//! Cycles in which no stage can make progress are fast-forwarded to the
//! next event, with their stall bookkeeping replayed in bulk; results are
//! identical to stepping every cycle, which the invariant checker
//! ([`SimConfig::check_invariants`]) still does.
//!
//! The simulator consumes the *correct-path* dynamic instruction stream
//! produced by `crisp-emu`; branch mispredictions are modelled by stalling
//! fetch until the branch resolves plus a redirect penalty (standard
//! trace-driven methodology — wrong-path execution is not replayed).
//!
//! ## Example
//!
//! ```
//! use crisp_isa::{ProgramBuilder, Reg, AluOp, Cond};
//! use crisp_emu::{Emulator, Memory};
//! use crisp_sim::{Simulator, SimConfig};
//!
//! // Build and trace a short loop...
//! let mut b = ProgramBuilder::new();
//! let (r1, r2) = (Reg::new(1), Reg::new(2));
//! b.li(r1, 2000);
//! let top = b.label();
//! b.bind(top);
//! b.alu_ri(AluOp::Add, r2, r2, 3);
//! b.alu_ri(AluOp::Sub, r1, r1, 1);
//! b.branch(Cond::Ne, r1, Reg::ZERO, top);
//! b.halt();
//! let program = b.build();
//! let trace = crisp_emu::Emulator::new(&program, crisp_emu::Memory::new()).run(10_000);
//!
//! // ...and measure its IPC on the Table 1 core.
//! let result = Simulator::new(SimConfig::skylake()).run(&program, &trace, None);
//! assert!(result.ipc() > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod bpu;
mod cancel;
mod config;
mod engine;
mod error;
mod select;
mod stats;
mod wakeup;

pub use bitset::BitSet;
pub use bpu::{BpuConfig, BranchOutcome, BranchPredictionUnit};
pub use cancel::{AbortReason, CancelToken, ProgressBeacon};
pub use config::{SchedulerKind, SimConfig};
pub use engine::Simulator;
pub use error::{ConfigError, DeadlockReport, HeadState, SimError};
pub use stats::{BranchPcStats, LoadPcStats, SimResult, UpcTimeline};

// Re-exported for convenience: the memory config lives in crisp-mem.
pub use crisp_mem::{HierarchyConfig, PrefetchEffect, PrefetcherSpec, MAX_PREFETCHERS};

// Re-exported for convenience: the observability types carried by
// [`SimResult`] (flight recorder, stall attribution, interval telemetry,
// host-side self-profile) live in crisp-obs.
pub use crisp_obs::{
    EventKind, FillLevel, HostProf, HostProfReport, StallClass, StallTable, TelemetryLog,
    TraceEvent, Tracer,
};
