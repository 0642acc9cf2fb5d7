//! # crisp-slicer
//!
//! The software half of CRISP: extraction of **load slices** and **branch
//! slices** from execution traces (paper Sections 3.3–3.5), critical-path
//! filtering, slice merging, and the final criticality annotation that
//! stands in for the paper's post-link binary rewriting.
//!
//! * [`DepGraph`] precomputes, in one forward pass over the trace, every
//!   dynamic instruction's producers — through registers **and through
//!   memory** (store→load edges), the capability the paper highlights as
//!   missing from hardware IBDA.
//! * [`extract_slice`] runs the frontier algorithm backwards from each
//!   sampled instance of one root, with the paper's termination rules;
//!   an [`InstanceIndex`] finds the instances, and [`extract_slices`] is
//!   the loop over several roots.
//! * [`critical_path_filter`] treats a slice instance as a latency-weighted
//!   DAG and keeps only instructions on near-critical paths, so slices
//!   don't flood the reservation station (Section 3.5).
//! * [`Annotator`] merges load and branch slices, enforces the 5–40 %
//!   critical-instruction budget of Section 3.2, and produces the
//!   [`CriticalityMap`] plus the code-footprint report of Figure 12.
//!
//! ## Example
//!
//! ```
//! use crisp_isa::{ProgramBuilder, Reg, AluOp};
//! use crisp_emu::{Emulator, Memory};
//! use crisp_slicer::{DepGraph, SliceConfig, extract_slices};
//!
//! // r3 = mem[r1 + 0] where r1 = r2 + 8: the slice of the load contains
//! // both address-generating instructions.
//! let mut b = ProgramBuilder::new();
//! b.li(Reg::new(2), 0x1000);
//! b.alu_ri(AluOp::Add, Reg::new(1), Reg::new(2), 8);
//! let load_pc = b.load(Reg::new(3), Reg::new(1), 0, 8);
//! b.halt();
//! let program = b.build();
//! let trace = Emulator::new(&program, Memory::new()).run(100);
//!
//! let graph = DepGraph::build(&program, &trace);
//! let slices = extract_slices(&program, &trace, &graph, &[load_pc], &SliceConfig::default());
//! assert_eq!(slices[0].pcs.len(), 3); // li, add, load
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annotate;
mod critical_path;
mod depgraph;
mod extract;

pub use annotate::{Annotator, CriticalityMap, FootprintReport};
pub use critical_path::{critical_path_filter, LatencyModel};
pub use depgraph::DepGraph;
pub use extract::{extract_slice, extract_slices, InstanceIndex, Slice, SliceConfig};
