//! # crisp-mem
//!
//! Memory-hierarchy substrate for the CRISP reproduction: set-associative
//! [`Cache`]s with MSHR-style miss tracking, a banked DDR4 [`Dram`] model
//! (the role Ramulator plays in the paper), and a zoo of hardware
//! prefetchers behind a pluggable [`PrefetcherRegistry`] — the Table 1
//! baseline ([`Bop`] + [`StreamPrefetcher`]), a per-PC
//! [`StridePrefetcher`], global history buffers ([`Ghb`], [`GhbWidth`]),
//! temporal streaming ([`Sisb`]) and signature-path prefetching ([`Spp`]).
//! Mechanisms are selected by a [`PrefetcherSpec`] string such as
//! `"spp:depth=4+stream"`, and plugins can be registered at runtime.
//!
//! The top-level [`MemoryHierarchy`] wires L1I/L1D/LLC/DRAM together and is
//! the only interface the core simulator talks to: `load`, `store`, and
//! `fetch` each return an [`AccessResult`] with the access latency in core
//! cycles and the level that served it.
//!
//! ## Example
//!
//! ```
//! use crisp_mem::{MemoryHierarchy, HierarchyConfig, HitLevel};
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::skylake_like());
//! let cold = mem.load(0x10_0000, 0x400, 0);
//! assert_eq!(cold.level, HitLevel::Dram);
//! let warm = mem.load(0x10_0000, 0x400, cold.ready_at(0));
//! assert_eq!(warm.level, HitLevel::L1);
//! assert!(warm.latency < cold.latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod dram;
mod hierarchy;
mod prefetch;
mod registry;
mod zoo;

pub use cache::{AccessOutcome, Cache, CacheConfig, CacheStats, FillOutcome, PF_OTHER};
pub use dram::{Dram, DramConfig, DramStats};
pub use hierarchy::{
    AccessResult, HierarchyConfig, HitLevel, MemStats, MemoryHierarchy, PrefetchEffect,
};
pub use prefetch::{Bop, Ghb, Prefetcher, StreamPrefetcher, StridePrefetcher};
pub use registry::{
    PrefetcherFactory, PrefetcherRegistry, PrefetcherSpec, MAX_PREFETCHERS, SPEC_CAP,
};
pub use zoo::{GhbWidth, Sisb, Spp};

/// Cache-line size in bytes (64 B everywhere, per Table 1's Skylake-like
/// uncore).
pub const LINE_BYTES: u64 = 64;

/// Converts a byte address to a line address.
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr / LINE_BYTES
}
