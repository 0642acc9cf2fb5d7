//! # crisp-workloads
//!
//! Synthetic stand-ins for the paper's evaluation workloads — the
//! memory-intensive SPEC2017 subset, Xhpcg, and the Tailbench datacenter
//! applications (moses, memcached, img-dnn) — plus the Figure 1/2
//! pointer-chase microbenchmark.
//!
//! Each builder produces a [`Workload`]: a program in the CRISP mini-ISA
//! plus an initial memory image, engineered to reproduce the *published
//! bottleneck character* of its namesake (documented per builder): the
//! irregular-load patterns, slice depths, branch behaviour and MLP that
//! determine how CRISP, IBDA and the OOO baseline rank on it. The
//! semantics of the original applications are irrelevant to the
//! experiments and are not reproduced.
//!
//! Every workload has separate *train* and *ref* inputs (different sizes
//! and seeds); the CRISP pipeline profiles on train and evaluates on ref,
//! like the paper (Section 5.1).
//!
//! ## Example
//!
//! ```
//! use crisp_workloads::{build, Input, Workload};
//! use crisp_emu::Emulator;
//!
//! let Workload { program, memory, .. } =
//!     build("pointer_chase", Input::Train).expect("known workload");
//! let mut emu = Emulator::new(&program, memory);
//! let trace = emu.run(50_000);
//! assert_eq!(trace.len(), 50_000); // long-running loop
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
mod datacenter;
mod extra;
mod hpc;
mod spec;

use crisp_emu::Memory;
use crisp_isa::Program;

/// Input set selection (paper Section 5.1: train for profiling, ref for
/// evaluation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Input {
    /// Smaller structures, profiling seed.
    Train,
    /// Larger structures, evaluation seed.
    Ref,
}

/// The only failure of the workload registry: a name nobody registered.
/// `crisp-core` folds this into its `CrispError::UnknownWorkload` variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownWorkload {
    /// The name that was requested.
    pub name: String,
}

impl std::fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown workload: {}", self.name)
    }
}

impl std::error::Error for UnknownWorkload {}

/// A runnable workload: program text plus initial memory image.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short name (matches the paper's figures).
    pub name: &'static str,
    /// Which published bottleneck this kernel reproduces.
    pub description: &'static str,
    /// The program.
    pub program: Program,
    /// The initial memory image.
    pub memory: Memory,
}

/// All workload names, in the order the paper's figures list them.
pub fn all_names() -> &'static [&'static str] {
    &[
        "pointer_chase",
        "bwaves",
        "cactus",
        "deepsjeng",
        "fotonik3d",
        "gcc",
        "lbm",
        "mcf",
        "nab",
        "namd",
        "perlbench",
        "xz",
        "xhpcg",
        "moses",
        "memcached",
        "img_dnn",
        "omnetpp",
        "xalancbmk",
    ]
}

/// Builds a workload by name.
///
/// # Errors
///
/// Returns [`UnknownWorkload`] for a name not in [`all_names`].
pub fn build(name: &str, input: Input) -> Result<Workload, UnknownWorkload> {
    Ok(match name {
        "pointer_chase" => hpc::pointer_chase(input),
        "xhpcg" => hpc::xhpcg(input),
        "bwaves" => spec::bwaves(input),
        "cactus" => spec::cactus(input),
        "deepsjeng" => spec::deepsjeng(input),
        "fotonik3d" => spec::fotonik3d(input),
        "gcc" => spec::gcc(input),
        "lbm" => spec::lbm(input),
        "mcf" => spec::mcf(input),
        "nab" => spec::nab(input),
        "namd" => spec::namd(input),
        "perlbench" => spec::perlbench(input),
        "xz" => spec::xz(input),
        "moses" => datacenter::moses(input),
        "memcached" => datacenter::memcached(input),
        "img_dnn" => datacenter::img_dnn(input),
        "omnetpp" => extra::omnetpp(input),
        "xalancbmk" => extra::xalancbmk(input),
        _ => {
            return Err(UnknownWorkload {
                name: name.to_string(),
            })
        }
    })
}

/// Builds every workload for one input set. Infallible by construction:
/// [`all_names`] and [`build`] cover exactly the same set (asserted by the
/// registry tests), so the per-name results are flattened here.
pub fn build_all(input: Input) -> Vec<Workload> {
    all_names()
        .iter()
        .filter_map(|n| build(n, input).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_emu::Emulator;

    #[test]
    fn registry_is_complete_and_closed() {
        for name in all_names() {
            assert!(build(name, Input::Train).is_ok(), "{name} missing");
        }
        let err = build("nonexistent", Input::Train).unwrap_err();
        assert_eq!(err.name, "nonexistent");
        assert_eq!(err.to_string(), "unknown workload: nonexistent");
        assert_eq!(all_names().len(), 18);
        assert_eq!(build_all(Input::Train).len(), all_names().len());
    }

    #[test]
    fn every_workload_runs_long_without_halting() {
        for w in build_all(Input::Train) {
            let mut emu = Emulator::new(&w.program, w.memory.clone());
            let (trace, stop) = emu.try_run(30_000).expect(w.name);
            assert_eq!(
                stop,
                crisp_emu::StopReason::BudgetExhausted,
                "{} halted after only {} instructions",
                w.name,
                trace.len()
            );
        }
    }

    #[test]
    fn every_workload_contains_loads_and_branches() {
        for w in build_all(Input::Train) {
            let mut emu = Emulator::new(&w.program, w.memory.clone());
            let trace = emu.run(30_000);
            let stats = trace.stats(&w.program);
            assert!(
                stats.loads * 20 >= stats.instructions,
                "{}: too few loads ({})",
                w.name,
                stats.loads
            );
            assert!(
                stats.cond_branches > 0,
                "{}: no conditional branches",
                w.name
            );
        }
    }

    #[test]
    fn train_and_ref_differ() {
        for name in all_names() {
            let t = build(name, Input::Train).expect("train");
            let r = build(name, Input::Ref).expect("ref");
            // Same code, different data (sizes/seeds live in memory or in
            // immediates; at least one must differ).
            let differs = t.program != r.program
                || format!("{:?}", t.memory.page_count()) != format!("{:?}", r.memory.page_count());
            assert!(differs, "{name}: train and ref identical");
        }
    }

    #[test]
    fn descriptions_are_informative() {
        for w in build_all(Input::Train) {
            assert!(
                w.description.len() > 20,
                "{}: description too short",
                w.name
            );
        }
    }

    #[test]
    fn deterministic_construction() {
        let a = build("mcf", Input::Ref).expect("mcf");
        let b = build("mcf", Input::Ref).expect("mcf");
        assert_eq!(a.program, b.program);
        let mut ea = Emulator::new(&a.program, a.memory.clone());
        let mut eb = Emulator::new(&b.program, b.memory.clone());
        assert_eq!(ea.run(5_000), eb.run(5_000));
    }
}
