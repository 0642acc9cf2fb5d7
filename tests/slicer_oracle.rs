//! Pins the slicer's outputs, workload by workload.
//!
//! Figure tables round what they print and perfbench digests only a few
//! kernels' cells, so neither sees a change to a slice that leaves the
//! printed numbers alone. This test slices every static load of a short
//! train-input trace, with no classifier and no simulation in between,
//! under the default `SliceConfig` and under Ablation B's
//! register-only walk. It filters each slice at Ablation C's keep
//! fractions under a fixed, non-uniform per-PC latency model, and digests
//! everything the two kernels return: the sorted PCs, the sorted edges,
//! the instance count, the bits of the mean dynamic length and the sorted
//! kept set at each fraction.
//!
//! In these windows a load reads memory an earlier store wrote only on
//! bwaves, namd and xz, so the register-only walk differs from the
//! default only there, and the tier-1 rows repeat one digest per
//! workload; the `--ignored` case covers the memory edges.
//!
//! The tables were blessed on the `HashMap`-indexed kernels (the walk
//! hashed every trace position through SipHash, the filter relaxed over
//! `HashMap`s), so a pass proves the integer-indexed kernels return the
//! same slices and kept sets bit for bit.

use crisp_core::{build, Input};
use crisp_emu::Emulator;
use crisp_isa::{Pc, Program, Trace};
use crisp_slicer::{
    critical_path_filter, extract_slice, DepGraph, InstanceIndex, LatencyModel, SliceConfig,
};
use std::collections::HashMap;

/// Instructions per trace: enough loop iterations for 16 sampled
/// instances of every hot load and for loop-carried slice edges.
const INSTRS: u64 = 20_000;

/// Ablation C's keep fractions.
const KEEP: [f64; 3] = [0.0, 0.5, 0.9];

/// `(workload, configuration, roots sliced, FNV-1a of the slice words)`.
const BLESSED: &[(&str, &str, usize, u64)] = &[
    ("pointer_chase", "default", 62, 0xff04ed30b1c0101e),
    ("pointer_chase", "no-mem", 62, 0xff04ed30b1c0101e),
    ("mcf", "default", 56, 0x2c47ac3120ea7627),
    ("mcf", "no-mem", 56, 0x2c47ac3120ea7627),
    ("gcc", "default", 1729, 0x2a516d660dbe73e4),
    ("gcc", "no-mem", 1729, 0x2a516d660dbe73e4),
    ("perlbench", "default", 802, 0xcf99b0bddb5245c5),
    ("perlbench", "no-mem", 802, 0xcf99b0bddb5245c5),
];

/// `(workload, FNV-1a of its two configurations' digests)`, for every
/// registered workload.
const BLESSED_WORKLOADS: &[(&str, u64)] = &[
    ("pointer_chase", 0xf7a3137edc2b6de1),
    ("bwaves", 0x5cf1214a7016e366),
    ("cactus", 0xcf5d1894514d8959),
    ("deepsjeng", 0x302be0a458921c7d),
    ("fotonik3d", 0xa59bfe136e558a71),
    ("gcc", 0xff44834593755121),
    ("lbm", 0xa351b235fdba8265),
    ("mcf", 0xb77effbee7eb6479),
    ("nab", 0xbdee8b1088444625),
    ("namd", 0x27c80de7d62db48c),
    ("perlbench", 0xf4596569bf2058e5),
    ("xz", 0x04ae9968a1612661),
    ("xhpcg", 0x526616e1fe09b9b5),
    ("moses", 0x9b606776d017c225),
    ("memcached", 0xc729c10f9c587065),
    ("img_dnn", 0xa967495b1ce570d5),
    ("omnetpp", 0x9159cb8ef7034085),
    ("xalancbmk", 0x180e7e9e2f64fc4d),
];

/// The tier-1 subset: a loop-carried chase, a pointer-heavy kernel with
/// stores, and two branchy ones.
const TIER1: [&str; 4] = ["pointer_chase", "mcf", "gcc", "perlbench"];

/// The default walk and Ablation B's register-only walk.
fn configs() -> [(&'static str, SliceConfig); 2] {
    [
        ("default", SliceConfig::default()),
        (
            "no-mem",
            SliceConfig {
                follow_memory_deps: false,
                ..SliceConfig::default()
            },
        ),
    ]
}

fn digest(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A short train-input trace of `name`.
fn workload(name: &str) -> (Program, Trace) {
    let w = build(name, Input::Train).expect("registered workload");
    let trace = Emulator::new(&w.program, w.memory.clone()).run(INSTRS);
    (w.program, trace)
}

/// Per-load latencies spread over 4–217 cycles with ties, and every
/// third load left to the default, so the critical paths differ from a
/// uniform model's and the keep fractions drop different nodes.
fn latency_model(program: &Program) -> LatencyModel {
    let amat: HashMap<Pc, f64> = (0..program.len() as Pc)
        .filter(|&pc| program.inst(pc).is_load() && pc % 3 != 0)
        .map(|pc| (pc, f64::from(4 + (pc * 37) % 214)))
        .collect();
    LatencyModel::new(amat, 4.0)
}

fn sorted<T: Ord + Copy>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut v: Vec<T> = items.into_iter().collect();
    v.sort_unstable();
    v
}

/// Slices and filters every executed static load of `name` under each
/// configuration: `(configuration, roots, digest)`.
fn slice_digests(name: &str) -> Vec<(&'static str, usize, u64)> {
    let (program, trace) = workload(name);
    let graph = DepGraph::build(&program, &trace);
    let index = InstanceIndex::build(&program, &trace);
    let model = latency_model(&program);
    let roots: Vec<Pc> = (0..program.len() as Pc)
        .filter(|&pc| program.inst(pc).is_load() && !index.instances(pc).is_empty())
        .collect();
    assert!(!roots.is_empty(), "{name}: no load executed");
    configs()
        .into_iter()
        .map(|(label, config)| {
            let mut words = Vec::new();
            for &root in &roots {
                let slice = extract_slice(&trace, &graph, &index, root, &config);
                let pcs = sorted(slice.pcs.iter().copied());
                let edges = sorted(slice.edges.iter().copied());
                words.push(u64::from(root));
                words.push(pcs.len() as u64);
                words.extend(pcs.iter().map(|&pc| u64::from(pc)));
                words.push(edges.len() as u64);
                words.extend(
                    edges
                        .iter()
                        .map(|&(c, p)| u64::from(c) << 32 | u64::from(p)),
                );
                words.push(slice.instances as u64);
                words.push(slice.mean_dynamic_len.to_bits());
                for keep in KEEP {
                    let kept = sorted(critical_path_filter(&program, &slice, &model, keep));
                    words.push(kept.len() as u64);
                    words.extend(kept.iter().map(|&pc| u64::from(pc)));
                }
            }
            (label, roots.len(), digest(&words))
        })
        .collect()
}

#[test]
fn slices_and_kept_sets_match_pinned_digests() {
    let mut actual = Vec::new();
    for name in TIER1 {
        for (label, roots, d) in slice_digests(name) {
            actual.push((name, label, roots, d));
        }
    }
    let table: String = actual
        .iter()
        .map(|(w, c, n, d)| format!("    (\"{w}\", \"{c}\", {n}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        BLESSED, actual,
        "slice digests moved; the slicer no longer reproduces the pinned slices:\n{table}"
    );
}

#[test]
#[ignore = "every workload; CI runs it with --ignored in release"]
fn slices_and_kept_sets_match_pinned_digests_on_every_workload() {
    let actual: Vec<(&str, u64)> = crisp_workloads::all_names()
        .iter()
        .map(|&name| {
            let per_config: Vec<u64> = slice_digests(name).iter().map(|c| c.2).collect();
            (name, digest(&per_config))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(w, d)| format!("    (\"{w}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        BLESSED_WORKLOADS, actual,
        "workload digests moved; the slicer no longer reproduces the pinned slices:\n{table}"
    );
}
