//! Differential test of the engine's fast path against its reference path.
//!
//! With `check_invariants` off, the scheduler keeps its ready and PRIO
//! vectors live through wakeup lists and the cycle loop fast-forwards over
//! idle cycles. With it on, the engine steps every cycle and asserts each
//! cycle that the live vectors equal a full `operands_ready` rescan of the
//! ROB's unissued entries. Both runs must produce the same `SimResult` word
//! for word: cycle counts, per-PC maps, the per-cycle UPC timeline, the
//! stall table, the flight recorder (which holds every pipeline event of
//! a case) and the telemetry log.
//!
//! Every case runs at the default cancellation poll interval and at a
//! short one: a skip never crosses a poll, so only the long interval lets
//! a skip run for thousands of cycles.
//!
//! The digests in `BLESSED` pin the tier-1 subset to the results of the
//! per-cycle rescan engine that the event-driven scheduler replaced, so a
//! pass proves byte-identity with it, not just self-consistency.
//! `BLESSED_WORKLOADS` pins every registered workload, one digest over its
//! six cases, to the engine that still emulated the age matrix: both paths
//! share one select, so only a pin can see a change to it.
//! `BLESSED_WINDOWS` pins the tier-1 subset at Figure 9's smallest and
//! largest windows, whose ROB capacities wrap the ring at other points than
//! the default's; Figure 9's tables round what they print, so only a pin
//! sees a change there. They were blessed on the engine that sorted the
//! ready slots by (not PRIO, sequence number).

use crisp_core::{build, Input};
use crisp_emu::Emulator;
use crisp_isa::{Program, Trace};
use crisp_sim::{SchedulerKind, SimConfig, Simulator, Tracer};

/// Instructions per case: long enough for DRAM-bound idle stretches,
/// branch-mispredict recoveries and several telemetry samples.
const INSTRS: u64 = 4_000;

/// Cancellation poll intervals: the default and a short one.
const POLLS: [u64; 2] = [8192, 128];

/// The default `(rs, rob)` window, Table 1's.
const DEFAULT_WINDOW: (usize, usize) = (96, 224);

/// Figure 9's smallest and largest `(rs, rob)` windows.
const WINDOWS: [(usize, usize); 2] = [(64, 180), (192, 448)];

const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::OldestReadyFirst,
    SchedulerKind::Crisp,
    SchedulerKind::RandomReady,
];

/// `(workload, scheduler, poll interval, FNV-1a of the result words)`.
const BLESSED: &[(&str, &str, u64, u64)] = &[
    ("pointer_chase", "oldest", 8192, 0x514cfbdc4ba00cc6),
    ("pointer_chase", "oldest", 128, 0xbd8c2ef70a3c08aa),
    ("pointer_chase", "crisp", 8192, 0x1215450a6babc672),
    ("pointer_chase", "crisp", 128, 0xe223b8df9be3a722),
    ("pointer_chase", "random", 8192, 0x75f0057839de30f1),
    ("pointer_chase", "random", 128, 0x813300d4904cf0d6),
    ("mcf", "oldest", 8192, 0xa2dd5651af43da55),
    ("mcf", "oldest", 128, 0x5fdcdc063b68aa1f),
    ("mcf", "crisp", 8192, 0xa9c723c0ba1fd57f),
    ("mcf", "crisp", 128, 0xd5c75663c71c262f),
    ("mcf", "random", 8192, 0x890d3660d72ac2d6),
    ("mcf", "random", 128, 0xc4a300a7e7c4517b),
    ("gcc", "oldest", 8192, 0x15f9b4ce72248727),
    ("gcc", "oldest", 128, 0xc4a8fd5918533190),
    ("gcc", "crisp", 8192, 0xcf2e6ec7f42711e9),
    ("gcc", "crisp", 128, 0x0fc8130067005319),
    ("gcc", "random", 8192, 0xbeae2b793a1b8e2a),
    ("gcc", "random", 128, 0x9b45d000fe39caa0),
];

/// `(workload, scheduler, rs, rob, FNV-1a of the result words)` at the
/// default poll interval.
const BLESSED_WINDOWS: &[(&str, &str, usize, usize, u64)] = &[
    ("pointer_chase", "oldest", 64, 180, 0xec9ae35c87cec473),
    ("pointer_chase", "crisp", 64, 180, 0xabd836281fafce8d),
    ("pointer_chase", "random", 64, 180, 0xea771647b7483784),
    ("pointer_chase", "oldest", 192, 448, 0x50ddc7a931b75c56),
    ("pointer_chase", "crisp", 192, 448, 0xf826c41ac370c272),
    ("pointer_chase", "random", 192, 448, 0xced604528abf6301),
    ("mcf", "oldest", 64, 180, 0xf43aa1fd31f07b04),
    ("mcf", "crisp", 64, 180, 0xfbbc7912765c9902),
    ("mcf", "random", 64, 180, 0x635a27c19024a106),
    ("mcf", "oldest", 192, 448, 0x3ed39cba1ad4b3dc),
    ("mcf", "crisp", 192, 448, 0xcd1d2b074cd67b26),
    ("mcf", "random", 192, 448, 0x52b62c7e5fd31584),
    ("gcc", "oldest", 64, 180, 0x48f6220afb7f92b4),
    ("gcc", "crisp", 64, 180, 0x4d3429441764a4f8),
    ("gcc", "random", 64, 180, 0x9a7e530998ae210b),
    ("gcc", "oldest", 192, 448, 0xca642041091e570c),
    ("gcc", "crisp", 192, 448, 0x905990d2d9bc92a8),
    ("gcc", "random", 192, 448, 0x20db1e39d88ab800),
];

/// `(workload, FNV-1a of its six case digests in run order)`, for every
/// registered workload.
const BLESSED_WORKLOADS: &[(&str, u64)] = &[
    ("pointer_chase", 0x3160bf4760f822cb),
    ("bwaves", 0x913ab794ebd11ce9),
    ("cactus", 0x4bd4fbbd62aa3982),
    ("deepsjeng", 0x176ab9ca8ba16883),
    ("fotonik3d", 0xb0ac29c4f4da01d7),
    ("gcc", 0x05d8f1f87837468d),
    ("lbm", 0xdfdcd22efbef512b),
    ("mcf", 0xb276aefc0285cf0c),
    ("nab", 0xe137e45b2ec49ea2),
    ("namd", 0xa31f2776a30717af),
    ("perlbench", 0xf8e7b999c65b7aaa),
    ("xz", 0x4ecf8800e1fb1a3f),
    ("xhpcg", 0xd5ace06fb719e111),
    ("moses", 0x8057e493352ace8b),
    ("memcached", 0xc801ca9aee0753e8),
    ("img_dnn", 0xcf7e9ac82a0e2436),
    ("omnetpp", 0xcbd225fd35516c72),
    ("xalancbmk", 0x77d214715a9a0033),
];

/// The tier-1 subset: a latency-bound chase, a cache-hostile kernel with
/// stores and a branchy one.
const TIER1: [&str; 3] = ["pointer_chase", "mcf", "gcc"];

fn scheduler_name(s: SchedulerKind) -> &'static str {
    match s {
        SchedulerKind::OldestReadyFirst => "oldest",
        SchedulerKind::Crisp => "crisp",
        SchedulerKind::RandomReady => "random",
    }
}

fn digest(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A short ref-input trace of `name`.
fn workload(name: &str) -> (Program, Trace) {
    let w = build(name, Input::Ref).expect("registered workload");
    let trace = Emulator::new(&w.program, w.memory.clone()).run(INSTRS);
    (w.program, trace)
}

/// Every recorder on, so the result words witness every cycle.
fn config(window: (usize, usize), scheduler: SchedulerKind, poll: u64, check: bool) -> SimConfig {
    let mut cfg = SimConfig::with_window(window.0, window.1).with_scheduler(scheduler);
    cfg.cancel_check_interval = poll;
    cfg.check_invariants = check;
    cfg.stall_attribution = true;
    cfg.record_upc_timeline = true;
    cfg.tracer_capacity = Some(1 << 15);
    cfg.telemetry_interval = Some(1024);
    cfg
}

/// Runs one case with the reference path and the fast path, requires
/// identical result words, and returns their digest.
fn run_case(
    name: &str,
    program: &Program,
    trace: &Trace,
    window: (usize, usize),
    s: SchedulerKind,
    poll: u64,
) -> u64 {
    // CRISP tags every load, so the PRIO vector is busy all run long.
    let map: Vec<bool> = (0..program.len())
        .map(|pc| program.inst(pc as u32).is_load())
        .collect();
    let map = (s == SchedulerKind::Crisp).then_some(map.as_slice());
    let run = |check: bool| {
        Simulator::new(config(window, s, poll, check))
            .try_run(program, trace, map)
            .unwrap_or_else(|e| panic!("{name}/{}/{poll}: {e}", scheduler_name(s)))
    };
    let reference = run(true);
    let fast = run(false);
    assert_eq!(reference.retired, trace.len() as u64, "{name}");
    let Tracer::Ring(ring) = &reference.tracer else {
        panic!("tracing was configured on");
    };
    assert_eq!(ring.dropped(), 0, "{name}: the recorder lost events");
    assert_eq!(
        (fast.cycles, fast.rob_head_stall_cycles),
        (reference.cycles, reference.rob_head_stall_cycles),
        "{name}/{}/{poll}: fast path diverged from the reference",
        scheduler_name(s)
    );
    let words = reference.snapshot_words();
    assert!(
        fast.snapshot_words() == words,
        "{name}/{}/{poll}: result words diverged from the reference",
        scheduler_name(s)
    );
    digest(&words)
}

#[test]
fn fast_path_matches_reference_and_pinned_digests() {
    let mut actual = Vec::new();
    for name in TIER1 {
        let (program, trace) = workload(name);
        for s in SCHEDULERS {
            for poll in POLLS {
                let d = run_case(name, &program, &trace, DEFAULT_WINDOW, s, poll);
                actual.push((name, scheduler_name(s), poll, d));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(w, s, p, d)| format!("    (\"{w}\", \"{s}\", {p}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        BLESSED, actual,
        "result digests moved; the engine no longer reproduces the pinned results:\n{table}"
    );
}

#[test]
fn fast_path_matches_reference_and_pinned_digests_at_other_windows() {
    let mut actual = Vec::new();
    for name in TIER1 {
        let (program, trace) = workload(name);
        for (rs, rob) in WINDOWS {
            for s in SCHEDULERS {
                let d = run_case(name, &program, &trace, (rs, rob), s, POLLS[0]);
                actual.push((name, scheduler_name(s), rs, rob, d));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(w, s, rs, rob, d)| format!("    (\"{w}\", \"{s}\", {rs}, {rob}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        BLESSED_WINDOWS, actual,
        "window digests moved; the engine no longer reproduces the pinned results:\n{table}"
    );
}

#[test]
#[ignore = "every workload; CI runs it with --ignored in release"]
fn fast_path_matches_reference_on_every_workload() {
    let mut actual = Vec::new();
    for &name in crisp_workloads::all_names() {
        let (program, trace) = workload(name);
        let cases: Vec<u64> = SCHEDULERS
            .iter()
            .flat_map(|&s| {
                POLLS.map(|poll| run_case(name, &program, &trace, DEFAULT_WINDOW, s, poll))
            })
            .collect();
        actual.push((name, digest(&cases)));
    }
    let table: String = actual
        .iter()
        .map(|(w, d)| format!("    (\"{w}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        BLESSED_WORKLOADS, actual,
        "workload digests moved; the engine no longer reproduces the pinned results:\n{table}"
    );
}
