//! Property-based tests of cross-crate invariants (proptest).

use crisp_emu::{Emulator, Memory};
use crisp_isa::{AluOp, Cond, DynInst, Program, ProgramBuilder, Reg, Trace};
use crisp_sim::{SchedulerKind, SimConfig, Simulator};
use crisp_slicer::{critical_path_filter, extract_slices, DepGraph, LatencyModel, SliceConfig};
use proptest::prelude::*;

/// Builds a random but well-formed straight-line-plus-loop program from a
/// compact op list, always ending in halt.
fn arb_program() -> impl Strategy<Value = Program> {
    // Each element: (kind 0..5, dst 1..28, src 1..28, imm small)
    proptest::collection::vec((0u8..5, 1u8..28, 1u8..28, 0i64..64), 5..60).prop_map(|ops| {
        let mut b = ProgramBuilder::new();
        b.li(Reg::new(29), 8); // loop counter
        let top = b.label();
        b.bind(top);
        for (kind, dst, src, imm) in ops {
            let (d, s) = (Reg::new(dst), Reg::new(src));
            match kind {
                0 => {
                    b.alu_ri(AluOp::Add, d, s, imm);
                }
                1 => {
                    b.alu_rr(AluOp::Xor, d, s, d);
                }
                2 => {
                    b.load(d, s, 0x1000 + imm * 8, 8);
                }
                3 => {
                    b.store(s, 0x2000 + imm * 8, d, 8);
                }
                _ => {
                    b.mul(d, s, d);
                }
            }
        }
        b.alu_ri(AluOp::Add, Reg::new(28), Reg::new(28), 1);
        b.alu_ri(AluOp::Sub, Reg::new(29), Reg::new(29), 1);
        b.branch(Cond::Ne, Reg::new(29), Reg::ZERO, top);
        b.halt();
        b.build()
    })
}

/// Random machine geometries spanning both valid and degenerate shapes
/// (zero widths, RS larger than ROB, missing ports, ...).
fn arb_sim_config() -> impl Strategy<Value = SimConfig> {
    (
        (0usize..8, 0usize..8, 0usize..12),
        (0usize..48, 0usize..48, 0usize..12, 0usize..12),
        (0usize..5, 0usize..4, 0usize..4, 0usize..16),
    )
        .prop_map(
            |((fetch, retire, issue), (rob, rs, lb, sb), (alu, lp, sp, fq))| {
                let mut c = SimConfig::skylake();
                c.fetch_width = fetch;
                c.retire_width = retire;
                c.issue_width = issue;
                c.rob_entries = rob;
                c.rs_entries = rs;
                c.load_buffer = lb;
                c.store_buffer = sb;
                c.alu_ports = alu;
                c.load_ports = lp;
                c.store_ports = sp;
                c.fetch_queue_entries = fq;
                c
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The validator's contract: any `SimConfig` it accepts completes a
    /// 10k-instruction run without panicking (and retires everything); any
    /// config it rejects names the offending field with a message.
    #[test]
    fn validated_configs_always_complete(cfg in arb_sim_config(), p in arb_program()) {
        match cfg.validate() {
            Ok(()) => {
                let trace = Emulator::new(&p, Memory::new()).run(10_000);
                let res = Simulator::try_new(cfg)
                    .expect("validate() passed, try_new must agree")
                    .try_run(&p, &trace, None)
                    .expect("validated machine must complete the run");
                prop_assert_eq!(res.retired, trace.len() as u64);
            }
            Err(e) => {
                prop_assert!(!e.field.is_empty(), "rejection must name a field");
                prop_assert!(!e.message.is_empty(), "rejection must explain: {}", e);
            }
        }
    }

    /// The emulator is deterministic and traces have coherent control flow
    /// (each record's next_pc matches the following record's pc).
    #[test]
    fn emulation_is_deterministic_and_flow_coherent(p in arb_program()) {
        let t1 = Emulator::new(&p, Memory::new()).run(5_000);
        let t2 = Emulator::new(&p, Memory::new()).run(5_000);
        prop_assert_eq!(t1.as_slice(), t2.as_slice());
        for w in t1.as_slice().windows(2) {
            prop_assert_eq!(w[0].next_pc, w[1].pc);
        }
    }

    /// The simulator retires every trace exactly, under every scheduler,
    /// for arbitrary programs and arbitrary criticality maps.
    #[test]
    fn simulator_retires_all_work(p in arb_program(), crit_seed in any::<u64>()) {
        let trace = Emulator::new(&p, Memory::new()).run(3_000);
        let critical: Vec<bool> = (0..p.len())
            .map(|i| (crit_seed >> (i % 64)) & 1 == 1)
            .collect();
        for sched in [SchedulerKind::OldestReadyFirst, SchedulerKind::Crisp, SchedulerKind::RandomReady] {
            let res = Simulator::new(SimConfig::skylake().with_scheduler(sched))
                .run(&p, &trace, Some(&critical));
            prop_assert_eq!(res.retired, trace.len() as u64);
            prop_assert!(res.ipc() <= 6.0 + 1e-9);
        }
    }

    /// Slices always contain their root, never contain instructions that
    /// only consume the root, and critical-path filtering returns a
    /// subset that retains the root.
    #[test]
    fn slices_are_rooted_subsets(p in arb_program()) {
        let trace = Emulator::new(&p, Memory::new()).run(3_000);
        let graph = DepGraph::build(&p, &trace);
        // Every executed load is a root candidate.
        let mut roots: Vec<u32> = trace
            .iter()
            .filter(|r| p.inst(r.pc).is_load())
            .map(|r| r.pc)
            .collect();
        roots.sort_unstable();
        roots.dedup();
        roots.truncate(4);
        let slices = extract_slices(&p, &trace, &graph, &roots, &SliceConfig::default());
        for s in &slices {
            if s.instances == 0 {
                prop_assert!(s.pcs.is_empty());
                continue;
            }
            prop_assert!(s.pcs.contains(&s.root));
            let kept = critical_path_filter(&p, s, &LatencyModel::default(), 0.8);
            prop_assert!(kept.contains(&s.root));
            for pc in &kept {
                prop_assert!(s.pcs.contains(pc), "filter invented pc {pc}");
            }
        }
    }

    /// Register-only slices are subsets of memory-aware slices.
    #[test]
    fn memory_deps_only_grow_slices(p in arb_program()) {
        let trace = Emulator::new(&p, Memory::new()).run(3_000);
        let graph = DepGraph::build(&p, &trace);
        let roots: Vec<u32> = trace
            .iter()
            .filter(|r| p.inst(r.pc).is_load())
            .map(|r| r.pc)
            .take(3)
            .collect();
        let full = extract_slices(&p, &trace, &graph, &roots, &SliceConfig::default());
        let reg_only_cfg = SliceConfig { follow_memory_deps: false, ..SliceConfig::default() };
        let reg_only = extract_slices(&p, &trace, &graph, &roots, &reg_only_cfg);
        for (f, r) in full.iter().zip(&reg_only) {
            for pc in &r.pcs {
                prop_assert!(f.pcs.contains(pc), "register slice escaped the full slice");
            }
        }
    }

    /// Layout addresses are strictly increasing and the criticality prefix
    /// adds exactly `count` bytes.
    #[test]
    fn layout_prefix_accounting(p in arb_program(), seed in any::<u64>()) {
        let critical: Vec<bool> = (0..p.len()).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        let base = p.layout(|_| false);
        let tagged = p.layout(|pc| critical[pc as usize]);
        let count = critical.iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(tagged.code_bytes(), base.code_bytes() + count);
        for pc in 0..p.len() as u32 {
            prop_assert!(tagged.addr(pc) >= base.addr(pc));
        }
    }

    /// Trace statistics agree with a straightforward recount.
    #[test]
    fn trace_stats_recount(p in arb_program()) {
        let trace = Emulator::new(&p, Memory::new()).run(2_000);
        let stats = trace.stats(&p);
        let loads = trace.iter().filter(|r| p.inst(r.pc).is_load()).count() as u64;
        let stores = trace.iter().filter(|r| p.inst(r.pc).is_store()).count() as u64;
        prop_assert_eq!(stats.loads, loads);
        prop_assert_eq!(stats.stores, stores);
        prop_assert_eq!(stats.instructions, trace.len() as u64);
    }
}

/// Non-proptest sanity: an empty trace exercises every public stats path.
#[test]
fn empty_trace_edge_case() {
    let mut b = ProgramBuilder::new();
    b.halt();
    let p = b.build();
    let t = Trace::new();
    let res = Simulator::new(SimConfig::skylake()).run(&p, &t, None);
    assert_eq!(res.retired, 0);
    let stats = t.stats(&p);
    assert_eq!(stats.instructions, 0);
    let _ = DynInst::simple(0, 0);
}
