//! Property-based round-trip tests for the checkpoint `Snapshot` trait:
//! every implementor is driven into a randomized state, serialised,
//! restored into a freshly constructed instance, and re-serialised — the
//! two word vectors must be byte-identical, and (where the type is
//! executable) the restored instance must behave identically afterwards.
//! Below them, truncation/corruption sweeps and a layout pin.

use crisp_bench::sweep::{run_supervised_sweep, SweepConfig};
use crisp_bench::ExperimentScale;
use crisp_emu::{Emulator, Memory};
use crisp_harness::JobOutcome;
use crisp_isa::{AluOp, Cond, CtrlKind, ProgramBuilder, Reg};
use crisp_isa::{Opcode, Program, StaticInst, Trace};
use crisp_mem::{
    Bop, Cache, CacheConfig, Dram, DramConfig, Ghb, GhbWidth, HierarchyConfig, MemoryHierarchy,
    Prefetcher, Sisb, Spp, StreamPrefetcher, StridePrefetcher,
};
use crisp_obs::FlightRecorder;
use crisp_sim::{
    BitSet, BpuConfig, BranchPredictionUnit, CheckpointSink, SimConfig, SimError, SimResult,
    SimSnapshot, Simulator, Snapshot, StallTable, TelemetryLog, Tracer, UpcTimeline,
};
use crisp_uarch::{
    Bimodal, Btb, DirectionPredictor, Gshare, IndirectPredictor, Ras, Tage, TageConfig,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// Serialise `driven`, restore into `fresh`, and require the re-serialised
/// state to be byte-identical. Returns the words for further checks.
fn assert_roundtrip<T: Snapshot + ?Sized>(driven: &T, fresh: &mut T) -> Vec<u64> {
    let words = driven.snapshot_words();
    fresh
        .restore_words(&words)
        .expect("restore into a fresh instance");
    let again = fresh.snapshot_words();
    assert_eq!(again, words, "snapshot→restore→snapshot changed the words");
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Direction predictors: random train streams, then byte-identical
    /// round-trips and lockstep agreement afterwards.
    #[test]
    fn direction_predictors_round_trip(
        ops in proptest::collection::vec((0u64..64, 0u8..2), 1..200),
    ) {
        let mut bimodal = Bimodal::new(512);
        let mut gshare = Gshare::new(512, 10);
        let mut tage = Tage::default_config();
        for &(slot, taken) in &ops {
            let pc = 0x1000 + slot * 4;
            let taken = taken == 1;
            let p = bimodal.predict(pc);
            bimodal.update(pc, taken, p);
            let p = gshare.predict(pc);
            gshare.update(pc, taken, p);
            let p = tage.predict(pc);
            tage.update(pc, taken, p);
        }
        assert_roundtrip(&bimodal, &mut Bimodal::new(512));
        assert_roundtrip(&gshare, &mut Gshare::new(512, 10));
        let mut tage2 = Tage::default_config();
        assert_roundtrip(&tage, &mut tage2);
        // The restored TAGE must predict identically from here on.
        for &(slot, taken) in ops.iter().rev() {
            let pc = 0x2000 + slot * 4;
            let a = tage.predict(pc);
            let b = tage2.predict(pc);
            prop_assert_eq!(a, b);
            tage.update(pc, taken == 1, a);
            tage2.update(pc, taken == 1, b);
        }
        prop_assert_eq!(tage.snapshot_words(), tage2.snapshot_words());
    }

    /// Target predictors: BTB (with LRU churn), RAS (push/pop mixes,
    /// including overflow/underflow) and the indirect predictor.
    #[test]
    fn target_predictors_round_trip(
        ops in proptest::collection::vec((0u64..96, 0u8..5), 1..200),
    ) {
        let kinds = [
            CtrlKind::CondBranch,
            CtrlKind::Jump,
            CtrlKind::IndirectJump,
            CtrlKind::Call,
            CtrlKind::Ret,
        ];
        let mut btb = Btb::new(32, 4);
        let mut ras = Ras::new(8);
        let mut ind = IndirectPredictor::new(64, 8);
        for &(slot, k) in &ops {
            let pc = 0x4000 + slot * 4;
            btb.insert(pc, pc + 64, kinds[k as usize]);
            btb.lookup(0x4000 + (slot / 2) * 4); // LRU churn + hit stats
            match k {
                0 => ras.push(pc),
                1 => {
                    ras.pop();
                }
                _ => ind.update(pc, pc + k as u64 * 8),
            }
        }
        assert_roundtrip(&btb, &mut Btb::new(32, 4));
        assert_roundtrip(&ras, &mut Ras::new(8));
        assert_roundtrip(&ind, &mut IndirectPredictor::new(64, 8));
    }

    /// Caches and DRAM: random access/fill/invalidate streams and
    /// timing-sensitive row-buffer state.
    #[test]
    fn cache_and_dram_round_trip(
        ops in proptest::collection::vec((0u64..128, 0u8..3), 1..200),
    ) {
        let cfg = CacheConfig::new(8 * 1024, 4, 64);
        let mut cache = Cache::new(cfg);
        let mut dram = Dram::new(DramConfig::default());
        let mut now = 0u64;
        for &(line, op) in &ops {
            match op {
                0 => {
                    cache.access(line);
                }
                1 => {
                    cache.fill(line, line % 3 == 0);
                }
                _ => {
                    cache.invalidate(line);
                }
            }
            dram.request(line * 64, now);
            now += 1 + line % 7;
        }
        assert_roundtrip(&cache, &mut Cache::new(cfg));
        let mut dram2 = Dram::new(DramConfig::default());
        assert_roundtrip(&dram, &mut dram2);
        // Row-buffer and bank timing state must carry over: identical
        // future requests must see identical latencies.
        for &(line, _) in ops.iter().take(16) {
            prop_assert_eq!(
                dram.request(line * 256, now),
                dram2.request(line * 256, now)
            );
            now += 3;
        }
    }

    /// All four data prefetchers, driven through the common trait.
    #[test]
    fn prefetchers_round_trip(
        ops in proptest::collection::vec((0u64..256, 0u64..8, 0u8..2), 1..200),
    ) {
        let mut stream = StreamPrefetcher::new(8, 4, 2);
        let mut stride = StridePrefetcher::new(64, 2);
        let mut bop = Bop::new();
        let mut ghb = Ghb::new(64, 32, 4);
        let mut out = Vec::new();
        for &(line, pc_slot, hit) in &ops {
            let pc = 0x7000 + pc_slot * 4;
            let l1_hit = hit == 1;
            for p in [
                &mut stream as &mut dyn Prefetcher,
                &mut stride,
                &mut bop,
                &mut ghb,
            ] {
                out.clear();
                p.on_access(line, pc, l1_hit, &mut out);
            }
            if line % 5 == 0 {
                bop.on_fill(line);
            }
        }
        assert_roundtrip(&stream, &mut StreamPrefetcher::new(8, 4, 2));
        assert_roundtrip(&stride, &mut StridePrefetcher::new(64, 2));
        assert_roundtrip(&bop, &mut Bop::new());
        assert_roundtrip(&ghb, &mut Ghb::new(64, 32, 4));
    }

    /// The zoo competitors (GHB width-depth, SISB temporal streaming,
    /// SPP signature-path), driven through the common trait: random
    /// access/fill streams, then byte-identical round-trips and lockstep
    /// agreement afterwards.
    #[test]
    fn zoo_prefetchers_round_trip(
        ops in proptest::collection::vec((0u64..512, 0u64..8, 0u8..2), 1..200),
    ) {
        let mut ghbw = GhbWidth::new(128, 32, 4, 4, 2);
        let mut sisb = Sisb::new(64, 1024, 2);
        let mut spp = Spp::new(64, 512, 256, 6, 250);
        let mut out = Vec::new();
        for &(line, pc_slot, hit) in &ops {
            let pc = 0x9000 + pc_slot * 4;
            for p in [
                &mut ghbw as &mut dyn Prefetcher,
                &mut sisb,
                &mut spp,
            ] {
                out.clear();
                p.on_access(line, pc, hit == 1, &mut out);
            }
            if line % 3 == 0 {
                spp.on_fill(line);
            }
        }
        let mut ghbw2 = GhbWidth::new(128, 32, 4, 4, 2);
        let mut sisb2 = Sisb::new(64, 1024, 2);
        let mut spp2 = Spp::new(64, 512, 256, 6, 250);
        assert_roundtrip(&ghbw, &mut ghbw2);
        assert_roundtrip(&sisb, &mut sisb2);
        assert_roundtrip(&spp, &mut spp2);
        // Restored instances must keep predicting identically.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for &(line, pc_slot, hit) in ops.iter().rev().take(32) {
            let pc = 0xa000 + pc_slot * 4;
            for (orig, fresh) in [
                (&mut ghbw as &mut dyn Prefetcher, &mut ghbw2 as &mut dyn Prefetcher),
                (&mut sisb, &mut sisb2),
                (&mut spp, &mut spp2),
            ] {
                a.clear();
                b.clear();
                orig.on_access(line, pc, hit == 1, &mut a);
                fresh.on_access(line, pc, hit == 1, &mut b);
                prop_assert_eq!(&a, &b, "{} diverged after restore", orig.name());
            }
        }
        prop_assert_eq!(spp.snapshot_words(), spp2.snapshot_words());
    }

    /// A hierarchy running a mixed zoo selection round-trips with all
    /// per-unit state and effectiveness counters intact.
    #[test]
    fn zoo_hierarchy_round_trips(
        ops in proptest::collection::vec((0u64..512, 0u8..3), 1..120),
    ) {
        let mut cfg = HierarchyConfig::skylake_like();
        cfg.prefetcher = "ghbw+spp:depth=4".parse().expect("zoo spec");
        let mut mem = MemoryHierarchy::new(cfg);
        let mut now = 0u64;
        for &(slot, op) in &ops {
            let addr = 0x30_0000 + slot * 64;
            match op {
                0 => {
                    mem.load(addr, 0x100 + slot * 4, now);
                }
                1 => {
                    mem.store(addr, 0x200 + slot * 4, now);
                }
                _ => {
                    mem.fetch(addr, now);
                }
            }
            now += 1 + slot % 13;
        }
        let mut fresh = MemoryHierarchy::new(cfg);
        assert_roundtrip(&mem, &mut fresh);
        prop_assert_eq!(mem.stats().prefetch_totals(), fresh.stats().prefetch_totals());
        for &(slot, _) in ops.iter().take(20) {
            let addr = 0x40_0000 + slot * 64;
            let a = mem.load(addr, 0x300, now);
            let b = fresh.load(addr, 0x300, now);
            prop_assert_eq!(a.ready_at(now), b.ready_at(now));
            now += 2;
        }
        prop_assert_eq!(mem.snapshot_words(), fresh.snapshot_words());
    }

    /// The full hierarchy: caches, MSHR-style inflight fills, prefetchers
    /// and DRAM behind one facade, including in-flight state mid-stream.
    #[test]
    fn memory_hierarchy_round_trips(
        ops in proptest::collection::vec((0u64..512, 0u8..3), 1..150),
    ) {
        let cfg = HierarchyConfig::skylake_like();
        let mut mem = MemoryHierarchy::new(cfg);
        let mut now = 0u64;
        for &(slot, op) in &ops {
            let addr = 0x10_0000 + slot * 64;
            match op {
                0 => {
                    mem.load(addr, 0x100 + slot * 4, now);
                }
                1 => {
                    mem.store(addr, 0x200 + slot * 4, now);
                }
                _ => {
                    mem.fetch(addr, now);
                }
            }
            now += 1 + slot % 13;
        }
        let mut fresh = MemoryHierarchy::new(cfg);
        assert_roundtrip(&mem, &mut fresh);
        // The restored hierarchy must keep timing identically.
        for &(slot, _) in ops.iter().take(20) {
            let addr = 0x20_0000 + slot * 64;
            let a = mem.load(addr, 0x300, now);
            let b = fresh.load(addr, 0x300, now);
            prop_assert_eq!(a.ready_at(now), b.ready_at(now));
            now += 2;
        }
        prop_assert_eq!(mem.snapshot_words(), fresh.snapshot_words());
    }

    /// Sparse memory plus full architectural state: pause a random
    /// program mid-flight, restore into a fresh emulator, and require the
    /// remainder of both executions to agree exactly.
    #[test]
    fn emulator_round_trips_mid_program(
        ops in proptest::collection::vec((0u8..4, 1u8..28, 1u8..28, 0i64..64), 4..60),
        pause in 1usize..40,
    ) {
        let mut b = ProgramBuilder::new();
        for &(kind, dst, src, imm) in &ops {
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
                _ => {
                    b.store(s, 0x2000 + imm * 8, d, 8);
                }
            }
        }
        b.halt();
        let p = b.build();

        let mut emu = Emulator::new(&p, Memory::new());
        for _ in 0..pause.min(ops.len() / 2) {
            emu.step().expect("straight-line step");
        }
        let mut resumed = Emulator::new(&p, Memory::new());
        assert_roundtrip(&emu, &mut resumed);
        assert_roundtrip(emu.memory(), &mut Memory::new());

        let rest_a = emu.run(10_000);
        let rest_b = resumed.run(10_000);
        prop_assert_eq!(rest_a.as_slice(), rest_b.as_slice());
        prop_assert_eq!(emu.regs(), resumed.regs());
        prop_assert_eq!(emu.retired(), resumed.retired());
        prop_assert_eq!(
            emu.memory().snapshot_words(),
            resumed.memory().snapshot_words()
        );
    }

    /// Scheduler bookkeeping: a BitSet under random set/clear churn,
    /// checked via the trait object surface too.
    #[test]
    fn bitset_round_trips(
        ops in proptest::collection::vec((0usize..48, 0u8..2), 1..200),
    ) {
        let mut bits = BitSet::new(48);
        for &(slot, op) in &ops {
            if op == 0 {
                bits.set(slot);
            } else {
                bits.clear(slot);
            }
        }
        // Through the dyn-trait path the checkpoint writer uses.
        let fresh: &mut dyn Snapshot = &mut BitSet::new(48);
        assert_roundtrip(&bits as &dyn Snapshot, fresh);
    }

    /// End-to-end: a random program checkpointed mid-run must finish with
    /// byte-identical statistics when resumed from any captured snapshot.
    /// This drives every implementor at once — engine window state, BPU,
    /// hierarchy and the stats block — through the real emission path.
    #[test]
    fn simulator_restore_is_deterministic_on_random_programs(
        ops in proptest::collection::vec((0u8..5, 1u8..28, 1u8..28, 0i64..64), 5..40),
        interval in 50u64..400,
    ) {
        let mut b = ProgramBuilder::new();
        b.li(Reg::new(29), 12);
        let top = b.label();
        b.bind(top);
        for &(kind, dst, src, imm) in &ops {
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
        b.alu_ri(AluOp::Sub, Reg::new(29), Reg::new(29), 1);
        b.branch(Cond::Ne, Reg::new(29), Reg::ZERO, top);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(100_000);

        let captured: Arc<Mutex<Vec<SimSnapshot>>> = Arc::new(Mutex::new(Vec::new()));
        let store = Arc::clone(&captured);
        let mut cfg = SimConfig::skylake();
        cfg.cancel_check_interval = 32;
        cfg.checkpoint_interval = Some(interval);
        cfg.checkpoint_sink = Some(CheckpointSink::new(move |s| {
            store.lock().expect("sink lock").push(s.clone());
        }));
        let baseline = Simulator::new(cfg).run(&p, &t, None);
        let reference = baseline.snapshot_words();

        let snapshots = std::mem::take(&mut *captured.lock().expect("sink lock"));
        for snapshot in snapshots {
            let cycle = snapshot.cycle;
            let mut cfg = SimConfig::skylake();
            cfg.restore = Some(Arc::new(snapshot));
            let resumed = Simulator::new(cfg).run(&p, &t, None);
            prop_assert_eq!(
                resumed.snapshot_words(),
                reference.clone(),
                "resume from cycle {} diverged",
                cycle
            );
        }
    }

    /// Same end-to-end restore-determinism property, but with the full
    /// observability surface enabled — flight recorder, interval telemetry
    /// and stall attribution. Their state lives in the snapshot's `stats`
    /// section, so a resumed run must reproduce the straight-through run's
    /// event ring, sample log and stall table byte-for-byte.
    #[test]
    fn observability_state_survives_restore(
        ops in proptest::collection::vec((0u8..5, 1u8..28, 1u8..28, 0i64..64), 5..40),
        interval in 50u64..400,
    ) {
        let mut b = ProgramBuilder::new();
        b.li(Reg::new(29), 12);
        let top = b.label();
        b.bind(top);
        for &(kind, dst, src, imm) in &ops {
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
        b.alu_ri(AluOp::Sub, Reg::new(29), Reg::new(29), 1);
        b.branch(Cond::Ne, Reg::new(29), Reg::ZERO, top);
        b.halt();
        let p = b.build();
        let t = Emulator::new(&p, Memory::new()).run(100_000);

        let obs_cfg = || {
            let mut cfg = SimConfig::skylake();
            cfg.cancel_check_interval = 32;
            cfg.tracer_capacity = Some(256);
            cfg.telemetry_interval = Some(64);
            cfg.stall_attribution = true;
            cfg
        };
        let captured: Arc<Mutex<Vec<SimSnapshot>>> = Arc::new(Mutex::new(Vec::new()));
        let store = Arc::clone(&captured);
        let mut cfg = obs_cfg();
        cfg.checkpoint_interval = Some(interval);
        cfg.checkpoint_sink = Some(CheckpointSink::new(move |s| {
            store.lock().expect("sink lock").push(s.clone());
        }));
        let baseline = Simulator::new(cfg).run(&p, &t, None);
        let reference = baseline.snapshot_words();

        let snapshots = std::mem::take(&mut *captured.lock().expect("sink lock"));
        for snapshot in snapshots {
            let cycle = snapshot.cycle;
            let mut cfg = obs_cfg();
            cfg.restore = Some(Arc::new(snapshot));
            let resumed = Simulator::new(cfg).run(&p, &t, None);
            prop_assert_eq!(
                resumed.tracer.events(),
                baseline.tracer.events(),
                "flight recorder diverged resuming from cycle {}",
                cycle
            );
            prop_assert_eq!(
                resumed.snapshot_words(),
                reference.clone(),
                "resume from cycle {} diverged",
                cycle
            );
        }
        // An obs-enabled snapshot must not restore into an obs-disabled
        // machine (and vice versa): enablement is part of the contract.
        let mut plain = SimConfig::skylake();
        plain.cancel_check_interval = 32;
        plain.checkpoint_interval = Some(interval);
        let captured: Arc<Mutex<Vec<SimSnapshot>>> = Arc::new(Mutex::new(Vec::new()));
        let store = Arc::clone(&captured);
        plain.checkpoint_sink = Some(CheckpointSink::new(move |s| {
            store.lock().expect("sink lock").push(s.clone());
        }));
        Simulator::new(plain).run(&p, &t, None);
        let snapshots = std::mem::take(&mut *captured.lock().expect("sink lock"));
        if let Some(snapshot) = snapshots.into_iter().next() {
            let mut cfg = obs_cfg();
            cfg.restore = Some(Arc::new(snapshot));
            let err = Simulator::new(cfg).try_run(&p, &t, None).unwrap_err();
            prop_assert!(err.to_string().contains("tracer"), "got: {}", err);
        }
    }
}

/// The prefetcher-zoo figure is deterministic *through the store*: a
/// cold sweep computes every `prefzoo` cell, a warm re-run serves them
/// from the content-addressed store, and both the rendered matrix and
/// every payload word are bit-identical — the SimResult-derived numbers
/// survive the encode/decode round trip exactly.
#[test]
fn prefzoo_store_warm_rerun_is_byte_identical() {
    let dir = std::env::temp_dir().join("crisp-snap-prefzoo-warm");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store = dir.join("store");
    let cfg_for = |manifest: &str| SweepConfig {
        scale: ExperimentScale::Tiny,
        targets: vec!["prefzoo".to_string()],
        workloads: Some(vec!["pointer_chase".to_string()]),
        manifest: Some(dir.join(manifest)),
        store: Some(store.clone()),
        ..SweepConfig::default()
    };

    let cold = run_supervised_sweep(&cfg_for("cold.jsonl")).expect("cold sweep");
    assert_eq!(cold.report.store_computed, 1);
    let warm = run_supervised_sweep(&cfg_for("warm.jsonl")).expect("warm sweep");
    assert_eq!(warm.report.store_hits, 1);
    assert_eq!(
        warm.rendered, cold.rendered,
        "matrix must render identically"
    );

    for (job, outcome) in &cold.report.outcomes {
        let JobOutcome::Completed { payload: a, .. } = outcome else {
            panic!("{job} did not complete: {outcome:?}");
        };
        let Some(JobOutcome::Completed { payload: b, .. }) = warm.report.outcomes.get(job) else {
            panic!("{job} missing from warm run");
        };
        assert_eq!(a.len(), b.len(), "{job}: payload length changed");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{job}: payload word {i} not bit-identical ({x} vs {y})"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---- restore robustness and layout pin ------------------------------------

/// One snapshot implementor in a driven state: its words and a factory
/// for the fresh, identically configured instance they restore into.
struct Case {
    name: &'static str,
    words: Vec<u64>,
    fresh: Box<dyn Fn() -> Box<dyn Snapshot>>,
}

fn case<T: Snapshot + 'static>(
    name: &'static str,
    driven: &T,
    fresh: impl Fn() -> T + 'static,
) -> Case {
    Case {
        name,
        words: driven.snapshot_words(),
        fresh: Box::new(move || Box::new(fresh())),
    }
}

fn small_tage() -> Tage {
    Tage::new(TageConfig {
        num_tables: 2,
        base_entries: 16,
        table_entries: 16,
        tag_bits: 8,
        min_hist: 2,
        max_hist: 12,
        u_reset_period: 64,
    })
}

fn small_bpu() -> BranchPredictionUnit {
    BranchPredictionUnit::new(BpuConfig {
        tage: *small_tage().config(),
        btb_entries: 16,
        btb_ways: 4,
        ras_depth: 4,
        indirect_entries: 16,
    })
}

/// A hierarchy small enough for exhaustive prefix/mutation sweeps, with
/// two zoo units so the nested prefetcher sections are covered.
fn small_hierarchy() -> HierarchyConfig {
    HierarchyConfig {
        l1i: CacheConfig::new(512, 2, 64),
        l1d: CacheConfig::new(512, 2, 64),
        llc: CacheConfig::new(2048, 4, 64),
        dram: DramConfig {
            banks: 4,
            ..DramConfig::default()
        },
        prefetcher: "ghbw:entries=8,ait=4+spp:st=4,pt=4,filter=8"
            .parse()
            .expect("zoo spec"),
        ..HierarchyConfig::skylake_like()
    }
}

/// A small load/store loop: loads walk one array, stores fill another.
fn load_store_loop(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg::new(1), 0x1000);
    b.li(Reg::new(29), iters);
    let top = b.label();
    b.bind(top);
    b.load(Reg::new(2), Reg::new(1), 0, 8);
    b.alu_ri(AluOp::Add, Reg::new(3), Reg::new(2), 7);
    b.store(Reg::new(1), 0x4000, Reg::new(3), 8);
    b.mul(Reg::new(4), Reg::new(3), Reg::new(2));
    b.alu_ri(AluOp::Add, Reg::new(1), Reg::new(1), 72);
    b.alu_ri(AluOp::Sub, Reg::new(29), Reg::new(29), 1);
    b.branch(Cond::Ne, Reg::new(29), Reg::ZERO, top);
    b.halt();
    b.build()
}

/// A reduced machine with every recording surface on, so one run fills
/// every `SimResult` field the snapshot carries.
fn small_machine() -> SimConfig {
    let mut cfg = SimConfig::skylake();
    cfg.rob_entries = 32;
    cfg.rs_entries = 12;
    cfg.issue_width = 4;
    cfg.load_buffer = 8;
    cfg.store_buffer = 8;
    cfg.fetch_queue_entries = 8;
    cfg.ftq_entries = 16;
    cfg.memory = small_hierarchy();
    cfg.cancel_check_interval = 16;
    cfg.record_upc_timeline = true;
    cfg.tracer_capacity = Some(24);
    cfg.telemetry_interval = Some(64);
    cfg.stall_attribution = true;
    cfg
}

/// Every snapshot implementor, driven into a non-trivial state.
fn driven_cases() -> Vec<Case> {
    // A fixed seed, not proptest: the layout pin needs the same states on
    // every run.
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let mut next = |bound: u64| rng.gen_range(0..bound);
    let mut cases = Vec::new();

    let (mut bimodal, mut gshare, mut tage) = (Bimodal::new(16), Gshare::new(16, 4), small_tage());
    for _ in 0..300 {
        let pc = 0x1000 + next(24) * 4;
        let taken = next(3) != 0;
        let p = bimodal.predict(pc);
        bimodal.update(pc, taken, p);
        let p = gshare.predict(pc);
        gshare.update(pc, taken, p);
        let p = tage.predict(pc);
        tage.update(pc, taken, p);
    }
    cases.push(case("bimodal", &bimodal, || Bimodal::new(16)));
    cases.push(case("gshare", &gshare, || Gshare::new(16, 4)));
    cases.push(case("tage", &tage, small_tage));

    use CtrlKind::{CondBranch, IndirectJump, Jump, Ret};
    let kinds = [CondBranch, Jump, IndirectJump, CtrlKind::Call, Ret];
    let (mut btb, mut ras, mut ind) = (Btb::new(16, 4), Ras::new(4), IndirectPredictor::new(16, 4));
    for i in 0..60u64 {
        let pc = 0x4000 + next(40) * 4;
        btb.insert(pc, pc + 64, kinds[next(5) as usize]);
        btb.lookup(0x4000 + next(40) * 4);
        if i % 3 == 0 {
            ras.pop();
        } else {
            ras.push(pc);
        }
        ind.update(pc, pc + next(4) * 8);
    }
    cases.push(case("btb", &btb, || Btb::new(16, 4)));
    cases.push(case("ras", &ras, || Ras::new(4)));
    cases.push(case("indirect", &ind, || IndirectPredictor::new(16, 4)));

    let mut bpu = small_bpu();
    use Opcode::{Call, JumpInd};
    let ctrl = [
        Opcode::Branch(Cond::Eq),
        Opcode::Jump,
        JumpInd,
        Call,
        Opcode::Ret,
    ];
    for _ in 0..120 {
        let inst = StaticInst::nullary(ctrl[next(5) as usize]);
        let pc = 0x400 + next(24) * 4;
        let target = 0x800 + next(6) * 4;
        bpu.observe(&inst, pc, next(3) != 0, target, pc + 4);
    }
    cases.push(case("bpu", &bpu, small_bpu));

    let cache_cfg = CacheConfig::new(512, 2, 64);
    let mut cache = Cache::new(cache_cfg);
    let dram_cfg = DramConfig {
        banks: 4,
        ..DramConfig::default()
    };
    let mut dram = Dram::new(dram_cfg);
    for now in 0..80u64 {
        let line = next(24);
        let _ = match next(3) {
            0 => cache.access(line),
            1 => cache.fill_pf(line, next(3) as u8).evicted.is_some(),
            _ => cache.invalidate(line),
        };
        dram.request(line * 4096, now * 3);
    }
    cases.push(case("cache", &cache, move || Cache::new(cache_cfg)));
    cases.push(case("dram", &dram, move || Dram::new(dram_cfg)));

    let mut stream = StreamPrefetcher::new(4, 4, 2);
    let mut stride = StridePrefetcher::new(8, 2);
    let mut bop = Bop::with_params(vec![1, 2, 3, 4], 8, 4, 6, 1);
    let mut ghb = Ghb::new(8, 4, 2);
    let mut ghbw = GhbWidth::new(8, 4, 2, 2, 2);
    let mut sisb = Sisb::new(4, 8, 2);
    let mut spp = Spp::new(4, 4, 8, 3, 100);
    let mut out = Vec::new();
    let mut line = 100u64;
    for _ in 0..120 {
        line = (line as i64 + [1i64, 2, -3, 1, 5][next(5) as usize]).max(0) as u64;
        let pc = 0x7000 + next(6) * 4;
        let hit = next(4) == 0;
        for p in [
            &mut stream as &mut dyn Prefetcher,
            &mut stride,
            &mut bop,
            &mut ghb,
            &mut ghbw,
            &mut sisb,
            &mut spp,
        ] {
            out.clear();
            p.on_access(line, pc, hit, &mut out);
            p.on_fill(line);
        }
    }
    cases.push(case("stream", &stream, || StreamPrefetcher::new(4, 4, 2)));
    cases.push(case("stride", &stride, || StridePrefetcher::new(8, 2)));
    cases.push(case("bop", &bop, || {
        Bop::with_params(vec![1, 2, 3, 4], 8, 4, 6, 1)
    }));
    cases.push(case("ghb", &ghb, || Ghb::new(8, 4, 2)));
    cases.push(case("ghbw", &ghbw, || GhbWidth::new(8, 4, 2, 2, 2)));
    cases.push(case("sisb", &sisb, || Sisb::new(4, 8, 2)));
    cases.push(case("spp", &spp, || Spp::new(4, 4, 8, 3, 100)));

    let mut mem = MemoryHierarchy::new(small_hierarchy());
    for now in 0..150u64 {
        let addr = 0x10_0000 + next(48) * 64;
        let _ = match next(3) {
            0 => mem.load(addr, 0x100 + next(4) * 4, now * 2),
            1 => mem.store(addr, 0x200, now * 2),
            _ => mem.fetch(addr, now * 2),
        };
    }
    cases.push(case("hierarchy", &mem, || {
        MemoryHierarchy::new(small_hierarchy())
    }));

    let mut bits = BitSet::new(70);
    for slot in [3usize, 0, 5, 1] {
        bits.set(slot * 13);
    }
    cases.push(case("bitset", &bits, || BitSet::new(70)));

    let program: &'static Program = Box::leak(Box::new(load_store_loop(6)));
    let mut image = Memory::new();
    image.write_u64_slice(0x1000, &[3, 1, 4, 1, 5, 9, 2, 6]);
    let mut emu = Emulator::new(program, image);
    for _ in 0..20 {
        emu.step().expect("loop step");
    }
    cases.push(case("memory", emu.memory(), Memory::new));
    cases.push(case("emulator", &emu, move || {
        Emulator::new(program, Memory::new())
    }));

    let t = Emulator::new(program, Memory::new()).run(10_000);
    let res = Simulator::new(small_machine()).run(program, &t, None);
    cases.push(case("upc-timeline", &res.upc, UpcTimeline::default));
    cases.push(case("tracer", &res.tracer, || Tracer::ring(24)));
    let Tracer::Ring(ring) = &res.tracer else {
        panic!("tracing was configured on");
    };
    cases.push(case("flight-recorder", ring, || FlightRecorder::new(24)));
    cases.push(case("stall-table", &res.stall_table, StallTable::default));
    cases.push(case("telemetry", &res.telemetry, TelemetryLog::default));
    let ring_result = || SimResult {
        tracer: Tracer::ring(24),
        ..SimResult::default()
    };
    cases.push(case("sim-result", &res, ring_result));
    cases
}

/// Requires `restores` to reject every strict prefix of `words` (every
/// `step`th length, and the longest) and the words plus a trailing word;
/// with `corrupt`, also feeds it every single-word corruption of `words`
/// and returns those it panicked on (it may accept or reject them).
fn sweep(
    name: &str,
    words: &[u64],
    step: usize,
    corrupt: bool,
    restores: impl Fn(Vec<u64>) -> bool,
) -> Vec<String> {
    for len in (0..words.len()).step_by(step).chain([words.len() - 1]) {
        let n = words.len();
        assert!(
            !restores(words[..len].to_vec()),
            "{name}: prefix {len}/{n} accepted"
        );
    }
    assert!(
        !restores([words, &[0]].concat()),
        "{name}: trailing word accepted"
    );
    let mut panics = Vec::new();
    for i in (0..words.len()).filter(|_| corrupt) {
        for v in [u64::MAX, words[i].wrapping_add(1), 1 << 40, 2, 0] {
            let mut bad = words.to_vec();
            bad[i] = v;
            let run = std::panic::AssertUnwindSafe(|| restores(bad));
            if std::panic::catch_unwind(run).is_err() {
                panics.push(format!("{name} word {i} = {v:#x}"));
            }
        }
    }
    panics
}

/// Restore must reject every truncation and trailing garbage, and must
/// never panic on single-word corruption, for every implementor.
#[test]
fn every_implementor_rejects_truncation_and_survives_corruption() {
    let mut panics = Vec::new();
    for c in driven_cases() {
        let restores = |w: Vec<u64>| (c.fresh)().restore_words(&w).is_ok();
        assert!(
            restores(c.words.clone()),
            "{}: clean restore failed",
            c.name
        );
        panics.extend(sweep(c.name, &c.words, 1, true, restores));
    }
    assert!(panics.is_empty(), "restore panicked on: {panics:#?}");
}

/// A late mid-run checkpoint of the reduced machine running the load/store
/// loop, with the straight-through result it must resume to.
fn engine_fixture() -> (Program, Trace, SimSnapshot, Vec<u64>) {
    let p = load_store_loop(30);
    let t = Emulator::new(&p, Memory::new()).run(10_000);
    let captured: Arc<Mutex<Vec<SimSnapshot>>> = Arc::new(Mutex::new(Vec::new()));
    let store = Arc::clone(&captured);
    let mut cfg = small_machine();
    cfg.checkpoint_interval = Some(64);
    cfg.checkpoint_sink = Some(CheckpointSink::new(move |s| {
        store.lock().expect("sink lock").push(s.clone());
    }));
    let reference = Simulator::new(cfg).run(&p, &t, None).snapshot_words();
    let mut snapshots = std::mem::take(&mut *captured.lock().expect("sink lock"));
    assert!(snapshots.len() >= 4, "expected several checkpoints");
    // Late enough that each resumed run is short, early enough that the
    // window is still full of in-flight loads and stores.
    let late = snapshots.swap_remove(snapshots.len() - 3);
    (p, t, late, reference)
}

/// Restores `snapshot` into the reduced machine and runs it out, with a
/// tight watchdog and cycle budget so corrupted timing fails fast.
fn resume(p: &Program, t: &Trace, snapshot: SimSnapshot) -> Result<SimResult, SimError> {
    let mut cfg = small_machine();
    cfg.watchdog_cycles = 500;
    cfg.cycle_budget = Some(snapshot.cycle.saturating_add(2_000));
    cfg.restore = Some(Arc::new(snapshot));
    Simulator::new(cfg).try_run(p, t, None)
}

/// The whole-engine case: every section of a mid-run checkpoint rejects
/// truncation and trailing words, and single-word corruption of the
/// `engine` section either fails restore with an error or runs to an
/// `Ok`/`Err` end — never a panic inside the engine.
#[test]
fn engine_restore_rejects_truncation_and_survives_corruption() {
    let (p, t, snap, reference) = engine_fixture();
    let resumed = resume(&p, &t, snap.clone()).expect("clean resume");
    assert_eq!(resumed.snapshot_words(), reference, "clean resume diverged");

    let with_section = |name: &str, words: Vec<u64>| {
        let mut s = snap.clone();
        let slot = s.sections.iter_mut().find(|(n, _)| n == name);
        slot.expect("section present").1 = words;
        s
    };
    let mut panics = Vec::new();
    for (name, words) in &snap.sections {
        let restores = |w: Vec<u64>| resume(&p, &t, with_section(name, w)).is_ok();
        // The per-structure sweep covers every prefix of the predictor
        // tables; here the large `bpu` section is sampled.
        let step = (words.len() / 400).max(1);
        panics.extend(sweep(name, words, step, name == "engine", restores));
    }
    assert!(panics.is_empty(), "engine panicked on: {panics:#?}");
}

/// 64-bit FNV-1a over the little-endian bytes of a word vector.
fn digest(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Layout pin: FNV-1a digests of every driven structure's words and of
/// each section of the engine fixture's checkpoint.
///
/// Checkpoints written by earlier builds must keep restoring, so these
/// words may only change together with the on-disk format: any change
/// that moves a digest must bump `crisp_harness::CHECKPOINT_VERSION` and
/// re-bless this table (the failure message prints the new one).
#[test]
fn snapshot_layouts_are_pinned() {
    const BLESSED: &[(&str, u64)] = &[
        ("bimodal", 0x31c5e698283044d5),
        ("gshare", 0x9080c9f370edad3c),
        ("tage", 0xa4ad6c750ad0fe7f),
        ("btb", 0x90f887fe6c726551),
        ("ras", 0x4f57ca78ff29ab54),
        ("indirect", 0x4c9ae9ff7907245f),
        ("bpu", 0xb3b7f039dbb64157),
        ("cache", 0x1be794788deaa521),
        ("dram", 0xbb099eed2f9d245d),
        ("stream", 0x4b5ef63a416718e5),
        ("stride", 0xe400acf57fdbd9ac),
        ("bop", 0xf69f97ae45269809),
        ("ghb", 0x199cc37da621451c),
        ("ghbw", 0xb70c9f13531ff05e),
        ("sisb", 0x942aaf17855efd8e),
        ("spp", 0x4e16433497439332),
        ("hierarchy", 0x8b2367de099839ae),
        ("bitset", 0x731082a159035a20),
        ("memory", 0x46c864fa73884406),
        ("emulator", 0x74a6d0d4afddc197),
        ("upc-timeline", 0xc8bd1d35ac2be798),
        ("tracer", 0x879f37baf73392e8),
        ("flight-recorder", 0x598d20d5b7942359),
        ("stall-table", 0xbf0b74de4986b7f4),
        ("telemetry", 0xbd5906555167d762),
        ("sim-result", 0xe6d867b2cb446b88),
        ("checkpoint/engine", 0x79da0b725da22afa),
        ("checkpoint/mem", 0xedb890ef76bc7a61),
        ("checkpoint/bpu", 0xbfdd362f0feca3f4),
        ("checkpoint/stats", 0xa4b507c5d92717b9),
        ("checkpoint/final-result", 0xa5c64cfd97c0f05d),
    ];
    let mut actual: Vec<(String, u64)> = driven_cases()
        .iter()
        .map(|c| (c.name.to_string(), digest(&c.words)))
        .collect();
    let (_, _, snap, reference) = engine_fixture();
    for (name, words) in &snap.sections {
        actual.push((format!("checkpoint/{name}"), digest(words)));
    }
    actual.push(("checkpoint/final-result".to_string(), digest(&reference)));
    let table: String = actual
        .iter()
        .map(|(n, d)| format!("        (\"{n}\", {d:#018x}),\n"))
        .collect();
    let blessed: Vec<(String, u64)> = BLESSED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(
        blessed, actual,
        "snapshot layout changed; if intended, bump CHECKPOINT_VERSION and re-bless:\n{table}"
    );
}
