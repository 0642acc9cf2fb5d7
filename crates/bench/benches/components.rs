//! Criterion microbenchmarks of the simulator substrates: branch
//! prediction, caches, DRAM, prefetchers, the functional emulator and the
//! slicer. The scheduler's select is timed in place, by the engine's
//! HostProf `select` phase.

use crisp_emu::Emulator;
use crisp_mem::{
    Bop, Cache, CacheConfig, Dram, DramConfig, Ghb, HierarchyConfig, MemoryHierarchy, Prefetcher,
};
use crisp_slicer::{extract_slices, DepGraph, SliceConfig};
use crisp_uarch::{Btb, DirectionPredictor, Tage};
use crisp_workloads::{build, Input};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_tage(c: &mut Criterion) {
    let mut g = c.benchmark_group("tage");
    g.throughput(Throughput::Elements(1));
    let mut tage = Tage::default_config();
    let mut i = 0u64;
    g.bench_function("predict_update", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9E37_79B9);
            let pc = (i >> 7) & 0xFFF;
            let taken = (i >> 20) & 3 != 0;
            let pred = tage.predict(black_box(pc));
            tage.update(pc, taken, pred);
        })
    });
    g.finish();
}

fn bench_btb(c: &mut Criterion) {
    let mut btb = Btb::new(8192, 4);
    for pc in 0..4096u64 {
        btb.insert(pc * 4, pc * 8, crisp_isa::CtrlKind::Jump);
    }
    let mut i = 0u64;
    c.bench_function("btb/lookup", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(btb.lookup((i % 4096) * 4))
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(1));
    let mut cache = Cache::new(CacheConfig::new(1024 * 1024, 16, 64));
    let mut i = 0u64;
    g.bench_function("llc_access_fill", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x61C8_8647);
            let line = (i >> 8) & 0xF_FFFF;
            if !cache.access(black_box(line)) {
                cache.fill(line, false);
            }
        })
    });
    g.finish();
}

fn bench_dram(c: &mut Criterion) {
    let mut dram = Dram::new(DramConfig::default());
    let mut now = 0u64;
    let mut i = 0u64;
    c.bench_function("dram/request", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            now += 30;
            black_box(dram.request(i & 0x3FFF_FFC0, now))
        })
    });
}

fn bench_bop(c: &mut Criterion) {
    let mut bop = Bop::new();
    let mut out = Vec::new();
    let mut line = 0u64;
    c.bench_function("bop/on_access", |b| {
        b.iter(|| {
            line += 3;
            out.clear();
            bop.on_access(black_box(line), 0, false, &mut out);
            bop.on_fill(line);
        })
    });
}

fn bench_emulator(c: &mut Criterion) {
    let w = build("mcf", Input::Train).expect("registered");
    let mut g = c.benchmark_group("emulator");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("mcf_10k_insts", |b| {
        b.iter(|| {
            let mut emu = Emulator::new(&w.program, w.memory.clone());
            black_box(emu.run(10_000).len())
        })
    });
    g.finish();
}

fn bench_slicer(c: &mut Criterion) {
    let w = build("mcf", Input::Train).expect("registered");
    let trace = Emulator::new(&w.program, w.memory.clone()).run(50_000);
    let mut g = c.benchmark_group("slicer");
    g.sample_size(20);
    g.bench_function("depgraph_50k", |b| {
        b.iter(|| black_box(DepGraph::build(&w.program, &trace)))
    });
    let graph = DepGraph::build(&w.program, &trace);
    // Slice the chase loads (found dynamically: loads with offset 0).
    let roots: Vec<u32> = w
        .program
        .iter()
        .filter(|(_, i)| i.is_load() && i.imm == 0)
        .map(|(pc, _)| pc)
        .collect();
    g.bench_function("extract_slices", |b| {
        b.iter(|| {
            black_box(extract_slices(
                &w.program,
                &trace,
                &graph,
                &roots,
                &SliceConfig::default(),
            ))
        })
    });
    g.finish();
}

fn bench_ghb(c: &mut Criterion) {
    let mut ghb = Ghb::new(512, 256, 4);
    let mut out = Vec::new();
    let mut line = 0u64;
    c.bench_function("ghb/on_access", |b| {
        b.iter(|| {
            line += 5;
            out.clear();
            ghb.on_access(black_box(line), 0x44, false, &mut out);
        })
    });
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut g = c.benchmark_group("hierarchy");
    g.throughput(Throughput::Elements(1));
    let mut mem = MemoryHierarchy::new(HierarchyConfig::skylake_like());
    let mut now = 0u64;
    let mut x = 0x2545F4914F6CDD1Du64;
    g.bench_function("load_mixed", |b| {
        b.iter(|| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            now += 3;
            // 75% hot set (L1-resident), 25% cold.
            let addr = if x & 3 == 0 {
                (x >> 20) & 0x3FF_FFC0
            } else {
                0x500_0000 + (x & 0x3FC0)
            };
            black_box(mem.load(addr, 0x77, now))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tage,
    bench_btb,
    bench_cache,
    bench_dram,
    bench_bop,
    bench_ghb,
    bench_emulator,
    bench_slicer,
    bench_hierarchy
);
criterion_main!(benches);
