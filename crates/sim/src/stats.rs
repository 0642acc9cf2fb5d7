use crisp_isa::Pc;
use crisp_mem::MemStats;
use std::collections::HashMap;

/// Per-static-load statistics collected during a simulation (the simulated
/// PEBS/PMU stream the profiler consumes).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoadPcStats {
    /// Dynamic executions of this load.
    pub execs: u64,
    /// Executions served by L1.
    pub l1_hits: u64,
    /// Executions served by the LLC.
    pub llc_hits: u64,
    /// Executions that went to DRAM (LLC misses).
    pub llc_misses: u64,
    /// Total observed load-to-use latency in cycles.
    pub total_latency: u64,
    /// Sum over LLC misses of concurrently outstanding DRAM loads
    /// (including this one) — MLP at miss time.
    pub mlp_sum: u64,
}

impl LoadPcStats {
    /// The load's LLC miss ratio.
    pub fn llc_miss_ratio(&self) -> f64 {
        if self.execs == 0 {
            0.0
        } else {
            self.llc_misses as f64 / self.execs as f64
        }
    }

    /// Average memory access time in cycles.
    pub fn amat(&self) -> f64 {
        if self.execs == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.execs as f64
        }
    }

    /// Average memory-level parallelism observed at this load's misses.
    pub fn avg_mlp(&self) -> f64 {
        if self.llc_misses == 0 {
            0.0
        } else {
            self.mlp_sum as f64 / self.llc_misses as f64
        }
    }
}

crisp_words::fields! { LoadPcStats {
    execs, l1_hits, llc_hits, llc_misses, total_latency, mlp_sum
} }

/// Per-static-branch statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchPcStats {
    /// Dynamic executions.
    pub execs: u64,
    /// Mispredictions.
    pub mispredicts: u64,
}

impl BranchPcStats {
    /// The branch's misprediction ratio.
    pub fn mispredict_ratio(&self) -> f64 {
        if self.execs == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.execs as f64
        }
    }
}

crisp_words::fields! { BranchPcStats { execs, mispredicts } }

/// The per-cycle retired-instruction timeline of Figure 1.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpcTimeline {
    counts: Vec<u8>,
}

crisp_words::fields! { UpcTimeline { counts as list } }

impl UpcTimeline {
    pub(crate) fn push(&mut self, retired: usize) {
        self.counts.push(retired.min(255) as u8);
    }

    /// Appends `cycles` cycles that retired nothing.
    pub(crate) fn push_idle(&mut self, cycles: u64) {
        let len = self.counts.len() + cycles as usize;
        self.counts.resize(len, 0);
    }

    /// Retired instructions at each cycle.
    pub fn as_slice(&self) -> &[u8] {
        &self.counts
    }

    /// Average µops retired per cycle over a window.
    pub fn average(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.counts.len());
        if from >= to {
            return 0.0;
        }
        let sum: u64 = self.counts[from..to].iter().map(|&c| u64::from(c)).sum();
        sum as f64 / (to - from) as f64
    }

    /// Downsamples the timeline into `buckets` averages (for plotting).
    pub fn bucketed(&self, buckets: usize) -> Vec<f64> {
        if self.counts.is_empty() || buckets == 0 {
            return Vec::new();
        }
        let per = self.counts.len().div_ceil(buckets);
        self.counts
            .chunks(per)
            .map(|c| c.iter().map(|&x| f64::from(x)).sum::<f64>() / c.len() as f64)
            .collect()
    }
}

/// The complete result of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// Cycles where the ROB was non-empty but its head had not completed
    /// (the paper's ROB-head stall metric).
    pub rob_head_stall_cycles: u64,
    /// Cycles where fetch was blocked waiting for a mispredicted branch to
    /// resolve (plus redirect).
    pub fetch_stall_mispredict_cycles: u64,
    /// Cycles where fetch was blocked on the instruction cache.
    pub fetch_stall_icache_cycles: u64,
    /// Conditional branches fetched.
    pub cond_branches: u64,
    /// Conditional-branch mispredictions.
    pub cond_mispredicts: u64,
    /// Indirect-target mispredictions (jumps + returns).
    pub indirect_mispredicts: u64,
    /// Memory hierarchy counters.
    pub mem: MemStats,
    /// Per-load-PC statistics (empty unless `collect_pc_stats`).
    pub load_pc_stats: HashMap<Pc, LoadPcStats>,
    /// Per-branch-PC statistics (empty unless `collect_pc_stats`).
    pub branch_pc_stats: HashMap<Pc, BranchPcStats>,
    /// Per-cycle retired counts (empty unless `record_upc_timeline`).
    pub upc: UpcTimeline,
    /// Critical instructions issued (the CRISP scheduler's priority
    /// class); with [`SimResult::issued_noncritical`] this is the
    /// telemetry issue-mix numerator.
    pub issued_critical: u64,
    /// Non-critical instructions issued.
    pub issued_noncritical: u64,
    /// The pipeline flight recorder ([`crisp_obs::Tracer::Off`] unless
    /// `tracer_capacity` is set).
    pub tracer: crisp_obs::Tracer,
    /// Per-PC ROB-head stall attribution (empty unless
    /// `stall_attribution`).
    pub stall_table: crisp_obs::StallTable,
    /// Interval telemetry samples (empty unless `telemetry_interval`).
    pub telemetry: crisp_obs::TelemetryLog,
    /// Host-side self-profile (all-zero unless `SimConfig::hostprof`).
    /// Deliberately *excluded* from [`SimResult::snapshot_words`]: host
    /// nanoseconds are nondeterministic, and those words are the
    /// byte-identity witness that digests and oracles compare.
    pub hostprof: crisp_obs::HostProfReport,
}

// The per-PC maps are emitted sorted by PC, so equal results encode
// identically. `hostprof` is deliberately left out (see its doc).
crisp_words::fields! { SimResult {
    cycles, retired, rob_head_stall_cycles, fetch_stall_mispredict_cycles,
    fetch_stall_icache_cycles, cond_branches, cond_mispredicts, indirect_mispredicts, mem,
    load_pc_stats as map, branch_pc_stats as map, upc as section, issued_critical,
    issued_noncritical, tracer as section, stall_table as section, telemetry as section
} }

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch mispredictions per kilo-instruction.
    pub fn branch_mpki(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.cond_mispredicts as f64 * 1000.0 / self.retired as f64
        }
    }

    /// Demand-load LLC misses per kilo-instruction.
    pub fn llc_load_mpki(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.mem.load_llc_misses as f64 * 1000.0 / self.retired as f64
        }
    }

    /// Instruction-cache misses per kilo-instruction (Figure 12's
    /// worst-case metric).
    pub fn icache_mpki(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.mem.l1i.misses as f64 * 1000.0 / self.retired as f64
        }
    }

    /// Data-prefetch accuracy across every configured unit: the fraction
    /// of issued prefetches a demand access later consumed. 0 when no
    /// prefetches were issued.
    pub fn prefetch_accuracy(&self) -> f64 {
        let t = self.mem.prefetch_totals();
        if t.issued == 0 {
            0.0
        } else {
            t.useful as f64 / t.issued as f64
        }
    }

    /// Data-prefetch timeliness: the fraction of *useful* prefetches that
    /// fully hid the miss latency (the demand found the line resident
    /// rather than merging into the in-flight fill). 0 when nothing was
    /// useful.
    pub fn prefetch_timeliness(&self) -> f64 {
        let t = self.mem.prefetch_totals();
        if t.useful == 0 {
            0.0
        } else {
            (t.useful - t.late) as f64 / t.useful as f64
        }
    }

    /// Data-prefetch coverage against a no-prefetch baseline run: the
    /// fraction of the baseline's demand-load LLC misses this run
    /// eliminated. Clamped at 0 (a polluting prefetcher can add misses).
    pub fn prefetch_coverage_vs(&self, nopf: &SimResult) -> f64 {
        if nopf.mem.load_llc_misses == 0 {
            0.0
        } else {
            let base = nopf.mem.load_llc_misses as f64;
            ((base - self.mem.load_llc_misses as f64) / base).max(0.0)
        }
    }

    /// Relative IPC speedup of `self` over `baseline`, in percent.
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        let base = baseline.ipc();
        if base == 0.0 {
            0.0
        } else {
            (self.ipc() / base - 1.0) * 100.0
        }
    }

    /// The result's words (see the [`crisp_words::Snapshot`] impl): the
    /// byte-identity witness that output digests and the engine oracle
    /// compare, callable without importing the trait.
    pub fn snapshot_words(&self) -> Vec<u64> {
        crisp_words::Snapshot::snapshot_words(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_pc_stats_ratios() {
        let s = LoadPcStats {
            execs: 10,
            l1_hits: 5,
            llc_hits: 2,
            llc_misses: 3,
            total_latency: 700,
            mlp_sum: 9,
        };
        assert!((s.llc_miss_ratio() - 0.3).abs() < 1e-12);
        assert!((s.amat() - 70.0).abs() < 1e-12);
        assert!((s.avg_mlp() - 3.0).abs() < 1e-12);
        assert_eq!(LoadPcStats::default().amat(), 0.0);
        assert_eq!(LoadPcStats::default().avg_mlp(), 0.0);
    }

    #[test]
    fn branch_stats_ratio() {
        let b = BranchPcStats {
            execs: 8,
            mispredicts: 2,
        };
        assert!((b.mispredict_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(BranchPcStats::default().mispredict_ratio(), 0.0);
    }

    #[test]
    fn upc_timeline_average_and_buckets() {
        let mut t = UpcTimeline::default();
        for c in [6, 6, 0, 0, 6, 6] {
            t.push(c);
        }
        assert!((t.average(0, 6) - 4.0).abs() < 1e-12);
        assert!((t.average(2, 4)).abs() < 1e-12);
        assert_eq!(t.average(4, 4), 0.0);
        let b = t.bucketed(3);
        assert_eq!(b, vec![6.0, 0.0, 6.0]);
        assert!(t.bucketed(0).is_empty());
    }

    #[test]
    fn result_derived_metrics() {
        let mut r = SimResult {
            cycles: 1000,
            retired: 2000,
            cond_mispredicts: 10,
            ..SimResult::default()
        };
        r.mem.load_llc_misses = 20;
        assert!((r.ipc() - 2.0).abs() < 1e-12);
        assert!((r.branch_mpki() - 5.0).abs() < 1e-12);
        assert!((r.llc_load_mpki() - 10.0).abs() < 1e-12);

        let base = SimResult {
            cycles: 1000,
            retired: 1000,
            ..SimResult::default()
        };
        assert!((r.speedup_over(&base) - 100.0).abs() < 1e-9);
        assert_eq!(SimResult::default().ipc(), 0.0);
    }

    #[test]
    fn sim_result_words_cover_every_field_but_hostprof() {
        type Mutate = fn(&mut SimResult);
        let cases: [Mutate; 17] = [
            |r| r.cycles = 1,
            |r| r.retired = 1,
            |r| r.rob_head_stall_cycles = 1,
            |r| r.fetch_stall_mispredict_cycles = 1,
            |r| r.fetch_stall_icache_cycles = 1,
            |r| r.cond_branches = 1,
            |r| r.cond_mispredicts = 1,
            |r| r.indirect_mispredicts = 1,
            |r| r.mem.dram.row_hits = 1,
            |r| {
                r.load_pc_stats.insert(7, LoadPcStats::default());
            },
            |r| {
                r.branch_pc_stats.insert(9, BranchPcStats::default());
            },
            |r| r.upc.push(0),
            |r| r.issued_critical = 1,
            |r| r.issued_noncritical = 1,
            |r| r.tracer = crisp_obs::Tracer::ring(8),
            |r| r.stall_table.charge(42, crisp_obs::StallClass::Fu),
            |r| r.telemetry.record(crisp_obs::TelemetryInputs::default()),
        ];
        let base = SimResult::default().snapshot_words();
        for (i, mutate) in cases.iter().enumerate() {
            let mut r = SimResult::default();
            mutate(&mut r);
            assert_ne!(
                r.snapshot_words(),
                base,
                "case {i} left the words unchanged"
            );
        }
        let mut r = SimResult::default();
        r.hostprof.enabled = true;
        r.hostprof.phase_ns[0] = 5;
        assert_eq!(r.snapshot_words(), base);
    }
}
